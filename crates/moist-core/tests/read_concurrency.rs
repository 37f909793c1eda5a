//! Shard concurrency, under fire.
//!
//! Shards sit behind `Mutex<MoistServer>`, taken by writers only; the
//! server's shared half (`FrontEnd`: queries, counters, load, clock,
//! aging) sits beside the mutex, so `with_shard_read`, the tier's own
//! queries and its stats rollups take no shard lock. These tests pin the
//! contracts:
//!
//! * `with_shard_read` calls on one shard genuinely overlap (an exclusive
//!   lock would deadlock the handshake);
//! * pinning a shard's writer lock mid-`update_batch` delays neither the
//!   tier's queries on that shard, nor `with_shard_read` on it, nor the
//!   stats rollups and `age_data`, nor other shards' readers;
//! * a writer with a backlog drains it beside a closed-loop NN reader on
//!   its hot shard without waiting out the reader's scans;
//! * racing readers and writers account exactly: final `ServerStats`
//!   counters and the store's operation counters equal the
//!   single-threaded oracle, and virtual elapsed time matches up to
//!   interleaving noise;
//! * single-threaded, the per-call hub-seeded sessions are
//!   bit-identical to the old one-shared-clock design (pinned against a
//!   plain `Session` replay of the same ops) — the invariant that keeps
//!   fig13/fig16 outputs unchanged across the refactor.

use moist_bigtable::{Bigtable, MetricsSnapshot, Timestamp};
use moist_core::{
    apply_update, nn_query, FlagTuner, MoistCluster, MoistConfig, MoistServer, MoistTables,
    NnOptions, ObjectId, ServerStats, UpdateMessage, UpdateOutcome,
};
use moist_spatial::{Point, Rect, Velocity};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

fn msg(oid: u64, x: f64, y: f64, secs: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::new(1.0, 0.0),
        ts: Timestamp::from_secs_f64(secs),
    }
}

/// Deterministic xorshift scatter of `n` objects over the paper map.
fn seed_objects(cluster: &MoistCluster, n: u64) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for oid in 0..n {
        cluster
            .update(&msg(oid, next() * 1000.0, next() * 1000.0, 1.0))
            .unwrap();
    }
}

/// One representative point routed to each shard (deterministic sweep).
fn probe_points(cluster: &MoistCluster) -> Vec<Point> {
    let mut probe: Vec<Option<Point>> = vec![None; SHARDS];
    'sweep: for gx in 0..64 {
        for gy in 0..64 {
            let p = Point::new(gx as f64 * 15.5 + 8.0, gy as f64 * 15.5 + 8.0);
            let shard = cluster.shard_for_point(&p);
            probe[shard].get_or_insert(p);
            if probe.iter().all(Option::is_some) {
                break 'sweep;
            }
        }
    }
    probe
        .into_iter()
        .map(|p| p.expect("every shard owns some cell on the sweep grid"))
        .collect()
}

/// Two threads sit inside `with_shard_read` on the *same shard* at the
/// same time. The handshake (each side waits for the other while still
/// inside its closure) deadlocks under an exclusive lock, so the 5 s
/// timeout doubles as the regression signal.
#[test]
fn read_guards_on_one_shard_overlap() {
    let store = Bigtable::new();
    let cluster = Arc::new(
        MoistCluster::builder(&store, tier_config())
            .shards(SHARDS)
            .build()
            .unwrap(),
    );
    seed_objects(&cluster, 64);

    let (a_in_tx, a_in_rx) = mpsc::channel::<()>();
    let (b_in_tx, b_in_rx) = mpsc::channel::<()>();

    let c1 = Arc::clone(&cluster);
    let t1 = std::thread::spawn(move || {
        c1.with_shard_read(0, |server| {
            a_in_tx.send(()).unwrap();
            // Stay inside the closure until the second reader is in too.
            b_in_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("second reader must enter the shard while we are still inside");
            server.stats()
        })
        .unwrap()
    });
    let c2 = Arc::clone(&cluster);
    let t2 = std::thread::spawn(move || {
        a_in_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first reader never entered");
        c2.with_shard_read(0, |server| {
            b_in_tx.send(()).unwrap();
            server.stats()
        })
        .unwrap()
    });
    let s1 = t1.join().unwrap();
    let s2 = t2.join().unwrap();
    assert_eq!(s1, s2, "overlapping readers saw one consistent shard");
}

/// A writer pins shard 0's lock mid-`update_batch` (inside `with_shard`)
/// until every reader below has answered: a read of another shard, eight
/// tier queries aimed at the pinned shard, and — on the pinned shard
/// itself — `with_shard_read`, the tier's stats rollups and `age_data`.
/// None of them takes a shard lock; anything that waited for the pinned
/// one would leave the writer waiting for its release signal until the
/// 5 s timeout fails the test.
#[test]
fn tier_queries_do_not_wait_for_a_pinned_write_guard() {
    let store = Bigtable::new();
    let cluster = Arc::new(
        MoistCluster::builder(&store, tier_config())
            .shards(SHARDS)
            .build()
            .unwrap(),
    );
    seed_objects(&cluster, 256);
    let probes = probe_points(&cluster);
    let shard0_probe = probes[0];

    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let c_writer = Arc::clone(&cluster);
    let writer = std::thread::spawn(move || {
        let batch: Vec<UpdateMessage> = (1000..1064)
            .map(|oid| msg(oid, 10.0 + (oid - 1000) as f64 * 2.0, 10.0, 2.0))
            .collect();
        c_writer
            .with_shard(0, |server| {
                server.update_batch(&batch).unwrap();
                held_tx.send(()).unwrap();
                release_rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("readers must answer while shard 0's write guard is pinned");
            })
            .unwrap();
    });

    held_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // Another shard is free.
    let (nn_other, _) = cluster
        .with_shard_read(1, |s| {
            s.nn_at_level(probes[1], 3, Timestamp::from_secs(3), 5)
                .unwrap()
        })
        .unwrap();
    assert!(!nn_other.is_empty());

    let readers: Vec<_> = (0..8)
        .map(|i| {
            let c = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let at = Timestamp::from_secs(3);
                if i % 2 == 0 {
                    let (nn, _) = c.nn(shard0_probe, 3, at).unwrap();
                    assert!(!nn.is_empty());
                } else {
                    let rect = Rect::new(
                        shard0_probe.x - 40.0,
                        shard0_probe.y - 40.0,
                        shard0_probe.x + 40.0,
                        shard0_probe.y + 40.0,
                    );
                    c.region(&rect, at, 200.0).unwrap();
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }

    // The pinned shard's own counters, the rollups over every shard and
    // the table-wide aging sweep answer too.
    let now = Timestamp::from_secs(3);
    let pinned = cluster.with_shard_read(0, |s| s.stats()).unwrap();
    assert!(pinned.updates >= 64, "the pinned batch is counted");
    assert_eq!(cluster.stats().updates, 256 + 64);
    assert_eq!(cluster.shard_stats()[0], pinned);
    assert!(cluster.total_elapsed_us() > 0.0);
    assert_eq!(cluster.cluster_stats().shards.len(), SHARDS);
    cluster.age_data(now).unwrap();

    release_tx.send(()).unwrap();
    writer
        .join()
        .expect("a reader waited for the writer's lock");
}

/// A writer with a backlog — the state of a paced writer that has
/// fallen behind its schedule — drains it beside a closed-loop
/// `cluster.nn` reader on one hot cell without waiting out the reader's
/// scans. The backlog goes round the four shards, so between two updates
/// of the hot shard the reader has time to start its next scan: were
/// that scan to hold the shard's lock, every fourth update would wait a
/// whole scan (~UPDATES / 4 scans in all), which is how `rush_hour`'s
/// writer, once behind, stayed behind (measured with the lock held:
/// 200–440 scans; beside it: ~20). Counted in scans, not seconds, so a
/// loaded host moves both sides of the comparison alike; the wall-clock
/// bound is only a backstop.
#[test]
fn a_writer_with_a_backlog_drains_it_beside_a_closed_loop_nn_reader() {
    const UPDATES: u64 = 2_000;
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, tier_config())
        .shards(SHARDS)
        .build()
        .unwrap();
    seed_objects(&cluster, 4_000);
    let probes = probe_points(&cluster);
    let hot = probes[0];
    let before = cluster.stats();

    let done = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    let (scans_waited, took) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // The deadline ends the scope if the writer panics.
            let deadline = Instant::now() + Duration::from_secs(60);
            while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
                let (nn, _) = cluster.nn(hot, 500, Timestamp::from_secs(2)).unwrap();
                assert_eq!(nn.len(), 500);
                scans.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Start once the reader is scanning.
        while scans.load(Ordering::SeqCst) < 3 {
            std::hint::spin_loop();
        }
        let first = scans.load(Ordering::SeqCst);
        let t0 = Instant::now();
        for i in 0..UPDATES {
            // 200 objects, 50 per shard (200 is a multiple of SHARDS).
            let p = probes[i as usize % SHARDS];
            let secs = 3.0 + i as f64 * 1e-3;
            let m = msg(100_000 + i % 200, p.x + (i % 7) as f64 - 3.0, p.y, secs);
            cluster.update(&m).unwrap();
        }
        let waited = scans.load(Ordering::SeqCst) - first;
        done.store(true, Ordering::SeqCst);
        (waited, t0.elapsed())
    });

    let stats = cluster.stats();
    assert_eq!(
        stats.updates - before.updates,
        UPDATES,
        "every update applied"
    );
    assert!(stats.balanced(), "{stats:?}");
    assert!(
        scans_waited < UPDATES / 16 && took < Duration::from_secs(10),
        "{UPDATES} updates took {took:?}, as long as {scans_waited} scans of their hot shard"
    );
}

/// 4 racing writer threads (disjoint bands of the map, so update
/// outcomes are interleaving-independent), then 4 racing reader
/// threads; the same ops replayed single-threaded on a fresh tier are
/// the oracle. Counter totals and store op counts must match *exactly*;
/// virtual elapsed time to interleaving noise (a racing writer observes
/// slightly different store row counts inside the index-navigation
/// charge term, and f64 addition reorders under the hub's CAS loop).
#[test]
fn racing_totals_equal_the_single_threaded_oracle() {
    const WRITERS: u64 = 4;
    const UPDATES_PER_WRITER: u64 = 100;
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 40;

    // Writer `w` owns the horizontal band y = 30 + 250·w: bands sit in
    // distinct clustering cells 250 units apart (≫ ε = 50), so no
    // school ever couples two writers' objects and every update's
    // outcome depends only on its own thread's (fixed) order.
    fn spot(w: u64, i: u64) -> (f64, f64) {
        let x = 20.0 + ((i * 7) % 960) as f64;
        let y = 30.0 + w as f64 * 250.0;
        (x, y)
    }
    fn query_spot(r: usize, i: usize) -> (f64, f64) {
        spot(r as u64, (i * 3) as u64)
    }

    let run = |concurrent: bool| -> (ServerStats, MetricsSnapshot, f64) {
        let store = Bigtable::new();
        let cluster = Arc::new(
            MoistCluster::builder(&store, tier_config())
                .shards(SHARDS)
                .build()
                .unwrap(),
        );
        let before = store.metrics_snapshot();
        let read = |c: &MoistCluster, x: f64, y: f64| {
            let shard = c.shard_for_point(&Point::new(x, y));
            // Fixed NN level: FLAG's cache races are exercised elsewhere;
            // this oracle wants structurally identical scans.
            c.with_shard_read(shard, |s| {
                s.nn_at_level(Point::new(x, y), 3, Timestamp::from_secs(2), 5)
                    .unwrap()
            })
            .unwrap();
        };
        if concurrent {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let c = Arc::clone(&cluster);
                    std::thread::spawn(move || {
                        for i in 0..UPDATES_PER_WRITER {
                            let (x, y) = spot(w, i);
                            c.update(&msg(w * UPDATES_PER_WRITER + i, x, y, 1.0))
                                .unwrap();
                        }
                    })
                })
                .collect();
            for t in writers {
                t.join().unwrap();
            }
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let c = Arc::clone(&cluster);
                    std::thread::spawn(move || {
                        for i in 0..QUERIES_PER_READER {
                            let (x, y) = query_spot(r, i);
                            read(&c, x, y);
                        }
                    })
                })
                .collect();
            for t in readers {
                t.join().unwrap();
            }
        } else {
            for w in 0..WRITERS {
                for i in 0..UPDATES_PER_WRITER {
                    let (x, y) = spot(w, i);
                    cluster
                        .update(&msg(w * UPDATES_PER_WRITER + i, x, y, 1.0))
                        .unwrap();
                }
            }
            for r in 0..READERS {
                for i in 0..QUERIES_PER_READER {
                    let (x, y) = query_spot(r, i);
                    read(&cluster, x, y);
                }
            }
        }
        let ops = store.metrics_snapshot().delta(&before);
        let elapsed = cluster.total_elapsed_us();
        (cluster.stats(), ops, elapsed)
    };

    let (racy_stats, racy_ops, racy_us) = run(true);
    let (oracle_stats, oracle_ops, oracle_us) = run(false);

    assert_eq!(racy_stats, oracle_stats, "racing counters drifted");
    assert!(racy_stats.balanced(), "{racy_stats:?}");
    assert_eq!(racy_stats.updates, WRITERS * UPDATES_PER_WRITER);
    assert_eq!(racy_stats.nn_queries, (READERS * QUERIES_PER_READER) as u64);
    assert_eq!(racy_ops, oracle_ops, "store op counts must be exact");
    assert!(
        racy_ops.read_ops > 0 && racy_ops.scan_ops > 0,
        "{racy_ops:?}"
    );
    let rel = (racy_us - oracle_us).abs() / oracle_us.max(1.0);
    assert!(
        rel < 0.01,
        "racing elapsed {racy_us} vs oracle {oracle_us} drifted by {rel}"
    );
}

/// Determinism pin for the per-call metering: a single-threaded
/// workload through `MoistServer` (an ephemeral hub-seeded session per
/// call) lands on the *bit-identical* virtual time and op count of a
/// plain `Session` replaying the same store ops on one shared clock —
/// updates, FLAG tuning, NN scans and all.
#[test]
fn single_threaded_metering_is_bit_identical_to_one_shared_clock() {
    let cfg = tier_config();
    let drive = |server: &mut MoistServer| {
        for oid in 0..200u64 {
            let x = 30.0 + (oid * 13 % 940) as f64;
            let y = 30.0 + (oid * 29 % 940) as f64;
            server.update(&msg(oid, x, y, 1.0)).unwrap();
        }
        for q in 0..40u64 {
            let center = Point::new(25.0 + (q * 97 % 950) as f64, 25.0 + (q * 41 % 950) as f64);
            server.nn(center, 4, Timestamp::from_secs(2)).unwrap();
        }
    };

    // Server path: every call opens its own hub-seeded session.
    let store_a = Bigtable::new();
    let mut server = MoistServer::new(&store_a, cfg).unwrap();
    let ops_a = store_a.metrics_snapshot();
    drive(&mut server);
    let ops_a = store_a.metrics_snapshot().delta(&ops_a);

    // Plain replay: one session, one clock, the same op sequence the
    // server paths issue (update apply; FLAG probe loop then NN scan
    // threaded through a single session, as `MoistServer::nn` does).
    let store_b = Bigtable::new();
    let tables = MoistTables::create(&store_b, &cfg).unwrap();
    let ops_b = store_b.metrics_snapshot();
    let mut session = store_b.session();
    let mut tuner = FlagTuner::new(&cfg);
    let mut estimate = 0u64; // mirrors the server's object-count estimate
    for oid in 0..200u64 {
        let x = 30.0 + (oid * 13 % 940) as f64;
        let y = 30.0 + (oid * 29 % 940) as f64;
        let outcome = apply_update(&mut session, &tables, &cfg, &msg(oid, x, y, 1.0)).unwrap();
        if outcome == UpdateOutcome::Registered {
            estimate += 1;
        }
    }
    for q in 0..40u64 {
        let center = Point::new(25.0 + (q * 97 % 950) as f64, 25.0 + (q * 41 % 950) as f64);
        let at = Timestamp::from_secs(2);
        let level = tuner
            .best_level(&mut session, &tables, &cfg, &center, estimate.max(1), at)
            .unwrap();
        nn_query(
            &mut session,
            &tables,
            &cfg,
            center,
            at,
            &NnOptions::new(4, level),
        )
        .unwrap();
    }

    assert_eq!(
        server.elapsed_us().to_bits(),
        session.elapsed_us().to_bits(),
        "hub-metered server drifted from the one-clock replay: {} vs {}",
        server.elapsed_us(),
        session.elapsed_us()
    );
    assert_eq!(
        ops_a,
        store_b.metrics_snapshot().delta(&ops_b),
        "op counts must match exactly"
    );

    // And the run reproduces: a second identical pass lands on the same
    // bits again.
    let store_c = Bigtable::new();
    let mut server2 = MoistServer::new(&store_c, cfg).unwrap();
    let ops_c = store_c.metrics_snapshot();
    drive(&mut server2);
    assert_eq!(
        server.elapsed_us().to_bits(),
        server2.elapsed_us().to_bits()
    );
    assert_eq!(ops_a, store_c.metrics_snapshot().delta(&ops_c));
}

/// The lock order under a pinned shard: while `with_shard` holds a
/// shard's writer mutex for ~300 ms, an `update` routed to that shard
/// waits for it holding the membership read guard, an `add_shard` waits
/// for that guard, and an `nn` waits at most for the bump. All three
/// finish once the pin lifts — a deadlock fails the bounded wait instead
/// of hanging the suite — and the update is counted exactly once. The
/// pin is forced by a channel; the short pauses between the three starts
/// only make that arrival order likely, and the checks hold in any order.
#[test]
fn a_pinned_shard_delays_an_update_a_join_and_a_query_but_blocks_none() {
    const PIN: Duration = Duration::from_millis(300);
    const BOUND: Duration = Duration::from_secs(20);
    let store = Bigtable::new();
    let cluster = Arc::new(
        MoistCluster::builder(&store, tier_config())
            .shards(SHARDS)
            .build()
            .unwrap(),
    );
    seed_objects(&cluster, 64);
    let probe = probe_points(&cluster)[0];
    let before = cluster.stats();

    // Each thread reports on its own channel and is joined only after
    // every report arrived, so a deadlocked one fails its `recv_timeout`
    // below instead of hanging the join.
    let (held_tx, held_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let pin = std::thread::spawn(move || {
        c.with_shard(0, |_| {
            held_tx.send(Instant::now()).unwrap();
            std::thread::sleep(PIN);
        })
        .unwrap();
    });
    let pinned_at = held_rx
        .recv_timeout(BOUND)
        .expect("the pin never took the lock");

    let (update_tx, update_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let update = std::thread::spawn(move || {
        let m = msg(500_000, probe.x, probe.y, 3.0);
        let applied = c.update(&m).map(drop);
        update_tx.send((applied, Instant::now())).unwrap();
    });
    std::thread::sleep(Duration::from_millis(50));
    let (join_tx, join_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let join = std::thread::spawn(move || join_tx.send(c.add_shard().map(drop)).unwrap());
    std::thread::sleep(Duration::from_millis(50));
    let (nn_tx, nn_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let query = std::thread::spawn(move || {
        let answer = c.nn(probe, 3, Timestamp::from_secs(3));
        nn_tx.send(answer.map(|(nn, _)| nn.len())).unwrap();
    });

    let (applied, updated_at) = update_rx
        .recv_timeout(BOUND)
        .expect("the update never finished");
    applied.unwrap();
    assert!(
        updated_at.duration_since(pinned_at) >= PIN,
        "the update must wait for the pinned shard"
    );
    join_rx
        .recv_timeout(BOUND)
        .expect("the join never finished")
        .unwrap();
    let found = nn_rx
        .recv_timeout(BOUND)
        .expect("the query never finished")
        .unwrap();
    assert_eq!(found, 3);
    for t in [pin, update, join, query] {
        t.join().unwrap();
    }

    assert_eq!(cluster.num_shards(), SHARDS + 1);
    let stats = cluster.stats();
    assert_eq!(stats.updates - before.updates, 1, "counted exactly once");
    assert!(stats.balanced(), "{stats:?}");
    assert!(cluster
        .position(ObjectId(500_000), Timestamp::from_secs(3))
        .unwrap()
        .is_some());
}
