//! Shard concurrency, under fire.
//!
//! Writers lock their routing key (a clustering cell, or a split cell's
//! child), not their shard, so two writers on different cells of one
//! shard run side by side; the server's shared half (`FrontEnd`:
//! queries, counters, load, clock, aging) needs no lock, so
//! `with_shard_read`, the tier's own queries and its stats rollups take
//! no writer lock. These tests pin the contracts:
//!
//! * `with_shard_read` calls on one shard genuinely overlap (an exclusive
//!   lock would deadlock the handshake);
//! * a writer with a backlog drains it beside a closed-loop NN reader on
//!   its hot shard without waiting out the reader's scans;
//! * racing readers and writers — four writers over four shards, so
//!   writers meet inside a shard on different cells — account exactly:
//!   final `ServerStats` counters and the store's operation counters
//!   equal the single-threaded oracle, and virtual elapsed time matches
//!   up to interleaving noise.
//!
//! The tests that pin a routing key's writer lock (`with_key`, a
//! test-only hook) and the single-threaded metering pin live with the
//! tier's unit tests in `cluster_tier/tests.rs`.

use moist_bigtable::{Bigtable, MetricsSnapshot, Timestamp};
use moist_core::{MoistCluster, MoistConfig, NnOptions, ObjectId, ServerStats, UpdateMessage};
use moist_spatial::{Point, Velocity};
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
            server.flag_stats()
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
            server.flag_stats()
        })
        .unwrap()
    });
    let s1 = t1.join().unwrap();
    let s2 = t2.join().unwrap();
    assert_eq!(s1, s2, "overlapping readers saw one consistent shard");
}

/// A writer with a backlog — the state of a paced writer that has
/// fallen behind its schedule — drains it beside a closed-loop
/// `cluster.nn` reader on one hot cell without waiting out the reader's
/// scans. The backlog goes round the four shards, so between two updates
/// of the hot shard the reader has time to start its next scan: were
/// that scan to hold a lock of the shard, every fourth update would wait a
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
        // Fixed NN level: FLAG's cache races are exercised elsewhere;
        // this oracle wants structurally identical scans.
        let fixed = NnOptions {
            nn_level: Some(5),
            ..NnOptions::new(3)
        };
        let read = move |c: &MoistCluster, x: f64, y: f64| {
            c.nn_with_options(Point::new(x, y), Timestamp::from_secs(2), &fixed)
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
