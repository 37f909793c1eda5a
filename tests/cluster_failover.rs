//! Failure injection for the cluster tier: a shard is killed mid-run while
//! 8 [`ClientPool`] threads keep hammering the tier with updates and
//! queries.
//!
//! The elasticity contract under failure:
//!
//! * **absorption** — after the kill, the survivors own every clustering
//!   cell (exactly one owner per cell, nothing orphaned);
//! * **zero lost updates** — every update a client sent is accounted for
//!   by exactly one outcome, including updates the dying shard absorbed
//!   while live or in flight during the epoch bump;
//! * **continuous availability** — NN and region queries keep answering
//!   throughout the kill (workers query on every tick and fail the test on
//!   any error);
//! * **graceful degradation** — a worker racing the membership change gets
//!   a typed [`MoistError::NoSuchShard`], never an index panic.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{
    IngestConfig, MoistCluster, MoistConfig, MoistError, ObjectId, SubmitOutcome, UpdateMessage,
};
use moist::spatial::{cells_at_level, Point, Rect};
use moist::workload::{ClientPool, RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

mod common;

const SHARDS: usize = 4;
const WORKERS: usize = 8;
const KILL_AT_SECS: f64 = 45.0;
const END_SECS: f64 = 90.0;

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3, // 64 cells across the shards
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

#[test]
fn mid_run_shard_kill_is_absorbed_without_losing_updates_or_queries() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    let victim = *cluster.shard_ids().last().unwrap();

    let sims: Vec<Mutex<RoadNetSim>> = (0..WORKERS)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: 100,
                    seed: 7_000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();

    let killed = AtomicBool::new(false);
    let queries_before_kill = AtomicU64::new(0);
    let queries_after_kill = AtomicU64::new(0);

    // 8 workers drive updates, clustering ticks and queries; worker 0
    // yanks the victim shard mid-run while the other 7 keep going.
    let sent: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut first_oid_seen = None;
        let mut t = 0.0;
        while t < END_SECS {
            t = (t + 5.0).min(END_SECS);
            for u in sim.advance_until(t) {
                let oid = oid_base + u.oid;
                first_oid_seen.get_or_insert(oid);
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(u.at_secs),
                    })
                    .expect("updates must keep landing through the kill");
                count += 1;
            }

            if i == 0
                && t >= KILL_AT_SECS
                && killed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                cluster
                    .remove_shard(victim)
                    .expect("mid-run shard kill must succeed");
            }

            // Clustering ticks for this worker's stride of shards. The
            // membership shrinks mid-run, so a stale position is expected
            // occasionally — it must surface as the typed NoSuchShard
            // error, never abort the process.
            let mut shard = i;
            while shard < SHARDS {
                match cluster.run_due_clustering_shard(shard, Timestamp::from_secs_f64(t)) {
                    Ok(_) => {}
                    Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("clustering tick failed: {e}"),
                }
                shard += WORKERS.min(SHARDS);
            }

            // Availability probes on every tick: NN, region and an
            // object-keyed read must answer before, during and after the
            // kill.
            let at = Timestamp::from_secs_f64(t);
            let probe = Point::new(100.0 + (i as f64) * 100.0, 500.0);
            let (_, _) = cluster
                .nn(probe, 3, at)
                .expect("NN must answer through the kill");
            let rect = Rect::new(250.0, 250.0, 750.0, 750.0);
            let (_, _) = cluster
                .region(&rect, at, 0.0)
                .expect("region must answer through the kill");
            if let Some(oid) = first_oid_seen {
                cluster
                    .position(ObjectId(oid), at)
                    .expect("position must answer through the kill")
                    .expect("a registered object must stay visible");
            }
            if killed.load(Ordering::SeqCst) {
                queries_after_kill.fetch_add(2, Ordering::Relaxed);
            } else {
                queries_before_kill.fetch_add(2, Ordering::Relaxed);
            }
        }
        count
    });
    let sent: u64 = sent.iter().sum();

    // The kill really happened mid-run, with queries served on both sides.
    assert!(
        killed.load(Ordering::SeqCst),
        "worker 0 must kill the shard"
    );
    assert_eq!(cluster.num_shards(), SHARDS - 1);
    assert!(!cluster.shard_ids().contains(&victim));
    assert!(queries_before_kill.load(Ordering::Relaxed) > 0);
    assert!(queries_after_kill.load(Ordering::Relaxed) > 0);

    // Absorption: the survivors own every clustering cell exactly once.
    let cells = cells_at_level(cfg.clustering_level);
    common::sole_owner_positions(&cluster);

    // Zero lost updates: every sent update is accounted for by exactly one
    // outcome on exactly one shard — including the dead shard's share,
    // which stays in the aggregate.
    let agg = cluster.stats();
    assert_eq!(agg.updates, sent, "no update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");
    let live: u64 = cluster.shard_stats().iter().map(|s| s.updates).sum();
    assert!(
        live < sent,
        "the dead shard's absorbed updates must live outside the survivors"
    );

    // The tier still clusters and still answers over the whole map.
    let sweep_at = Timestamp::from_secs_f64(END_SECS + cfg.cluster_interval_secs + 1.0);
    let runs_before = cluster.stats().cluster_runs;
    for shard in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs - runs_before,
        cells,
        "post-kill sweep must cluster each cell exactly once"
    );
    let (nn, _) = cluster.nn(Point::new(500.0, 500.0), 100, sweep_at).unwrap();
    assert!(!nn.is_empty(), "queries must survive the failover");
}

/// Load-aware placement under failure: a hot-spot workload drives
/// periodic [`MoistCluster::rebalance`] calls (weight shifts + hot-cell
/// splits racing the update stream), and mid-run the shard owning the hot
/// spot is killed while a rebalance storm is in flight. The contract is
/// the same as the plain kill: zero lost updates, every routing key owned
/// exactly once, queries answering on every tick.
#[test]
fn hot_shard_killed_mid_rebalance_loses_nothing_and_keeps_the_partition() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    let hot = Point::new(437.0, 437.0);

    let killed = AtomicBool::new(false);
    let rebalances = AtomicU64::new(0);

    let sent: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut t = 0.0;
        let mut step = 0u64;
        while t < END_SECS {
            t = (t + 5.0).min(END_SECS);
            // 80% of this worker's updates hammer the hot spot, the rest
            // scatter — the skew that makes rebalance split and reweight.
            for j in 0..40u64 {
                step += 1;
                let oid = oid_base + step % 500;
                let (x, y) = if j % 5 != 0 {
                    (hot.x + (j % 7) as f64, hot.y + (j % 5) as f64)
                } else {
                    (
                        20.0 + ((step * 131) % 960) as f64,
                        20.0 + ((step * 197) % 960) as f64,
                    )
                };
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid),
                        loc: Point::new(x, y),
                        vel: moist::spatial::Velocity::ZERO,
                        ts: Timestamp::from_secs_f64(t - 5.0 + 5.0 * j as f64 / 40.0),
                    })
                    .expect("updates must keep landing through rebalances and the kill");
                count += 1;
            }

            // Worker 1 rebalances on every tick — epoch bumps, weight
            // shifts and splits race everyone else's updates and queries.
            if i == 1 {
                let report = cluster.rebalance(Timestamp::from_secs_f64(t)).unwrap();
                rebalances.fetch_add(u64::from(report.migrated_keys > 0), Ordering::Relaxed);
            }

            // Worker 0 kills whichever shard currently owns the hot spot,
            // mid-run, while rebalances are in flight.
            if i == 0
                && t >= KILL_AT_SECS
                && killed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                let victim_pos = cluster.shard_for_point(&hot);
                let victim = cluster.shard_ids()[victim_pos];
                cluster
                    .remove_shard(victim)
                    .expect("killing the hot shard must succeed");
            }

            let mut shard = i;
            while shard < SHARDS {
                match cluster.run_due_clustering_shard(shard, Timestamp::from_secs_f64(t)) {
                    Ok(_) | Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("clustering tick failed: {e}"),
                }
                shard += WORKERS.min(SHARDS);
            }

            // Availability probes on every tick, centred on the hot spot
            // (the cells most likely to be mid-migration).
            let at = Timestamp::from_secs_f64(t);
            cluster
                .nn(hot, 3, at)
                .expect("NN must answer through the rebalance churn");
            cluster
                .region(&Rect::new(350.0, 350.0, 550.0, 550.0), at, 0.0)
                .expect("region must answer through the rebalance churn");
        }
        count
    });
    let sent: u64 = sent.iter().sum();

    assert!(
        killed.load(Ordering::SeqCst),
        "the hot shard must be killed"
    );
    assert_eq!(cluster.num_shards(), SHARDS - 1);
    assert!(
        rebalances.load(Ordering::Relaxed) > 0,
        "the skewed stream must trigger real rebalance migrations"
    );

    // Every routing key — split children included — owned exactly once.
    common::assert_routing_key_partition(&cluster);

    // Zero lost updates, dead shard's share included.
    let agg = cluster.stats();
    assert_eq!(agg.updates, sent, "no update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");

    // The split/migration bookkeeping is visible from the tier, and the
    // whole map still answers.
    let cstats = cluster.cluster_stats();
    assert!(
        cstats.split_migrations > 0,
        "rebalance migrations must be counted: {cstats:?}"
    );
    assert!(cstats.epoch_migrations > 0, "the kill migrated cells");
    let (nn, _) = cluster
        .nn(
            Point::new(500.0, 500.0),
            50,
            Timestamp::from_secs_f64(END_SECS),
        )
        .unwrap();
    assert!(!nn.is_empty());
}

/// The elasticity controller under failure: the fig16-style 80/5 skew
/// stream drives a *controller-managed* fleet (every worker ticks
/// [`MoistCluster::controller_tick`] like a client loop would), worker 1
/// keeps rebalance storms in flight, and worker 0 kills the hot-spot
/// owner mid-run. On top of the plain kill contract (zero lost
/// acknowledged updates, exact routing-key partition, queries answering
/// on every tick), the controller must stay *disciplined*: the fleet
/// never leaves `[min_shards, max_shards]`, the surge provokes real
/// scale-ups, and scaling decisions from different evaluation windows
/// never land closer than the cool-down — no add→remove→add flapping
/// while the kill and the rebalance churn are perturbing its signals.
#[test]
fn controller_managed_fleet_absorbs_a_mid_rebalance_kill_without_flapping() {
    use moist::core::{ControllerAction, ControllerConfig};

    let store = Bigtable::new();
    let cfg = tier_config();
    let ccfg = ControllerConfig {
        min_shards: 2,
        max_shards: 8,
        window_secs: 5.0,
        cooldown_secs: 20.0,
        // Virtual busy-µs per virtual second: far below what the skewed
        // stream generates, so the controller provably wants capacity.
        target_shard_busy_us: 50.0,
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .controller(ccfg)
        .build()
        .unwrap();
    let hot = Point::new(437.0, 437.0);

    let killed = AtomicBool::new(false);

    let sent: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut t = 0.0;
        let mut step = 0u64;
        while t < END_SECS {
            t = (t + 5.0).min(END_SECS);
            // 80/5 skew: most of this worker's updates hammer the hot
            // spot, the rest scatter over the map.
            for j in 0..40u64 {
                step += 1;
                let oid = oid_base + step % 500;
                let (x, y) = if j % 5 != 0 {
                    (hot.x + (j % 7) as f64, hot.y + (j % 5) as f64)
                } else {
                    (
                        20.0 + ((step * 131) % 960) as f64,
                        20.0 + ((step * 197) % 960) as f64,
                    )
                };
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid),
                        loc: Point::new(x, y),
                        vel: moist::spatial::Velocity::ZERO,
                        ts: Timestamp::from_secs_f64(t - 5.0 + 5.0 * j as f64 / 40.0),
                    })
                    .expect("updates must keep landing through the managed churn");
                count += 1;
            }

            // Every worker ticks the controller — concurrent tickers
            // must not serialize or double-evaluate a window.
            cluster
                .controller_tick(Timestamp::from_secs_f64(t))
                .expect("controller ticks must succeed through the kill");

            // Worker 1 keeps manual rebalance storms in flight on top of
            // the controller's own cadence.
            if i == 1 {
                cluster.rebalance(Timestamp::from_secs_f64(t)).unwrap();
            }

            // Worker 0 kills whichever shard currently owns the hot spot,
            // mid-run, while the controller is scaling and rebalancing.
            if i == 0
                && t >= KILL_AT_SECS
                && killed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                let victim_pos = cluster.shard_for_point(&hot);
                let victim = cluster.shard_ids()[victim_pos];
                match cluster.remove_shard(victim) {
                    // The controller may have reshaped the fleet under
                    // us; a vanished victim is the benign race.
                    Ok(()) | Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("killing the hot shard failed: {e}"),
                }
            }

            // Clustering ticks over the *live* (controller-sized) fleet.
            let live = cluster.num_shards();
            let mut shard = i;
            while shard < live {
                match cluster.run_due_clustering_shard(shard, Timestamp::from_secs_f64(t)) {
                    Ok(_) | Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("clustering tick failed: {e}"),
                }
                shard += WORKERS;
            }

            // Availability probes on every tick, centred on the hot spot.
            let at = Timestamp::from_secs_f64(t);
            cluster
                .nn(hot, 3, at)
                .expect("NN must answer through the managed churn");
            cluster
                .region(&Rect::new(350.0, 350.0, 550.0, 550.0), at, 0.0)
                .expect("region must answer through the managed churn");
        }
        count
    });
    let sent: u64 = sent.iter().sum();

    assert!(
        killed.load(Ordering::SeqCst),
        "the hot shard must be killed"
    );

    // The fleet stayed bounded and the surge provoked real scale-ups.
    let live = cluster.num_shards();
    assert!(
        (ccfg.min_shards..=ccfg.max_shards).contains(&live),
        "fleet left its bounds: {live}"
    );
    let events = cluster.controller_events();
    let adds = events
        .iter()
        .filter(|e| matches!(e.action, ControllerAction::AddShard { .. }))
        .count();
    assert!(adds >= 1, "the surge must provoke scale-ups: {events:?}");

    // Hysteresis discipline: scaling decisions from different evaluation
    // windows are at least a cool-down apart (a multi-shard step lands as
    // one same-stamp batch). This is the no-flapping guarantee — an
    // add→remove→add inside one cool-down is impossible.
    let scale_times: Vec<f64> = events
        .iter()
        .filter(|e| e.action.is_scaling())
        .map(|e| e.at_secs)
        .collect();
    for pair in scale_times.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            gap == 0.0 || gap >= ccfg.cooldown_secs - 1e-9,
            "scale events {gap}s apart violate the {}s cool-down: {events:?}",
            ccfg.cooldown_secs
        );
    }

    // Zero lost acknowledged updates, dead shard's share included.
    let agg = cluster.stats();
    assert_eq!(agg.updates, sent, "no update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");

    // Every routing key — split children included — owned exactly once.
    common::assert_routing_key_partition(&cluster);

    // The whole map still answers after the churn settles.
    let (nn, _) = cluster
        .nn(
            Point::new(500.0, 500.0),
            50,
            Timestamp::from_secs_f64(END_SECS),
        )
        .unwrap();
    assert!(!nn.is_empty());
}

/// Replicated ownership under failure: at `replicas == 2` every routing
/// key has a rank-1 follower already mirroring it through the shared
/// store, so a shard kill is a *promotion*, not a recovery. The contract
/// on top of the plain kill: zero acked-update loss, exactly one primary
/// per key at every step, queries answering on every tick through the
/// kill, and the tier counting real promotions and follower-served reads.
#[test]
fn replicated_tier_promotes_followers_through_a_shard_kill_without_downtime() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .replicas(2)
        .build()
        .unwrap();
    let victim = *cluster.shard_ids().last().unwrap();

    let sims: Vec<Mutex<RoadNetSim>> = (0..WORKERS)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: 100,
                    seed: 11_000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();

    let killed = AtomicBool::new(false);
    let queries_before_kill = AtomicU64::new(0);
    let queries_after_kill = AtomicU64::new(0);

    let sent: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut t = 0.0;
        while t < END_SECS {
            t = (t + 5.0).min(END_SECS);
            for u in sim.advance_until(t) {
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid_base + u.oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(u.at_secs),
                    })
                    .expect("updates must keep landing through the promotion");
                count += 1;
            }

            if i == 0
                && t >= KILL_AT_SECS
                && killed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                cluster
                    .remove_shard(victim)
                    .expect("killing the replicated shard must succeed");
            }

            let mut shard = i;
            while shard < SHARDS {
                match cluster.run_due_clustering_shard(shard, Timestamp::from_secs_f64(t)) {
                    Ok(_) | Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("clustering tick failed: {e}"),
                }
                shard += WORKERS.min(SHARDS);
            }

            // Zero-downtime probes: every worker queries on every tick;
            // any error — before, during or after the kill — fails the
            // test. At k=2 the reads may land on either replica of the
            // probed cell.
            let at = Timestamp::from_secs_f64(t);
            let probe = Point::new(100.0 + (i as f64) * 100.0, 500.0);
            cluster
                .nn(probe, 3, at)
                .expect("NN must answer on every tick through the promotion");
            cluster
                .region(&Rect::new(250.0, 250.0, 750.0, 750.0), at, 0.0)
                .expect("region must answer on every tick through the promotion");
            if killed.load(Ordering::SeqCst) {
                queries_after_kill.fetch_add(2, Ordering::Relaxed);
            } else {
                queries_before_kill.fetch_add(2, Ordering::Relaxed);
            }
        }
        count
    });
    let sent: u64 = sent.iter().sum();

    assert!(
        killed.load(Ordering::SeqCst),
        "worker 0 must kill the shard"
    );
    assert_eq!(cluster.num_shards(), SHARDS - 1);
    assert!(queries_before_kill.load(Ordering::Relaxed) > 0);
    assert!(
        queries_after_kill.load(Ordering::Relaxed) > 0,
        "ticks must keep querying after the kill"
    );

    // The schedule partition is still exact after the promotion: every
    // key kept its one deadline, and follower ranks never entered it.
    common::sole_owner_positions(&cluster);

    // Zero acked-update loss through the promotion.
    let agg = cluster.stats();
    assert_eq!(agg.updates, sent, "no acked update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");

    // The tier counted the promotions: every key the victim led now has
    // its old rank-1 follower as primary, and the promotion set is a
    // subset of the kill's migrations.
    let cstats = cluster.cluster_stats();
    assert_eq!(cstats.replicas, 2);
    assert!(
        cstats.promotions > 0,
        "the kill must promote followers: {cstats:?}"
    );
    assert!(
        cstats.promotions <= cstats.epoch_migrations,
        "promotions are a subset of epoch migrations: {cstats:?}"
    );
    // Replica accounting holds on the survivors: every key has one
    // primary and one follower, and followers really served reads.
    let keys: usize = cstats.shards.iter().map(|s| s.primary_keys).sum();
    let follows: usize = cstats.shards.iter().map(|s| s.follower_keys).sum();
    assert_eq!(follows, keys, "k=2: every key has exactly one follower");
    assert!(
        cstats.replica_reads > 0,
        "followers must serve some reads under load: {cstats:?}"
    );

    // Instant promotion, not recovery: the adopted cells kept live
    // deadlines, so one sweep past the interval fires every cell exactly
    // once on its (possibly promoted) primary.
    let cells = cells_at_level(cfg.clustering_level);
    let sweep_at = Timestamp::from_secs_f64(END_SECS + cfg.cluster_interval_secs + 1.0);
    let runs_before = cluster.stats().cluster_runs;
    for shard in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs - runs_before,
        cells,
        "post-promotion sweep must cluster each cell exactly once"
    );
    let (nn, _) = cluster.nn(Point::new(500.0, 500.0), 100, sweep_at).unwrap();
    assert!(!nn.is_empty(), "the promoted tier must keep answering");
    let mut ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        nn.len(),
        "replica reads must not duplicate objects"
    );
}

/// The ingestion pipeline under failure: 8 workers [`submit`] through the
/// per-shard queues (batch flushes, deadline flushes) and worker 0 kills a
/// shard at a moment its queues are provably **non-empty**. The PR 6
/// failover contract must hold for *acknowledged* submissions exactly as
/// it does for synchronous updates: the kill's drain re-routes every
/// buffered message to the survivors (zero lost acknowledged updates),
/// ownership stays an exact partition, and queries answer on every tick.
///
/// [`submit`]: MoistCluster::submit
#[test]
fn shard_kill_with_nonempty_queues_drains_without_losing_acked_updates() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .ingest(IngestConfig {
            batch_size: 32,
            ..IngestConfig::default()
        })
        .build()
        .unwrap();
    let victim = *cluster.shard_ids().last().unwrap();

    let sims: Vec<Mutex<RoadNetSim>> = (0..WORKERS)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: 100,
                    seed: 13_000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();

    let killed = AtomicBool::new(false);
    let queued_at_kill = AtomicU64::new(0);

    let acked: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut t = 0.0;
        while t < END_SECS {
            t = (t + 5.0).min(END_SECS);
            for u in sim.advance_until(t) {
                let outcome = cluster
                    .submit(&UpdateMessage {
                        oid: ObjectId(oid_base + u.oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(u.at_secs),
                    })
                    .expect("submissions must keep being accepted through the kill");
                // Enqueued/Flushed are the pipeline's acknowledgement.
                assert!(matches!(
                    outcome,
                    SubmitOutcome::Enqueued { .. } | SubmitOutcome::Flushed { .. }
                ));
                count += 1;
            }

            // Worker 0 kills the victim with fresh submissions provably
            // still buffered: it enqueues a burst stamped *now* (the 1 s
            // flush deadline keeps a concurrent flush_due(now) off a queue
            // holding only the burst) and snapshots the queue gauge in the
            // same breath.
            if i == 0
                && t >= KILL_AT_SECS
                && killed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                let mut burst = 0u64;
                loop {
                    for k in 0..16u64 {
                        cluster
                            .submit(&UpdateMessage {
                                oid: ObjectId(oid_base + 900_000 + burst * 16 + k),
                                loc: Point::new(30.0 + 60.0 * k as f64, 500.0),
                                vel: moist::spatial::Velocity::ZERO,
                                ts: Timestamp::from_secs_f64(t),
                            })
                            .expect("the pre-kill burst must be accepted");
                        count += 1;
                    }
                    burst += 1;
                    // A racing worker at a later virtual tick may flush
                    // the burst out from under us; re-burst until the
                    // gauge proves messages are buffered at kill time.
                    let q = cluster.ingest_stats().queued;
                    if q > 0 {
                        queued_at_kill.store(q, Ordering::SeqCst);
                        break;
                    }
                }
                cluster
                    .remove_shard(victim)
                    .expect("killing a shard with non-empty queues must succeed");
            }

            // Deadline flushing is client-driven: every worker ticks it.
            cluster
                .flush_due(Timestamp::from_secs_f64(t))
                .expect("deadline flushes must keep landing through the kill");

            let mut shard = i;
            while shard < SHARDS {
                match cluster.run_due_clustering_shard(shard, Timestamp::from_secs_f64(t)) {
                    Ok(_) | Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("clustering tick failed: {e}"),
                }
                shard += WORKERS.min(SHARDS);
            }

            // Availability probes on every tick.
            let at = Timestamp::from_secs_f64(t);
            let probe = Point::new(100.0 + (i as f64) * 100.0, 500.0);
            cluster
                .nn(probe, 3, at)
                .expect("NN must answer through the queue-drain kill");
            cluster
                .region(&Rect::new(250.0, 250.0, 750.0, 750.0), at, 0.0)
                .expect("region must answer through the queue-drain kill");
        }
        count
    });
    let acked: u64 = acked.iter().sum();

    assert!(
        killed.load(Ordering::SeqCst),
        "worker 0 must kill the shard"
    );
    assert_eq!(cluster.num_shards(), SHARDS - 1);
    assert!(
        queued_at_kill.load(Ordering::SeqCst) > 0,
        "the kill must have found non-empty queues"
    );

    // End-of-stream drain: whatever the last ticks left buffered applies
    // now; afterwards nothing may remain anywhere in the pipeline.
    cluster.drain_ingest().expect("final drain must succeed");
    let is = cluster.ingest_stats();
    assert_eq!(is.queued, 0, "the pipeline must end empty: {is:?}");
    assert_eq!(
        is.submitted, acked,
        "every submission was acknowledged (no backpressure at this depth)"
    );
    assert_eq!(is.flushed_updates, acked, "every acked update was applied");
    assert!(
        is.drain_flushes >= 1,
        "the kill's drain must have flushed batches: {is:?}"
    );
    assert_eq!(is.backpressure, 0);

    // Zero lost acknowledged updates: every acked submission is accounted
    // for by exactly one outcome on exactly one shard — including the
    // batches buffered for the victim when it died.
    let agg = cluster.stats();
    assert_eq!(agg.updates, acked, "no acked update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");

    // Exclusive ownership survived the drain-and-reroute.
    common::sole_owner_positions(&cluster);
    let cells = cells_at_level(cfg.clustering_level);
    let sweep_at = Timestamp::from_secs_f64(END_SECS + cfg.cluster_interval_secs + 1.0);
    let runs_before = cluster.stats().cluster_runs;
    for shard in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs - runs_before,
        cells,
        "post-kill sweep must cluster each cell exactly once"
    );
    let (nn, _) = cluster.nn(Point::new(500.0, 500.0), 100, sweep_at).unwrap();
    assert!(!nn.is_empty(), "queries must survive the queue-drain kill");
}

#[test]
fn killing_and_rejoining_shards_repeatedly_keeps_the_partition_tight() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    let cells = cells_at_level(cfg.clustering_level);
    // Churn: kill one, add two, kill one… ownership must stay an exact
    // partition with deadlines intact at every step.
    for round in 0..4 {
        let victim = cluster.shard_ids()[round % cluster.num_shards()];
        cluster.remove_shard(victim).unwrap();
        if round % 2 == 0 {
            cluster.add_shard().unwrap();
        }
        let primaries: usize = cluster
            .cluster_stats()
            .shards
            .iter()
            .map(|s| s.primary_keys)
            .sum();
        assert_eq!(primaries as u64, cells, "round {round} broke the partition");
        common::sole_owner_positions(&cluster);
    }
    assert_eq!(
        cluster.cluster_stats().epoch,
        6,
        "4 removals + 2 joins bump 6 epochs"
    );
}
