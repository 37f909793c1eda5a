//! Scale-out integration tests: a [`MoistCluster`] driven by a
//! [`ClientPool`] of real OS threads over one shared store.
//!
//! These pin the two cluster-tier invariants:
//!
//! * operation counters stay consistent under concurrency — every update a
//!   client sent is accounted for by exactly one outcome on exactly one
//!   shard, and the cluster-wide object estimate tracks registrations;
//! * the clustering level is partitioned — every clustering cell is owned
//!   and lazily clustered by exactly one shard.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{cells_at_level, Point};
use moist::workload::{ClientPool, RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use std::sync::Mutex;

mod common;

const SHARDS: usize = 4;
const WORKERS: usize = 8;

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3, // 64 cells across 4 shards
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// Drives `WORKERS` threads of road-network traffic through `cluster`
/// until simulated second `until`, each worker also ticking lazy
/// clustering for its stride of shards. Returns total updates sent.
fn drive_concurrently(cluster: &MoistCluster, until: f64) -> u64 {
    let sims: Vec<Mutex<RoadNetSim>> = (0..WORKERS)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: 100,
                    seed: 900 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();
    let sent: Vec<u64> = ClientPool::run(WORKERS, |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 1_000_000;
        let mut count = 0u64;
        let mut t = 0.0;
        while t < until {
            t = (t + 5.0).min(until);
            for u in sim.advance_until(t) {
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid_base + u.oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(u.at_secs),
                    })
                    .expect("update");
                count += 1;
            }
            let mut shard = i;
            while shard < cluster.num_shards() {
                cluster
                    .run_due_clustering_shard(shard, Timestamp::from_secs_f64(t))
                    .expect("clustering");
                shard += WORKERS;
            }
        }
        count
    });
    sent.iter().sum()
}

#[test]
fn concurrent_updates_keep_counters_consistent_across_shards() {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, tier_config())
        .shards(SHARDS)
        .build()
        .unwrap();
    let sent = drive_concurrently(&cluster, 90.0);

    // Every sent update landed on exactly one shard with exactly one
    // outcome: the shard counters sum back to the client-side total.
    let agg = cluster.stats();
    assert_eq!(agg.updates, sent, "no update lost or double-counted");
    assert!(agg.balanced(), "outcomes must sum to updates: {agg:?}");
    for (i, s) in cluster.shard_stats().iter().enumerate() {
        assert!(s.balanced(), "shard {i} counters must sum: {s:?}");
        assert!(s.updates > 0, "hash routing must reach shard {i}");
    }
    // Schools formed and shed under real lock contention. The exact ratio
    // depends on how far the workers' clustering ticks lag their updates
    // (on a loaded machine unlucky interleavings reach ~0.18), so assert
    // only that schooling genuinely happened — the fixed bug was a ratio
    // drifting to ~0, not a few points of wobble.
    assert!(
        agg.shed_ratio() > 0.1,
        "road traffic must shed through the tier, got {:.2}",
        agg.shed_ratio()
    );
    // The shared estimate tracked every distinct registration. Exactness
    // is not guaranteed under concurrency: a lazy refresh can read the
    // store's row count while a registration on another shard sits between
    // its row write and its counter bump, double-counting it — but the
    // estimate never undercounts and stays within a whisker of the truth
    // (the fixed bug was starting at 0 and drifting arbitrarily low).
    let est = cluster.object_estimate();
    assert!(
        est >= agg.registered && est <= agg.registered + WORKERS as u64,
        "estimate {est} vs {} registered",
        agg.registered
    );

    // Any shard serves reads over the whole map, with no duplicates.
    let (nn, _) = cluster
        .nn(Point::new(500.0, 500.0), 200, Timestamp::from_secs(90))
        .unwrap();
    assert!(!nn.is_empty());
    let mut ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), nn.len(), "NN must not see torn spatial entries");
}

#[test]
fn each_clustering_cell_is_clustered_by_exactly_one_shard() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    let cells = cells_at_level(cfg.clustering_level);

    // Static partition: every cell has exactly one pending deadline, and
    // one owner, the shard updates for the cell route to.
    common::sole_owner_positions(&cluster);

    // Dynamic exclusivity: after concurrent driving, sweep one interval
    // past the end — every cell fires exactly once, on its owner, so the
    // fleet-wide run count rises by exactly the cell count.
    drive_concurrently(&cluster, 90.0);
    let runs_before = cluster.stats().cluster_runs;
    let sweep_at = Timestamp::from_secs_f64(90.0 + cfg.cluster_interval_secs + 1.0);
    for shard in 0..SHARDS {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs - runs_before,
        cells,
        "one post-run sweep must cluster each cell exactly once"
    );
}

/// `(owner position, owner id, pending deadline)` of every clustering
/// cell, asserting the schedule partition.
fn cell_ownership(cluster: &MoistCluster) -> Vec<(usize, u64, u64)> {
    let ids = cluster.shard_ids();
    common::sole_owner_positions(cluster)
        .into_iter()
        .enumerate()
        .map(|(index, pos)| {
            let due = cluster.clustering_deadline(index as u64);
            (
                pos,
                ids[pos],
                due.expect("every cell has a pending deadline"),
            )
        })
        .collect()
}

#[test]
fn join_reseeds_migrated_cells_at_their_old_deadline_phase() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    // Drive real concurrent traffic first so every cell's deadline has
    // re-armed to a mid-run phase (not the pristine first stagger).
    drive_concurrently(&cluster, 90.0);
    let before = cell_ownership(&cluster);

    let joiner = cluster.add_shard().unwrap();
    assert_eq!(cluster.num_shards(), SHARDS + 1);
    let after = cell_ownership(&cluster);

    // Every migrated cell landed on the joiner with its *exact* old
    // deadline (re-seeded from the missed-deadline phase, not from zero):
    // no thundering re-cluster of the stolen cells, no skipped round.
    let mut migrated = 0;
    for (index, (&(_, id_before, due_before), &(_, id_after, due_after))) in
        before.iter().zip(after.iter()).enumerate()
    {
        assert_eq!(
            due_after, due_before,
            "cell {index} deadline must survive the join"
        );
        if id_after != id_before {
            migrated += 1;
            assert_eq!(id_after, joiner, "cell {index} moved to a non-joiner");
        }
    }
    assert!(migrated > 0, "the joiner must adopt some cells");

    // One sweep past every deadline still fires each cell exactly once
    // across the grown fleet — no duplicate clustering, no missed round.
    let cells = cells_at_level(cfg.clustering_level);
    let runs_before = cluster.stats().cluster_runs;
    let sweep_at = Timestamp::from_secs_f64(90.0 + cfg.cluster_interval_secs + 1.0);
    for shard in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs - runs_before,
        cells,
        "post-join sweep must cluster each cell exactly once"
    );
}
