use super::*;
use crate::controller::ControllerAction;
use crate::error::MoistError;
use crate::ids::ObjectId;
use crate::ingest::{EnqueueResult, SubmitOutcome, FLUSH_DEADLINE_SECS};
use crate::nn::{Neighbor, NnOptions};
use crate::placement::{owners, routing_key_cell, SplitTable};
use crate::region::RegionStats;
use crate::server::MoistServer;
use crate::update::{UpdateMessage, UpdateOutcome};
use moist_spatial::{cells_at_level, CellId, Rect, Velocity};

impl MoistCluster {
    /// Runs `f` against the server owning routing key `key`, under the
    /// key's writer lock and no membership guard: how a test pins a key.
    fn with_key<R>(&self, key: u64, f: impl FnOnce(&MoistServer) -> R) -> R {
        let entry = Arc::clone(self.snapshot().owner_of(key));
        let _writer = self.writer(key);
        f(&entry.server)
    }

    /// The routing key of point `p` under the current membership.
    fn key_of(&self, p: &Point) -> u64 {
        self.snapshot().route_point(p, &self.cfg)
    }
}

/// A default-knob tier of `shards` servers over `store`.
fn tier(store: &Arc<Bigtable>, cfg: MoistConfig, shards: usize) -> MoistCluster {
    MoistCluster::builder(store, cfg)
        .shards(shards)
        .build()
        .unwrap()
}

fn msg(oid: u64, x: f64, y: f64, vx: f64, secs: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::new(vx, 0.0),
        ts: Timestamp::from_secs_f64(secs),
    }
}

/// The position of the shard a cell at any level routes to, through the
/// cell's centre point (so split-cell routing applies to it too).
fn shard_for_cell(cluster: &MoistCluster, cell: CellId) -> usize {
    let space = cluster.config().space;
    cluster.shard_for_point(&space.to_world(&cell.center(space.curve)))
}

/// Owner positions of every clustering cell, after asserting the
/// schedule partition ([`assert_routing_partition`]).
fn sole_owners(cluster: &MoistCluster) -> Vec<usize> {
    assert_routing_partition(cluster);
    let snap = cluster.snapshot();
    (0..cells_at_level(cluster.config().clustering_level))
        .map(|index| snap.owner_position(index))
        .collect()
}

#[test]
fn routes_by_clustering_cell_and_serves_cross_shard_queries() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let cluster = tier(&store, cfg, 4);
    // Spread objects over the whole map so several shards see traffic.
    for i in 0..64u64 {
        let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
        let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
        cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
    }
    let stats = cluster.stats();
    assert_eq!(stats.updates, 64);
    assert_eq!(stats.registered, 64);
    assert_eq!(cluster.object_estimate(), 64);
    let active = cluster
        .shard_stats()
        .iter()
        .filter(|s| s.updates > 0)
        .count();
    assert!(active >= 2, "hash routing must spread load, got {active}");
    // A query lands on one shard but sees every shard's writes.
    let (nn, _) = cluster
        .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
        .unwrap();
    assert_eq!(nn.len(), 64);
    // Object-keyed reads work for every object from any routing.
    for i in [0u64, 31, 63] {
        assert!(cluster
            .position(ObjectId(i), Timestamp::ZERO)
            .unwrap()
            .is_some());
    }
}

#[test]
fn same_cell_updates_always_hit_the_same_shard() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let cluster = tier(&store, cfg, 5);
    // Points in one clustering cell route identically; the routing
    // agrees with the ticks, so the shard applying a cell's updates is
    // also the only one clustering it.
    let p = Point::new(123.0, 456.0);
    let shard = cluster.shard_for_point(&p);
    let cell = cfg.space.cell_at(cfg.clustering_level, &p);
    assert_eq!(shard_for_cell(&cluster, cell), shard);
    let leaf = cfg.space.leaf_cell(&p);
    assert_eq!(shard_for_cell(&cluster, leaf), shard);
    let due = cluster.clustering_deadline(cell.index).unwrap();
    for other in (0..cluster.num_shards()).filter(|&i| i != shard) {
        cluster
            .run_due_clustering_shard(other, Timestamp(due))
            .unwrap();
        assert_eq!(cluster.clustering_deadline(cell.index), Some(due));
    }
    cluster
        .run_due_clustering_shard(shard, Timestamp(due))
        .unwrap();
    assert!(cluster.clustering_deadline(cell.index).unwrap() > due);
}

#[test]
fn clustering_partition_covers_level_exactly_once() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    assert_routing_partition(&cluster);
    // One sweep past every staggered deadline: each cell fires once,
    // on its owner, so total runs equal the cell count exactly.
    let now = Timestamp::from_secs(25);
    for i in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(i, now).unwrap();
    }
    assert_eq!(
        cluster.stats().cluster_runs,
        cells_at_level(cfg.clustering_level)
    );
}

#[test]
fn schools_form_and_shed_through_the_tier() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 2,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 3);
    // Two co-moving objects in one cell.
    cluster.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
    cluster.update(&msg(2, 101.0, 100.0, 1.0, 0.0)).unwrap();
    cluster
        .run_due_clustering(Timestamp::from_secs(30))
        .unwrap();
    for t in 1..=10u64 {
        let x = 101.0 + t as f64;
        cluster.update(&msg(2, x, 100.0, 1.0, t as f64)).unwrap();
    }
    let stats = cluster.stats();
    assert!(stats.shed >= 9, "stats: {stats:?}");
    assert!(stats.balanced(), "counters must sum: {stats:?}");
}

#[test]
fn add_shard_migrates_only_the_joiners_wins_and_keeps_phase() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 4, // 256 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 3);
    assert_eq!(cluster.cluster_stats().epoch, 0);
    let cells = cells_at_level(cfg.clustering_level);
    // Record each cell's owner *id* and deadline before the join.
    let owners_before = sole_owners(&cluster);
    let before: Vec<(u64, u64)> = (0..cells)
        .map(|index| {
            let pos = owners_before[index as usize];
            let id = cluster.shard_ids()[pos];
            (id, cluster.clustering_deadline(index).unwrap())
        })
        .collect();

    let joiner = cluster.add_shard().unwrap();
    assert_eq!(cluster.num_shards(), 4);
    assert_eq!(cluster.cluster_stats().epoch, 1);
    assert!(cluster.shard_ids().contains(&joiner));

    let owners_after = sole_owners(&cluster);
    let mut migrated = 0u64;
    for index in 0..cells {
        let pos = owners_after[index as usize];
        let id_after = cluster.shard_ids()[pos];
        let due_after = cluster.clustering_deadline(index).unwrap();
        let (id_before, due_before) = before[index as usize];
        assert_eq!(due_after, due_before, "cell {index} must keep its phase");
        if id_after != id_before {
            migrated += 1;
            assert_eq!(id_after, joiner, "only the joiner may steal cells");
        }
    }
    // ~cells/(N+1) migrate; generous statistical slack, but far below
    // the near-total remap a modular hash would cause.
    assert!(migrated > 0, "the joiner must win some cells");
    assert!(
        migrated <= cells / 4 + cells / 8,
        "migrated {migrated} of {cells} — not a minimal remap"
    );
}

#[test]
fn remove_shard_reassigns_only_the_departed_cells() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3, // 64 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    for i in 0..64u64 {
        let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
        let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
        cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
    }
    let cells = cells_at_level(cfg.clustering_level);
    let owners_before: Vec<u64> = {
        let owners = sole_owners(&cluster);
        owners.iter().map(|&pos| cluster.shard_ids()[pos]).collect()
    };
    let victim = cluster.shard_ids()[1];
    let victim_updates = cluster.shard_stats()[1].updates;
    cluster.remove_shard(victim).unwrap();
    assert_eq!(cluster.num_shards(), 3);
    assert_eq!(cluster.cluster_stats().epoch, 1);
    assert!(!cluster.shard_ids().contains(&victim));

    let owners_after = sole_owners(&cluster);
    for index in 0..cells {
        let id_after = cluster.shard_ids()[owners_after[index as usize]];
        let id_before = owners_before[index as usize];
        if id_before != victim {
            assert_eq!(id_after, id_before, "cell {index} must not move");
        } else {
            assert_ne!(id_after, victim);
        }
    }
    // The departed shard's updates stay in the aggregate…
    let agg = cluster.stats();
    assert_eq!(agg.updates, 64);
    assert!(victim_updates > 0, "victim should have taken traffic");
    // …and the whole map still answers queries.
    let (nn, _) = cluster
        .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
        .unwrap();
    assert_eq!(nn.len(), 64);
}

/// Deterministic xorshift scatter in (0, 1000)².
fn scattered(n: u64) -> Vec<(u64, f64, f64)> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| (i, next() * 1000.0, next() * 1000.0))
        .collect()
}

/// The pre-fan-out region path: the whole query runs on the single shard
/// owning the rectangle's centre cell.
fn anchor_region(cluster: &MoistCluster, rect: &Rect) -> (Vec<Neighbor>, RegionStats) {
    cluster
        .with_shard_read(cluster.shard_for_point(&rect.center()), |s| {
            s.region(rect, Timestamp::ZERO, 0.0)
        })
        .unwrap()
        .unwrap()
}

#[test]
fn scattered_region_matches_anchor_routing_and_fans_out() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3, // 64 cells spread over the shards
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    for &(i, x, y) in &scattered(200) {
        cluster.update(&msg(i, x, y, 0.0, 0.0)).unwrap();
    }
    let rects = [
        cfg.space.world,
        Rect::new(100.0, 100.0, 900.0, 450.0),
        Rect::new(700.0, 700.0, 780.0, 790.0),
    ];
    for rect in &rects {
        let (anchor, _) = anchor_region(&cluster, rect);
        let (fanout, stats) = cluster.region(rect, Timestamp::ZERO, 0.0).unwrap();
        let a: Vec<u64> = anchor.iter().map(|n| n.oid.0).collect();
        let f: Vec<u64> = fanout.iter().map(|n| n.oid.0).collect();
        assert_eq!(a, f, "fan-out must return the anchor answer");
        let mut unique = f.clone();
        unique.dedup();
        assert_eq!(unique.len(), f.len(), "no duplicated objects");
        assert!(stats.ranges_scanned >= 1);
    }
    // The whole map genuinely scatters across several shards, and its
    // client-visible cost is the slowest slice, below the serialized
    // anchor scan.
    let (_, anchor_stats) = anchor_region(&cluster, &cfg.space.world);
    let (_, fan_stats) = cluster
        .region(&cfg.space.world, Timestamp::ZERO, 0.0)
        .unwrap();
    assert!(
        fan_stats.shards_scattered >= 2,
        "whole-map query must scatter, got {fan_stats:?}"
    );
    assert!(
        fan_stats.cost_us < anchor_stats.cost_us,
        "overlapped slices must beat the serialized scan: {} vs {}",
        fan_stats.cost_us,
        anchor_stats.cost_us
    );
}

/// Every tier NN is the plain Algorithm 2 answer, run whole on one
/// shard — the key's reader — and accounted exactly once, at one replica
/// and at two.
#[test]
fn tier_nn_agrees_with_the_single_shard_frontier_search() {
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        ..MoistConfig::default()
    };
    // Probe points include cell-boundary huggers (candidate rings that
    // span several owners) and interior points.
    let probes = [
        Point::new(500.0, 500.0),
        Point::new(499.9, 250.1),
        Point::new(125.3, 875.2),
        Point::new(3.0, 3.0),
        Point::new(750.1, 749.9),
    ];
    for replicas in [1usize, 2] {
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, cfg)
            .shards(5)
            .replicas(replicas)
            .build()
            .unwrap();
        for &(i, x, y) in &scattered(300) {
            cluster.update(&msg(i, x, y, 0.0, 0.0)).unwrap();
        }
        // Form schools: zero-velocity co-located leaders merge, so many
        // probes now return followers displaced up to a clustering-cell
        // diagonal from their leader's spatial entry.
        cluster
            .run_due_clustering(Timestamp::from_secs(25))
            .unwrap();
        let owners: std::collections::HashSet<usize> =
            probes.iter().map(|p| cluster.shard_for_point(p)).collect();
        assert!(owners.len() >= 3, "probes must span owners: {owners:?}");
        let oracle = tier(&store, cfg, 1);
        let replica_reads = || cluster.replica_reads.load(Ordering::Relaxed);
        let mut follower_serves = 0u64;
        for p in &probes {
            for k in [1usize, 5, 20] {
                let queries_before = cluster.stats().nn_queries;
                let reads_before = replica_reads();
                // The same deterministic choice `nn` is about to make.
                let snap = cluster.snapshot();
                let (_, follower) = snap.read_replica(snap.route_point(p, &cfg));
                let (got, stats) = cluster.nn(*p, k, Timestamp::ZERO).unwrap();
                let (want, _) = oracle.nn(*p, k, Timestamp::ZERO).unwrap();
                let got_ids: Vec<u64> = got.iter().map(|n| n.oid.0).collect();
                let want_ids: Vec<u64> = want.iter().map(|n| n.oid.0).collect();
                assert_eq!(got_ids, want_ids, "probe {p:?} k={k} replicas={replicas}");
                assert_eq!(stats.shards_scattered, 1);
                assert_eq!(cluster.stats().nn_queries - queries_before, 1);
                assert_eq!(replica_reads() - reads_before, u64::from(follower));
                follower_serves += u64::from(follower);
            }
        }
        // The primaries carry the update load, so at two replicas some
        // probes read on the less-loaded follower; at one, none can.
        assert_eq!(follower_serves > 0, replicas == 2);
    }
}

/// Asserts the tier's schedule holds a deadline for exactly the routing
/// keys of the current split table (unsplit cells + children of split
/// cells; no split parent, no reunited cell's child), that each key's
/// owner agrees with the tier's routing, and that the stats rollup's
/// per-shard primary counts cover the keys.
fn assert_routing_partition(cluster: &MoistCluster) {
    let cfg = *cluster.config();
    let stats = cluster.cluster_stats();
    let snap = cluster.snapshot();
    let mut primaries = vec![0usize; snap.shards.len()];
    for cell in 0..cells_at_level(cfg.clustering_level) {
        let children = SplitTable::child_keys(cell);
        let (keys, stale) = if stats.split_cells.contains(&cell) {
            (children.to_vec(), vec![cell])
        } else {
            (vec![cell], children.to_vec())
        };
        for key in stale {
            assert_eq!(cluster.clustering_deadline(key), None, "stale key {key:#x}");
        }
        for key in keys {
            assert!(
                cluster.clustering_deadline(key).is_some(),
                "key {key:#x} unscheduled"
            );
            let owner = snap.owner_position(key);
            let cell = routing_key_cell(key, cfg.clustering_level);
            assert_eq!(shard_for_cell(cluster, cell), owner, "key {key:#x}");
            primaries[owner] += 1;
        }
    }
    let counted: Vec<usize> = stats.shards.iter().map(|s| s.primary_keys).collect();
    assert_eq!(counted, primaries);
}

#[test]
fn rebalance_splits_hot_cells_and_downweights_hot_shards() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3, // 64 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    let hot = Point::new(437.0, 437.0);
    let hot_cell = cfg.space.cell_at(cfg.clustering_level, &hot).index;
    let hot_shard_before = cluster.shard_for_point(&hot);
    // 80% of updates hammer one cell, the rest scatter; timestamps
    // advance so the EWMA windows fold.
    let mut oid = 0u64;
    for sec in 0..40u64 {
        for i in 0..25u64 {
            let (x, y) = if i < 20 {
                (hot.x + (i % 5) as f64, hot.y + (i / 5) as f64)
            } else {
                (
                    31.0 + 211.0 * (oid % 4) as f64,
                    31.0 + 311.0 * (oid % 3) as f64,
                )
            };
            cluster
                .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                .unwrap();
            oid += 1;
        }
    }
    let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
    assert_eq!(report.epoch, 1, "a skewed fleet must publish a new epoch");
    assert!(
        report.split_cells.contains(&hot_cell),
        "the hot cell {hot_cell} must split: {report:?}"
    );
    assert!(report.migrated_keys > 0);
    let stats = cluster.cluster_stats();
    assert!(stats.split_cells.contains(&hot_cell));
    // The hot shard measured busiest: its weight must have dropped
    // below the fleet mean (weights are normalized to mean 1).
    let weight = stats.shards[hot_shard_before].weight;
    assert!(weight < 1.0, "hot shard kept weight {weight}");
    // Ownership is still an exact partition of the routing keys, and
    // the stats layer exposes what moved.
    assert_routing_partition(&cluster);
    assert_eq!(stats.split_migrations, report.migrated_keys);
    // The tier still answers exactly: every object is found where a
    // fresh one-shard tier finds it.
    let oracle = tier(&store, cfg, 1);
    for probe in [hot, Point::new(100.0, 500.0), Point::new(900.0, 80.0)] {
        let (got, _) = cluster.nn(probe, 5, Timestamp::from_secs(40)).unwrap();
        let (want, _) = oracle.nn(probe, 5, Timestamp::from_secs(40)).unwrap();
        let got_ids: Vec<u64> = got.iter().map(|n| n.oid.0).collect();
        let want_ids: Vec<u64> = want.iter().map(|n| n.oid.0).collect();
        assert_eq!(got_ids, want_ids, "probe {probe:?}");
    }
    // Updates keep landing after the rebalance, on the new owners.
    let agg_before = cluster.stats().updates;
    cluster
        .update(&msg(9_999, hot.x, hot.y, 0.0, 41.0))
        .unwrap();
    assert_eq!(cluster.stats().updates, agg_before + 1);
    // A follow-up rebalance on the (now quieter) fleet must keep the
    // partition exact even if it moves more keys.
    cluster.rebalance(Timestamp::from_secs(80)).unwrap();
    assert_routing_partition(&cluster);
}

#[test]
fn rebalance_is_a_noop_on_a_level_fleet() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    // Perfectly uniform traffic over the whole map.
    for sec in 0..30u64 {
        for i in 0..64u64 {
            let x = 8.0 + 984.0 * (i % 8) as f64 / 8.0;
            let y = 8.0 + 984.0 * (i / 8) as f64 / 8.0;
            cluster
                .update(&msg(i, x, y, 0.0, sec as f64 + i as f64 / 64.0))
                .unwrap();
        }
    }
    let report = cluster.rebalance(Timestamp::from_secs(30)).unwrap();
    assert!(
        report.split_cells.is_empty(),
        "uniform load must not split: {report:?}"
    );
    let stats = cluster.cluster_stats();
    assert!(stats.split_cells.is_empty());
    assert_routing_partition(&cluster);
    // Epoch may bump only if utilization genuinely wobbled past the
    // dead-band; either way no key may be double-owned and weights
    // stay within the clamp.
    for w in stats.shards.iter().map(|s| s.weight) {
        assert!((0.1..=8.0).contains(&w), "weight {w} out of bounds");
    }
}

/// Pins that a failing post-publish ingest drain surfaces through
/// `rebalance` instead of being swallowed: a poisoned buffered update
/// must turn the placement step into an error the caller sees.
#[test]
fn rebalance_propagates_a_failing_ingest_drain() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    // Skew the fleet hard enough that rebalance publishes a new epoch
    // (same workload shape the hot-cell test pins).
    let hot = Point::new(437.0, 437.0);
    let mut oid = 0u64;
    for sec in 0..40u64 {
        for i in 0..25u64 {
            let (x, y) = if i < 20 {
                (hot.x + (i % 5) as f64, hot.y + (i / 5) as f64)
            } else {
                (
                    31.0 + 211.0 * (oid % 4) as f64,
                    31.0 + 311.0 * (oid % 3) as f64,
                )
            };
            cluster
                .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                .unwrap();
            oid += 1;
        }
    }
    // Poison the ingest queue behind `submit`'s validation (a real
    // deployment can always buffer a message that later fails to
    // apply — e.g. a store error): the drain inside rebalance must
    // hit it and propagate.
    let bad = UpdateMessage {
        oid: ObjectId(77),
        loc: Point::new(f64::NAN, 1.0),
        vel: Velocity::new(0.0, 0.0),
        ts: Timestamp::from_secs(40),
    };
    match cluster.ingest.enqueue(&cluster.ingest_cfg, 0, &bad) {
        EnqueueResult::Queued { .. } => {}
        other => panic!("poisoned message must buffer, got {other:?}"),
    }
    let err = cluster
        .rebalance(Timestamp::from_secs(40))
        .expect_err("a failing drain must fail the rebalance");
    assert!(
        matches!(err, MoistError::Inconsistent(_)),
        "wrong error: {err:?}"
    );
    // The failure is in the drain, not the placement: the routing
    // partition stays exact and the tier keeps serving.
    assert_routing_partition(&cluster);
    cluster
        .update(&msg(9_999, hot.x, hot.y, 0.0, 41.0))
        .unwrap();
}

#[test]
fn split_cell_updates_route_to_child_owners_and_cluster_once() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 2, // 16 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    let hot = Point::new(300.0, 300.0);
    let hot_cell = cfg.space.cell_at(cfg.clustering_level, &hot).index;
    for sec in 0..40u64 {
        for i in 0..10u64 {
            cluster
                .update(&msg(
                    i,
                    hot.x + (i % 3) as f64 * 80.0,
                    hot.y + (i / 3) as f64 * 60.0,
                    0.0,
                    sec as f64 + i as f64 / 10.0,
                ))
                .unwrap();
        }
    }
    let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
    assert!(
        report.split_cells.contains(&hot_cell),
        "the only loaded cell must split: {report:?}"
    );
    assert_routing_partition(&cluster);
    // A sweep past every deadline clusters each routing key exactly
    // once: unsplit cells as whole cells, the split cell as its four
    // finer children, each on its own owner.
    let key_count = cells_at_level(cfg.clustering_level) - 1 + 4;
    let runs_before = cluster.stats().cluster_runs;
    let sweep_at = Timestamp::from_secs(40 + 2 * cfg.cluster_interval_secs as u64);
    for shard in 0..cluster.num_shards() {
        cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
    }
    assert_eq!(cluster.stats().cluster_runs - runs_before, key_count);
}

#[test]
fn shard_errors_are_typed_not_panics() {
    let store = Bigtable::new();
    let cluster = tier(&store, MoistConfig::default(), 2);
    // Position past the membership.
    let err = cluster.with_shard_read(7, |_| ()).unwrap_err();
    assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
    let err = cluster
        .run_due_clustering_shard(7, Timestamp::ZERO)
        .unwrap_err();
    assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
    // Unknown id.
    let err = cluster.remove_shard(999).unwrap_err();
    assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
    // Removing the last shard.
    let ids = cluster.shard_ids();
    cluster.remove_shard(ids[0]).unwrap();
    let err = cluster.remove_shard(ids[1]).unwrap_err();
    assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
    assert_eq!(cluster.num_shards(), 1);
    // Non-finite query input: rejected like a non-finite update, before
    // planning or routing reads anything.
    let at = Timestamp::ZERO;
    let err = cluster.nn(Point::new(f64::NAN, 500.0), 3, at).unwrap_err();
    assert!(matches!(err, MoistError::Inconsistent(_)), "got {err:?}");
    let nan_corner = Rect {
        max_y: f64::NAN,
        ..cluster.config().space.world
    };
    let err = cluster.region(&nan_corner, at, 0.0).unwrap_err();
    assert!(matches!(err, MoistError::Inconsistent(_)), "got {err:?}");
    let world = cluster.config().space.world;
    let err = cluster.region(&world, at, f64::INFINITY).unwrap_err();
    assert!(matches!(err, MoistError::Inconsistent(_)), "got {err:?}");
    // `submit` validates before it buffers: a non-finite or far-future
    // report is refused with the same typed error and never reaches a
    // queue, where it would fail the flush of its acknowledged neighbours.
    let far_future = UpdateMessage {
        ts: Timestamp(u64::MAX),
        ..msg(7, 500.0, 500.0, 0.0, 0.0)
    };
    let nan = UpdateMessage {
        loc: Point::new(f64::NAN, 1.0),
        ..far_future
    };
    for bad in [far_future, nan] {
        let err = cluster.submit(&bad).unwrap_err();
        assert!(matches!(err, MoistError::Inconsistent(_)), "got {err:?}");
        let err = cluster.update(&bad).unwrap_err();
        assert!(matches!(err, MoistError::Inconsistent(_)), "got {err:?}");
    }
    assert_eq!(cluster.ingest_stats().queued, 0, "nothing was buffered");
    assert_eq!(cluster.total_elapsed_us(), 0.0, "nothing was read");
}

#[test]
fn replicated_reads_serve_from_followers_and_stay_correct() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(4)
        .replicas(2)
        .build()
        .unwrap();
    assert_eq!(cluster.cluster_stats().replicas, 2);
    for i in 0..64u64 {
        let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
        let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
        cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
    }
    // Reads stay exactly correct whichever replica serves them.
    let (nn, _) = cluster
        .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
        .unwrap();
    assert_eq!(nn.len(), 64);
    let mut seen: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 64, "replica routing must not duplicate");
    for i in [0u64, 31, 63] {
        assert!(cluster
            .position(ObjectId(i), Timestamp::ZERO)
            .unwrap()
            .is_some());
    }
    // The primaries carry the whole update load, so their clocks lead
    // their followers' — repeated point reads must route some serves
    // to the less-loaded followers and count them.
    for round in 0..8u64 {
        for i in 0..8u64 {
            let p = Point::new(60.0 + 120.0 * i as f64, 500.0);
            cluster.nn(p, 3, Timestamp::from_secs(round)).unwrap();
        }
    }
    let cstats = cluster.cluster_stats();
    assert_eq!(cstats.replicas, 2);
    assert!(
        cstats.replica_reads > 0,
        "followers must serve reads: {cstats:?}"
    );
    // k=2 accounting: every routing key has exactly one primary and
    // one follower across the fleet.
    let keys: usize = cstats.shards.iter().map(|s| s.primary_keys).sum();
    let follows: usize = cstats.shards.iter().map(|s| s.follower_keys).sum();
    assert_eq!(keys as u64, cells_at_level(cfg.clustering_level));
    assert_eq!(follows, keys);
    let counted: u64 = cstats.shards.iter().map(|s| s.replica_reads).sum();
    assert_eq!(counted, cstats.replica_reads);
}

#[test]
fn remove_shard_promotes_the_next_ranked_replica_for_every_key() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3, // 64 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(4)
        .replicas(2)
        .build()
        .unwrap();
    let cells = cells_at_level(cfg.clustering_level);
    let before: Vec<Vec<u64>> = {
        let snap = cluster.snapshot();
        (0..cells)
            .map(|key| owners(key, &snap.placement, snap.replicas))
            .collect()
    };
    let victim = cluster.shard_ids()[1];
    cluster.remove_shard(victim).unwrap();

    // Prefix stability in action: a key led by the victim is adopted
    // by its old rank-1 follower — never by a stranger — and every
    // other key keeps its primary.
    let snap = cluster.snapshot();
    let mut expected_promotions = 0u64;
    for (key, old_set) in before.iter().enumerate() {
        let new_primary = owners(key as u64, &snap.placement, snap.replicas)[0];
        if old_set[0] == victim {
            expected_promotions += 1;
            assert_eq!(
                new_primary, old_set[1],
                "key {key}: the rank-1 follower must step up"
            );
        } else {
            assert_eq!(
                new_primary, old_set[0],
                "key {key}: primary moved without cause"
            );
        }
    }
    drop(snap);
    assert!(
        expected_promotions > 0,
        "the victim must have led some keys"
    );
    let cstats = cluster.cluster_stats();
    assert_eq!(cstats.promotions, expected_promotions);
    // The schedule partition is still exact.
    sole_owners(&cluster);
}

#[test]
fn pipelined_submissions_match_the_synchronous_tier_and_cost_less() {
    let store_sync = Bigtable::new();
    let store_pipe = Bigtable::new();
    let cfg = MoistConfig::default();
    let sync = tier(&store_sync, cfg, 4);
    let pipe = MoistCluster::builder(&store_pipe, cfg)
        .shards(4)
        .ingest(IngestConfig {
            batch_size: 16,
            ..IngestConfig::default()
        })
        .build()
        .unwrap();
    // Two reporting rounds over a spread map: the second round is
    // refreshes (leaders + sheddable followers), where batching pays.
    let mut msgs = Vec::new();
    for round in 0..2u64 {
        for i in 0..64u64 {
            let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
            let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
            msgs.push(msg(i, x + round as f64, y, 1.0, 10.0 * round as f64));
        }
    }
    for m in &msgs {
        sync.update(m).unwrap();
        pipe.submit(m).unwrap();
    }
    pipe.drain_ingest().unwrap();

    let (a, b) = (sync.stats(), pipe.stats());
    assert_eq!(a.updates, b.updates);
    assert_eq!(a.registered, b.registered);
    assert_eq!(a.shed, b.shed);
    // Same routing: per-shard update counts agree exactly.
    let per_shard =
        |c: &MoistCluster| -> Vec<u64> { c.shard_stats().iter().map(|s| s.updates).collect() };
    assert_eq!(per_shard(&sync), per_shard(&pipe));
    // Amortization is real: the pipelined tier consumed less virtual
    // store time for the same stream.
    assert!(
        pipe.total_elapsed_us() < sync.total_elapsed_us(),
        "batched {} µs vs sync {} µs",
        pipe.total_elapsed_us(),
        sync.total_elapsed_us()
    );
    let is = pipe.ingest_stats();
    assert_eq!(is.submitted, msgs.len() as u64);
    assert_eq!(is.enqueued, msgs.len() as u64);
    assert_eq!(is.flushed_updates, msgs.len() as u64);
    assert_eq!(is.queued, 0, "drain left nothing behind");
    assert!(is.size_flushes >= 1, "16-deep queues must size-flush");
    assert!(is.max_batch >= 2);
    assert_eq!(is.backpressure, 0);
    let cstats = pipe.cluster_stats();
    assert_eq!(cstats.ingest, is);
    assert_eq!(cstats.refused(), 0);
    assert!(cstats.shards.iter().all(|s| s.queue_depth == 0));
}

#[test]
fn deadline_flush_applies_a_stranded_trickle() {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default())
        .shards(2)
        .ingest(IngestConfig {
            batch_size: 1000,
            ..IngestConfig::default()
        })
        .build()
        .unwrap();
    for i in 0..3u64 {
        let out = cluster.submit(&msg(i, 100.0, 100.0, 1.0, 0.0)).unwrap();
        assert!(matches!(out, SubmitOutcome::Enqueued { .. }));
    }
    // Before the oldest message ages past the deadline: nothing due.
    let early = Timestamp::from_secs_f64(0.6 * FLUSH_DEADLINE_SECS);
    assert_eq!(cluster.flush_due(early).unwrap(), 0);
    assert_eq!(cluster.stats().updates, 0);
    // At it: the whole trickle applies as one batch.
    let deadline = Timestamp::from_secs_f64(FLUSH_DEADLINE_SECS);
    assert_eq!(cluster.flush_due(deadline).unwrap(), 3);
    assert_eq!(cluster.stats().updates, 3);
    let is = cluster.ingest_stats();
    assert_eq!(is.deadline_flushes, 1);
    assert_eq!(is.queued, 0);
    // Queue wait was accounted in virtual time: one deadline per message.
    assert_eq!(is.queue_wait_us, 3 * deadline.0);
}

/// Runs the backpressure dance: one thread pins the target key's writer
/// lock, another submits a full batch that blocks applying against it, and the
/// main thread keeps submitting until the outstanding cap trips. Returns
/// what the tripping submission got.
fn provoke_full_queue() -> (MoistCluster, Result<SubmitOutcome>) {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default())
        .shards(2)
        .ingest(IngestConfig {
            batch_size: 4,
            queue_cap: 5,
        })
        .build()
        .unwrap();
    let p = Point::new(100.0, 100.0);
    let key = cluster.key_of(&p);
    let pinned = std::sync::atomic::AtomicBool::new(false);
    let release = std::sync::atomic::AtomicBool::new(false);
    let tripped = std::thread::scope(|scope| {
        // Pin the key's writer lock so the size-flush below cannot finish.
        let pin = scope.spawn(|| {
            cluster.with_key(key, |_| {
                pinned.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        // 4th submission fills the batch and blocks applying it
        // (submitting only after the pin visibly holds the lock).
        let flusher = scope.spawn(|| {
            while !pinned.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for i in 0..4u64 {
                cluster.submit(&msg(i, 100.0, 100.0, 1.0, 0.0)).unwrap();
            }
        });
        // Wait until the blocked batch's slots are visibly held.
        while cluster.ingest_stats().queued < 4 {
            std::thread::yield_now();
        }
        // 5th fits the cap (5), 6th trips it.
        let under = cluster.submit(&msg(10, 100.0, 100.0, 1.0, 0.0)).unwrap();
        assert!(matches!(under, SubmitOutcome::Enqueued { depth: 5, .. }));
        let tripped = cluster.submit(&msg(11, 100.0, 100.0, 1.0, 0.0));
        release.store(true, Ordering::Release);
        pin.join().unwrap();
        flusher.join().unwrap();
        tripped
    });
    cluster.drain_ingest().unwrap();
    (cluster, tripped)
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    let (cluster, tripped) = provoke_full_queue();
    match tripped {
        Err(MoistError::Backpressure { shard, depth }) => {
            assert_eq!(depth, 5);
            assert!(cluster.shard_ids().contains(&shard));
        }
        other => panic!("expected typed backpressure, got {other:?}"),
    }
    let is = cluster.ingest_stats();
    assert_eq!(is.backpressure, 1);
    // The rejected message was never accepted; everything accepted
    // (4 batched + 1 straggler) applied.
    assert_eq!(cluster.stats().updates, 5);
    assert_eq!(is.queued, 0);
    let cstats = cluster.cluster_stats();
    assert_eq!(cstats.ops.shed + cstats.refused(), 1);
}

#[test]
fn epoch_bumps_drain_buffered_batches_to_the_new_owners() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(3)
        .ingest(IngestConfig {
            batch_size: 1000, // nothing size-flushes: all drain-driven
            ..IngestConfig::default()
        })
        .build()
        .unwrap();
    // Buffer a spread of registrations, none applied yet.
    for i in 0..32u64 {
        let x = 20.0 + 960.0 * (i % 8) as f64 / 8.0;
        let y = 20.0 + 960.0 * (i / 8) as f64 / 8.0;
        cluster.submit(&msg(i, x, y, 1.0, 0.0)).unwrap();
    }
    assert_eq!(cluster.stats().updates, 0);
    assert_eq!(cluster.ingest_stats().queued, 32);
    // A join drains them — under the *new* epoch's ownership.
    let joiner = cluster.add_shard().unwrap();
    assert_eq!(cluster.stats().updates, 32);
    assert_eq!(cluster.ingest_stats().queued, 0);
    assert!(cluster.ingest_stats().drain_flushes >= 1);
    sole_owners(&cluster);
    // Buffer more, then kill a shard: its buffered messages re-route
    // to the survivors instead of being lost.
    for i in 32..48u64 {
        let x = 20.0 + 960.0 * (i % 8) as f64 / 8.0;
        let y = 20.0 + 960.0 * ((i / 8) % 8) as f64 / 8.0;
        cluster.submit(&msg(i, x, y, 1.0, 1.0)).unwrap();
    }
    cluster.remove_shard(joiner).unwrap();
    assert_eq!(cluster.stats().updates, 48, "zero buffered updates lost");
    assert_eq!(cluster.ingest_stats().queued, 0);
    sole_owners(&cluster);
    // Every buffered object is really in the store.
    for i in [0u64, 31, 32, 47] {
        assert!(cluster
            .position(ObjectId(i), Timestamp::from_secs(2))
            .unwrap()
            .is_some());
    }
}

#[test]
fn cluster_update_batch_groups_by_owner_and_keeps_order() {
    let store = Bigtable::new();
    let cluster = tier(&store, MoistConfig::default(), 4);
    let mut msgs = Vec::new();
    for i in 0..24u64 {
        let x = 15.0 + 970.0 * (i % 6) as f64 / 6.0;
        let y = 15.0 + 970.0 * (i / 6) as f64 / 6.0;
        msgs.push(msg(i, x, y, 1.0, 0.0));
    }
    let outcomes = cluster.update_batch(&msgs).unwrap();
    assert_eq!(outcomes.len(), msgs.len());
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, UpdateOutcome::Registered)));
    assert_eq!(cluster.stats().updates, 24);
    // Routed like the synchronous path: only owners saw their cells.
    for (i, m) in msgs.iter().enumerate() {
        let pos = cluster.shard_for_point(&m.loc);
        let upd = cluster.shard_stats()[pos].updates;
        assert!(upd > 0, "message {i} must have landed on shard {pos}");
    }
}

#[test]
fn rebalance_unsplits_cells_whose_demand_faded() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3, // 64 cells
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = tier(&store, cfg, 4);
    let hot_a = Point::new(437.0, 437.0);
    let a_cell = cfg.space.cell_at(cfg.clustering_level, &hot_a).index;
    let hot_b = Point::new(100.0, 900.0);
    let b_cell = cfg.space.cell_at(cfg.clustering_level, &hot_b).index;
    assert_ne!(a_cell, b_cell);
    // Phase one: hammer cell A, 80/20 like the split test above.
    let mut oid = 0u64;
    for sec in 0..40u64 {
        for i in 0..25u64 {
            let (x, y) = if i < 20 {
                (hot_a.x + (i % 5) as f64, hot_a.y + (i / 5) as f64)
            } else {
                (
                    31.0 + 211.0 * (oid % 4) as f64,
                    31.0 + 311.0 * (oid % 3) as f64,
                )
            };
            cluster
                .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                .unwrap();
            oid += 1;
        }
    }
    let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
    assert!(report.split_cells.contains(&a_cell));
    assert!(report.unsplit_cells.is_empty());
    // Phase two: the hot spot moves to cell B; A goes silent and its
    // EWMA rate decays far below the (B-driven) mean.
    for sec in 40..80u64 {
        for i in 0..25u64 {
            let (x, y) = if i < 20 {
                (hot_b.x + (i % 5) as f64, hot_b.y + (i / 5) as f64)
            } else {
                (
                    531.0 + 111.0 * (oid % 4) as f64,
                    31.0 + 211.0 * (oid % 3) as f64,
                )
            };
            cluster
                .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                .unwrap();
            oid += 1;
        }
    }
    let report = cluster.rebalance(Timestamp::from_secs(80)).unwrap();
    assert!(
        report.unsplit_cells.contains(&a_cell),
        "faded cell {a_cell} must un-split: {report:?}"
    );
    assert!(
        report.split_cells.contains(&b_cell),
        "the new hot cell {b_cell} must split: {report:?}"
    );
    let split = cluster.cluster_stats().split_cells;
    assert!(!split.contains(&a_cell), "split table still holds {a_cell}");
    assert!(split.contains(&b_cell));
    // The (split → plain) transition kept the routing-key partition
    // exact, and updates keep landing — both to the reunited cell and
    // the freshly split one.
    assert_routing_partition(&cluster);
    let before = cluster.stats().updates;
    cluster
        .update(&msg(7_001, hot_a.x, hot_a.y, 0.0, 81.0))
        .unwrap();
    cluster
        .update(&msg(7_002, hot_b.x, hot_b.y, 0.0, 81.0))
        .unwrap();
    assert_eq!(cluster.stats().updates, before + 2);
    assert!(cluster
        .position(ObjectId(7_001), Timestamp::from_secs(81))
        .unwrap()
        .is_some());
}

#[test]
fn controller_grows_on_surge_and_shrinks_back_when_idle() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    // A tier with no controller ticks as a no-op.
    let bare = tier(&store, cfg, 2);
    assert!(bare
        .controller_tick(Timestamp::from_secs(1))
        .unwrap()
        .is_empty());
    assert!(bare.controller_events().is_empty());

    let ccfg = ControllerConfig {
        min_shards: 2,
        max_shards: 5,
        window_secs: 2.0,
        cooldown_secs: 5.0,
        // Virtual busy-µs per virtual second: tiny, so the surge below
        // clearly saturates it and idling clearly undershoots it.
        target_shard_busy_us: 300.0,
    };
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(2)
        .controller(ccfg)
        .build()
        .unwrap();
    // Surge: 100 updates/s spread over the map, controller ticking
    // every virtual second like a client loop would.
    let mut oid = 0u64;
    for sec in 0..20u64 {
        for i in 0..100u64 {
            let x = 15.0 + 970.0 * ((oid * 7) % 64 % 8) as f64 / 8.0;
            let y = 15.0 + 970.0 * ((oid * 7) % 64 / 8) as f64 / 8.0;
            cluster
                .update(&msg(oid % 900, x, y, 0.0, sec as f64 + i as f64 / 100.0))
                .unwrap();
            oid += 1;
        }
        cluster
            .controller_tick(Timestamp::from_secs(sec + 1))
            .unwrap();
    }
    let peak = cluster.num_shards();
    assert!(
        peak > 2,
        "surge must grow the fleet past its floor, stuck at {peak}"
    );
    assert!(peak <= 5, "fleet exceeded max_shards: {peak}");
    // Idle: no traffic, just ticks. Each closed window under the
    // scale-down band sheds one shard per cooldown until the floor.
    for sec in 20..80u64 {
        cluster
            .controller_tick(Timestamp::from_secs(sec + 1))
            .unwrap();
    }
    assert_eq!(
        cluster.num_shards(),
        2,
        "idle fleet must shrink back to min_shards"
    );
    assert_routing_partition(&cluster);
    // Every scaling decision is logged, and decisions from different
    // ticks respect the cooldown (same-tick batches share one stamp).
    let events = cluster.controller_events();
    let adds = events
        .iter()
        .filter(|e| matches!(e.action, ControllerAction::AddShard { .. }))
        .count();
    let removes = events
        .iter()
        .filter(|e| matches!(e.action, ControllerAction::RemoveShard { .. }))
        .count();
    assert!(adds >= 1, "no add events logged: {events:?}");
    assert_eq!(
        removes,
        peak - 2,
        "every removal back to the floor must be logged: {events:?}"
    );
    let scale_times: Vec<f64> = events
        .iter()
        .filter(|e| e.action.is_scaling())
        .map(|e| e.at_secs)
        .collect();
    for pair in scale_times.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            gap == 0.0 || gap >= ccfg.cooldown_secs - 1e-9,
            "scale events {gap}s apart violate the {}s cooldown: {events:?}",
            ccfg.cooldown_secs
        );
    }
    // All objects written during the surge are still served.
    for i in [0u64, 450, 899] {
        assert!(cluster
            .position(ObjectId(i), Timestamp::from_secs(80))
            .unwrap()
            .is_some());
    }
}

/// A clustering tick at the end of time is refused with a typed error
/// before any cell runs (the scheduler re-arms a due cell by adding whole
/// intervals to the tick), and a sane tick after it still fires. The
/// tier's other tick-driven entry points return a result at `u64::MAX`
/// instead of panicking.
#[test]
fn ticks_at_the_end_of_time_are_typed_errors_not_panics() {
    let end = Timestamp::from_secs_f64(f64::INFINITY);
    assert_eq!(end, Timestamp(u64::MAX));
    let cfg = MoistConfig::default();
    let sane = Timestamp::from_secs_f64(2.0 * cfg.cluster_interval_secs);
    let inconsistent = |r: Result<ClusterReport>| matches!(r, Err(MoistError::Inconsistent(_)));

    let store = Bigtable::new();
    let single = tier(&store, cfg, 1);
    single.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
    assert!(inconsistent(single.run_due_clustering(end)));
    assert_eq!(single.stats().cluster_runs, 0);
    single.run_due_clustering(sane).unwrap();
    assert!(single.stats().cluster_runs > 0, "the next sane tick fires");

    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(2)
        .controller(ControllerConfig::default())
        .build()
        .unwrap();
    cluster.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
    cluster.submit(&msg(2, 900.0, 900.0, 1.0, 0.0)).unwrap();
    assert!(inconsistent(cluster.run_due_clustering(end)));
    assert!(inconsistent(cluster.run_due_clustering_shard(0, end)));
    assert_eq!(cluster.stats().cluster_runs, 0);
    assert_eq!(cluster.flush_due(end).unwrap(), 1);
    cluster.rebalance(end).unwrap();
    cluster.controller_tick(end).unwrap();
    assert!(cluster.stats().balanced());
    cluster.run_due_clustering(sane).unwrap();
    assert!(cluster.stats().cluster_runs > 0, "the next sane tick fires");
}

/// A replication factor past the fleet clamps to the fleet size, however
/// large: tiers built with `usize::MAX / 4` and `usize::MAX` replicas
/// answer every read exactly as a `replicas(3)` tier over the same three
/// shards does.
#[test]
fn replication_factors_past_the_fleet_clamp_to_it() {
    let p = Point::new(100.0, 100.0);
    let at = Timestamp::from_secs(1);
    let answers = |k: usize| {
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, MoistConfig::default())
            .shards(3)
            .replicas(k)
            .build()
            .unwrap();
        cluster.update(&msg(1, p.x, p.y, 1.0, 1.0)).unwrap();
        let (nn, _) = cluster.nn(p, 1, at).unwrap();
        let position = cluster.position(ObjectId(1), at).unwrap();
        let rect = Rect::new(0.0, 0.0, 500.0, 500.0);
        let (region, _) = cluster.region(&rect, at, 0.0).unwrap();
        let keys: Vec<(usize, usize)> = (cluster.cluster_stats().shards.iter())
            .map(|s| (s.primary_keys, s.follower_keys))
            .collect();
        (nn, position, region, keys)
    };
    let want = answers(3);
    assert_eq!(want.0.len(), 1);
    assert!(want.1.is_some());
    for k in [usize::MAX / 4, usize::MAX] {
        assert_eq!(answers(k), want, "replicas({k})");
    }
}

/// A clustering level inside the leaf level but past the schedule's
/// limit is a typed config error, from one shard or several, before any
/// per-cell state is built.
#[test]
fn clustering_levels_past_the_schedule_limit_are_config_errors() {
    let cfg = MoistConfig {
        clustering_level: 14,
        ..MoistConfig::default()
    };
    let store = Bigtable::new();
    for shards in [1, 2] {
        let cluster = MoistCluster::builder(&store, cfg).shards(shards).build();
        assert!(matches!(cluster, Err(MoistError::Config(_))));
    }
}

/// A caller-fixed NN level finer than the cap is refused at once with a
/// typed error, before any store read: on a sparse map Algorithm 2 would
/// walk four times the cells per level finer. FLAG's levels and a fixed
/// level inside the cap still answer.
#[test]
fn fixed_nn_levels_past_the_cap_are_refused_at_once() {
    let store = Bigtable::new();
    let cluster = tier(&store, MoistConfig::default(), 3);
    for &(i, x, y) in &scattered(50) {
        cluster.update(&msg(i, x, y, 0.0, 1.0)).unwrap();
    }
    let (p, at) = (Point::new(500.0, 500.0), Timestamp::from_secs(1));
    let fixed = |level| NnOptions {
        nn_level: Some(level),
        ..NnOptions::new(3)
    };
    let before = store.metrics_snapshot();
    for level in [11u8, 20, 255] {
        let refused = cluster.nn_with_options(p, at, &fixed(level));
        assert!(
            matches!(refused, Err(MoistError::Inconsistent(_))),
            "level {level}: {refused:?}"
        );
    }
    assert_eq!(store.metrics_snapshot(), before, "refused before any read");
    let (hits, _) = cluster.nn_with_options(p, at, &fixed(8)).unwrap();
    assert_eq!(hits.len(), 3);
    let (flag, _) = cluster.nn(p, 3, at).unwrap();
    assert_eq!(flag, hits);
}

const PINNED_SHARDS: usize = 4;

/// Small clustering cells (level 3), so a few hundred objects spread
/// over [`PINNED_SHARDS`] shards; the pinned-shard tests and the
/// metering pin run on it.
fn small_cells_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// Registers `n` objects at the [`scattered`] points, reporting at 1 s.
fn seed_objects(cluster: &MoistCluster, n: u64) {
    for (i, x, y) in scattered(n) {
        cluster.update(&msg(i, x, y, 1.0, 1.0)).unwrap();
    }
}

/// One representative point routed to each of [`PINNED_SHARDS`] shards
/// (deterministic sweep).
fn probe_points(cluster: &MoistCluster) -> Vec<Point> {
    let mut probe: Vec<Option<Point>> = vec![None; PINNED_SHARDS];
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

/// A writer pins the writer lock of shard 0's probe key mid-`update_batch`
/// (inside `with_key`) until every reader below has answered: a read of
/// another shard, eight tier queries aimed at the pinned key, and — on
/// the pinned key's shard itself — `with_shard_read`, the tier's stats
/// rollups and `age_data`. None of them takes a writer lock; anything
/// that waited for the pinned one would leave the writer waiting for its
/// release signal until the 5 s timeout fails the test.
#[test]
fn tier_queries_do_not_wait_for_a_pinned_write_guard() {
    use std::sync::mpsc;
    use std::time::Duration;
    let store = Bigtable::new();
    let cluster = Arc::new(tier(&store, small_cells_config(), PINNED_SHARDS));
    seed_objects(&cluster, 256);
    let probes = probe_points(&cluster);
    let shard0_probe = probes[0];

    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let c_writer = Arc::clone(&cluster);
    let key = cluster.key_of(&shard0_probe);
    let writer = std::thread::spawn(move || {
        let batch: Vec<UpdateMessage> = (1000..1064)
            .map(|oid| msg(oid, 10.0 + (oid - 1000) as f64 * 2.0, 10.0, 1.0, 2.0))
            .collect();
        c_writer.with_key(key, |server| {
            server.apply_batch(&batch).unwrap();
            held_tx.send(()).unwrap();
            release_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("readers must answer while a writer lock of shard 0 is pinned");
        });
    });

    held_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // Another shard is free.
    let fixed = NnOptions {
        nn_level: Some(5),
        ..NnOptions::new(3)
    };
    let (nn_other, _) = cluster
        .with_shard_read(1, |s| {
            s.nn_with_options(probes[1], Timestamp::from_secs(3), &fixed)
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
    assert_eq!(cluster.cluster_stats().shards.len(), PINNED_SHARDS);
    cluster.age_data(now).unwrap();

    release_tx.send(()).unwrap();
    writer
        .join()
        .expect("a reader waited for the writer's lock");
}

/// The lock order under a pinned key: while `with_key` holds a routing
/// key's writer lock for ~300 ms, an `update` routed to that key
/// waits for it holding the membership read guard, an `add_shard` waits
/// for that guard, and an `nn` waits at most for the bump. All three
/// finish once the pin lifts — a deadlock fails the bounded wait instead
/// of hanging the suite — and the update is counted exactly once. The
/// pin is forced by a channel; the short pauses between the three starts
/// only make that arrival order likely, and the checks hold in any order.
#[test]
fn a_pinned_key_delays_an_update_a_join_and_a_query_but_blocks_none() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    const PIN: Duration = Duration::from_millis(300);
    const BOUND: Duration = Duration::from_secs(20);
    let store = Bigtable::new();
    let cluster = Arc::new(tier(&store, small_cells_config(), PINNED_SHARDS));
    seed_objects(&cluster, 64);
    let probe = probe_points(&cluster)[0];
    let before = cluster.stats();

    // Each thread reports on its own channel and is joined only after
    // every report arrived, so a deadlocked one fails its `recv_timeout`
    // below instead of hanging the join.
    let (held_tx, held_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let key = cluster.key_of(&probe);
    let pin = std::thread::spawn(move || {
        c.with_key(key, |_| {
            held_tx.send(Instant::now()).unwrap();
            std::thread::sleep(PIN);
        });
    });
    let pinned_at = held_rx
        .recv_timeout(BOUND)
        .expect("the pin never took the lock");

    let (update_tx, update_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let update = std::thread::spawn(move || {
        let m = msg(500_000, probe.x, probe.y, 1.0, 3.0);
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
        "the update must wait for the pinned key"
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

    assert_eq!(cluster.num_shards(), PINNED_SHARDS + 1);
    let stats = cluster.stats();
    assert_eq!(stats.updates - before.updates, 1, "counted exactly once");
    assert!(stats.balanced(), "{stats:?}");
    assert!(cluster
        .position(ObjectId(500_000), Timestamp::from_secs(3))
        .unwrap()
        .is_some());
}

/// Two routing keys owned by one shard and locked on different stripes:
/// the first two such points of a deterministic sweep.
fn two_keys_of_one_shard(cluster: &MoistCluster) -> (Point, Point) {
    let mut first: Vec<Option<(Point, u64)>> = vec![None; cluster.num_shards()];
    for gx in 0..64 {
        for gy in 0..64 {
            let p = Point::new(gx as f64 * 15.5 + 8.0, gy as f64 * 15.5 + 8.0);
            let (key, shard) = (cluster.key_of(&p), cluster.shard_for_point(&p));
            match first[shard] {
                None => first[shard] = Some((p, key)),
                Some((a, a_key)) if writer_stripe(a_key) != writer_stripe(key) => return (a, p),
                Some(_) => {}
            }
        }
    }
    panic!("no shard owns two keys on different stripes");
}

/// While one routing key's writer lock is pinned, an update routed to
/// another key of the **same** shard completes: writers meet on the
/// key, not the shard. Under one writer lock per shard the update would
/// wait out the pin, and the bounded wait below would fail.
#[test]
fn a_pinned_key_leaves_another_key_of_its_shard_free() {
    use std::sync::mpsc;
    use std::time::Duration;
    const BOUND: Duration = Duration::from_secs(20);
    let store = Bigtable::new();
    let cluster = Arc::new(tier(&store, small_cells_config(), PINNED_SHARDS));
    seed_objects(&cluster, 64);
    let (a, b) = two_keys_of_one_shard(&cluster);
    assert_eq!(cluster.shard_for_point(&a), cluster.shard_for_point(&b));
    let before = cluster.stats();

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let c = Arc::clone(&cluster);
    let key_a = cluster.key_of(&a);
    let pin = std::thread::spawn(move || {
        c.with_key(key_a, |_| {
            held_tx.send(()).unwrap();
            // Released by the main thread, or by the bound if the update
            // never came back, so a failure cannot hang the suite.
            let _ = release_rx.recv_timeout(BOUND);
        });
    });
    held_rx
        .recv_timeout(BOUND)
        .expect("the pin never took the lock");

    let (update_tx, update_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let update = std::thread::spawn(move || {
        let applied = c.update(&msg(600_000, b.x, b.y, 1.0, 3.0)).map(drop);
        update_tx.send(applied).unwrap();
    });
    let applied = update_rx
        .recv_timeout(BOUND)
        .expect("an update to another key waited for the pinned key");
    applied.unwrap();
    release_tx.send(()).unwrap();
    for t in [pin, update] {
        t.join().unwrap();
    }
    let stats = cluster.stats();
    assert_eq!(stats.updates - before.updates, 1);
    assert!(stats.balanced(), "{stats:?}");
}

/// A clustering tick whose only due key is pinned waits for the pin —
/// it pops the key, then blocks on the key's writer lock without having
/// clustered anything — and once the pin lifts clusters that key exactly
/// once.
#[test]
fn a_tick_waits_for_its_pinned_key_then_clusters_it_once() {
    use std::sync::mpsc;
    use std::time::Duration;
    const BOUND: Duration = Duration::from_secs(20);
    let store = Bigtable::new();
    let cluster = Arc::new(tier(&store, small_cells_config(), PINNED_SHARDS));
    seed_objects(&cluster, 64);
    // The schedule staggers first deadlines by key, so key 0 is due
    // alone at its deadline.
    let due = cluster.clustering_deadline(0).unwrap();
    assert!(cluster.clustering_deadline(1).unwrap() > due);
    let owner = cluster.snapshot().owner_position(0);
    let runs_before = cluster.stats().cluster_runs;

    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let c = Arc::clone(&cluster);
    let pin = std::thread::spawn(move || {
        c.with_key(0, |_| {
            held_tx.send(()).unwrap();
            let _ = release_rx.recv_timeout(BOUND);
        });
    });
    held_rx
        .recv_timeout(BOUND)
        .expect("the pin never took the lock");

    let (tick_tx, tick_rx) = mpsc::channel();
    let c = Arc::clone(&cluster);
    let tick = std::thread::spawn(move || {
        let report = c.run_due_clustering_shard(owner, Timestamp(due)).map(drop);
        tick_tx.send(report).unwrap();
    });
    // The tick pops key 0 at once, then waits on the pinned lock.
    while cluster.clustering_deadline(0) == Some(due) {
        std::thread::yield_now();
    }
    assert!(
        tick_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the tick must wait for the pinned key"
    );
    assert_eq!(cluster.stats().cluster_runs, runs_before);
    release_tx.send(()).unwrap();
    tick_rx
        .recv_timeout(BOUND)
        .expect("the tick never finished")
        .unwrap();
    for t in [pin, tick] {
        t.join().unwrap();
    }
    assert_eq!(cluster.stats().cluster_runs - runs_before, 1);
}

/// Writers whose batches lock overlapping key sets in different orders,
/// beside clustering ticks and a join and a leave, all finish: a batch
/// takes its stripes in ascending order whatever its message order, a
/// tick one stripe at a time, and an epoch bump none. Four writer threads
/// alternate direct batches and submissions (whose size flushes are
/// batches too) over twelve keys, each thread in its own key order; a
/// ticker sweeps every shard; a third thread joins a shard and removes
/// it. Each thread reports on a channel, so a deadlock fails its bounded
/// wait instead of hanging the suite. Afterwards the counters balance,
/// every acknowledged update is counted, and every object is found.
#[test]
fn overlapping_batches_ticks_and_churn_finish_and_lose_nothing() {
    use std::sync::mpsc;
    use std::time::Duration;
    const BOUND: Duration = Duration::from_secs(60);
    const WRITERS: u64 = 4;
    const OBJECTS: u64 = 48;
    const ROUNDS: u64 = 40;
    let store = Bigtable::new();
    let cluster = Arc::new(
        MoistCluster::builder(&store, small_cells_config())
            .shards(PINNED_SHARDS)
            .ingest(IngestConfig {
                batch_size: 16,
                ..IngestConfig::default()
            })
            .build()
            .unwrap(),
    );
    // Twelve points on twelve distinct stripes, spread over the map.
    let mut keys: Vec<(Point, usize)> = Vec::new();
    'grid: for gx in 0..8 {
        for gy in 0..8 {
            let p = Point::new(gx as f64 * 125.0 + 60.0, gy as f64 * 125.0 + 60.0);
            let stripe = writer_stripe(cluster.key_of(&p));
            if keys.iter().all(|&(_, s)| s != stripe) {
                keys.push((p, stripe));
                if keys.len() == 12 {
                    break 'grid;
                }
            }
        }
    }
    assert_eq!(keys.len(), 12);
    let points: Arc<Vec<Point>> = Arc::new(keys.iter().map(|&(p, _)| p).collect());

    let (done_tx, done_rx) = mpsc::channel::<(&str, u64)>();
    let mut threads = Vec::new();
    for w in 0..WRITERS {
        let (c, points, done) = (Arc::clone(&cluster), Arc::clone(&points), done_tx.clone());
        threads.push(std::thread::spawn(move || {
            // Writer w walks the keys rotated by 3w, odd writers backwards.
            let n = points.len();
            let order: Vec<usize> = (0..n)
                .map(|i| {
                    if w % 2 == 0 {
                        (i + 3 * w as usize) % n
                    } else {
                        (n - 1 - i + 3 * w as usize) % n
                    }
                })
                .collect();
            let mut acked = 0u64;
            for round in 0..ROUNDS {
                let secs = 1.0 + round as f64 * 0.5;
                let batch: Vec<UpdateMessage> = (0..OBJECTS)
                    .map(|j| {
                        let p = points[order[j as usize % n]];
                        let dx = (j / n as u64) as f64 + 0.1 * round as f64;
                        msg(w * 1_000 + j, p.x + dx, p.y, 0.2, secs)
                    })
                    .collect();
                if round % 2 == 0 {
                    acked += c.update_batch(&batch).unwrap().len() as u64;
                } else {
                    for m in &batch {
                        c.submit(m).unwrap();
                        acked += 1;
                    }
                    c.drain_ingest().unwrap();
                }
            }
            done.send(("writer", acked)).unwrap();
        }));
    }
    let (c, done) = (Arc::clone(&cluster), done_tx.clone());
    threads.push(std::thread::spawn(move || {
        let mut ticks = 0;
        for step in 0..60u64 {
            let now = Timestamp::from_secs_f64(10.0 + step as f64 * 0.25);
            for pos in 0..PINNED_SHARDS + 1 {
                // A position past a just-removed shard is a typed miss.
                match c.run_due_clustering_shard(pos, now) {
                    Ok(_) => ticks += 1,
                    Err(MoistError::NoSuchShard(_)) => {}
                    Err(e) => panic!("tick failed: {e:?}"),
                }
            }
        }
        done.send(("ticker", ticks)).unwrap();
    }));
    let (c, done) = (Arc::clone(&cluster), done_tx);
    threads.push(std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        let id = c.add_shard().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        c.remove_shard(id).unwrap();
        done.send(("churn", 1)).unwrap();
    }));

    let mut acked = 0;
    for _ in 0..threads.len() {
        let (who, n) = done_rx
            .recv_timeout(BOUND)
            .expect("a writer, the ticker or the churn deadlocked");
        if who == "writer" {
            acked += n;
        }
    }
    for t in threads {
        t.join().unwrap();
    }
    cluster.drain_ingest().unwrap();
    assert_eq!(acked, WRITERS * OBJECTS * ROUNDS);
    let stats = cluster.stats();
    assert_eq!(stats.updates, acked, "every acknowledged update is counted");
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(cluster.num_shards(), PINNED_SHARDS);
    let at = Timestamp::from_secs_f64(1.0 + ROUNDS as f64 * 0.5);
    for w in 0..WRITERS {
        for j in 0..OBJECTS {
            assert!(
                cluster
                    .position(ObjectId(w * 1_000 + j), at)
                    .unwrap()
                    .is_some(),
                "object {} lost",
                w * 1_000 + j
            );
        }
    }
}

/// Determinism pin for the per-call metering, and proof that a one-shard
/// tier is the bare server. A single-threaded run of registrations, FLAG
/// NN queries and region queries through a bare `MoistServer` (an
/// ephemeral hub-seeded session per call) lands on the *bit-identical*
/// virtual time and op count of a plain `Session` replaying the same store
/// ops on one shared clock, with the same answers; a second bare server
/// lands on the same bits again; and a one-shard tier — routing,
/// membership guard, pooled region scan and all — charges the same bits,
/// issues the same ops and gives the same answers. No clustering tick
/// runs: clustering's compute phase is charged in wall-clock µs.
#[test]
fn single_threaded_metering_is_bit_identical_to_one_shared_clock() {
    use crate::flag::{tests::best_level, FlagTuner};
    use crate::nn::nn_query;
    use crate::region::region_query;
    use crate::tables::MoistTables;
    use crate::update::apply_update;

    enum Call {
        Update(UpdateMessage),
        Nn(Point),
        Region(Rect),
    }
    let cfg = small_cells_config();
    let (k, at, margin) = (4, Timestamp::from_secs(2), 50.0);
    let updates = (0..200u64).map(|oid| {
        let x = 30.0 + (oid * 13 % 940) as f64;
        let y = 30.0 + (oid * 29 % 940) as f64;
        Call::Update(msg(oid, x, y, 1.0, 1.0))
    });
    let nns = (0..40u64).map(|q| {
        Call::Nn(Point::new(
            25.0 + (q * 97 % 950) as f64,
            25.0 + (q * 41 % 950) as f64,
        ))
    });
    let regions = (0..6u64).map(|q| {
        let (x, y) = (100.0 + q as f64 * 150.0, 900.0 - q as f64 * 140.0);
        Call::Region(Rect::new(x - 80.0, y - 80.0, x + 80.0, y + 80.0))
    });
    let calls: Vec<Call> = updates.chain(nns).chain(regions).collect();

    let bare = || {
        let store = Bigtable::new();
        let mut server = MoistServer::new(&store, cfg).unwrap();
        let ops = store.metrics_snapshot();
        let answers: Vec<Vec<Neighbor>> = (calls.iter())
            .map(|call| match call {
                Call::Update(m) => server.update(m).map(|_| Vec::new()).unwrap(),
                Call::Nn(p) => server.nn(*p, k, at).unwrap().0,
                Call::Region(r) => server.region(r, at, margin).unwrap().0,
            })
            .collect();
        let ops = store.metrics_snapshot().delta(&ops);
        (server.elapsed_us().to_bits(), ops, answers)
    };
    let one_shard = || {
        let store = Bigtable::new();
        let cluster = tier(&store, cfg, 1);
        let ops = store.metrics_snapshot();
        let answers: Vec<Vec<Neighbor>> = (calls.iter())
            .map(|call| match call {
                Call::Update(m) => cluster.update(m).map(|_| Vec::new()).unwrap(),
                Call::Nn(p) => cluster.nn(*p, k, at).unwrap().0,
                Call::Region(r) => cluster.region(r, at, margin).unwrap().0,
            })
            .collect();
        let ops = store.metrics_snapshot().delta(&ops);
        (cluster.total_elapsed_us().to_bits(), ops, answers)
    };
    // Plain replay: one session, one clock, the same op sequence the
    // server issues (update apply; FLAG probe loop then NN scan threaded
    // through one session, as `FrontEnd::nn_with_options` does; region
    // plan and scan).
    let replay = || {
        let store = Bigtable::new();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let ops = store.metrics_snapshot();
        let mut s = store.session();
        let mut tuner = FlagTuner::new();
        let mut estimate = 0u64; // mirrors the server's object-count estimate
        let answers: Vec<Vec<Neighbor>> = (calls.iter())
            .map(|call| match call {
                Call::Update(m) => {
                    if apply_update(&mut s, &tables, &cfg, m).unwrap() == UpdateOutcome::Registered
                    {
                        estimate += 1;
                    }
                    Vec::new()
                }
                Call::Nn(p) => {
                    let n = estimate.max(1);
                    let level = best_level(&mut tuner, &mut s, &tables, &cfg, p, n, at).unwrap();
                    let opts = NnOptions::new(k);
                    nn_query(&mut s, &tables, &cfg, *p, at, level, &opts)
                        .unwrap()
                        .0
                }
                Call::Region(r) => {
                    region_query(&mut s, &tables, &cfg, r, at, margin)
                        .unwrap()
                        .0
                }
            })
            .collect();
        let ops = store.metrics_snapshot().delta(&ops);
        (s.elapsed_us().to_bits(), ops, answers)
    };

    let want = replay();
    let (nn_answers, region_answers) = want.2[200..].split_at(40);
    assert!(nn_answers.iter().all(|a| a.len() == k));
    assert!(region_answers.iter().any(|a| !a.is_empty()));
    let served = bare();
    assert_eq!(
        served.0,
        want.0,
        "hub-metered server drifted from the one-clock replay: {} vs {}",
        f64::from_bits(served.0),
        f64::from_bits(want.0)
    );
    assert_eq!(served.1, want.1, "op counts must match exactly");
    assert_eq!(served.2, want.2, "answers must match");
    // And the run reproduces: a second identical pass lands on the same
    // bits again.
    assert!(bare() == served, "a second bare server drifted");
    // A one-shard tier is the bare server.
    assert!(
        one_shard() == served,
        "a one-shard tier drifted from the bare server"
    );
}

#[test]
fn a_leaf_level_past_the_curve_fails_to_build_and_level_30_finds_every_update() {
    let at_leaf = |leaf_level| MoistConfig {
        space: moist_spatial::Space {
            leaf_level,
            ..moist_spatial::Space::paper_map()
        },
        ..MoistConfig::default()
    };
    // Level 31 used to build, acknowledge every update, and then lose all
    // of them to region, NN and clustering.
    let refused = MoistCluster::builder(&Bigtable::new(), at_leaf(31))
        .shards(2)
        .build();
    assert!(matches!(refused, Err(MoistError::Config(_))));

    let store = Bigtable::new();
    let cluster = tier(&store, at_leaf(30), 2);
    for i in 0..50u64 {
        let (x, y) = (10.0 + 19.0 * i as f64, 990.0 - 17.0 * i as f64);
        cluster.update(&msg(i, x, y, 0.0, 1.0)).unwrap();
    }
    let at = Timestamp::from_secs(1);
    let everywhere = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    assert_eq!(cluster.region(&everywhere, at, 0.0).unwrap().0.len(), 50);
    assert_eq!(
        cluster
            .nn(Point::new(500.0, 500.0), 50, at)
            .unwrap()
            .0
            .len(),
        50
    );
    cluster
        .run_due_clustering(Timestamp::from_secs(30))
        .unwrap();
    let at = Timestamp::from_secs(30);
    assert_eq!(
        cluster
            .nn(Point::new(500.0, 500.0), 50, at)
            .unwrap()
            .0
            .len(),
        50
    );
}
