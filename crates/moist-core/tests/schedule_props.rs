//! Property test for the cluster tier's one clustering schedule against a
//! reference model of phase points (vendored proptest, single-threaded,
//! virtual time only).
//!
//! A routing key's clustering deadline is a phase point of its cell: the
//! first `T + stagger(cell) + j·T` past its last firing, where
//! `stagger(cell) = T · cell / cells`; a split cell's children share
//! their parent's phase. Generated op lists mix ticks at non-decreasing
//! times on random shards, joins, leaves, and rebalances after hot-cell
//! traffic — one that splits a cell and a later one that moves the hot
//! spot, so the first cell un-splits. After every op the tier agrees
//! with the model on:
//!
//! 1. **runs** — each live shard's `cluster_runs` is the model's count of
//!    firings credited to the key's rank-0 owner at tick time;
//! 2. **deadlines** — every routing key's deadline equals the model's: it
//!    advances only when a phase point lies in (last firing, `now`], and
//!    no stale key (a split parent, a reunited cell's child) has one;
//! 3. **membership** — joins, leaves and rebalance weight changes leave
//!    every deadline unchanged (the model does not move them).

use moist_bigtable::{Bigtable, Timestamp};
use moist_core::{
    owners, MoistCluster, MoistConfig, ObjectId, ShardWeight, SplitTable, UpdateMessage,
};
use moist_spatial::{cells_at_level, CellId, Point, Velocity};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Seconds of hot-cell traffic before a rebalance: long enough that the
/// previous hot cell's demand decays below the map mean (5 s EWMA windows
/// halve it each), so the second hot spot un-splits the first.
const HOT_SECS: u64 = 30;

/// The reference model: each routing key's pending deadline and each
/// shard id's firings.
struct Model {
    interval: u64,
    cells: u64,
    due: BTreeMap<u64, u64>,
    runs: HashMap<u64, u64>,
}

impl Model {
    fn new(cfg: &MoistConfig) -> Self {
        let interval = (cfg.cluster_interval_secs * 1e6) as u64;
        let cells = cells_at_level(cfg.clustering_level);
        let due = (0..cells).map(|c| (c, interval + interval * c / cells));
        Model {
            interval,
            cells,
            due: due.collect(),
            runs: HashMap::new(),
        }
    }

    /// Fires the due keys `owner` credits to shard `id`, each re-armed to
    /// its first phase point past `now`.
    fn tick(&mut self, id: u64, now: u64, owner: impl Fn(u64) -> u64) {
        for (&key, due) in &mut self.due {
            if *due <= now && owner(key) == id {
                *self.runs.entry(id).or_default() += 1;
                *due += ((now - *due) / self.interval + 1) * self.interval;
            }
        }
    }

    /// Re-keys to the split table `split`: a newly split cell's children
    /// take its deadline, a reunited cell its earliest child's.
    fn resplit(&mut self, split: &[u64]) {
        for cell in 0..self.cells {
            let children = SplitTable::child_keys(cell);
            if split.contains(&cell) {
                if let Some(d) = self.due.remove(&cell) {
                    self.due.extend(children.map(|c| (c, d)));
                }
            } else if let Some(d) = children.iter().filter_map(|c| self.due.remove(c)).min() {
                self.due.insert(cell, d);
            }
        }
    }

    /// The first deadline of the cell whose phase routing key `key`
    /// follows (a split child's tag is the top bit).
    fn first_due(&self, key: u64) -> u64 {
        let cell = if key < self.cells {
            key
        } else {
            (key & (u64::MAX >> 1)) >> 2
        };
        self.interval + self.interval * cell / self.cells
    }
}

/// The tier's live placement, for the model's rank-0 owners.
fn placement(cluster: &MoistCluster) -> Vec<ShardWeight> {
    (cluster.cluster_stats().shards.iter())
        .map(|s| ShardWeight {
            id: s.id,
            weight: s.weight,
        })
        .collect()
}

/// Checks the three agreements after one op.
fn assert_agrees(cluster: &MoistCluster, model: &Model, op: &str) {
    for cell in 0..model.cells {
        for key in std::iter::once(cell).chain(SplitTable::child_keys(cell)) {
            let got = cluster.clustering_deadline(key);
            assert_eq!(got, model.due.get(&key).copied(), "{op}: key {key:#x}");
            if let Some(d) = got {
                assert_eq!(d % model.interval, model.first_due(key) % model.interval);
            }
        }
    }
    for (id, stats) in cluster.shard_ids().iter().zip(cluster.shard_stats()) {
        let want = model.runs.get(id).copied().unwrap_or(0);
        assert_eq!(stats.cluster_runs, want, "{op}: shard {id}");
    }
    assert_eq!(
        cluster.stats().cluster_runs,
        model.runs.values().sum::<u64>()
    );
}

/// Drives `HOT_SECS` of traffic into `cell` from `now` on, then
/// rebalances; returns the rebalance time.
fn hot_spot(cluster: &MoistCluster, cfg: &MoistConfig, cell: u64, now: u64) -> u64 {
    let id = CellId {
        level: cfg.clustering_level,
        index: cell,
    };
    let centre = cfg.space.to_world(&id.center(cfg.space.curve));
    for i in 0..HOT_SECS * 10 {
        let jitter = (i % 7) as f64 * 5.0;
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(cell * 1_000 + i % 20),
                loc: Point::new(centre.x + jitter, centre.y - jitter),
                vel: Velocity::new(0.0, 0.0),
                ts: Timestamp(now + i * 100_000),
            })
            .unwrap();
    }
    now + HOT_SECS * 1_000_000
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_tier_schedule_follows_the_phase_point_model(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("schedule_model", seed);
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, cfg)
            .shards(1 + rng.below(4) as usize)
            .build()
            .unwrap();
        let mut model = Model::new(&cfg);
        let first = rng.below(16);
        let hot = [first, (first + 1 + rng.below(15)) % 16];
        let ops = 10 + rng.below(10);
        let hot_at = [rng.below(ops / 2), ops / 2 + rng.below(ops / 2)];
        let mut now = 0u64;
        for step in 0..ops {
            if let Some(which) = hot_at.iter().position(|&at| at == step) {
                now = hot_spot(&cluster, &cfg, hot[which], now);
                let report = cluster.rebalance(Timestamp(now)).unwrap();
                model.resplit(&cluster.cluster_stats().split_cells);
                assert_agrees(&cluster, &model, "rebalance");
                prop_assert!(report.split_cells.contains(&hot[which]), "{:?}", report);
                if which == 1 {
                    prop_assert!(report.unsplit_cells.contains(&hot[0]), "{:?}", report);
                }
                continue;
            }
            match rng.below(10) {
                0 => {
                    cluster.add_shard().unwrap();
                    assert_agrees(&cluster, &model, "join");
                }
                1 if cluster.num_shards() > 1 => {
                    let ids = cluster.shard_ids();
                    cluster.remove_shard(ids[rng.below(ids.len() as u64) as usize]).unwrap();
                    assert_agrees(&cluster, &model, "leave");
                }
                2 => {
                    now += rng.below(8_000_000);
                    let members = placement(&cluster);
                    for m in &members {
                        model.tick(m.id, now, |key| owners(key, &members, 1)[0]);
                    }
                    cluster.run_due_clustering(Timestamp(now)).unwrap();
                    assert_agrees(&cluster, &model, "tick all");
                }
                _ => {
                    now += rng.below(6_000_000);
                    let members = placement(&cluster);
                    let pos = rng.below(members.len() as u64) as usize;
                    model.tick(members[pos].id, now, |key| owners(key, &members, 1)[0]);
                    cluster.run_due_clustering_shard(pos, Timestamp(now)).unwrap();
                    assert_agrees(&cluster, &model, "tick");
                }
            }
        }
    }
}
