//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the MOIST
//! paper. This library provides the common pieces: result tables, JSON
//! output, cost-profile presets for the comparators, the multi-server
//! capacity model, and the one measured-window driver the cluster-tier
//! figures (`fig14_scaleout` … `fig20_autoscale`) are thin scenarios over:
//! [`tier_config`] and [`road_clients`] build the tier and its clients,
//! [`drive`] (logical clients) or [`run_seconds`] (per-second hooks) move
//! virtual time on the calling thread, and a [`Window`] turns two
//! [`MoistCluster::cluster_stats`] snapshots into the window's counters
//! and QPS.

#![warn(missing_docs)]

use moist::bigtable::{CostProfile, Timestamp};
use moist::core::{
    ClusterStats, IngestStats, MoistCluster, MoistConfig, Neighbor, ObjectId, RegionStats,
    ServerStats, UpdateMessage,
};
use moist::spatial::{Point, Rect, Velocity};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use serde::Serialize;
use std::io::Write as _;
use std::ops::Range;
use std::path::PathBuf;

/// One plotted series: label plus `(x, y)` points.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series::from_points(label, Vec::new())
    }

    /// Creates a series over already-measured points.
    pub fn from_points(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure's worth of series, printable and dumpable.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Figure id, e.g. `"fig09a"`.
    pub id: String,
    /// Human title (the paper's caption).
    pub title: String,
    /// Axis names.
    pub x_label: String,
    /// Axis names.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure. In smoke mode (`--smoke`) the id gets a
    /// `_smoke` suffix, so quick runs never clobber full-scale results in
    /// `bench_results/`.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        let mut id = id.into();
        if smoke_mode() {
            id.push_str("_smoke");
        }
        Figure {
            id,
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Prints the figure as an aligned text table (x column + one column
    /// per series).
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        print!("{:>14}", self.x_label);
        for s in &self.series {
            print!("  {:>18}", truncate(&s.label, 18));
        }
        println!("    ({})", self.y_label);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            print!("{x:>14.3}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => print!("  {y:>18.3}"),
                    None => print!("  {:>18}", "-"),
                }
            }
            println!();
        }
    }

    /// Writes the figure as JSON under `bench_results/<id>.json` (relative
    /// to the workspace root).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        let json = serde_json::to_string_pretty(self).expect("figure serialises");
        f.write_all(json.as_bytes())?;
        println!("[saved {}]", path.display());
        Ok(path)
    }
}

/// Whether the current invocation asked for smoke mode (`--smoke` on the
/// command line): tiny populations and few ticks, for CI runs that only
/// check the bins still work and archive their JSON.
fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// `full`, or `smoke` when the bin runs with `--smoke`: how a bin picks
/// its scale (and the acceptance bars stored beside it).
pub fn pick<T>(full: T, smoke: T) -> T {
    if smoke_mode() {
        smoke
    } else {
        full
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// `bench_results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two levels up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .parent()
            .and_then(|p| p.parent())
            .map(|p| p.join("bench_results"))
            .unwrap_or_else(|| PathBuf::from("bench_results")),
        Err(_) => PathBuf::from("bench_results"),
    }
}

/// Cost profile of the disk-based B+-tree testbed the Bx-tree numbers in
/// the paper come from (Chen et al.'s benchmark, the paper's ref. 6): every index operation
/// is a buffered disk-page access, far costlier than a BigTable memtable
/// op. Calibrated so one Bx update (delete + insert) lands near the
/// ~0.3 ms / ≈3k QPS the paper quotes for that benchmark's hardware.
pub fn disk_btree_profile() -> CostProfile {
    CostProfile {
        rpc_base_us: 140.0,
        index_level_us: 1.2,
        read_row_us: 20.0,
        mutation_us: 12.0,
        scan_row_us: 4.0,
        batch_row_us: 10.0,
        disk_read_us: 2500.0,
        byte_us: 0.004,
        wal_append_us: 4.0,
        wal_fsync_us: 220.0,
        wal_replay_us: 2.0,
    }
}

/// Aggregate write capacity of the shared store, ops per virtual second.
///
/// The paper's BigTable quota caps how far multi-server deployments scale:
/// 5 servers stay under it (near-linear speedup, Fig. 13b), 10 servers
/// saturate it around 60k updates/s with visible instability (Fig. 13c).
pub const STORE_WRITE_CAPACITY_OPS: f64 = 62_000.0;

/// Applies the shared-capacity model to per-server demand for one second of
/// virtual time: returns `(served, failed)` aggregate ops.
///
/// Below capacity everything is served. Above it, the store serves the
/// capacity (with a deterministic ±8% wobble — overload makes BigTable
/// throughput "not very stable over time", §4.3.3) and the excess fails.
pub fn capacity_step(demand_ops: f64, second: u64, seed: u64) -> (f64, f64) {
    if demand_ops <= STORE_WRITE_CAPACITY_OPS {
        return (demand_ops, 0.0);
    }
    // Deterministic wobble from a splitmix-style hash of (second, seed).
    let mut z = second
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let unit = ((z >> 11) as f64) / (1u64 << 53) as f64; // [0,1)
    let wobble = 0.92 + 0.16 * unit; // [0.92, 1.08)
    let served = (STORE_WRITE_CAPACITY_OPS * wobble).min(demand_ops);
    (served, demand_ops - served)
}

/// Deterministic xorshift stream of uniform draws in `[0, 1)`.
pub struct Rng(pub u64);

impl Rng {
    /// The next draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A point uniform in the square `[lo, lo + side)²` (x drawn first).
    pub fn in_square(&mut self, lo: f64, side: f64) -> Point {
        Point::new(lo + self.next() * side, lo + self.next() * side)
    }

    /// A point uniform within `r` of `center` on each axis (x drawn
    /// first).
    pub fn near(&mut self, (cx, cy): (f64, f64), r: f64) -> Point {
        Point::new(
            cx + self.next() * (2.0 * r) - r,
            cy + self.next() * (2.0 * r) - r,
        )
    }
}

/// A stationary report: object `oid` at `loc`, `at_secs` into the run.
pub fn report(oid: u64, loc: Point, at_secs: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc,
        vel: Velocity::ZERO,
        ts: Timestamp::from_secs_f64(at_secs),
    }
}

/// The tier every cluster figure runs: error bound `epsilon`, Δm = 2,
/// clustering level 3 (64 cells across the shards), T_c = 10 s.
pub fn tier_config(epsilon: f64) -> MoistConfig {
    MoistConfig {
        epsilon,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// `clients` §4.1 road-network simulators of `agents` each, client `i`
/// seeded `seed0 + i` — the logical clients [`drive`] steps.
pub fn road_clients(clients: usize, agents: u64, seed0: u64) -> Vec<RoadNetSim> {
    (0..clients)
        .map(|i| {
            RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents,
                    seed: seed0 + i as u64,
                    ..SimConfig::default()
                },
            )
        })
        .collect()
}

/// Drives every simulator from its current time to `until`, in
/// `tick`-second steps, routing updates through the cluster.
///
/// The logical clients share the calling thread: each tick advances them
/// one after another, in client order, so every number a run produces is
/// a function of its seeds (no OS scheduler decides an interleaving). On
/// its step client `i` submits its updates, then runs the lazy clustering
/// pass for the shards congruent to `i` modulo the client count, so every
/// shard gets clustering ticks even when there are fewer clients than
/// shards.
///
/// `pipelined` selects the submission path: `false` routes through the
/// synchronous [`MoistCluster::update`], `true` through
/// [`MoistCluster::submit`] with a deadline-flush tick per client and a
/// final drain. One submitter applies each full batch before it submits
/// again, so its queues never reach the backpressure cap.
pub fn drive(
    cluster: &MoistCluster,
    sims: &mut [RoadNetSim],
    until: f64,
    tick: f64,
    pipelined: bool,
) {
    let (shards, clients) = (cluster.num_shards(), sims.len());
    while sims.iter().any(|sim| sim.now_secs() < until) {
        for (i, sim) in sims.iter_mut().enumerate() {
            if sim.now_secs() >= until {
                continue;
            }
            let t = (sim.now_secs() + tick).min(until);
            let now = Timestamp::from_secs_f64(t);
            let oid_base = i as u64 * 10_000_000;
            for u in sim.advance_until(t) {
                let msg = UpdateMessage {
                    oid: ObjectId(oid_base + u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                };
                if pipelined {
                    cluster.submit(&msg).expect("submit");
                } else {
                    cluster.update(&msg).expect("update");
                }
            }
            if pipelined {
                cluster.flush_due(now).expect("flush");
            }
            for shard in (i..shards).step_by(clients) {
                cluster
                    .run_due_clustering_shard(shard, now)
                    .expect("clustering");
            }
        }
    }
    if pipelined {
        cluster.drain_ingest().expect("drain");
    }
}

/// Drives the virtual seconds `secs` on the calling thread, one at a
/// time: `ops(sec)` issues that second's operations, then every shard
/// runs its due clustering at `sec + 1`, then `tick(sec + 1)` runs the
/// scenario's per-second hook (a rebalance or controller step, or
/// nothing). One thread and a fully modelled clock, so every number it
/// produces is a function of the scenario's seeds.
pub fn run_seconds(
    cluster: &MoistCluster,
    secs: Range<u64>,
    mut ops: impl FnMut(u64),
    mut tick: impl FnMut(u64),
) {
    for sec in secs {
        ops(sec);
        cluster
            .run_due_clustering(Timestamp::from_secs(sec + 1))
            .expect("clustering");
        tick(sec + 1);
    }
}

/// An open measurement window: the [`MoistCluster::cluster_stats`]
/// snapshot taken at [`open`](Window::open), closed into
/// [`WindowStats`] by a second snapshot.
pub struct Window(ClusterStats);

impl Window {
    /// Opens a window now.
    pub fn open(cluster: &MoistCluster) -> Self {
        Window(cluster.cluster_stats())
    }

    /// Closes the window, deriving its counters from the two snapshots.
    ///
    /// The busiest shard's time is each live shard's own elapsed delta,
    /// keyed by shard id (a shard that joined mid-window counts from 0),
    /// so a window whose busiest shard changes — or whose fleet grows —
    /// is not under-counted.
    pub fn close(self, cluster: &MoistCluster) -> WindowStats {
        let (start, end) = (self.0, cluster.cluster_stats());
        let busiest_us = end
            .shards
            .iter()
            .map(|s| {
                let before = start.shards.iter().find(|b| b.id == s.id);
                s.elapsed_us - before.map_or(0.0, |b| b.elapsed_us)
            })
            .fold(0.0, f64::max);
        WindowStats {
            ops: ops_delta(&end.ops, &start.ops),
            ingest: ingest_delta(&end.ingest, &start.ingest),
            busiest_secs: busiest_us / 1e6,
            start,
            end,
        }
    }
}

/// What a closed [`Window`] measured.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Operation counter deltas (live and retired shards).
    pub ops: ServerStats,
    /// Ingestion counter deltas; the `queued` gauge and `max_batch` are
    /// the values at close.
    pub ingest: IngestStats,
    /// Virtual seconds the busiest shard spent in the window — the tier's
    /// makespan, since shards consume store time in parallel.
    pub busiest_secs: f64,
    /// The snapshot at open.
    pub start: ClusterStats,
    /// The snapshot at close.
    pub end: ClusterStats,
}

impl WindowStats {
    /// `count` operations per busiest-shard virtual second.
    pub fn rate(&self, count: u64) -> f64 {
        count as f64 / self.busiest_secs.max(1e-9)
    }

    /// Non-shed updates per busiest-shard second; `capped` clips it at
    /// the shared store's [`STORE_WRITE_CAPACITY_OPS`].
    pub fn store_qps(&self, capped: bool) -> f64 {
        let qps = self.rate(self.ops.updates - self.ops.shed);
        if capped {
            qps.min(STORE_WRITE_CAPACITY_OPS)
        } else {
            qps
        }
    }

    /// The rate clients experience once schools shed their redundant
    /// updates: `store QPS / (1 − shed ratio)`, the divisor floored at
    /// 0.05 so an all-shed window stays finite.
    pub fn client_qps(&self, capped: bool) -> f64 {
        self.store_qps(capped) / (1.0 - self.ops.shed_ratio()).max(0.05)
    }
}

fn ops_delta(after: &ServerStats, before: &ServerStats) -> ServerStats {
    ServerStats {
        updates: after.updates - before.updates,
        shed: after.shed - before.shed,
        leader_updates: after.leader_updates - before.leader_updates,
        registered: after.registered - before.registered,
        departures: after.departures - before.departures,
        nn_queries: after.nn_queries - before.nn_queries,
        cluster_runs: after.cluster_runs - before.cluster_runs,
    }
}

fn ingest_delta(after: &IngestStats, before: &IngestStats) -> IngestStats {
    IngestStats {
        submitted: after.submitted - before.submitted,
        enqueued: after.enqueued - before.enqueued,
        backpressure: after.backpressure - before.backpressure,
        overload_shed: after.overload_shed - before.overload_shed,
        batches: after.batches - before.batches,
        flushed_updates: after.flushed_updates - before.flushed_updates,
        size_flushes: after.size_flushes - before.size_flushes,
        deadline_flushes: after.deadline_flushes - before.deadline_flushes,
        drain_flushes: after.drain_flushes - before.drain_flushes,
        max_batch: after.max_batch,
        queue_wait_us: after.queue_wait_us - before.queue_wait_us,
        queued: after.queued,
    }
}

/// The pre-fan-out region path, the baseline fig15/fig16 compare the
/// scatter-gather [`MoistCluster::region`] against: the whole query runs
/// on the single shard owning the rectangle's centre cell, scanning every
/// planned range back to back.
pub fn anchor_region(
    cluster: &MoistCluster,
    rect: &Rect,
    at: Timestamp,
) -> (Vec<Neighbor>, RegionStats) {
    cluster
        .with_shard_read(cluster.shard_for_point(&rect.center()), |s| {
            s.region(rect, at, 0.0)
        })
        .expect("anchor shard is live")
        .expect("anchor region")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist::bigtable::Bigtable;
    use moist::core::IngestConfig;

    #[test]
    fn figure_printing_and_saving_roundtrip() {
        let mut fig = Figure::new("test_fig", "a test", "x", "y");
        let mut s = Series::new("s1");
        s.push(1.0, 2.0);
        s.push(2.0, 4.0);
        fig.add(s);
        fig.print();
        let path = fig.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"test_fig\""));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn disk_btree_profile_is_much_slower_per_update() {
        let bx = disk_btree_profile();
        let bt = CostProfile::default();
        // One Bx update = delete + insert.
        let bx_update = 2.0 * bx.write_us(1_000_000, 1, 40);
        let bt_update = bt.point_read_us(1_000_000, 24, false)
            + bt.write_us(1_000_000, 1, 56)
            + bt.batch_write_us(2, 2, 80);
        assert!(bx_update > 1.8 * bt_update, "{bx_update} vs {bt_update}");
        let qps = 1e6 / bx_update;
        assert!(qps > 2000.0 && qps < 4500.0, "Bx calibration off: {qps}");
    }

    #[test]
    fn capacity_model_caps_and_wobbles() {
        let (ok, bad) = capacity_step(40_000.0, 3, 1);
        assert_eq!(ok, 40_000.0);
        assert_eq!(bad, 0.0);
        let (ok1, bad1) = capacity_step(85_000.0, 3, 1);
        assert!(ok1 < 80_000.0 && ok1 > 60_000.0);
        assert!(bad1 > 0.0);
        // Deterministic per (second, seed); varies across seconds.
        let (ok2, _) = capacity_step(85_000.0, 3, 1);
        assert_eq!(ok1, ok2);
        let (ok3, _) = capacity_step(85_000.0, 4, 1);
        assert_ne!(ok1, ok3);
    }

    /// The centre of level-3 cell `i % 64`.
    fn grid_point(i: u64) -> Point {
        Point::new(
            62.5 + (i % 8) as f64 * 125.0,
            62.5 + (i / 8 % 8) as f64 * 125.0,
        )
    }

    #[test]
    fn window_times_the_busiest_shard_by_id_across_a_join() {
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, tier_config(0.0))
            .shards(2)
            .build()
            .unwrap();
        for i in 0..400 {
            cluster.update(&report(i, grid_point(i), 1.0)).unwrap();
        }
        let w = Window::open(&cluster);
        let joiner = cluster.add_shard().unwrap();
        let pos = cluster.shard_ids().iter().position(|&id| id == joiner);
        // Fresh objects, only in the cells the joiner won.
        let mut oid = 1_000;
        for i in 0..64 {
            if Some(cluster.shard_for_point(&grid_point(i))) == pos {
                cluster.update(&report(oid, grid_point(i), 2.0)).unwrap();
                oid += 1;
            }
        }
        assert!(oid > 1_000, "the joiner won no cell");
        let w = w.close(&cluster);
        let elapsed = |s: &ClusterStats, id: u64| {
            s.shards
                .iter()
                .find(|s| s.id == id)
                .map_or(0.0, |s| s.elapsed_us)
        };
        let expected = w
            .end
            .shards
            .iter()
            .map(|s| s.elapsed_us - elapsed(&w.start, s.id))
            .fold(0.0, f64::max);
        assert_eq!(w.busiest_secs, expected / 1e6);
        assert!(elapsed(&w.end, joiner) > 0.0);
        assert!(w.busiest_secs * 1e6 >= elapsed(&w.end, joiner));
        // The old `max(after) − max(before)` form misses the joiner's
        // work entirely: the incumbents' totals dwarf it.
        let max = |s: &ClusterStats| s.shards.iter().map(|s| s.elapsed_us).fold(0.0, f64::max);
        assert!(max(&w.end) - max(&w.start) < elapsed(&w.end, joiner));
        assert_eq!(w.ops.updates, oid - 1_000);
        assert!(w.ops.balanced());
    }

    /// A closed window over an idle cluster with synthetic counters.
    fn synthetic(updates: u64, shed: u64, busiest_secs: f64) -> WindowStats {
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, tier_config(50.0))
            .build()
            .unwrap();
        WindowStats {
            ops: ServerStats {
                updates,
                shed,
                ..ServerStats::default()
            },
            busiest_secs,
            ..Window::open(&cluster).close(&cluster)
        }
    }

    #[test]
    fn window_caps_store_qps_at_the_store_capacity() {
        let w = synthetic(100_000, 0, 1.0);
        assert_eq!(w.store_qps(false), 100_000.0);
        assert_eq!(w.store_qps(true), STORE_WRITE_CAPACITY_OPS);
        assert_eq!(w.client_qps(true), STORE_WRITE_CAPACITY_OPS);
        let under = synthetic(1_000, 0, 1.0);
        assert_eq!(under.store_qps(true), under.store_qps(false));
    }

    #[test]
    fn window_floors_the_shed_divisor_at_five_percent() {
        let half = synthetic(1_000, 500, 1.0);
        assert_eq!(half.store_qps(false), 500.0);
        assert_eq!(half.client_qps(false), 1_000.0);
        // 99% shed would multiply by 100; the floor holds it at 20.
        let most = synthetic(1_000, 990, 1.0);
        assert_eq!(most.client_qps(false), 10.0 / 0.05);
        let all = synthetic(1_000, 1_000, 1.0);
        assert_eq!(all.client_qps(false), 0.0);
        assert_eq!(synthetic(0, 0, 0.0).client_qps(true), 0.0);
    }

    #[test]
    fn window_ingest_delta_counts_only_the_window() {
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, tier_config(0.0))
            .shards(2)
            .ingest(IngestConfig {
                batch_size: 8,
                ..IngestConfig::default()
            })
            .build()
            .unwrap();
        for i in 0..30 {
            cluster.submit(&report(i, grid_point(i), 1.0)).unwrap();
        }
        cluster.drain_ingest().unwrap();
        let w = Window::open(&cluster);
        for i in 0..50 {
            cluster
                .submit(&report(100 + i, grid_point(i), 2.0))
                .unwrap();
        }
        cluster.drain_ingest().unwrap();
        let w = w.close(&cluster);
        assert_eq!(w.start.ingest.submitted, 30);
        assert_eq!(w.ingest.submitted, 50);
        assert_eq!(w.ingest.flushed_updates, 50);
        assert_eq!(w.ingest.queued, 0);
        assert!(w.ingest.batches > 0 && w.ingest.drain_flushes > 0);
        assert_eq!(w.ops.updates, 50);
        assert_eq!(w.ops.registered, 50);
    }
}
