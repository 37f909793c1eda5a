//! Figure 15 (repo extension) — scatter-gather region-query fan-out.
//!
//! The paper's front-end tier exists so index maintenance *and* query
//! work scale with the fleet (§3.2.1: BigTable "provides parallelism to
//! read data from multiple ranges"). Before fan-out, `MoistCluster`
//! routed a region query to the single shard owning the rectangle's
//! centre cell, serializing the whole scan on one server while the rest
//! idled. This bin sweeps **region size × shard count** and compares, on
//! identical stores:
//!
//! * **anchor** — the old routing ([`moist_bench::anchor_region`]): one
//!   shard scans every planned range back to back;
//! * **fanout** — scatter-gather ([`MoistCluster::region`]): the plan is
//!   owner-sliced, each slice scans on a pooled worker against its shard,
//!   and the client-visible cost is the slowest slice.
//!
//! Client-visible QPS is `1e6 / mean cost_us` over the probe set; both
//! paths must return identical answers (asserted per query). The full run
//! asserts the acceptance bar: ≥2× client-visible speedup for the
//! largest region at 10 shards. Results land in
//! `bench_results/fig15_fanout{,_smoke}.json` and feed the CI
//! `bench_trend --check` gate.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::MoistCluster;
use moist::spatial::Rect;
use moist_bench::{anchor_region, pick, report, tier_config, Figure, Rng, Series};

struct Scale {
    shard_counts: &'static [usize],
    objects: u64,
    region_sides: &'static [f64],
    queries_per_side: usize,
    /// Required fan-out speedup for the largest region at the largest
    /// fleet.
    min_speedup: f64,
}

const FULL: Scale = Scale {
    shard_counts: &[1, 2, 5, 10],
    objects: 20_000,
    region_sides: &[125.0, 250.0, 500.0, 1000.0],
    queries_per_side: 8,
    min_speedup: 2.0,
};

const SMOKE: Scale = Scale {
    shard_counts: &[4],
    objects: 2_500,
    region_sides: &[250.0, 1000.0],
    queries_per_side: 4,
    min_speedup: 1.2,
};

/// Probe rectangles of side `side`, centres marching across the map.
fn probe_rects(side: f64, count: usize) -> Vec<Rect> {
    (0..count)
        .map(|q| {
            let f = (q as f64 + 0.5) / count as f64;
            let cx = (side / 2.0) + f * (1000.0 - side).max(0.0);
            let cy = (side / 2.0) + (1.0 - f) * (1000.0 - side).max(0.0);
            Rect::new(
                cx - side / 2.0,
                cy - side / 2.0,
                cx + side / 2.0,
                cy + side / 2.0,
            )
        })
        .collect()
}

/// `(anchor QPS, fan-out QPS, mean slices per query)` over the probe set.
fn run_one(shards: usize, side: f64, scale: &Scale) -> (f64, f64, f64) {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, tier_config(50.0))
        .shards(shards)
        .build()
        .expect("cluster");
    // A deterministic uniform scatter in (0, 1000)².
    let mut rng = Rng(0x853C_49E6_748F_EA9B);
    for i in 0..scale.objects {
        let msg = report(i, rng.in_square(2.0, 996.0), 0.0);
        cluster.update(&msg).expect("update");
    }

    let rects = probe_rects(side, scale.queries_per_side);
    let mut anchor_us = 0.0;
    let mut fanout_us = 0.0;
    let mut scatter = 0usize;
    for rect in &rects {
        let (a_hits, a_stats) = anchor_region(&cluster, rect, Timestamp::ZERO);
        let (f_hits, f_stats) = cluster
            .region(rect, Timestamp::ZERO, 0.0)
            .expect("fanout region");
        let a_ids: Vec<u64> = a_hits.iter().map(|n| n.oid.0).collect();
        let f_ids: Vec<u64> = f_hits.iter().map(|n| n.oid.0).collect();
        assert_eq!(a_ids, f_ids, "fan-out must return the anchor answer");
        anchor_us += a_stats.cost_us;
        fanout_us += f_stats.cost_us;
        scatter += f_stats.shards_scattered;
    }
    let n = rects.len() as f64;
    let qps = |total_us: f64| 1e6 / (total_us / n).max(1e-9);
    (qps(anchor_us), qps(fanout_us), scatter as f64 / n)
}

fn main() {
    let scale = pick(&FULL, &SMOKE);
    let mut fig = Figure::new(
        "fig15_fanout",
        "Region-query fan-out: client-visible QPS, anchor routing vs scatter-gather",
        "region side (world units)",
        "queries/s (virtual)",
    );
    println!(
        "{:>7} {:>10} {:>14} {:>14} {:>9} {:>9}",
        "shards", "side", "anchor q/s", "fanout q/s", "speedup", "slices"
    );
    let mut headline_speedup = 0.0;
    for &shards in scale.shard_counts {
        let mut anchor_series = Series::new(format!("anchor {shards} shards"));
        let mut fanout_series = Series::new(format!("fanout {shards} shards"));
        for &side in scale.region_sides {
            let (anchor_qps, fanout_qps, slices) = run_one(shards, side, scale);
            let speedup = fanout_qps / anchor_qps.max(1e-9);
            println!(
                "{shards:>7} {side:>10.0} {anchor_qps:>14.1} {fanout_qps:>14.1} {speedup:>8.2}x {slices:>9.1}"
            );
            anchor_series.push(side, anchor_qps);
            fanout_series.push(side, fanout_qps);
            // The last point run is the headline: largest region, largest
            // fleet.
            headline_speedup = speedup;
        }
        fig.add(anchor_series);
        fig.add(fanout_series);
    }
    fig.print();
    fig.save().expect("save");
    // The acceptance bar (virtual cost is deterministic, so this is a
    // stable assertion, not a wobbling wall-clock one): the largest
    // region at the largest fleet must fan out to >= 2x (1.2x in smoke).
    let bar = scale.min_speedup;
    assert!(
        headline_speedup >= bar,
        "largest-region fan-out speedup {headline_speedup:.2}x is below the {bar}x bar"
    );
    println!(
        "largest region at {} shards: {:.2}x client-visible speedup over anchor routing",
        scale.shard_counts.last().unwrap(),
        headline_speedup
    );
}
