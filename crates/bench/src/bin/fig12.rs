//! Figure 12 — "Effectiveness of adaptation over BigTable using FLAG"
//! (§4.3.1).
//!
//! * `fig12 range`   — (a) NN QPS and (b) per-query time against the search
//!   range limit (20–100 m), single server, 100k static objects: FLAG vs
//!   fixed search levels;
//! * `fig12 density` — (c) NN QPS and (d) per-query time against object
//!   density (1k / 10k / 50k / 100k objects in 1 km², 10 m range limit).
//!
//! `--smoke` runs the range sweep over 10k objects and the density sweep
//! at 1k and 10k.
//!
//! The paper's "Search Level 19 (8 m)" and "Level 20 (4 m)" translate on
//! our 1,000-unit (= 1 km, metre-per-unit) map to levels 7 (7.8 m) and
//! 8 (3.9 m).

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, NnOptions, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use moist_bench::{pick, Figure, Series};

const LEVEL_8M: u8 = 7; // "Search Level 19 (8m-long square)"
const LEVEL_4M: u8 = 8; // "Search Level 20 (4m-long square)"
const QUERIES: usize = 200;

/// Loads `n` static uniform objects through the public update path.
fn load(n: usize) -> MoistCluster {
    let store = Bigtable::new();
    // ε = 0: worst case, every object a leader ("we did these experiments
    // under the worst case", §4).
    let cluster = MoistCluster::builder(&store, MoistConfig::without_schooling())
        .build()
        .expect("cluster");
    let mut state = 0xD15C0_u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(i as u64),
                loc: Point::new(rnd() * 1000.0, rnd() * 1000.0),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs(1),
            })
            .expect("update");
    }
    cluster.reset_clocks();
    cluster
}

/// Average per-query virtual time (µs) for range-limited NN queries at
/// `level` (`None` = FLAG's).
fn avg_query_us(cluster: &MoistCluster, range: f64, level: Option<u8>) -> f64 {
    let mut state = 0xABCD_u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let at = Timestamp::from_secs(1);
    let mut total = 0.0;
    for _ in 0..QUERIES {
        let q = Point::new(rnd() * 1000.0, rnd() * 1000.0);
        let opts = NnOptions {
            nn_level: level,
            max_distance: range,
            ..NnOptions::new(usize::MAX / 2)
        };
        let (_, stats) = cluster.nn_with_options(q, at, &opts).expect("nn");
        total += stats.cost_us;
    }
    total / QUERIES as f64
}

fn range_sweep() {
    let n = pick(100_000, 10_000);
    let cluster = load(n);
    let mut qps_fig = Figure::new(
        "fig12a",
        format!(
            "NN QPS vs search range limit ({}k objects, single server)",
            n / 1000
        ),
        "range limit (m)",
        "NN QPS",
    );
    let mut cost_fig = Figure::new(
        "fig12b",
        format!(
            "NN time vs search range limit ({}k objects, single server)",
            n / 1000
        ),
        "range limit (m)",
        "avg NN time (ms)",
    );
    for (label, level) in [
        ("FLAG", None),
        ("fixed level 7 (8m)", Some(LEVEL_8M)),
        ("fixed level 8 (4m)", Some(LEVEL_4M)),
    ] {
        let mut qps = Series::new(label);
        let mut cost = Series::new(label);
        for range in [20.0, 40.0, 60.0, 80.0, 100.0] {
            let us = avg_query_us(&cluster, range, level);
            qps.push(range, 1e6 / us);
            cost.push(range, us / 1000.0);
        }
        qps_fig.add(qps);
        cost_fig.add(cost);
    }
    qps_fig.print();
    cost_fig.print();
    qps_fig.save().expect("save");
    cost_fig.save().expect("save");
}

fn density_sweep() {
    let mut qps_fig = Figure::new(
        "fig12c",
        "NN QPS vs object density (10 m range limit)",
        "objects",
        "NN QPS",
    );
    let mut cost_fig = Figure::new(
        "fig12d",
        "NN time vs object density (10 m range limit)",
        "objects",
        "avg NN time (ms)",
    );
    let mut flag_qps = Series::new("FLAG");
    let mut l7_qps = Series::new("fixed level 7 (8m)");
    let mut l8_qps = Series::new("fixed level 8 (4m)");
    let mut flag_cost = Series::new("FLAG");
    let mut l7_cost = Series::new("fixed level 7 (8m)");
    let mut l8_cost = Series::new("fixed level 8 (4m)");
    let populations: &[usize] = pick(&[1_000, 10_000, 50_000, 100_000], &[1_000, 10_000]);
    for &n in populations {
        let cluster = load(n);
        let x = n as f64;
        let us_flag = avg_query_us(&cluster, 10.0, None);
        let us_l7 = avg_query_us(&cluster, 10.0, Some(LEVEL_8M));
        let us_l8 = avg_query_us(&cluster, 10.0, Some(LEVEL_4M));
        flag_qps.push(x, 1e6 / us_flag);
        l7_qps.push(x, 1e6 / us_l7);
        l8_qps.push(x, 1e6 / us_l8);
        flag_cost.push(x, us_flag / 1000.0);
        l7_cost.push(x, us_l7 / 1000.0);
        l8_cost.push(x, us_l8 / 1000.0);
    }
    qps_fig.add(flag_qps);
    qps_fig.add(l7_qps);
    qps_fig.add(l8_qps);
    cost_fig.add(flag_cost);
    cost_fig.add(l7_cost);
    cost_fig.add(l8_cost);
    qps_fig.print();
    cost_fig.print();
    qps_fig.save().expect("save");
    cost_fig.save().expect("save");
}

fn main() {
    // The mode is the first non-flag argument, wherever it sits relative
    // to `--smoke`.
    let arg = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "all".into());
    if arg == "range" || arg == "all" {
        range_sweep();
    }
    if arg == "density" || arg == "all" {
        density_sweep();
    }
}
