//! Figure 11 — "Influence of clustering: improvement of nearest neighbor
//! search QPS" (§4.2.2).
//!
//! Two settings share a 20k-object population starting at 1k leaders:
//! departures grow the leader count linearly to 20k in 30 s (setting A,
//! highly dynamic) or 60 s (setting B). Clustering at interval `T`
//! resets the leader count to 1k but consumes server time. NN QPS over a
//! fixed horizon is plotted against `T`; the horizontal baseline is
//! "no clustering".
//!
//! NN cost per leader count and clustering latency per pre-leader count are
//! *measured* on the real index (not assumed); the timeline integration is
//! the only modelled part.

use moist::bigtable::{Bigtable, CostProfile, Timestamp};
use moist::core::{
    cluster_cell, LfRecord, LocationRecord, MoistConfig, MoistTables, NnOptions, ObjectId,
};
use moist::spatial::{Point, Velocity};
use moist_bench::{Figure, Series};

/// Loads `n` uniform static leaders and returns store + tables.
fn load(n: usize, cfg: &MoistConfig) -> (std::sync::Arc<Bigtable>, MoistTables) {
    let store = Bigtable::new();
    let tables = MoistTables::create(&store, cfg).expect("tables");
    let mut s = store.session_with(CostProfile::free());
    let mut state = 0xFACE_FEED_u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let ts = Timestamp::from_secs(1);
    for i in 0..n {
        let loc = Point::new(rnd() * 1000.0, rnd() * 1000.0);
        let vel = Velocity::new(rnd() * 2.0 - 1.0, rnd() * 2.0 - 1.0);
        let leaf = cfg.space.leaf_cell(&loc).index;
        let rec = LocationRecord {
            loc,
            vel,
            leaf_index: leaf,
        };
        tables
            .spatial_insert(&mut s, leaf, ObjectId(i as u64), &rec, ts)
            .expect("insert");
        tables
            .set_lf(
                &mut s,
                ObjectId(i as u64),
                &LfRecord::Leader {
                    since_us: 0,
                    last_leaf: leaf,
                },
                ts,
            )
            .expect("lf");
    }
    (store, tables)
}

/// Measures the average NN-query cost (µs) on an index with `leaders`
/// leaders, at the level tuned for the *clustered* (1k-leader) population —
/// fixed across the sweep, exactly the regime Figure 11 studies: when
/// departures inflate the leader count, every query pays for the extra
/// rows until the next clustering.
fn measure_nn_cost_us(leaders: usize, cfg: &MoistConfig) -> f64 {
    let (store, tables) = load(leaders, cfg);
    let mut s = store.session();
    let level = 3u8; // σ-appropriate for 1k leaders on this map
    let mut state = 0xBEEF_u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let queries = 50;
    let before = s.elapsed_us();
    for _ in 0..queries {
        let q = Point::new(rnd() * 1000.0, rnd() * 1000.0);
        moist::core::nn_query(
            &mut s,
            &tables,
            cfg,
            q,
            Timestamp::from_secs(1),
            level,
            &NnOptions::new(10),
        )
        .expect("nn");
    }
    (s.elapsed_us() - before) / queries as f64
}

/// Measures one clustering pass over the whole map at `pre` leaders (µs).
fn measure_cluster_cost_us(pre: usize, cfg: &MoistConfig) -> f64 {
    let (store, tables) = load(pre, cfg);
    let mut s = store.session();
    let mut total = 0.0;
    for index in 0..moist::spatial::cells_at_level(cfg.clustering_level) {
        let cell = moist::spatial::CellId {
            level: cfg.clustering_level,
            index,
        };
        let r = cluster_cell(&mut s, &tables, cfg, cell, Timestamp::from_secs(2)).expect("cluster");
        total += r.total_us();
    }
    total
}

/// Piecewise-linear interpolation over measured (x, cost) points.
fn interp(points: &[(f64, f64)], x: f64) -> f64 {
    if x <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        if x <= w[1].0 {
            let t = (x - w[0].0) / (w[1].0 - w[0].0);
            return w[0].1 + t * (w[1].1 - w[0].1);
        }
    }
    points.last().expect("non-empty").1
}

fn main() {
    let cfg = MoistConfig {
        delta_m: 4.0, // aggressive merging: clustering resets to ~1k leaders
        ..MoistConfig::default()
    };
    // Measured cost curves.
    let leader_counts = [1_000usize, 2_000, 5_000, 10_000, 20_000];
    let nn_cost: Vec<(f64, f64)> = leader_counts
        .iter()
        .map(|&n| (n as f64, measure_nn_cost_us(n, &cfg)))
        .collect();
    let cluster_cost: Vec<(f64, f64)> = leader_counts
        .iter()
        .map(|&n| (n as f64, measure_cluster_cost_us(n, &cfg)))
        .collect();
    println!("measured NN cost (leaders -> µs/query): {nn_cost:?}");
    println!("measured clustering cost (leaders -> µs/pass): {cluster_cost:?}");

    let horizon = 120.0f64;
    let base_leaders = 1_000.0f64;
    let max_leaders = 20_000.0f64;

    // Timeline integration: leaders grow at `growth`/s; clustering every T
    // resets them to base and consumes cluster time.
    let run = |growth_secs: f64, interval: Option<f64>| -> f64 {
        let growth = (max_leaders - base_leaders) / growth_secs;
        let mut leaders = match interval {
            Some(_) => base_leaders,
            None => max_leaders, // baseline: never clustered, saturated
        };
        let mut queries = 0.0f64;
        let mut next_cluster = interval.unwrap_or(f64::INFINITY);
        let dt = 0.1;
        let mut t = 0.0;
        let mut busy_until = 0.0f64;
        while t < horizon {
            if t >= next_cluster {
                let cost_s = interp(&cluster_cost, leaders) / 1e6;
                busy_until = t + cost_s;
                leaders = base_leaders;
                next_cluster += interval.expect("interval set");
            }
            if t >= busy_until {
                let cost_s = interp(&nn_cost, leaders) / 1e6;
                queries += dt / cost_s;
            }
            if interval.is_some() {
                leaders = (leaders + growth * dt).min(max_leaders);
            }
            t += dt;
        }
        queries / horizon
    };

    let mut fig = Figure::new(
        "fig11",
        "NN QPS vs clustering interval (A: 1k->20k in 30 s; B: in 60 s)",
        "cluster interval (s)",
        "NN QPS",
    );
    let intervals = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0, 120.0];
    let mut series_a = Series::new("setting A (30 s growth)");
    let mut series_b = Series::new("setting B (60 s growth)");
    let mut baseline = Series::new("no clustering");
    let base_qps = run(30.0, None);
    for &t in &intervals {
        series_a.push(t, run(30.0, Some(t)));
        series_b.push(t, run(60.0, Some(t)));
        baseline.push(t, base_qps);
    }
    fig.add(series_a);
    fig.add(series_b);
    fig.add(baseline);
    fig.print();
    fig.save().expect("save");

    // The paper's qualitative claims, checked mechanically:
    let best = |s: &Series| {
        s.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("points")
    };
    let (ta, qa) = best(&fig.series[0]);
    let (tb, qb) = best(&fig.series[1]);
    println!("\noptimal interval: A = {ta}s ({qa:.0} QPS), B = {tb}s ({qb:.0} QPS)");
    println!("baseline (no clustering): {base_qps:.0} QPS");
    println!(
        "clustering speedup at optimum: A {:.1}x, B {:.1}x over baseline",
        qa / base_qps,
        qb / base_qps
    );
}
