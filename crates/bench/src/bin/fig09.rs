//! Figure 9 — "Impact of parameters on the average number of OS" (§4.2.1).
//!
//! * `fig09 a` — average #OSes vs deviation threshold ε, three speed
//!   profiles (pedestrians-only / mixed / cars-only);
//! * `fig09 b` — average #OSes vs total number of objects (100 → 1000);
//! * `fig09 c` — #OSes over time with `T_c = 10 s`.
//!
//! Default workload as in the paper: road network, update frequency about
//! one per second, default population 100.

use moist::bigtable::Timestamp;
use moist::core::{MoistCluster, MoistConfig, MoistTables, ObjectId, UpdateMessage};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use moist_bench::{Figure, Series};

/// Runs the road workload for `horizon` seconds and samples the number of
/// OSes (spatial-index leader rows) every `sample_every` seconds after the
/// warm-up. Returns `(samples, shed_ratio)`.
fn run(
    agents: u64,
    car_fraction: f64,
    epsilon: f64,
    horizon: f64,
    warmup: f64,
    sample_every: f64,
    seed: u64,
) -> (Vec<(f64, usize)>, f64) {
    let cfg = MoistConfig {
        epsilon,
        ..MoistConfig::default()
    };
    let store = moist::bigtable::Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg).build().expect("cluster");
    let tables = MoistTables::open(&store).expect("tables");
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents,
            car_fraction,
            // "a default update frequency of one update per second":
            max_update_interval_secs: 2.0,
            seed,
            ..SimConfig::default()
        },
    );
    let mut samples = Vec::new();
    let mut t = 0.0;
    while t < horizon {
        t += sample_every;
        for u in sim.advance_until(t) {
            cluster
                .update(&UpdateMessage {
                    oid: ObjectId(u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                })
                .expect("update");
        }
        cluster
            .run_due_clustering(Timestamp::from_secs_f64(t))
            .expect("clustering");
        if t >= warmup {
            samples.push((t, tables.spatial.row_count()));
        }
    }
    (samples, cluster.stats().shed_ratio())
}

fn avg_os(samples: &[(f64, usize)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&(_, n)| n as f64).sum::<f64>() / samples.len() as f64
}

fn fig_a() {
    let mut fig = Figure::new(
        "fig09a",
        "Average #OSes vs deviation threshold ε (100 objects, 1 Hz)",
        "epsilon",
        "avg #OS",
    );
    for (label, car_fraction) in [
        ("pedestrians (0-1 u/s)", 0.0),
        ("mixed (50/50)", 0.5),
        ("cars (1-2 u/s)", 1.0),
    ] {
        let mut series = Series::new(label);
        for eps in [1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
            let (samples, _) = run(100, car_fraction, eps, 120.0, 30.0, 5.0, 42);
            series.push(eps, avg_os(&samples));
        }
        fig.add(series);
    }
    fig.print();
    fig.save().expect("save");
}

fn fig_b() {
    let mut fig = Figure::new(
        "fig09b",
        "Average #OSes vs total number of objects (default ε)",
        "objects",
        "avg #OS",
    );
    let mut oses = Series::new("avg #OS");
    let mut shed = Series::new("shed ratio x100");
    for n in [100u64, 200, 400, 600, 800, 1000] {
        let (samples, shed_ratio) =
            run(n, 0.5, MoistConfig::default().epsilon, 120.0, 30.0, 5.0, 42);
        oses.push(n as f64, avg_os(&samples));
        shed.push(n as f64, shed_ratio * 100.0);
    }
    fig.add(oses);
    fig.add(shed);
    fig.print();
    fig.save().expect("save");
}

fn fig_c() {
    let mut fig = Figure::new(
        "fig09c",
        "#OSes over time (T_c = 10 s, 100 objects)",
        "time (s)",
        "#OS",
    );
    let mut series = Series::new("#OS");
    let (samples, _) = run(
        100,
        0.5,
        MoistConfig::default().epsilon,
        120.0,
        0.0,
        2.0,
        42,
    );
    for (t, n) in &samples {
        series.push(*t, *n as f64);
    }
    // Variance check the paper quotes: "an update interval of Tc = 10
    // seconds can keep the variance of the number of OSes within 10".
    let steady: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t >= 40.0)
        .map(|&(_, n)| n as f64)
        .collect();
    let mean = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
    let var =
        steady.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / steady.len().max(1) as f64;
    fig.add(series);
    fig.print();
    println!("steady-state mean #OS = {mean:.1}, variance = {var:.1}");
    fig.save().expect("save");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "a" => fig_a(),
        "b" => fig_b(),
        "c" => fig_c(),
        _ => {
            fig_a();
            fig_b();
            fig_c();
        }
    }
}
