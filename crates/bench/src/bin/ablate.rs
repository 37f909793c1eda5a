//! Ablation benches for the design choices the module docs call out.
//!
//! * `ablate cluster` — hexagonal O(n) velocity binning (§3.3.2) vs the
//!   naive O(n²) pairwise-threshold grouping it replaces: wall-clock
//!   compute time per clustering;
//! * `ablate curve`   — Hilbert vs Z-order (Morton) keys: how many
//!   contiguous scan ranges a rectangular region costs, and NN query cost
//!   (the paper: "Hilbert Curves perform slightly better");
//! * `ablate ppp`     — the §3.6.2 sweep: `U_d`, `R_d`, `min(U_d, R_d)` and
//!   ping-pong feasibility against the number of disks, plus the chosen
//!   optimum.

use moist::archive::{DiskProfile, PlannerInput, RECORD_BYTES};
use moist::core::{HexGrid, MoistConfig};
use moist::spatial::{cover_rect, CurveKind, Rect, Velocity};
use moist_bench::{Figure, Series};
use std::time::Instant;

fn rnd_stream(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn ablate_cluster() {
    let mut fig = Figure::new(
        "ablate_cluster",
        "Velocity grouping: hexagonal O(n) binning vs naive O(n^2) pairwise",
        "leaders",
        "compute time (ms)",
    );
    let mut hex_series = Series::new("hexagon binning");
    let mut naive_series = Series::new("naive pairwise");
    let delta_m = MoistConfig::default().delta_m;
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000] {
        let mut rnd = rnd_stream(0xC0FFEE + n as u64);
        let velocities: Vec<Velocity> = (0..n)
            .map(|_| Velocity::new(rnd() * 4.0 - 2.0, rnd() * 4.0 - 2.0))
            .collect();

        // Hexagonal binning (the shipped algorithm).
        let grid = HexGrid::new(delta_m);
        let t0 = Instant::now();
        let mut bins: std::collections::HashMap<moist::core::HexBin, u32> =
            std::collections::HashMap::new();
        for v in &velocities {
            *bins.entry(grid.bin(v)).or_default() += 1;
        }
        let hex_ms = t0.elapsed().as_secs_f64() * 1e3;
        let hex_groups = bins.len();

        // Naive pairwise greedy grouping at the same threshold.
        let t0 = Instant::now();
        let mut group_of = vec![usize::MAX; n];
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            let mut assigned = false;
            for (g, &rep) in reps.iter().enumerate() {
                if velocities[i].difference(&velocities[rep]) < delta_m {
                    group_of[i] = g;
                    assigned = true;
                    break;
                }
            }
            if !assigned {
                group_of[i] = reps.len();
                reps.push(i);
            }
        }
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
        hex_series.push(n as f64, hex_ms);
        naive_series.push(n as f64, naive_ms);
        println!(
            "n={n:>6}: hexagon {hex_ms:>8.3} ms ({hex_groups} groups) | naive {naive_ms:>9.3} ms ({} groups)",
            reps.len()
        );
    }
    fig.add(hex_series);
    fig.add(naive_series);
    fig.print();
    fig.save().expect("save");
}

fn ablate_curve() {
    let mut fig = Figure::new(
        "ablate_curve",
        "Hilbert vs Z-order: contiguous scan ranges per region query",
        "region side (units)",
        "avg contiguous ranges",
    );
    let level = 8u8;
    for kind in [CurveKind::Hilbert, CurveKind::Morton] {
        let mut series = Series::new(format!("{kind:?}"));
        for side in [25.0, 50.0, 100.0, 200.0, 400.0] {
            let mut rnd = rnd_stream(0xABCDEF);
            let mut total_ranges = 0usize;
            let trials = 200;
            for _ in 0..trials {
                let x0 = rnd() * (1000.0 - side) / 1000.0;
                let y0 = rnd() * (1000.0 - side) / 1000.0;
                let rect = Rect::new(x0, y0, x0 + side / 1000.0, y0 + side / 1000.0);
                let cells = cover_rect(kind, level, &rect);
                // Count maximal contiguous index runs = separate scan RPCs.
                let mut ranges = 0usize;
                let mut prev = u64::MAX;
                for c in &cells {
                    if prev == u64::MAX || c.index != prev + 1 {
                        ranges += 1;
                    }
                    prev = c.index;
                }
                total_ranges += ranges;
            }
            series.push(side, total_ranges as f64 / trials as f64);
        }
        fig.add(series);
    }
    fig.print();
    let h_avg: f64 = fig.series[0].points.iter().map(|p| p.1).sum::<f64>();
    let m_avg: f64 = fig.series[1].points.iter().map(|p| p.1).sum::<f64>();
    println!(
        "Hilbert needs {:.1}% of Z-order's scan ranges (fewer = fewer RPCs)",
        100.0 * h_avg / m_avg
    );
    fig.save().expect("save");
}

fn ablate_ppp() {
    let input = PlannerInput {
        buffer_bytes: (1_000_000 * RECORD_BYTES) as f64, // s_rec × n_o, 1M objects
        objects: 1_000_000,
        fill_rate_bytes_per_sec: 3.0e6,
        k: 20_000.0,
        disk: DiskProfile::default(),
        max_disks: 64,
    };
    let plan = input.plan().expect("64 disks is within the planner's cap");
    let mut fig = Figure::new(
        "ablate_ppp",
        "PPP planner: U_d / R_d / min vs number of disks (1M objects)",
        "disks",
        "utilisation / resolution",
    );
    let mut ud = Series::new("U_d (write util)");
    let mut rd = Series::new("R_d (read res)");
    let mut mn = Series::new("min(U_d, R_d)");
    let mut feas = Series::new("feasible (0/1)");
    for p in &plan.sweep {
        ud.push(f64::from(p.nd), p.ud);
        rd.push(f64::from(p.nd), p.rd);
        mn.push(f64::from(p.nd), p.ud.min(p.rd));
        feas.push(f64::from(p.nd), if p.feasible { 1.0 } else { 0.0 });
    }
    fig.add(ud);
    fig.add(rd);
    fig.add(mn);
    fig.add(feas);
    fig.print();
    println!(
        "\nchosen n_d = {} (U_d = {:.4}, R_d = {:.4}, T_d = {:.3}s, T_m = {:.3}s, feasible = {})",
        plan.best.nd, plan.best.ud, plan.best.rd, plan.best.td, plan.best.tm, plan.best.feasible
    );
    println!(
        "unconstrained optimum n_d* = {:.1}",
        input.unconstrained_optimum()
    );
    fig.save().expect("save");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if arg == "cluster" || arg == "all" {
        ablate_cluster();
    }
    if arg == "curve" || arg == "all" {
        ablate_curve();
    }
    if arg == "ppp" || arg == "all" {
        ablate_ppp();
    }
}
