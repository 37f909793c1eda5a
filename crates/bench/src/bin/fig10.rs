//! Figure 10 — "Performance of clustering: per-clustering latency" (§4.2.2).
//!
//! * `fig10 a` — latency vs number of pre-clustering leaders with a fixed
//!   number of post-clustering leaders (1k), split into read / computation
//!   / write time;
//! * `fig10 b` — latency vs number of post-clustering leaders with fixed
//!   pre-clustering leaders (10k).
//!
//! Leaders are synthesised directly into one clustering cell with
//! velocities arranged into exactly `post` hexagon bins, so the merge
//! outcome is controlled precisely.
//!
//! Read, computation and write time are virtual: the store's cost model
//! prices the reads and writes, and `cluster_cell` prices the binning and
//! merge planning per leader and per bin. The `wall time (noisy)` series
//! times the whole `cluster_cell` call on this host's clock, so the
//! linear-time hexagon binning is still measured on real hardware.

use moist::bigtable::{Bigtable, CostProfile, Timestamp};
use moist::core::{cluster_cell, LfRecord, LocationRecord, MoistConfig, MoistTables, ObjectId};
use moist::spatial::{Point, Velocity};
use moist_bench::{Figure, Series};

/// Builds a store holding `pre` leaders inside one clustering cell whose
/// velocities fall into exactly `post` distinct hexagon bins. Returns the
/// tables and the cell.
fn build(
    pre: usize,
    post: usize,
    cfg: &MoistConfig,
) -> (
    std::sync::Arc<Bigtable>,
    MoistTables,
    moist::spatial::CellId,
) {
    let store = Bigtable::new();
    let tables = MoistTables::create(&store, cfg).expect("tables");
    // Free session: setup must not pollute the measured costs.
    let mut s = store.session_with(CostProfile::free());
    // The clustering cell around the map centre.
    let center = Point::new(500.0, 500.0);
    let cell = cfg.space.cell_at(cfg.clustering_level, &center);
    let cell_rect = {
        let b = cell.bounds(cfg.space.curve);
        let lo = cfg.space.to_world(&Point::new(b.min_x, b.min_y));
        let hi = cfg.space.to_world(&Point::new(b.max_x, b.max_y));
        (lo, hi)
    };
    // `post` well-separated velocity prototypes (spacing 4·Δm ≫ bin size).
    let spacing = cfg.delta_m * 4.0;
    let side = (post as f64).sqrt().ceil() as usize;
    let proto = |g: usize| Velocity::new((g % side) as f64 * spacing, (g / side) as f64 * spacing);
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let ts = Timestamp::from_secs(1);
    for i in 0..pre {
        let loc = Point::new(
            cell_rect.0.x + rnd() * (cell_rect.1.x - cell_rect.0.x) * 0.999,
            cell_rect.0.y + rnd() * (cell_rect.1.y - cell_rect.0.y) * 0.999,
        );
        let vel = proto(i % post);
        let leaf = cfg.space.leaf_cell(&loc).index;
        let rec = LocationRecord {
            loc,
            vel,
            leaf_index: leaf,
        };
        let oid = ObjectId(i as u64);
        tables.put_location(&mut s, oid, &rec, ts).expect("loc");
        tables
            .spatial_insert(&mut s, leaf, oid, &rec, ts)
            .expect("spatial");
        tables
            .set_lf(
                &mut s,
                oid,
                &LfRecord::Leader {
                    since_us: ts.0,
                    last_leaf: leaf,
                },
                ts,
            )
            .expect("lf");
    }
    (store, tables, cell)
}

/// The clustering report and the call's wall time in ms.
fn measure(pre: usize, post: usize) -> (moist::core::ClusterReport, f64) {
    let cfg = MoistConfig::default();
    let (store, tables, cell) = build(pre, post, &cfg);
    let mut s = store.session(); // real cost profile for the measurement
    let wall = std::time::Instant::now();
    let r = cluster_cell(&mut s, &tables, &cfg, cell, Timestamp::from_secs(2)).expect("cluster");
    (r, wall.elapsed().as_secs_f64() * 1e3)
}

fn sweep(id: &str, title: &str, x_label: &str, points: &[(usize, usize)]) {
    let mut fig = Figure::new(id, title, x_label, "latency (ms)");
    let mut read = Series::new("read time");
    let mut compute = Series::new("computation time");
    let mut write = Series::new("write time");
    let mut total = Series::new("total");
    let mut wall = Series::new("wall time (noisy)");
    println!("{id}: pre -> post  (merged, followers moved)");
    for &(pre, post) in points {
        let (r, wall_ms) = measure(pre, post);
        assert_eq!(r.pre_leaders, pre, "setup mismatch");
        assert_eq!(r.post_leaders, post, "merge outcome mismatch");
        let x = if id.ends_with('a') { pre } else { post } as f64;
        read.push(x, r.read_us / 1000.0);
        compute.push(x, r.compute_us / 1000.0);
        write.push(x, r.write_us / 1000.0);
        total.push(x, r.total_us() / 1000.0);
        wall.push(x, wall_ms);
        println!(
            "  {pre:>6} -> {post:>5}: read {:>8.2} ms | compute {:>6.2} ms | write {:>8.2} ms",
            r.read_us / 1000.0,
            r.compute_us / 1000.0,
            r.write_us / 1000.0
        );
    }
    fig.add(read);
    fig.add(compute);
    fig.add(write);
    fig.add(total);
    fig.add(wall);
    fig.print();
    fig.save().expect("save");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if arg == "a" || arg == "all" {
        sweep(
            "fig10a",
            "Clustering latency vs #pre-clustering leaders (post fixed at 1k)",
            "pre-clustering leaders",
            &[
                (2_000, 1_000),
                (4_000, 1_000),
                (6_000, 1_000),
                (8_000, 1_000),
                (10_000, 1_000),
            ],
        );
    }
    if arg == "b" || arg == "all" {
        sweep(
            "fig10b",
            "Clustering latency vs #post-clustering leaders (pre fixed at 10k)",
            "post-clustering leaders",
            &[
                (10_000, 1_000),
                (10_000, 2_000),
                (10_000, 4_000),
                (10_000, 6_000),
                (10_000, 8_000),
            ],
        );
    }
}
