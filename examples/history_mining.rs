//! History mining over the PPP archive — travel paths and points of
//! interest (§3.5 motivation; §6 future work: "route planning, map makers,
//! and point-of-interest data mining").
//!
//! Runs the road-network workload with the aged-data archiver attached,
//! then answers (a) an object-based history query (one rider's travel
//! path), (b) a location-based history query (who crossed downtown), and
//! (c) mines visit counts per map cell into a points-of-interest heatmap.
//! It finishes with the §3.6.2 planner choosing the disk count.
//!
//! Run with: `cargo run --release --example history_mining`

use moist::archive::{DiskProfile, PlannerInput, PppArchiver, PppConfig, RECORD_BYTES};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{CellId, CurveKind, Point, Rect};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MoistConfig::default();
    let store = Bigtable::new();
    let archiver = Arc::new(PppArchiver::new(
        cfg.space,
        PppConfig {
            num_disks: 4,
            total_buffer_bytes: 64 * 1024,
            column_records: 8,
            placement_level: 3,
            disk: DiskProfile::default(),
        },
    ));
    let cluster = MoistCluster::builder(&store, cfg)
        .archiver(Arc::clone(&archiver))
        .build()?;

    // 20 minutes of city traffic.
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents: 200,
            seed: 99,
            ..SimConfig::default()
        },
    );
    for minute in 1..=20u64 {
        for u in sim.advance_until(minute as f64 * 60.0) {
            cluster.update(&UpdateMessage {
                oid: ObjectId(u.oid),
                loc: u.loc,
                vel: u.vel,
                ts: Timestamp::from_secs_f64(u.at_secs),
            })?;
        }
        cluster.run_due_clustering(Timestamp::from_secs(minute * 60))?;
    }
    archiver.flush_all()?;
    let ppp = archiver.stats();
    println!(
        "Archived {} records in {} columns across {} flushes on {} disks.",
        ppp.records_ingested,
        ppp.columns_aged,
        ppp.flushes,
        archiver.num_disks()
    );
    if let Some((min_tm, max_td, ok)) = archiver.pingpong_safety() {
        println!(
            "Ping-pong safety: min Tm = {min_tm:.3}s, max Td = {max_td:.3}s -> {}",
            if ok { "SAFE" } else { "VIOLATED" }
        );
    }

    // (a) One rider's travel path.
    let rider = ObjectId(3);
    let (path, cost) = cluster.history(rider, Timestamp::ZERO, Timestamp::from_secs(1200))?;
    println!(
        "\nTravel path of rider {rider}: {} fixes ({} disk touched, {} pages, {:.1} ms device time)",
        path.len(),
        cost.disks_touched,
        cost.pages_read,
        cost.total_device_secs * 1000.0
    );
    for r in path.iter().take(4) {
        println!(
            "  t={:>5.0}s  ({:.1}, {:.1})",
            r.ts_us as f64 / 1e6,
            r.loc.x,
            r.loc.y
        );
    }
    if path.len() > 4 {
        println!("  ... {} more fixes", path.len() - 4);
    }

    // (b) Who crossed downtown between minutes 5 and 15?
    let downtown = Rect::new(400.0, 400.0, 600.0, 600.0);
    let (visits, cost) =
        archiver.query_region(&downtown, 5 * 60 * 1_000_000, 15 * 60 * 1_000_000, 150.0)?;
    let distinct: std::collections::HashSet<u64> = visits.iter().map(|r| r.oid).collect();
    println!(
        "\nDowntown 400..600²: {} fixes from {} distinct objects \
         ({}/{} disks touched — placement locality at work)",
        visits.len(),
        distinct.len(),
        cost.disks_touched,
        archiver.num_disks()
    );

    // (c) Points-of-interest heatmap: visit counts per level-4 cell.
    let space = cluster.config().space;
    let (all, _) = archiver.query_region(&space.world, 0, u64::MAX, 0.0)?;
    let mut heat: HashMap<CellId, usize> = HashMap::new();
    for r in &all {
        *heat.entry(space.cell_at(4, &r.loc)).or_default() += 1;
    }
    let mut hot: Vec<(CellId, usize)> = heat.into_iter().collect();
    hot.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\nTop-5 points of interest (level-4 cells by visit count):");
    for (cell, n) in hot.iter().take(5) {
        let c = cell.bounds(CurveKind::Hilbert).center();
        let w = space.to_world(&Point::new(c.x, c.y));
        println!(
            "  cell #{:>3}  around ({:>3.0}, {:>3.0})  {n} visits",
            cell.index, w.x, w.y
        );
    }

    // (d) The §3.6.2 planner: how many disks should this deployment run?
    let plan = PlannerInput {
        buffer_bytes: (200 * 8 * RECORD_BYTES) as f64, // s_rec × n_o
        objects: 200,
        fill_rate_bytes_per_sec: (ppp.records_ingested as f64 * RECORD_BYTES as f64) / 1200.0,
        k: 50.0,
        disk: DiskProfile::default(),
        max_disks: 16,
    }
    .plan()?;
    println!(
        "\nPlanner: n_d = {} (U_d = {:.4}, R_d = {:.4}, T_d = {:.4}s, feasible = {})",
        plan.best.nd, plan.best.ud, plan.best.rd, plan.best.td, plan.best.feasible
    );
    Ok(())
}
