//! Quickstart: index a handful of moving objects, run nearest-neighbour and
//! position queries, and watch update shedding happen.
//!
//! Run with: `cargo run --release --example quickstart`

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One store (the "BigTable") and the front-end tier over it: one
    // server by default.
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default()).build()?;

    // Three commuters walk east together (inside one clustering cell —
    // schools form per cell, so straddling a cell boundary would keep
    // them apart); one cyclist heads north.
    println!("== registering objects ==");
    for (oid, x, y, vx, vy) in [
        (1u64, 100.0, 510.0, 1.0, 0.0),
        (2, 101.0, 511.0, 1.0, 0.0),
        (3, 102.0, 509.0, 1.0, 0.0),
        (4, 500.0, 100.0, 0.0, 2.0),
    ] {
        let outcome = cluster.update(&UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(x, y),
            vel: Velocity::new(vx, vy),
            ts: Timestamp::from_secs(0),
        })?;
        println!("  object {oid}: {outcome:?}");
    }

    // Periodic clustering groups the co-moving commuters into one school.
    let report = cluster.run_due_clustering(Timestamp::from_secs(30))?;
    println!(
        "\n== clustering == merged {} leaders into schools ({} -> {} leaders)",
        report.merged, report.pre_leaders, report.post_leaders
    );

    // Followers that keep moving with their school are shed: no store write.
    println!("\n== follower updates (schooled) ==");
    for t in 31..=35u64 {
        let x = 102.0 + t as f64; // object 3 keeps pace with the school: 1 u/s east since t=0
        let outcome = cluster.update(&UpdateMessage {
            oid: ObjectId(3),
            loc: Point::new(x, 509.0),
            vel: Velocity::new(1.0, 0.0),
            ts: Timestamp::from_secs(t),
        })?;
        println!("  t={t}s object 3: {outcome:?}");
    }
    let stats = cluster.stats();
    println!(
        "  {} of {} updates shed ({:.0}%)",
        stats.shed,
        stats.updates,
        100.0 * stats.shed_ratio()
    );

    // Nearest-neighbour query: who is around (105, 510)?
    println!("\n== 3-NN around (105, 510) at t=35s ==");
    let (neighbors, nn_stats) =
        cluster.nn(Point::new(105.0, 510.0), 3, Timestamp::from_secs(35))?;
    for n in &neighbors {
        println!(
            "  object {} at ({:.1}, {:.1}) — {:.1} units away (school of {})",
            n.oid, n.loc.x, n.loc.y, n.distance, n.leader
        );
    }
    println!(
        "  ({} cells scanned, {:.0} µs modelled cost)",
        nn_stats.cells_scanned, nn_stats.cost_us
    );

    // Point lookup of a follower: served from the school estimate.
    let pos = cluster
        .position(ObjectId(3), Timestamp::from_secs(35))?
        .expect("object 3 is indexed");
    println!(
        "\n== position(3) at t=35s == ({:.1}, {:.1}) (estimated from its leader)",
        pos.x, pos.y
    );

    println!(
        "\nThe server consumed {:.2} ms of modelled store time for {} updates + {} NN queries.",
        cluster.total_elapsed_us() / 1000.0,
        stats.updates,
        cluster.stats().nn_queries
    );
    Ok(())
}
