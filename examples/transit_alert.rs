//! Transit Alert — the §5 "Bus Alert Service" deployed in Taipei.
//!
//! Buses stream GPS fixes twice a minute; riders can (1) query a bus's
//! location, (2) browse all buses nearby, and (3) set an alarm that fires
//! when their bus approaches a stop. This example runs all three against a
//! simulated bus fleet on the road-network map.
//!
//! Run with: `cargo run --release --example transit_alert`

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Rect};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};

/// A rider's alarm: fire when `bus` comes within `radius` of `stop`.
struct Alarm {
    bus: ObjectId,
    stop: Point,
    radius: f64,
    fired: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default()).build()?;

    // A fleet of 60 buses (cars in the simulator's speed class) on the
    // paper's road-network map, reporting every ~30 s like the Taipei
    // deployment ("each bus updated its GPS location twice a minute").
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents: 60,
            car_fraction: 1.0,
            max_update_interval_secs: 30.0,
            seed: 2011, // the year the service launched
            ..SimConfig::default()
        },
    );

    let stop = Point::new(500.0, 500.0);
    let mut alarm = Alarm {
        bus: ObjectId(17),
        stop,
        radius: 120.0,
        fired: false,
    };

    println!(
        "Bus Alert Service: 60 buses, stop at ({:.0}, {:.0})\n",
        stop.x, stop.y
    );
    let mut clock = 0.0f64;
    while clock < 600.0 {
        clock += 30.0;
        // Ingest this window's GPS fixes.
        for u in sim.advance_until(clock) {
            cluster.update(&UpdateMessage {
                oid: ObjectId(u.oid),
                loc: u.loc,
                vel: u.vel,
                ts: Timestamp::from_secs_f64(u.at_secs),
            })?;
        }
        cluster.run_due_clustering(Timestamp::from_secs_f64(clock))?;
        let now = Timestamp::from_secs_f64(clock);

        // (1) Where is my bus?
        let bus_pos = cluster.position(alarm.bus, now)?;

        // (2) Browse the 3 buses nearest the stop, and everything in the
        // surrounding quarter (a region query; margin covers bus speed ×
        // update interval).
        let (nearby, _) = cluster.nn(stop, 3, now)?;
        let quarter = Rect::new(
            stop.x - 150.0,
            stop.y - 150.0,
            stop.x + 150.0,
            stop.y + 150.0,
        );
        let (in_quarter, _) = cluster.region(&quarter, now, 60.0)?;

        // (3) Alarm check.
        if let Some(p) = bus_pos {
            if !alarm.fired && p.distance(&alarm.stop) <= alarm.radius {
                alarm.fired = true;
                println!(
                    "t={clock:>4.0}s  ALARM: bus {} is approaching the stop ({:.0} units away)!",
                    alarm.bus,
                    p.distance(&alarm.stop)
                );
            }
        }

        if (clock as u64).is_multiple_of(120) {
            let ids: Vec<String> = nearby
                .iter()
                .map(|n| format!("{}@{:.0}u", n.oid, n.distance))
                .collect();
            let where_is = bus_pos
                .map(|p| format!("({:.0}, {:.0})", p.x, p.y))
                .unwrap_or_else(|| "unknown".into());
            println!(
                "t={clock:>4.0}s  bus {} at {where_is}; nearest: [{}]; {} buses in the quarter",
                alarm.bus,
                ids.join(", "),
                in_quarter.len()
            );
        }
    }

    let stats = cluster.stats();
    println!(
        "\nServed {} updates ({:.0}% shed by schooling), {} NN queries, \
         {:.1} ms modelled store time.",
        stats.updates,
        100.0 * stats.shed_ratio(),
        stats.nn_queries,
        cluster.total_elapsed_us() / 1000.0
    );
    if !alarm.fired {
        println!(
            "(The watched bus never came within {:.0} units this run.)",
            alarm.radius
        );
    }
    Ok(())
}
