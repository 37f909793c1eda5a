//! Realtime coupon targeting — the second §5 application.
//!
//! Users stream their locations; a restaurant with open seats submits a
//! coupon targeting customers within 1,000 m "immediately". The match is a
//! predictive nearest-neighbour query: customers *heading toward* the
//! restaurant are worth more than ones walking away, so the restaurant
//! targets by position a minute into the future.
//!
//! Run with: `cargo run --release --example coupon_targeting`

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, NnOptions, ObjectId, UpdateMessage};
use moist::spatial::Point;
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default()).build()?;

    // Lunch crowd: 400 pedestrians wandering the downtown grid.
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents: 400,
            car_fraction: 0.0,
            seed: 7,
            ..SimConfig::default()
        },
    );

    // Warm up: 5 minutes of location updates + clustering.
    for minute in 1..=5u64 {
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
    let now = Timestamp::from_secs(300);
    let stats = cluster.stats();
    println!(
        "Indexed {} users over 5 min ({} updates, {:.0}% shed).\n",
        400,
        stats.updates,
        100.0 * stats.shed_ratio()
    );

    // A restaurant at the centre of town has open seats.
    let restaurant = Point::new(500.0, 500.0);
    let radius = 150.0; // the coupon's reach in map units

    // Current-position targeting.
    let (current, _) = cluster.nn(restaurant, 50, now)?;
    let reachable_now: Vec<_> = current.iter().filter(|n| n.distance <= radius).collect();

    // Predictive targeting: who will be nearby in 60 s?
    let predictive = NnOptions {
        predict_secs: 60.0,
        nn_level: Some(6),
        ..NnOptions::new(50)
    };
    let (future, _) = cluster.nn_with_options(restaurant, now, &predictive)?;
    let reachable_soon: Vec<_> = future.iter().filter(|n| n.distance <= radius).collect();

    println!(
        "Coupon reach (radius {radius:.0}): {} users now, {} users in 60 s.",
        reachable_now.len(),
        reachable_soon.len()
    );

    // The coupon goes to everyone in either set; heading-toward users get
    // the premium offer.
    use std::collections::HashSet;
    let now_set: HashSet<u64> = reachable_now.iter().map(|n| n.oid.0).collect();
    let mut premium = 0;
    let mut standard = 0;
    for n in &reachable_soon {
        if now_set.contains(&n.oid.0) {
            standard += 1;
        } else {
            premium += 1; // approaching: not here yet, will be in a minute
        }
    }
    println!("  -> {standard} standard coupons (already nearby)");
    println!("  -> {premium} premium coupons (approaching within the minute)");

    let sample: Vec<String> = reachable_soon
        .iter()
        .take(5)
        .map(|n| format!("user {} ({:.0}u away in 60s)", n.oid, n.distance))
        .collect();
    println!("  sample recipients: {}", sample.join(", "));

    println!(
        "\nModelled store time for the whole lunch rush: {:.1} ms.",
        cluster.total_elapsed_us() / 1000.0
    );
    Ok(())
}
