//! Smoke test pinning the quickstart flow from the facade docs and
//! `examples/quickstart.rs`: if this breaks, the README/doc quickstart
//! has rotted. Mirrors the example's steps with assertions instead of
//! printing.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};

/// The facade crate-root doc example: one taxi reports, a customer
/// finds it as the nearest neighbour.
#[test]
fn nearest_taxi_round_trip() {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default())
        .build()
        .expect("tier starts");

    cluster
        .update(&UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(420.0, 500.0),
            vel: Velocity::new(1.8, 0.0),
            ts: Timestamp::from_secs(10),
        })
        .expect("update succeeds");

    let (neighbors, _) = cluster
        .nn(Point::new(400.0, 500.0), 1, Timestamp::from_secs(11))
        .expect("nn query succeeds");
    assert_eq!(neighbors[0].oid, ObjectId(1));
}

/// The full `examples/quickstart.rs` storyline: register co-moving
/// objects, cluster them into a school, shed follower updates, answer
/// NN and position queries.
#[test]
fn quickstart_example_flow() {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default())
        .build()
        .expect("tier starts");

    // Three commuters walk east together inside one clustering cell;
    // one cyclist heads north.
    for (oid, x, y, vx, vy) in [
        (1u64, 100.0, 510.0, 1.0, 0.0),
        (2, 101.0, 511.0, 1.0, 0.0),
        (3, 102.0, 509.0, 1.0, 0.0),
        (4, 500.0, 100.0, 0.0, 2.0),
    ] {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::new(vx, vy),
                ts: Timestamp::from_secs(0),
            })
            .expect("registration update succeeds");
    }

    // Periodic clustering groups the co-moving commuters into one school.
    let report = cluster
        .run_due_clustering(Timestamp::from_secs(30))
        .expect("clustering runs");
    assert!(
        report.merged > 0,
        "co-moving commuters should merge into a school: {report:?}"
    );
    assert!(report.post_leaders < report.pre_leaders);

    // Followers that keep moving with their school are shed.
    for t in 31..=35u64 {
        let x = 102.0 + t as f64; // object 3 keeps pace with the school: 1 u/s east since t=0
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(3),
                loc: Point::new(x, 509.0),
                vel: Velocity::new(1.0, 0.0),
                ts: Timestamp::from_secs(t),
            })
            .expect("follower update succeeds");
    }
    let stats = cluster.stats();
    assert!(
        stats.shed > 0,
        "in-school follower updates should be shed: {stats:?}"
    );

    // Nearest-neighbour query: the three commuters are east of (105, 510).
    let (neighbors, _) = cluster
        .nn(Point::new(105.0, 510.0), 3, Timestamp::from_secs(35))
        .expect("nn query succeeds");
    assert_eq!(neighbors.len(), 3);
    let found: Vec<u64> = neighbors.iter().map(|n| n.oid.0).collect();
    for oid in [1, 2, 3] {
        assert!(
            found.contains(&oid),
            "commuter {oid} missing from {found:?}"
        );
    }
    // The cyclist far to the south is not among the 3 nearest.
    assert!(!found.contains(&4));

    // Point lookup of a shed follower is served from the school estimate.
    let pos = cluster
        .position(ObjectId(3), Timestamp::from_secs(35))
        .expect("position query succeeds")
        .expect("object 3 is indexed");
    assert!(
        (pos.x - 137.0).abs() < MoistConfig::default().epsilon + 1e-9,
        "estimated x {} too far from true 137",
        pos.x
    );
    assert!((pos.y - 509.0).abs() < MoistConfig::default().epsilon + 1e-9);

    // Virtual store time was charged for the work.
    assert!(cluster.total_elapsed_us() > 0.0);
}
