//! End-to-end scenario tests: the full pipeline (workload → multi-threaded
//! servers → clustering → NN/history) plus paper-level sanity properties.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::Point;
use moist::workload::{ClientPool, QpsTimeline, RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use std::sync::Arc;

#[test]
fn parallel_servers_ingest_concurrently_without_corruption() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    // Pre-create tables so worker threads only open them.
    let _ = MoistCluster::builder(&store, cfg).build().unwrap();

    let updates_per_server = 500usize;
    let servers = 4usize;
    let elapsed: Vec<(f64, u64)> = ClientPool::run(servers, |i| {
        let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
        for j in 0..updates_per_server {
            let oid = (i * updates_per_server + j) as u64;
            cluster
                .update(&UpdateMessage {
                    oid: ObjectId(oid),
                    loc: Point::new((oid % 1000) as f64, ((oid * 7) % 1000) as f64),
                    vel: moist::spatial::Velocity::new(1.0, 0.0),
                    ts: Timestamp::from_secs(1),
                })
                .unwrap();
        }
        (cluster.total_elapsed_us(), cluster.stats().updates)
    });
    assert_eq!(elapsed.len(), servers);
    for (us, n) in &elapsed {
        assert_eq!(*n as usize, updates_per_server);
        assert!(*us > 0.0);
    }
    // Every object is queryable from a fresh server afterwards.
    let reader = MoistCluster::builder(&store, cfg).build().unwrap();
    let (nn, _) = reader
        .nn(Point::new(500.0, 500.0), 2000, Timestamp::from_secs(1))
        .unwrap();
    assert_eq!(nn.len(), servers * updates_per_server);
}

#[test]
fn schooling_reduces_store_writes_on_the_same_trace() {
    // The headline claim: with schooling, the store sees far fewer writes
    // for the same workload.
    let trace: Vec<_> = {
        let mut sim = RoadNetSim::new(
            RoadMap::new(RoadMapConfig::default()),
            SimConfig {
                agents: 200,
                seed: 77,
                location_noise: 0.1,
                velocity_noise: 0.01,
                ..SimConfig::default()
            },
        );
        sim.advance_until(240.0)
    };

    let run = |epsilon: f64| -> (u64, f64) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
        let mut next_cluster = 10.0;
        for u in &trace {
            if u.at_secs >= next_cluster {
                cluster
                    .run_due_clustering(Timestamp::from_secs_f64(u.at_secs))
                    .unwrap();
                next_cluster += 10.0;
            }
            cluster
                .update(&UpdateMessage {
                    oid: ObjectId(u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                })
                .unwrap();
        }
        let writes = store.metrics_snapshot();
        (
            writes.write_ops + writes.batch_ops,
            cluster.stats().shed_ratio(),
        )
    };

    let (writes_no_school, shed0) = run(0.0);
    let (writes_school, shed8) = run(8.0);
    assert!(shed0 < 0.05, "ε=0 sheds (almost) nothing: {shed0}");
    assert!(shed8 > 0.25, "ε=8 should shed a good fraction: {shed8}");
    assert!(
        (writes_school as f64) < 0.8 * writes_no_school as f64,
        "schooling must cut store writes: {writes_school} vs {writes_no_school}"
    );
}

#[test]
fn larger_epsilon_sheds_more() {
    let trace: Vec<_> = {
        let mut sim = RoadNetSim::new(
            RoadMap::new(RoadMapConfig::default()),
            SimConfig {
                agents: 100,
                seed: 13,
                ..SimConfig::default()
            },
        );
        sim.advance_until(180.0)
    };
    let shed_at = |epsilon: f64| -> f64 {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
        let mut next_cluster = 10.0;
        for u in &trace {
            if u.at_secs >= next_cluster {
                cluster
                    .run_due_clustering(Timestamp::from_secs_f64(u.at_secs))
                    .unwrap();
                next_cluster += 10.0;
            }
            cluster
                .update(&UpdateMessage {
                    oid: ObjectId(u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                })
                .unwrap();
        }
        cluster.stats().shed_ratio()
    };
    let s2 = shed_at(2.0);
    let s10 = shed_at(10.0);
    let s40 = shed_at(40.0);
    assert!(
        s2 <= s10 + 0.02 && s10 <= s40 + 0.02,
        "shed ratio should grow with ε: {s2:.2} {s10:.2} {s40:.2}"
    );
    assert!(s40 > s2, "ε=40 must shed more than ε=2");
}

#[test]
fn qps_timeline_from_virtual_completions() {
    // Virtual-time completions from a server translate into a timeline.
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::without_schooling())
        .build()
        .unwrap();
    let mut events = Vec::new();
    for i in 0..12000u64 {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(i % 200),
                loc: Point::new((i % 1000) as f64, 500.0),
                vel: moist::spatial::Velocity::ZERO,
                ts: Timestamp::from_secs(1),
            })
            .unwrap();
        events.push((cluster.total_elapsed_us() / 1e6, true));
    }
    let tl = QpsTimeline::from_events(events);
    assert!(!tl.samples.is_empty());
    assert!(tl.average() > 0.0);
    assert!(tl.peak() >= tl.average());
    // With the default cost profile one server sustains thousands of
    // updates per virtual second (the paper's single-server regime).
    assert!(
        tl.peak() > 2000.0 && tl.peak() < 20_000.0,
        "virtual single-server QPS out of the paper's regime: {}",
        tl.peak()
    );
}

#[test]
fn store_sharing_is_visible_across_threads_mid_run() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let _ = MoistCluster::builder(&store, cfg).build().unwrap();
    let store2 = Arc::clone(&store);
    // Writer thread fills; reader thread polls until it sees everything.
    let writer = std::thread::spawn(move || {
        let s = MoistCluster::builder(&store2, cfg).build().unwrap();
        for i in 0..300u64 {
            s.update(&UpdateMessage {
                oid: ObjectId(i),
                loc: Point::new(500.0, (i % 1000) as f64),
                vel: moist::spatial::Velocity::ZERO,
                ts: Timestamp::from_secs(1),
            })
            .unwrap();
        }
    });
    writer.join().unwrap();
    let reader = MoistCluster::builder(&store, cfg).build().unwrap();
    let (nn, _) = reader
        .nn(Point::new(500.0, 500.0), 400, Timestamp::from_secs(1))
        .unwrap();
    assert_eq!(nn.len(), 300);
}
