//! Cross-crate integration tests: MOIST core against the real workloads,
//! the archiver, and the baselines, all over one shared store.

use moist::archive::{PppArchiver, PppConfig};
use moist::baselines::{BxConfig, BxTree};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage, UpdateOutcome};
use moist::spatial::{Point, Rect};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig, UniformSim};
use std::sync::Arc;

fn drive(cluster: &MoistCluster, sim: &mut RoadNetSim, until: f64) {
    for u in sim.advance_until(until) {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(u.oid),
                loc: u.loc,
                vel: u.vel,
                ts: Timestamp::from_secs_f64(u.at_secs),
            })
            .expect("update");
    }
}

#[test]
fn road_network_traffic_gets_shed_after_clustering() {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 8.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents: 300,
            seed: 21,
            ..SimConfig::default()
        },
    );
    // Warm-up minute, then clustering, then measure shedding.
    drive(&cluster, &mut sim, 60.0);
    cluster
        .run_due_clustering(Timestamp::from_secs(60))
        .unwrap();
    let before = cluster.stats();
    for step in 1..=12u64 {
        drive(&cluster, &mut sim, 60.0 + step as f64 * 10.0);
        cluster
            .run_due_clustering(Timestamp::from_secs(60 + step * 10))
            .unwrap();
    }
    let after = cluster.stats();
    let new_updates = after.updates - before.updates;
    let new_shed = after.shed - before.shed;
    let ratio = new_shed as f64 / new_updates as f64;
    assert!(
        ratio > 0.3,
        "road traffic should shed a solid fraction after clustering, got {:.2} \
         ({new_shed}/{new_updates})",
        ratio
    );
}

#[test]
fn nn_results_stay_close_to_ground_truth_under_schooling() {
    // Schooling trades per-object precision (≤ ε) for update shedding; NN
    // answers must stay within that tolerance of the true positions.
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 5.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents: 150,
            seed: 33,
            location_noise: 0.0,
            velocity_noise: 0.0,
            ..SimConfig::default()
        },
    );
    for step in 1..=18u64 {
        drive(&cluster, &mut sim, step as f64 * 10.0);
        cluster
            .run_due_clustering(Timestamp::from_secs(step * 10))
            .unwrap();
    }
    sim.sync_all();
    let now = Timestamp::from_secs_f64(sim.now_secs());
    let center = Point::new(500.0, 500.0);
    let (nn, _) = cluster.nn(center, 10, now).unwrap();
    assert!(!nn.is_empty());
    // Every reported neighbour's position is within ε + staleness slack of
    // the simulator's ground truth for that object.
    for n in &nn {
        let truth = &sim.agents()[n.oid.0 as usize];
        let err = truth.loc.distance(&n.loc);
        // Slack: ε (school tolerance) + max distance travelled since the
        // object's last accepted update (≤ max speed × max interval).
        assert!(
            err <= 5.0 + 2.0 * 5.0 + 1e-6,
            "object {} reported {:.1} units from truth",
            n.oid,
            err
        );
    }
}

#[test]
fn moist_and_bxtree_agree_on_knn_without_schooling() {
    let store = Bigtable::new();
    // ε=0: every object is its own leader; both indexes see exact data.
    let cfg = MoistConfig::without_schooling();
    let cluster = MoistCluster::builder(&store, cfg).build().unwrap();
    let mut bx = BxTree::new(
        &store,
        cfg.space,
        BxConfig {
            v_max: 3.0,
            ..BxConfig::default()
        },
        "bx_compare",
    )
    .unwrap();
    let mut bx_session = store.session();
    let mut uni = UniformSim::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), 250, 0.0, 5.0, 5);
    let ts = Timestamp::from_secs(1);
    for (oid, loc, vel) in uni.positions() {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc,
                vel,
                ts,
            })
            .unwrap();
        bx.update(&mut bx_session, oid, &loc, &vel, ts).unwrap();
    }
    for _ in 0..10 {
        let q = uni.random_point();
        let (moist_nn, _) = cluster.nn(q, 5, ts).unwrap();
        let bx_nn = bx.knn(&mut bx_session, q, 5, ts).unwrap();
        let a: Vec<u64> = moist_nn.iter().map(|n| n.oid.0).collect();
        let b: Vec<u64> = bx_nn.iter().map(|e| e.oid).collect();
        assert_eq!(a, b, "kNN mismatch at query point {q:?}");
    }
}

#[test]
fn multi_server_interleaving_is_consistent() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let clusters: Vec<MoistCluster> = (0..4)
        .map(|_| MoistCluster::builder(&store, cfg).build().unwrap())
        .collect();
    // 100 objects, updates round-robined across servers (like clients
    // hitting different front-ends).
    for round in 0..5u64 {
        for oid in 0..100u64 {
            let s = &clusters[(oid % 4) as usize];
            s.update(&UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(10.0 + oid as f64 + round as f64, 500.0),
                vel: moist::spatial::Velocity::new(1.0, 0.0),
                ts: Timestamp::from_secs(round * 10),
            })
            .unwrap();
        }
    }
    // Any server answers for all objects.
    for oid in [0u64, 33, 99] {
        let p = clusters[0]
            .position(ObjectId(oid), Timestamp::from_secs(40))
            .unwrap()
            .expect("indexed");
        assert!((p.x - (10.0 + oid as f64 + 4.0)).abs() < 1e-6);
    }
    // The spatial index holds each object exactly once.
    let (nn, _) = clusters[3]
        .nn(Point::new(60.0, 500.0), 100, Timestamp::from_secs(40))
        .unwrap();
    let mut ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), nn.len(), "no duplicate objects in NN results");
    assert_eq!(nn.len(), 100);
}

#[test]
fn archiver_history_matches_accepted_updates() {
    let store = Bigtable::new();
    let cfg = MoistConfig::without_schooling(); // every update archived
    let archiver = Arc::new(PppArchiver::new(cfg.space, PppConfig::default()));
    let cluster = MoistCluster::builder(&store, cfg)
        .archiver(Arc::clone(&archiver))
        .build()
        .unwrap();
    let mut expected = 0u64;
    for t in 0..50u64 {
        let out = cluster
            .update(&UpdateMessage {
                oid: ObjectId(7),
                loc: Point::new(10.0 + t as f64 * 3.0, 200.0),
                vel: moist::spatial::Velocity::new(3.0, 0.0),
                ts: Timestamp::from_secs(t),
            })
            .unwrap();
        assert_ne!(out, UpdateOutcome::Shed);
        expected += 1;
    }
    archiver.flush_all().unwrap();
    let (hist, cost) = cluster
        .history(ObjectId(7), Timestamp::ZERO, Timestamp::from_secs(100))
        .unwrap();
    assert_eq!(hist.len() as u64, expected);
    assert!(hist.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
    assert_eq!(cost.disks_touched, 1, "object locality: one disk");
    // The trajectory is the straight line we fed in.
    for (i, r) in hist.iter().enumerate() {
        assert!((r.loc.x - (10.0 + i as f64 * 3.0)).abs() < 1e-9);
    }
}

#[test]
fn aging_preserves_query_results() {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, MoistConfig::default())
        .build()
        .unwrap();
    for t in 0..20u64 {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(1),
                loc: Point::new(100.0 + t as f64, 100.0),
                vel: moist::spatial::Velocity::new(1.0, 0.0),
                ts: Timestamp::from_secs(t * 10),
            })
            .unwrap();
    }
    // Records age after 600 s: this cut-off is at 170 s.
    let moved = cluster.age_data(Timestamp::from_secs(770)).unwrap();
    assert!(moved > 0);
    // Current position and NN still come from the hot path.
    let p = cluster
        .position(ObjectId(1), Timestamp::from_secs(190))
        .unwrap()
        .unwrap();
    assert_eq!(p.x, 119.0);
    let (nn, _) = cluster
        .nn(Point::new(119.0, 100.0), 1, Timestamp::from_secs(190))
        .unwrap();
    assert_eq!(nn[0].oid, ObjectId(1));
}
