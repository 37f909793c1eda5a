//! The paper's headline numbers (§1 and §4):
//!
//! 1. single-server MOIST (ε = 0, no schooling) vs the Bx-tree on update
//!    QPS at 1M objects — "8,000+ updates per second … 2x better than
//!    3,000+ QPS of Bx-tree";
//! 2. update shedding on the road network — "about 80% of the updates …
//!    are shed by object schools";
//! 3. the combined leverage — "with 10 servers and object schools, MOIST
//!    achieves update QPS of 60k …, showing a nearly 80x speedup over
//!    Bx-tree" (client-visible updates = store updates / (1 − shed)).
//!
//! The Bx-tree runs with the disk-B+-tree cost profile of the benchmark the
//! paper cites (its ref. 6); MOIST runs with the BigTable profile. Both indexes
//! execute their real algorithms; only the per-op cost constants differ.

use moist::baselines::{BxConfig, BxTree};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Rect, Space};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig, UniformSim};
use moist_bench::{disk_btree_profile, pick, Figure, Series, STORE_WRITE_CAPACITY_OPS};

fn moist_update_qps(n: u64, measured_updates: usize) -> f64 {
    let cfg = MoistConfig::without_schooling();
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg).build().expect("cluster");
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut sim = UniformSim::new(world, n, 2.0, 5.0, 5).with_velocity_walk(0.5);
    // Register everyone (charged, then reset).
    for (oid, loc, vel) in sim.positions() {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc,
                vel,
                ts: Timestamp::from_secs(1),
            })
            .expect("register");
    }
    cluster.reset_clocks();
    let updates = sim.next_updates(measured_updates);
    for u in &updates {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(u.oid),
                loc: u.loc,
                vel: u.vel,
                ts: Timestamp::from_secs_f64(1.0 + u.at_secs),
            })
            .expect("update");
    }
    updates.len() as f64 / (cluster.total_elapsed_us() / 1e6)
}

fn bx_update_qps(n: u64, measured_updates: usize) -> f64 {
    let store = Bigtable::new();
    let mut tree = BxTree::new(
        &store,
        Space::paper_map(),
        BxConfig {
            v_max: 3.0,
            ..BxConfig::default()
        },
        "bx_headline",
    )
    .expect("bxtree");
    let mut session = store.session_with(disk_btree_profile());
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut sim = UniformSim::new(world, n, 2.0, 5.0, 5).with_velocity_walk(0.5);
    for (oid, loc, vel) in sim.positions() {
        tree.update(&mut session, oid, &loc, &vel, Timestamp::from_secs(1))
            .expect("insert");
    }
    session.reset();
    let updates = sim.next_updates(measured_updates);
    for u in &updates {
        tree.update(
            &mut session,
            u.oid,
            &u.loc,
            &u.vel,
            Timestamp::from_secs_f64(1.0 + u.at_secs),
        )
        .expect("update");
    }
    updates.len() as f64 / (session.elapsed_us() / 1e6)
}

/// The §1 shed claim, measured on the road network at school-friendly
/// parameters (dense co-movement, generous ε — the deployment regime).
fn shed_ratio(agents: u64, horizon_secs: f64) -> f64 {
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 1,
        ..MoistConfig::default()
    };
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, cfg).build().expect("cluster");
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents,
            seed: 77,
            ..SimConfig::default()
        },
    );
    let mut t = 0.0;
    while t < horizon_secs {
        t += 10.0;
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
            .expect("cluster");
    }
    cluster.stats().shed_ratio()
}

fn main() {
    // Smoke mode (CI): a small population and few updates — the numbers
    // drift from the paper's but every code path still runs end to end.
    let (population, measured, shed_agents, shed_secs) = pick(
        (1_000_000, 30_000, 1000, 240.0),
        (60_000, 5_000, 300, 120.0),
    );
    println!("measuring single-server update QPS at {population} objects...");
    let moist_qps = moist_update_qps(population, measured);
    let bx_qps = bx_update_qps(population, measured);
    println!("measuring road-network shed ratio ({shed_agents} objects, {shed_secs} s)...");
    let shed = shed_ratio(shed_agents, shed_secs);

    let ten_server_store_qps = (10.0 * moist_qps).min(STORE_WRITE_CAPACITY_OPS);
    let effective_qps = ten_server_store_qps / (1.0 - shed).max(0.05);

    let mut fig = Figure::new(
        "headline",
        format!("Headline update-QPS comparison ({population} objects)"),
        "row",
        "updates/s",
    );
    let mut series = Series::new("updates/s");
    series.push(1.0, bx_qps);
    series.push(2.0, moist_qps);
    series.push(3.0, ten_server_store_qps);
    series.push(4.0, effective_qps);
    fig.add(series);
    fig.save().expect("save");

    println!("\n================= headline results =================");
    println!("  [1] Bx-tree single server:            {bx_qps:>10.0} updates/s");
    println!("  [2] MOIST single server (no school):  {moist_qps:>10.0} updates/s");
    println!("  [3] MOIST 10 servers (store-limited): {ten_server_store_qps:>10.0} updates/s");
    println!(
        "  [4] + schooling shed ratio {:>5.1}%  ->  {effective_qps:>10.0} client updates/s",
        shed * 100.0
    );
    println!("----------------------------------------------------");
    println!(
        "  MOIST single vs Bx:       {:>6.1}x   (paper: ~2x, 8k vs 3k)",
        moist_qps / bx_qps
    );
    println!(
        "  10 servers vs single:     {:>6.1}x   (paper: near-linear, store-capped)",
        ten_server_store_qps / moist_qps
    );
    println!(
        "  effective vs Bx:          {:>6.1}x   (paper: 'nearly 80x')",
        effective_qps / bx_qps
    );
}
