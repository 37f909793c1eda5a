//! Figure 13 — update QPS (§4.3.2–4.3.3), with the §5 query mix.
//!
//! * `fig13 single`  — (a) single-server update QPS against the number of
//!   indexed objects (400k → 1M), ε = 0 worst case;
//! * `fig13 multi5`  — (b) update-QPS timeline with 5 front-end shards
//!   sharing one store;
//! * `fig13 multi10` — (c) the same with 10 shards: demand exceeds the
//!   store's write capacity, so throughput saturates around 60k QPS and
//!   wobbles, with the excess shown as failed queries (the paper's dashed
//!   line).
//!
//! The multi-server timelines drive a real [`MoistCluster`] (rendezvous
//! routing, load-aware placement, scatter-gather fan-out), not N isolated
//! servers: the updater threads route through the tier, and two extra
//! **querier threads** keep a region + NN mix in flight the whole run —
//! the paper's workload is "a large number of queries of different types"
//! (§4.1), so the headline fleet numbers include the fan-out paths, not
//! just pure update pressure. The region/NN timeline is reported as its
//! own `query QPS (noisy)` series. All three timeline series are
//! `(noisy)` — informational for the bench gate — because their
//! per-second buckets depend on wall-clock scheduling.
//!
//! Per-shard throughput comes from real updates charged by the cost model;
//! only the shared-capacity clip of the aggregate is modelled
//! (see `moist_bench::capacity_step`).

use moist::bigtable::{Bigtable, CostProfile, Timestamp};
use moist::core::{
    LfRecord, LocationRecord, MoistCluster, MoistConfig, MoistTables, ObjectId, UpdateMessage,
};
use moist::spatial::{Point, Rect};
use moist::workload::{ClientPool, UniformSim};
use moist_bench::{capacity_step, pick, Figure, Series};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bulk-loads `n` objects directly through the tables (free session), then
/// returns the store. The measured phase uses the public update path.
fn bulk_load(n: u64, cfg: &MoistConfig) -> Arc<Bigtable> {
    let store = Bigtable::new();
    let tables = MoistTables::create(&store, cfg).expect("tables");
    let mut s = store.session_with(CostProfile::free());
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let sim = UniformSim::new(world, n, 2.0, 5.0, 99);
    let ts = Timestamp::from_secs(1);
    for (oid, loc, vel) in sim.positions() {
        let leaf = cfg.space.leaf_cell(&loc).index;
        let rec = LocationRecord {
            loc,
            vel,
            leaf_index: leaf,
        };
        tables
            .put_location(&mut s, ObjectId(oid), &rec, ts)
            .expect("loc");
        tables
            .spatial_insert(&mut s, leaf, ObjectId(oid), &rec, ts)
            .expect("spatial");
        tables
            .set_lf(
                &mut s,
                ObjectId(oid),
                &LfRecord::Leader {
                    since_us: ts.0,
                    last_leaf: leaf,
                },
                ts,
            )
            .expect("lf");
    }
    store
}

/// Measures single-server update QPS at population `n`.
fn single_qps(n: u64, measured_updates: usize) -> f64 {
    let cfg = MoistConfig::without_schooling();
    let store = bulk_load(n, &cfg);
    let cluster = MoistCluster::builder(&store, cfg).build().expect("cluster");
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut sim = UniformSim::new(world, n, 2.0, 5.0, 7).with_velocity_walk(0.5);
    let updates = sim.next_updates(measured_updates);
    cluster.reset_clocks();
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

fn single() {
    let mut fig = Figure::new(
        "fig13a",
        "Single-server update QPS vs #indexed objects (ε = 0)",
        "objects",
        "update QPS",
    );
    let (populations, measured): (&[u64], usize) = pick(
        (&[400_000, 600_000, 800_000, 1_000_000], 50_000),
        (&[100_000, 200_000], 10_000),
    );
    let mut series = Series::new("update QPS");
    for &n in populations {
        let qps = single_qps(n, measured);
        println!("{n:>9} objects: {qps:>8.0} updates/s");
        series.push(n as f64, qps);
    }
    fig.add(series);
    fig.print();
    fig.save().expect("save");
}

/// What one fig13 worker produced: per-second completed-op counts, on the
/// tier's virtual timeline (busiest-shard seconds).
enum WorkerBuckets {
    Updates(Vec<f64>),
    Queries(Vec<f64>),
}

/// Multi-server timeline: a `MoistCluster` of `servers` shards driven by
/// `servers` updater threads plus two querier threads (region + NN) for
/// `horizon_secs` of busiest-shard virtual time; the aggregate per-second
/// update demand is clipped by the store capacity model, and the query
/// timeline is reported alongside it.
fn multi(servers: usize, horizon_secs: u64, fig_id: &str, population: u64) {
    let cfg = MoistConfig::without_schooling();
    let store = bulk_load(population, &cfg);
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(servers)
        .build()
        .expect("cluster");
    let queriers = 2usize;
    println!("loaded {population} objects; driving {servers} shards + {queriers} queriers...");
    let horizon = horizon_secs as usize;
    let updaters_running = AtomicUsize::new(servers);
    // The shared virtual clock: the tier's makespan (its busiest shard's
    // elapsed time), sampled per batch.
    let tier_sec = |cluster: &MoistCluster| {
        let shards = cluster.cluster_stats().shards;
        let busiest_us = shards.iter().map(|s| s.elapsed_us).fold(0.0, f64::max);
        (busiest_us / 1e6) as usize
    };
    let per_worker: Vec<WorkerBuckets> = ClientPool::run(servers + queriers, |i| {
        if i < servers {
            // Updater: one simulated fleet slice routed through the tier.
            let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
            let mut sim = UniformSim::new(world, population, 2.0, 5.0, 1000 + i as u64)
                .with_velocity_walk(0.5);
            let mut buckets = vec![0.0f64; horizon];
            'outer: loop {
                // Batch between clock samples: a stats rollup visits every
                // shard, far too hot to pay per update.
                let batch = sim.next_updates(512);
                let sec = tier_sec(&cluster);
                if sec >= horizon {
                    break 'outer;
                }
                for u in &batch {
                    cluster
                        .update(&UpdateMessage {
                            oid: ObjectId(u.oid),
                            loc: u.loc,
                            vel: u.vel,
                            ts: Timestamp::from_secs_f64(1.0 + u.at_secs),
                        })
                        .expect("update");
                    buckets[sec] += 1.0;
                }
            }
            updaters_running.fetch_sub(1, Ordering::SeqCst);
            WorkerBuckets::Updates(buckets)
        } else {
            // Querier: a region + NN mix in flight for the whole run —
            // scattered plans fan out across the same shards absorbing
            // the update stream.
            let mut buckets = vec![0.0f64; horizon];
            let at = Timestamp::from_secs(1);
            let mut q = 0u64;
            while updaters_running.load(Ordering::SeqCst) > 0 {
                let f = (q % 17) as f64 / 17.0;
                let (cx, cy) = (80.0 + 840.0 * f, 80.0 + 840.0 * (1.0 - f));
                let sec = tier_sec(&cluster);
                if sec >= horizon {
                    // Updaters may still be filling the tail; only our
                    // bucketing stops.
                    break;
                }
                if i == servers {
                    let side = if q.is_multiple_of(8) { 500.0 } else { 120.0 };
                    let rect = Rect::new(
                        cx - side / 2.0,
                        cy - side / 2.0,
                        cx + side / 2.0,
                        cy + side / 2.0,
                    );
                    cluster.region(&rect, at, 0.0).expect("region");
                } else {
                    cluster.nn(Point::new(cx, cy), 10, at).expect("nn");
                }
                buckets[sec] += 1.0;
                q += 1;
            }
            WorkerBuckets::Queries(buckets)
        }
    });
    let mut fig = Figure::new(
        fig_id,
        format!("Update + query QPS timeline, {servers} shards sharing one store"),
        "second",
        "ops/s",
    );
    // "(noisy)" marks a series as informational for bench_trend. The
    // queriers issue whatever fits between the updaters' lock holds, so
    // their per-second counts depend on wall-clock scheduling (±45%
    // observed). The update series inherit it: their buckets are virtual
    // seconds of the busiest shard, but which shard is busiest when is
    // decided by threads racing in wall-clock, and the smoke run moves
    // −20…−60% between two runs of one binary on a 2-core host — far too
    // wobbly for a 15% gate.
    let mut served_series = Series::new("served QPS (noisy)");
    let mut failed_series = Series::new("failed QPS (dashed) (noisy)");
    let mut query_series = Series::new("query QPS (noisy)");
    let mut total_served = 0.0;
    let mut total_queries = 0.0;
    for sec in 0..horizon {
        let demand: f64 = per_worker
            .iter()
            .map(|b| match b {
                WorkerBuckets::Updates(b) => b[sec],
                WorkerBuckets::Queries(_) => 0.0,
            })
            .sum();
        let queries: f64 = per_worker
            .iter()
            .map(|b| match b {
                WorkerBuckets::Updates(_) => 0.0,
                WorkerBuckets::Queries(b) => b[sec],
            })
            .sum();
        let (served, failed) = capacity_step(demand, sec as u64, servers as u64);
        served_series.push(sec as f64, served);
        failed_series.push(sec as f64, failed);
        query_series.push(sec as f64, queries);
        total_served += served;
        total_queries += queries;
    }
    let avg = total_served / horizon_secs as f64;
    let avg_q = total_queries / horizon_secs as f64;
    fig.add(served_series);
    fig.add(failed_series);
    fig.add(query_series);
    fig.print();
    println!("\naverage served QPS over {horizon_secs}s: {avg:.0} (+ {avg_q:.0} region/NN q/s)");
    fig.save().expect("save");
}

fn main() {
    let (population, horizon) = pick((1_000_000, 30), (100_000, 5));
    // The mode is the first non-flag argument, wherever it sits relative
    // to `--smoke` (`fig13 --smoke single` must not fall back to `all`).
    let arg = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "single" => single(),
        "multi5" => multi(5, horizon, "fig13b", population),
        "multi10" => multi(10, horizon, "fig13c", population),
        _ => {
            single();
            multi(5, horizon, "fig13b", population);
            multi(10, horizon, "fig13c", population);
        }
    }
}
