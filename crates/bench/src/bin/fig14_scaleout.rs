//! Figure 14 (repo extension) — front-end scale-out on the road network.
//!
//! The paper's deployment-shape claim (§4.3.3): update throughput scales
//! with the number of front-end servers sharing one BigTable until the
//! store's write capacity caps it, and object schools multiply the
//! *client-visible* rate on top — "with 10 servers and object schools,
//! MOIST achieves update QPS of 60k, a nearly 80x speedup over Bx-tree".
//!
//! This bin drives a [`MoistCluster`] of 1/2/4/5/10 shards with a
//! `ClientPool` of OS threads (real lock contention on the shared
//! store) over the §4.1 road-network workload. Updates route to shards by
//! clustering-cell hash; each shard lazily clusters only the cells it
//! owns. Reported per shard count:
//!
//! * **store QPS** — non-shed updates per virtual second of the busiest
//!   shard (shards consume store time in parallel), clipped by the shared
//!   write-capacity model;
//! * **client-visible QPS** — `store QPS / (1 − shed ratio)`: the rate
//!   clients experience once schools shed the redundant updates.
//!
//! `--elastic` exercises the live-membership path instead: one cluster
//! grows 2 → 5 → 10 shards *mid-run* (rendezvous ownership, scheduler
//! re-seeding at the migrated cells' deadline phase) and the windowed QPS
//! timeline around each join — the dip-and-recovery curve — is saved to
//! `bench_results/fig14_elastic.json`.

use moist::bigtable::Bigtable;
use moist::core::{MoistCluster, MoistConfig};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use moist_bench::{drive, smoke_mode, stats_delta, Figure, Series, STORE_WRITE_CAPACITY_OPS};
use std::sync::Mutex;

struct Scale {
    shard_counts: Vec<usize>,
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    measure_secs: f64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            shard_counts: vec![1, 2, 4, 5, 10],
            clients: 4,
            agents_per_client: 1200,
            warmup_secs: 60.0,
            measure_secs: 240.0,
        }
    }

    fn smoke() -> Self {
        Scale {
            shard_counts: vec![1, 2, 4],
            clients: 2,
            agents_per_client: 300,
            warmup_secs: 30.0,
            measure_secs: 60.0,
        }
    }
}

struct Measured {
    store_qps: f64,
    client_qps: f64,
    shed: f64,
}

fn run_one(shards: usize, scale: &Scale) -> Measured {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(shards)
        .build()
        .expect("cluster");
    let sims: Vec<Mutex<RoadNetSim>> = (0..scale.clients)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: scale.agents_per_client,
                    seed: 4000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();
    // Warm-up: register everyone and let schools form, then measure from a
    // clean clock.
    drive(&cluster, &sims, scale.warmup_secs, 5.0, false);
    cluster.reset_clocks();
    let before = cluster.stats();
    drive(
        &cluster,
        &sims,
        scale.warmup_secs + scale.measure_secs,
        5.0,
        false,
    );
    let d = stats_delta(&cluster.stats(), &before);
    assert!(d.balanced(), "outcome counters must sum: {d:?}");

    let busiest_secs = cluster.max_elapsed_us() / 1e6;
    let non_shed = (d.updates - d.shed) as f64;
    let store_qps = (non_shed / busiest_secs).min(STORE_WRITE_CAPACITY_OPS);
    let shed = d.shed as f64 / d.updates.max(1) as f64;
    let client_qps = store_qps / (1.0 - shed).max(0.05);
    Measured {
        store_qps,
        client_qps,
        shed,
    }
}

/// The elastic scenario: grow the fleet at fixed simulated times and
/// measure windowed throughput around each join.
struct ElasticScale {
    start_shards: usize,
    /// `(join at sim secs, target live shard count)`, in time order.
    joins: Vec<(f64, usize)>,
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    window_secs: f64,
    end_secs: f64,
}

impl ElasticScale {
    fn full() -> Self {
        ElasticScale {
            start_shards: 2,
            joins: vec![(120.0, 5), (240.0, 10)],
            clients: 4,
            agents_per_client: 1200,
            warmup_secs: 60.0,
            window_secs: 20.0,
            end_secs: 360.0,
        }
    }

    fn smoke() -> Self {
        ElasticScale {
            start_shards: 2,
            joins: vec![(60.0, 3), (100.0, 4)],
            clients: 2,
            agents_per_client: 300,
            warmup_secs: 30.0,
            window_secs: 10.0,
            end_secs: 140.0,
        }
    }
}

fn run_elastic(scale: &ElasticScale, id: &str) {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(scale.start_shards)
        .build()
        .expect("cluster");
    let sims: Vec<Mutex<RoadNetSim>> = (0..scale.clients)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: scale.agents_per_client,
                    seed: 5000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();
    drive(&cluster, &sims, scale.warmup_secs, 5.0, false);
    cluster.reset_clocks();

    let mut qps_series = Series::new("client-visible QPS");
    let mut shard_series = Series::new("live shards");
    let mut joins = scale.joins.iter().copied().peekable();
    let mut t = scale.warmup_secs;
    println!(
        "{:>8}  {:>7}  {:>10}  {:>7}",
        "sim sec", "shards", "client q/s", "shed %"
    );
    while t < scale.end_secs {
        // Grow the fleet live at the scheduled joins: each add_shard
        // migrates only the joiner's rendezvous wins, re-seeded at their
        // old deadline phase — the whole point of the elastic tier.
        if let Some(&(at, target)) = joins.peek() {
            if t >= at {
                while cluster.num_shards() < target {
                    cluster.add_shard().expect("live join");
                }
                println!(
                    "    -- joined to {} shards (epoch {}) --",
                    target,
                    cluster.epoch()
                );
                joins.next();
            }
        }
        let window_end = (t + scale.window_secs).min(scale.end_secs);
        let before = cluster.stats();
        let elapsed_before = cluster.max_elapsed_us();
        drive(&cluster, &sims, window_end, 5.0, false);
        let d = stats_delta(&cluster.stats(), &before);
        let window_secs = (cluster.max_elapsed_us() - elapsed_before) / 1e6;
        let non_shed = (d.updates - d.shed) as f64;
        let store_qps = (non_shed / window_secs.max(1e-9)).min(STORE_WRITE_CAPACITY_OPS);
        let shed = d.shed as f64 / d.updates.max(1) as f64;
        let client_qps = store_qps / (1.0 - shed).max(0.05);
        println!(
            "{:>8.0}  {:>7}  {:>10.0}  {:>6.1}%",
            window_end,
            cluster.num_shards(),
            client_qps,
            shed * 100.0
        );
        qps_series.push(window_end, client_qps);
        shard_series.push(window_end, cluster.num_shards() as f64);
        t = window_end;
    }

    // Sanity: the fleet reached the target, no update went unaccounted,
    // and the grown fleet's ownership is still an exact partition.
    let final_target = scale
        .joins
        .last()
        .map(|&(_, n)| n)
        .unwrap_or(scale.start_shards);
    assert_eq!(cluster.num_shards(), final_target);
    let agg = cluster.stats();
    assert!(agg.balanced(), "outcome counters must sum: {agg:?}");
    let cells = moist::spatial::cells_at_level(cfg.clustering_level);
    let owned: usize = (0..cluster.num_shards())
        .map(|i| {
            cluster
                .with_shard(i, |s| s.scheduler().owned_count())
                .expect("live shard")
        })
        .sum();
    assert_eq!(owned as u64, cells, "grown fleet must partition the level");

    let mut fig = Figure::new(
        id,
        "Elastic scale-out: windowed client-visible QPS across live shard joins (road network)",
        "simulated seconds",
        "updates/s",
    );
    fig.add(qps_series);
    fig.add(shard_series);
    fig.print();
    fig.save().expect("save");
    println!(
        "elastic run complete: {} -> {} shards across {} epochs",
        scale.start_shards,
        final_target,
        cluster.epoch()
    );
}

fn main() {
    let smoke = smoke_mode();
    if std::env::args().any(|a| a == "--elastic") {
        let scale = if smoke {
            ElasticScale::smoke()
        } else {
            ElasticScale::full()
        };
        let id = if smoke {
            "fig14_elastic_smoke"
        } else {
            "fig14_elastic"
        };
        run_elastic(&scale, id);
        return;
    }
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig14_scaleout_smoke"
    } else {
        "fig14_scaleout"
    };
    let mut fig = Figure::new(
        id,
        "Scale-out: client-visible update QPS vs #front-end shards (road network)",
        "shards",
        "updates/s",
    );
    let mut client_series = Series::new("client-visible QPS");
    let mut store_series = Series::new("store QPS");
    let mut prev_client = 0.0;
    let mut monotonic = true;
    for &n in &scale.shard_counts {
        let m = run_one(n, &scale);
        println!(
            "{n:>2} shard(s): store {:>9.0} q/s  shed {:>5.1}%  client-visible {:>9.0} q/s",
            m.store_qps,
            m.shed * 100.0,
            m.client_qps
        );
        if n <= 4 && m.client_qps < prev_client {
            monotonic = false;
        }
        if n <= 4 {
            prev_client = m.client_qps;
        }
        client_series.push(n as f64, m.client_qps);
        store_series.push(n as f64, m.store_qps);
    }
    fig.add(client_series);
    fig.add(store_series);
    fig.print();
    fig.save().expect("save");
    assert!(
        monotonic,
        "client-visible QPS must scale monotonically across 1 -> 2 -> 4 shards"
    );
    println!("scaling 1 -> 2 -> 4 shards is monotonic");
}
