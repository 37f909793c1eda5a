//! Figure 14 (repo extension) — front-end scale-out on the road network.
//!
//! The paper's deployment-shape claim (§4.3.3): update throughput scales
//! with the number of front-end servers sharing one BigTable until the
//! store's write capacity caps it, and object schools multiply the
//! *client-visible* rate on top — "with 10 servers and object schools,
//! MOIST achieves update QPS of 60k, a nearly 80x speedup over Bx-tree".
//!
//! This bin drives a [`MoistCluster`] of 1/2/4/5/10 shards over the §4.1
//! road-network workload, its logical clients stepped in turn on one
//! thread ([`drive`]), so every point is a function of the seeds. Updates
//! route to shards by clustering-cell hash; each shard lazily clusters
//! only the cells it owns. Reported per shard count:
//!
//! * **store QPS** — non-shed updates per virtual second of the busiest
//!   shard (shards consume store time in parallel), clipped by the shared
//!   write-capacity model;
//! * **client-visible QPS** — `store QPS / (1 − shed ratio)`: the rate
//!   clients experience once schools shed the redundant updates.
//!
//! `--elastic` exercises the live-membership path instead: one cluster
//! grows 2 → 5 → 10 shards *mid-run* (rendezvous ownership; migrated
//! cells keep their clustering deadlines) and the windowed QPS
//! timeline around each join — the dip-and-recovery curve — is saved to
//! `bench_results/fig14_elastic.json`. Each window times its busiest
//! shard by that shard's own elapsed delta, so a joiner counts from 0.
//!
//! The clients used to run as OS threads, and the figure then read their
//! interleaving: two smoke runs differed by up to 3.9%, two full runs by
//! up to 10%. Stepping them on one thread moved the smoke points by up
//! to 2.8% (scale-out) and 4.4% (elastic), in either direction. At full
//! size the one-shard point moved most: its shed ratio rose from 78% to
//! 84%, so store QPS fell 18% and client-visible QPS rose 12%. Those
//! parts of the old figure measured the interleaving, not the tier.

use moist::bigtable::Bigtable;
use moist::core::MoistCluster;
use moist_bench::{drive, pick, road_clients, tier_config, Figure, Series, Window};

struct Scale {
    shard_counts: &'static [usize],
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    measure_secs: f64,
}

const FULL: Scale = Scale {
    shard_counts: &[1, 2, 4, 5, 10],
    clients: 4,
    agents_per_client: 1200,
    warmup_secs: 60.0,
    measure_secs: 240.0,
};

const SMOKE: Scale = Scale {
    shard_counts: &[1, 2, 4],
    clients: 2,
    agents_per_client: 300,
    warmup_secs: 30.0,
    measure_secs: 60.0,
};

/// The elastic scenario: grow the fleet at fixed simulated times and
/// measure windowed throughput around each join.
struct ElasticScale {
    start_shards: usize,
    /// `(join at sim secs, target live shard count)`, in time order.
    joins: &'static [(f64, usize)],
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    window_secs: f64,
    end_secs: f64,
}

const ELASTIC_FULL: ElasticScale = ElasticScale {
    start_shards: 2,
    joins: &[(120.0, 5), (240.0, 10)],
    clients: 4,
    agents_per_client: 1200,
    warmup_secs: 60.0,
    window_secs: 20.0,
    end_secs: 360.0,
};

const ELASTIC_SMOKE: ElasticScale = ElasticScale {
    start_shards: 2,
    joins: &[(60.0, 3), (100.0, 4)],
    clients: 2,
    agents_per_client: 300,
    warmup_secs: 30.0,
    window_secs: 10.0,
    end_secs: 140.0,
};

/// `(store QPS, client-visible QPS, shed ratio)` over the measured run.
fn run_one(shards: usize, scale: &Scale) -> (f64, f64, f64) {
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, tier_config(50.0))
        .shards(shards)
        .build()
        .expect("cluster");
    let mut sims = road_clients(scale.clients, scale.agents_per_client, 4000);
    // Warm-up: register everyone and let schools form, then measure from a
    // clean clock.
    drive(&cluster, &mut sims, scale.warmup_secs, 5.0, false);
    cluster.reset_clocks();
    let w = Window::open(&cluster);
    let until = scale.warmup_secs + scale.measure_secs;
    drive(&cluster, &mut sims, until, 5.0, false);
    let w = w.close(&cluster);
    assert!(w.ops.balanced(), "outcome counters must sum: {:?}", w.ops);
    (w.store_qps(true), w.client_qps(true), w.ops.shed_ratio())
}

fn run_elastic(scale: &ElasticScale) {
    let store = Bigtable::new();
    let cfg = tier_config(50.0);
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(scale.start_shards)
        .build()
        .expect("cluster");
    let mut sims = road_clients(scale.clients, scale.agents_per_client, 5000);
    drive(&cluster, &mut sims, scale.warmup_secs, 5.0, false);
    cluster.reset_clocks();

    let mut qps_series = Series::new("client-visible QPS");
    let mut shard_series = Series::new("live shards");
    let mut joins = scale.joins.iter().peekable();
    let mut t = scale.warmup_secs;
    println!(
        "{:>8}  {:>7}  {:>10}  {:>7}",
        "sim sec", "shards", "client q/s", "shed %"
    );
    while t < scale.end_secs {
        // Grow the fleet live at the scheduled joins: each add_shard
        // migrates only the joiner's rendezvous wins, re-seeded at their
        // old deadline phase — the whole point of the elastic tier.
        if let Some(&(_, target)) = joins.next_if(|&&(at, _)| t >= at) {
            while cluster.num_shards() < target {
                cluster.add_shard().expect("live join");
            }
            let epoch = cluster.cluster_stats().epoch;
            println!("    -- joined to {target} shards (epoch {epoch}) --");
        }
        let window_end = (t + scale.window_secs).min(scale.end_secs);
        let w = Window::open(&cluster);
        drive(&cluster, &mut sims, window_end, 5.0, false);
        let w = w.close(&cluster);
        let (client_qps, live) = (w.client_qps(true), w.end.shards.len());
        let shed_pct = w.ops.shed_ratio() * 100.0;
        println!("{window_end:>8.0}  {live:>7}  {client_qps:>10.0}  {shed_pct:>6.1}%");
        qps_series.push(window_end, client_qps);
        shard_series.push(window_end, live as f64);
        t = window_end;
    }

    // Sanity: the fleet reached the target, no update went unaccounted,
    // and the grown fleet's ownership is still an exact partition.
    let final_target = scale.joins.last().map_or(scale.start_shards, |&(_, n)| n);
    assert_eq!(cluster.num_shards(), final_target);
    let agg = cluster.cluster_stats();
    assert!(
        agg.ops.balanced(),
        "outcome counters must sum: {:?}",
        agg.ops
    );
    let owned: usize = agg.shards.iter().map(|s| s.primary_keys).sum();
    let cells = moist::spatial::cells_at_level(cfg.clustering_level);
    assert_eq!(owned as u64, cells, "grown fleet must partition the level");

    let mut fig = Figure::new(
        "fig14_elastic",
        "Elastic scale-out: windowed client-visible QPS across live shard joins (road network)",
        "simulated seconds",
        "updates/s",
    );
    fig.add(qps_series);
    fig.add(shard_series);
    fig.print();
    fig.save().expect("save");
    println!(
        "elastic run complete: {} -> {final_target} shards across {} epochs",
        scale.start_shards, agg.epoch
    );
}

fn main() {
    if std::env::args().any(|a| a == "--elastic") {
        run_elastic(pick(&ELASTIC_FULL, &ELASTIC_SMOKE));
        return;
    }
    let scale = pick(&FULL, &SMOKE);
    let mut fig = Figure::new(
        "fig14_scaleout",
        "Scale-out: client-visible update QPS vs #front-end shards (road network)",
        "shards",
        "updates/s",
    );
    let mut client_series = Series::new("client-visible QPS");
    let mut store_series = Series::new("store QPS");
    for &n in scale.shard_counts {
        let (store_qps, client_qps, shed) = run_one(n, scale);
        println!(
            "{n:>2} shard(s): store {store_qps:>9.0} q/s  shed {:>5.1}%  client-visible {client_qps:>9.0} q/s",
            shed * 100.0
        );
        client_series.push(n as f64, client_qps);
        store_series.push(n as f64, store_qps);
    }
    // Client-visible QPS must not fall across 1 -> 2 -> 4 shards.
    let upto4: Vec<f64> = client_series
        .points
        .iter()
        .filter(|&&(n, _)| n <= 4.0)
        .map(|&(_, q)| q)
        .collect();
    let monotonic = upto4.windows(2).all(|p| p[1] >= p[0]);
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
