//! Figure 18 (repo extension) — batched, pipelined ingestion vs the
//! synchronous per-call tier.
//!
//! §4.1's cost model gives batched writes a steep discount: a MutateRows
//! RPC pays the 15 µs base once for the whole batch plus ~0.5 µs per row,
//! where per-call writes pay the base *per update*. The pipelined tier
//! ([`MoistCluster::submit`] + bounded per-shard queues + batched
//! [`MoistCluster::update_batch`] apply) exists to harvest that discount;
//! this bin measures how much of it survives end to end on the §4.1
//! road-network workload.
//!
//! Two sweeps, both against the synchronous [`MoistCluster::update`] path
//! as the baseline tier:
//!
//! * **scale-out** — client-visible QPS vs shard count (1/2/4/5/10) for
//!   both tiers. Asserts the pipelined tier beats the baseline at the
//!   largest fleet by ≥ 2× (full) / ≥ 1.2× (smoke).
//! * **latency-vs-throughput** — at the largest fleet, batch size ×
//!   in-flight limit (`queue_cap = batch × in-flight`) trade queue wait
//!   against batching efficiency: bigger batches amortize more RPC base
//!   but strand updates in the buffer longer.
//!
//! Unlike fig14, **store QPS here is deliberately uncapped** (no
//! `STORE_WRITE_CAPACITY_OPS` clip, which models a per-op write
//! ceiling): the batch discount's whole point is that one MutateRows RPC
//! carries many updates past a per-op ceiling, so clipping both tiers at
//! the per-op cap would erase exactly the effect under measurement. The
//! baseline is derived uncapped too, so the comparison stays apples to
//! apples. Client-visible QPS divides by the *school* shed ratio only —
//! overload sheds and backpressure are separate [`IngestStats`](moist::core::IngestStats) counters
//! (none fire at these queue depths; asserted below) and never inflate
//! the client-visible rate.

use moist::bigtable::Bigtable;
use moist::core::{IngestConfig, MoistCluster};
use moist_bench::{drive, pick, road_clients, tier_config, Figure, Series, Window, WindowStats};

struct Scale {
    shard_counts: &'static [usize],
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    measure_secs: f64,
    /// The pipelined tier's batch size in the scale-out sweep.
    batch_size: usize,
    /// `(batch_size, in_flight)` points for the latency/throughput sweep,
    /// run at the largest shard count.
    sweep: &'static [(usize, usize)],
    /// Required pipelined-over-baseline client-QPS ratio at the largest
    /// shard count.
    min_speedup: f64,
}

const FULL: Scale = Scale {
    shard_counts: &[1, 2, 4, 5, 10],
    clients: 4,
    agents_per_client: 1200,
    warmup_secs: 60.0,
    measure_secs: 240.0,
    batch_size: 64,
    sweep: &[(16, 2), (16, 8), (64, 2), (64, 8), (256, 2), (256, 8)],
    min_speedup: 2.0,
};

const SMOKE: Scale = Scale {
    shard_counts: &[1, 2, 4],
    clients: 2,
    agents_per_client: 300,
    warmup_secs: 30.0,
    measure_secs: 60.0,
    batch_size: 32,
    sweep: &[(8, 2), (8, 4), (32, 2), (32, 4)],
    min_speedup: 1.2,
};

/// Mean virtual µs of shard apply time charged per update (the clocks
/// were reset when the window opened).
fn apply_us(w: &WindowStats) -> f64 {
    let total_us: f64 = w.end.shards.iter().map(|s| s.elapsed_us).sum();
    total_us / w.ops.updates.max(1) as f64
}

/// One measured run. Its QPS is deliberately uncapped — see the module
/// doc. The shed ratio is the *school* ratio only; overload sheds live in
/// `ingest.overload_shed` and are excluded by construction.
fn run_one(shards: usize, scale: &Scale, ingest: Option<IngestConfig>) -> WindowStats {
    let store = Bigtable::new();
    let pipelined = ingest.is_some();
    let mut builder = MoistCluster::builder(&store, tier_config(50.0)).shards(shards);
    if let Some(icfg) = ingest {
        builder = builder.ingest(icfg);
    }
    let cluster = builder.build().expect("cluster");
    let sims = road_clients(scale.clients, scale.agents_per_client, 4000);
    // Warm-up: register everyone and let schools form, then measure from a
    // clean clock and clean (drained) queues.
    drive(&cluster, &sims, scale.warmup_secs, 5.0, pipelined);
    cluster.reset_clocks();
    let w = Window::open(&cluster);
    let until = scale.warmup_secs + scale.measure_secs;
    drive(&cluster, &sims, until, 5.0, pipelined);
    let w = w.close(&cluster);
    let (d, di) = (w.ops, w.ingest);
    assert!(d.balanced(), "outcome counters must sum: {d:?}");
    if pipelined {
        assert_eq!(di.queued, 0, "measurement must end drained");
        assert_eq!(
            di.flushed_updates, d.updates,
            "every applied update must have gone through the queues"
        );
        assert_eq!(di.overload_shed, 0, "Reject policy must never shed");
    }
    // Cross-layer consistency: the tier's rollup of load-loss signals
    // (school sheds in `ops`, queue losses in `refused()`) must equal the
    // independently read counters, or a client-QPS derivation somewhere
    // is lying about lost updates.
    let ingest_all = cluster.ingest_stats();
    assert_eq!(
        w.end.ops.shed + w.end.refused(),
        cluster.stats().shed + ingest_all.backpressure + ingest_all.overload_shed,
        "ClusterStats must fold every load-loss signal"
    );
    w
}

fn main() {
    let scale = pick(&FULL, &SMOKE);
    let pipe_cfg = IngestConfig {
        batch_size: scale.batch_size,
        ..IngestConfig::default()
    };

    let mut fig = Figure::new(
        "fig18_ingest",
        "Pipelined ingestion: client-visible QPS vs shards, and batch-size/in-flight latency trade (road network)",
        "shards (scale-out series) / batch size (sweep series)",
        "updates/s (QPS series) / virtual us (latency series)",
    );
    let mut base_series = Series::new("baseline client QPS");
    let mut pipe_series = Series::new("pipelined client QPS");

    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>7}  {:>9}  {:>9}",
        "shards", "base st/s", "pipe st/s", "base q/s", "pipe q/s", "ratio", "wait us", "batch"
    );
    let mut last_ratio = 0.0;
    for &n in scale.shard_counts {
        let base = run_one(n, scale, None);
        let pipe = run_one(n, scale, Some(pipe_cfg));
        let (base_qps, pipe_qps) = (base.client_qps(false), pipe.client_qps(false));
        last_ratio = pipe_qps / base_qps.max(1e-9);
        println!(
            "{n:>6}  {:>10.0}  {:>10.0}  {base_qps:>10.0}  {pipe_qps:>10.0}  {last_ratio:>6.2}x  {:>9.1}  {:>9.1}",
            base.store_qps(false),
            pipe.store_qps(false),
            pipe.ingest.avg_queue_wait_us(),
            pipe.ingest.avg_batch()
        );
        base_series.push(n as f64, base_qps);
        pipe_series.push(n as f64, pipe_qps);
    }
    fig.add(base_series);
    fig.add(pipe_series);

    // Latency-vs-throughput sweep at the largest fleet: one QPS series and
    // one end-to-end latency series (queue wait + amortized apply) per
    // in-flight limit, indexed by batch size.
    let &max_shards = scale.shard_counts.last().expect("shard counts");
    println!("\nsweep at {max_shards} shards (batch x in-flight):");
    println!(
        "{:>6}  {:>9}  {:>10}  {:>9}  {:>9}  {:>6}",
        "batch", "in-flight", "pipe q/s", "wait us", "apply us", "bp"
    );
    // `(batch, in-flight, client QPS, latency us)` per sweep point.
    let mut runs: Vec<(f64, usize, f64, f64)> = Vec::new();
    for &(batch, in_flight) in scale.sweep {
        let m = run_one(
            max_shards,
            scale,
            Some(IngestConfig {
                batch_size: batch,
                queue_cap: batch * in_flight,
                ..IngestConfig::default()
            }),
        );
        let (qps, wait, apply) = (
            m.client_qps(false),
            m.ingest.avg_queue_wait_us(),
            apply_us(&m),
        );
        let bp = m.ingest.backpressure;
        println!("{batch:>6}  {in_flight:>9}  {qps:>10.0}  {wait:>9.1}  {apply:>9.1}  {bp:>6}");
        runs.push((batch as f64, in_flight, qps, wait + apply));
    }
    let mut in_flights: Vec<usize> = scale.sweep.iter().map(|&(_, f)| f).collect();
    in_flights.sort_unstable();
    in_flights.dedup();
    let points = |f: usize, y: fn(&(f64, usize, f64, f64)) -> f64| {
        let at_f = runs.iter().filter(|r| r.1 == f);
        at_f.map(|r| (r.0, y(r))).collect()
    };
    for &f in &in_flights {
        let label = format!("sweep client QPS (in-flight {f})");
        fig.add(Series::from_points(label, points(f, |r| r.2)));
    }
    // `(noisy)` opts the latency series out of the CI drop gate: latency
    // is lower-is-better, so a batching *improvement* would read as a
    // >15% "drop" and fail the job.
    for &f in &in_flights {
        let label = format!("sweep latency us (in-flight {f}) (noisy)");
        fig.add(Series::from_points(label, points(f, |r| r.3)));
    }
    fig.print();
    fig.save().expect("save");

    assert!(
        last_ratio >= scale.min_speedup,
        "pipelined tier must beat the synchronous baseline by >= {:.1}x at {} shards (got {:.2}x)",
        scale.min_speedup,
        max_shards,
        last_ratio
    );
    println!(
        "pipelined ingestion beats the synchronous tier {last_ratio:.2}x at {max_shards} shards"
    );
}
