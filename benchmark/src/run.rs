//! One run of one workload: generate inputs, set up, measure the window,
//! check the answers, set up again for `setup_s`, and (traced runs only)
//! take the per-layer measurements. Every number a run reports of its
//! window comes from the workload's own traffic.

use crate::env::{self, Fail, Load, Tier};
use crate::ops::{self, Rng, Sliced};
use crate::oracle::{self, Report};
use crate::report::Metrics;
use crate::spec::{Traffic, Workload, AUDIT_OBJECTS, NN_K, ORACLE_QUERIES, SETUP_REPEATS, SHARDS};
use crate::window::{self, region_margin, Window};
use crate::{layers, trace};
use moist::bigtable::{Bigtable, MetricsSnapshot, Timestamp};
use moist::core::{MoistCluster, ObjectId, ServerStats};
use std::time::Instant;

/// The result of a run: the metrics, and the operations behind them.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// What the window changed in the system's own counters.
pub struct Deltas {
    pub server: ServerStats,
    pub store: MetricsSnapshot,
    pub submitted: u64,
    pub refused: u64,
    pub batches: u64,
    pub flushed: u64,
}

fn server_delta(after: &ServerStats, before: &ServerStats) -> ServerStats {
    ServerStats {
        updates: after.updates - before.updates,
        shed: after.shed - before.shed,
        leader_updates: after.leader_updates - before.leader_updates,
        registered: after.registered - before.registered,
        departures: after.departures - before.departures,
        nn_queries: after.nn_queries - before.nn_queries,
        cluster_runs: after.cluster_runs - before.cluster_runs,
    }
}

/// A seeded sample of objects whose `position` must lie within the audit
/// tolerance of their last accepted report (exactly on it when ε = 0).
fn audit(
    w: &Workload,
    cluster: &MoistCluster,
    reports: &[Option<Report>],
    seed: u64,
) -> Result<(), Fail> {
    let mut rng = Rng::new(seed, 400);
    let tol = w.audit_tolerance();
    for _ in 0..AUDIT_OBJECTS {
        let oid = rng.below(reports.len());
        let Some(report) = &reports[oid] else {
            continue;
        };
        let got = cluster
            .position(ObjectId(oid as u64), report.ts)
            .map_err(|e| format!("position({oid}): {e}"))?;
        oracle::check_position(oid as u64, report, got, tol)?;
    }
    Ok(())
}

/// A seeded sample of NN and region answers against the brute-force
/// reference over the harness's own last reports.
fn check_queries(
    w: &Workload,
    cluster: &MoistCluster,
    reports: &[Option<Report>],
    at: Timestamp,
    seed: u64,
) -> Result<(), Fail> {
    let mut rng = Rng::new(seed, 401);
    let tol = w.query_tolerance();
    let margin = region_margin(w);
    for c in ops::nn_centres(&mut rng, ORACLE_QUERIES, 0.25) {
        let (answer, _) = cluster
            .nn(c, NN_K, at)
            .map_err(|e| format!("nn check query: {e}"))?;
        oracle::check_nn(reports, &c, at, NN_K, &answer, tol)?;
    }
    for r in ops::region_rects(&mut rng, ORACLE_QUERIES) {
        let (answer, _) = cluster
            .region(&r, at, margin)
            .map_err(|e| format!("region check query: {e}"))?;
        oracle::check_region(reports, &r, at, &answer, tol)?;
    }
    Ok(())
}

/// `durable`'s ending: the tier and the store are dropped with no
/// checkpoint, as a crashed process leaves them, and recovered from the
/// log. Returns the recovery time (the `recover` call to the first answered
/// `position`), the replay rate, and the recovered tier.
fn crash_and_recover(
    w: &Workload,
    tier: Tier,
    win: &Window,
    reports: &[Option<Report>],
) -> Result<(f64, f64, Tier), Fail> {
    let Tier {
        store,
        cluster,
        wal_dir,
        ..
    } = tier;
    let appended = store.metrics_snapshot().wal_appends - win.appends_at_last_checkpoint;
    drop(cluster);
    drop(store);
    let dir = wal_dir.ok_or("durable tier has no log directory")?;

    let started = Instant::now();
    let (store, cluster, report) = MoistCluster::builder(&Bigtable::new(), w.config())
        .shards(SHARDS)
        .ingest(moist::core::IngestConfig::default())
        .recover(env::store_config(Some(dir.path())))
        .map_err(|e| format!("recover: {e}"))?;
    let replayed_s = started.elapsed().as_secs_f64();
    let (first_oid, first) = reports
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.map(|r| (i, r)))
        .ok_or("no object was ever reported")?;
    cluster
        .position(ObjectId(first_oid as u64), first.ts)
        .map_err(|e| format!("position after recovery: {e}"))?
        .ok_or("first object lost in recovery")?;
    let recovery_s = started.elapsed().as_secs_f64();

    if report.replayed_records != appended {
        return Err(format!(
            "recovery replayed {} records, {} were appended since the last checkpoint",
            report.replayed_records, appended
        ));
    }
    let recovered = Tier {
        store,
        cluster,
        wal_dir: Some(dir),
    };
    let rate = report.replayed_records as f64 / replayed_s.max(1e-9);
    Ok((recovery_s, rate, recovered))
}

pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, Fail> {
    let origin = Instant::now();
    let mut m = Metrics::default();
    let mut phase_started = origin;
    // Notes how long the phase that just ended took.
    let mut phase = |m: &mut Metrics, name: &str| {
        let secs = phase_started.elapsed().as_secs_f64();
        m.note(&format!("phase.{name}_s"), secs);
        phase_started = Instant::now();
    };

    // Inputs: the populations and the warm-up stream, from the seed.
    let mut load = Load::generate(w, seed);
    let mut gen_s = origin.elapsed().as_secs_f64();
    phase(&mut m, "generate");

    // The first set-up builds the tier that is measured; the others, for
    // `setup_s`, come after the window so that the process's peak memory
    // is that of one tier.
    let (tier, first_setup_s) = env::set_up(w, &load, SHARDS)?;
    let warm_end = Timestamp::from_secs_f64(load.warm_end_secs);
    phase(&mut m, "set_up");

    // The window.
    let stats_before = tier.cluster.stats();
    let store_before = tier.store.metrics_snapshot();
    let ingest_before = tier.cluster.ingest_stats();
    let mut win = match w.traffic {
        Traffic::SyncWriters | Traffic::DurableSubmit => {
            window::writers(w, &tier, &mut load, seconds, origin, traced)?
        }
        Traffic::Readers => window::readers(w, &tier, &load, seed, seconds, origin, traced),
        Traffic::RushHour => window::rush_hour(w, &tier, &mut load, seed, seconds, origin, traced)?,
    };
    phase(&mut m, "window");
    gen_s += win.gen_s;
    let now = Timestamp::from_secs_f64(win.end_secs);

    // Answer checks. Any failure ends the run with no metrics.
    let stats_after = tier.cluster.stats();
    let ingest_after = tier.cluster.ingest_stats();
    let deltas = Deltas {
        server: server_delta(&stats_after, &stats_before),
        store: tier.store.metrics_snapshot().delta(&store_before),
        submitted: ingest_after.submitted - ingest_before.submitted,
        refused: (ingest_after.backpressure + ingest_after.overload_shed)
            - (ingest_before.backpressure + ingest_before.overload_shed),
        batches: ingest_after.batches - ingest_before.batches,
        flushed: ingest_after.flushed_updates - ingest_before.flushed_updates,
    };
    m.note(
        "window.shed_share",
        deltas.server.shed as f64 / deltas.server.updates.max(1) as f64,
    );
    if !stats_after.balanced() || !deltas.server.balanced() {
        return Err(format!(
            "update counters do not balance over the window: {:?}",
            deltas.server
        ));
    }
    let reports = load.reports();
    audit(w, &tier.cluster, &reports, seed)?;
    check_queries(w, &tier.cluster, &reports, now, seed)?;
    m.set("peak_rss_mb", env::peak_rss_mb());
    let mut tier = tier;
    if w.durable() {
        let (recovery_s, replay_rate, recovered) = crash_and_recover(w, tier, &win, &reports)?;
        audit(w, &recovered.cluster, &reports, seed ^ 1)?;
        m.set("recovery_s", recovery_s);
        m.set("wal.replay_records_per_s", replay_rate);
        m.set(
            "wal_bytes_per_user_byte",
            deltas.store.wal_bytes as f64 / deltas.store.bytes_written.max(1) as f64,
        );
        tier = recovered;
    }
    phase(&mut m, "checks");

    // The remaining set-ups; a traced run keeps the last for its replays.
    let mut setup_times = vec![first_setup_s];
    let mut spare = None;
    for _ in 1..SETUP_REPEATS {
        drop(spare.take());
        let (again, secs) = env::set_up(w, &load, SHARDS)?;
        setup_times.push(secs);
        spare = traced.then_some(again);
    }
    m.set("setup_s", env::median(&setup_times));
    phase(&mut m, "set_up_again");

    // Medians over the window's slices, for the operations this workload's
    // own traffic has.
    let (mut attempted, mut failed) = (0, 0);
    let mut report = |prefix: &str, sliced: &Sliced, rate: Option<&str>| -> Result<(), Fail> {
        if sliced.ops() == 0 {
            return Ok(());
        }
        if !sliced.supports(0.99) {
            return Err(format!(
                "{prefix}: {} samples cannot carry a p99",
                sliced.ops()
            ));
        }
        for (i, (per_s, p50_us)) in sliced.by_slice().into_iter().enumerate() {
            m.note(&format!("slice.{prefix}.{i}.per_s"), per_s);
            m.note(&format!("slice.{prefix}.{i}.p50_us"), p50_us);
        }
        if let Some(name) = rate {
            m.set_sampled(name, sliced.per_s(), sliced.ops());
        }
        for (q, suffix) in [(0.5, "p50_us"), (0.99, "p99_us")] {
            let name = format!("{prefix}_{suffix}");
            m.set_sampled(&name, sliced.quantile(q) / 1e3, sliced.ops());
        }
        attempted += sliced.ops();
        failed += sliced.failed();
        Ok(())
    };
    // The paced writer's rate is its schedule's, no measure of the tier.
    let paced = w.traffic == Traffic::RushHour;
    report("update", &win.update, (!paced).then_some("updates_per_s"))?;
    if let Some(reads) = &win.reads {
        report("nn", &reads.nn, Some("nn_per_s"))?;
        report("region", &reads.region, Some("region_per_s"))?;
    }
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);

    if let Some(spare) = spare {
        // A workload with no updates of its own still has its stream: the
        // replay and the probes take their sample inputs from its next tick.
        if win.first_chunk.is_empty() {
            load.clients[0].next_chunk(&mut win.first_chunk);
        }
        let ctx = layers::Ctx {
            w,
            seed,
            main: &tier,
            spare,
            load: &mut load,
            win: &win,
            deltas: &deltas,
            gen_s,
            warm_end,
            origin,
        };
        let replay_spans = layers::measure(ctx, &mut m)?;
        phase(&mut m, "layers");
        let mut spans = win.spans.clone();
        spans.extend(replay_spans);
        for (name, (count, total_ns, self_ns)) in trace::summarize(&spans) {
            m.note(&format!("span.{name}.count"), count as f64);
            m.note(&format!("span.{name}.total_ms"), total_ns as f64 / 1e6);
            m.note(&format!("span.{name}.self_ms"), self_ns as f64 / 1e6);
        }
        let path = env::out_dir().join(format!("trace_{}.json", w.name));
        let json = trace::to_json(w.name, seed, &spans, &m.derived_json());
        std::fs::create_dir_all(env::out_dir())
            .and_then(|_| std::fs::write(&path, json))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}
