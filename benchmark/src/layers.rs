//! The per-layer measurements of a traced run.
//!
//! Three kinds of number (see README.md): counters the system keeps, read
//! as a delta over the window; probes that time direct calls to one layer's
//! public functions; and the decomposed replay, which pushes a sample of
//! the workload's own inputs through each level (cell math, record codec,
//! raw table operations, a bare `MoistServer`, a one-shard tier, the
//! four-shard tier) and attributes a typical operation's time to the
//! layers by successive differences of the levels' medians.

use crate::alloc_count::counted;
use crate::env::{self, Fail, Load, ScratchDir, Tier};
use crate::hist::Hist;
use crate::ops::{self, Rng};
use crate::report::Metrics;
use crate::run::Deltas;
use crate::spec::{Workload, NN_K, REPLAY_QUERIES, REPLAY_UPDATES, SHARDS};
use crate::trace::{Span, Tracer, ROOT};
use crate::window::{region_margin, Window};
use moist::archive::{HistoryRecord, PppArchiver, PppConfig};
use moist::bigtable::{
    Bigtable, ColumnFamily, CostProfile, Durability, MetricsSnapshot, Mutation, ReadOptions,
    RowKey, RowMutation, ScanRange, StoreConfig, Table, TableSchema, Timestamp,
};
use moist::core::{
    IngestConfig, LfRecord, LocationRecord, MoistCluster, MoistError, MoistServer, Neighbor,
    NnStats, QueryPool, RegionStats, UpdateMessage, UpdateOutcome,
};
use moist::spatial::{cover_rect, Point, Rect};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    /// The tier the window ran on.
    pub main: &'a Tier,
    /// An identical tier that has only been set up.
    pub spare: Tier,
    pub load: &'a mut Load,
    pub win: &'a Window,
    pub deltas: &'a Deltas,
    pub gen_s: f64,
    pub warm_end: Timestamp,
    pub origin: Instant,
}

/// Mean nanoseconds of `f` over `iters` calls.
fn per_iter(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The counters the system kept over the window.
fn window_counters(c: &Ctx, m: &mut Metrics) {
    let (d, s, win) = (&c.deltas.server, &c.deltas.store, c.win);
    let updates = d.updates as f64;
    m.set("school.shed_share", ratio(d.shed as f64, updates));
    m.set(
        "school.departure_share",
        ratio(d.departures as f64, updates),
    );
    m.set(
        "cluster.sweep_ms",
        ratio(win.sweep_ns as f64 / 1e6, win.sweeps as f64),
    );
    m.set(
        "cluster.sweep_share",
        ratio(win.sweep_ns as f64, win.busy_ns as f64),
    );
    m.set(
        "wal.bytes_per_append",
        ratio(s.wal_bytes as f64, s.wal_appends as f64),
    );
    m.set(
        "wal.fsyncs_per_1k_updates",
        ratio(1e3 * s.wal_fsyncs as f64, updates),
    );
    m.set("wal.checkpoint_ms", env::median(&win.checkpoint_ms));
    m.set(
        "ingest.avg_batch",
        ratio(c.deltas.flushed as f64, c.deltas.batches as f64),
    );
    m.set(
        "ingest.refused_share",
        ratio(c.deltas.refused as f64, c.deltas.submitted as f64),
    );
    m.set("harness.gen_s", c.gen_s);
    m.set("harness.late_share", win.late_share);
    m.set("harness.backlog_ratio", win.backlog_ratio);

    // What recording spans cost: the window's traced slices against its
    // untraced ones, which alternate.
    let rates = |traced: bool| -> Vec<f64> {
        let of_kind = win.slice_rates.iter().filter(|(t, _)| *t == traced);
        of_kind.map(|(_, per_s)| *per_s).collect()
    };
    m.set(
        "harness.trace_overhead_share",
        1.0 - ratio(env::median(&rates(true)), env::median(&rates(false))),
    );
}

/// A bare `MoistServer` on its own store, brought to the same state as the
/// tiers by the same warm-up stream. Returns the mean time of a
/// first-sight registration on the way.
fn bare_server(
    w: &Workload,
    load: &Load,
) -> Result<(MoistServer, Arc<Bigtable>, Option<ScratchDir>, f64), Fail> {
    let dir = if w.durable() {
        Some(ScratchDir::new("bare").map_err(|e| format!("scratch dir: {e}"))?)
    } else {
        None
    };
    let store = Bigtable::with_config(env::store_config(dir.as_ref().map(ScratchDir::path)));
    let mut server = MoistServer::new(&store, w.config()).map_err(|e| format!("server: {e}"))?;
    let warm = load.warm_ticks();
    let ticks = warm.iter().map(Vec::len).max().unwrap_or(0);
    let mut registered = Hist::new();
    for t in 0..ticks {
        let mut last_ts = None;
        for tick in warm.iter().filter_map(|client| client.get(t)) {
            for msg in tick {
                let t0 = Instant::now();
                let out = server
                    .update(msg)
                    .map_err(|e| format!("bare warm-up: {e}"))?;
                if out == UpdateOutcome::Registered {
                    registered.record(t0.elapsed().as_nanos() as u64);
                }
                last_ts = Some(msg.ts);
            }
        }
        if let (true, Some(ts)) = (w.epsilon > 0.0, last_ts) {
            server
                .run_due_clustering(ts)
                .map_err(|e| format!("bare sweep: {e}"))?;
        }
    }
    Ok((server, store, dir, registered.mean()))
}

const SCRATCH_FAMILY: &str = "v";
const SCRATCH_QUALIFIER: &str = "r";

/// A raw table of `rows` rows keyed 0.. with one 40-byte value each: the
/// store layer alone, at the population's size.
fn scratch_table(store: &Arc<Bigtable>, rows: u64) -> Result<Arc<Table>, Fail> {
    let schema = TableSchema::new(
        "bench_scratch",
        vec![ColumnFamily::in_memory(SCRATCH_FAMILY, 1)],
    )
    .map_err(|e| format!("scratch schema: {e}"))?;
    let table = store
        .create_table(schema)
        .map_err(|e| format!("scratch table: {e}"))?;
    let keys: Vec<u64> = (0..rows).collect();
    for chunk in keys.chunks(256) {
        let batch: Vec<RowMutation> = chunk.iter().map(|&k| scratch_row(k, 0)).collect();
        table
            .mutate_rows(&batch)
            .map_err(|e| format!("scratch fill: {e}"))?;
    }
    Ok(table)
}

fn scratch_put(version: u64) -> Mutation {
    let mut value = [0u8; 40];
    value[..8].copy_from_slice(&version.to_le_bytes());
    Mutation::put(
        SCRATCH_FAMILY,
        SCRATCH_QUALIFIER,
        Timestamp(version),
        &value[..],
    )
}

fn scratch_row(key: u64, version: u64) -> RowMutation {
    RowMutation::new(RowKey::from_u64(key), vec![scratch_put(version)])
}

/// The scratch table with the store it lives in and its row count.
struct Scratch {
    store: Arc<Bigtable>,
    table: Arc<Table>,
    rows: u64,
}

/// The levels an operation was replayed through, median nanoseconds each
/// (medians, so that one fsync or one preempted call at one level does not
/// become a layer's share).
struct Levels {
    spatial: f64,
    codec: f64,
    store: f64,
    server: f64,
    tier1: f64,
    /// The same operation on the four-shard tier the workloads run on: the
    /// measured time the attribution rows are compared with.
    tier4: f64,
}

impl Levels {
    /// From the timings of spatial, codec, store, bare server, one-shard
    /// tier and four-shard tier, in that order.
    fn of(timings: [&Hist; 6]) -> Levels {
        let [spatial, codec, store, server, tier1, tier4] = timings.map(|h| h.quantile(0.5));
        Levels {
            spatial,
            codec,
            store,
            server,
            tier1,
            tier4,
        }
    }

    /// Successive differences: what each layer adds on top of the ones
    /// below it, the one-shard tier being the top level the harness can
    /// reach from outside the library. The rows therefore sum to the
    /// one-shard time; how far that is from the four-shard tier's measured
    /// time is the share no row explains (what scattering a query over
    /// four shards costs or saves), reported and not hidden in a row.
    fn notes(&self, class: &str, m: &mut Metrics) {
        for (layer, ns) in [
            ("spatial", self.spatial),
            ("codec", self.codec),
            ("store", self.store),
            (
                "server_logic",
                self.server - self.spatial - self.codec - self.store,
            ),
            ("cluster_tier", self.tier1 - self.server),
        ] {
            m.note(&format!("attribution.{class}.{layer}_ns"), ns);
            m.note(
                &format!("attribution.{class}.{layer}_share"),
                ratio(ns, self.tier4),
            );
        }
        m.note(&format!("attribution.{class}.rows_sum_ns"), self.tier1);
        m.note(&format!("attribution.{class}.measured_ns"), self.tier4);
        m.set(
            &format!("attribution.{class}_unexplained_share"),
            ratio((self.tier4 - self.tier1).abs(), self.tier4),
        );
    }
}

/// The order in which operation `op` visits the bare server (0), the
/// one-shard tier (1) and the four-shard tier (2): each goes first as often
/// as the others, so that whichever level runs on a cold cache or a busy
/// host is not always the same one.
fn levels_in_turn(op: u64) -> [usize; 3] {
    [0, 1, 2].map(|level| (level + op as usize) % 3)
}

fn outcome_slot(o: UpdateOutcome) -> usize {
    match o {
        UpdateOutcome::LeaderUpdated => 0,
        UpdateOutcome::Shed => 1,
        UpdateOutcome::Registered => 2,
        UpdateOutcome::Departed { .. } => 3,
    }
}

/// Everything the replays share.
struct Replay<'a> {
    w: &'a Workload,
    bare: MoistServer,
    bare_store: Arc<Bigtable>,
    tier1: Tier,
    tier4: Tier,
    scratch: &'a Scratch,
    rng: Rng,
    tracer: Tracer,
}

fn store_delta(store: &Bigtable, before: &MetricsSnapshot) -> MetricsSnapshot {
    store.metrics_snapshot().delta(before)
}

impl Replay<'_> {
    /// The first post-warm-up updates of the stream through every level.
    fn updates(&mut self, msgs: &[UpdateMessage], m: &mut Metrics) -> Result<(), Fail> {
        let cfg = self.w.config();
        let msgs = &msgs[..msgs.len().min(REPLAY_UPDATES)];
        let n = msgs.len().max(1) as f64;
        let (mut spatial, mut codec) = (Hist::new(), Hist::new());
        // Per outcome: [leader, shed, registered, departed].
        let (mut bare, mut tier1, mut tier4) = (
            [(); 4].map(|_| Hist::new()),
            [(); 4].map(|_| Hist::new()),
            [(); 4].map(|_| Hist::new()),
        );
        let (mut leader_reads, mut leader_writes) = (0u64, 0u64);
        let mut leaders: Vec<u64> = Vec::new();
        let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
        let store4_before = self.tier4.store.metrics_snapshot();
        let virtual_before = self.tier4.cluster.total_elapsed_us();

        for (op, msg) in msgs.iter().enumerate() {
            let op = op as u64;
            let root = self.tracer.open();
            let started = Instant::now();
            let (_, ns) = self.tracer.span(root, op, "spatial.cells", || {
                black_box(cfg.space.leaf_cell(black_box(&msg.loc)));
                black_box(cfg.space.cell_at(cfg.clustering_level, black_box(&msg.loc)));
            });
            spatial.record(ns);
            let (_, ns) = self.tracer.span(root, op, "codec.records", || {
                let rec = LocationRecord {
                    loc: msg.loc,
                    vel: msg.vel,
                    leaf_index: op,
                };
                black_box(LocationRecord::decode(black_box(&rec.encode())).is_ok());
                let lf = LfRecord::Leader {
                    since_us: msg.ts.0,
                    last_leaf: op,
                };
                black_box(LfRecord::decode(black_box(&lf.encode())).is_ok());
            });
            codec.record(ns);

            for level in levels_in_turn(op) {
                match level {
                    0 => {
                        let before = self.bare_store.metrics_snapshot();
                        let (out, ns) = self
                            .tracer
                            .span(root, op, "server.update", || self.bare.update(msg));
                        let out = out.map_err(|e| format!("replay server.update: {e}"))?;
                        bare[outcome_slot(out)].record(ns);
                        if out == UpdateOutcome::LeaderUpdated {
                            let d = store_delta(&self.bare_store, &before);
                            leader_reads += d.read_ops + d.scan_ops;
                            leader_writes += d.write_ops + d.batch_ops;
                            leaders.push(op);
                        }
                    }
                    1 => {
                        let (out, ns) = self
                            .tracer
                            .span(root, op, "tier1.update", || self.tier1.cluster.update(msg));
                        let out = out.map_err(|e| format!("replay tier1.update: {e}"))?;
                        tier1[outcome_slot(out)].record(ns);
                    }
                    _ => {
                        let ((out, ns), a, b) = counted(|| {
                            self.tracer
                                .span(root, op, "tier4.update", || self.tier4.cluster.update(msg))
                        });
                        let out = out.map_err(|e| format!("replay tier4.update: {e}"))?;
                        tier4[outcome_slot(out)].record(ns);
                        allocs += a;
                        alloc_bytes += b;
                    }
                }
            }
            self.tracer
                .close(root, ROOT, op, "replay.update", started, Instant::now());
        }

        // The raw store level: as many point reads and writes as a leader
        // update made, on the scratch table.
        let reads = ratio(leader_reads as f64, leaders.len() as f64).round() as u64;
        let writes = ratio(leader_writes as f64, leaders.len() as f64).round() as u64;
        let mut store = Hist::new();
        for (i, &op) in leaders.iter().enumerate() {
            let key = RowKey::from_u64(self.rng.below(self.scratch.rows as usize) as u64);
            let put = [scratch_put(i as u64 + 1)];
            let table = &self.scratch.table;
            let (_, ns) = self.tracer.span(ROOT, op, "store.point_ops", || {
                for _ in 0..reads {
                    black_box(
                        table
                            .get_latest(&key, SCRATCH_FAMILY, SCRATCH_QUALIFIER)
                            .is_ok(),
                    );
                }
                for _ in 0..writes {
                    black_box(table.mutate_row(&key, &put).is_ok());
                }
            });
            store.record(ns);
        }
        m.note("attribution.update.leader_point_reads", reads as f64);
        m.note("attribution.update.leader_point_writes", writes as f64);

        // Whatever the outcome.
        let all = |by: &[Hist; 4]| {
            let mut all = Hist::new();
            by.iter().for_each(|h| all.merge(h));
            all
        };
        Levels::of([&spatial, &codec, &store, &bare[0], &tier1[0], &tier4[0]]).notes("update", m);
        m.set_sampled("update.leader_ns", bare[0].mean(), bare[0].count());
        m.set_sampled("update.shed_ns", bare[1].mean(), bare[1].count());
        m.set(
            "cluster_tier.update_overhead_ns",
            all(&tier1).mean() - all(&bare).mean(),
        );

        let d = store_delta(&self.tier4.store, &store4_before);
        m.set(
            "bigtable.reads_per_update",
            (d.read_ops + d.scan_ops) as f64 / n,
        );
        m.set(
            "bigtable.writes_per_update",
            (d.write_ops + d.batch_ops) as f64 / n,
        );
        m.set(
            "bigtable.bytes_written_per_update",
            d.bytes_written as f64 / n,
        );
        m.set("alloc.per_update", allocs as f64 / n);
        m.set("alloc.bytes_per_update", alloc_bytes as f64 / n);
        let virtual_us = self.tier4.cluster.total_elapsed_us() - virtual_before;
        m.set(
            "model.update_virtual_over_wall",
            ratio(virtual_us, all(&tier4).mean() * n / 1e3),
        );
        Ok(())
    }

    /// A sample of queries through every level. `spatial` is the cell math
    /// of one query; the three targets answer it at each level.
    #[allow(clippy::too_many_arguments)]
    fn queries<I: Copy>(
        &mut self,
        class: &'static str,
        names: [&'static str; 5],
        inputs: &[I],
        spatial: impl Fn(I),
        bare: impl Fn(&MoistServer, I) -> Result<(Vec<Neighbor>, QueryNote), MoistError>,
        tier: impl Fn(&MoistCluster, I) -> Result<(Vec<Neighbor>, QueryNote), MoistError>,
        m: &mut Metrics,
    ) -> Result<QuerySums, Fail> {
        let [n_root, n_spatial, n_bare, n_tier1, n_tier4] = names;
        let mut sums = QuerySums::default();
        let (mut t_spatial, mut t_bare, mut t_tier1, mut t_tier4) =
            (Hist::new(), Hist::new(), Hist::new(), Hist::new());
        // Per query, what the bare server's store did: (scans, rows, leaders).
        let mut work: Vec<(u64, u64, u64)> = Vec::with_capacity(inputs.len());
        let store4_before = self.tier4.store.metrics_snapshot();
        let failed = |e: MoistError| format!("replay {class}: {e}");

        for (op, &input) in inputs.iter().enumerate() {
            let op = op as u64;
            let root = self.tracer.open();
            let started = Instant::now();
            let (_, ns) = self.tracer.span(root, op, n_spatial, || spatial(input));
            t_spatial.record(ns);

            for level in levels_in_turn(op) {
                match level {
                    0 => {
                        let before = self.bare_store.metrics_snapshot();
                        let (out, ns) = self
                            .tracer
                            .span(root, op, n_bare, || bare(&self.bare, input));
                        let (_, note) = out.map_err(failed)?;
                        t_bare.record(ns);
                        let d = store_delta(&self.bare_store, &before);
                        work.push((d.scan_ops.max(1), d.rows_scanned, note.leaders as u64));
                    }
                    1 => {
                        let (out, ns) = self
                            .tracer
                            .span(root, op, n_tier1, || tier(&self.tier1.cluster, input));
                        out.map_err(failed)?;
                        t_tier1.record(ns);
                    }
                    _ => {
                        let ((out, ns), a, b) = counted(|| {
                            self.tracer
                                .span(root, op, n_tier4, || tier(&self.tier4.cluster, input))
                        });
                        let (hits, note) = out.map_err(failed)?;
                        t_tier4.record(ns);
                        sums.allocs += a;
                        sums.alloc_bytes += b;
                        sums.hits += hits.len() as u64;
                        sums.units += note.units as u64;
                        sums.leaders += note.leaders as u64;
                        sums.shards += note.shards as u64;
                        sums.virtual_us += note.virtual_us;
                    }
                }
            }
            self.tracer
                .close(root, ROOT, op, n_root, started, Instant::now());
        }
        sums.queries = inputs.len() as u64;
        sums.rows_scanned = store_delta(&self.tier4.store, &store4_before).rows_scanned;
        sums.wall_us = t_tier4.mean() * inputs.len() as f64 / 1e3;

        // The raw levels: the same number of scans over the same number of
        // rows on the scratch table, and the decoding of the rows fetched.
        let (mut t_store, mut t_codec) = (Hist::new(), Hist::new());
        let record = LocationRecord {
            loc: Point::new(1.0, 2.0),
            vel: moist::spatial::Velocity::new(0.5, 0.5),
            leaf_index: 7,
        }
        .encode();
        let lf = LfRecord::Leader {
            since_us: 1,
            last_leaf: 7,
        }
        .encode();
        let opts = ReadOptions::latest();
        for (op, &(scans, rows, leaders)) in work.iter().enumerate() {
            let per_scan = rows.div_ceil(scans).max(1);
            let table = &self.scratch.table;
            let first = self
                .rng
                .below((self.scratch.rows - per_scan.min(self.scratch.rows - 1)) as usize)
                as u64;
            let (_, ns) = self.tracer.span(ROOT, op as u64, "store.scans", || {
                for s in 0..scans {
                    let start = (first + s * per_scan) % self.scratch.rows;
                    let range = ScanRange::between(
                        RowKey::from_u64(start),
                        RowKey::from_u64(start + per_scan),
                    );
                    black_box(table.scan(&range, &opts, None).is_ok());
                }
            });
            t_store.record(ns);
            let (_, ns) = self.tracer.span(ROOT, op as u64, "codec.decodes", || {
                for _ in 0..leaders {
                    black_box(LocationRecord::decode(black_box(&record)).is_ok());
                    black_box(LfRecord::decode(black_box(&lf)).is_ok());
                }
            });
            t_codec.record(ns);
        }

        Levels::of([&t_spatial, &t_codec, &t_store, &t_bare, &t_tier1, &t_tier4]).notes(class, m);
        sums.bare_us = t_bare.mean() / 1e3;
        sums.tier1_us = t_tier1.mean() / 1e3;
        sums.tier4_us = t_tier4.mean() / 1e3;
        Ok(sums)
    }
}

/// What a query reports about itself, whichever kind it is.
struct QueryNote {
    virtual_us: f64,
    units: usize,
    leaders: usize,
    shards: usize,
}

impl From<NnStats> for QueryNote {
    fn from(s: NnStats) -> Self {
        QueryNote {
            virtual_us: s.cost_us,
            units: s.cells_scanned,
            leaders: s.leaders_fetched,
            shards: s.shards_scattered,
        }
    }
}

impl From<RegionStats> for QueryNote {
    fn from(s: RegionStats) -> Self {
        QueryNote {
            virtual_us: s.cost_us,
            units: s.ranges_scanned,
            leaders: s.leaders_fetched,
            shards: s.shards_scattered,
        }
    }
}

/// What a query replay adds up on the four-shard tier.
#[derive(Default)]
struct QuerySums {
    queries: u64,
    hits: u64,
    units: u64,
    leaders: u64,
    shards: u64,
    rows_scanned: u64,
    virtual_us: f64,
    wall_us: f64,
    allocs: u64,
    alloc_bytes: u64,
    bare_us: f64,
    tier1_us: f64,
    tier4_us: f64,
}

fn flag_totals(cluster: &MoistCluster) -> (u64, u64) {
    (0..cluster.num_shards())
        .filter_map(|i| cluster.with_shard_read(i, |s| s.flag_stats()).ok())
        .fold((0, 0), |(h, m), f| (h + f.cache_hits, m + f.cache_misses))
}

/// Probes of the layers below the server: direct calls, on inputs sampled
/// from the workload's own stream.
fn low_layer_probes(
    w: &Workload,
    msgs: &[UpdateMessage],
    rects: &[Rect],
    scratch: &Scratch,
    rng: &mut Rng,
    m: &mut Metrics,
) -> Result<(), Fail> {
    let (scratch_store, rows) = (&scratch.store, scratch.rows);
    let scratch = &scratch.table;
    let cfg = w.config();
    let space = cfg.space;
    let msg = |i: usize| &msgs[i % msgs.len()];

    m.set(
        "spatial.leaf_cell_ns",
        per_iter(200_000, |i| {
            black_box(space.leaf_cell(black_box(&msg(i).loc)));
        }),
    );
    m.set(
        "spatial.cover_rect_ns",
        per_iter(20_000, |i| {
            let unit = space.rect_to_unit(&rects[i % rects.len()]);
            black_box(cover_rect(space.curve, 6, black_box(&unit)));
        }),
    );
    m.set(
        "codec.location_roundtrip_ns",
        per_iter(200_000, |i| {
            let rec = LocationRecord {
                loc: msg(i).loc,
                vel: msg(i).vel,
                leaf_index: i as u64,
            };
            black_box(LocationRecord::decode(black_box(&rec.encode())).is_ok());
        }),
    );
    m.set(
        "codec.lf_roundtrip_ns",
        per_iter(200_000, |i| {
            let lf = LfRecord::Follower {
                leader: msg(i).oid,
                displacement: moist::spatial::Displacement::new(1.0, -1.0),
                since_us: i as u64,
            };
            black_box(LfRecord::decode(black_box(&lf.encode())).is_ok());
        }),
    );

    // The store, on the scratch table of the population's size.
    let keys: Vec<RowKey> = (0..4096)
        .map(|_| RowKey::from_u64(rng.below(rows as usize) as u64))
        .collect();
    let key = |i: usize| &keys[i % keys.len()];
    let get_ns = per_iter(100_000, |i| {
        black_box(
            scratch
                .get_latest(key(i), SCRATCH_FAMILY, SCRATCH_QUALIFIER)
                .is_ok(),
        );
    });
    let put_ns = per_iter(50_000, |i| {
        black_box(
            scratch
                .mutate_row(key(i), &[scratch_put(i as u64 + 1)])
                .is_ok(),
        );
    });
    let cas_ns = per_iter(50_000, |i| {
        black_box(
            scratch
                .check_and_mutate(
                    key(i),
                    SCRATCH_FAMILY,
                    SCRATCH_QUALIFIER,
                    None,
                    &[scratch_put(i as u64 + 1)],
                )
                .is_ok(),
        );
    });
    let opts = ReadOptions::latest();
    let span = 256.min(rows);
    let scan_ns = per_iter(400, |_| {
        let start = rng.below((rows - span + 1) as usize) as u64;
        let range = ScanRange::between(RowKey::from_u64(start), RowKey::from_u64(start + span));
        black_box(scratch.scan(&range, &opts, None).is_ok());
    }) / span as f64;
    let batch_put_ns = per_iter(800, |i| {
        let batch: Vec<RowMutation> = (0..64)
            .map(|j| RowMutation::new(key(i * 64 + j).clone(), vec![scratch_put(i as u64 + 1)]))
            .collect();
        black_box(scratch.mutate_rows(&batch).is_ok());
    }) / 64.0;
    let batch_get_ns = per_iter(1_500, |i| {
        let batch: Vec<RowKey> = (0..64).map(|j| key(i * 64 + j).clone()).collect();
        black_box(scratch.batch_get(&batch, &opts).is_ok());
    }) / 64.0;
    m.set("bigtable.get_ns", get_ns);
    m.set("bigtable.put_ns", put_ns);
    m.set("bigtable.cas_ns", cas_ns);
    m.set("bigtable.scan_row_ns", scan_ns);
    m.set("bigtable.batch_put_row_ns", batch_put_ns);
    m.set("bigtable.batch_get_row_ns", batch_get_ns);
    m.set("bigtable.batch_over_point", ratio(batch_put_ns, put_ns));

    // What metering a session operation costs.
    let mut metered = scratch_store.session();
    let mut free = scratch_store.session_with(CostProfile::free());
    let metered_ns = per_iter(100_000, |i| {
        black_box(
            metered
                .get_latest(scratch, key(i), SCRATCH_FAMILY, SCRATCH_QUALIFIER)
                .is_ok(),
        );
    });
    let free_ns = per_iter(100_000, |i| {
        black_box(
            free.get_latest(scratch, key(i), SCRATCH_FAMILY, SCRATCH_QUALIFIER)
                .is_ok(),
        );
    });
    m.set("session.meter_overhead_ns", metered_ns - free_ns);

    // The write-ahead log: a put on a logged table minus the same put on
    // the in-memory scratch table.
    let logged_put = |fsync_every: u64, iters: usize| -> Result<f64, Fail> {
        let dir = ScratchDir::new("walprobe").map_err(|e| format!("scratch dir: {e}"))?;
        let store = Bigtable::with_config(StoreConfig {
            durability: Durability::Wal {
                dir: dir.path().to_path_buf(),
                fsync_every,
            },
            ..StoreConfig::default()
        });
        let table = scratch_table(&store, 1_024)?;
        Ok(per_iter(iters, |i| {
            let k = RowKey::from_u64(i as u64 % 1_024);
            black_box(table.mutate_row(&k, &[scratch_put(i as u64 + 1)]).is_ok());
        }))
    };
    let small = {
        let store = Bigtable::new();
        let table = scratch_table(&store, 1_024)?;
        per_iter(20_000, |i| {
            let k = RowKey::from_u64(i as u64 % 1_024);
            black_box(table.mutate_row(&k, &[scratch_put(i as u64 + 1)]).is_ok());
        })
    };
    let nosync = logged_put(0, 20_000)?;
    let sync64 = logged_put(64, 12_800)?;
    let sync1 = logged_put(1, 200)?;
    m.set("wal.append_ns", nosync - small);
    m.set("wal.append_fsync64_ns", sync64 - small);
    m.set("wal.fsync_ns", sync1 - nosync);

    // The archiver and the scatter pool, alone.
    let archiver = PppArchiver::new(space, PppConfig::default());
    m.set(
        "archive.ingest_ns",
        per_iter(100_000, |i| {
            let u = msg(i);
            black_box(archiver.ingest(HistoryRecord::new(u.oid.0, u.ts.0, u.loc, u.vel), u.ts.0));
        }),
    );
    let pool = QueryPool::sized_for_host();
    m.set(
        "query_pool.scatter_us",
        per_iter(2_000, |_| {
            let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
            black_box(pool.scatter(tasks));
        }) / 1e3,
    );
    Ok(())
}

/// The batched paths beside the single ones, on fresh stores loaded with
/// the population's first reports: `update_batch` on a bare server, and
/// `submit` on a four-shard tier.
fn batch_probes(
    w: &Workload,
    load: &Load,
    msgs: &[UpdateMessage],
    m: &mut Metrics,
) -> Result<(), Fail> {
    let unschooled = Workload { epsilon: 0.0, ..*w };
    let first: Vec<&UpdateMessage> = load
        .warm_ticks()
        .iter()
        .flat_map(|client| client.first())
        .flatten()
        .collect();
    let store = Bigtable::new();
    let mut server =
        MoistServer::new(&store, unschooled.config()).map_err(|e| format!("server: {e}"))?;
    let cluster = MoistCluster::builder(&Bigtable::new(), unschooled.config())
        .shards(SHARDS)
        .ingest(IngestConfig::default())
        .build()
        .map_err(|e| format!("tier: {e}"))?;
    for msg in &first {
        server
            .update(msg)
            .map_err(|e| format!("batch probe load: {e}"))?;
        cluster
            .update(msg)
            .map_err(|e| format!("submit probe load: {e}"))?;
    }
    let half = msgs.len() / 2;
    let single_ns = per_iter(half, |i| {
        black_box(server.update(&msgs[i]).is_ok());
    });
    let batches: Vec<&[UpdateMessage]> = msgs[half..].chunks(64).collect();
    let batch_ns = per_iter(batches.len(), |i| {
        black_box(server.update_batch(batches[i]).is_ok());
    }) * batches.len() as f64
        / (msgs.len() - half).max(1) as f64;
    m.set("update.batch_row_ns", batch_ns);
    m.set("update.batch_over_single", ratio(batch_ns, single_ns));

    let started = Instant::now();
    for msg in msgs {
        cluster
            .submit(msg)
            .map_err(|e| format!("submit probe: {e}"))?;
    }
    cluster
        .drain_ingest()
        .map_err(|e| format!("submit probe drain: {e}"))?;
    m.set(
        "ingest.submit_ns",
        started.elapsed().as_nanos() as f64 / msgs.len().max(1) as f64,
    );
    Ok(())
}

/// One chunk per client on the main tier, first one client after the
/// other, then all at once: what a second client thread buys.
fn thread_scaling(main: &Tier, load: &mut Load, m: &mut Metrics) {
    let cluster = &main.cluster;
    let apply = |msgs: &[UpdateMessage]| -> (u64, u64) {
        let started = Instant::now();
        for msg in msgs {
            black_box(cluster.update(msg).is_ok());
        }
        (msgs.len() as u64, started.elapsed().as_nanos() as u64)
    };
    let mut chunks: Vec<Vec<UpdateMessage>> = vec![Vec::new(); load.clients.len()];
    let refill = |load: &mut Load, chunks: &mut Vec<Vec<UpdateMessage>>| {
        for (client, chunk) in load.clients.iter_mut().zip(chunks.iter_mut()) {
            client.next_chunk(chunk);
            client.note_accepted(chunk);
        }
    };
    refill(load, &mut chunks);
    let one: Vec<(u64, u64)> = chunks.iter().map(|ch| apply(ch)).collect();
    let rate1 = ratio(
        one.iter().map(|r| r.0).sum::<u64>() as f64,
        one.iter().map(|r| r.1).sum::<u64>() as f64,
    );
    refill(load, &mut chunks);
    let all: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks.iter().map(|ch| scope.spawn(|| apply(ch))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scaling thread panicked"))
            .collect()
    });
    let rate_n: f64 = all.iter().map(|r| ratio(r.0 as f64, r.1 as f64)).sum();
    // With a single client there is no second thread to add.
    let scaling = if chunks.len() > 1 {
        ratio(rate_n, rate1)
    } else {
        0.0
    };
    m.set("cluster_tier.update_threads2_over_threads1", scaling);
}

/// Takes every per-layer measurement and returns the spans recorded.
pub fn measure(c: Ctx, m: &mut Metrics) -> Result<Vec<Span>, Fail> {
    let w = c.w;
    window_counters(&c, m);

    // The replay's levels, all in the state set-up leaves.
    let (tier1, _) = env::set_up(w, c.load, 1)?;
    let (bare, bare_store, _bare_dir, register_ns) = bare_server(w, c.load)?;
    m.set("update.register_ns", register_ns);
    let store = Bigtable::new();
    let rows = (w.population.clients() as u64 * w.population.per_client()).max(1_024);
    let scratch = Scratch {
        table: scratch_table(&store, rows)?,
        store,
        rows,
    };
    let mut replay = Replay {
        w,
        bare,
        bare_store,
        tier1,
        tier4: c.spare,
        scratch: &scratch,
        rng: Rng::new(c.seed, 500),
        tracer: Tracer::new(c.origin, 10, true),
    };

    // Queries first, at the end of warm-up, while every level still holds
    // exactly the state set-up left.
    let at = c.warm_end;
    let cfg = w.config();
    let hot = if w.traffic == crate::spec::Traffic::RushHour {
        0.5
    } else {
        0.0
    };
    let centres = ops::nn_centres(&mut Rng::new(c.seed, 501), REPLAY_QUERIES, hot);
    let rects = ops::region_rects(&mut Rng::new(c.seed, 502), REPLAY_QUERIES);
    let margin = region_margin(w);
    let flags_before = flag_totals(&replay.tier4.cluster);
    let nn = replay.queries(
        "nn",
        [
            "replay.nn",
            "spatial.cells",
            "server.nn",
            "tier1.nn",
            "tier4.nn",
        ],
        &centres,
        |p: Point| {
            black_box(cfg.space.leaf_cell(black_box(&p)));
            black_box(cfg.space.cell_at(cfg.clustering_level, black_box(&p)));
        },
        |s, p| s.nn(p, NN_K, at).map(|(n, st)| (n, st.into())),
        |t, p| t.nn(p, NN_K, at).map(|(n, st)| (n, st.into())),
        m,
    )?;
    let flags_after = flag_totals(&replay.tier4.cluster);
    let q = nn.queries.max(1) as f64;
    m.set_sampled("nn.server_k10_us", nn.bare_us, nn.queries);
    m.set_sampled("cluster_tier.nn_us", nn.tier4_us, nn.queries);
    m.set("cluster_tier.nn_overhead_us", nn.tier1_us - nn.bare_us);
    m.set(
        "cluster_tier.nn_shards4_over_shards1",
        ratio(nn.tier1_us, nn.tier4_us),
    );
    m.set("nn.cells_per_query", nn.units as f64 / q);
    m.set("nn.leaders_per_query", nn.leaders as f64 / q);
    m.set("cluster_tier.shards_per_nn", nn.shards as f64 / q);
    m.set("bigtable.rows_scanned_per_nn", nn.rows_scanned as f64 / q);
    m.set("alloc.per_nn", nn.allocs as f64 / q);
    m.set("alloc.bytes_per_nn", nn.alloc_bytes as f64 / q);
    m.set(
        "model.nn_virtual_over_wall",
        ratio(nn.virtual_us, nn.wall_us),
    );
    let (hits, misses) = (
        flags_after.0 - flags_before.0,
        flags_after.1 - flags_before.1,
    );
    m.set("flag.hit_share", ratio(hits as f64, (hits + misses) as f64));

    let region = replay.queries(
        "region",
        [
            "replay.region",
            "spatial.cover",
            "server.region",
            "tier1.region",
            "tier4.region",
        ],
        &rects,
        |r: Rect| {
            black_box(cover_rect(
                cfg.space.curve,
                6,
                black_box(&cfg.space.rect_to_unit(&r)),
            ));
        },
        |s, r| s.region(&r, at, margin).map(|(n, st)| (n, st.into())),
        |t, r| t.region(&r, at, margin).map(|(n, st)| (n, st.into())),
        m,
    )?;
    let q = region.queries.max(1) as f64;
    m.set_sampled("region.server_100m_us", region.bare_us, region.queries);
    m.set_sampled("cluster_tier.region_us", region.tier4_us, region.queries);
    m.set("region.ranges_per_query", region.units as f64 / q);
    m.set(
        "region.leaders_per_hit",
        ratio(region.leaders as f64, region.hits as f64),
    );
    m.set("cluster_tier.shards_per_region", region.shards as f64 / q);
    m.set(
        "bigtable.rows_scanned_per_region_hit",
        ratio(region.rows_scanned as f64, region.hits as f64),
    );
    m.set("alloc.per_region", region.allocs as f64 / q);
    m.set(
        "model.region_virtual_over_wall",
        ratio(region.virtual_us, region.wall_us),
    );

    // Then the stream's first updates after warm-up.
    replay.updates(&c.win.first_chunk, m)?;
    let spans = replay.tracer.into_spans();
    drop((replay.bare, replay.tier1, replay.tier4));

    let mut rng = Rng::new(c.seed, 503);
    low_layer_probes(w, &c.win.first_chunk, &rects, &scratch, &mut rng, m)?;
    let tail = &c.win.first_chunk[c.win.first_chunk.len().min(REPLAY_UPDATES)..];
    let tail = &tail[..tail.len().min(2 * REPLAY_UPDATES)];
    if !tail.is_empty() {
        batch_probes(w, c.load, tail, m)?;
    }
    thread_scaling(c.main, c.load, m);

    Ok(spans)
}
