//! The timed window of each kind of traffic.
//!
//! The window is cut into rounds of a second, so that every reported number
//! is a median over slices spread across the whole window. A round runs the
//! workload's own traffic, and nothing else is ever timed; `rush_hour`,
//! whose paced writer cannot pause, is sliced by the second as it runs.
//! Inputs come from the clients' own streams; every operation is timed by
//! one `Instant` pair; a closed-loop client generates each chunk of its
//! stream between timed sections, never inside one.
//!
//! A traced run records spans in every other slice only, so that the rates
//! of its traced and untraced slices, of the same seed on the same tier,
//! give the tracing overhead.

use crate::env::{Client, Fail, Load, Tier};
use crate::ops::{self, query_pass, rate, Pass, Rng, Sliced};
use crate::pacer::{account, Schedule};
use crate::spec::{
    Population, Traffic, Workload, CHECKPOINT_EVERY, NN_K, RUSH_LIMIT_MS, RUSH_RATE, RUSH_SLOT_US,
    UPDATE_SPAN_EVERY,
};
use crate::trace::{Span, Tracer, ROOT};
use moist::bigtable::Timestamp;
use moist::core::{MoistCluster, MoistError, UpdateMessage};
use moist::spatial::{Point, Rect};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a window measured.
#[derive(Default)]
pub struct Window {
    /// The window's updates, where it has any (`rush_hour`: timed from
    /// their due time).
    pub update: Sliced,
    /// The window's queries, where it has any.
    pub reads: Option<Reads>,
    /// Per slice, whether spans were recorded in it and the rate its
    /// closed-loop operations ran at.
    pub slice_rates: Vec<(bool, f64)>,
    /// Time spent generating inputs, seconds (outside every timing).
    pub gen_s: f64,
    /// Summed over clients: time applying the stream, sweeps included.
    pub busy_ns: u64,
    pub sweep_ns: u64,
    pub sweeps: u64,
    /// `durable`: how long each checkpoint took, and the write-ahead-log
    /// appends the store had counted when the last one finished.
    pub checkpoint_ms: Vec<f64>,
    pub appends_at_last_checkpoint: u64,
    /// `rush_hour`: share of updates sent more than a slot late, and the
    /// last second's median update latency over the first second's.
    pub late_share: f64,
    pub backlog_ratio: f64,
    /// The first chunk of client 0's stream after warm-up: what the traced
    /// run replays through the lower layers.
    pub first_chunk: Vec<UpdateMessage>,
    /// Simulated time the streams had reached when the window ended.
    pub end_secs: f64,
    pub spans: Vec<Span>,
}

/// NN and (`lookup` only) region queries of a window's own traffic.
#[derive(Default)]
pub struct Reads {
    pub nn: Sliced,
    pub region: Sliced,
}

/// How long one round of a window lasts; `--seconds` is their number.
const ROUND: Duration = Duration::from_secs(1);

/// Whether slice `i` of a window records spans.
fn traced_slice(traced: bool, i: usize) -> bool {
    traced && i.is_multiple_of(2)
}

/// Times updates: each goes through the tier between one `Instant` pair,
/// and one in `UPDATE_SPAN_EVERY` gets a span. Serves the closed-loop
/// writers and the paced one alike.
struct UpdateTimer<'a> {
    cluster: &'a MoistCluster,
    /// Through `submit` (the durable workload) instead of `update`.
    submit: bool,
    sent: u64,
}

impl<'a> UpdateTimer<'a> {
    fn new(w: &Workload, cluster: &'a MoistCluster) -> Self {
        UpdateTimer {
            cluster,
            submit: w.traffic == Traffic::DurableSubmit,
            sent: 0,
        }
    }

    /// Sends `m`; returns when the call started and ended, and whether the
    /// tier refused or failed it.
    fn send(
        &mut self,
        tracer: &mut Tracer,
        parent: u32,
        m: &UpdateMessage,
    ) -> Result<(Instant, Instant, bool), Fail> {
        let t0 = Instant::now();
        let failed = if self.submit {
            match self.cluster.submit(m) {
                Ok(_) => false,
                Err(MoistError::Backpressure { .. }) => true,
                Err(e) => return Err(format!("submit: {e}")),
            }
        } else {
            self.cluster.update(m).is_err()
        };
        let t1 = Instant::now();
        if self.sent.is_multiple_of(UPDATE_SPAN_EVERY) {
            let name = if self.submit {
                "cluster_tier.submit"
            } else {
                "cluster_tier.update"
            };
            tracer.record(parent, self.sent, name, t0, t1);
        }
        self.sent += 1;
        Ok((t0, t1, failed))
    }
}

/// Region queries scan this far beyond the rectangle: what the library
/// documents for exact answers (fastest movement over the longest
/// staleness, plus the school bound).
pub fn region_margin(w: &Workload) -> f64 {
    w.population.max_speed() * crate::spec::MAX_INTERVAL_SECS + w.epsilon
}

fn now_secs(clients: &[Client], floor: f64) -> f64 {
    clients.iter().map(Client::now_secs).fold(floor, f64::max)
}

/// What one closed-loop writing client carries from round to round.
struct Writer<'a> {
    tracer: Tracer,
    timer: UpdateTimer<'a>,
    chunk: Vec<UpdateMessage>,
    refused: Vec<usize>,
    tick: u64,
    since_checkpoint: u64,
    /// Off in the window's last round: the crash that ends the window must
    /// leave a log tail for recovery to replay.
    may_checkpoint: bool,
    gen_ns: u64,
    busy_ns: u64,
    sweep_ns: u64,
    sweeps: u64,
    checkpoint_ms: Vec<f64>,
    appends_at_last_checkpoint: u64,
    first_chunk: Vec<UpdateMessage>,
}

impl<'a> Writer<'a> {
    fn new(tracer: Tracer, timer: UpdateTimer<'a>) -> Writer<'a> {
        Writer {
            tracer,
            timer,
            chunk: Vec::new(),
            refused: Vec::new(),
            tick: 0,
            since_checkpoint: 0,
            may_checkpoint: true,
            gen_ns: 0,
            busy_ns: 0,
            sweep_ns: 0,
            sweeps: 0,
            checkpoint_ms: Vec::new(),
            // Never checkpointed: recovery replays every append so far.
            appends_at_last_checkpoint: 0,
            first_chunk: Vec::new(),
        }
    }

    /// One round of this client: generate a chunk (untimed), apply it
    /// (timed), run the due sweeps (timed), until the deadline; a
    /// submitting client then drains what it buffered. Returns the round's
    /// samples and the time spent applying.
    fn round(
        &mut self,
        w: &Workload,
        tier: &Tier,
        client: &mut Client,
        index: usize,
        clients: usize,
        deadline: Instant,
    ) -> Result<(Pass, u64), Fail> {
        let submit = w.traffic == Traffic::DurableSubmit;
        let road = matches!(w.population, Population::Road { .. });
        let cluster = &tier.cluster;
        let mut pass = Pass::default();
        let mut busy_ns = 0u64;
        while Instant::now() < deadline {
            let g0 = Instant::now();
            client.next_chunk(&mut self.chunk);
            self.refused.clear();
            if index == 0 && self.tick == 0 {
                self.first_chunk = self.chunk.clone();
            }
            self.gen_ns += g0.elapsed().as_nanos() as u64;
            let Some(last_ts) = self.chunk.last().map(|m| m.ts) else {
                continue;
            };

            let tick_id = self.tracer.open();
            let started = Instant::now();
            for (i, m) in self.chunk.iter().enumerate() {
                let (t0, t1, failed) = self.timer.send(&mut self.tracer, tick_id, m)?;
                pass.hist.record((t1 - t0).as_nanos() as u64);
                if failed {
                    pass.failed += 1;
                    self.refused.push(i);
                }
            }
            if submit {
                let (flushed, _) = self
                    .tracer
                    .span(tick_id, self.tick, "ingest.flush_due", || {
                        cluster.flush_due(last_ts)
                    });
                flushed.map_err(|e| format!("flush_due: {e}"))?;
                self.since_checkpoint += self.chunk.len() as u64;
                if self.since_checkpoint >= CHECKPOINT_EVERY && self.may_checkpoint {
                    self.since_checkpoint = 0;
                    let (done, ns) = self.tracer.span(tick_id, self.tick, "wal.checkpoint", || {
                        cluster.checkpoint()
                    });
                    done.map_err(|e| format!("checkpoint: {e}"))?;
                    self.checkpoint_ms.push(ns as f64 / 1e6);
                    self.appends_at_last_checkpoint = tier.store.metrics_snapshot().wal_appends;
                }
            }
            if road {
                let (swept, ns) = self.tracer.span(tick_id, self.tick, "cluster.sweep", || {
                    tier.sweep(index, clients, last_ts)
                });
                swept?;
                self.sweep_ns += ns;
                self.sweeps += 1;
            }
            let ended = Instant::now();
            self.tracer
                .close(tick_id, ROOT, self.tick, "client.tick", started, ended);
            busy_ns += (ended - started).as_nanos() as u64;
            self.tick += 1;

            // Untimed: remember what the system accepted, for the audit.
            let mut skip = self.refused.iter().peekable();
            for (i, m) in self.chunk.iter().enumerate() {
                if skip.peek() == Some(&&i) {
                    skip.next();
                } else {
                    client.note_accepted(std::slice::from_ref(m));
                }
            }
        }
        if submit {
            let (drained, ns) = self
                .tracer
                .span(ROOT, self.tick, "ingest.drain", || cluster.drain_ingest());
            drained.map_err(|e| format!("drain_ingest: {e}"))?;
            busy_ns += ns;
        }
        self.busy_ns += busy_ns;
        Ok((pass, busy_ns))
    }
}

/// Closed-loop writers, one thread per client (`SyncWriters`, and the one
/// submitting client of `DurableSubmit`).
pub fn writers(
    w: &Workload,
    tier: &Tier,
    load: &mut Load,
    seconds: u64,
    origin: Instant,
    traced: bool,
) -> Result<Window, Fail> {
    let n = load.clients.len();
    let mut writers: Vec<Writer> = (0..n)
        .map(|i| {
            Writer::new(
                Tracer::new(origin, i as u32 + 1, traced),
                UpdateTimer::new(w, &tier.cluster),
            )
        })
        .collect();
    let mut win = Window::default();
    for round in 0..seconds as usize {
        for writer in &mut writers {
            writer.tracer.on = traced_slice(traced, round);
            writer.may_checkpoint = round + 1 < seconds as usize;
        }
        let deadline = Instant::now() + ROUND;
        let outs: Vec<Result<(Pass, u64), Fail>> = std::thread::scope(|scope| {
            let handles: Vec<_> = writers
                .iter_mut()
                .zip(load.clients.iter_mut())
                .enumerate()
                .map(|(i, (writer, client))| {
                    scope.spawn(move || writer.round(w, tier, client, i, n, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });
        let (mut pass, mut per_s) = (Pass::default(), 0.0);
        for out in outs {
            let (p, busy_ns) = out?;
            per_s += rate(p.ops(), busy_ns);
            pass.merge(&p);
        }
        win.update.push(pass, per_s);
        win.slice_rates.push((traced_slice(traced, round), per_s));
    }

    for writer in writers {
        win.gen_s += writer.gen_ns as f64 / 1e9;
        win.busy_ns += writer.busy_ns;
        win.sweep_ns += writer.sweep_ns;
        win.sweeps += writer.sweeps;
        win.checkpoint_ms.extend(writer.checkpoint_ms);
        win.appends_at_last_checkpoint = writer.appends_at_last_checkpoint;
        if !writer.first_chunk.is_empty() {
            win.first_chunk = writer.first_chunk;
        }
        win.spans.extend(writer.tracer.into_spans());
    }
    win.end_secs = now_secs(&load.clients, load.warm_end_secs);
    Ok(win)
}

/// One reading client: its tracer, its seeded inputs, and how far through
/// them it has come.
struct Reader {
    tracer: Tracer,
    centres: Vec<Point>,
    rects: Vec<Rect>,
    done: usize,
}

/// Closed-loop readers on the frozen population: each round, every
/// client's thread asks NN queries for half the round and region queries
/// for the other half, at its own seeded inputs.
pub fn readers(
    w: &Workload,
    tier: &Tier,
    load: &Load,
    seed: u64,
    seconds: u64,
    origin: Instant,
    traced: bool,
) -> Window {
    let margin = region_margin(w);
    let cluster = &tier.cluster;
    let half = ROUND / 2;
    let mut readers: Vec<Reader> = (0..load.clients.len())
        .map(|i| {
            let mut rng = Rng::new(seed, 100 + i as u64);
            Reader {
                tracer: Tracer::new(origin, i as u32 + 1, traced),
                centres: ops::nn_centres(&mut rng, 4096, 0.0),
                rects: ops::region_rects(&mut rng, 4096),
                done: 0,
            }
        })
        .collect();
    let mut win = Window::default();
    let mut reads = Reads::default();
    let at = Timestamp::from_secs_f64(load.warm_end_secs);

    for round in 0..seconds as usize {
        for reader in &mut readers {
            reader.tracer.on = traced_slice(traced, round);
        }
        let start = Instant::now();
        let outs: Vec<(Pass, Pass)> = std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .iter_mut()
                .map(|r| {
                    scope.spawn(move || {
                        // Each round continues through the inputs.
                        let from = r.done % r.centres.len();
                        let nn = query_pass(
                            &r.centres[from..],
                            start + half,
                            &mut r.tracer,
                            ROOT,
                            "cluster_tier.nn",
                            r.done as u64,
                            |c: Point| cluster.nn(c, NN_K, at),
                        );
                        let region = query_pass(
                            &r.rects[from..],
                            start + 2 * half,
                            &mut r.tracer,
                            ROOT,
                            "cluster_tier.region",
                            (1 << 32) + r.done as u64,
                            |q: Rect| cluster.region(&q, at, margin),
                        );
                        r.done += nn.ops().max(region.ops()) as usize;
                        (nn, region)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        let (mut nn, mut region) = (Pass::default(), Pass::default());
        let (mut nn_rate, mut region_rate) = (0.0, 0.0);
        for (n, r) in outs {
            nn_rate += n.per_s();
            region_rate += r.per_s();
            nn.merge(&n);
            region.merge(&r);
        }
        reads.nn.push(nn, nn_rate);
        reads.region.push(region, region_rate);
        win.slice_rates.push((traced_slice(traced, round), nn_rate));
    }
    win.reads = Some(reads);
    for reader in readers {
        win.spans.extend(reader.tracer.into_spans());
    }
    win.end_secs = load.warm_end_secs;
    win
}

/// The paced stream of `rush_hour`: the messages, and after which message
/// index each simulator tick ends (where the writer runs due sweeps).
struct PacedStream {
    msgs: Vec<UpdateMessage>,
    tick_ends: Vec<usize>,
}

impl PacedStream {
    /// Takes `seconds` of wall-clock traffic at `RUSH_RATE` from `client`.
    fn generate(client: &mut Client, seconds: u64) -> PacedStream {
        let want = (RUSH_RATE * seconds) as usize;
        let mut msgs = Vec::with_capacity(want + 50_000);
        let mut tick_ends = Vec::new();
        let mut chunk = Vec::new();
        while msgs.len() < want {
            client.next_chunk(&mut chunk);
            msgs.extend_from_slice(&chunk);
            tick_ends.push(msgs.len() - 1);
        }
        msgs.truncate(want);
        tick_ends.retain(|&i| i < want);
        PacedStream { msgs, tick_ends }
    }
}

/// Per-second slices of one thread's operations.
struct BySecond {
    start: Instant,
    slices: Vec<Pass>,
    /// When each slice's first and last operation finished.
    spans: Vec<Option<(Instant, Instant)>>,
}

impl BySecond {
    fn new(start: Instant, seconds: u64) -> BySecond {
        BySecond {
            start,
            slices: (0..seconds).map(|_| Pass::default()).collect(),
            spans: vec![None; seconds as usize],
        }
    }

    /// The slice an operation finishing at `done` belongs to (what runs
    /// past the last second counts towards it).
    fn second(&self, done: Instant) -> usize {
        let second = done.saturating_duration_since(self.start).as_secs() as usize;
        second.min(self.slices.len() - 1)
    }

    /// Records an operation that took `nanos`, failed or not.
    fn record(&mut self, done: Instant, nanos: u64, failed: bool) {
        let i = self.second(done);
        self.slices[i].hist.record(nanos);
        self.slices[i].failed += failed as u64;
        let first = self.spans[i].map_or(done, |(first, _)| first);
        self.spans[i] = Some((first, done));
    }

    fn p50(&self, second: usize) -> Option<f64> {
        let hist = &self.slices.get(second)?.hist;
        (hist.count() > 0).then(|| hist.quantile(0.5))
    }

    /// A slice's rate is its operations over the time from its first
    /// completion to its last.
    fn rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .zip(&self.spans)
            .map(|(pass, span)| {
                let ns = span.map_or(0, |(first, last)| (last - first).as_nanos() as u64);
                rate(pass.ops().saturating_sub(1), ns)
            })
            .collect()
    }

    fn into_sliced(self) -> Sliced {
        let rates = self.rates();
        let mut sliced = Sliced::default();
        for (pass, per_s) in self.slices.into_iter().zip(rates) {
            sliced.push(pass, per_s);
        }
        sliced
    }
}

/// One writer paced open-loop, every update timed from its slot's due time,
/// beside one closed-loop reader asking NN queries.
pub fn rush_hour(
    w: &Workload,
    tier: &Tier,
    load: &mut Load,
    seed: u64,
    seconds: u64,
    origin: Instant,
    traced: bool,
) -> Result<Window, Fail> {
    let warm_end_secs = load.warm_end_secs;
    let generating = Instant::now();
    let stream = &PacedStream::generate(&mut load.clients[0], seconds);
    let gen_s = generating.elapsed().as_secs_f64();
    let cluster = &tier.cluster;
    let slot = Duration::from_micros(RUSH_SLOT_US);
    let per_slot = (RUSH_RATE * RUSH_SLOT_US / 1_000_000).max(1) as usize;
    let done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let schedule = Schedule::new(start, slot);
    // A writer that cannot keep up gives up here; what it never sent fails.
    let give_up = start + Duration::from_secs(seconds).mul_f64(1.5);

    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<_, Fail> {
            let mut tracer = Tracer::new(origin, 1, traced);
            let mut timer = UpdateTimer::new(w, cluster);
            let mut by_second = BySecond::new(start, seconds);
            let (mut late, mut sweep_ns, mut sweeps, mut unsent) = (0u64, 0u64, 0u64, 0u64);
            let mut ticks = stream.tick_ends.iter().peekable();
            for (s, msgs) in stream.msgs.chunks(per_slot).enumerate() {
                let due = schedule.due(s as u64);
                let mut sent = schedule.wait_for(s as u64);
                if sent > give_up {
                    unsent = (stream.msgs.len() - s * per_slot) as u64;
                    break;
                }
                tracer.on = traced_slice(traced, by_second.second(sent));
                for (j, m) in msgs.iter().enumerate() {
                    let i = s * per_slot + j;
                    let (_, finished, failed) = timer.send(&mut tracer, ROOT, m)?;
                    let (latency, was_late) = account(due, sent, finished, slot);
                    let failed = failed || latency > RUSH_LIMIT_MS * 1_000_000;
                    by_second.record(finished, latency, failed);
                    late += was_late as u64;
                    if ticks.peek() == Some(&&i) {
                        ticks.next();
                        let (swept, ns) = tracer.span(ROOT, i as u64, "cluster.sweep", || {
                            cluster.run_due_clustering(m.ts)
                        });
                        swept.map_err(|e| format!("clustering sweep: {e}"))?;
                        sweep_ns += ns;
                        sweeps += 1;
                    }
                    sent = Instant::now();
                }
            }
            done.store(true, Ordering::Release);
            let wall_ns = start.elapsed().as_nanos() as u64;
            by_second.slices[0].failed += unsent;
            Ok((
                by_second,
                late,
                sweep_ns,
                sweeps,
                wall_ns,
                tracer.into_spans(),
            ))
        });
        let reader = scope.spawn(|| {
            let mut tracer = Tracer::new(origin, 2, traced);
            let centres = ops::nn_centres(&mut Rng::new(seed, 200), 4096, 0.5);
            let mut nn = BySecond::new(start, seconds);
            let mut op = 0usize;
            while !done.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let elapsed = t0.saturating_duration_since(start).as_secs_f64();
                let at = Timestamp::from_secs_f64(warm_end_secs + elapsed);
                tracer.on = traced_slice(traced, nn.second(t0));
                let neighbours = cluster.nn(centres[op % centres.len()], NN_K, at);
                let t1 = Instant::now();
                tracer.record(ROOT, op as u64, "cluster_tier.nn", t0, t1);
                nn.record(t1, (t1 - t0).as_nanos() as u64, neighbours.is_err());
                op += 1;
            }
            (nn, tracer.into_spans())
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (update, late, sweep_ns, sweeps, wall_ns, mut spans) = written?;
    let (nn, reader_spans) = read;
    spans.extend(reader_spans);
    load.clients[0].note_accepted(&stream.msgs);

    let backlog_ratio = match (update.p50(0), update.p50(seconds as usize - 1)) {
        (Some(first), Some(last)) if first > 0.0 => last / first,
        _ => 0.0,
    };
    let slice_rates = (nn.rates().into_iter().enumerate())
        .map(|(second, per_s)| (traced_slice(traced, second), per_s))
        .collect();
    let update = update.into_sliced();
    Ok(Window {
        gen_s,
        late_share: late as f64 / update.ops().max(1) as f64,
        backlog_ratio,
        busy_ns: wall_ns,
        sweep_ns,
        sweeps,
        update,
        reads: Some(Reads {
            nn: nn.into_sliced(),
            region: Sliced::default(),
        }),
        slice_rates,
        first_chunk: stream.msgs[..stream.msgs.len().min(40_000)].to_vec(),
        end_secs: stream
            .msgs
            .last()
            .map_or(warm_end_secs, |m| m.ts.as_secs_f64()),
        spans,
        ..Window::default()
    })
}
