//! Figure 21 (repo extension) — intra-shard read concurrency: wall-clock
//! read throughput of the lock-split shard (`RwLock<MoistServer>`, query
//! paths on the read guard) against the pre-split exclusive-guard
//! behaviour, under a 90/10 read-heavy mix with writes in flight.
//!
//! Every other figure in this repo measures *virtual* time: the
//! single-threaded driver and the cost model make those numbers
//! deterministic. This one deliberately measures *wall clock*, because
//! the thing under test is the lock itself: before the split every
//! query serialized behind the shard's exclusive guard — behind writes
//! *and behind other queries*; after it, any number of queries share
//! the shard concurrently and only genuine writes exclude them.
//!
//! The workload is the skewed one the paper worries about (§3.4.2's
//! business centers): 4 shards, N reader threads issuing 90% NN reads /
//! 10% updates with 90% of reads aimed at one hot clustering cell, plus
//! one background writer streaming `update_batch` calls at the hot
//! shard and timing each batch. Both modes run the *identical* seeded
//! workload; the only difference is the guard the read path takes:
//!
//! * **exclusive** — reads run under `with_shard` (the write guard),
//!   reproducing the pre-split `Mutex<MoistServer>` serialization;
//! * **lock-split** — reads run under `with_shard_read` (the read
//!   guard; the tier's own `nn`/`region` have since left the lock
//!   altogether and run on the shard's reader).
//!
//! Reported per reader count: read QPS in both modes (wall clock ⇒
//! `(noisy)`), the split/exclusive QPS ratio (self-normalizing — the
//! trend gate watches this one), and the in-flight `update_batch` wall
//! latency p50/p95 under the split (noisy).
//!
//! The acceptance bar scales with the parallelism the host actually
//! offers: ≥ 2× (full) / ≥ 1.2× (smoke) at the largest reader count
//! when enough cores exist for readers to overlap; on fewer cores the
//! overlap physically cannot show up in wall QPS, so the bar degrades
//! to a no-regression check (≥ 0.85×) and says so.

use moist::bigtable::Timestamp;
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use moist_bench::{smoke_mode, Figure, Rng, Series};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;

struct Scale {
    reader_threads: Vec<usize>,
    objects: u64,
    /// Operations (reads + inline updates) per reader thread.
    ops_per_reader: usize,
    /// Messages per background `update_batch`.
    batch: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            reader_threads: vec![2, 4, 8],
            objects: 3_000,
            ops_per_reader: 2_000,
            batch: 32,
        }
    }

    fn smoke() -> Self {
        Scale {
            reader_threads: vec![8],
            objects: 600,
            ops_per_reader: 300,
            batch: 32,
        }
    }
}

fn config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// The hot business center: the center of one level-3 clustering cell.
const HOT_SPOT: (f64, f64) = (187.5, 187.5);

#[derive(Clone, Copy, PartialEq)]
enum ReadGuard {
    /// Pre-split behaviour: queries take the shard's exclusive guard.
    Exclusive,
    /// `with_shard_read`: queries share the shard's read guard.
    Split,
}

/// Registers the population: a third of the objects jittered around the
/// hot cell, the rest uniform.
fn seed(cluster: &MoistCluster, rng: &mut Rng, objects: u64) {
    for oid in 0..objects {
        let (x, y) = if oid < objects / 3 {
            (
                HOT_SPOT.0 + rng.next() * 40.0 - 20.0,
                HOT_SPOT.1 + rng.next() * 40.0 - 20.0,
            )
        } else {
            (5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
        };
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs_f64(oid as f64 / objects as f64),
            })
            .expect("seed update");
    }
}

struct Measured {
    read_qps: f64,
    /// In-flight `update_batch` wall latency percentiles, µs.
    write_p50_us: f64,
    write_p95_us: f64,
}

fn run_one(guard: ReadGuard, readers: usize, scale: &Scale) -> Measured {
    let store = moist::bigtable::Bigtable::new();
    let cluster = Arc::new(
        MoistCluster::builder(&store, config())
            .shards(SHARDS)
            .build()
            .expect("cluster"),
    );
    seed(&cluster, &mut Rng(0x0F16_2101), scale.objects);

    // Background writer: streams hot-shard batches until the readers
    // finish, timing each apply. Its oid pool is disjoint from the
    // readers' so outcomes don't couple.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        let batch_len = scale.batch;
        std::thread::spawn(move || {
            let mut rng = Rng(0x2101_B00C);
            let mut latencies_us = Vec::new();
            let mut tick = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<UpdateMessage> = (0..batch_len as u64)
                    .map(|i| UpdateMessage {
                        oid: ObjectId(1_000_000 + i),
                        loc: Point::new(
                            HOT_SPOT.0 + rng.next() * 40.0 - 20.0,
                            HOT_SPOT.1 + rng.next() * 40.0 - 20.0,
                        ),
                        vel: Velocity::ZERO,
                        ts: Timestamp::from_secs_f64(100.0 + tick as f64 * 0.01),
                    })
                    .collect();
                let t0 = Instant::now();
                cluster.update_batch(&batch).expect("hot batch");
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                tick += 1;
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            latencies_us
        })
    };

    let started = Instant::now();
    let reads_total: u64 = {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let cluster = Arc::clone(&cluster);
                let ops = scale.ops_per_reader;
                let objects = scale.objects;
                std::thread::spawn(move || {
                    let mut rng = Rng(0x0F16_2100 + r as u64 * 7919);
                    let mut reads = 0u64;
                    let at = Timestamp::from_secs(200);
                    for i in 0..ops {
                        if rng.next() < 0.9 {
                            // 90% of reads on the hot cell, the rest uniform.
                            let center = if rng.next() < 0.9 {
                                Point::new(
                                    HOT_SPOT.0 + rng.next() * 40.0 - 20.0,
                                    HOT_SPOT.1 + rng.next() * 40.0 - 20.0,
                                )
                            } else {
                                Point::new(5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
                            };
                            let shard = cluster.shard_for_point(&center);
                            let (hits, _) = match guard {
                                ReadGuard::Exclusive => cluster
                                    .with_shard(shard, |s| s.nn(center, 8, at).expect("nn"))
                                    .expect("shard"),
                                ReadGuard::Split => cluster
                                    .with_shard_read(shard, |s| s.nn(center, 8, at).expect("nn"))
                                    .expect("shard"),
                            };
                            assert!(!hits.is_empty(), "seeded map must answer NN");
                            reads += 1;
                        } else {
                            // The 10% write slice, through the real write
                            // path (write guard in both modes).
                            let oid = 10_000 + r as u64 * objects + (i as u64 % objects);
                            cluster
                                .update(&UpdateMessage {
                                    oid: ObjectId(oid),
                                    loc: Point::new(
                                        5.0 + rng.next() * 990.0,
                                        5.0 + rng.next() * 990.0,
                                    ),
                                    vel: Velocity::ZERO,
                                    ts: Timestamp::from_secs(150),
                                })
                                .expect("inline update");
                        }
                    }
                    reads
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader")).sum()
    };
    let wall_secs = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let mut latencies = writer.join().expect("writer");
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[((latencies.len() - 1) as f64 * p) as usize]
        }
    };

    Measured {
        read_qps: reads_total as f64 / wall_secs.max(1e-9),
        write_p50_us: pct(0.50),
        write_p95_us: pct(0.95),
    }
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig21_read_concurrency_smoke"
    } else {
        "fig21_read_concurrency"
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut fig = Figure::new(
        id,
        "Intra-shard read concurrency: lock-split vs exclusive-guard reads, 90/10 mix, writes in flight",
        "reader threads",
        "reads/s (wall) / ratio (x) / us",
    );
    let mut excl_series = Series::new("read QPS exclusive (noisy)");
    let mut split_series = Series::new("read QPS lock-split (noisy)");
    let mut gain_series = Series::new("lock-split read gain (x)");
    let mut p50_series = Series::new("batch p50 us in-flight (noisy)");
    let mut p95_series = Series::new("batch p95 us in-flight (noisy)");

    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "readers", "guard", "read q/s", "wall-mode", "gain", "batch p50", "batch p95"
    );
    let mut headline = 0.0f64;
    for &readers in &scale.reader_threads {
        let excl = run_one(ReadGuard::Exclusive, readers, &scale);
        let split = run_one(ReadGuard::Split, readers, &scale);
        let gain = split.read_qps / excl.read_qps.max(1e-9);
        for (label, m) in [("exclusive", &excl), ("lock-split", &split)] {
            println!(
                "{readers:>8} {label:>10} {:>12.0} {:>12} {:>7} {:>8.0}us {:>8.0}us",
                m.read_qps,
                "wall",
                if label == "lock-split" {
                    format!("{gain:.2}x")
                } else {
                    "-".into()
                },
                m.write_p50_us,
                m.write_p95_us,
            );
        }
        excl_series.push(readers as f64, excl.read_qps);
        split_series.push(readers as f64, split.read_qps);
        gain_series.push(readers as f64, gain);
        p50_series.push(readers as f64, split.write_p50_us);
        p95_series.push(readers as f64, split.write_p95_us);
        if readers == *scale.reader_threads.last().unwrap() {
            headline = gain;
        }
    }
    fig.add(excl_series);
    fig.add(split_series);
    fig.add(gain_series);
    fig.add(p50_series);
    fig.add(p95_series);
    fig.print();
    fig.save().expect("save");

    // The bar needs real cores: concurrent read guards can only beat a
    // serialized guard in wall QPS when readers actually overlap. On a
    // starved host the honest check is "the split costs nothing".
    let max_readers = *scale.reader_threads.last().unwrap();
    let bar = if cores >= max_readers.min(4) {
        if smoke {
            1.2
        } else {
            2.0
        }
    } else {
        println!(
            "[fig21] only {cores} core(s) available for {max_readers} readers: \
             parallel speedup cannot materialize in wall clock; \
             gating on no-regression (>= 0.85x) instead of the {}x bar",
            if smoke { 1.2 } else { 2.0 }
        );
        0.85
    };
    assert!(
        headline >= bar,
        "lock-split read gain {headline:.2}x at {max_readers} readers is below the {bar}x bar"
    );
    println!(
        "lock-split at {max_readers} readers, 90/10 mix: {headline:.2}x read QPS over the exclusive guard ({cores} cores)"
    );
}
