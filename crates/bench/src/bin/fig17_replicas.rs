//! Figure 17 (repo extension) — replicated cell ownership: read
//! throughput vs replica factor, and follower-promotion latency on a
//! shard kill.
//!
//! The paper's front-end tier gives every clustering cell exactly one
//! owner, so a cell that draws most of the *queries* — a business
//! center at rush hour, §3.4.2's FLAG observation again — pins whichever
//! shard wins it: that shard's read queue is the whole tier's read
//! throughput. Because MOIST keeps all state in the shared store,
//! replication is free of write amplification: the rendezvous top-`k`
//! shards of a cell can all serve its reads (updates and clustering stay
//! on the rank-0 primary), and when the primary dies the rank-1 follower
//! — already warm on the cell's reads — adopts its deadlines instantly.
//!
//! This bin drives the worst case the single-owner tier admits: two
//! business centers whose clustering cells **rendezvous-hash to the same
//! primary** (the hot spots are probed deterministically per shard
//! count, so the collision is by construction, not luck). The update
//! stream stays uniform; the query stream concentrates on the two hot
//! cells. Per `shards × read/write mix × replica factor k`, identically
//! seeded stores report:
//!
//! * **read QPS** — hot-mix NN queries served per busiest-shard virtual
//!   second (`reads / max_elapsed_us`): the client-visible read ceiling,
//!   deterministic because the driver is single-threaded and all costs
//!   are virtual;
//! * **k=2 read gain** — that QPS over the k=1 run's on the same store
//!   seeds: the figure's headline;
//! * **promotion latency** — at k≥2 the measured run ends with a kill of
//!   the hot primary: wall-clock µs from `remove_shard` to the first
//!   successful post-kill NN on a hot center (labelled `(noisy)` — wall
//!   clock is not gate-worthy), plus the deterministic count of keys
//!   instantly promoted.
//!
//! The full run asserts the acceptance bars at the largest fleet on the
//! 90/10 mix: **k=2 read QPS ≥ 2× k=1** (the two hot cells' replica
//! sets overlap only at the shared primary, so reads spread over ≥ 3
//! shards), promotions cover every key the victim owned, and the
//! post-kill probe succeeds immediately — zero read downtime.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use moist_bench::{smoke_mode, Figure, Rng, Series};
use std::time::Instant;

struct Scale {
    shard_counts: Vec<usize>,
    /// Replica factors swept (1 is the single-owner baseline).
    replica_factors: Vec<usize>,
    /// Read fraction of the measured operation mix.
    read_mixes: Vec<f64>,
    objects: u64,
    warmup_secs: u64,
    measure_secs: u64,
    ops_per_sec: u64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            shard_counts: vec![4, 10],
            replica_factors: vec![1, 2, 3],
            read_mixes: vec![0.5, 0.9],
            objects: 3_000,
            warmup_secs: 30,
            measure_secs: 100,
            ops_per_sec: 150,
        }
    }

    fn smoke() -> Self {
        Scale {
            shard_counts: vec![4],
            replica_factors: vec![1, 2],
            read_mixes: vec![0.9],
            objects: 600,
            warmup_secs: 20,
            measure_secs: 40,
            ops_per_sec: 60,
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

/// Candidate business-center locations, each at the center of a distinct
/// level-3 clustering cell (125-unit cells on the 1000² world).
const CANDIDATE_SPOTS: &[(f64, f64)] = &[
    (187.5, 187.5),
    (687.5, 312.5),
    (437.5, 812.5),
    (62.5, 562.5),
    (937.5, 62.5),
    (312.5, 937.5),
    (812.5, 687.5),
    (562.5, 437.5),
    (62.5, 62.5),
    (937.5, 937.5),
    (187.5, 687.5),
    (687.5, 62.5),
];

/// Picks two candidate cells owned by the *same* primary at this shard
/// count — the single-owner tier's worst case, found by probing a
/// throwaway (empty) cluster. Rendezvous hashing is deterministic, so
/// the collision reproduces run to run; with 12 candidates a colliding
/// pair exists at every fleet size we sweep (asserted, not assumed).
fn colliding_hot_spots(shards: usize) -> ((f64, f64), (f64, f64)) {
    let store = Bigtable::new();
    let probe = MoistCluster::builder(&store, config())
        .shards(shards)
        .build()
        .expect("probe cluster");
    for (i, &a) in CANDIDATE_SPOTS.iter().enumerate() {
        for &b in &CANDIDATE_SPOTS[i + 1..] {
            let pa = probe.shard_for_point(&Point::new(a.0, a.1));
            let pb = probe.shard_for_point(&Point::new(b.0, b.1));
            if pa == pb {
                return (a, b);
            }
        }
    }
    panic!("no two candidate cells share a primary at {shards} shards");
}

/// One update of the stream: mostly uniform (the write load spreads over
/// the fleet, as fig14's mixed workload does), with a slice refreshing
/// the hot-cell populations so their schools stay live.
fn next_update(rng: &mut Rng, objects: u64, spots: &[(f64, f64)], at_secs: f64) -> UpdateMessage {
    let hot = rng.next() < 0.3;
    let (oid, x, y) = if hot {
        let spot = usize::from(rng.next() < 0.5);
        let (cx, cy) = spots[spot];
        let pool = objects * 3 / 10 / spots.len() as u64;
        let oid = spot as u64 * pool + (rng.next() * pool as f64) as u64;
        (
            oid,
            cx + rng.next() * 40.0 - 20.0,
            cy + rng.next() * 40.0 - 20.0,
        )
    } else {
        let pool = objects * 4 / 10;
        let oid = objects * 6 / 10 + (rng.next() * pool as f64) as u64;
        (oid, 5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
    };
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::ZERO,
        ts: Timestamp::from_secs_f64(at_secs),
    }
}

/// One query center of the stream: 90% on the two business centers, the
/// rest uniform background reads.
fn next_query_center(rng: &mut Rng, spots: &[(f64, f64)]) -> Point {
    if rng.next() < 0.9 {
        let spot = usize::from(rng.next() < 0.5);
        let (cx, cy) = spots[spot];
        Point::new(cx + rng.next() * 40.0 - 20.0, cy + rng.next() * 40.0 - 20.0)
    } else {
        Point::new(5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
    }
}

/// Registers the population: the hot pools jittered around their
/// business centers, the rest uniform (NN queries anywhere find
/// neighbours).
fn seed(cluster: &MoistCluster, rng: &mut Rng, objects: u64, spots: &[(f64, f64)]) {
    for oid in 0..objects {
        let t = oid as f64 / objects as f64;
        let pool = objects * 3 / 10 / spots.len() as u64;
        let (x, y) = if oid < pool {
            let (cx, cy) = spots[0];
            (cx + rng.next() * 40.0 - 20.0, cy + rng.next() * 40.0 - 20.0)
        } else if oid < 2 * pool {
            let (cx, cy) = spots[1];
            (cx + rng.next() * 40.0 - 20.0, cy + rng.next() * 40.0 - 20.0)
        } else {
            (5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
        };
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs_f64(t),
            })
            .expect("seed update");
    }
}

/// Drives the read/write mix for `[from, to)` virtual seconds, ticking
/// clustering once per second. Returns the number of NN reads issued.
fn drive(
    cluster: &MoistCluster,
    rng: &mut Rng,
    scale: &Scale,
    spots: &[(f64, f64)],
    read_mix: f64,
    from: u64,
    to: u64,
) -> u64 {
    let mut reads = 0u64;
    for sec in from..to {
        for i in 0..scale.ops_per_sec {
            let at = sec as f64 + i as f64 / scale.ops_per_sec as f64;
            if rng.next() < read_mix {
                let center = next_query_center(rng, spots);
                cluster
                    .nn(center, 8, Timestamp::from_secs_f64(at))
                    .expect("nn query");
                reads += 1;
            } else {
                cluster
                    .update(&next_update(rng, scale.objects, spots, at))
                    .expect("update");
            }
        }
        cluster
            .run_due_clustering(Timestamp::from_secs(sec + 1))
            .expect("clustering");
    }
    reads
}

struct Measured {
    read_qps: f64,
    replica_read_share: f64,
    /// Keys instantly promoted by the post-measure kill (0 at k=1, where
    /// the kill phase is skipped — there is no follower to promote).
    promoted_keys: u64,
    /// Wall-clock µs from `remove_shard` entry to the first successful
    /// post-kill hot-cell NN. Wall time ⇒ reported `(noisy)`.
    kill_to_read_us: f64,
}

fn run_one(shards: usize, replicas: usize, read_mix: f64, scale: &Scale) -> Measured {
    let spots_pair = colliding_hot_spots(shards);
    let spots = [spots_pair.0, spots_pair.1];
    let store = Bigtable::new();
    let cluster = MoistCluster::builder(&store, config())
        .shards(shards)
        .replicas(replicas)
        .build()
        .expect("cluster");
    let mut rng = Rng(0x000F_1617_AB1E);
    seed(&cluster, &mut rng, scale.objects, &spots);
    drive(
        &cluster,
        &mut rng,
        scale,
        &spots,
        read_mix,
        1,
        scale.warmup_secs,
    );
    cluster.reset_clocks();
    let before = cluster.cluster_stats();
    let reads = drive(
        &cluster,
        &mut rng,
        scale,
        &spots,
        read_mix,
        scale.warmup_secs,
        scale.warmup_secs + scale.measure_secs,
    );
    let end_secs = scale.warmup_secs + scale.measure_secs;
    let after = cluster.cluster_stats();
    let busiest_secs = cluster.max_elapsed_us() / 1e6;
    let read_qps = reads as f64 / busiest_secs.max(1e-9);
    let replica_read_share = (after.replica_reads - before.replica_reads) as f64 / reads as f64;

    // Kill the hot primary and time the handover: at k≥2 its keys'
    // rank-1 followers adopt at preserved deadlines, and the very next
    // read on a hot cell must be served — zero downtime.
    let (promoted_keys, kill_to_read_us) = if replicas >= 2 {
        let victim_pos = cluster.shard_for_point(&Point::new(spots[0].0, spots[0].1));
        let victim_id = cluster.shard_ids()[victim_pos];
        let promos_before = after.promotions;
        let t0 = Instant::now();
        cluster.remove_shard(victim_id).expect("remove hot primary");
        let (hits, _) = cluster
            .nn(
                Point::new(spots[0].0, spots[0].1),
                8,
                Timestamp::from_secs(end_secs),
            )
            .expect("post-kill NN must be served");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        assert!(
            !hits.is_empty(),
            "post-kill NN on the hot cell returned nothing"
        );
        let promos = cluster.cluster_stats().promotions - promos_before;
        assert!(promos > 0, "a kill at k={replicas} must promote followers");
        // The adopted deadlines must still drive clustering on the new
        // primaries — the schedule survived the kill intact.
        cluster
            .run_due_clustering(Timestamp::from_secs(end_secs + 10))
            .expect("post-kill clustering");
        (promos, us)
    } else {
        (0, 0.0)
    };

    Measured {
        read_qps,
        replica_read_share,
        promoted_keys,
        kill_to_read_us,
    }
}

fn mix_label(read_mix: f64) -> String {
    format!("{:.0}/{:.0}", read_mix * 100.0, (1.0 - read_mix) * 100.0)
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig17_replicas_smoke"
    } else {
        "fig17_replicas"
    };
    let mut fig = Figure::new(
        id,
        "Replicated ownership: hot-cell read QPS by replica factor, promotion latency on primary kill",
        "shards",
        "reads/s (virtual) / ratio (x) / us",
    );
    let mut qps_series: Vec<Series> = Vec::new();
    let mut gain_series: Vec<Series> = Vec::new();
    for &mix in &scale.read_mixes {
        for &k in &scale.replica_factors {
            qps_series.push(Series::new(format!("read QPS k={k} {}", mix_label(mix))));
        }
        gain_series.push(Series::new(format!("k=2 read gain {} (x)", mix_label(mix))));
    }
    let mut promo_series = Series::new("promoted keys k=2");
    let mut latency_series = Series::new("kill-to-read us k=2 (noisy)");
    println!(
        "{:>7} {:>6} {:>4} {:>12} {:>10} {:>9} {:>14}",
        "shards", "mix", "k", "read q/s", "repl-share", "promoted", "kill-to-read"
    );
    // The acceptance pair: k=1 and k=2 read QPS on the 90/10 mix at the
    // largest fleet.
    let mut headline: Option<(f64, f64)> = None;
    for &shards in &scale.shard_counts {
        let mut col = 0usize;
        for (mi, &mix) in scale.read_mixes.iter().enumerate() {
            let mut baseline_qps = 0.0f64;
            for &k in &scale.replica_factors {
                let m = run_one(shards, k, mix, &scale);
                println!(
                    "{shards:>7} {:>6} {k:>4} {:>12.0} {:>10.3} {:>9} {:>11.0}us",
                    mix_label(mix),
                    m.read_qps,
                    m.replica_read_share,
                    m.promoted_keys,
                    m.kill_to_read_us
                );
                qps_series[col].push(shards as f64, m.read_qps);
                col += 1;
                if k == 1 {
                    baseline_qps = m.read_qps;
                }
                if k == 2 {
                    let gain = m.read_qps / baseline_qps.max(1e-9);
                    gain_series[mi].push(shards as f64, gain);
                    if mix >= 0.89 {
                        promo_series.push(shards as f64, m.promoted_keys as f64);
                        latency_series.push(shards as f64, m.kill_to_read_us);
                        if shards == *scale.shard_counts.last().unwrap() {
                            headline = Some((baseline_qps, m.read_qps));
                        }
                    }
                }
            }
        }
    }
    for s in qps_series {
        fig.add(s);
    }
    for s in gain_series {
        fig.add(s);
    }
    fig.add(promo_series);
    fig.add(latency_series);
    fig.print();
    fig.save().expect("save");

    // Acceptance bar (virtual-time numbers from a single-threaded
    // driver: deterministic, safe to assert on). Smoke keeps a loose bar
    // — 4 shards leave less room to spread than the full run's 10.
    let (base, replicated) = headline.expect("90/10 mix at the largest fleet ran");
    let gain = replicated / base.max(1e-9);
    let bar = if smoke { 1.2 } else { 2.0 };
    assert!(
        gain >= bar,
        "k=2 read QPS gain {gain:.2}x is below the {bar}x bar ({base:.0} -> {replicated:.0} reads/s)"
    );
    println!(
        "k=2 at {} shards, 90/10 mix: {gain:.2}x read QPS ({base:.0} -> {replicated:.0} reads/s)",
        scale.shard_counts.last().unwrap()
    );
}
