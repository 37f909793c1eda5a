//! Figure 20 (repo extension) — self-tuning elasticity under a flash
//! crowd.
//!
//! The paper's scale-out experiments (§4.3.3) size the fleet by hand;
//! `fig14_scaleout --elastic` already measures the *mechanism* (live
//! joins) but still drives it from a hard-coded schedule. This bin closes
//! the loop the `AutoController` was built for: a surge workload hits a
//! small fleet, and the controller — fed only by the tier's own measured
//! signals through client-driven [`controller_tick`]s — must grow the
//! fleet, recover client-visible QPS, and then *shrink back* once the
//! crowd leaves, with **zero operator calls**.
//!
//! Two arms over identically seeded workload streams:
//!
//! * **baseline** — a hand-scheduled operator with perfect knowledge:
//!   joins to the surge-sized fleet at the instant the surge starts and
//!   retires back the instant it ends (the best fixed schedule can do);
//! * **controller** — starts at the same 2 shards with an attached
//!   [`ControllerConfig`]; nobody calls `add_shard`/`remove_shard`.
//!
//! Objects jitter within `epsilon` of their own last report, so MOIST
//! sheds a share of updates as school members — normal served traffic,
//! folded back into client QPS through the shed-ratio multiplier, and
//! deliberately invisible to the controller (it watches
//! [`ClusterStats::refused`], not school sheds). Updates are mixed with
//! NN probes so shard busy-time, and therefore windowed QPS, scales with
//! the fleet instead of saturating the store-capacity clip.
//!
//! Reported (all virtual-time, single-threaded driver — deterministic):
//! windowed client QPS and live shard count for both arms, plus two
//! headline scalars: steady-state **recovered QPS** (controller vs
//! baseline over the late-surge windows) and **time-to-recover** (virtual
//! seconds from surge start until the controller's windowed QPS first
//! reaches 80% of the baseline's surge steady state).
//!
//! Asserted in both full and smoke runs:
//!
//! * the surge visibly overloads the unscaled fleet (the signal is real);
//! * the controller recovers to ≥ 80% of the hand-scheduled baseline's
//!   late-surge steady state, without one operator call;
//! * after the surge the controller scales back down to within one shard
//!   of the pre-surge fleet;
//! * the decision log shows real adds *and* removes, and scaling
//!   decisions from different windows respect the cool-down.
//!
//! [`controller_tick`]: moist::core::MoistCluster::controller_tick
//! [`ClusterStats::refused`]: moist::core::ClusterStats::refused

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{
    ControllerAction, ControllerConfig, MoistCluster, MoistConfig, ObjectId, UpdateMessage,
};
use moist::spatial::{Point, Velocity};
use moist_bench::{smoke_mode, Figure, Rng, Series, STORE_WRITE_CAPACITY_OPS};
use std::collections::HashMap;

struct Scale {
    /// Virtual seconds of pre-surge steady state.
    steady_secs: u64,
    /// Virtual seconds of surge.
    surge_secs: u64,
    /// Virtual seconds after the surge.
    post_secs: u64,
    /// Measurement window.
    window_secs: u64,
    steady_updates_per_sec: u64,
    surge_updates_per_sec: u64,
    steady_nn_per_sec: u64,
    surge_nn_per_sec: u64,
    /// Shard count both arms start (and should end) with.
    start_shards: usize,
    /// The operator's surge fleet — also the controller's rough target.
    surge_shards: usize,
    controller: ControllerConfig,
}

impl Scale {
    fn full() -> Self {
        Scale {
            steady_secs: 100,
            surge_secs: 120,
            post_secs: 140,
            window_secs: 10,
            steady_updates_per_sec: 300,
            surge_updates_per_sec: 2_400,
            steady_nn_per_sec: 60,
            surge_nn_per_sec: 480,
            start_shards: 2,
            surge_shards: 6,
            controller: ControllerConfig {
                min_shards: 2,
                max_shards: 10,
                window_secs: 5.0,
                cooldown_secs: 15.0,
                target_shard_busy_us: 55_000.0,
            },
        }
    }

    fn smoke() -> Self {
        Scale {
            steady_secs: 50,
            surge_secs: 60,
            post_secs: 100,
            window_secs: 10,
            steady_updates_per_sec: 150,
            surge_updates_per_sec: 1_200,
            steady_nn_per_sec: 30,
            surge_nn_per_sec: 240,
            start_shards: 2,
            surge_shards: 6,
            controller: ControllerConfig {
                min_shards: 2,
                max_shards: 8,
                window_secs: 5.0,
                cooldown_secs: 15.0,
                target_shard_busy_us: 28_000.0,
            },
        }
    }

    fn end_secs(&self) -> u64 {
        self.steady_secs + self.surge_secs + self.post_secs
    }

    fn surge_start(&self) -> u64 {
        self.steady_secs
    }

    fn surge_end(&self) -> u64 {
        self.steady_secs + self.surge_secs
    }

    fn demand_at(&self, sec: u64) -> (u64, u64) {
        if sec >= self.surge_start() && sec < self.surge_end() {
            (self.surge_updates_per_sec, self.surge_nn_per_sec)
        } else {
            (self.steady_updates_per_sec, self.steady_nn_per_sec)
        }
    }
}

/// Objects sit on a 32×32 home grid spaced ~30 units apart — wider than
/// `epsilon`, so distinct objects never merge into one school; the only
/// shedding is an object re-reporting within `epsilon` of itself.
const GRID_SIDE: u64 = 32;
const OBJECTS: u64 = GRID_SIDE * GRID_SIDE;

fn config() -> MoistConfig {
    MoistConfig {
        epsilon: 10.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

fn home(oid: u64) -> (f64, f64) {
    (
        15.0 + (oid % GRID_SIDE) as f64 * 30.0,
        15.0 + (oid / GRID_SIDE) as f64 * 30.0,
    )
}

/// One virtual second of demand: uniform updates jittering objects around
/// their homes, plus NN probes (query load is what makes busy-time, and
/// therefore windowed QPS, track fleet size).
fn drive_second(cluster: &MoistCluster, rng: &mut Rng, sec: u64, updates: u64, queries: u64) {
    for i in 0..updates {
        let oid = (rng.next() * OBJECTS as f64) as u64 % OBJECTS;
        let (hx, hy) = home(oid);
        let at = sec as f64 + i as f64 / updates as f64;
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(hx + rng.next() * 6.0 - 3.0, hy + rng.next() * 6.0 - 3.0),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs_f64(at),
            })
            .expect("update");
    }
    for q in 0..queries {
        let oid = (rng.next() * OBJECTS as f64) as u64 % OBJECTS;
        let (hx, hy) = home(oid);
        let at = sec as f64 + q as f64 / queries.max(1) as f64;
        cluster
            .nn(Point::new(hx, hy), 5, Timestamp::from_secs_f64(at))
            .expect("nn probe");
    }
}

struct Arm {
    /// `(window end secs, client QPS)` per window.
    qps: Vec<(f64, f64)>,
    /// `(window end secs, live shards)` per window.
    shards: Vec<(f64, f64)>,
    final_shards: usize,
    shed: u64,
}

/// Runs one arm over the full timeline. `managed` attaches the
/// controller; otherwise `schedule` is the operator: `(at sec, target
/// fleet)` applied on the tick boundary.
fn run_arm(scale: &Scale, managed: bool, schedule: &[(u64, usize)]) -> (Arm, MoistCluster) {
    let store = Bigtable::new();
    let mut builder = MoistCluster::builder(&store, config()).shards(scale.start_shards);
    if managed {
        builder = builder.controller(scale.controller);
    }
    let cluster = builder.build().expect("cluster");
    let mut rng = Rng(0xF162_0AE5_CA1E);
    let mut qps = Vec::new();
    let mut shards = Vec::new();
    let mut shed_total = 0u64;
    let mut schedule = schedule.iter().copied().peekable();

    let mut t = 0u64;
    while t < scale.end_secs() {
        let window_end = (t + scale.window_secs).min(scale.end_secs());
        let before = cluster.stats();
        // Per-shard busy baselines: joins and retirements change the
        // fleet mid-window, so the busiest-shard delta is taken per id.
        let elapsed_before: HashMap<u64, f64> = cluster
            .cluster_stats()
            .shards
            .iter()
            .map(|s| (s.id, s.elapsed_us))
            .collect();
        for sec in t..window_end {
            if let Some(&(at, target)) = schedule.peek() {
                if sec >= at {
                    while cluster.num_shards() < target {
                        cluster.add_shard().expect("operator join");
                    }
                    while cluster.num_shards() > target {
                        let id = *cluster.shard_ids().last().expect("nonempty fleet");
                        cluster.remove_shard(id).expect("operator retire");
                    }
                    schedule.next();
                }
            }
            let (ups, nns) = scale.demand_at(sec);
            drive_second(&cluster, &mut rng, sec, ups, nns);
            let now = Timestamp::from_secs(sec + 1);
            cluster.run_due_clustering(now).expect("clustering");
            if managed {
                cluster.controller_tick(now).expect("controller tick");
            }
        }
        let after = cluster.stats();
        let cstats = cluster.cluster_stats();
        let busiest_us = cstats
            .shards
            .iter()
            .map(|s| s.elapsed_us - elapsed_before.get(&s.id).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let updates = after.updates - before.updates;
        let shed = after.shed - before.shed;
        shed_total += shed;
        let non_shed = (updates - shed) as f64;
        let store_qps = (non_shed / (busiest_us / 1e6).max(1e-9)).min(STORE_WRITE_CAPACITY_OPS);
        let shed_ratio = shed as f64 / updates.max(1) as f64;
        let client_qps = store_qps / (1.0 - shed_ratio).max(0.05);
        qps.push((window_end as f64, client_qps));
        shards.push((window_end as f64, cluster.num_shards() as f64));
        t = window_end;
    }
    let arm = Arm {
        qps,
        shards,
        final_shards: cluster.num_shards(),
        shed: shed_total,
    };
    (arm, cluster)
}

/// Mean of a windowed series over `(from, to]` window-end times.
fn mean_over(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t > from && t <= to)
        .map(|&(_, v)| v)
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig20_autoscale_smoke"
    } else {
        "fig20_autoscale"
    };

    // The operator's perfect fixed schedule: grow the instant the surge
    // starts, retire the instant it ends.
    let schedule = [
        (scale.surge_start(), scale.surge_shards),
        (scale.surge_end(), scale.start_shards),
    ];
    let (baseline, base_cluster) = run_arm(&scale, false, &schedule);
    let (managed, cluster) = run_arm(&scale, true, &[]);

    println!(
        "{:>8} {:>12} {:>7} {:>12} {:>7}",
        "sim sec", "base q/s", "shards", "ctrl q/s", "shards"
    );
    for i in 0..baseline.qps.len() {
        println!(
            "{:>8.0} {:>12.0} {:>7.0} {:>12.0} {:>7.0}",
            baseline.qps[i].0,
            baseline.qps[i].1,
            baseline.shards[i].1,
            managed.qps[i].1,
            managed.shards[i].1
        );
    }

    // Headline scalars over the late-surge windows (the baseline's own
    // join transient excluded).
    let late_from = (scale.surge_start() + scale.surge_secs / 2) as f64;
    let late_to = scale.surge_end() as f64;
    let baseline_ref = mean_over(&baseline.qps, late_from, late_to);
    let recovered = mean_over(&managed.qps, late_from, late_to);
    let overloaded = managed
        .qps
        .iter()
        .find(|&&(t, _)| t > scale.surge_start() as f64)
        .map(|&(_, v)| v)
        .expect("a surge window exists");
    let time_to_recover = managed
        .qps
        .iter()
        .find(|&&(t, v)| t > scale.surge_start() as f64 && v >= 0.8 * baseline_ref)
        .map(|&(t, _)| t - scale.surge_start() as f64)
        .unwrap_or(scale.surge_secs as f64);

    let events = cluster.controller_events();
    let adds = events
        .iter()
        .filter(|e| matches!(e.action, ControllerAction::AddShard { .. }))
        .count();
    let removes = events
        .iter()
        .filter(|e| matches!(e.action, ControllerAction::RemoveShard { .. }))
        .count();
    println!(
        "\nbaseline late-surge {baseline_ref:.0} q/s | controller recovered {recovered:.0} q/s \
         ({:.0}%) in {time_to_recover:.0}s | fleet {} -> peak {} -> {} | {adds} adds, {removes} removes",
        100.0 * recovered / baseline_ref.max(1e-9),
        scale.start_shards,
        managed
            .shards
            .iter()
            .map(|&(_, n)| n as usize)
            .max()
            .unwrap_or(0),
        managed.final_shards,
    );

    let mut fig = Figure::new(
        id,
        "Self-tuning elasticity: controller vs hand-scheduled fleet through a flash crowd",
        "simulated seconds",
        "updates/s / shards",
    );
    let mut s = Series::new("baseline client QPS");
    for &(t, v) in &baseline.qps {
        s.push(t, v);
    }
    fig.add(s);
    let mut s = Series::new("controller client QPS");
    for &(t, v) in &managed.qps {
        s.push(t, v);
    }
    fig.add(s);
    let mut s = Series::new("baseline live shards (noisy)");
    for &(t, v) in &baseline.shards {
        s.push(t, v);
    }
    fig.add(s);
    let mut s = Series::new("controller live shards (noisy)");
    for &(t, v) in &managed.shards {
        s.push(t, v);
    }
    fig.add(s);
    let mut s = Series::new("recovered QPS");
    s.push(0.0, recovered);
    fig.add(s);
    let mut s = Series::new("time-to-recover secs (noisy)");
    s.push(0.0, time_to_recover);
    fig.add(s);
    fig.print();
    fig.save().expect("save");

    // ---- acceptance bars (deterministic virtual-time numbers) ----
    // Both arms see the same seeded stream, so school shedding matches
    // and cancels out of the arm-vs-arm comparison.
    assert_eq!(baseline.shed, managed.shed, "arms diverged on shedding");
    assert_eq!(baseline.final_shards, scale.start_shards);
    // The surge really overloads the unscaled fleet — without this the
    // recovery bars would be vacuous.
    assert!(
        overloaded < 0.9 * baseline_ref,
        "first surge window {overloaded:.0} q/s vs baseline {baseline_ref:.0}: no overload signal"
    );
    // Recovery: ≥ 80% of the perfect operator's steady state, no
    // operator calls (this arm never touches add_shard/remove_shard).
    assert!(
        recovered >= 0.8 * baseline_ref,
        "controller recovered {recovered:.0} q/s < 80% of baseline {baseline_ref:.0}"
    );
    // Scale-back: the crowd left, the fleet follows.
    assert!(
        (managed.final_shards as i64 - scale.start_shards as i64).abs() <= 1,
        "controller ended at {} shards, started at {}",
        managed.final_shards,
        scale.start_shards
    );
    // The decision log shows a real round trip under hysteresis.
    assert!(adds >= 1, "no scale-up decisions: {events:?}");
    assert!(removes >= 1, "no scale-down decisions: {events:?}");
    let scale_times: Vec<f64> = events
        .iter()
        .filter(|e| e.action.is_scaling())
        .map(|e| e.at_secs)
        .collect();
    for pair in scale_times.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            gap == 0.0 || gap >= scale.controller.cooldown_secs - 1e-9,
            "scale decisions {gap}s apart violate the cool-down"
        );
    }
    drop(base_cluster);
    println!(
        "controller recovered {:.0}% of the hand-scheduled baseline in {time_to_recover:.0}s and scaled back down",
        100.0 * recovered / baseline_ref.max(1e-9)
    );
}
