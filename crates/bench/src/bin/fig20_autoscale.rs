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
use moist::core::{ControllerAction, ControllerConfig, ControllerEvent, MoistCluster};
use moist::spatial::Point;
use moist_bench::{pick, report, run_seconds, tier_config, Figure, Rng, Series, Window};
use std::ops::Range;

struct Scale {
    /// Virtual seconds of pre-surge steady state.
    steady_secs: u64,
    /// Virtual seconds of surge.
    surge_secs: u64,
    /// Virtual seconds after the surge.
    post_secs: u64,
    /// Measurement window.
    window_secs: u64,
    /// `(updates, NN probes)` per virtual second outside the surge.
    steady_demand: (u64, u64),
    /// `(updates, NN probes)` per virtual second during the surge.
    surge_demand: (u64, u64),
    /// Shard count both arms start (and should end) with.
    start_shards: usize,
    /// The operator's surge fleet — also the controller's rough target.
    surge_shards: usize,
    controller: ControllerConfig,
}

const FULL: Scale = Scale {
    steady_secs: 100,
    surge_secs: 120,
    post_secs: 140,
    window_secs: 10,
    steady_demand: (300, 60),
    surge_demand: (2_400, 480),
    start_shards: 2,
    surge_shards: 6,
    controller: ControllerConfig {
        min_shards: 2,
        max_shards: 10,
        window_secs: 5.0,
        cooldown_secs: 15.0,
        target_shard_busy_us: 55_000.0,
    },
};

const SMOKE: Scale = Scale {
    steady_secs: 50,
    surge_secs: 60,
    post_secs: 100,
    window_secs: 10,
    steady_demand: (150, 30),
    surge_demand: (1_200, 240),
    start_shards: 2,
    surge_shards: 6,
    controller: ControllerConfig {
        min_shards: 2,
        max_shards: 8,
        window_secs: 5.0,
        cooldown_secs: 15.0,
        target_shard_busy_us: 28_000.0,
    },
};

impl Scale {
    fn end_secs(&self) -> u64 {
        self.steady_secs + self.surge_secs + self.post_secs
    }

    /// The virtual seconds the crowd is in.
    fn surge(&self) -> Range<u64> {
        self.steady_secs..self.steady_secs + self.surge_secs
    }

    /// `(updates, NN probes)` issued in virtual second `sec`.
    fn demand_at(&self, sec: u64) -> (u64, u64) {
        if self.surge().contains(&sec) {
            self.surge_demand
        } else {
            self.steady_demand
        }
    }
}

/// Objects sit on a 32×32 home grid spaced ~30 units apart — wider than
/// `epsilon`, so distinct objects never merge into one school; the only
/// shedding is an object re-reporting within `epsilon` of itself.
const GRID_SIDE: u64 = 32;
const OBJECTS: u64 = GRID_SIDE * GRID_SIDE;

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
        let at = sec as f64 + i as f64 / updates as f64;
        let msg = report(oid, rng.near(home(oid), 3.0), at);
        cluster.update(&msg).expect("update");
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
    /// Windowed client QPS, by window end.
    qps: Series,
    /// Live shards, by window end.
    shards: Series,
    final_shards: usize,
    shed: u64,
    /// The controller's decision log (empty for the operator arm).
    events: Vec<ControllerEvent>,
}

/// Runs one arm, `name`, over the full timeline. `managed` attaches the
/// controller; otherwise `schedule` is the operator: `(at sec, target
/// fleet)` applied on the tick boundary.
fn run_arm(scale: &Scale, name: &str, managed: bool, schedule: &[(u64, usize)]) -> Arm {
    let store = Bigtable::new();
    let mut builder = MoistCluster::builder(&store, tier_config(10.0)).shards(scale.start_shards);
    if managed {
        builder = builder.controller(scale.controller);
    }
    let cluster = builder.build().expect("cluster");
    let mut rng = Rng(0xF162_0AE5_CA1E);
    let mut arm = Arm {
        qps: Series::new(format!("{name} client QPS")),
        shards: Series::new(format!("{name} live shards (noisy)")),
        final_shards: 0,
        shed: 0,
        events: Vec::new(),
    };
    let mut schedule = schedule.iter().peekable();
    let mut t = 0u64;
    while t < scale.end_secs() {
        let window_end = (t + scale.window_secs).min(scale.end_secs());
        // Joins and retirements change the fleet mid-window; the window
        // times the busiest shard by its own elapsed delta.
        let w = Window::open(&cluster);
        let ops = |sec: u64| {
            if let Some(&(_, target)) = schedule.next_if(|&&(at, _)| sec >= at) {
                while cluster.num_shards() < target {
                    cluster.add_shard().expect("operator join");
                }
                while cluster.num_shards() > target {
                    let id = *cluster.shard_ids().last().expect("nonempty fleet");
                    cluster.remove_shard(id).expect("operator retire");
                }
            }
            let (ups, nns) = scale.demand_at(sec);
            drive_second(&cluster, &mut rng, sec, ups, nns);
        };
        run_seconds(&cluster, t..window_end, ops, |end| {
            if managed {
                let now = Timestamp::from_secs(end);
                cluster.controller_tick(now).expect("controller tick");
            }
        });
        let w = w.close(&cluster);
        arm.shed += w.ops.shed;
        arm.qps.push(window_end as f64, w.client_qps(true));
        arm.shards
            .push(window_end as f64, w.end.shards.len() as f64);
        t = window_end;
    }
    arm.final_shards = cluster.num_shards();
    arm.events = cluster.controller_events();
    arm
}

/// Mean of a windowed series over `(from, to]` window-end times.
fn mean_over(series: &Series, from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .points
        .iter()
        .filter(|&&(t, _)| t > from && t <= to)
        .map(|&(_, v)| v)
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn main() {
    let scale = pick(&FULL, &SMOKE);
    // The operator's perfect fixed schedule: grow the instant the surge
    // starts, retire the instant it ends.
    let schedule = [
        (scale.surge().start, scale.surge_shards),
        (scale.surge().end, scale.start_shards),
    ];
    let baseline = run_arm(scale, "baseline", false, &schedule);
    let managed = run_arm(scale, "controller", true, &[]);

    // Headline scalars over the late-surge windows (the baseline's own
    // join transient excluded).
    let late_from = (scale.surge().start + scale.surge_secs / 2) as f64;
    let late_to = scale.surge().end as f64;
    let baseline_ref = mean_over(&baseline.qps, late_from, late_to);
    let recovered = mean_over(&managed.qps, late_from, late_to);
    let overloaded = managed
        .qps
        .points
        .iter()
        .find(|&&(t, _)| t > scale.surge().start as f64)
        .map(|&(_, v)| v)
        .expect("a surge window exists");
    let time_to_recover = managed
        .qps
        .points
        .iter()
        .find(|&&(t, v)| t > scale.surge().start as f64 && v >= 0.8 * baseline_ref)
        .map(|&(t, _)| t - scale.surge().start as f64)
        .unwrap_or(scale.surge_secs as f64);

    let events = &managed.events;
    let count = |is: fn(&ControllerAction) -> bool| events.iter().filter(|e| is(&e.action)).count();
    let adds = count(|a| matches!(a, ControllerAction::AddShard { .. }));
    let removes = count(|a| matches!(a, ControllerAction::RemoveShard { .. }));
    println!(
        "\nbaseline late-surge {baseline_ref:.0} q/s | controller recovered {recovered:.0} q/s \
         ({:.0}%) in {time_to_recover:.0}s | fleet {} -> peak {} -> {} | {adds} adds, {removes} removes",
        100.0 * recovered / baseline_ref.max(1e-9),
        scale.start_shards,
        managed
            .shards
            .points
            .iter()
            .map(|&(_, n)| n as usize)
            .max()
            .unwrap_or(0),
        managed.final_shards,
    );

    let mut fig = Figure::new(
        "fig20_autoscale",
        "Self-tuning elasticity: controller vs hand-scheduled fleet through a flash crowd",
        "simulated seconds",
        "updates/s / shards",
    );
    fig.add(baseline.qps.clone());
    fig.add(managed.qps.clone());
    fig.add(baseline.shards.clone());
    fig.add(managed.shards.clone());
    fig.add(Series::from_points("recovered QPS", vec![(0.0, recovered)]));
    let ttr = vec![(0.0, time_to_recover)];
    fig.add(Series::from_points("time-to-recover secs (noisy)", ttr));
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
        managed.final_shards.abs_diff(scale.start_shards) <= 1,
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
    println!(
        "controller recovered {:.0}% of the hand-scheduled baseline in {time_to_recover:.0}s and scaled back down",
        100.0 * recovered / baseline_ref.max(1e-9)
    );
}
