//! The self-tuning elasticity controller: the loop that makes the fleet
//! operator-free.
//!
//! The paper's scalability story (§6.4's scale-out experiments) assumes
//! someone grows and shrinks the fleet as demand moves. Everywhere else
//! in this tier the "someone" is already a measurement — placement
//! weights, hot-cell splits and fan-out slice prices all derive from the
//! load layer — but *fleet size* was still a driver schedule
//! (`fig14_scaleout --elastic` joins shards at hard-coded instants).
//! `AutoController` closes that last loop: it windows the tier's own
//! [`ClusterStats`] signals and decides
//! [`add_shard`](crate::MoistCluster::add_shard) /
//! [`remove_shard`](crate::MoistCluster::remove_shard) /
//! [`rebalance`](crate::MoistCluster::rebalance) itself.
//!
//! # Discipline: virtual time, client ticks
//!
//! Like `LoadTracker`, the controller runs
//! on **virtual time** — the timestamps the workload carries — and is
//! driven by client calls to
//! [`controller_tick`](crate::MoistCluster::controller_tick), not by a
//! background thread. A given workload therefore produces the same
//! scaling decisions on every run, which is what lets the
//! `fig20_autoscale` bench assert recovery behaviour and the chaos tests
//! assert non-oscillation deterministically.
//!
//! # Signals
//!
//! Each closed window (`window_secs` of virtual time) the controller
//! reads, as *deltas against the previous window*:
//!
//! * per-shard **busy time** — virtual µs of store time consumed per
//!   virtual second; the busiest shard is compared against
//!   `target_shard_busy_us` (the knee of one shard's capacity);
//! * **refusals** — [`ClusterStats::refused`] growth (ingest
//!   backpressure) means clients are already being
//!   turned away, the strongest possible "too small" signal. School
//!   sheds are deliberately *not* in this signal: a school-shed update
//!   was served (absorbed by the school model), so steady shedding is
//!   MOIST working, not the fleet drowning;
//! * **ingest queue depth** — a queue holding more than
//!   `QUEUE_PRESSURE` of its cap is a surge the flush path is losing;
//! * **split-table pressure** — a full
//!   [`SplitTable`](crate::placement::SplitTable) while utilization is
//!   still skewed means finer ownership ran out of room and only more
//!   capacity helps.
//!
//! # Hysteresis
//!
//! Three mechanisms keep the controller from oscillating:
//!
//! * a **dead-band** between `SCALE_UP_UTILIZATION` and
//!   `SCALE_DOWN_UTILIZATION` (scale-down projects the load onto `n − 1`
//!   shards and requires it to stay *well below* where scale-up would
//!   trigger);
//! * a **cool-down** of `cooldown_secs` between scaling actions, in
//!   virtual time — after an add (or remove) the fleet gets a full
//!   measurement quiet period before the opposite action is even
//!   considered;
//! * **min/max fleet clamps** (`min_shards`/`max_shards`).
//!
//! Rebalance runs on its own cadence (`REBALANCE_EVERY_SECS`) outside
//! the cool-down: re-placing load inside the current fleet is cheap and
//! self-limiting (it has its own dead-bands), so it never waits on
//! scaling hysteresis.

use crate::cluster_tier::ClusterStats;
use moist_bigtable::Timestamp;
use std::collections::HashMap;

/// Cadence of controller-driven [`rebalance`] calls, in virtual seconds.
/// Not subject to the scaling cool-down.
///
/// [`rebalance`]: crate::MoistCluster::rebalance
const REBALANCE_EVERY_SECS: f64 = 10.0;
/// Scale up when the busiest shard's busy time exceeds this fraction of
/// `target_shard_busy_us`.
const SCALE_UP_UTILIZATION: f64 = 0.9;
/// Scale down only when the fleet's total busy time, projected onto
/// `n − 1` shards, stays below this fraction of `target_shard_busy_us`.
/// Sits below [`SCALE_UP_UTILIZATION`] — the gap is the dead-band.
const SCALE_DOWN_UTILIZATION: f64 = 0.5;
const _: () = assert!(SCALE_DOWN_UTILIZATION < SCALE_UP_UTILIZATION);
/// Scale up when any shard's ingest queue holds more than this fraction
/// of its cap.
const QUEUE_PRESSURE: f64 = 0.5;
/// Most shards added by a single scaling decision (removal is always one
/// at a time — it migrates cells).
const MAX_STEP_SHARDS: usize = 2;

/// Knobs for `AutoController`. Construct with struct-update syntax
/// over [`Default::default`], then hand to
/// [`ClusterBuilder::controller`](crate::ClusterBuilder::controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The controller never shrinks the fleet below this.
    pub min_shards: usize,
    /// The controller never grows the fleet above this.
    pub max_shards: usize,
    /// Evaluation window in virtual seconds: signals are measured as
    /// deltas over one window and at most one scaling decision is made
    /// per window.
    pub window_secs: f64,
    /// Quiet period in virtual seconds after any add/remove before the
    /// next scaling action (either direction) is considered.
    pub cooldown_secs: f64,
    /// The knee of one shard's capacity: virtual µs of store time a
    /// shard can comfortably consume per virtual second. Utilization
    /// thresholds are fractions of this.
    pub target_shard_busy_us: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            min_shards: 1,
            max_shards: 16,
            window_secs: 10.0,
            cooldown_secs: 30.0,
            // Half a virtual second of store time per virtual second:
            // 50% headroom before the shard's mutex becomes the limit.
            target_shard_busy_us: 500_000.0,
        }
    }
}

impl ControllerConfig {
    /// Clamps degenerate values into a workable configuration:
    /// `1 ≤ min ≤ max` and a positive window/target.
    pub fn normalized(mut self) -> Self {
        self.min_shards = self.min_shards.max(1);
        self.max_shards = self.max_shards.max(self.min_shards);
        self.window_secs = self.window_secs.max(1e-3);
        self.cooldown_secs = self.cooldown_secs.max(0.0);
        self.target_shard_busy_us = self.target_shard_busy_us.max(1.0);
        self
    }
}

/// One action the controller took, as recorded in its event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerAction {
    /// A shard was added.
    AddShard {
        /// The joiner's stable id.
        id: u64,
    },
    /// A shard was removed.
    RemoveShard {
        /// The removed shard's stable id.
        id: u64,
    },
    /// A rebalance step ran.
    Rebalance {
        /// The membership epoch after the step.
        epoch: u64,
    },
}

impl ControllerAction {
    /// Whether this action changed the fleet size (rebalances do not).
    pub fn is_scaling(&self) -> bool {
        !matches!(self, ControllerAction::Rebalance { .. })
    }
}

/// One entry of the controller's decision log — the observable trace the
/// chaos tests assert hysteresis on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerEvent {
    /// Virtual time of the decision, in seconds.
    pub at_secs: f64,
    /// What was done.
    pub action: ControllerAction,
    /// Live fleet size right after the action.
    pub shards_after: usize,
    /// The signal that triggered the action.
    pub reason: &'static str,
}

/// A decision the controller wants the tier to execute. Produced by
/// [`AutoController::plan`]; the tier executes it and reports back
/// through [`AutoController::note_action`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Plan {
    /// Run a rebalance step.
    Rebalance,
    /// Add `count` shards.
    Add { count: usize, reason: &'static str },
    /// Remove the shard with stable id `victim` (the least-busy shard
    /// of the closed window).
    Remove { victim: u64, reason: &'static str },
}

/// The windowed decision state. Owned by
/// [`MoistCluster`](crate::MoistCluster) (attach via
/// [`ClusterBuilder::controller`](crate::ClusterBuilder::controller))
/// and driven through
/// [`controller_tick`](crate::MoistCluster::controller_tick).
#[derive(Debug)]
pub(crate) struct AutoController {
    cfg: ControllerConfig,
    /// Start of the currently-open measurement window (virtual secs);
    /// `None` until the first tick seeds the baselines.
    window_start_secs: Option<f64>,
    /// Per-shard cumulative busy µs at the window start.
    busy_baseline: HashMap<u64, f64>,
    /// Cumulative refusal count (ingest backpressure) at the window start.
    refused_baseline: u64,
    /// Virtual time of the last add/remove (cool-down anchor).
    last_scale_secs: Option<f64>,
    /// Virtual time of the last controller-driven rebalance.
    last_rebalance_secs: Option<f64>,
    events: Vec<ControllerEvent>,
}

impl AutoController {
    /// Builds a controller from (normalized) `cfg`.
    pub(crate) fn new(cfg: ControllerConfig) -> Self {
        AutoController {
            cfg: cfg.normalized(),
            window_start_secs: None,
            busy_baseline: HashMap::new(),
            refused_baseline: 0,
            last_scale_secs: None,
            last_rebalance_secs: None,
            events: Vec::new(),
        }
    }

    /// The (normalized) configuration this controller runs under.
    pub(crate) fn config(&self) -> ControllerConfig {
        self.cfg
    }

    /// The decision log so far, oldest first.
    pub(crate) fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// Cheap pre-filter: is there anything to evaluate at `now`? Lets
    /// the per-tick fast path skip the [`ClusterStats`] rollup entirely
    /// between window boundaries.
    pub(crate) fn due(&self, now: Timestamp) -> bool {
        let now_secs = now.0 as f64 / 1e6;
        let window_due = match self.window_start_secs {
            None => true,
            Some(start) => now_secs - start >= self.cfg.window_secs,
        };
        let rebalance_due = match self.last_rebalance_secs {
            None => true,
            Some(last) => now_secs - last >= REBALANCE_EVERY_SECS,
        };
        window_due || rebalance_due
    }

    /// Evaluates the controller at `now` against the tier's current
    /// stats and returns the actions to execute. `queue_cap` is the
    /// ingest queue capacity the per-shard depths are measured against.
    ///
    /// The first call only seeds the baselines; afterwards, each elapsed
    /// window yields at most one scaling plan (plus rebalances on their
    /// own cadence). The window then rolls forward whether or not
    /// anything triggered.
    pub(crate) fn plan(
        &mut self,
        now: Timestamp,
        stats: &ClusterStats,
        queue_cap: usize,
        split_table_full: bool,
    ) -> Vec<Plan> {
        let now_secs = now.0 as f64 / 1e6;
        let mut plans = Vec::new();

        // Rebalance cadence, independent of scaling hysteresis. The
        // first tick anchors the timer instead of firing: rebalancing a
        // fleet with no measurements yet is a no-op anyway.
        match self.last_rebalance_secs {
            None => self.last_rebalance_secs = Some(now_secs),
            Some(last) if now_secs - last >= REBALANCE_EVERY_SECS => {
                self.last_rebalance_secs = Some(now_secs);
                plans.push(Plan::Rebalance);
            }
            Some(_) => {}
        }

        let Some(start) = self.window_start_secs else {
            self.window_start_secs = Some(now_secs);
            self.reset_baselines(stats);
            return plans;
        };
        let dt = now_secs - start;
        if dt < self.cfg.window_secs {
            return plans;
        }

        // ---- measure the closed window (deltas over dt) ----
        let busy: Vec<(u64, f64)> = stats
            .shards
            .iter()
            .map(|s| {
                let base = self.busy_baseline.get(&s.id).copied().unwrap_or(0.0);
                (s.id, (s.elapsed_us - base).max(0.0) / dt)
            })
            .collect();
        let total_busy: f64 = busy.iter().map(|&(_, b)| b).sum();
        let busiest = busy.iter().map(|&(_, b)| b).fold(0.0f64, f64::max);
        let refused_delta = stats.refused().saturating_sub(self.refused_baseline);
        let max_queue = stats
            .shards
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);
        let n = stats.shards.len();

        // Roll the window forward before deciding: a cool-down-blocked
        // window must not smear into the next one.
        self.window_start_secs = Some(now_secs);
        self.reset_baselines(stats);

        let cooled = self
            .last_scale_secs
            .is_none_or(|at| now_secs - at >= self.cfg.cooldown_secs);
        if !cooled {
            return plans;
        }

        let target = self.cfg.target_shard_busy_us;
        let queue_hot = queue_cap > 0 && max_queue as f64 >= QUEUE_PRESSURE * queue_cap as f64;
        let up_reason = if busiest > SCALE_UP_UTILIZATION * target {
            Some("busiest shard over utilization target")
        } else if refused_delta > 0 {
            Some("overload refusals observed")
        } else if queue_hot {
            Some("ingest queue pressure")
        } else if split_table_full && stats.utilization_skew() > 2.0 {
            Some("split table exhausted under skew")
        } else {
            None
        };

        if let Some(reason) = up_reason {
            if n < self.cfg.max_shards {
                // Jump toward the fleet size the measured load asks for,
                // a bounded step at a time.
                let desired =
                    ((total_busy / target).ceil() as usize).clamp(n + 1, self.cfg.max_shards);
                let count = (desired - n).min(MAX_STEP_SHARDS);
                plans.push(Plan::Add { count, reason });
            }
        } else if n > self.cfg.min_shards
            && refused_delta == 0
            && max_queue == 0
            && total_busy / (n as f64 - 1.0) < SCALE_DOWN_UTILIZATION * target
        {
            // The least-busy shard of the window is the cheapest to
            // drain (ties break toward the highest id — retire the
            // youngest of equals).
            let victim = busy
                .iter()
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.0.cmp(&a.0))
                })
                .map(|&(id, _)| id);
            if let Some(victim) = victim {
                plans.push(Plan::Remove {
                    victim,
                    reason: "fleet idle below scale-down band",
                });
            }
        }
        plans
    }

    /// Records an executed action in the event log; scaling actions also
    /// anchor the cool-down.
    pub(crate) fn note_action(
        &mut self,
        now: Timestamp,
        action: ControllerAction,
        shards_after: usize,
        reason: &'static str,
    ) {
        let at_secs = now.0 as f64 / 1e6;
        if action.is_scaling() {
            self.last_scale_secs = Some(at_secs);
        }
        self.events.push(ControllerEvent {
            at_secs,
            action,
            shards_after,
            reason,
        });
    }

    fn reset_baselines(&mut self, stats: &ClusterStats) {
        self.busy_baseline = stats.shards.iter().map(|s| (s.id, s.elapsed_us)).collect();
        self.refused_baseline = stats.refused();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_tier::ShardLoadStats;

    fn at(secs: f64) -> Timestamp {
        Timestamp::from_secs_f64(secs)
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            min_shards: 2,
            max_shards: 8,
            window_secs: 5.0,
            cooldown_secs: 20.0,
            target_shard_busy_us: 10_000.0,
        }
    }

    /// A stats rollup with the given per-shard cumulative busy µs, queue
    /// depths and refusal count; everything else quiet.
    fn stats(busy_us: &[(u64, f64)], queue: usize, refused: u64) -> ClusterStats {
        let shards = busy_us
            .iter()
            .map(|&(id, elapsed_us)| ShardLoadStats {
                id,
                weight: 1.0,
                elapsed_us,
                primary_keys: 0,
                follower_keys: 0,
                replica_reads: 0,
                queue_depth: queue,
            })
            .collect();
        let mut s = ClusterStats {
            epoch: 0,
            shards,
            split_cells: Vec::new(),
            epoch_migrations: 0,
            split_migrations: 0,
            replicas: 1,
            promotions: 0,
            replica_reads: 0,
            ingest: Default::default(),
            ops: Default::default(),
        };
        s.ingest.backpressure = refused;
        s
    }

    #[test]
    fn normalization_enforces_sane_clamps() {
        let c = ControllerConfig {
            min_shards: 0,
            max_shards: 0,
            window_secs: -1.0,
            ..ControllerConfig::default()
        }
        .normalized();
        assert_eq!(c.min_shards, 1);
        assert!(c.max_shards >= c.min_shards);
        assert!(c.window_secs > 0.0);
    }

    #[test]
    fn first_tick_seeds_then_surge_plans_an_add() {
        let mut ctl = AutoController::new(cfg());
        // Seed tick: no scaling, rebalance timer anchored.
        let plans = ctl.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        assert!(plans.is_empty());
        // A quiet window: nothing.
        let plans = ctl.plan(
            at(5.0),
            &stats(&[(0, 1000.0), (1, 900.0)], 0, 0),
            1024,
            false,
        );
        assert!(!plans.iter().any(|p| matches!(p, Plan::Add { .. })));
        // Surge: busiest shard consumes 12_000 µs/s > 0.9 × 10_000.
        let plans = ctl.plan(
            at(10.0),
            &stats(&[(0, 61_000.0), (1, 30_900.0)], 0, 0),
            1024,
            false,
        );
        match plans.as_slice() {
            [Plan::Rebalance, Plan::Add { count, .. }] => {
                // total busy 18_000 µs/s → desired ceil(1.8) clamps to
                // n+1 = 3 → one join (max_step allows 2).
                assert_eq!(*count, 1);
            }
            other => panic!("expected rebalance + add, got {other:?}"),
        }
    }

    #[test]
    fn cooldown_blocks_the_opposite_action_until_it_expires() {
        let mut ctl = AutoController::new(cfg());
        ctl.plan(
            at(0.0),
            &stats(&[(0, 0.0), (1, 0.0), (2, 0.0)], 0, 0),
            1024,
            false,
        );
        // Surge window → add.
        let plans = ctl.plan(
            at(5.0),
            &stats(&[(0, 50_000.0), (1, 1000.0), (2, 1000.0)], 0, 0),
            1024,
            false,
        );
        assert!(plans.iter().any(|p| matches!(p, Plan::Add { .. })));
        ctl.note_action(at(5.0), ControllerAction::AddShard { id: 3 }, 4, "test");
        // The fleet goes idle immediately — but the cool-down holds the
        // remove back for 20 virtual seconds.
        let idle = stats(&[(0, 50_100.0), (1, 1100.0), (2, 1100.0), (3, 10.0)], 0, 0);
        let plans = ctl.plan(at(10.0), &idle, 1024, false);
        assert!(
            !plans.iter().any(|p| matches!(p, Plan::Remove { .. })),
            "cool-down must hold: {plans:?}"
        );
        // After the cool-down expires the remove goes through, and the
        // victim is the least-busy shard (the idle joiner).
        let plans = ctl.plan(at(30.0), &idle, 1024, false);
        assert!(
            plans
                .iter()
                .any(|p| matches!(p, Plan::Remove { victim: 3, .. })),
            "expected remove of idle joiner: {plans:?}"
        );
    }

    #[test]
    fn refusals_and_queue_pressure_trigger_adds_even_when_utilization_is_low() {
        let mut ctl = AutoController::new(cfg());
        ctl.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        let plans = ctl.plan(at(5.0), &stats(&[(0, 10.0), (1, 10.0)], 0, 7), 1024, false);
        assert!(plans
            .iter()
            .any(|p| matches!(p, Plan::Add { reason, .. } if reason.contains("refusals"))));
        ctl.note_action(at(5.0), ControllerAction::AddShard { id: 2 }, 3, "t");
        let mut ctl2 = AutoController::new(cfg());
        ctl2.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        let plans = ctl2.plan(
            at(5.0),
            &stats(&[(0, 10.0), (1, 10.0)], 600, 0),
            1024,
            false,
        );
        assert!(plans
            .iter()
            .any(|p| matches!(p, Plan::Add { reason, .. } if reason.contains("queue"))));
    }

    #[test]
    fn fleet_clamps_are_respected() {
        let mut ctl = AutoController::new(ControllerConfig {
            max_shards: 2,
            ..cfg()
        });
        ctl.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        // Hot, but already at max: no add.
        let plans = ctl.plan(
            at(5.0),
            &stats(&[(0, 100_000.0), (1, 100_000.0)], 0, 0),
            1024,
            false,
        );
        assert!(!plans.iter().any(|p| matches!(p, Plan::Add { .. })));
        // At min: no remove however idle.
        let mut ctl = AutoController::new(cfg());
        ctl.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        let plans = ctl.plan(at(40.0), &stats(&[(0, 10.0), (1, 10.0)], 0, 0), 1024, false);
        assert!(!plans.iter().any(|p| matches!(p, Plan::Remove { .. })));
    }

    #[test]
    fn rebalance_fires_on_its_own_cadence_despite_cooldown() {
        let mut ctl = AutoController::new(cfg());
        ctl.plan(at(0.0), &stats(&[(0, 0.0), (1, 0.0)], 0, 0), 1024, false);
        ctl.note_action(at(0.0), ControllerAction::AddShard { id: 9 }, 3, "t");
        // Well inside the scaling cool-down, the rebalance cadence still
        // fires.
        let plans = ctl.plan(at(10.0), &stats(&[(0, 10.0), (1, 10.0)], 0, 0), 1024, false);
        assert!(plans.contains(&Plan::Rebalance));
    }

    #[test]
    fn split_table_exhaustion_under_skew_asks_for_capacity() {
        let mut ctl = AutoController::new(cfg());
        ctl.plan(
            at(0.0),
            &stats(&[(0, 0.0), (1, 0.0), (2, 0.0)], 0, 0),
            1024,
            false,
        );
        // Strong skew (one shard does nearly all the work) but busiest
        // utilization below target: only the full split table justifies
        // growing.
        let skewed = stats(&[(0, 30_000.0), (1, 10.0), (2, 10.0)], 0, 0);
        let plans = ctl.plan(at(5.0), &skewed, 1024, true);
        assert!(plans
            .iter()
            .any(|p| matches!(p, Plan::Add { reason, .. } if reason.contains("split"))));
    }
}
