//! The §3.6.2 configuration optimiser: choose the number of disks `n_d`.
//!
//! Write-side utilisation falls with more disks (each flush transfers less
//! per mechanical access):
//! `U_d = s_B / (n_d · R_disk · (T_rot + T_seek))`
//!
//! Read-side resolution rises with more disks (fewer irrelevant objects per
//! disk): `R_d = k · n_d / n_o`.
//!
//! The plan maximises `min(U_d, R_d)` subject to the ping-pong safety
//! constraint `min T_m ≥ max T_d`, with
//! `T_d(n_d) = T_rot + T_seek + s_B / (n_d · R_disk)` (Eq. 1) and
//! `T_m = s_B / fill-rate`.

use crate::disk::DiskProfile;
use serde::Serialize;
use std::fmt;

/// Largest `max_disks` the planner sweeps: every candidate is one
/// [`PlanPoint`] in [`Plan::sweep`], so the cap bounds the sweep at
/// about 3 MB. A rack of this many disks is far past any §3.6.2 optimum.
pub const MAX_PLANNED_DISKS: u32 = 1 << 16;

/// Why a planner input was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// `max_disks` exceeds [`MAX_PLANNED_DISKS`].
    TooManyDisks {
        /// The requested `max_disks`.
        requested: u32,
        /// [`MAX_PLANNED_DISKS`].
        cap: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooManyDisks { requested, cap } => {
                write!(
                    f,
                    "max_disks {requested} exceeds the planner's cap of {cap}"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Inputs to the planner.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PlannerInput {
    /// Total double-buffer size `s_B` in bytes (`s_rec × n_o`, §3.6.2).
    pub buffer_bytes: f64,
    /// Number of indexed objects `n_o`.
    pub objects: u64,
    /// Aggregate aged-data production rate, bytes per second (sets `T_m`).
    pub fill_rate_bytes_per_sec: f64,
    /// Normalisation factor `k` for read resolution (tuned from operational
    /// cost / read-write mix, §3.6.2).
    pub k: f64,
    /// Mechanical disk parameters.
    pub disk: DiskProfile,
    /// Largest admissible `n_d` (rack size).
    pub max_disks: u32,
}

/// Evaluation of one candidate `n_d`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PlanPoint {
    /// Candidate number of disks.
    pub nd: u32,
    /// Write-side utilisation `U_d`.
    pub ud: f64,
    /// Read-side resolution `R_d`.
    pub rd: f64,
    /// Per-disk flush time `T_d(n_d)` (Eq. 1), seconds.
    pub td: f64,
    /// Buffer fill time `T_m`, seconds.
    pub tm: f64,
    /// Whether `T_m ≥ T_d` holds (ping-pong safe).
    pub feasible: bool,
}

/// The chosen configuration plus the full sweep for plotting.
#[derive(Debug, Clone, Serialize)]
pub struct Plan {
    /// The selected point (best feasible `min(U_d, R_d)`).
    pub best: PlanPoint,
    /// Every candidate `1..=max_disks`, for the ablation bench.
    pub sweep: Vec<PlanPoint>,
}

impl PlannerInput {
    /// Evaluates one candidate disk count.
    fn evaluate(&self, nd: u32) -> PlanPoint {
        let nd_f = f64::from(nd.max(1));
        let t0 = self.disk.t_rot + self.disk.t_seek;
        let ud = self.buffer_bytes / (nd_f * self.disk.rate * t0);
        let rd = self.k * nd_f / self.objects.max(1) as f64;
        let td = t0 + self.buffer_bytes / (nd_f * self.disk.rate);
        let tm = if self.fill_rate_bytes_per_sec > 0.0 {
            self.buffer_bytes / self.fill_rate_bytes_per_sec
        } else {
            f64::INFINITY
        };
        PlanPoint {
            nd: nd.max(1),
            ud,
            rd,
            td,
            tm,
            feasible: tm >= td,
        }
    }

    /// The unconstrained optimum `n_d*` where `U_d = R_d`
    /// (`n_d² = s_B · n_o / (R_disk · T_0 · k)`).
    pub fn unconstrained_optimum(&self) -> f64 {
        let t0 = self.disk.t_rot + self.disk.t_seek;
        (self.buffer_bytes * self.objects.max(1) as f64 / (self.disk.rate * t0 * self.k)).sqrt()
    }

    /// Runs the optimisation over `1..=max_disks`; refuses a `max_disks`
    /// past [`MAX_PLANNED_DISKS`].
    pub fn plan(&self) -> Result<Plan, PlanError> {
        if self.max_disks > MAX_PLANNED_DISKS {
            return Err(PlanError::TooManyDisks {
                requested: self.max_disks,
                cap: MAX_PLANNED_DISKS,
            });
        }
        let first = self.evaluate(1);
        let sweep: Vec<PlanPoint> = std::iter::once(first)
            .chain((2..=self.max_disks).map(|nd| self.evaluate(nd)))
            .collect();
        // Among feasible points pick max min(Ud, Rd); fall back to the point
        // with the smallest constraint violation if none is feasible.
        let best = sweep
            .iter()
            .filter(|p| p.feasible)
            .max_by(|a, b| {
                let ka = a.ud.min(a.rd);
                let kb = b.ud.min(b.rd);
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
            .unwrap_or_else(|| {
                // Seeded with the first candidate: there always is one.
                sweep.iter().skip(1).fold(first, |least, &p| {
                    std::cmp::min_by(least, p, |a, b| {
                        let va = a.td - a.tm;
                        let vb = b.td - b.tm;
                        va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                })
            });
        Ok(Plan { best, sweep })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> PlannerInput {
        PlannerInput {
            buffer_bytes: 64.0 * 1024.0 * 1024.0, // 64 MiB
            objects: 1_000_000,
            fill_rate_bytes_per_sec: 2.0e6,
            k: 1000.0,
            disk: DiskProfile::default(),
            max_disks: 64,
        }
    }

    #[test]
    fn ud_decreases_and_rd_increases_with_nd() {
        let inp = input();
        let a = inp.evaluate(2);
        let b = inp.evaluate(8);
        assert!(a.ud > b.ud, "U_d must fall with n_d");
        assert!(a.rd < b.rd, "R_d must rise with n_d");
        assert!(a.td > b.td, "per-disk flush time falls with n_d");
    }

    #[test]
    fn best_point_balances_ud_and_rd() {
        let inp = input();
        let plan = inp.plan().unwrap();
        assert!(plan.best.feasible);
        // The best nd is within one step of the analytic optimum clamped to
        // the admissible range (boundaries win when the optimum is outside).
        let star = inp
            .unconstrained_optimum()
            .clamp(1.0, f64::from(inp.max_disks));
        let chosen = f64::from(plan.best.nd);
        if plan.sweep.iter().all(|p| p.feasible) {
            assert!(
                (chosen - star).abs() <= 1.5,
                "chosen {chosen} vs optimum {star}"
            );
        }
        // No feasible point beats it on min(Ud, Rd).
        let score = plan.best.ud.min(plan.best.rd);
        for p in plan.sweep.iter().filter(|p| p.feasible) {
            assert!(p.ud.min(p.rd) <= score + 1e-12);
        }
    }

    #[test]
    fn infeasible_fill_rate_falls_back_to_least_violation() {
        let mut inp = input();
        // Filling so fast no configuration can flush in time.
        inp.fill_rate_bytes_per_sec = 1e15;
        let plan = inp.plan().unwrap();
        assert!(!plan.best.feasible);
        // Least-violating = largest nd (smallest td).
        assert_eq!(plan.best.nd, inp.max_disks);
    }

    #[test]
    fn zero_fill_rate_is_always_feasible() {
        let mut inp = input();
        inp.fill_rate_bytes_per_sec = 0.0;
        let plan = inp.plan().unwrap();
        assert!(plan.best.feasible);
        assert!(plan.best.tm.is_infinite());
    }

    #[test]
    fn a_sweep_past_the_cap_is_refused_and_one_at_it_is_planned() {
        let mut inp = input();
        inp.max_disks = u32::MAX;
        let err = inp.plan().unwrap_err();
        assert_eq!(
            err,
            PlanError::TooManyDisks {
                requested: u32::MAX,
                cap: MAX_PLANNED_DISKS
            }
        );
        assert!(err.to_string().contains("4294967295"), "{err}");
        inp.max_disks = MAX_PLANNED_DISKS;
        let plan = inp.plan().unwrap();
        assert_eq!(plan.sweep.len(), MAX_PLANNED_DISKS as usize);
        inp.max_disks = 0;
        let plan = inp.plan().unwrap();
        assert_eq!((plan.sweep.len(), plan.best.nd), (1, 1));
    }

    #[test]
    fn evaluate_clamps_degenerate_inputs() {
        let mut inp = input();
        inp.objects = 0;
        let p = inp.evaluate(0);
        assert_eq!(p.nd, 1);
        assert!(p.rd.is_finite());
    }
}
