//! The load-signal layer: measured per-cell demand.
//!
//! The paper's premise is that update/query load on a moving-object store
//! is wildly skewed — business-center cells dominate (§3.4.2 motivates
//! FLAG with exactly that skew) — yet placement decisions (which shard
//! owns which clustering cell, how a scattered query is sliced) are blind
//! without a measured signal. This module is that signal, consumed at
//! two layers (the weighted rendezvous of [`crate::placement`] steers by
//! each shard's virtual elapsed time instead):
//!
//! 1. **hot-cell splitting** ([`crate::placement::SplitTable`]) — the
//!    hottest clustering cells split ownership one level finer, so a
//!    single business-center cell stops pinning a shard;
//! 2. **fan-out slice balancing** ([`crate::region::balance_slices`]) —
//!    the per-cell rates, relative to their mean, are the demand density
//!    that prices a scattered region slice, so the planner can subdivide
//!    the costliest slices across idle shards.
//!
//! A [`LoadTracker`] lives inside every [`crate::server::MoistServer`]
//! (next to the FLAG machinery, which estimates *density* where this
//! tracks *demand*): updates and queries feed per-clustering-cell EWMA
//! rates in **virtual time** (the timestamps the operations carry), so the
//! signal is deterministic for a given workload and independent of
//! wall-clock scheduling. The cluster tier merges the per-cell rates
//! across shards in [`crate::cluster_tier::MoistCluster::rebalance`], the
//! one place they are read.

use moist_bigtable::Timestamp;
use std::collections::HashMap;

/// EWMA window length in virtual seconds: rates fold once per window.
const WINDOW_SECS: f64 = 5.0;

/// EWMA smoothing factor per folded window (higher = more reactive).
const ALPHA: f64 = 0.5;

/// Rates below this (events per virtual second) with nothing pending are
/// pruned — a cell that went cold stops occupying tracker memory.
const PRUNE_RATE: f64 = 1e-6;

/// One cell's smoothed demand, in events per virtual second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CellRates {
    /// EWMA update arrivals per virtual second.
    pub update_rate: f64,
    /// EWMA query arrivals per virtual second (queries anchored in the
    /// cell; the slices of a scattered region query are not counted).
    pub query_rate: f64,
}

impl CellRates {
    /// Combined demand rate (updates dominate store cost; queries count
    /// the same here — callers wanting a different mix read the fields).
    pub(crate) fn total(&self) -> f64 {
        self.update_rate + self.query_rate
    }
}

/// Per-cell windowed counters plus the folded EWMA.
#[derive(Debug, Clone, Copy)]
struct CellWindow {
    rates: CellRates,
    pending_updates: u64,
    pending_queries: u64,
    window_start_us: u64,
}

/// Per-clustering-cell EWMA demand rates, accumulated in virtual time.
///
/// Events are bucketed into fixed windows of the *operation timestamps*;
/// when a window closes (lazily, on the next event or read) the bucket
/// folds into the EWMA: `rate = (1 − α)·rate + α·count/window`. Windows
/// with no events decay the rate by `(1 − α)` each, so a cell that goes
/// quiet fades out instead of pinning its peak forever. Everything is
/// driven by the timestamps the workload carries, so a given update/query
/// stream produces the same rates regardless of thread interleaving.
#[derive(Debug)]
pub(crate) struct LoadTracker {
    window_us: u64,
    cells: HashMap<u64, CellWindow>,
}

impl Default for LoadTracker {
    fn default() -> Self {
        LoadTracker::new(WINDOW_SECS)
    }
}

impl LoadTracker {
    /// Creates a tracker folding its EWMA every `window_secs` of virtual
    /// time.
    pub(crate) fn new(window_secs: f64) -> Self {
        LoadTracker {
            window_us: ((window_secs.max(1e-3)) * 1e6) as u64,
            cells: HashMap::new(),
        }
    }

    /// Records one update landing in clustering cell `cell` at `now`.
    pub(crate) fn observe_update(&mut self, cell: u64, now: Timestamp) {
        self.observe(cell, now, true);
    }

    /// Records one query anchored in clustering cell `cell` at `now`.
    pub(crate) fn observe_query(&mut self, cell: u64, now: Timestamp) {
        self.observe(cell, now, false);
    }

    fn observe(&mut self, cell: u64, now: Timestamp, update: bool) {
        let window_us = self.window_us;
        let w = self.cells.entry(cell).or_insert(CellWindow {
            rates: CellRates::default(),
            pending_updates: 0,
            pending_queries: 0,
            window_start_us: now.0,
        });
        close_windows(w, now.0, window_us);
        if update {
            w.pending_updates += 1;
        } else {
            w.pending_queries += 1;
        }
    }

    /// The per-cell rates as of `now`: every cell's pending windows fold
    /// first, so a cell that went quiet decays even though no event
    /// touched it. Cells whose rate decayed to ~0 are pruned. Returned in
    /// ascending cell order (deterministic for tests and rebalance).
    pub(crate) fn rates(&mut self, now: Timestamp) -> Vec<(u64, CellRates)> {
        let window_us = self.window_us;
        self.cells.retain(|_, w| {
            close_windows(w, now.0, window_us);
            w.rates.total() > PRUNE_RATE || w.pending_updates + w.pending_queries > 0
        });
        let mut out: Vec<(u64, CellRates)> =
            self.cells.iter().map(|(&c, w)| (c, w.rates)).collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }
}

/// Folds every window that closed before `now_us` into the EWMA: the
/// pending bucket contributes `α·count/window` once, then `k − 1` empty
/// windows decay by `(1 − α)` each. Events timestamped before the current
/// window (late arrivals from a concurrent client) count into the current
/// bucket — slightly smeared, never lost.
fn close_windows(w: &mut CellWindow, now_us: u64, window_us: u64) {
    if now_us < w.window_start_us.saturating_add(window_us) {
        return;
    }
    let k = (now_us - w.window_start_us) / window_us;
    let window_secs = window_us as f64 / 1e6;
    let decay = (1.0 - ALPHA).powi(k.min(1_000) as i32);
    let fresh = ALPHA * (1.0 - ALPHA).powi((k.min(1_000) - 1) as i32);
    w.rates.update_rate =
        w.rates.update_rate * decay + fresh * w.pending_updates as f64 / window_secs;
    w.rates.query_rate =
        w.rates.query_rate * decay + fresh * w.pending_queries as f64 / window_secs;
    w.pending_updates = 0;
    w.pending_queries = 0;
    w.window_start_us += k * window_us;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> Timestamp {
        Timestamp::from_secs_f64(secs)
    }

    #[test]
    fn steady_stream_converges_to_its_arrival_rate() {
        let mut t = LoadTracker::new(1.0);
        // 10 updates per virtual second for 30 seconds.
        for sec in 0..30u64 {
            for i in 0..10u64 {
                t.observe_update(7, at(sec as f64 + i as f64 / 10.0));
            }
        }
        let rates = t.rates(at(30.0));
        assert_eq!(rates.len(), 1);
        let r = rates[0].1.update_rate;
        assert!(
            (r - 10.0).abs() < 0.5,
            "EWMA should converge to 10/s, got {r}"
        );
        assert_eq!(rates[0].1.query_rate, 0.0);
    }

    #[test]
    fn quiet_cells_decay_and_eventually_prune() {
        let mut t = LoadTracker::new(1.0);
        for i in 0..20u64 {
            t.observe_update(3, at(i as f64 / 20.0));
        }
        let hot = t.rates(at(2.0))[0].1.update_rate;
        assert!(hot > 1.0);
        // A few quiet windows halve the rate each time.
        let later = t.rates(at(6.0))[0].1.update_rate;
        assert!(later < hot / 4.0, "{later} vs {hot}");
        // Long silence prunes the cell entirely.
        assert!(t.rates(at(500.0)).is_empty());
        assert!(t.cells.is_empty());
    }

    #[test]
    fn skewed_cells_rank_above_uniform_ones() {
        let mut t = LoadTracker::default();
        // Cell 1 takes 80% of the traffic, cells 2..=5 split the rest.
        for sec in 0..40u64 {
            for i in 0..10u64 {
                let cell = if i < 8 { 1 } else { 2 + (sec + i) % 4 };
                t.observe_update(cell, at(sec as f64 + i as f64 / 10.0));
            }
        }
        let rates = t.rates(at(40.0));
        let hot = rates.iter().find(|(c, _)| *c == 1).unwrap().1.update_rate;
        let cold: f64 = rates
            .iter()
            .filter(|(c, _)| *c != 1)
            .map(|(_, r)| r.update_rate)
            .sum::<f64>()
            / 4.0;
        assert!(
            hot > 10.0 * cold,
            "hot cell must dominate: {hot} vs mean cold {cold}"
        );
        assert!(rates.iter().all(|(_, r)| r.query_rate == 0.0));
    }

    #[test]
    fn queries_and_updates_are_tracked_separately() {
        let mut t = LoadTracker::new(1.0);
        for i in 0..40u64 {
            t.observe_update(9, at(i as f64 / 4.0));
            if i % 2 == 0 {
                t.observe_query(9, at(i as f64 / 4.0));
            }
        }
        let r = t.rates(at(11.0))[0].1;
        assert!(r.update_rate > 1.5 * r.query_rate);
        assert!(r.query_rate > 0.0);
        assert!((r.total() - r.update_rate - r.query_rate).abs() < 1e-12);
    }

    #[test]
    fn late_events_are_counted_not_lost() {
        let mut t = LoadTracker::new(1.0);
        t.observe_update(4, at(10.0));
        // A concurrent client's late timestamp lands in the current bucket.
        t.observe_update(4, at(3.0));
        let r = t.rates(at(12.0))[0].1;
        assert!(r.update_rate > 0.0, "both events must contribute: {r:?}");
    }
}
