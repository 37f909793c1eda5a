//! Ping-pong (double) buffering.
//!
//! §3.5: "While updates are taking place on one memory buffer, another
//! memory buffer is flushed onto the disk. What we must ensure … is that the
//! time it takes to flush aged data from one buffer onto the disk is less
//! than the time it takes to fill the other buffer in memory":
//! `min T_m ≥ max T_d`.
//!
//! The buffer is written in units of *columns*: an object's in-memory column
//! of `m` records is copied into the aged buffer only when it is full
//! (§3.6.1), so one append is one object's column.

use crate::record::{HistoryRecord, RECORD_BYTES};

/// Outcome of appending a column to the active buffer.
#[derive(Debug)]
pub(crate) enum AppendOutcome {
    /// The column fit; nothing to flush.
    Buffered,
    /// The active buffer filled up and roles were swapped: the returned
    /// records must now be flushed to disk while the (new) active buffer
    /// keeps absorbing appends.
    SwapAndFlush {
        /// Contents of the buffer that just went out of service.
        records: Vec<HistoryRecord>,
    },
}

/// A double buffer of fixed byte capacity.
#[derive(Debug)]
pub(crate) struct PingPongBuffer {
    capacity_records: usize,
    active: Vec<HistoryRecord>,
    /// Virtual time the active buffer received its first record.
    fill_start_us: Option<u64>,
    /// Fill durations of completed buffers, for `min T_m` monitoring.
    fill_history_secs: Vec<f64>,
}

impl PingPongBuffer {
    /// Creates a buffer holding `capacity_bytes` per side.
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        PingPongBuffer {
            capacity_records: (capacity_bytes / RECORD_BYTES).max(1),
            active: Vec::new(),
            fill_start_us: None,
            fill_history_secs: Vec::new(),
        }
    }

    /// Appends one object's aged column at virtual time `now_us`.
    ///
    /// When the active side reaches capacity the sides swap and the full
    /// side's contents are handed back for flushing.
    pub(crate) fn append_column(
        &mut self,
        column: impl IntoIterator<Item = HistoryRecord>,
        now_us: u64,
    ) -> AppendOutcome {
        if self.active.is_empty() {
            self.fill_start_us = Some(now_us);
        }
        self.active.extend(column);
        if self.active.len() >= self.capacity_records {
            let records = std::mem::take(&mut self.active);
            // Fill duration `T_m`: virtual time from first append to the swap.
            if let Some(start) = self.fill_start_us.take() {
                self.fill_history_secs
                    .push(now_us.saturating_sub(start) as f64 / 1e6);
            }
            AppendOutcome::SwapAndFlush { records }
        } else {
            AppendOutcome::Buffered
        }
    }

    /// The records the active side holds, not yet flushed.
    pub(crate) fn records(&self) -> &[HistoryRecord] {
        &self.active
    }

    /// Drains whatever is buffered (end-of-run flush), regardless of fill.
    pub(crate) fn drain(&mut self) -> Vec<HistoryRecord> {
        self.fill_start_us = None;
        std::mem::take(&mut self.active)
    }

    /// Smallest observed fill time `min T_m`, if any buffer completed.
    pub(crate) fn min_fill_secs(&self) -> Option<f64> {
        self.fill_history_secs
            .iter()
            .copied()
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_spatial::{Point, Velocity};

    fn rec(oid: u64, ts: u64) -> HistoryRecord {
        HistoryRecord::new(oid, ts, Point::new(0.0, 0.0), Velocity::ZERO)
    }

    #[test]
    fn fills_then_swaps() {
        // Capacity: 4 records.
        let mut b = PingPongBuffer::new(4 * RECORD_BYTES);
        assert_eq!(b.capacity_records, 4);
        assert!(matches!(
            b.append_column(vec![rec(1, 0), rec(1, 1)], 1_000_000),
            AppendOutcome::Buffered
        ));
        match b.append_column(vec![rec(2, 0), rec(2, 1)], 3_000_000) {
            AppendOutcome::SwapAndFlush { records } => assert_eq!(records.len(), 4),
            AppendOutcome::Buffered => panic!("expected swap"),
        }
        // The new active side is empty and keeps absorbing.
        assert!(b.active.is_empty());
        assert!(matches!(
            b.append_column(vec![rec(3, 0)], 4_000_000),
            AppendOutcome::Buffered
        ));
        assert_eq!(b.min_fill_secs(), Some(2.0));
    }

    #[test]
    fn oversized_column_still_swaps_once() {
        let mut b = PingPongBuffer::new(2 * RECORD_BYTES);
        match b.append_column((0..5).map(|i| rec(1, i)), 10) {
            AppendOutcome::SwapAndFlush { records, .. } => assert_eq!(records.len(), 5),
            AppendOutcome::Buffered => panic!("expected swap"),
        }
    }

    #[test]
    fn drain_returns_partial_content() {
        let mut b = PingPongBuffer::new(16 * RECORD_BYTES);
        b.append_column(vec![rec(1, 0)], 0);
        let drained = b.drain();
        assert_eq!(drained.len(), 1);
        assert!(b.active.is_empty());
        assert!(b.min_fill_secs().is_none());
    }

    #[test]
    fn min_fill_tracks_the_fastest_fill() {
        let mut b = PingPongBuffer::new(RECORD_BYTES);
        b.append_column(vec![rec(1, 0)], 0);
        b.append_column(vec![rec(1, 1)], 5_000_000);
        assert_eq!(b.min_fill_secs(), Some(0.0));
    }
}
