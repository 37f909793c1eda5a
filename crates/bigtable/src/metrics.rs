//! Lock-free operation counters.
//!
//! The paper's §4.2 analysis counts "the number of read and write operations
//! performed by the server on BigTable … as this was the major bottleneck".
//! These counters are the measured quantity behind every figure we reproduce.
//!
//! Every store operation bumps a few of them, so they are kept per thread:
//! one cache-padded slot of counters per `parking_lot` stripe, each thread
//! adding into its own. Two writers then write no common cache line, and a
//! snapshot sums the slots — exactly, since every add is atomic.

use parking_lot::{thread_stripe, CachePadded, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic operation counters for one table (or a whole store).
#[derive(Debug, Default)]
pub struct Metrics {
    slots: [CachePadded<Counters>; STRIPES],
}

/// One slot's counters (fields as in [`MetricsSnapshot`]).
#[derive(Debug, Default)]
struct Counters {
    read_ops: AtomicU64,
    rows_read: AtomicU64,
    bytes_read: AtomicU64,
    write_ops: AtomicU64,
    mutations: AtomicU64,
    bytes_written: AtomicU64,
    scan_ops: AtomicU64,
    rows_scanned: AtomicU64,
    batch_ops: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_replayed: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Point-read RPCs issued.
    pub read_ops: u64,
    /// Rows actually returned by point reads.
    pub rows_read: u64,
    /// Payload bytes returned by reads and scans.
    pub bytes_read: u64,
    /// Write RPCs issued (single-row mutations).
    pub write_ops: u64,
    /// Individual mutations applied.
    pub mutations: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Range-scan RPCs issued.
    pub scan_ops: u64,
    /// Rows returned by scans.
    pub rows_scanned: u64,
    /// Batch mutate-rows RPCs issued.
    pub batch_ops: u64,
    /// WAL records appended (one per write RPC on a durable table).
    pub wal_appends: u64,
    /// WAL bytes appended (frame headers + payloads).
    pub wal_bytes: u64,
    /// Explicit WAL fsyncs issued (paced by `fsync_every`).
    pub wal_fsyncs: u64,
    /// WAL records replayed during recovery.
    pub wal_replayed: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            rows_read: self.rows_read.saturating_sub(earlier.rows_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            mutations: self.mutations.saturating_sub(earlier.mutations),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            scan_ops: self.scan_ops.saturating_sub(earlier.scan_ops),
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            batch_ops: self.batch_ops.saturating_sub(earlier.batch_ops),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(earlier.wal_fsyncs),
            wal_replayed: self.wal_replayed.saturating_sub(earlier.wal_replayed),
        }
    }
}

impl Metrics {
    /// The calling thread's slot.
    fn mine(&self) -> &Counters {
        &self.slots[thread_stripe()]
    }

    pub(crate) fn record_read(&self, ops: u64, rows: u64, bytes: u64) {
        let c = self.mine();
        c.read_ops.fetch_add(ops, Ordering::Relaxed);
        c.rows_read.fetch_add(rows, Ordering::Relaxed);
        c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, ops: u64, mutations: u64, bytes: u64) {
        let c = self.mine();
        c.write_ops.fetch_add(ops, Ordering::Relaxed);
        c.mutations.fetch_add(mutations, Ordering::Relaxed);
        c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One multi-row write RPC: its rows count through `mutations`.
    pub(crate) fn record_batch_write(&self, mutations: u64, bytes: u64) {
        let c = self.mine();
        c.batch_ops.fetch_add(1, Ordering::Relaxed);
        c.mutations.fetch_add(mutations, Ordering::Relaxed);
        c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_append(&self, bytes: u64, fsynced: bool) {
        let c = self.mine();
        c.wal_appends.fetch_add(1, Ordering::Relaxed);
        c.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.wal_fsyncs
            .fetch_add(u64::from(fsynced), Ordering::Relaxed);
    }

    pub(crate) fn record_wal_replay(&self, records: u64) {
        self.mine()
            .wal_replayed
            .fetch_add(records, Ordering::Relaxed);
    }

    pub(crate) fn record_scan(&self, ops: u64, rows: u64, bytes: u64) {
        let c = self.mine();
        c.scan_ops.fetch_add(ops, Ordering::Relaxed);
        c.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        c.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Sums the slots' counters.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let sum = |field: fn(&Counters) -> &AtomicU64| {
            self.slots
                .iter()
                .map(|slot| field(slot).load(Ordering::Relaxed))
                .sum()
        };
        MetricsSnapshot {
            read_ops: sum(|c| &c.read_ops),
            rows_read: sum(|c| &c.rows_read),
            bytes_read: sum(|c| &c.bytes_read),
            write_ops: sum(|c| &c.write_ops),
            mutations: sum(|c| &c.mutations),
            bytes_written: sum(|c| &c.bytes_written),
            scan_ops: sum(|c| &c.scan_ops),
            rows_scanned: sum(|c| &c.rows_scanned),
            batch_ops: sum(|c| &c.batch_ops),
            wal_appends: sum(|c| &c.wal_appends),
            wal_bytes: sum(|c| &c.wal_bytes),
            wal_fsyncs: sum(|c| &c.wal_fsyncs),
            wal_replayed: sum(|c| &c.wal_replayed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let m = Metrics::default();
        m.record_read(2, 1, 100);
        let a = m.snapshot();
        m.record_write(3, 5, 50);
        m.record_scan(1, 10, 500);
        let b = m.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.read_ops, 0);
        assert_eq!(d.write_ops, 3);
        assert_eq!(d.mutations, 5);
        assert_eq!(d.scan_ops, 1);
        assert_eq!(d.rows_scanned, 10);
    }

    /// Eight threads (one per slot, when no other test's thread shares
    /// their stripes) count into every counter; the totals are exact.
    #[test]
    fn totals_stay_exact_under_eight_threads() {
        const THREADS: u64 = 8;
        const EACH: u64 = 20_000;
        let m = Metrics::default();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..EACH {
                        m.record_read(1, 2, 3);
                        m.record_write(1, 2, i % 7);
                        m.record_batch_write(4, 5);
                        m.record_scan(1, 6, 7);
                        m.record_wal_append(8, i % 64 == 0);
                        m.record_wal_replay(1);
                    }
                });
            }
        });
        let n = THREADS * EACH;
        let per_thread_bytes: u64 = (0..EACH).map(|i| i % 7).sum();
        assert_eq!(
            m.snapshot(),
            MetricsSnapshot {
                read_ops: n,
                rows_read: 2 * n,
                bytes_read: 3 * n + 7 * n,
                write_ops: n,
                mutations: 2 * n + 4 * n,
                bytes_written: THREADS * per_thread_bytes + 5 * n,
                scan_ops: n,
                rows_scanned: 6 * n,
                batch_ops: n,
                wal_appends: n,
                wal_bytes: 8 * n,
                wal_fsyncs: THREADS * EACH.div_ceil(64),
                wal_replayed: n,
            }
        );
    }
}
