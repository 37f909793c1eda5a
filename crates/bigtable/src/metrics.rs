//! Lock-free operation counters.
//!
//! The paper's §4.2 analysis counts "the number of read and write operations
//! performed by the server on BigTable … as this was the major bottleneck".
//! These counters are the measured quantity behind every figure we reproduce.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic operation counters for one table (or a whole store).
#[derive(Debug, Default)]
pub struct Metrics {
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
    pub(crate) fn record_read(&self, ops: u64, rows: u64, bytes: u64) {
        self.read_ops.fetch_add(ops, Ordering::Relaxed);
        self.rows_read.fetch_add(rows, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, ops: u64, mutations: u64, bytes: u64) {
        self.write_ops.fetch_add(ops, Ordering::Relaxed);
        self.mutations.fetch_add(mutations, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// One multi-row write RPC: its rows count through `mutations`.
    pub(crate) fn record_batch_write(&self, mutations: u64, bytes: u64) {
        self.batch_ops.fetch_add(1, Ordering::Relaxed);
        self.mutations.fetch_add(mutations, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_append(&self, bytes: u64, fsynced: bool) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.wal_fsyncs
            .fetch_add(u64::from(fsynced), Ordering::Relaxed);
    }

    pub(crate) fn record_wal_replay(&self, records: u64) {
        self.wal_replayed.fetch_add(records, Ordering::Relaxed);
    }

    pub(crate) fn record_scan(&self, ops: u64, rows: u64, bytes: u64) {
        self.scan_ops.fetch_add(ops, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            rows_read: self.rows_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            scan_ops: self.scan_ops.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            batch_ops: self.batch_ops.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
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
}
