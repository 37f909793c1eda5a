//! The calibrated cost model and the shared virtual-time hub.
//!
//! Absolute QPS in the paper reflects Google's 2012 production BigTable;
//! here every operation is charged *virtual microseconds* from a
//! [`CostProfile`]. The profile encodes the cost **asymmetries** the paper's
//! conclusions rest on (§3.1, §4.2):
//!
//! * batch/range reads are far cheaper per row than point RPCs
//!   ("this reading method performs much faster");
//! * reads have "much better concurrency … than write ones", so writes
//!   are the scarce resource update shedding conserves;
//! * in-memory columns are orders of magnitude cheaper to read than
//!   disk columns;
//! * every RPC pays a fixed network round-trip floor.
//!
//! The default constants are chosen so one leader update (an Affiliation
//! read, a Location write, a two-mutation Spatial-Index batch and an L/F
//! refresh) lands near the paper's ≈0.127 ms (`8k+ updates/s` on one
//! server, §4.3.2). Everything else — shedding gains, clustering latencies,
//! NN QPS — *emerges* from op counts, not from further tuning.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual-microsecond costs of store operations.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostProfile {
    /// Fixed per-RPC overhead (network RTT + server dispatch), µs.
    pub rpc_base_us: f64,
    /// Locating a row in the tablet index, µs per log₂(row-count) level.
    pub index_level_us: f64,
    /// Reading one row from an in-memory column, µs.
    pub read_row_us: f64,
    /// Applying one mutation, µs.
    pub mutation_us: f64,
    /// Per-row cost inside a range scan (sequential memtable walk), µs.
    pub scan_row_us: f64,
    /// Per-row cost inside a batch mutation (amortised dispatch), µs.
    pub batch_row_us: f64,
    /// Extra cost when a read touches a `Disk`-locality family, µs
    /// (SSTable block fetch).
    pub disk_read_us: f64,
    /// Transfer cost per payload byte, µs.
    pub byte_us: f64,
    /// Appending one record to a table's write-ahead log (sequential file
    /// write, no seek), µs. Charged only on durable stores.
    pub wal_append_us: f64,
    /// One explicit WAL fsync, µs. Group commit divides this by
    /// `fsync_every`, so the charged per-write cost is the amortised
    /// `wal_fsync_us / fsync_every`.
    pub wal_fsync_us: f64,
    /// Replaying one WAL record during recovery, µs (sequential read +
    /// re-apply; used to price recovery time in `fig19_durability`).
    pub wal_replay_us: f64,
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile {
            rpc_base_us: 15.0,
            index_level_us: 0.8,
            read_row_us: 4.0,
            mutation_us: 6.0,
            scan_row_us: 2.5,
            batch_row_us: 0.5,
            disk_read_us: 900.0,
            byte_us: 0.002,
            wal_append_us: 2.0,
            wal_fsync_us: 120.0,
            wal_replay_us: 1.0,
        }
    }
}

impl CostProfile {
    /// A zero-cost profile for unit tests that only care about semantics.
    pub fn free() -> Self {
        CostProfile {
            rpc_base_us: 0.0,
            index_level_us: 0.0,
            read_row_us: 0.0,
            mutation_us: 0.0,
            scan_row_us: 0.0,
            batch_row_us: 0.0,
            disk_read_us: 0.0,
            byte_us: 0.0,
            wal_append_us: 0.0,
            wal_fsync_us: 0.0,
            wal_replay_us: 0.0,
        }
    }

    /// Cost of navigating the row index of a table with `rows` rows.
    #[inline]
    fn index_nav_us(&self, rows: u64) -> f64 {
        self.index_level_us * (rows.max(2) as f64).log2()
    }

    /// Cost of one point read returning `bytes` payload bytes.
    pub fn point_read_us(&self, rows_in_table: u64, bytes: u64, touches_disk: bool) -> f64 {
        self.rpc_base_us
            + self.index_nav_us(rows_in_table)
            + self.read_row_us
            + bytes as f64 * self.byte_us
            + if touches_disk { self.disk_read_us } else { 0.0 }
    }

    /// Cost of one single-row write with `mutations` mutations.
    pub fn write_us(&self, rows_in_table: u64, mutations: u64, bytes: u64) -> f64 {
        self.rpc_base_us
            + self.index_nav_us(rows_in_table)
            + mutations as f64 * self.mutation_us
            + bytes as f64 * self.byte_us
    }

    /// Cost of one batch write of `rows` rows / `mutations` mutations.
    ///
    /// Batched mutations are group-committed log appends — an order of
    /// magnitude cheaper per mutation than point writes, and cheaper per
    /// row than batch *reads* (writes return no data).
    pub fn batch_write_us(&self, rows: u64, mutations: u64, bytes: u64) -> f64 {
        self.rpc_base_us
            + rows as f64 * self.batch_row_us
            + mutations as f64 * self.mutation_us * 0.125
            + bytes as f64 * self.byte_us
    }

    /// Durability surcharge for one write RPC that appended `bytes` WAL
    /// bytes under an `fsync_every` cadence. The fsync is charged
    /// amortised (group commit), keeping virtual time deterministic;
    /// `fsync_every == 0` means "no explicit fsync" and charges none.
    pub(crate) fn wal_write_us(&self, bytes: u64, fsync_every: u64) -> f64 {
        let fsync = if fsync_every == 0 {
            0.0
        } else {
            self.wal_fsync_us / fsync_every as f64
        };
        self.wal_append_us + bytes as f64 * self.byte_us + fsync
    }

    /// Cost of replaying `records` WAL records totalling `bytes` bytes
    /// during recovery.
    pub fn replay_us(&self, records: u64, bytes: u64) -> f64 {
        records as f64 * self.wal_replay_us + bytes as f64 * self.byte_us
    }

    /// Cost of one range scan returning `rows` rows / `bytes` bytes.
    pub(crate) fn scan_us(
        &self,
        rows_in_table: u64,
        rows: u64,
        bytes: u64,
        touches_disk: bool,
    ) -> f64 {
        self.rpc_base_us
            + self.index_nav_us(rows_in_table)
            + rows as f64 * self.scan_row_us
            + bytes as f64 * self.byte_us
            + if touches_disk { self.disk_read_us } else { 0.0 }
    }
}

/// Picoseconds in one microsecond: the unit every charge is rounded to.
const PS_PER_US: f64 = 1e6;

/// `us` rounded to whole picoseconds; non-positive (and NaN) charges are 0.
#[inline]
pub(crate) fn to_ps(us: f64) -> u64 {
    if us > 0.0 {
        (us * PS_PER_US).round() as u64
    } else {
        0
    }
}

/// Whole picoseconds as microseconds.
#[inline]
pub(crate) fn to_us(ps: u64) -> f64 {
    ps as f64 / PS_PER_US
}

/// A shared, lock-free accumulator of virtual time.
///
/// One hub per simulated server. Elapsed time is a count of whole
/// picoseconds in one `AtomicU64`, advanced by `fetch_add`, so read paths
/// taking `&self` can charge cost without a `&mut` clock. Integer
/// addition commutes: the same multiset of charges gives the same total
/// in any order and from any number of threads, so a virtual-time figure
/// never depends on how its callers interleaved. Non-positive charges are
/// ignored, as a [`Session`](crate::Session) ignores them.
#[derive(Debug, Default)]
pub struct MeterHub {
    elapsed_ps: AtomicU64,
}

impl MeterHub {
    /// A hub at zero.
    pub fn new() -> Self {
        MeterHub::default()
    }

    /// Advances by `us` microseconds, rounded to whole picoseconds
    /// (non-positive charges are ignored).
    pub fn charge_us(&self, us: f64) {
        self.charge_ps(to_ps(us));
    }

    #[inline]
    pub(crate) fn charge_ps(&self, ps: u64) {
        self.elapsed_ps.fetch_add(ps, Ordering::Relaxed);
    }

    pub(crate) fn elapsed_ps(&self) -> u64 {
        self.elapsed_ps.load(Ordering::Relaxed)
    }

    /// Virtual microseconds accumulated so far.
    pub fn elapsed_us(&self) -> f64 {
        to_us(self.elapsed_ps())
    }

    /// Resets to zero, returning elapsed microseconds.
    pub fn reset(&self) -> f64 {
        to_us(self.elapsed_ps.swap(0, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_lands_near_the_papers_update_cost() {
        // One leader update at 1M rows: Affiliation point read + Location
        // 1-mutation write + Spatial 2-row batch (delete+put) + Affiliation
        // L/F refresh write (the leaf-tracking write of Algorithm 1).
        let p = CostProfile::default();
        let rows = 1_000_000;
        let us = p.point_read_us(rows, 24, false)
            + p.write_us(rows, 1, 40)
            + p.batch_write_us(2, 2, 40)
            + p.write_us(rows, 1, 33);
        // The paper reports "less than 0.2 ms" amortised per update and
        // 7,875 QPS at 1M objects — i.e. ~0.127 ms.
        assert!(
            us > 100.0 && us < 200.0,
            "update cost {us} µs off-calibration"
        );
        let qps = 1e6 / us;
        assert!(qps > 5_000.0 && qps < 10_000.0, "QPS {qps} off-calibration");
    }

    #[test]
    fn batch_rows_are_cheaper_than_point_ops() {
        let p = CostProfile::default();
        let point = 100.0 * p.write_us(1_000_000, 1, 20);
        let batch = p.batch_write_us(100, 100, 2000);
        assert!(
            batch < point / 4.0,
            "batching must be far cheaper: {batch} vs {point}"
        );
        let scan = p.scan_us(1_000_000, 100, 2000, false);
        let point_reads = 100.0 * p.point_read_us(1_000_000, 20, false);
        assert!(scan < point_reads / 4.0);
    }

    #[test]
    fn disk_reads_are_much_more_expensive() {
        let p = CostProfile::default();
        let mem = p.point_read_us(1000, 20, false);
        let disk = p.point_read_us(1000, 20, true);
        assert!(disk > 10.0 * mem);
    }

    #[test]
    fn index_cost_grows_with_table_size() {
        let p = CostProfile::default();
        assert!(p.point_read_us(1 << 20, 0, false) > p.point_read_us(1 << 10, 0, false));
    }

    #[test]
    fn hub_rounds_each_charge_to_whole_picoseconds() {
        let charges = [15.0, 0.8, 4.0, -3.0, 0.0, f64::NAN, 900.0, 0.002, 2.5, 4e-7];
        let hub = MeterHub::new();
        for &c in &charges {
            hub.charge_us(c);
        }
        // 4e-7 µs is 0.4 ps and rounds away; the rest are exact in ps.
        let ps = 15_000_000 + 800_000 + 4_000_000 + 900_000_000 + 2_000 + 2_500_000;
        assert_eq!(hub.elapsed_ps(), ps);
        assert_eq!(hub.reset(), ps as f64 / 1e6);
        assert_eq!(hub.elapsed_us(), 0.0);
    }

    #[test]
    fn hub_charges_survive_threads() {
        use std::sync::Arc;
        let hub = Arc::new(MeterHub::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        hub.charge_us(0.1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.elapsed_ps(), 8 * 1000 * 100_000);
    }
}
