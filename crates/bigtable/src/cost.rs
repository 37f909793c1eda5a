//! The calibrated cost model and the virtual clock.
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
    /// row than batch *reads* (writes return no data). This asymmetry is
    /// why clustering latency is read-dominated (Figure 10).
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

/// A per-client virtual clock accumulating modelled time.
///
/// Deliberately not shared: each simulated server/client owns one, so
/// virtual timelines stay deterministic regardless of OS scheduling.
#[derive(Debug, Default, Clone)]
pub struct SimClock {
    us: f64,
}

impl SimClock {
    /// A clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock pre-advanced to `us` — used to seed a per-call meter from
    /// a [`MeterHub`] snapshot so absolute mid-call reads reproduce the
    /// single-shared-clock timeline bit-for-bit.
    pub(crate) fn starting_at(us: f64) -> Self {
        SimClock { us }
    }

    /// Current virtual time in microseconds.
    #[inline]
    pub fn now_us(&self) -> f64 {
        self.us
    }

    /// Advances by `us` microseconds (negative charges are ignored).
    #[inline]
    pub fn charge_us(&mut self, us: f64) {
        if us > 0.0 {
            self.us += us;
        }
    }

    /// Resets to zero and returns the elapsed microseconds.
    pub(crate) fn reset(&mut self) -> f64 {
        std::mem::take(&mut self.us)
    }
}

/// A private, per-call accumulator of virtual time and op counts.
///
/// Each query/update call owns one meter (inside its [`Session`]); the
/// charges are folded into the shared per-server [`MeterHub`] as they
/// happen, so concurrent calls never contend on a `&mut` clock and
/// single-threaded totals replay the exact `f64` addition sequence of a
/// single shared clock.
///
/// [`Session`]: crate::session::Session
#[derive(Debug, Default, Clone)]
pub struct CostMeter {
    clock: SimClock,
    ops: u64,
}

impl CostMeter {
    /// A meter at zero.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// A meter seeded at `us` microseconds / `ops` operations — the
    /// hub's totals at call start — so absolute reads mid-call match the
    /// old single-clock values exactly.
    pub(crate) fn starting_at(us: f64, ops: u64) -> Self {
        CostMeter {
            clock: SimClock::starting_at(us),
            ops,
        }
    }

    /// Advances by `us` microseconds (negative charges are ignored,
    /// matching [`SimClock::charge_us`]).
    #[inline]
    pub fn charge_us(&mut self, us: f64) {
        self.clock.charge_us(us);
    }

    /// Counts one store operation.
    #[inline]
    pub fn note_op(&mut self) {
        self.ops += 1;
    }

    /// Virtual microseconds accumulated (including any seed).
    #[inline]
    pub fn elapsed_us(&self) -> f64 {
        self.clock.now_us()
    }

    /// Operations counted (including any seed).
    #[inline]
    pub(crate) fn op_count(&self) -> u64 {
        self.ops
    }

    /// Resets to zero, returning elapsed microseconds.
    pub(crate) fn reset(&mut self) -> f64 {
        self.ops = 0;
        self.clock.reset()
    }
}

/// A shared, lock-free accumulator of virtual time and op counts.
///
/// One hub per simulated server. Elapsed time is stored as the `f64`
/// bit pattern inside an `AtomicU64` and advanced with a compare-and-swap
/// loop, so read paths taking `&self` can charge cost without a `&mut`
/// clock. The `us > 0.0` guard replicates [`SimClock::charge_us`]
/// exactly: on a single thread the hub applies the same additions in the
/// same order as one shared clock would, keeping virtual-time totals
/// bit-identical. Under true concurrency the op counter stays exact and
/// the elapsed total is order-dependent only in the final `f64` ulps.
#[derive(Debug, Default)]
pub struct MeterHub {
    elapsed_bits: AtomicU64,
    ops: AtomicU64,
}

impl MeterHub {
    /// A hub at zero.
    pub fn new() -> Self {
        MeterHub::default()
    }

    /// Advances by `us` microseconds (negative charges are ignored).
    pub fn charge_us(&self, us: f64) {
        if us > 0.0 {
            let mut cur = self.elapsed_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + us).to_bits();
                match self.elapsed_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Counts one store operation.
    #[inline]
    pub fn note_op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Virtual microseconds accumulated so far.
    pub fn elapsed_us(&self) -> f64 {
        f64::from_bits(self.elapsed_bits.load(Ordering::Relaxed))
    }

    /// Operations counted so far.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Resets both counters to zero, returning elapsed microseconds.
    pub fn reset(&self) -> f64 {
        self.ops.store(0, Ordering::Relaxed);
        f64::from_bits(self.elapsed_bits.swap(0f64.to_bits(), Ordering::Relaxed))
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
    fn hub_replays_the_same_addition_sequence_as_one_clock() {
        // Single-threaded bit-identicality: charging the hub in the same
        // order as a SimClock yields the exact same f64 bits.
        let charges = [15.0, 0.8, 4.0, -3.0, 0.0, 900.0, 0.002, 2.5];
        let mut clock = SimClock::new();
        let hub = MeterHub::new();
        for &c in &charges {
            clock.charge_us(c);
            hub.charge_us(c);
        }
        assert_eq!(clock.now_us().to_bits(), hub.elapsed_us().to_bits());
        assert_eq!(hub.reset().to_bits(), clock.reset().to_bits());
        assert_eq!(hub.elapsed_us(), 0.0);
    }

    #[test]
    fn seeded_meter_matches_absolute_timeline() {
        // An ephemeral meter seeded at the hub's snapshot sees the same
        // absolute values a single shared clock would have shown.
        let mut shared = SimClock::new();
        let hub = MeterHub::new();
        shared.charge_us(123.25);
        hub.charge_us(123.25);
        let mut meter = CostMeter::starting_at(hub.elapsed_us(), hub.op_count());
        for &c in &[4.0, 6.0, 0.5] {
            shared.charge_us(c);
            meter.charge_us(c);
            hub.charge_us(c);
            meter.note_op();
            hub.note_op();
        }
        assert_eq!(meter.elapsed_us().to_bits(), shared.now_us().to_bits());
        assert_eq!(meter.elapsed_us().to_bits(), hub.elapsed_us().to_bits());
        assert_eq!(meter.op_count(), hub.op_count());
        assert_eq!(hub.op_count(), 3);
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
                        hub.charge_us(0.25); // dyadic: f64 addition is exact
                        hub.note_op();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.elapsed_us(), 8.0 * 1000.0 * 0.25);
        assert_eq!(hub.op_count(), 8000);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut c = SimClock::new();
        c.charge_us(10.0);
        c.charge_us(-5.0); // ignored
        c.charge_us(2.5);
        assert!((c.now_us() - 12.5).abs() < 1e-12);
        assert!((c.reset() - 12.5).abs() < 1e-12);
        assert_eq!(c.now_us(), 0.0);
    }
}
