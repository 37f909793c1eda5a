//! PPP — the Parallel Ping-Pong archiving scheme (§3.6).
//!
//! Location data is viewed as a matrix of objects × time. Each object's
//! in-memory column is copied into an aged-buffer page only when it is full
//! (§3.6.1); each of the `n_d` disks runs its own ping-pong double buffer of
//! size `s_B / n_d`; and placement is locality-preserving both ways:
//!
//! * **object locality** — an object's archived data always lands on the
//!   same disk (`hash_d(i, loc_{i,0})` is fixed at first sight of `i`);
//! * **spatial locality** — the hash is derived from the object's *initial
//!   location* cell, and nearby cells map to the same disk, because "moving
//!   objects are unlikely to move too far away from their initial position
//!   after only a short period of time".
//!
//! We realise `hash_d` as a *contiguous* mapping of coarse-cell Hilbert
//! indexes onto disks (cell index · n_d / cell count), which preserves
//! proximity rather than scattering it the way a scrambling hash would;
//! load balance then follows from the curve's uniform coverage.
//!
//! Memory holds each object's last `m` records in one ring, whose newest
//! `unflushed` records are the filling column; the per-disk ping-pong
//! buffers; and each disk's page index. The flushed pages themselves live
//! in the disks' page files ([`crate::disk`]). A history query reads all
//! three places, so it answers with every record ingested so far, before
//! and after [`PppArchiver::flush_all`].
//!
//! Locks are taken in one order: an object stripe, then a disk's buffer,
//! then that disk's page index. A flush takes the disk before it releases
//! the buffer that handed it the page, so a query, holding the buffer
//! while it selects the disk's pages, never misses a page in flight.

use crate::buffer::{AppendOutcome, PingPongBuffer};
use crate::disk::{ArchiveError, DiskProfile, DiskStats, SimDisk};
use crate::record::HistoryRecord;
use moist_spatial::{cells_at_level, cover_rect, Point, Rect, Space};
use parking_lot::{CachePadded, Mutex, MutexGuard};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Object-map stripes: object `oid` lives in stripe `oid % OBJECT_STRIPES`,
/// so writers archiving different objects rarely meet on one lock.
const OBJECT_STRIPES: usize = 16;

/// Configuration of the archiver.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PppConfig {
    /// Number of parallel disks `n_d`.
    pub num_disks: u32,
    /// Total buffer size `s_B` in bytes, split evenly across disks.
    pub total_buffer_bytes: usize,
    /// In-memory records kept per object (`m`, §3.5) — also the column
    /// length copied to the aged buffer when full.
    pub column_records: usize,
    /// Coarse cell level used by the placement hash.
    pub placement_level: u8,
    /// Mechanical profile shared by all disks.
    pub disk: DiskProfile,
}

impl Default for PppConfig {
    fn default() -> Self {
        PppConfig {
            num_disks: 4,
            total_buffer_bytes: 1 << 20,
            column_records: 16,
            placement_level: 4,
            disk: DiskProfile::default(),
        }
    }
}

/// Cost summary of one history query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct QueryCost {
    /// Disks that had to be touched.
    pub disks_touched: u32,
    /// Pages this query transferred.
    pub pages_read: u64,
    /// Wall time of the slowest disk (disks read in parallel), seconds.
    pub parallel_secs: f64,
    /// Sum of all disks' read time (total device occupancy), seconds.
    pub total_device_secs: f64,
}

/// Snapshot of archiver-level counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PppStats {
    /// Records accepted so far.
    pub records_ingested: u64,
    /// Columns copied to aged buffers.
    pub columns_aged: u64,
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Largest observed per-flush disk time `max T_d`, seconds.
    pub max_flush_secs: f64,
}

/// The live counters behind [`PppStats`].
#[derive(Debug, Default)]
struct Counters {
    records_ingested: AtomicU64,
    columns_aged: AtomicU64,
    flushes: AtomicU64,
    /// `max T_d` as `f64` bits: non-negative floats order as their bits
    /// do, so `fetch_max` on the bits is `max` on the values.
    max_flush_bits: AtomicU64,
}

struct ObjectState {
    disk: usize,
    /// The object's last `m` records, newest last: the in-memory window
    /// recent-record queries read, and the filling column.
    ring: VecDeque<HistoryRecord>,
    /// How many of the ring's newest records no aged buffer holds yet.
    unflushed: usize,
}

impl ObjectState {
    /// The filling column: records not yet copied to an aged buffer.
    fn unaged(&self) -> impl Iterator<Item = HistoryRecord> + '_ {
        self.ring.range(self.ring.len() - self.unflushed..).copied()
    }
}

/// One stripe of the object map.
type Objects = HashMap<u64, ObjectState>;

/// The archiver: `n_d` simulated disks fed by per-disk ping-pong buffers.
pub struct PppArchiver {
    config: PppConfig,
    space: Space,
    disks: Vec<SimDisk>,
    buffers: Vec<Mutex<PingPongBuffer>>,
    objects: Box<[CachePadded<Mutex<Objects>>]>,
    counters: Counters,
}

impl PppArchiver {
    /// Creates an archiver over `space` with `config`.
    pub fn new(space: Space, config: PppConfig) -> Self {
        let nd = config.num_disks.max(1) as usize;
        let per_disk = (config.total_buffer_bytes / nd).max(crate::record::RECORD_BYTES);
        PppArchiver {
            config,
            space,
            disks: (0..nd).map(|i| SimDisk::new(i, config.disk)).collect(),
            buffers: (0..nd)
                .map(|_| Mutex::new(PingPongBuffer::new(per_disk)))
                .collect(),
            objects: (0..OBJECT_STRIPES)
                .map(|_| CachePadded(Mutex::new(HashMap::new())))
                .collect(),
            counters: Counters::default(),
        }
    }

    fn stripe(&self, oid: u64) -> &Mutex<Objects> {
        &self.objects[(oid % OBJECT_STRIPES as u64) as usize]
    }

    /// The locality-preserving placement hash `hash_d(i, loc_{i,0})`:
    /// contiguous coarse-cell index ranges map to one disk each.
    pub fn disk_for_initial_location(&self, loc0: &Point) -> usize {
        let cell = self.space.cell_at(self.config.placement_level, loc0);
        let total = cells_at_level(self.config.placement_level);
        ((cell.index as u128 * self.disks.len() as u128) / total as u128) as usize
    }

    /// Ingests one location record at virtual time `now_us`.
    ///
    /// Returns the flush time charged to a disk when this ingest completed a
    /// buffer (0.0 otherwise). A page the disk's file does not take is
    /// charged all the same, and latched for [`flush_all`](Self::flush_all)
    /// and the history queries to report.
    pub fn ingest(&self, rec: HistoryRecord, now_us: u64) -> f64 {
        let m = self.config.column_records.max(1);
        self.counters
            .records_ingested
            .fetch_add(1, Ordering::Relaxed);
        let mut objects = self.stripe(rec.oid).lock();
        // The ring grows as records arrive: `m` is a bound, not a size to
        // allocate up front.
        let state = objects.entry(rec.oid).or_insert_with(|| ObjectState {
            disk: self.disk_for_initial_location(&rec.loc),
            ring: VecDeque::new(),
            unflushed: 0,
        });
        if state.ring.len() == m {
            state.ring.pop_front();
        }
        state.ring.push_back(rec);
        state.unflushed += 1;
        if state.unflushed < m {
            return 0.0;
        }
        // The column is full, and it is the whole ring.
        state.unflushed = 0;
        self.counters.columns_aged.fetch_add(1, Ordering::Relaxed);
        let disk = state.disk;
        let mut buffer = self.buffers[disk].lock();
        let outcome = buffer.append_column(state.ring.iter().copied(), Some(now_us));
        drop(objects);
        match outcome {
            AppendOutcome::Buffered => 0.0,
            AppendOutcome::SwapAndFlush { records } => self.write_page(disk, buffer, records),
        }
    }

    /// Writes the page `buffer` handed over to its disk; returns `T_d`.
    fn write_page(
        &self,
        disk: usize,
        buffer: MutexGuard<'_, PingPongBuffer>,
        records: Vec<HistoryRecord>,
    ) -> f64 {
        // The disk before the buffer lets go: a query that holds the
        // buffer while it selects pages finds the page in one or the other.
        let writer = self.disks[disk].lock();
        drop(buffer);
        let t = writer.write_page(records);
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        if t > 0.0 {
            self.counters
                .max_flush_bits
                .fetch_max(t.to_bits(), Ordering::Relaxed);
        }
        t
    }

    /// Force-flushes every buffer and partial column (end of run /
    /// shutdown). Fails with the first disk's latched write error, if a
    /// page could not be written, now or earlier.
    pub fn flush_all(&self) -> Result<(), ArchiveError> {
        // Partial columns first: each object's records not yet aged.
        for stripe in self.objects.iter() {
            let mut objects = stripe.lock();
            for state in objects.values_mut().filter(|s| s.unflushed > 0) {
                let mut buffer = self.buffers[state.disk].lock();
                let outcome = buffer.append_column(state.unaged(), None);
                state.unflushed = 0;
                if let AppendOutcome::SwapAndFlush { records } = outcome {
                    self.write_page(state.disk, buffer, records);
                }
            }
        }
        for (disk, buffer) in self.buffers.iter().enumerate() {
            let mut buffer = buffer.lock();
            let records = buffer.drain();
            if !records.is_empty() {
                self.write_page(disk, buffer, records);
            }
        }
        match self.disks.iter().find_map(SimDisk::error) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The most recent in-memory records of one object (newest last).
    pub fn recent_records(&self, oid: u64) -> Vec<HistoryRecord> {
        self.stripe(oid)
            .lock()
            .get(&oid)
            .map(|s| s.ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Object-based history query: every record of `oid` within
    /// `[from_us, to_us]`, from its disk's pages, its disk's buffer and its
    /// not yet aged column, in time order.
    ///
    /// Thanks to object locality only **one** disk is read, and only its
    /// pages whose object index contains `oid`. Fails with that disk's
    /// latched write error, or if a page cannot be read back.
    pub fn query_object(
        &self,
        oid: u64,
        from_us: u64,
        to_us: u64,
    ) -> Result<(Vec<HistoryRecord>, QueryCost), ArchiveError> {
        let in_window = |r: &HistoryRecord| (from_us..=to_us).contains(&r.ts_us);
        let mut records = Vec::new();
        let reads = {
            let objects = self.stripe(oid).lock();
            let Some(state) = objects.get(&oid) else {
                return Ok((records, QueryCost::default()));
            };
            records.extend(state.unaged().filter(in_window));
            // The object's lock keeps its column from aging, and the
            // buffer's keeps a page from leaving it, until the disk's pages
            // are chosen: each record is found in exactly one place.
            let buffer = self.buffers[state.disk].lock();
            records.extend(
                buffer
                    .records()
                    .iter()
                    .filter(|r| r.oid == oid && in_window(r)),
            );
            self.disks[state.disk].select(|p| {
                p.contains_object(oid) && p.max_ts_us >= from_us && p.min_ts_us <= to_us
            })?
        };
        let cost = QueryCost {
            disks_touched: 1,
            pages_read: reads.pages(),
            parallel_secs: reads.secs,
            total_device_secs: reads.secs,
        };
        reads.read_into(|r| r.oid == oid && in_window(r), &mut records)?;
        records.sort_by_key(|r| r.ts_us);
        Ok((records, cost))
    }

    /// Location-based history query: records inside `rect` within
    /// `[from_us, to_us]`, sorted by object then time.
    ///
    /// Placement locality means only the disks whose coarse-cell ranges
    /// intersect the rect are touched — the read-resolution benefit `R_d`.
    /// Because an object's records live on the disk of its *initial*
    /// location ("moving objects are unlikely to move too far away from
    /// their initial position", §3.6.1), `drift_margin` widens the disk
    /// selection to cover objects that started up to that many world units
    /// outside the rect. Pass the map diameter for exact results on
    /// arbitrary movers. Fails with a touched disk's latched write error,
    /// or if a page cannot be read back.
    pub fn query_region(
        &self,
        rect: &Rect,
        from_us: u64,
        to_us: u64,
        drift_margin: f64,
    ) -> Result<(Vec<HistoryRecord>, QueryCost), ArchiveError> {
        let m = drift_margin.max(0.0);
        let widened = Rect::new(
            rect.min_x - m,
            rect.min_y - m,
            rect.max_x + m,
            rect.max_y + m,
        );
        let unit = self.space.rect_to_unit(&widened);
        let cells = cover_rect(self.space.curve, self.config.placement_level, &unit);
        let total = cells_at_level(self.config.placement_level);
        let mut disk_idxs: Vec<usize> = cells
            .iter()
            .map(|c| ((c.index as u128 * self.disks.len() as u128) / total as u128) as usize)
            .collect();
        disk_idxs.sort_unstable();
        disk_idxs.dedup();
        let in_query =
            |r: &HistoryRecord| (from_us..=to_us).contains(&r.ts_us) && rect.contains(&r.loc);
        let mut records = Vec::new();
        for stripe in self.objects.iter() {
            for state in stripe.lock().values() {
                if disk_idxs.binary_search(&state.disk).is_ok() {
                    records.extend(state.unaged().filter(in_query));
                }
            }
        }
        let mut cost = QueryCost {
            disks_touched: disk_idxs.len() as u32,
            ..QueryCost::default()
        };
        for &d in &disk_idxs {
            let reads = {
                let buffer = self.buffers[d].lock();
                records.extend(buffer.records().iter().filter(|r| in_query(r)));
                self.disks[d].select(|p| p.max_ts_us >= from_us && p.min_ts_us <= to_us)?
            };
            cost.pages_read += reads.pages();
            cost.parallel_secs = cost.parallel_secs.max(reads.secs);
            cost.total_device_secs += reads.secs;
            reads.read_into(in_query, &mut records)?;
        }
        records.sort_by_key(|r| (r.oid, r.ts_us));
        // A column that aged between the scan of its object and the scan
        // of its buffer was found in both.
        records.dedup();
        Ok((records, cost))
    }

    /// Checks the ping-pong safety condition `min T_m ≥ max T_d` from the
    /// observed fill and flush times. `None` until at least one buffer has
    /// completed a fill.
    pub fn pingpong_safety(&self) -> Option<(f64, f64, bool)> {
        let min_tm = self
            .buffers
            .iter()
            .filter_map(|b| b.lock().min_fill_secs())
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })?;
        let max_td = self.stats().max_flush_secs;
        Some((min_tm, max_td, min_tm >= max_td))
    }

    /// Archiver counters.
    pub fn stats(&self) -> PppStats {
        let c = &self.counters;
        PppStats {
            records_ingested: c.records_ingested.load(Ordering::Relaxed),
            columns_aged: c.columns_aged.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            max_flush_secs: f64::from_bits(c.max_flush_bits.load(Ordering::Relaxed)),
        }
    }

    /// Per-disk device statistics.
    pub fn disk_stats(&self) -> Vec<DiskStats> {
        self.disks.iter().map(|d| d.stats()).collect()
    }

    /// Number of configured disks.
    pub fn num_disks(&self) -> usize {
        self.disks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_spatial::Velocity;

    fn space() -> Space {
        Space::paper_map()
    }

    fn config() -> PppConfig {
        PppConfig {
            num_disks: 4,
            total_buffer_bytes: 4 * 8 * crate::record::RECORD_BYTES, // 8 records/disk side
            column_records: 4,
            placement_level: 3,
            disk: DiskProfile::default(),
        }
    }

    fn rec(oid: u64, ts: u64, x: f64, y: f64) -> HistoryRecord {
        HistoryRecord::new(oid, ts, Point::new(x, y), Velocity::ZERO)
    }

    #[test]
    fn placement_is_stable_and_locality_preserving() {
        let a = PppArchiver::new(space(), config());
        // Same location -> same disk; far locations spread across disks.
        let d1 = a.disk_for_initial_location(&Point::new(10.0, 10.0));
        let d2 = a.disk_for_initial_location(&Point::new(11.0, 10.5));
        assert_eq!(d1, d2, "nearby initial locations share a disk");
        let mut seen: Vec<usize> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i as f64 * 62.0 + 1.0, j as f64 * 62.0 + 1.0)))
            .map(|(x, y)| a.disk_for_initial_location(&Point::new(x, y)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "uniform coverage uses all disks");
    }

    #[test]
    fn object_query_reads_one_disk_and_merges_memory() {
        let a = PppArchiver::new(space(), config());
        // 8 records: two full columns -> one page flush on oid's disk.
        for ts in 0..8u64 {
            a.ingest(rec(1, ts, 100.0, 100.0), ts * 1_000_000);
        }
        // A different object on (likely) another disk.
        for ts in 0..4u64 {
            a.ingest(rec(2, ts, 900.0, 900.0), ts * 1_000_000);
        }
        let (records, cost) = a.query_object(1, 0, 100).unwrap();
        assert_eq!(records.len(), 8, "archived + recent merged, deduplicated");
        assert!(records.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
        assert_eq!(cost.disks_touched, 1);
        // Unknown object: free.
        let (none, c0) = a.query_object(999, 0, 100).unwrap();
        assert!(none.is_empty());
        assert_eq!(c0, QueryCost::default());
    }

    #[test]
    fn region_query_touches_only_covering_disks() {
        let a = PppArchiver::new(space(), config());
        for oid in 0..32u64 {
            let x = (oid % 8) as f64 * 125.0 + 10.0;
            let y = (oid / 8) as f64 * 250.0 + 10.0;
            for ts in 0..4u64 {
                a.ingest(rec(oid, ts, x, y), ts * 1_000);
            }
        }
        a.flush_all().unwrap();
        let (records, cost) = a
            .query_region(&Rect::new(0.0, 0.0, 200.0, 200.0), 0, 10, 0.0)
            .unwrap();
        assert!(!records.is_empty());
        assert!(
            cost.disks_touched < a.num_disks() as u32,
            "a small region must not touch every disk (R_d locality)"
        );
        for r in &records {
            assert!(r.loc.x <= 200.0 && r.loc.y <= 200.0);
        }
    }

    #[test]
    fn flush_all_persists_partial_columns() {
        let a = PppArchiver::new(space(), config());
        a.ingest(rec(5, 1, 50.0, 50.0), 0); // single record, column not full
        assert_eq!(
            a.disk_stats().iter().map(|s| s.pages_written).sum::<u64>(),
            0
        );
        a.flush_all().unwrap();
        let (records, _) = a.query_object(5, 0, 10).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            a.disk_stats().iter().map(|s| s.pages_written).sum::<u64>(),
            1
        );
    }

    /// Eight pages of one object on its disk, none of them flushed by
    /// `flush_all`: 64 records in full columns fill eight buffer sides.
    fn eight_pages_of_object_3() -> PppArchiver {
        let a = PppArchiver::new(space(), config());
        for ts in 0..64u64 {
            a.ingest(rec(3, ts, 100.0, 100.0), ts);
        }
        assert_eq!(a.stats().flushes, 8);
        a
    }

    /// `pages_read` is what the query read, not the disk's running total:
    /// the same query reports the same count every time.
    #[test]
    fn the_same_query_reports_the_same_page_count() {
        let a = eight_pages_of_object_3();
        let costs: Vec<QueryCost> = (0..3)
            .map(|_| a.query_object(3, 0, 50).unwrap().1)
            .collect();
        assert_eq!(costs[0].pages_read, 7, "pages 0..=6 hold ts 0..=55");
        assert!(costs.iter().all(|c| *c == costs[0]), "{costs:?}");
        let rect = Rect::new(0.0, 0.0, 200.0, 200.0);
        let regions: Vec<QueryCost> = (0..3)
            .map(|_| a.query_region(&rect, 0, 50, 0.0).unwrap().1)
            .collect();
        assert_eq!(regions[0].pages_read, 7);
        assert!(regions.iter().all(|c| *c == regions[0]), "{regions:?}");
        let disk = a.disk_for_initial_location(&Point::new(100.0, 100.0));
        assert_eq!(a.disk_stats()[disk].pages_read, 6 * 7);
    }

    /// Two threads querying at once each see their single-threaded cost.
    #[test]
    fn concurrent_queries_each_see_their_own_cost() {
        let a = eight_pages_of_object_3();
        let rect = Rect::new(0.0, 0.0, 200.0, 200.0);
        let object_alone = a.query_object(3, 0, 50).unwrap();
        let region_alone = a.query_region(&rect, 0, 20, 0.0).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let objects = s.spawn(|| {
                start.wait();
                (0..200)
                    .map(|_| a.query_object(3, 0, 50).unwrap())
                    .collect::<Vec<_>>()
            });
            let regions = s.spawn(|| {
                start.wait();
                (0..200)
                    .map(|_| a.query_region(&rect, 0, 20, 0.0).unwrap())
                    .collect::<Vec<_>>()
            });
            for got in objects.join().unwrap() {
                assert_eq!(got, object_alone);
            }
            for got in regions.join().unwrap() {
                assert_eq!(got, region_alone);
            }
        });
    }

    /// An `m` of `usize::MAX` keeps every record in memory and ages none;
    /// nothing is allocated for it up front.
    #[test]
    fn an_unbounded_column_ingests_without_preallocating() {
        let a = PppArchiver::new(
            space(),
            PppConfig {
                column_records: usize::MAX,
                ..config()
            },
        );
        for ts in 0..100u64 {
            assert_eq!(a.ingest(rec(1, ts, 10.0, 10.0), ts), 0.0);
        }
        assert_eq!(a.stats().columns_aged, 0);
        assert_eq!(a.recent_records(1).len(), 100);
        let (all, _) = a.query_object(1, 0, u64::MAX).unwrap();
        assert_eq!(all.len(), 100);
        a.flush_all().unwrap();
        assert_eq!(a.stats().flushes, 1);
        let (all, cost) = a.query_object(1, 0, u64::MAX).unwrap();
        assert_eq!((all.len(), cost.pages_read), (100, 1));
    }

    #[test]
    fn recent_window_is_capped_at_m() {
        let a = PppArchiver::new(space(), config());
        for ts in 0..10u64 {
            a.ingest(rec(3, ts, 10.0, 10.0), ts);
        }
        let recent = a.recent_records(3);
        assert_eq!(recent.len(), 4); // m = column_records = 4
        assert_eq!(recent.last().unwrap().ts_us, 9);
    }

    #[test]
    fn pingpong_safety_reports_fill_vs_flush() {
        let a = PppArchiver::new(space(), config());
        assert!(a.pingpong_safety().is_none(), "no fills yet");
        // Fill one disk's buffer slowly (10 s per column batch).
        for ts in 0..8u64 {
            a.ingest(rec(1, ts, 100.0, 100.0), ts * 10_000_000);
        }
        let (min_tm, max_td, ok) = a.pingpong_safety().expect("one fill completed");
        assert!(min_tm > 0.0);
        assert!(max_td > 0.0);
        assert!(ok, "slow fill must satisfy min Tm >= max Td");
    }

    #[test]
    fn a_forced_flush_leaves_the_fill_times_alone() {
        let a = PppArchiver::new(space(), config());
        // One real fill of 8 records (two columns), one record a second.
        for ts in 0..8u64 {
            a.ingest(rec(1, ts, 100.0, 100.0), ts * 1_000_000);
        }
        // Partial columns of 3 + 3 + 2 records on the same disk: flushing
        // them fills and swaps one more side, of the same size.
        for (oid, n) in [(2u64, 3u64), (3, 3), (4, 2)] {
            for ts in 0..n {
                a.ingest(rec(oid, ts, 100.0, 100.0), (10 + ts) * 1_000_000);
            }
        }
        let before = a.pingpong_safety().expect("one fill completed");
        assert_eq!(before.0, 4.0);
        a.flush_all().unwrap();
        assert_eq!(a.stats().flushes, 2, "the forced flush swapped a side");
        assert_eq!(a.pingpong_safety(), Some(before));
    }

    #[test]
    fn stats_count_ingests_columns_flushes() {
        let a = PppArchiver::new(space(), config());
        for ts in 0..8u64 {
            a.ingest(rec(1, ts, 100.0, 100.0), ts);
        }
        let s = a.stats();
        assert_eq!(s.records_ingested, 8);
        assert_eq!(s.columns_aged, 2);
        assert_eq!(s.flushes, 1); // 2 columns of 4 = 8 records = one side
    }
}
