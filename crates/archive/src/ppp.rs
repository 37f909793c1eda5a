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

use crate::buffer::{AppendOutcome, PingPongBuffer};
use crate::disk::{DiskProfile, DiskStats, SimDisk};
use crate::record::HistoryRecord;
use moist_spatial::{cells_at_level, cover_rect, Point, Rect, Space};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};

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
    /// Pages transferred.
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

struct ObjectState {
    disk: usize,
    /// The object's filling in-memory column.
    pending: Vec<HistoryRecord>,
    /// Most recent `m` records for memory-served queries.
    recent: VecDeque<HistoryRecord>,
}

/// The archiver: `n_d` simulated disks fed by per-disk ping-pong buffers.
pub struct PppArchiver {
    config: PppConfig,
    space: Space,
    disks: Vec<SimDisk>,
    buffers: Vec<Mutex<PingPongBuffer>>,
    objects: Mutex<HashMap<u64, ObjectState>>,
    stats: Mutex<PppStats>,
}

impl PppArchiver {
    /// Creates an archiver over `space` with `config`.
    pub fn new(space: Space, config: PppConfig) -> Self {
        let nd = config.num_disks.max(1) as usize;
        let per_disk = (config.total_buffer_bytes / nd).max(crate::record::RECORD_BYTES);
        PppArchiver {
            config,
            space,
            disks: (0..nd).map(|_| SimDisk::new(config.disk)).collect(),
            buffers: (0..nd)
                .map(|_| Mutex::new(PingPongBuffer::new(per_disk)))
                .collect(),
            objects: Mutex::new(HashMap::new()),
            stats: Mutex::new(PppStats::default()),
        }
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
    /// buffer (0.0 otherwise).
    pub fn ingest(&self, rec: HistoryRecord, now_us: u64) -> f64 {
        let m = self.config.column_records.max(1);
        let (disk_idx, column) = {
            let mut objects = self.objects.lock();
            let state = objects.entry(rec.oid).or_insert_with(|| ObjectState {
                disk: self.disk_for_initial_location(&rec.loc),
                pending: Vec::with_capacity(m),
                recent: VecDeque::with_capacity(m),
            });
            state.pending.push(rec);
            if state.recent.len() == m {
                state.recent.pop_front();
            }
            state.recent.push_back(rec);
            if state.pending.len() >= m {
                (state.disk, std::mem::take(&mut state.pending))
            } else {
                {
                    let mut stats = self.stats.lock();
                    stats.records_ingested += 1;
                }
                return 0.0;
            }
        };
        {
            let mut stats = self.stats.lock();
            stats.records_ingested += 1;
            stats.columns_aged += 1;
        }
        let outcome = self.buffers[disk_idx].lock().append_column(column, now_us);
        match outcome {
            AppendOutcome::Buffered => 0.0,
            AppendOutcome::SwapAndFlush { records, .. } => {
                let t = self.disks[disk_idx].write_page(records);
                let mut stats = self.stats.lock();
                stats.flushes += 1;
                stats.max_flush_secs = stats.max_flush_secs.max(t);
                t
            }
        }
    }

    /// Force-flushes every buffer and pending column (end of run / shutdown).
    pub fn flush_all(&self) {
        // Move pending columns into buffers first.
        let drained: Vec<(usize, Vec<HistoryRecord>)> = {
            let mut objects = self.objects.lock();
            objects
                .values_mut()
                .filter(|s| !s.pending.is_empty())
                .map(|s| (s.disk, std::mem::take(&mut s.pending)))
                .collect()
        };
        for (disk_idx, column) in drained {
            if let AppendOutcome::SwapAndFlush { records, .. } =
                self.buffers[disk_idx].lock().append_column(column, 0)
            {
                let t = self.disks[disk_idx].write_page(records);
                let mut stats = self.stats.lock();
                stats.flushes += 1;
                stats.max_flush_secs = stats.max_flush_secs.max(t);
            }
        }
        for (disk_idx, buffer) in self.buffers.iter().enumerate() {
            let records = buffer.lock().drain();
            if !records.is_empty() {
                let t = self.disks[disk_idx].write_page(records);
                let mut stats = self.stats.lock();
                stats.flushes += 1;
                stats.max_flush_secs = stats.max_flush_secs.max(t);
            }
        }
    }

    /// The most recent in-memory records of one object (newest last).
    pub fn recent_records(&self, oid: u64) -> Vec<HistoryRecord> {
        self.objects
            .lock()
            .get(&oid)
            .map(|s| s.recent.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Object-based history query: all archived records of `oid` within
    /// `[from_us, to_us]`, merged with the in-memory recent window.
    ///
    /// Thanks to object locality only **one** disk is read, and only its
    /// pages whose object index contains `oid`.
    pub fn query_object(
        &self,
        oid: u64,
        from_us: u64,
        to_us: u64,
    ) -> (Vec<HistoryRecord>, QueryCost) {
        let disk_idx = match self.objects.lock().get(&oid) {
            Some(s) => s.disk,
            None => return (Vec::new(), QueryCost::default()),
        };
        let (mut records, secs) = self.disks[disk_idx].read_matching(
            |p| p.contains_object(oid) && p.max_ts_us >= from_us && p.min_ts_us <= to_us,
            |r| r.oid == oid && (from_us..=to_us).contains(&r.ts_us),
        );
        let pages = self.disks[disk_idx].stats().pages_read;
        // Merge the in-memory window (records not yet aged to disk).
        for r in self.recent_records(oid) {
            if (from_us..=to_us).contains(&r.ts_us) && !records.iter().any(|x| x.ts_us == r.ts_us) {
                records.push(r);
            }
        }
        records.sort_by_key(|r| r.ts_us);
        (
            records,
            QueryCost {
                disks_touched: 1,
                pages_read: pages,
                parallel_secs: secs,
                total_device_secs: secs,
            },
        )
    }

    /// Location-based history query: archived records inside `rect` within
    /// `[from_us, to_us]`.
    ///
    /// Placement locality means only the disks whose coarse-cell ranges
    /// intersect the rect are touched — the read-resolution benefit `R_d`.
    /// Because an object's records live on the disk of its *initial*
    /// location ("moving objects are unlikely to move too far away from
    /// their initial position", §3.6.1), `drift_margin` widens the disk
    /// selection to cover objects that started up to that many world units
    /// outside the rect. Pass the map diameter for exact results on
    /// arbitrary movers.
    pub fn query_region(
        &self,
        rect: &Rect,
        from_us: u64,
        to_us: u64,
        drift_margin: f64,
    ) -> (Vec<HistoryRecord>, QueryCost) {
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
        let mut records = Vec::new();
        let mut cost = QueryCost {
            disks_touched: disk_idxs.len() as u32,
            ..QueryCost::default()
        };
        for &d in &disk_idxs {
            let before = self.disks[d].stats().pages_read;
            let (mut recs, secs) = self.disks[d].read_matching(
                |p| p.max_ts_us >= from_us && p.min_ts_us <= to_us,
                |r| (from_us..=to_us).contains(&r.ts_us) && rect.contains(&r.loc),
            );
            cost.pages_read += self.disks[d].stats().pages_read - before;
            cost.parallel_secs = cost.parallel_secs.max(secs);
            cost.total_device_secs += secs;
            records.append(&mut recs);
        }
        records.sort_by_key(|r| (r.oid, r.ts_us));
        (records, cost)
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
        let max_td = self.stats.lock().max_flush_secs;
        Some((min_tm, max_td, min_tm >= max_td))
    }

    /// Archiver counters.
    pub fn stats(&self) -> PppStats {
        *self.stats.lock()
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
        let (records, cost) = a.query_object(1, 0, 100);
        assert_eq!(records.len(), 8, "archived + recent merged, deduplicated");
        assert!(records.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
        assert_eq!(cost.disks_touched, 1);
        // Unknown object: free.
        let (none, c0) = a.query_object(999, 0, 100);
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
        a.flush_all();
        let (records, cost) = a.query_region(&Rect::new(0.0, 0.0, 200.0, 200.0), 0, 10, 0.0);
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
        a.flush_all();
        let (records, _) = a.query_object(5, 0, 10);
        assert_eq!(records.len(), 1);
        assert_eq!(
            a.disk_stats().iter().map(|s| s.pages_written).sum::<u64>(),
            1
        );
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
