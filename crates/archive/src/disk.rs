//! Simulated disks with the paper's latency model.
//!
//! §3.6.2, Eq. 1: flushing a buffer of `s_B/n_d` bytes onto one disk costs
//! `T_d = T_rot + T_seek + s_B / (n_d · R_disk)`. Each `SimDisk` charges
//! exactly that per page write, records the pages it stores, and tracks
//! cumulative busy time so write-side utilisation `U_d` can be measured as
//! well as computed analytically.

use crate::record::{HistoryRecord, RECORD_BYTES};
use parking_lot::Mutex;
use serde::Serialize;

/// Mechanical parameters of one disk.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DiskProfile {
    /// Rotational delay per access, seconds.
    pub t_rot: f64,
    /// Seek time per access, seconds.
    pub t_seek: f64,
    /// Sequential transfer rate, bytes per second.
    pub rate: f64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        // 7200 rpm-class 2012 disk: 4.2 ms rotational, 8 ms seek, 50 MB/s.
        DiskProfile {
            t_rot: 0.0042,
            t_seek: 0.008,
            rate: 50.0e6,
        }
    }
}

impl DiskProfile {
    /// Access time for one contiguous transfer of `bytes` (Eq. 1 with the
    /// per-disk share substituted by the caller).
    fn access_time(&self, bytes: u64) -> f64 {
        self.t_rot + self.t_seek + bytes as f64 / self.rate
    }
}

/// One flushed buffer page as stored on disk, with the metadata history
/// queries use to skip irrelevant pages.
#[derive(Debug, Clone)]
pub(crate) struct DiskPage {
    /// Smallest record timestamp in the page.
    pub min_ts_us: u64,
    /// Largest record timestamp in the page.
    pub max_ts_us: u64,
    /// Object ids present (sorted, deduplicated).
    pub objects: Vec<u64>,
    /// The records, in flush order.
    pub records: Vec<HistoryRecord>,
}

impl DiskPage {
    /// Page payload size in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        (self.records.len() * RECORD_BYTES) as u64
    }

    /// Whether the page holds any record of `oid`.
    pub(crate) fn contains_object(&self, oid: u64) -> bool {
        self.objects.binary_search(&oid).is_ok()
    }
}

/// Counters of one disk's simulated activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DiskStats {
    /// Pages written.
    pub pages_written: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Seconds the disk spent on writes.
    pub write_busy_secs: f64,
    /// Pages read back by history queries.
    pub pages_read: u64,
    /// Bytes read back.
    pub bytes_read: u64,
    /// Seconds the disk spent on reads.
    pub read_busy_secs: f64,
}

/// A simulated disk storing flushed pages.
#[derive(Debug)]
pub(crate) struct SimDisk {
    profile: DiskProfile,
    inner: Mutex<DiskInner>,
}

#[derive(Debug, Default)]
struct DiskInner {
    pages: Vec<DiskPage>,
    stats: DiskStats,
}

impl SimDisk {
    /// Creates an empty disk.
    pub(crate) fn new(profile: DiskProfile) -> Self {
        SimDisk {
            profile,
            inner: Mutex::new(DiskInner::default()),
        }
    }

    /// Writes one page; returns the simulated write time `T_d` in seconds.
    pub(crate) fn write_page(&self, mut records: Vec<HistoryRecord>) -> f64 {
        if records.is_empty() {
            return 0.0;
        }
        let mut inner = self.inner.lock();
        let bytes = (records.len() * RECORD_BYTES) as u64;
        let t = self.profile.access_time(bytes);
        let mut objects: Vec<u64> = records.iter().map(|r| r.oid).collect();
        objects.sort_unstable();
        objects.dedup();
        records.sort_by_key(|r| (r.oid, r.ts_us));
        // A page lives as long as the archive, and both vectors arrive
        // with slack: the buffer side's doubling growth, and one object
        // slot per record. Keep exactly what the page holds.
        objects.shrink_to_fit();
        records.shrink_to_fit();
        let page = DiskPage {
            min_ts_us: records.iter().map(|r| r.ts_us).min().unwrap_or(0),
            max_ts_us: records.iter().map(|r| r.ts_us).max().unwrap_or(0),
            objects,
            records,
        };
        inner.stats.pages_written += 1;
        inner.stats.bytes_written += bytes;
        inner.stats.write_busy_secs += t;
        inner.pages.push(page);
        t
    }

    /// Reads every page matching `page_filter`, returning the selected
    /// records (post-filtered by `record_filter`) and the simulated read
    /// time in seconds. Pages that fail the filter cost nothing — that is
    /// precisely the "IO resolution" R_d the placement scheme buys.
    pub(crate) fn read_matching(
        &self,
        page_filter: impl Fn(&DiskPage) -> bool,
        record_filter: impl Fn(&HistoryRecord) -> bool,
    ) -> (Vec<HistoryRecord>, f64) {
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        let mut time = 0.0;
        let mut pages_read = 0u64;
        let mut bytes_read = 0u64;
        for page in &inner.pages {
            if !page_filter(page) {
                continue;
            }
            pages_read += 1;
            bytes_read += page.bytes();
            time += self.profile.access_time(page.bytes());
            out.extend(page.records.iter().copied().filter(&record_filter));
        }
        inner.stats.pages_read += pages_read;
        inner.stats.bytes_read += bytes_read;
        inner.stats.read_busy_secs += time;
        (out, time)
    }

    /// Copy of the activity counters.
    pub(crate) fn stats(&self) -> DiskStats {
        self.inner.lock().stats
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
    fn write_time_follows_eq1() {
        let profile = DiskProfile {
            t_rot: 0.004,
            t_seek: 0.008,
            rate: 48_000.0, // 1000 records/s at 48 B
        };
        let disk = SimDisk::new(profile);
        let t = disk.write_page((0..100).map(|i| rec(i, i)).collect());
        // 100 * 48 = 4800 bytes / 48000 B/s = 0.1 s transfer + 0.012 access.
        assert!((t - 0.112).abs() < 1e-9, "t = {t}");
        assert_eq!(disk.inner.lock().pages.len(), 1);
        let s = disk.stats();
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.bytes_written, 4800);
    }

    /// A page keeps no slack: a record vector with room for twice its
    /// records (a buffer side after doubling) and repeated objects are
    /// stored at exactly their size.
    #[test]
    fn pages_are_stored_at_their_exact_size() {
        let disk = SimDisk::new(DiskProfile::default());
        let mut records = Vec::with_capacity(200);
        records.extend((0..100).map(|i| rec(i % 10, i)));
        disk.write_page(records);
        let inner = disk.inner.lock();
        let page = &inner.pages[0];
        assert_eq!(page.records.capacity(), 100);
        assert_eq!(page.objects.capacity(), 10);
    }

    #[test]
    fn empty_page_writes_are_free() {
        let disk = SimDisk::new(DiskProfile::default());
        assert_eq!(disk.write_page(vec![]), 0.0);
        assert!(disk.inner.lock().pages.is_empty());
    }

    #[test]
    fn page_metadata_indexes_objects_and_time() {
        let disk = SimDisk::new(DiskProfile::default());
        disk.write_page(vec![rec(7, 30), rec(3, 10), rec(7, 20)]);
        let (records, _) = disk.read_matching(|p| p.contains_object(7), |r| r.oid == 7);
        assert_eq!(records.len(), 2);
        // Records within a page are clustered by object then time.
        assert!(records[0].ts_us < records[1].ts_us);
        let (none, t) = disk.read_matching(|p| p.contains_object(99), |_| true);
        assert!(none.is_empty());
        assert_eq!(t, 0.0, "skipped pages must cost nothing");
    }

    #[test]
    fn read_skips_pages_outside_time_range() {
        let disk = SimDisk::new(DiskProfile::default());
        disk.write_page(vec![rec(1, 10), rec(1, 20)]);
        disk.write_page(vec![rec(1, 100), rec(1, 200)]);
        let (records, t) = disk.read_matching(
            |p| p.max_ts_us >= 100 && p.min_ts_us <= 250,
            |r| (100..=250).contains(&r.ts_us),
        );
        assert_eq!(records.len(), 2);
        let one_page_time = disk.profile.access_time(2 * RECORD_BYTES as u64);
        assert!((t - one_page_time).abs() < 1e-12);
    }
}
