//! Simulated disks with the paper's latency model, backed by page files.
//!
//! §3.6.2, Eq. 1: flushing a buffer of `s_B/n_d` bytes onto one disk costs
//! `T_d = T_rot + T_seek + s_B / (n_d · R_disk)`. Each `SimDisk` charges
//! exactly that per page write, and tracks cumulative busy time so
//! write-side utilisation `U_d` can be measured as well as computed
//! analytically.
//!
//! The pages themselves live on disk, not in memory. Each `SimDisk`
//! appends its pages to one file of fixed-size records ([`RECORD_BYTES`]
//! each, sorted by object then time within a page). The file is created
//! in [`std::env::temp_dir`] at the disk's first page write and unlinked
//! at once, so it lives exactly as long as the process holds it open: the
//! archive, like the in-memory one it replaces, dies with the process and
//! leaves nothing to clean up. Memory holds only the page index
//! (`DiskPage`): each page's time range, file offset, record count and
//! sorted distinct object ids, about 0.5 B per archived record at the
//! default geometry against the 48 B of the record itself. Pages are
//! written and read with positioned I/O (`std::os::unix::fs::FileExt`),
//! so readers share the file without a seek position to fight over.
//!
//! A page that cannot be written is lost, so the first write failure is
//! latched: every later read of the disk returns it as an
//! [`ArchiveError`] instead of a silently shortened answer.

use crate::record::{HistoryRecord, RECORD_BYTES};
use parking_lot::{Mutex, MutexGuard};
use serde::Serialize;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A page-file I/O failure of one disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveError {
    /// A flushed page could not be written, so its records are lost. The
    /// disk latches this: every later history query that reads the disk,
    /// and every `flush_all`, reports it.
    PageWrite {
        /// Index of the disk.
        disk: usize,
        /// The operating system's error kind.
        kind: io::ErrorKind,
        /// The operating system's message.
        message: String,
    },
    /// A page could not be read back.
    PageRead {
        /// Index of the disk.
        disk: usize,
        /// The operating system's error kind.
        kind: io::ErrorKind,
        /// The operating system's message.
        message: String,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::PageWrite { disk, message, .. } => {
                write!(f, "archive disk {disk}: a page write failed: {message}")
            }
            ArchiveError::PageRead { disk, message, .. } => {
                write!(f, "archive disk {disk}: a page read failed: {message}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

/// The index entry of one flushed page: what history queries use to skip
/// irrelevant pages, and where the page sits in the disk's file.
#[derive(Debug, Clone)]
pub(crate) struct DiskPage {
    /// Smallest record timestamp in the page.
    pub min_ts_us: u64,
    /// Largest record timestamp in the page.
    pub max_ts_us: u64,
    /// Byte offset of the page's first record in the disk's file.
    offset: u64,
    /// Records in the page.
    len: usize,
    /// The page's distinct object ids, ascending.
    oids: Box<[u64]>,
}

impl DiskPage {
    /// Page payload size in bytes.
    fn bytes(&self) -> u64 {
        (self.len * RECORD_BYTES) as u64
    }

    /// Whether the page holds any record of `oid`.
    pub(crate) fn contains_object(&self, oid: u64) -> bool {
        self.oids.binary_search(&oid).is_ok()
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

/// A simulated disk storing flushed pages in its page file.
#[derive(Debug)]
pub(crate) struct SimDisk {
    index: usize,
    profile: DiskProfile,
    inner: Mutex<DiskInner>,
}

#[derive(Debug, Default)]
struct DiskInner {
    /// The page file, created at the first page write.
    file: Option<Arc<File>>,
    /// Index of the pages in the file, in write order.
    pages: Vec<DiskPage>,
    stats: DiskStats,
    /// The first write failure. No page is written after it.
    error: Option<ArchiveError>,
}

/// Creates a read-write file in the temporary directory and unlinks it,
/// so that it lives exactly as long as the returned handle.
fn create_unlinked() -> io::Result<File> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir();
    loop {
        let path = dir.join(format!(
            "moist-ppp-{}-{}.pages",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => {
                std::fs::remove_file(&path)?;
                return Ok(file);
            }
            // Left by another process with the same id; try the next name.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
}

/// The pages one query reads from one disk: chosen and charged under the
/// disk's lock, read after it is released.
#[derive(Debug)]
pub(crate) struct PageReads {
    disk: usize,
    file: Option<Arc<File>>,
    /// (file offset, byte length) of each selected page.
    pages: Vec<(u64, usize)>,
    /// Simulated read time of the selected pages, seconds.
    pub secs: f64,
}

impl PageReads {
    /// Pages this query reads.
    pub(crate) fn pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Reads each selected page with one positioned read into one reused
    /// buffer, and appends its records that pass `record_filter` to `out`.
    pub(crate) fn read_into(
        self,
        record_filter: impl Fn(&HistoryRecord) -> bool,
        out: &mut Vec<HistoryRecord>,
    ) -> Result<(), ArchiveError> {
        let Some(file) = self.file else {
            return Ok(());
        };
        let mut buf = Vec::new();
        for (offset, len) in self.pages {
            buf.resize(len, 0);
            file.read_exact_at(&mut buf, offset)
                .map_err(|e| ArchiveError::PageRead {
                    disk: self.disk,
                    kind: e.kind(),
                    message: e.to_string(),
                })?;
            let (records, _) = buf.as_chunks::<RECORD_BYTES>();
            out.extend(
                records
                    .iter()
                    .map(HistoryRecord::decode)
                    .filter(|r| record_filter(r)),
            );
        }
        Ok(())
    }
}

/// A disk locked for one page write (see [`SimDisk::lock`]).
pub(crate) struct PageWriter<'a> {
    disk: &'a SimDisk,
    inner: MutexGuard<'a, DiskInner>,
}

impl PageWriter<'_> {
    /// Writes one page; returns the simulated write time `T_d` in seconds.
    ///
    /// The charge and the counters follow Eq. 1 whether or not the page
    /// file takes the bytes: virtual time does not depend on the host.
    pub(crate) fn write_page(mut self, mut records: Vec<HistoryRecord>) -> f64 {
        if records.is_empty() {
            return 0.0;
        }
        let bytes = (records.len() * RECORD_BYTES) as u64;
        let t = self.disk.profile.access_time(bytes);
        let inner = &mut *self.inner;
        inner.stats.pages_written += 1;
        inner.stats.bytes_written += bytes;
        inner.stats.write_busy_secs += t;
        if inner.error.is_none() {
            records.sort_by_key(|r| (r.oid, r.ts_us));
            if let Err(e) = inner.append(&records) {
                inner.error = Some(ArchiveError::PageWrite {
                    disk: self.disk.index,
                    kind: e.kind(),
                    message: e.to_string(),
                });
            }
        }
        t
    }
}

impl DiskInner {
    /// Appends one page of sorted records to the page file and indexes it.
    fn append(&mut self, records: &[HistoryRecord]) -> io::Result<()> {
        let file = match self.file.take() {
            Some(file) => file,
            None => Arc::new(create_unlinked()?),
        };
        let file = &*self.file.insert(file);
        // Freed once written: the archive keeps no page's bytes in memory.
        let mut encoded = Vec::with_capacity(records.len() * RECORD_BYTES);
        for r in records {
            encoded.extend_from_slice(&r.encode());
        }
        let offset = self.pages.last().map_or(0, |p| p.offset + p.bytes());
        file.write_all_at(&encoded, offset)?;
        let mut oids = Vec::new();
        for r in records {
            if oids.last() != Some(&r.oid) {
                oids.push(r.oid);
            }
        }
        self.pages.push(DiskPage {
            min_ts_us: records.iter().map(|r| r.ts_us).min().unwrap_or(0),
            max_ts_us: records.iter().map(|r| r.ts_us).max().unwrap_or(0),
            offset,
            len: records.len(),
            oids: oids.into_boxed_slice(),
        });
        Ok(())
    }
}

impl SimDisk {
    /// Creates an empty disk; `index` names it in errors.
    pub(crate) fn new(index: usize, profile: DiskProfile) -> Self {
        SimDisk {
            index,
            profile,
            inner: Mutex::new(DiskInner::default()),
        }
    }

    /// Locks the disk for one page write. A flush takes this before it
    /// releases the buffer that handed the page over, so a query, which
    /// takes the buffer and then the disk, finds every record in one or
    /// the other.
    pub(crate) fn lock(&self) -> PageWriter<'_> {
        PageWriter {
            disk: self,
            inner: self.inner.lock(),
        }
    }

    /// Selects and charges every page matching `page_filter`, to be read
    /// with [`PageReads::read_into`]. Pages that fail the filter cost
    /// nothing — that is precisely the "IO resolution" R_d the placement
    /// scheme buys. Fails with the latched write error, if any.
    pub(crate) fn select(
        &self,
        page_filter: impl Fn(&DiskPage) -> bool,
    ) -> Result<PageReads, ArchiveError> {
        let mut inner = self.inner.lock();
        if let Some(e) = &inner.error {
            return Err(e.clone());
        }
        let mut reads = PageReads {
            disk: self.index,
            file: inner.file.clone(),
            pages: Vec::new(),
            secs: 0.0,
        };
        let mut bytes_read = 0u64;
        for page in inner.pages.iter().filter(|p| page_filter(p)) {
            bytes_read += page.bytes();
            reads.secs += self.profile.access_time(page.bytes());
            reads.pages.push((page.offset, page.len * RECORD_BYTES));
        }
        inner.stats.pages_read += reads.pages();
        inner.stats.bytes_read += bytes_read;
        inner.stats.read_busy_secs += reads.secs;
        Ok(reads)
    }

    /// The latched write failure, if any.
    pub(crate) fn error(&self) -> Option<ArchiveError> {
        self.inner.lock().error.clone()
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

    impl SimDisk {
        fn write_page(&self, records: Vec<HistoryRecord>) -> f64 {
            self.lock().write_page(records)
        }

        /// Reads every page matching `page_filter` and appends its records
        /// that pass `record_filter` to `out`; returns the pages read and
        /// their simulated read time in seconds.
        fn read_matching(
            &self,
            page_filter: impl Fn(&DiskPage) -> bool,
            record_filter: impl Fn(&HistoryRecord) -> bool,
            out: &mut Vec<HistoryRecord>,
        ) -> Result<(u64, f64), ArchiveError> {
            let reads = self.select(page_filter)?;
            let cost = (reads.pages(), reads.secs);
            reads.read_into(record_filter, out)?;
            Ok(cost)
        }
    }

    /// Every record the disk's file holds, page by page, as read back.
    fn read_back(disk: &SimDisk) -> Vec<Vec<HistoryRecord>> {
        let offsets: Vec<u64> = disk.inner.lock().pages.iter().map(|p| p.offset).collect();
        offsets
            .into_iter()
            .map(|offset| {
                let mut out = Vec::new();
                disk.read_matching(|p| p.offset == offset, |_| true, &mut out)
                    .unwrap();
                out
            })
            .collect()
    }

    #[test]
    fn write_time_follows_eq1() {
        let profile = DiskProfile {
            t_rot: 0.004,
            t_seek: 0.008,
            rate: 48_000.0, // 1000 records/s at 48 B
        };
        let disk = SimDisk::new(0, profile);
        let t = disk.write_page((0..100).map(|i| rec(i, i)).collect());
        // 100 * 48 = 4800 bytes / 48000 B/s = 0.1 s transfer + 0.012 access.
        assert!((t - 0.112).abs() < 1e-9, "t = {t}");
        assert_eq!(disk.inner.lock().pages.len(), 1);
        let s = disk.stats();
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.bytes_written, 4800);
    }

    /// A page keeps no slack: a record vector with room for twice its
    /// records (a buffer side after doubling) is stored at exactly its
    /// size, in the file and in the page index.
    #[test]
    fn pages_are_stored_at_their_exact_size() {
        let disk = SimDisk::new(0, DiskProfile::default());
        let mut records = Vec::with_capacity(200);
        records.extend((0..100).map(|i| rec(i % 10, i)));
        disk.write_page(records);
        let file_len = disk
            .inner
            .lock()
            .file
            .as_ref()
            .unwrap()
            .metadata()
            .unwrap()
            .len();
        assert_eq!(file_len, 100 * RECORD_BYTES as u64);
        assert_eq!(disk.inner.lock().pages[0].oids.len(), 10);
        let back = read_back(&disk);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].len(), 100);
    }

    proptest::proptest! {
        /// The page index answers `contains_object` exactly as a linear
        /// scan of the page read back from the file does, for objects
        /// present and absent.
        #[test]
        fn contains_object_agrees_with_a_linear_scan(
            recs in proptest::collection::vec((0u64..40, 0u64..1000), 1..64),
        ) {
            let disk = SimDisk::new(0, DiskProfile::default());
            disk.write_page(recs.iter().map(|&(oid, ts)| rec(oid, ts)).collect());
            let back = read_back(&disk);
            let inner = disk.inner.lock();
            let page = &inner.pages[0];
            for oid in 0..48 {
                let scanned = back[0].iter().any(|r| r.oid == oid);
                proptest::prop_assert_eq!(page.contains_object(oid), scanned, "oid {}", oid);
            }
        }
    }

    #[test]
    fn empty_page_writes_are_free() {
        let disk = SimDisk::new(0, DiskProfile::default());
        assert_eq!(disk.write_page(vec![]), 0.0);
        let inner = disk.inner.lock();
        assert!(inner.pages.is_empty());
        assert!(inner.file.is_none(), "no page, no file");
    }

    #[test]
    fn page_metadata_indexes_objects_and_time() {
        let disk = SimDisk::new(0, DiskProfile::default());
        disk.write_page(vec![rec(7, 30), rec(3, 10), rec(7, 20)]);
        let mut records = Vec::new();
        let (pages, _) = disk
            .read_matching(|p| p.contains_object(7), |r| r.oid == 7, &mut records)
            .unwrap();
        assert_eq!((pages, records.len()), (1, 2));
        // Records within a page are clustered by object then time.
        assert!(records[0].ts_us < records[1].ts_us);
        let mut none = Vec::new();
        let (pages, t) = disk
            .read_matching(|p| p.contains_object(99), |_| true, &mut none)
            .unwrap();
        assert!(none.is_empty());
        assert_eq!((pages, t), (0, 0.0), "skipped pages must cost nothing");
    }

    #[test]
    fn read_skips_pages_outside_time_range() {
        let disk = SimDisk::new(0, DiskProfile::default());
        disk.write_page(vec![rec(1, 10), rec(1, 20)]);
        disk.write_page(vec![rec(1, 100), rec(1, 200)]);
        let mut records = Vec::new();
        let (pages, t) = disk
            .read_matching(
                |p| p.max_ts_us >= 100 && p.min_ts_us <= 250,
                |r| (100..=250).contains(&r.ts_us),
                &mut records,
            )
            .unwrap();
        assert_eq!((pages, records.len()), (1, 2));
        let one_page_time = disk.profile.access_time(2 * RECORD_BYTES as u64);
        assert!((t - one_page_time).abs() < 1e-12);
        assert_eq!(disk.stats().pages_read, 1);
    }

    /// A page the file does not take is charged as any other, latched,
    /// and fails every later read instead of shortening it.
    #[test]
    fn a_failed_page_write_is_latched_and_fails_reads() {
        let disk = SimDisk::new(2, DiskProfile::default());
        disk.write_page(vec![rec(1, 10)]);
        // A read-only handle in place of the page file: the next write fails.
        let path = std::env::temp_dir().join(format!("moist-ppp-ro-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let read_only = File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        disk.inner.lock().file = Some(Arc::new(read_only));
        let t = disk.write_page(vec![rec(1, 20)]);
        assert!(t > 0.0);
        assert_eq!(disk.stats().pages_written, 2);
        let err = disk.error().expect("the failed write is latched");
        assert!(
            matches!(err, ArchiveError::PageWrite { disk: 2, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("disk 2"), "{err}");
        let mut out = Vec::new();
        assert_eq!(
            disk.read_matching(|_| true, |_| true, &mut out),
            Err(err.clone())
        );
        // Later pages are charged but not written.
        disk.write_page(vec![rec(1, 30)]);
        assert_eq!(disk.inner.lock().pages.len(), 1);
        assert_eq!(disk.error(), Some(err));
    }
}
