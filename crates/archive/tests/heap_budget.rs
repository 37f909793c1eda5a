//! The heap an archiver keeps.
//!
//! §3.5 keeps `m` recent records per object in memory and flushes aged
//! data onto disks. So once everything is flushed, what stays on the heap
//! is each object's ring of `m` records, the object map around it and each
//! disk's page index — not the archived records, which live in the disks'
//! page files.
//!
//! A counting global allocator, counting per thread, measures the live
//! bytes this test's thread allocates and has not freed. It lives alone in
//! this test binary, so that it counts nothing but this file's test.

use moist_archive::{HistoryRecord, PppArchiver, PppConfig, RECORD_BYTES};
use moist_spatial::{Point, Space, Velocity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Bytes this thread allocated, less those it freed, while counting.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(delta: i64) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = LIVE.try_with(|n| n.set(n.get() + delta));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals, which touch no allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OBJECTS: u64 = 2_000;
const RECORDS: u64 = 200_000;
/// Allowance per object for its slot in the object map (key, ring header,
/// disk and counts, at the map's load factor).
const MAP_BYTES_PER_OBJECT: usize = 160;
/// Allowance per archived record for the page index: each page keeps one
/// 8-byte id per distinct object, about 0.5 B per record at the default
/// geometry; the allowance is four times that.
const INDEX_BYTES_PER_RECORD: usize = 2;
/// Everything of fixed size: disks, buffers, stripes.
const FIXED_BYTES: usize = 64 << 10;

#[test]
fn a_flushed_archiver_keeps_its_rings_and_page_index_not_its_records() {
    let config = PppConfig::default();
    let m = config.column_records;
    COUNTING.with(|on| on.set(true));
    let archiver = PppArchiver::new(Space::paper_map(), config);
    for i in 0..RECORDS {
        let oid = i % OBJECTS;
        // Objects spread over the map, so every disk archives some.
        let (x, y) = ((oid * 37 % 1000) as f64, (oid * 91 % 1000) as f64);
        let rec = HistoryRecord::new(oid, i, Point::new(x, y), Velocity::ZERO);
        archiver.ingest(rec, i * 1_000);
    }
    archiver.flush_all().unwrap();
    let live = LIVE.with(Cell::get);
    COUNTING.with(|on| on.set(false));

    let rings = OBJECTS as usize * m * RECORD_BYTES;
    let budget = rings
        + OBJECTS as usize * MAP_BYTES_PER_OBJECT
        + RECORDS as usize * INDEX_BYTES_PER_RECORD
        + FIXED_BYTES;
    println!(
        "live heap {live} B for {RECORDS} archived records: rings {rings} B, budget {budget} B, \
         {:.2} B per record beyond the rings",
        (live - rings as i64) as f64 / RECORDS as f64
    );
    assert!(
        live <= budget as i64,
        "live heap {live} B exceeds the ring + page-index budget of {budget} B"
    );
    // Every record is still there, on disk.
    let on_disk: u64 = archiver
        .disk_stats()
        .iter()
        .map(|s| s.bytes_written / RECORD_BYTES as u64)
        .sum();
    assert_eq!(on_disk, RECORDS);
    let (history, _) = archiver.query_object(7, 0, u64::MAX).unwrap();
    assert_eq!(history.len() as u64, RECORDS / OBJECTS);
}
