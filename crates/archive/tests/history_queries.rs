//! History queries answer from the page files, the aged buffers and the
//! objects' rings together: over generated streams and random time
//! windows, `query_object` and `query_region` return exactly what a
//! brute-force filter of every ingested record returns, both before
//! `flush_all` (records spread over all three places) and after it (all
//! on disk).

use moist_archive::{DiskProfile, HistoryRecord, PppArchiver, PppConfig, RECORD_BYTES};
use moist_spatial::{Point, Rect, Space, Velocity};
use proptest::prelude::*;

/// (oid, ts) of each record, sorted by the caller's order of choice.
fn keys(records: &[HistoryRecord]) -> Vec<(u64, u64)> {
    records.iter().map(|r| (r.oid, r.ts_us)).collect()
}

fn check(
    archiver: &PppArchiver,
    all: &[HistoryRecord],
    objects: u64,
    (from, to): (u64, u64),
    rect: &Rect,
) -> Result<(), TestCaseError> {
    let in_window = |r: &&HistoryRecord| (from..=to).contains(&r.ts_us);
    for oid in 0..objects {
        let (got, cost) = archiver.query_object(oid, from, to).unwrap();
        let expected: Vec<&HistoryRecord> = all
            .iter()
            .filter(|r| r.oid == oid)
            .filter(in_window)
            .collect();
        prop_assert_eq!(got.len(), expected.len(), "object {}", oid);
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g, *e, "object {}", oid);
        }
        prop_assert!(cost.disks_touched <= 1);
    }
    // The full-map drift margin selects every disk an object can be on.
    let (got, _) = archiver.query_region(rect, from, to, 1500.0).unwrap();
    let mut expected: Vec<HistoryRecord> = all
        .iter()
        .filter(in_window)
        .filter(|r| rect.contains(&r.loc))
        .copied()
        .collect();
    expected.sort_by_key(|r| (r.oid, r.ts_us));
    prop_assert_eq!(keys(&got), keys(&expected));
    prop_assert_eq!(got, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queries_match_a_brute_force_filter_before_and_after_flush_all(
        steps in prop::collection::vec(
            (0u64..8, 0.0f64..1000.0, 0.0f64..1000.0, 1u64..1000),
            1..200,
        ),
        num_disks in 1u32..5,
        column_records in 1usize..6,
        buffer_records in 1usize..12,
        window in (0u64..200_000, 0u64..200_000),
        corner in (0.0f64..900.0, 0.0f64..900.0),
        side in 50.0f64..1000.0,
    ) {
        let archiver = PppArchiver::new(
            Space::paper_map(),
            PppConfig {
                num_disks,
                total_buffer_bytes: buffer_records * RECORD_BYTES * num_disks as usize,
                column_records,
                placement_level: 3,
                disk: DiskProfile::default(),
            },
        );
        let mut all = Vec::new();
        let mut now = 0u64;
        for (oid, x, y, dt) in steps {
            now += dt;
            let rec = HistoryRecord::new(oid, now, Point::new(x, y), Velocity::new(x, -y));
            archiver.ingest(rec, now);
            all.push(rec);
        }
        let window = (window.0.min(window.1), window.0.max(window.1));
        let rect = Rect::new(corner.0, corner.1, corner.0 + side, corner.1 + side);
        check(&archiver, &all, 8, window, &rect)?;
        archiver.flush_all().unwrap();
        check(&archiver, &all, 8, window, &rect)?;
        // And over the whole of time.
        check(&archiver, &all, 8, (0, u64::MAX), &rect)?;
    }
}

/// A writer ages columns and flushes pages while queries run: each query
/// finds every record ingested before it started, and finds it once.
#[test]
fn queries_beside_a_writer_find_every_earlier_record_once() {
    use std::sync::atomic::{AtomicU64, Ordering};
    const RECORDS: u64 = 30_000;
    const OBJECTS: u64 = 40;
    let archiver = PppArchiver::new(
        Space::paper_map(),
        PppConfig {
            num_disks: 2,
            total_buffer_bytes: 2 * 7 * RECORD_BYTES,
            column_records: 3,
            placement_level: 3,
            disk: DiskProfile::default(),
        },
    );
    // Records `0..ingested` are in the archiver; record `i` has ts `i`.
    let ingested = AtomicU64::new(0);
    let world = Space::paper_map().world;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..RECORDS {
                let oid = i % OBJECTS;
                let loc = Point::new((oid * 23) as f64, (oid * 17) as f64);
                archiver.ingest(HistoryRecord::new(oid, i, loc, Velocity::ZERO), i);
                ingested.store(i + 1, Ordering::Release);
            }
        });
        let mut queries = 0;
        while ingested.load(Ordering::Acquire) < RECORDS || queries == 0 {
            let before = ingested.load(Ordering::Acquire);
            let (got, _) = archiver.query_region(&world, 0, u64::MAX, 1500.0).unwrap();
            let mut ts: Vec<u64> = got.iter().map(|r| r.ts_us).collect();
            ts.sort_unstable();
            let n = ts.len();
            ts.dedup();
            assert_eq!(ts.len(), n, "a record was returned twice");
            assert!(
                ts.iter().take_while(|&&t| t < before).count() as u64 == before,
                "a record ingested before the query is missing"
            );
            let oid = queries % OBJECTS;
            let before = ingested.load(Ordering::Acquire);
            let (got, _) = archiver.query_object(oid, 0, u64::MAX).unwrap();
            let expected = (0..before).filter(|t| t % OBJECTS == oid).count();
            assert!(got.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
            assert!(got.iter().take_while(|r| r.ts_us < before).count() == expected);
            queries += 1;
        }
    });
}
