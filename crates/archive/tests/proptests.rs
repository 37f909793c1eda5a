//! Property-based tests of the PPP archiving pipeline: no record loss, no
//! duplication, object/time/region query correctness against an oracle,
//! and placement/ping-pong invariants.

use moist_archive::{DiskProfile, HistoryRecord, PppArchiver, PppConfig, RECORD_BYTES};
use moist_spatial::{Point, Rect, Space, Velocity};
use proptest::prelude::*;
use std::collections::HashMap;

fn config(num_disks: u32, column_records: usize, buffer_records: usize) -> PppConfig {
    PppConfig {
        num_disks,
        total_buffer_bytes: buffer_records.max(1) * RECORD_BYTES * num_disks.max(1) as usize,
        column_records,
        placement_level: 3,
        disk: DiskProfile::default(),
    }
}

#[derive(Debug, Clone)]
struct Ingest {
    oid: u64,
    x: f64,
    y: f64,
    dt_us: u64,
}

fn ingest_strategy(objects: u64) -> impl Strategy<Value = Ingest> {
    (0..objects, 0.0f64..1000.0, 0.0f64..1000.0, 1u64..2_000_000)
        .prop_map(|(oid, x, y, dt_us)| Ingest { oid, x, y, dt_us })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every ingested record is returned by its object query exactly once,
    /// in time order, regardless of buffer/column/disk geometry.
    #[test]
    fn no_loss_no_duplication(
        ingests in prop::collection::vec(ingest_strategy(6), 1..120),
        num_disks in 1u32..6,
        column_records in 1usize..8,
        buffer_records in 1usize..16,
    ) {
        let archiver = PppArchiver::new(
            Space::paper_map(),
            config(num_disks, column_records, buffer_records),
        );
        let mut oracle: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut now = 0u64;
        for (i, ing) in ingests.iter().enumerate() {
            now += ing.dt_us;
            // Unique timestamps per object: now + index disambiguates.
            let ts = now + i as u64;
            archiver.ingest(
                HistoryRecord::new(ing.oid, ts, Point::new(ing.x, ing.y), Velocity::ZERO),
                ts,
            );
            oracle.entry(ing.oid).or_default().push(ts);
        }
        archiver.flush_all().unwrap();
        for (oid, mut expected) in oracle {
            expected.sort_unstable();
            let (got, cost) = archiver.query_object(oid, 0, u64::MAX).unwrap();
            let got_ts: Vec<u64> = got.iter().map(|r| r.ts_us).collect();
            prop_assert_eq!(&got_ts, &expected, "object {} history mismatch", oid);
            prop_assert!(cost.disks_touched <= 1);
        }
    }

    /// Time-windowed object queries return exactly the in-window records.
    #[test]
    fn time_window_filtering_is_exact(
        count in 1usize..60,
        lo in 0u64..50,
        span in 1u64..50,
    ) {
        let archiver = PppArchiver::new(Space::paper_map(), config(3, 4, 8));
        for t in 0..count as u64 {
            archiver.ingest(
                HistoryRecord::new(1, t, Point::new(500.0, 500.0), Velocity::ZERO),
                t,
            );
        }
        archiver.flush_all().unwrap();
        let hi = lo + span;
        let (got, _) = archiver.query_object(1, lo, hi).unwrap();
        let expected: Vec<u64> = (0..count as u64).filter(|t| (lo..=hi).contains(t)).collect();
        let got_ts: Vec<u64> = got.iter().map(|r| r.ts_us).collect();
        prop_assert_eq!(got_ts, expected);
    }

    /// Region queries return exactly the records whose position is inside
    /// the rect (within the time window), no matter how placement spread
    /// them across disks.
    #[test]
    fn region_queries_match_oracle(
        ingests in prop::collection::vec(ingest_strategy(10), 1..80),
        rx in 0.0f64..800.0,
        ry in 0.0f64..800.0,
        side in 10.0f64..300.0,
    ) {
        let archiver = PppArchiver::new(Space::paper_map(), config(4, 2, 4));
        let mut all = Vec::new();
        let mut now = 0u64;
        for (i, ing) in ingests.iter().enumerate() {
            now += ing.dt_us;
            let ts = now + i as u64;
            let rec = HistoryRecord::new(ing.oid, ts, Point::new(ing.x, ing.y), Velocity::ZERO);
            archiver.ingest(rec, ts);
            all.push(rec);
        }
        archiver.flush_all().unwrap();
        let rect = Rect::new(rx, ry, rx + side, ry + side);
        // Teleporting objects need the full-drift margin for exactness.
        let (got, _) = archiver.query_region(&rect, 0, u64::MAX, 1500.0).unwrap();
        let mut expected: Vec<(u64, u64)> = all
            .iter()
            .filter(|r| rect.contains(&r.loc))
            .map(|r| (r.oid, r.ts_us))
            .collect();
        expected.sort_unstable();
        let got_keys: Vec<(u64, u64)> = got.iter().map(|r| (r.oid, r.ts_us)).collect();
        prop_assert_eq!(got_keys, expected);
    }

    /// Placement is a pure function of the initial location and respects
    /// the disk count.
    #[test]
    fn placement_is_stable_and_bounded(
        x in 0.0f64..1000.0,
        y in 0.0f64..1000.0,
        num_disks in 1u32..9,
    ) {
        let archiver = PppArchiver::new(Space::paper_map(), config(num_disks, 4, 8));
        let p = Point::new(x, y);
        let d1 = archiver.disk_for_initial_location(&p);
        let d2 = archiver.disk_for_initial_location(&p);
        prop_assert_eq!(d1, d2);
        prop_assert!(d1 < num_disks as usize);
    }

    /// Conservation: pages on disk + buffered + pending = ingested, and
    /// after flush_all the buffers are empty.
    #[test]
    fn record_conservation(
        ingests in prop::collection::vec(ingest_strategy(5), 1..100),
    ) {
        let archiver = PppArchiver::new(Space::paper_map(), config(3, 3, 6));
        let mut now = 0u64;
        for (i, ing) in ingests.iter().enumerate() {
            now += ing.dt_us;
            archiver.ingest(
                HistoryRecord::new(ing.oid, now + i as u64, Point::new(ing.x, ing.y), Velocity::ZERO),
                now + i as u64,
            );
        }
        archiver.flush_all().unwrap();
        let on_disk: u64 = archiver
            .disk_stats()
            .iter()
            .map(|s| s.bytes_written / RECORD_BYTES as u64)
            .sum();
        prop_assert_eq!(on_disk, ingests.len() as u64, "records lost or duplicated");
    }
}
