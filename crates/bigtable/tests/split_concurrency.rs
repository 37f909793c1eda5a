//! Writers and a scanner over a table that splits all the time: a split
//! moves half a tablet's rows under a new start key, and no reader or
//! writer that routed before it may act on the old routing after it.

use moist_bigtable::{
    Bigtable, ColumnFamily, Mutation, ReadOptions, RowKey, ScanRange, StoreConfig, TableSchema,
    Timestamp,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const WRITERS: u64 = 2;
const KEYS_PER_WRITER: u64 = 8000;

/// Writer `w`'s `i`-th key: the writers interleave, so both always write
/// into the tablets the other is splitting.
fn key(w: u64, i: u64) -> RowKey {
    RowKey::from_u64(i * WRITERS + w)
}

#[test]
fn acknowledged_rows_stay_findable_while_tablets_split() {
    let store = Bigtable::with_config(StoreConfig {
        max_rows_per_tablet: 16,
        ..StoreConfig::default()
    });
    let schema = TableSchema::new("t", vec![ColumnFamily::in_memory("f", 1)]).unwrap();
    let table = store.create_table(schema).unwrap();
    // acked[w] = n: writer w's first n keys are acknowledged.
    let acked = [AtomicU64::new(0), AtomicU64::new(0)];
    let start = Barrier::new(WRITERS as usize + 1);
    let scans = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (table, acked, start) = (&table, &acked, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..KEYS_PER_WRITER {
                    let put = Mutation::put("f", "q", Timestamp(i), i.to_be_bytes().to_vec());
                    if i % 3 == 0 {
                        let claimed = table.check_and_mutate(&key(w, i), "f", "q", None, &[put]);
                        assert_eq!(claimed, Ok(true));
                    } else {
                        table.mutate_row(&key(w, i), &[put]).unwrap();
                    }
                    acked[w as usize].store(i + 1, Ordering::SeqCst);
                    // What this writer acknowledged a moment ago is there.
                    let earlier = key(w, i / 2);
                    assert!(table.get_latest(&earlier, "f", "q").unwrap().is_some());
                }
            });
        }
        start.wait();
        let mut scans = 0u64;
        loop {
            let before = [
                acked[0].load(Ordering::SeqCst),
                acked[1].load(Ordering::SeqCst),
            ];
            let rows = table
                .scan(&ScanRange::all(), &ReadOptions::latest(), None)
                .unwrap();
            let keys: Vec<u64> = rows.iter().map(|r| r.key.as_u64().unwrap()).collect();
            assert!(
                keys.windows(2).all(|pair| pair[0] < pair[1]),
                "a scan returned a row twice or out of order"
            );
            for (w, &n) in before.iter().enumerate() {
                let found = keys.iter().filter(|k| *k % WRITERS == w as u64).count();
                // Writer w's keys arrive in increasing order, so the scan
                // holds at least the first n of them, without gaps.
                assert!(found as u64 >= n, "scan lost acknowledged rows");
                let prefix = keys
                    .iter()
                    .filter(|k| *k % WRITERS == w as u64)
                    .take(n as usize);
                assert!(prefix
                    .enumerate()
                    .all(|(i, k)| *k == i as u64 * WRITERS + w as u64));
            }
            scans += 1;
            if before == [KEYS_PER_WRITER; 2] {
                return scans;
            }
        }
    });
    assert!(scans >= 2);
    let total = (WRITERS * KEYS_PER_WRITER) as usize;
    assert!(table.tablet_count() >= total / 16, "the table never split");
    assert_eq!(table.row_count(), total);
    assert_eq!(table.approx_row_count(), total as u64);
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let cell = table.get_latest(&key(w, i), "f", "q").unwrap();
            assert_eq!(cell.unwrap().value.as_ref(), i.to_be_bytes());
        }
    }
}
