//! Property tests for the store's in-memory representation: the inline
//! `RowKey` against plain byte slices, and the flat rows against a model
//! built from nested `BTreeMap`s — what they replaced — through reads,
//! aging, snapshots and WAL replay.

use moist_bigtable::{
    Bigtable, ColumnFamily, Durability, Mutation, OwnedRow, ReadOptions, RowKey, ScanRange,
    StoreConfig, Table, TableSchema, Timestamp,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes drawn mostly from the values where ordering goes wrong (padding
/// zeros, the successor's 0xFF), so random keys share prefixes and ties.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![3 => Just(0u8), 3 => Just(0xFFu8), 2 => 0u8..3, 2 => any::<u8>()]
}

/// Lengths up to 40, half of them at the inline/heap boundary (22 | 23).
fn key_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(byte(), 0..=40),
        prop::collection::vec(byte(), 20..=24),
    ]
}

/// The successor as the `Vec<u8>`-backed key computed it.
fn reference_successor(key: &[u8]) -> Option<Vec<u8>> {
    let mut v = key.to_vec();
    while let Some(last) = v.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(v);
        }
        v.pop();
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn row_key_compares_hashes_and_reads_as_its_slice(
        a in key_bytes(),
        b in key_bytes(),
        shared in 0usize..=40,
    ) {
        // `b` itself, then `b` grafted onto a prefix of `a`: a prefix pair
        // whenever `b` drew empty, and a long common prefix otherwise.
        let grafted: Vec<u8> = a.iter().take(shared).chain(b.iter()).copied().take(40).collect();
        let hasher = RandomState::new();
        for b in [b, grafted, a.clone()] {
            let (ka, kb) = (RowKey::from_bytes(&a), RowKey::from_bytes(&b));
            prop_assert_eq!(ka.as_slice(), &a[..]);
            prop_assert_eq!((ka.len(), ka.is_empty()), (a.len(), a.is_empty()));
            prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
            prop_assert_eq!(kb.partial_cmp(&ka), Some(b.cmp(&a)));
            prop_assert_eq!(ka == kb, a == b);
            prop_assert_eq!(hasher.hash_one(&ka), hasher.hash_one(&a[..]));
            prop_assert_eq!(ka.clone().cmp(&ka), std::cmp::Ordering::Equal);
            prop_assert!(RowKey::MIN <= ka);
        }
    }

    #[test]
    fn prefix_successor_bounds_exactly_the_keys_with_the_prefix(
        prefix in key_bytes(),
        tail in key_bytes(),
    ) {
        let key = RowKey::from_bytes(&prefix);
        let successor = key.prefix_successor();
        prop_assert_eq!(
            successor.as_ref().map(RowKey::as_slice),
            reference_successor(&prefix).as_deref()
        );
        let extended = RowKey::from_bytes([&prefix[..], &tail[..]].concat());
        match successor {
            Some(s) => prop_assert!(key < s && extended < s),
            None => prop_assert!(prefix.iter().all(|&b| b == 0xFF)),
        }
    }

    #[test]
    fn u64_and_composite_keys_round_trip(p in any::<u64>(), s in any::<u64>(), raw in key_bytes()) {
        prop_assert_eq!(RowKey::from_u64(p).as_u64(), Some(p));
        prop_assert_eq!(RowKey::from(p).as_slice(), &p.to_be_bytes()[..]);
        prop_assert_eq!(RowKey::composite(p, s).split_composite(), Some((p, s)));
        prop_assert_eq!(RowKey::from_u64(p).cmp(&RowKey::from_u64(s)), p.cmp(&s));
        prop_assert_eq!(
            RowKey::composite(p, s).cmp(&RowKey::composite(s, p)),
            (p, s).cmp(&(s, p))
        );
        let key = RowKey::from_bytes(&raw);
        prop_assert_eq!(key.as_u64().is_some(), raw.len() == 8);
        prop_assert_eq!(key.split_composite().is_some(), raw.len() == 16);
    }
}

// ---- rows against the nested-map model --------------------------------------

const FAMILIES: [(&str, usize); 3] = [("mem", 3), ("disk", usize::MAX), ("aux", 1)];
/// Byte order differs from "natural" order on every neighbouring pair.
const QUALIFIERS: [&str; 7] = ["", "10", "9", "B", "a", "a0", "é"];

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnFamily::in_memory(FAMILIES[0].0, FAMILIES[0].1),
            ColumnFamily::on_disk(FAMILIES[1].0, FAMILIES[1].1),
            ColumnFamily::in_memory(FAMILIES[2].0, FAMILIES[2].1),
        ],
    )
    .unwrap()
}

/// 8-, 16-, 24- (the `BxTree` baseline's) and 40-byte keys, few enough of
/// each that operations meet.
fn table_key() -> impl Strategy<Value = RowKey> {
    (0usize..4, 0u8..6).prop_map(|(shape, id)| {
        let mut bytes = vec![id; [8, 16, 24, 40][shape]];
        bytes[0] = 7; // the shapes interleave in key order
        RowKey::from_bytes(bytes)
    })
}

#[derive(Debug, Clone)]
enum Op {
    Put(RowKey, usize, usize, u64, u8),
    DeleteColumn(RowKey, usize, usize),
    DeleteFamily(RowKey, usize),
    DeleteRow(RowKey),
    Age(u64),
}

fn op() -> impl Strategy<Value = Op> {
    let column = || (table_key(), 0usize..3, 0usize..QUALIFIERS.len());
    prop_oneof![
        12 => (column(), 0u64..24, any::<u8>())
            .prop_map(|((key, f, q), ts, val)| Op::Put(key, f, q, ts, val)),
        2 => column().prop_map(|(key, f, q)| Op::DeleteColumn(key, f, q)),
        1 => (table_key(), 0usize..3).prop_map(|(key, f)| Op::DeleteFamily(key, f)),
        1 => table_key().prop_map(Op::DeleteRow),
        1 => (0u64..24).prop_map(Op::Age),
    ]
}

/// key → (family index, qualifier) → timestamp → value.
type Model = BTreeMap<Vec<u8>, BTreeMap<(usize, String), BTreeMap<u64, u8>>>;

fn model_put(
    row: &mut BTreeMap<(usize, String), BTreeMap<u64, u8>>,
    f: usize,
    q: &str,
    ts: u64,
    val: u8,
) {
    let versions = row.entry((f, q.to_string())).or_default();
    versions.insert(ts, val);
    while versions.len() > FAMILIES[f].1 {
        versions.pop_first();
    }
}

fn apply(table: &Table, model: &mut Model, op: &Op) {
    let name = |f: usize| FAMILIES[f].0;
    match op {
        Op::Put(key, f, q, ts, val) => {
            let put = Mutation::put(name(*f), QUALIFIERS[*q], Timestamp(*ts), vec![*val]);
            table.mutate_row(key, &[put]).unwrap();
            let row = model.entry(key.as_slice().to_vec()).or_default();
            model_put(row, *f, QUALIFIERS[*q], *ts, *val);
        }
        Op::DeleteColumn(key, f, q) => {
            let delete = Mutation::delete_column(name(*f), QUALIFIERS[*q]);
            table.mutate_row(key, &[delete]).unwrap();
            if let Some(row) = model.get_mut(key.as_slice()) {
                row.remove(&(*f, QUALIFIERS[*q].to_string()));
            }
        }
        Op::DeleteFamily(key, f) => {
            let family = name(*f).to_string();
            table
                .mutate_row(
                    key,
                    &[Mutation::DeleteFamily {
                        family: family.into(),
                    }],
                )
                .unwrap();
            if let Some(row) = model.get_mut(key.as_slice()) {
                row.retain(|(family, _), _| family != f);
            }
        }
        Op::DeleteRow(key) => {
            table.mutate_row(key, &[Mutation::DeleteRow]).unwrap();
            model.remove(key.as_slice());
        }
        Op::Age(cutoff) => {
            table
                .age_transfer("mem", "disk", Timestamp(*cutoff))
                .unwrap();
            for row in model.values_mut() {
                let mem: Vec<String> = row
                    .keys()
                    .filter(|(f, _)| *f == 0)
                    .map(|(_, q)| q.clone())
                    .collect();
                for q in mem {
                    let versions = row.get_mut(&(0, q.clone())).unwrap();
                    let kept = versions.split_off(&(cutoff + 1));
                    let aged = std::mem::replace(versions, kept);
                    for (ts, val) in aged {
                        model_put(row, 1, &q, ts, val);
                    }
                }
            }
        }
    }
    for row in model.values_mut() {
        row.retain(|_, versions| !versions.is_empty());
    }
    model.retain(|_, row| !row.is_empty());
}

/// A row as read back: key, then `(family, qualifier, [(ts, value)])`.
type Row = (Vec<u8>, Vec<(String, String, Vec<(u64, u8)>)>);

/// What a full scan of every version must return for `model`: rows in
/// byte order of their keys, columns in family-then-qualifier order — the
/// nested maps' own iteration order — versions newest first.
fn expected(model: &Model) -> Vec<Row> {
    model
        .iter()
        .map(|(key, row)| {
            let columns = row
                .iter()
                .map(|((f, q), versions)| {
                    let cells = versions.iter().rev().map(|(ts, val)| (*ts, *val)).collect();
                    (FAMILIES[*f].0.to_string(), q.clone(), cells)
                })
                .collect();
            (key.clone(), columns)
        })
        .collect()
}

fn observed(rows: &[OwnedRow]) -> Vec<Row> {
    rows.iter()
        .map(|row| {
            let columns = row
                .entries
                .iter()
                .map(|e| {
                    let cells = e.cells.iter().map(|c| (c.ts.0, c.value[0])).collect();
                    (e.family.clone(), e.qualifier.clone(), cells)
                })
                .collect();
            (row.key.as_slice().to_vec(), columns)
        })
        .collect()
}

fn every_version() -> ReadOptions {
    ReadOptions {
        families: None,
        latest_only: false,
    }
}

fn full_scan(table: &Table) -> Vec<OwnedRow> {
    table
        .scan(&ScanRange::all(), &every_version(), None)
        .unwrap()
}

fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "moist_layout_props_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reads, scans and aging see rows and columns in the model's order,
    /// with the model's versions, across tablet splits.
    #[test]
    fn flat_rows_read_like_the_nested_maps(ops in prop::collection::vec(op(), 1..160)) {
        let store = Bigtable::with_config(StoreConfig {
            max_rows_per_tablet: 16,
            ..StoreConfig::default()
        });
        let table = store.create_table(schema()).unwrap();
        let mut model = Model::new();
        for op in &ops {
            apply(&table, &mut model, op);
        }
        let want = expected(&model);
        prop_assert_eq!(&observed(&full_scan(&table)), &want);
        prop_assert_eq!(table.row_count(), want.len());
        prop_assert_eq!(table.approx_row_count(), want.len() as u64);
        let cells: usize = want.iter().flat_map(|(_, cols)| cols).map(|c| c.2.len()).sum();
        prop_assert_eq!(table.cell_count(), cells);
        // Point reads, batch reads and `get_latest` agree with the scan.
        let keys: Vec<RowKey> = want.iter().map(|(k, _)| RowKey::from_bytes(k)).collect();
        let batch = table.batch_get(&keys, &every_version()).unwrap();
        for ((key, (_, columns)), got) in keys.iter().zip(&want).zip(batch) {
            let row = table.get_row(key, &every_version()).unwrap().unwrap();
            prop_assert_eq!(Some(&row), got.as_ref());
            prop_assert_eq!(&observed(&[row])[0].1, columns);
            for (family, qualifier, versions) in columns {
                let latest = table.get_latest(key, family, qualifier).unwrap().unwrap();
                prop_assert_eq!((latest.ts.0, latest.value[0]), versions[0]);
            }
        }
    }

    /// A snapshot taken midway plus the log tail rebuild the same rows, in
    /// the same order, with every version.
    #[test]
    fn mixed_width_keys_survive_snapshot_and_replay(
        ops in prop::collection::vec(op(), 1..120),
        cut in 0usize..120,
    ) {
        let dir = fresh_dir();
        let config = StoreConfig {
            max_rows_per_tablet: 16,
            durability: Durability::Wal { dir: dir.clone(), fsync_every: 0 },
        };
        let mut model = Model::new();
        {
            let store = Bigtable::with_config(config.clone());
            let table = store.create_table(schema()).unwrap();
            for (i, op) in ops.iter().enumerate() {
                if i == cut {
                    table.compact().unwrap();
                }
                apply(&table, &mut model, op);
            }
        }
        let (store, _) = Bigtable::recover(config).unwrap();
        let table = store.open_table("t").unwrap();
        prop_assert_eq!(observed(&full_scan(&table)), expected(&model));
        prop_assert_eq!(table.approx_row_count(), model.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
