//! Tablets: contiguous key-range shards of a table.
//!
//! Real BigTable splits a table into tablets by key range and serves them
//! from different tablet servers; contention and parallelism happen at
//! tablet granularity. We reproduce that: each tablet is an independently
//! locked sorted map, a tablet splits when a write grows it past a
//! threshold, and range scans stream tablet by tablet in key order.
//!
//! # Row layout
//!
//! A tablet is a `BTreeMap<RowKey, RowStorage>`. Keys of up to 22 bytes
//! sit inside the map's nodes (see [`RowKey`]), so a search touches no
//! memory but the nodes. A row is **one** vector of [`Column`]s sorted by
//! `(family index, qualifier)`; a column is its qualifier and its versions,
//! newest first, never empty; a row with no column is removed from the map.
//! Family-then-qualifier order is what reads, snapshots and aging iterate
//! in, and is the order the per-family `BTreeMap<String, _>` of earlier
//! versions gave.
//!
//! # Locks
//!
//! [`TabletSet`] keeps the tablets in a vector behind a list lock; each
//! tablet's rows sit behind their own lock. Every access goes through the
//! methods here, which take the list lock shared, find the tablet, and lock
//! its rows while still holding the list: a routed tablet therefore cannot
//! be split under the caller. The order is always **list, then one
//! tablet's rows** (the table's WAL lock, when there is one, comes before
//! both); no method holds the rows of two tablets at once, batches and
//! whole-table walks included — they visit tablets one after another. A
//! write notes, from `rows.len()` under the write lock it already holds,
//! whether its tablet outgrew the threshold; only then, after releasing
//! both locks, does it take the list lock exclusively and split that one
//! tablet. A write thus waits for no lock but the list's (exclusive only
//! during a split) and its own tablet's.
//!
//! The list is read on every operation and written only by a split, so it
//! is a `parking_lot::ReadMostly`: one copy of the list (of `Arc`s to the
//! tablets) per reader stripe, each thread reading its own, so that two
//! writers' list reads touch no common cache line. A split locks every
//! stripe and publishes the new list to all of them. Small tablets
//! (`StoreConfig::max_rows_per_tablet`, 4,096 rows by default) keep two
//! writers off each other's row locks too: a table of 80,000 rows is 20
//! to 40 tablets.
//!
//! Both are the vendored `parking_lot` locks, whose blocked acquisitions
//! spin before they park: 1000 `try_*` rounds of 50–130 ns each, a bound
//! set by the longest hold worth waiting out — a p99 `MoistCluster::update`
//! under its routing key's writer lock, 11–12 µs with two writers; a row
//! operation holds a tablet for under 1 µs (`SPIN_ROUNDS` in the shim has
//! the measurements).
//! The closures these methods take run under those locks: they must not
//! call back into the table.

use crate::types::{Cell, InlineBytes, RowKey, Timestamp};
use bytes::Bytes;
use parking_lot::{ReadMostly, RwLock};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

/// One column of a row.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    /// Index of the column's family in the table schema.
    pub family: usize,
    /// The qualifier's UTF-8 bytes.
    pub qualifier: InlineBytes,
    /// Newest first; never empty.
    pub versions: Vec<Cell>,
}

/// One mutation of a row, its family name already resolved against the
/// table's schema — so applying it cannot fail and needs no schema.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowOp<'a> {
    Put {
        family: usize,
        /// The family's per-column version limit.
        max_versions: usize,
        qualifier: &'a str,
        ts: Timestamp,
        value: &'a Bytes,
    },
    DeleteColumn {
        family: usize,
        qualifier: &'a str,
    },
    DeleteFamily {
        family: usize,
    },
    DeleteRow,
}

/// Per-row storage: the row's columns, sorted by `(family, qualifier)`.
#[derive(Debug, Default, Clone)]
pub(crate) struct RowStorage {
    columns: Vec<Column>,
}

impl RowStorage {
    /// Position of `family:qualifier`, or where it would be inserted.
    fn find(&self, family: usize, qualifier: &InlineBytes) -> Result<usize, usize> {
        self.columns
            .binary_search_by(|c| (c.family, &c.qualifier).cmp(&(family, qualifier)))
    }

    fn family_range(&self, family: usize) -> Range<usize> {
        let start = self.columns.partition_point(|c| c.family < family);
        let len = self.columns[start..].partition_point(|c| c.family == family);
        start..start + len
    }

    /// The columns of one family, in qualifier order.
    pub(crate) fn family(&self, family: usize) -> &[Column] {
        &self.columns[self.family_range(family)]
    }

    /// All columns, in family-then-qualifier order.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Newest version of `family:qualifier`.
    pub(crate) fn latest(&self, family: usize, qualifier: &str) -> Option<&Cell> {
        let at = self
            .find(family, &InlineBytes::new(qualifier.as_bytes()))
            .ok()?;
        self.columns[at].versions.first()
    }

    /// Inserts a cell version, keeping newest-first order and at most
    /// `max_versions` versions (BigTable's per-family GC policy; a limit of
    /// zero keeps one, the floor `ColumnFamily`'s constructors apply).
    pub(crate) fn put(
        &mut self,
        family: usize,
        qualifier: &str,
        ts: Timestamp,
        value: Bytes,
        max_versions: usize,
    ) {
        let qualifier = InlineBytes::new(qualifier.as_bytes());
        self.put_cell(family, qualifier, Cell { ts, value }, max_versions);
    }

    fn put_cell(&mut self, family: usize, qualifier: InlineBytes, cell: Cell, max_versions: usize) {
        let at = match self.find(family, &qualifier) {
            Ok(at) => at,
            Err(at) => {
                if self.columns.is_empty() {
                    // Most rows hold one column for life: room for one, not
                    // the four a first `insert` would reserve.
                    self.columns.reserve_exact(1);
                }
                let versions = vec![cell];
                let column = Column {
                    family,
                    qualifier,
                    versions,
                };
                return self.columns.insert(at, column);
            }
        };
        let keep = max_versions.max(1);
        let versions = &mut self.columns[at].versions;
        let pos = versions.partition_point(|c| c.ts > cell.ts);
        if versions.get(pos).is_some_and(|c| c.ts == cell.ts) {
            versions[pos] = cell; // same-timestamp write replaces
        } else if pos < keep {
            // Make room first, so a full single-version column is
            // overwritten in place instead of grown and cut back.
            if versions.len() == keep {
                versions.pop();
            }
            versions.insert(pos, cell);
        }
        // Otherwise `keep` newer versions exist: GC would drop this one.
    }

    /// Applies one resolved mutation.
    pub(crate) fn apply(&mut self, op: &RowOp<'_>) {
        match *op {
            RowOp::Put {
                family,
                max_versions,
                qualifier,
                ts,
                value,
            } => self.put(family, qualifier, ts, value.clone(), max_versions),
            RowOp::DeleteColumn { family, qualifier } => {
                if let Ok(at) = self.find(family, &InlineBytes::new(qualifier.as_bytes())) {
                    self.columns.remove(at);
                }
            }
            RowOp::DeleteFamily { family } => {
                self.columns.drain(self.family_range(family));
            }
            RowOp::DeleteRow => self.columns.clear(),
        }
    }

    /// Moves the versions of family `mem` older than `cutoff` (inclusive)
    /// to the same qualifiers of family `disk`. Returns the cells moved.
    pub(crate) fn age(
        &mut self,
        mem: usize,
        disk: usize,
        disk_max: usize,
        cutoff: Timestamp,
    ) -> usize {
        let mut staged: Vec<(InlineBytes, Cell)> = Vec::new();
        let range = self.family_range(mem);
        for col in &mut self.columns[range] {
            let split = col.versions.partition_point(|c| c.ts > cutoff);
            let qualifier = &col.qualifier;
            staged.extend(
                col.versions
                    .drain(split..)
                    .map(|cell| (qualifier.clone(), cell)),
            );
        }
        self.columns.retain(|c| !c.versions.is_empty());
        let moved = staged.len();
        for (qualifier, cell) in staged {
            self.put_cell(disk, qualifier, cell, disk_max);
        }
        moved
    }

    /// Whether the row stores no cells at all (eligible for removal).
    pub(crate) fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total stored cells across families (for metrics/size heuristics).
    pub(crate) fn cell_count(&self) -> usize {
        self.columns.iter().map(|c| c.versions.len()).sum()
    }
}

/// The rows of one tablet.
pub(crate) type Rows = BTreeMap<RowKey, RowStorage>;

/// Applies a row's mutations through the entry one descent of the tree
/// found (`rows.entry(key.clone())`), removing a row they empty and never
/// inserting an empty one; returns the net change in row count (+1 created,
/// −1 removed, 0 otherwise).
pub(crate) fn apply_to_row(entry: Entry<'_, RowKey, RowStorage>, ops: &[RowOp<'_>]) -> i64 {
    match entry {
        Entry::Occupied(mut entry) => {
            let row = entry.get_mut();
            ops.iter().for_each(|op| row.apply(op));
            if row.is_empty() {
                entry.remove();
                -1
            } else {
                0
            }
        }
        Entry::Vacant(entry) => {
            let mut row = RowStorage::default();
            ops.iter().for_each(|op| row.apply(op));
            if row.is_empty() {
                0
            } else {
                entry.insert(row);
                1
            }
        }
    }
}

/// One tablet: an independently locked contiguous shard.
struct Tablet {
    /// First key the tablet covers; it ends where the next one starts.
    start: RowKey,
    rows: RwLock<Rows>,
}

/// The set of tablets of one table (see the module docs for the locking).
pub(crate) struct TabletSet {
    /// Sorted by `start`; `tablets[0].start` is always `RowKey::MIN`.
    tablets: ReadMostly<Vec<Arc<Tablet>>>,
    /// A tablet splits once it holds more rows than this.
    max_rows_per_tablet: usize,
}

/// Index of the tablet covering `key`.
fn route(tablets: &[Arc<Tablet>], key: &RowKey) -> usize {
    // `tablets[0].start` is MIN, so at least one start is <= key.
    tablets
        .partition_point(|t| t.start <= *key)
        .saturating_sub(1)
}

impl TabletSet {
    pub(crate) fn new(max_rows_per_tablet: usize) -> Self {
        TabletSet {
            tablets: ReadMostly::new(vec![Arc::new(Tablet {
                start: RowKey::MIN,
                rows: RwLock::new(Rows::new()),
            })]),
            max_rows_per_tablet: max_rows_per_tablet.max(16),
        }
    }

    /// Runs `f` on `key`'s row (if any) under its tablet's read lock.
    pub(crate) fn read<R>(&self, key: &RowKey, f: impl FnOnce(Option<&RowStorage>) -> R) -> R {
        let tablets = self.tablets.read();
        let rows = tablets[route(&tablets, key)].rows.read();
        f(rows.get(key))
    }

    /// Runs `f` on each key's row (if any), in the order given, holding a
    /// tablet's read lock across consecutive keys it covers.
    pub(crate) fn read_many<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k RowKey>,
        mut f: impl FnMut(&'k RowKey, Option<&RowStorage>),
    ) {
        let tablets = self.tablets.read();
        let mut held = None;
        for key in keys {
            let idx = route(&tablets, key);
            if held.as_ref().map(|(at, _)| *at) != Some(idx) {
                drop(held.take()); // unlock first: never two tablets' rows at once
                held = Some((idx, tablets[idx].rows.read()));
            }
            f(key, held.as_ref().and_then(|(_, rows)| rows.get(key)));
        }
    }

    /// Visits the rows of `[start, end)` in key order, tablet by tablet
    /// under each one's read lock, until `visit` returns `false`.
    /// The caller has checked `start <= end`.
    pub(crate) fn scan(
        &self,
        start: &RowKey,
        end: Option<&RowKey>,
        mut visit: impl FnMut(&RowKey, &RowStorage) -> bool,
    ) {
        let tablets = self.tablets.read();
        let first = route(&tablets, start);
        let rest = tablets[first + 1..]
            .iter()
            .take_while(|t| end.is_none_or(|end| t.start < *end));
        let range = (
            Bound::Included(start),
            end.map_or(Bound::Unbounded, Bound::Excluded),
        );
        for tablet in std::iter::once(&tablets[first]).chain(rest) {
            let rows = tablet.rows.read();
            for (key, row) in rows.range::<RowKey, _>(range) {
                if !visit(key, row) {
                    return;
                }
            }
        }
    }

    /// Runs `f` on the rows of the tablet covering `key` under its write
    /// lock, then splits that tablet if `f` grew it past the threshold.
    pub(crate) fn write<R>(&self, key: &RowKey, f: impl FnOnce(&mut Rows) -> R) -> R {
        let (out, oversized) = {
            let tablets = self.tablets.read();
            let mut rows = tablets[route(&tablets, key)].rows.write();
            let out = f(&mut rows);
            (out, rows.len() > self.max_rows_per_tablet)
        };
        if oversized {
            self.split(key);
        }
        out
    }

    /// Runs `f(rows, item)` for every item on the tablet covering its key:
    /// one write lock per tablet touched, items of one tablet in the order
    /// given. Splits the tablets `f` grew past the threshold.
    pub(crate) fn write_batch<T>(
        &self,
        items: &[T],
        key_of: impl Fn(&T) -> &RowKey,
        mut f: impl FnMut(&mut Rows, &T),
    ) {
        let mut oversized = Vec::new();
        {
            let tablets = self.tablets.read();
            let mut order: Vec<(usize, usize)> = items
                .iter()
                .enumerate()
                .map(|(i, item)| (route(&tablets, key_of(item)), i))
                .collect();
            order.sort_unstable(); // by tablet, then by position in the batch
            for group in order.chunk_by(|a, b| a.0 == b.0) {
                let mut rows = tablets[group[0].0].rows.write();
                for &(_, i) in group {
                    f(&mut rows, &items[i]);
                }
                if rows.len() > self.max_rows_per_tablet {
                    oversized.push(key_of(&items[group[0].1]));
                }
            }
        }
        for key in oversized {
            self.split(key);
        }
    }

    /// Runs `f` on every row of the table, tablet by tablet under each
    /// one's write lock. `f` must not empty a row.
    pub(crate) fn for_each_row_mut(&self, mut f: impl FnMut(&mut RowStorage)) {
        for tablet in self.tablets.read().iter() {
            tablet.rows.write().values_mut().for_each(&mut f);
        }
    }

    /// Cuts the tablet covering `key` at median keys until every piece is
    /// within the threshold (a batch can overshoot it many times over; a
    /// racing writer may have split it already). The exclusive list lock
    /// excludes every other access to the table, so the row locks it
    /// takes are free.
    fn split(&self, key: &RowKey) {
        let mut tablets = self.tablets.write();
        let mut idx = route(&tablets, key);
        let mut last = idx; // the pieces of the original tablet are idx..=last
        while idx <= last {
            // The upper half of the piece at `idx`, cut at its median key,
            // if the piece is oversized.
            let upper = {
                let mut rows = tablets[idx].rows.write();
                let median = (rows.len() > self.max_rows_per_tablet)
                    .then(|| rows.keys().nth(rows.len() / 2).cloned())
                    .flatten();
                median.map(|start| (rows.split_off(&start), start))
            };
            let Some((rows, start)) = upper else {
                idx += 1;
                continue;
            };
            let rows = RwLock::new(rows);
            tablets.insert(idx + 1, Arc::new(Tablet { start, rows }));
            last += 1;
        }
    }

    /// Number of tablets currently serving the table.
    pub(crate) fn tablet_count(&self) -> usize {
        self.tablets.read().len()
    }

    /// Total rows across all tablets (approximate under concurrency).
    pub(crate) fn row_count(&self) -> usize {
        let tablets = self.tablets.read();
        tablets.iter().map(|t| t.rows.read().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cellv(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    fn timestamps(row: &RowStorage, family: usize, qualifier: &str) -> Vec<u64> {
        let at = row
            .find(family, &InlineBytes::new(qualifier.as_bytes()))
            .expect("column exists");
        row.columns[at].versions.iter().map(|c| c.ts.0).collect()
    }

    #[test]
    fn row_storage_orders_versions_newest_first() {
        let mut r = RowStorage::default();
        r.put(0, "q", Timestamp(10), cellv("a"), 10);
        r.put(0, "q", Timestamp(30), cellv("c"), 10);
        r.put(0, "q", Timestamp(20), cellv("b"), 10);
        assert_eq!(timestamps(&r, 0, "q"), vec![30, 20, 10]);
        assert_eq!(&r.latest(0, "q").unwrap().value[..], b"c");
    }

    #[test]
    fn row_storage_same_ts_replaces() {
        let mut r = RowStorage::default();
        r.put(0, "q", Timestamp(10), cellv("a"), 10);
        r.put(0, "q", Timestamp(10), cellv("b"), 10);
        assert_eq!(timestamps(&r, 0, "q"), vec![10]);
        assert_eq!(&r.latest(0, "q").unwrap().value[..], b"b");
    }

    #[test]
    fn row_storage_gc_truncates_old_versions() {
        let mut r = RowStorage::default();
        for t in 0..10u64 {
            r.put(0, "q", Timestamp(t), cellv("x"), 3);
        }
        assert_eq!(timestamps(&r, 0, "q"), vec![9, 8, 7]);
        assert_eq!(r.cell_count(), 3);
        // Older than everything a full column keeps: dropped, not queued.
        r.put(0, "q", Timestamp(1), cellv("y"), 3);
        assert_eq!(timestamps(&r, 0, "q"), vec![9, 8, 7]);
        // In between: the oldest makes room.
        r.put(0, "one", Timestamp(5), cellv("x"), 1);
        r.put(0, "one", Timestamp(4), cellv("stale"), 1);
        r.put(0, "one", Timestamp(6), cellv("fresh"), 1);
        assert_eq!(timestamps(&r, 0, "one"), vec![6]);
        assert_eq!(&r.latest(0, "one").unwrap().value[..], b"fresh");
    }

    #[test]
    fn columns_stay_in_family_then_qualifier_order() {
        let mut r = RowStorage::default();
        for (family, qualifier) in [(2, "a"), (0, "b"), (1, ""), (0, "a"), (0, "B"), (2, "")] {
            r.put(family, qualifier, Timestamp(1), cellv("v"), 1);
        }
        let order: Vec<(usize, &str)> = r
            .columns()
            .iter()
            .map(|c| {
                (
                    c.family,
                    std::str::from_utf8(c.qualifier.as_slice()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            order,
            [(0, "B"), (0, "a"), (0, "b"), (1, ""), (2, ""), (2, "a")]
        );
        assert_eq!(r.family(0).len(), 3);
        assert_eq!(r.family(3).len(), 0);
        r.apply(&RowOp::DeleteFamily { family: 0 });
        r.apply(&RowOp::DeleteColumn {
            family: 2,
            qualifier: "",
        });
        assert_eq!(r.columns().len(), 2);
        r.apply(&RowOp::DeleteRow);
        assert!(r.is_empty());
    }

    fn filled(limit: usize, keys: std::ops::Range<u64>) -> TabletSet {
        let set = TabletSet::new(limit);
        for i in keys {
            let key = RowKey::from_u64(i);
            set.write(&key, |rows| rows.insert(key.clone(), RowStorage::default()));
        }
        set
    }

    #[test]
    fn route_finds_the_covering_tablet() {
        let set = filled(16, 0..200);
        assert!(set.tablet_count() > 1, "expected splits");
        assert_eq!(set.row_count(), 200);
        // Every key routes to a tablet that actually holds it.
        for i in 0..200u64 {
            assert!(
                set.read(&RowKey::from_u64(i), |row| row.is_some()),
                "key {i} misrouted"
            );
        }
    }

    #[test]
    fn scan_covers_all_overlapping_tablets_in_order() {
        let set = filled(16, 0..300);
        let mut seen = Vec::new();
        let (start, end) = (RowKey::from_u64(50), RowKey::from_u64(250));
        set.scan(&start, Some(&end), |key, _| {
            seen.push(key.as_u64().unwrap());
            true
        });
        assert_eq!(seen, (50..250).collect::<Vec<_>>());
        // An early stop is honoured across tablets; an empty range is empty.
        let mut n = 0;
        set.scan(&RowKey::MIN, None, |_, _| {
            n += 1;
            n < 40
        });
        assert_eq!(n, 40);
        set.scan(&start, Some(&start), |_, _| panic!("empty range"));
    }

    #[test]
    fn a_batch_that_overshoots_is_cut_down_to_the_threshold() {
        let set = TabletSet::new(16);
        let keys: Vec<RowKey> = (0..500u64).rev().map(RowKey::from_u64).collect();
        set.write_batch(
            &keys,
            |key| key,
            |rows, key| {
                rows.insert(key.clone(), RowStorage::default());
            },
        );
        assert_eq!(set.row_count(), 500);
        let tablets = set.tablets.read();
        assert!(tablets.iter().all(|t| t.rows.read().len() <= 16));
        assert!(tablets.windows(2).all(|w| w[0].start < w[1].start));
        // Each tablet holds exactly the keys from its start to the next's.
        for (i, t) in tablets.iter().enumerate() {
            let rows = t.rows.read();
            assert!(rows.keys().all(|k| route(&tablets, k) == i));
        }
    }
}
