//! Table API: reads, atomic row mutations, batch mutations and range scans.
//!
//! A write runs in a fixed order: **resolve** every mutation's family name
//! against the schema (an unknown family is a typed error raised here,
//! before anything is logged or touched, and what comes out — `RowOp`s
//! carrying family indices — cannot fail to apply); **append** the record
//! to the WAL on a durable table, keeping the WAL lock to the end of the
//! call; **apply** under the tablet's write lock with one descent of its
//! tree per row. Lock order: WAL, then the tablet list (the calling
//! thread's stripe of it; a split takes every stripe), then one tablet's
//! rows — `tablet.rs` has the row layout and the tablet side of it.
//! Operation counters ([`Metrics`]) are per thread and take no lock.

use crate::error::{BigtableError, Result};
use crate::metrics::Metrics;
use crate::schema::TableSchema;
use crate::tablet::{apply_to_row, RowOp, RowStorage, TabletSet};
use crate::types::{Cell, Locality, RowKey, Timestamp};
use crate::wal::{self, WalRecord, WalWriter};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::sync::Arc;

/// A single change to one row. Mutations within a [`RowMutation`] apply
/// atomically (BigTable guarantees single-row atomicity).
///
/// Names are `Cow<'static, str>`, so a mutation naming its family and
/// qualifier by constants allocates nothing for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Writes one timestamped cell.
    Put {
        /// Column family name.
        family: Cow<'static, str>,
        /// Column qualifier.
        qualifier: Cow<'static, str>,
        /// Cell timestamp.
        ts: Timestamp,
        /// Cell value.
        value: Bytes,
    },
    /// Deletes all versions of one column.
    DeleteColumn {
        /// Column family name.
        family: Cow<'static, str>,
        /// Column qualifier.
        qualifier: Cow<'static, str>,
    },
    /// Deletes all columns of one family in the row.
    DeleteFamily {
        /// Column family name.
        family: Cow<'static, str>,
    },
    /// Deletes the entire row.
    DeleteRow,
}

impl Mutation {
    /// Convenience constructor for a put.
    pub fn put(
        family: impl Into<Cow<'static, str>>,
        qualifier: impl Into<Cow<'static, str>>,
        ts: Timestamp,
        value: impl Into<Bytes>,
    ) -> Self {
        Mutation::Put {
            family: family.into(),
            qualifier: qualifier.into(),
            ts,
            value: value.into(),
        }
    }

    /// Convenience constructor for a column delete.
    pub fn delete_column(
        family: impl Into<Cow<'static, str>>,
        qualifier: impl Into<Cow<'static, str>>,
    ) -> Self {
        Mutation::DeleteColumn {
            family: family.into(),
            qualifier: qualifier.into(),
        }
    }
}

/// A keyed batch of mutations for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMutation {
    /// Target row.
    pub key: RowKey,
    /// Mutations applied atomically to the row.
    pub mutations: Vec<Mutation>,
}

impl RowMutation {
    /// Creates a row mutation.
    pub fn new(key: impl Into<RowKey>, mutations: Vec<Mutation>) -> Self {
        RowMutation {
            key: key.into(),
            mutations,
        }
    }
}

/// One row's mutations, resolved. The store's hot writes carry a single
/// mutation, which needs no allocation to hold.
enum RowOps<'a> {
    One(RowOp<'a>),
    Many(Vec<RowOp<'a>>),
}

impl<'a> RowOps<'a> {
    fn as_slice(&self) -> &[RowOp<'a>] {
        match self {
            RowOps::One(op) => std::slice::from_ref(op),
            RowOps::Many(ops) => ops,
        }
    }
}

/// One column of a returned row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowEntry {
    /// Family the column belongs to.
    pub family: String,
    /// Column qualifier.
    pub qualifier: String,
    /// Versions, newest first (only the head when `latest_only`).
    pub cells: Vec<Cell>,
}

/// A materialised row returned by reads and scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRow {
    /// The row's key.
    pub key: RowKey,
    /// The row's columns in family-then-qualifier order.
    pub entries: Vec<RowEntry>,
}

impl OwnedRow {
    /// Latest cell of `family:qualifier`, if present.
    pub fn latest(&self, family: &str, qualifier: &str) -> Option<&Cell> {
        self.entries
            .iter()
            .find(|e| e.family == family && e.qualifier == qualifier)
            .and_then(|e| e.cells.first())
    }

    /// All entries of one family.
    pub fn family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a RowEntry> + 'a {
        self.entries.iter().filter(move |e| e.family == family)
    }

    /// Total byte size of returned cell payloads (for cost accounting).
    pub(crate) fn payload_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.cells.iter().map(|c| c.value.len()).sum::<usize>())
            .sum()
    }
}

/// Read shaping: which families, and whether to return only latest versions.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Restrict to these families (`None` = all).
    pub families: Option<Vec<String>>,
    /// Return only the newest version of each column.
    pub latest_only: bool,
}

impl ReadOptions {
    /// Latest version of every column in every family.
    pub fn latest() -> Self {
        ReadOptions {
            families: None,
            latest_only: true,
        }
    }

    /// Latest version of every column within one family.
    pub fn latest_in(family: impl Into<String>) -> Self {
        ReadOptions {
            families: Some(vec![family.into()]),
            latest_only: true,
        }
    }
}

/// Key range for scans: `[start, end)`; `end = None` scans to the table end.
#[derive(Debug, Clone)]
pub struct ScanRange {
    /// First key, inclusive.
    pub start: RowKey,
    /// One-past-last key, exclusive.
    pub end: Option<RowKey>,
}

impl ScanRange {
    /// The whole table.
    pub fn all() -> Self {
        ScanRange {
            start: RowKey::MIN,
            end: None,
        }
    }

    /// `[start, end)`.
    pub fn between(start: impl Into<RowKey>, end: impl Into<RowKey>) -> Self {
        ScanRange {
            start: start.into(),
            end: Some(end.into()),
        }
    }
}

/// A table: schema + tablets + metrics.
///
/// All methods take `&self`; interior synchronisation is per tablet, which is
/// what lets multiple MOIST front-end servers share one store (§4.3.3).
pub struct Table {
    schema: TableSchema,
    tablets: TabletSet,
    metrics: Arc<Metrics>,
    /// Fast row-count estimate for the cost model (exact under the row
    /// locks, read relaxed).
    approx_rows: std::sync::atomic::AtomicU64,
    /// Commit log for durable tables; `None` under `Durability::None`.
    /// Writers append here *before* touching the tablet and keep the lock
    /// through the in-memory apply, so a snapshot taken under this lock
    /// always covers everything the truncated log contained.
    wal: Option<Mutex<WalWriter>>,
    /// Cached fsync cadence so the cost path never takes the WAL lock.
    wal_fsync_every: Option<u64>,
}

impl Table {
    pub(crate) fn new(
        schema: TableSchema,
        max_rows_per_tablet: usize,
        wal: Option<WalWriter>,
    ) -> Self {
        Table {
            schema,
            tablets: TabletSet::new(max_rows_per_tablet),
            metrics: Arc::new(Metrics::default()),
            approx_rows: std::sync::atomic::AtomicU64::new(0),
            wal_fsync_every: wal.as_ref().map(|w| w.fsync_every()),
            wal: wal.map(Mutex::new),
        }
    }

    /// Attaches the log writer after recovery replay (replay must not
    /// re-append the records it is applying).
    pub(crate) fn attach_wal(&mut self, writer: WalWriter) {
        self.wal_fsync_every = Some(writer.fsync_every());
        self.wal = Some(Mutex::new(writer));
    }

    /// `Some(fsync_every)` when this table writes a WAL, `None` when the
    /// store is purely in-memory. Sessions use this to charge the
    /// durability surcharge.
    pub(crate) fn wal_fsync_every(&self) -> Option<u64> {
        self.wal_fsync_every
    }

    /// Appends one record (`encode` appends its payload to a buffer) and
    /// returns the held lock so the caller's in-memory apply stays inside
    /// the WAL critical section.
    fn wal_append_with(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Option<MutexGuard<'_, WalWriter>>> {
        match &self.wal {
            None => Ok(None),
            Some(wal) => {
                let mut w = wal.lock();
                let info = w.append(encode)?;
                self.metrics.record_wal_append(info.bytes, info.fsynced);
                Ok(Some(w))
            }
        }
    }

    /// The table's schema.
    pub(crate) fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's metrics counters.
    pub(crate) fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Number of tablets currently serving this table.
    pub fn tablet_count(&self) -> usize {
        self.tablets.tablet_count()
    }

    /// Number of rows (exact, recounted from the tablets).
    pub fn row_count(&self) -> usize {
        self.tablets.row_count()
    }

    /// Total stored cell versions across all rows (walks the tablets; for
    /// capacity statistics, not hot paths).
    pub fn cell_count(&self) -> usize {
        let mut total = 0;
        self.tablets.scan(&RowKey::MIN, None, |_, row| {
            total += row.cell_count();
            true
        });
        total
    }

    /// Cheap row-count estimate for cost accounting (atomic read; may lag a
    /// concurrent writer by a few rows).
    pub fn approx_row_count(&self) -> u64 {
        self.approx_rows.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn note_row_delta(&self, delta: i64) {
        use std::sync::atomic::Ordering;
        match delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                self.approx_rows.fetch_add(delta as u64, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                // Saturate at zero: fetch_update keeps the counter sane even
                // if deletes race ahead of the estimate.
                let dec = (-delta) as u64;
                let _ = self
                    .approx_rows
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        Some(v.saturating_sub(dec))
                    });
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    fn family_checked(&self, family: &str) -> Result<usize> {
        self.schema.family(family).map(|(i, _)| i)
    }

    /// Reads one row. Returns `None` when the row does not exist or stores
    /// nothing in the requested families.
    pub fn get_row(&self, key: &RowKey, opts: &ReadOptions) -> Result<Option<OwnedRow>> {
        let family_filter = self.resolve_family_filter(opts)?;
        let found = self.tablets.read(key, |row| {
            row.map(|row| self.materialize(key, row, &family_filter, opts.latest_only))
        });
        let Some(owned) = found else {
            self.metrics.record_read(1, 0, 0);
            return Ok(None);
        };
        self.metrics
            .record_read(1, 1, owned.as_ref().map_or(0, |r| r.payload_bytes() as u64));
        Ok(owned)
    }

    /// Latest cell of `family:qualifier` in `key`'s row.
    pub fn get_latest(&self, key: &RowKey, family: &str, qualifier: &str) -> Result<Option<Cell>> {
        let fidx = self.family_checked(family)?;
        let cell = self.tablets.read(key, |row| {
            row.and_then(|row| row.latest(fidx, qualifier)).cloned()
        });
        self.metrics.record_read(
            1,
            u64::from(cell.is_some()),
            cell.as_ref().map_or(0, |c| c.value.len() as u64),
        );
        Ok(cell)
    }

    /// Applies mutations to one row atomically.
    pub fn mutate_row(&self, key: &RowKey, mutations: &[Mutation]) -> Result<()> {
        let ops = self.resolve(mutations)?;
        let _wal =
            self.wal_append_with(|buf| wal::encode_rows(buf, std::iter::once((key, mutations))))?;
        let delta = self.tablets.write(key, |rows| {
            apply_to_row(rows.entry(key.clone()), ops.as_slice())
        });
        self.note_row_delta(delta);
        self.metrics
            .record_write(1, mutations.len() as u64, Self::mutation_bytes(mutations));
        Ok(())
    }

    /// Applies a batch of row mutations. Atomic per row, not across rows
    /// (exactly BigTable's contract). Returns the number of rows touched.
    ///
    /// Rows are grouped by tablet so the batch takes each tablet's write
    /// lock once — this is the "batch reading/writing" advantage §3.3.2's
    /// clustering leans on.
    pub fn mutate_rows(&self, batch: &[RowMutation]) -> Result<usize> {
        let resolved = self.resolve_batch(batch)?;
        let _wal = self.wal_append_with(|buf| {
            let rows = batch.iter().map(|rm| (&rm.key, rm.mutations.as_slice()));
            wal::encode_rows(buf, rows)
        })?;
        let (total_muts, total_bytes) = self.apply_batch(&resolved);
        self.metrics.record_batch_write(total_muts, total_bytes);
        Ok(batch.len())
    }

    /// Resolves every row of a batch, or fails — before anything is logged
    /// or applied — on the first family the schema lacks.
    fn resolve_batch<'a>(
        &self,
        batch: &'a [RowMutation],
    ) -> Result<Vec<(&'a RowMutation, RowOps<'a>)>> {
        batch
            .iter()
            .map(|rm| Ok((rm, self.resolve(&rm.mutations)?)))
            .collect()
    }

    /// Applies a resolved batch (one write lock per tablet touched) and
    /// returns `(mutations, payload bytes)`. Shared by the live path and
    /// WAL replay.
    fn apply_batch(&self, batch: &[(&RowMutation, RowOps<'_>)]) -> (u64, u64) {
        let mut total_muts = 0u64;
        let mut total_bytes = 0u64;
        let mut total_delta = 0i64;
        self.tablets.write_batch(
            batch,
            |(rm, _)| &rm.key,
            |rows, (rm, ops)| {
                total_delta += apply_to_row(rows.entry(rm.key.clone()), ops.as_slice());
                total_muts += rm.mutations.len() as u64;
                total_bytes += Self::mutation_bytes(&rm.mutations);
            },
        );
        self.note_row_delta(total_delta);
        (total_muts, total_bytes)
    }

    /// Conditional mutation (BigTable's `CheckAndMutate`): atomically checks
    /// the latest value of `family:qualifier` in `key`'s row against
    /// `expected` and applies `mutations` only on a match. `expected = None`
    /// matches "column absent". Returns whether the mutations were applied.
    ///
    /// The check and the mutations run under one tablet write lock, so
    /// concurrent writers cannot interleave between them — this is what
    /// lets multiple front-end servers arbitrate (e.g. leadership claims)
    /// without an external lock service.
    pub fn check_and_mutate(
        &self,
        key: &RowKey,
        family: &str,
        qualifier: &str,
        expected: Option<&[u8]>,
        mutations: &[Mutation],
    ) -> Result<bool> {
        let fidx = self.family_checked(family)?;
        let ops = self.resolve(mutations)?;
        // WAL lock before tablet lock (the store-wide ordering): whether to
        // log is only known once the guard is evaluated under the row lock,
        // so the record is appended there — still before the apply.
        let mut wal_guard = self.wal.as_ref().map(|m| m.lock());
        let delta = self.tablets.write(key, |rows| -> Result<Option<i64>> {
            let entry = rows.entry(key.clone());
            let current = match &entry {
                Entry::Occupied(row) => row.get().latest(fidx, qualifier),
                Entry::Vacant(_) => None,
            };
            if expected != current.map(|c| &c.value[..]) {
                return Ok(None);
            }
            if let Some(w) = wal_guard.as_deref_mut() {
                let info =
                    w.append(|buf| wal::encode_rows(buf, std::iter::once((key, mutations))))?;
                self.metrics.record_wal_append(info.bytes, info.fsynced);
            }
            Ok(Some(apply_to_row(entry, ops.as_slice())))
        })?;
        let applied = delta.is_some();
        self.note_row_delta(delta.unwrap_or(0));
        self.metrics.record_read(1, u64::from(applied), 0);
        if applied {
            self.metrics
                .record_write(1, mutations.len() as u64, Self::mutation_bytes(mutations));
        }
        Ok(applied)
    }

    /// Reads many rows in one batch RPC (BigTable's multi-get). Missing rows
    /// yield `None` at the matching position.
    pub fn batch_get(&self, keys: &[RowKey], opts: &ReadOptions) -> Result<Vec<Option<OwnedRow>>> {
        let family_filter = self.resolve_family_filter(opts)?;
        let mut out = Vec::with_capacity(keys.len());
        let mut rows_found = 0u64;
        let mut bytes = 0u64;
        self.tablets.read_many(keys, |key, row| {
            let owned =
                row.and_then(|r| self.materialize(key, r, &family_filter, opts.latest_only));
            if let Some(r) = &owned {
                rows_found += 1;
                bytes += r.payload_bytes() as u64;
            }
            out.push(owned);
        });
        self.metrics.record_read(1, rows_found, bytes);
        Ok(out)
    }

    /// Scans rows in `[range.start, range.end)` in key order, up to `limit`.
    pub fn scan(
        &self,
        range: &ScanRange,
        opts: &ReadOptions,
        limit: Option<usize>,
    ) -> Result<Vec<OwnedRow>> {
        if let Some(end) = &range.end {
            if *end < range.start {
                return Err(BigtableError::InvalidRange);
            }
        }
        let family_filter = self.resolve_family_filter(opts)?;
        let limit = limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        let mut bytes = 0u64;
        self.tablets
            .scan(&range.start, range.end.as_ref(), |key, row| {
                if let Some(owned) = self.materialize(key, row, &family_filter, opts.latest_only) {
                    bytes += owned.payload_bytes() as u64;
                    out.push(owned);
                }
                out.len() < limit
            });
        self.metrics.record_scan(1, out.len() as u64, bytes);
        Ok(out)
    }

    /// Moves versions older than `cutoff` from an in-memory family to a disk
    /// family across the whole table — the paper's aged-record transfer
    /// ("after a period of time, aged L/F records will be transferred to
    /// disk columns", §3.1.1). Returns the number of cells moved.
    pub fn age_transfer(
        &self,
        mem_family: &str,
        disk_family: &str,
        cutoff: Timestamp,
    ) -> Result<usize> {
        let (mem_idx, mem_f) = self.schema.family(mem_family)?;
        let (disk_idx, disk_f) = self.schema.family(disk_family)?;
        if mem_f.locality != Locality::InMemory || disk_f.locality != Locality::Disk {
            return Err(BigtableError::InvalidSchema(format!(
                "age_transfer wants mem->disk, got {:?}->{:?}",
                mem_f.locality, disk_f.locality
            )));
        }
        let disk_max = disk_f.max_versions;
        let _wal = self.wal_append_with(|buf| {
            wal::encode_age_transfer(buf, mem_family, disk_family, cutoff)
        })?;
        let moved = self.age_transfer_apply(mem_idx, disk_idx, disk_max, cutoff);
        self.metrics.record_write(0, moved as u64, 0);
        Ok(moved)
    }

    /// The tablet walk behind [`age_transfer`](Table::age_transfer),
    /// shared with WAL replay (the move is deterministic given the rows,
    /// so it replays by re-execution).
    fn age_transfer_apply(
        &self,
        mem_idx: usize,
        disk_idx: usize,
        disk_max: usize,
        cutoff: Timestamp,
    ) -> usize {
        let mut moved = 0usize;
        self.tablets
            .for_each_row_mut(|row| moved += row.age(mem_idx, disk_idx, disk_max, cutoff));
        moved
    }

    /// Snapshots the table and truncates its log, all under the WAL lock
    /// so no record can land between the two. The snapshot goes to
    /// `<name>.snap.tmp` first and is renamed into place, so a crash
    /// mid-compaction leaves either the old snapshot + full log or the
    /// new snapshot (+ a log replay converges on). Returns snapshot bytes
    /// written; `Ok(0)` and no I/O on a non-durable table.
    pub fn compact(&self) -> Result<u64> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let mut w = wal.lock();
        let payload = self.snapshot_payload();
        let bytes = w.write_snapshot(&payload)?;
        w.truncate()?;
        Ok(bytes)
    }

    /// Serializes schema + every row into one snapshot payload. Callers
    /// hold the WAL lock, which excludes all durable writers, so the scan
    /// over tablet read locks sees a consistent cut.
    pub(crate) fn snapshot_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wal::encode_schema(&mut buf, &self.schema);
        let count_pos = buf.len();
        wal::put_u64(&mut buf, 0); // patched below
        let mut n = 0u64;
        self.tablets.scan(&RowKey::MIN, None, |key, row| {
            n += 1;
            wal::put_bytes(&mut buf, key.as_slice());
            for fidx in 0..self.schema.families.len() {
                let columns = row.family(fidx);
                wal::put_u32(&mut buf, columns.len() as u32);
                for col in columns {
                    wal::put_bytes(&mut buf, col.qualifier.as_slice());
                    wal::put_u32(&mut buf, col.versions.len() as u32);
                    for c in &col.versions {
                        wal::put_u64(&mut buf, c.ts.0);
                        wal::put_bytes(&mut buf, &c.value);
                    }
                }
            }
            true
        });
        buf[count_pos..count_pos + 8].copy_from_slice(&n.to_le_bytes());
        buf
    }

    /// Loads the row section of a snapshot payload (the reader is
    /// positioned just past the schema). Recovery-only: the table is not
    /// yet shared, so direct tablet inserts are safe.
    pub(crate) fn load_snapshot_rows(&self, r: &mut wal::Reader<'_>) -> Result<u64> {
        let nrows = r.u64()?;
        for _ in 0..nrows {
            let key = RowKey::from_bytes(r.bytes()?);
            let mut row = RowStorage::default();
            for (fidx, fam) in self.schema.families.iter().enumerate() {
                let ncols = r.u32()?;
                for _ in 0..ncols {
                    let qual = r.str()?;
                    let nver = r.u32()?;
                    for _ in 0..nver {
                        let ts = Timestamp(r.u64()?);
                        let value = Bytes::copy_from_slice(r.bytes()?);
                        row.put(fidx, &qual, ts, value, fam.max_versions);
                    }
                }
            }
            if row.is_empty() {
                continue; // a live table never holds one; keep it so
            }
            let replaced = self
                .tablets
                .write(&key, |rows| rows.insert(key.clone(), row));
            if replaced.is_none() {
                self.note_row_delta(1);
            }
        }
        Ok(nrows)
    }

    /// Applies one replayed WAL record. Recovery-only: called before the
    /// log writer is attached, so nothing is re-appended; counts into the
    /// `wal_replayed` metric instead of the RPC counters.
    pub(crate) fn apply_replayed(&self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::Schema(s) => {
                // Harmless duplicate when a crash landed between snapshot
                // publication and log truncation; anything else is skew.
                if s != self.schema {
                    return Err(BigtableError::Wal(format!(
                        "replayed schema for table {:?} does not match",
                        self.schema.name
                    )));
                }
            }
            WalRecord::Rows(batch) => {
                self.apply_batch(&self.resolve_batch(&batch)?);
            }
            WalRecord::AgeTransfer {
                mem_family,
                disk_family,
                cutoff,
            } => {
                let (mem_idx, _) = self.schema.family(&mem_family)?;
                let (disk_idx, disk_f) = self.schema.family(&disk_family)?;
                self.age_transfer_apply(mem_idx, disk_idx, disk_f.max_versions, cutoff);
            }
        }
        self.metrics.record_wal_replay(1);
        Ok(())
    }

    fn resolve_family_filter(&self, opts: &ReadOptions) -> Result<Option<Vec<usize>>> {
        match &opts.families {
            None => Ok(None),
            Some(names) => {
                let mut idxs = Vec::with_capacity(names.len());
                for n in names {
                    idxs.push(self.family_checked(n)?);
                }
                Ok(Some(idxs))
            }
        }
    }

    /// Resolves one mutation's family name; the only place a write can
    /// meet a family the schema lacks.
    fn resolve_one<'a>(&self, m: &'a Mutation) -> Result<RowOp<'a>> {
        Ok(match m {
            Mutation::Put {
                family,
                qualifier,
                ts,
                value,
            } => {
                let (family, decl) = self.schema.family(family)?;
                RowOp::Put {
                    family,
                    max_versions: decl.max_versions,
                    qualifier,
                    ts: *ts,
                    value,
                }
            }
            Mutation::DeleteColumn { family, qualifier } => RowOp::DeleteColumn {
                family: self.family_checked(family)?,
                qualifier,
            },
            Mutation::DeleteFamily { family } => RowOp::DeleteFamily {
                family: self.family_checked(family)?,
            },
            Mutation::DeleteRow => RowOp::DeleteRow,
        })
    }

    /// Resolves a row's mutations (all of them, or an error and nothing).
    fn resolve<'a>(&self, mutations: &'a [Mutation]) -> Result<RowOps<'a>> {
        match mutations {
            [m] => self.resolve_one(m).map(RowOps::One),
            _ => mutations
                .iter()
                .map(|m| self.resolve_one(m))
                .collect::<Result<_>>()
                .map(RowOps::Many),
        }
    }

    fn materialize(
        &self,
        key: &RowKey,
        row: &RowStorage,
        family_filter: &Option<Vec<usize>>,
        latest_only: bool,
    ) -> Option<OwnedRow> {
        let mut entries = Vec::new();
        for col in row.columns() {
            if family_filter
                .as_ref()
                .is_some_and(|filter| !filter.contains(&col.family))
            {
                continue;
            }
            let wanted = if latest_only { 1 } else { usize::MAX };
            let cells = col.versions.iter().take(wanted).cloned().collect();
            entries.push(RowEntry {
                family: self.schema.families[col.family].name.clone(),
                // Lossless: the bytes are those of the `&str` it was put as.
                qualifier: String::from_utf8_lossy(col.qualifier.as_slice()).into_owned(),
                cells,
            });
        }
        if entries.is_empty() {
            None
        } else {
            Some(OwnedRow {
                key: key.clone(),
                entries,
            })
        }
    }

    /// What a row's mutations weigh in the cost model and the write
    /// metrics: a put its value plus 16 bytes, anything else 16.
    pub(crate) fn mutation_bytes(mutations: &[Mutation]) -> u64 {
        mutations
            .iter()
            .map(|m| match m {
                Mutation::Put { value, .. } => value.len() as u64 + 16,
                _ => 16,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnFamily;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnFamily::in_memory("mem", 4),
                ColumnFamily::on_disk("disk", usize::MAX),
            ],
        )
        .unwrap();
        Table::new(schema, 64, None)
    }

    #[test]
    fn put_get_roundtrip() {
        let t = table();
        let key = RowKey::from_u64(42);
        t.mutate_row(
            &key,
            &[Mutation::put("mem", "loc", Timestamp(5), &b"hello"[..])],
        )
        .unwrap();
        let cell = t.get_latest(&key, "mem", "loc").unwrap().unwrap();
        assert_eq!(&cell.value[..], b"hello");
        assert_eq!(cell.ts, Timestamp(5));
        assert!(t.get_latest(&key, "mem", "other").unwrap().is_none());
        assert!(t
            .get_latest(&RowKey::from_u64(43), "mem", "loc")
            .unwrap()
            .is_none());
    }

    #[test]
    fn unknown_family_is_an_error_not_a_panic() {
        let t = table();
        let key = RowKey::from_u64(1);
        let err = t
            .mutate_row(&key, &[Mutation::put("nope", "q", Timestamp(0), &b"x"[..])])
            .unwrap_err();
        assert!(matches!(err, BigtableError::UnknownFamily { .. }));
        assert!(t.get_latest(&key, "nope", "q").is_err());
        // Nothing was written.
        assert!(t.get_row(&key, &ReadOptions::latest()).unwrap().is_none());
    }

    #[test]
    fn unknown_family_rejects_the_whole_batch_before_the_log() {
        let dir = std::env::temp_dir().join(format!("moist_table_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let schema = table().schema().clone();
        let log = WalWriter::create(wal::wal_path(&dir, "t"), 0, 1).unwrap();
        let t = Table::new(schema, 64, Some(log));
        let put = |family: &'static str| vec![Mutation::put(family, "q", Timestamp(1), &b"v"[..])];
        let batch = [
            RowMutation::new(RowKey::from_u64(1), put("mem")),
            RowMutation::new(
                RowKey::from_u64(2),
                vec![
                    Mutation::delete_column("disk", "q"),
                    Mutation::DeleteFamily {
                        family: "nope".into(),
                    },
                ],
            ),
            RowMutation::new(RowKey::from_u64(3), put("disk")),
        ];
        let err = t.mutate_rows(&batch).unwrap_err();
        assert!(matches!(err, BigtableError::UnknownFamily { .. }));
        let guarded = t.check_and_mutate(&RowKey::from_u64(1), "mem", "q", None, &put("nope"));
        assert!(matches!(guarded, Err(BigtableError::UnknownFamily { .. })));
        // Not the valid rows before the bad one either, and no log record.
        assert_eq!((t.row_count(), t.approx_row_count()), (0, 0));
        let snap = t.metrics().snapshot();
        assert_eq!(
            (snap.wal_appends, snap.batch_ops, snap.write_ops),
            (0, 0, 0)
        );
        // The same batch without the bad family lands whole, as one record.
        assert_eq!(t.mutate_rows(&[batch[0].clone(), batch[2].clone()]), Ok(2));
        assert_eq!(t.metrics().snapshot().wal_appends, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replayed_record_naming_an_unknown_family_is_a_typed_error() {
        let t = table();
        let rows = |family: &'static str| {
            WalRecord::Rows(vec![
                RowMutation::new(
                    RowKey::from_u64(1),
                    vec![Mutation::put("mem", "q", Timestamp(1), &b"v"[..])],
                ),
                RowMutation::new(
                    RowKey::from_u64(2),
                    vec![Mutation::put(family, "q", Timestamp(1), &b"v"[..])],
                ),
            ])
        };
        let err = t.apply_replayed(rows("gone")).unwrap_err();
        assert!(matches!(err, BigtableError::UnknownFamily { .. }));
        assert_eq!(t.row_count(), 0, "a rejected record applies no row");
        t.apply_replayed(rows("disk")).unwrap();
        assert_eq!(t.row_count(), 2);
    }

    /// A write takes the tablet list's lock (shared) and its own tablet's,
    /// nothing else: it completes while another tablet's rows are
    /// write-locked. (The per-write sweep over every tablet's lock that
    /// used to decide splits blocked here.)
    #[test]
    fn a_write_does_not_wait_for_another_tablets_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let t = table(); // 64 rows per tablet
        let put = [Mutation::put("mem", "q", Timestamp(0), &b"v"[..])];
        for i in 0..500u64 {
            t.mutate_row(&RowKey::from_u64(i), &put).unwrap();
        }
        let tablets = t.tablet_count();
        assert!(tablets > 4, "expected splits, got {tablets} tablets");
        assert_eq!(t.row_count() as u64, t.approx_row_count());

        let (first, last) = (RowKey::from_u64(0), RowKey::from_u64(499));
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            // Hold the last tablet's rows until the other thread's writes
            // and reads of the first tablet are through.
            t.tablets.write(&last, |_rows| {
                scope.spawn(|| {
                    t.mutate_row(&first, &put).unwrap();
                    t.check_and_mutate(&first, "mem", "q", Some(b"v"), &put)
                        .unwrap();
                    t.get_latest(&first, "mem", "q").unwrap();
                    done_tx.send(()).unwrap();
                });
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a write to tablet A waited for tablet B's lock");
            });
        });
    }

    #[test]
    fn row_mutations_are_atomic_and_delete_row_works() {
        let t = table();
        let key = RowKey::from_u64(7);
        t.mutate_row(
            &key,
            &[
                Mutation::put("mem", "a", Timestamp(1), &b"1"[..]),
                Mutation::put("mem", "b", Timestamp(1), &b"2"[..]),
            ],
        )
        .unwrap();
        let row = t.get_row(&key, &ReadOptions::latest()).unwrap().unwrap();
        assert_eq!(row.entries.len(), 2);
        t.mutate_row(&key, &[Mutation::DeleteRow]).unwrap();
        assert!(t.get_row(&key, &ReadOptions::latest()).unwrap().is_none());
        assert_eq!(t.row_count(), 0, "empty rows are physically removed");
    }

    #[test]
    fn latest_only_returns_one_version() {
        let t = table();
        let key = RowKey::from_u64(9);
        for ts in 1..=3u64 {
            t.mutate_row(
                &key,
                &[Mutation::put("mem", "q", Timestamp(ts), vec![ts as u8])],
            )
            .unwrap();
        }
        let all = t
            .get_row(
                &key,
                &ReadOptions {
                    families: None,
                    latest_only: false,
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(all.entries[0].cells.len(), 3);
        let latest = t.get_row(&key, &ReadOptions::latest()).unwrap().unwrap();
        assert_eq!(latest.entries[0].cells.len(), 1);
        assert_eq!(latest.entries[0].cells[0].ts, Timestamp(3));
    }

    #[test]
    fn scan_is_ordered_and_respects_range_and_limit() {
        let t = table();
        for i in (0..100u64).rev() {
            t.mutate_row(
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
            )
            .unwrap();
        }
        let rows = t
            .scan(
                &ScanRange::between(RowKey::from_u64(10), RowKey::from_u64(20)),
                &ReadOptions::latest(),
                None,
            )
            .unwrap();
        let keys: Vec<u64> = rows.iter().map(|r| r.key.as_u64().unwrap()).collect();
        assert_eq!(keys, (10..20).collect::<Vec<_>>());
        let limited = t
            .scan(&ScanRange::all(), &ReadOptions::latest(), Some(5))
            .unwrap();
        assert_eq!(limited.len(), 5);
        assert_eq!(limited[0].key.as_u64(), Some(0));
    }

    #[test]
    fn scan_spans_tablet_splits() {
        let t = table(); // max 64 rows per tablet
        for i in 0..500u64 {
            t.mutate_row(
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
            )
            .unwrap();
        }
        assert!(t.tablet_count() > 1);
        let rows = t
            .scan(&ScanRange::all(), &ReadOptions::latest(), None)
            .unwrap();
        assert_eq!(rows.len(), 500);
        let keys: Vec<u64> = rows.iter().map(|r| r.key.as_u64().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan out of order");
    }

    #[test]
    fn prefix_scan_composite_keys() {
        let t = table();
        for cell_idx in [5u64, 6, 7] {
            for oid in 0..4u64 {
                t.mutate_row(
                    &RowKey::composite(cell_idx, oid),
                    &[Mutation::put("mem", "id", Timestamp(0), &b"1"[..])],
                )
                .unwrap();
            }
        }
        let prefix = RowKey::from_u64(6);
        let range = ScanRange {
            end: prefix.prefix_successor(),
            start: prefix,
        };
        let rows = t.scan(&range, &ReadOptions::latest(), None).unwrap();
        assert_eq!(rows.len(), 4);
        for r in rows {
            assert_eq!(r.key.split_composite().unwrap().0, 6);
        }
    }

    #[test]
    fn invalid_range_rejected() {
        let t = table();
        let r = t.scan(
            &ScanRange::between(RowKey::from_u64(10), RowKey::from_u64(5)),
            &ReadOptions::latest(),
            None,
        );
        assert_eq!(r.unwrap_err(), BigtableError::InvalidRange);
    }

    #[test]
    fn batch_mutate_rows_touches_all_rows() {
        let t = table();
        let batch: Vec<RowMutation> = (0..200u64)
            .map(|i| {
                RowMutation::new(
                    RowKey::from_u64(i),
                    vec![Mutation::put("mem", "q", Timestamp(1), &b"b"[..])],
                )
            })
            .collect();
        assert_eq!(t.mutate_rows(&batch).unwrap(), 200);
        assert_eq!(t.row_count(), 200);
    }

    #[test]
    fn check_and_mutate_is_a_cas() {
        let t = table();
        let key = RowKey::from_u64(1);
        // Absent-column guard: first claim wins.
        let claimed = t
            .check_and_mutate(
                &key,
                "mem",
                "owner",
                None,
                &[Mutation::put("mem", "owner", Timestamp(1), &b"a"[..])],
            )
            .unwrap();
        assert!(claimed);
        // Second claim with the same guard loses.
        let claimed = t
            .check_and_mutate(
                &key,
                "mem",
                "owner",
                None,
                &[Mutation::put("mem", "owner", Timestamp(2), &b"b"[..])],
            )
            .unwrap();
        assert!(!claimed);
        assert_eq!(
            t.get_latest(&key, "mem", "owner")
                .unwrap()
                .unwrap()
                .value
                .as_ref(),
            b"a"
        );
        // Value-guarded transition a -> c succeeds; stale guard b -> d fails.
        assert!(t
            .check_and_mutate(
                &key,
                "mem",
                "owner",
                Some(b"a"),
                &[Mutation::put("mem", "owner", Timestamp(3), &b"c"[..])],
            )
            .unwrap());
        assert!(!t
            .check_and_mutate(
                &key,
                "mem",
                "owner",
                Some(b"b"),
                &[Mutation::put("mem", "owner", Timestamp(4), &b"d"[..])],
            )
            .unwrap());
        // Unknown family errors rather than silently failing.
        assert!(t.check_and_mutate(&key, "nope", "q", None, &[]).is_err());
    }

    #[test]
    fn check_and_mutate_is_atomic_under_contention() {
        let t = std::sync::Arc::new(table());
        let winners = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let t = std::sync::Arc::clone(&t);
                let winners = &winners;
                scope.spawn(move || {
                    let ok = t
                        .check_and_mutate(
                            &RowKey::from_u64(42),
                            "mem",
                            "lock",
                            None,
                            &[Mutation::put("mem", "lock", Timestamp(i), vec![i as u8])],
                        )
                        .unwrap();
                    if ok {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            winners.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one CAS may win"
        );
    }

    #[test]
    fn cell_count_tracks_versions() {
        let t = table();
        let key = RowKey::from_u64(1);
        for ts in 1..=3u64 {
            t.mutate_row(&key, &[Mutation::put("mem", "q", Timestamp(ts), vec![1u8])])
                .unwrap();
        }
        assert_eq!(t.cell_count(), 3); // mem family keeps 4 versions
        t.mutate_row(&key, &[Mutation::DeleteRow]).unwrap();
        assert_eq!(t.cell_count(), 0);
    }

    #[test]
    fn batch_get_preserves_positions_and_reports_misses() {
        let t = table();
        for i in [1u64, 3, 5] {
            t.mutate_row(
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), vec![i as u8])],
            )
            .unwrap();
        }
        let keys: Vec<RowKey> = (0..6u64).map(RowKey::from_u64).collect();
        let rows = t.batch_get(&keys, &ReadOptions::latest()).unwrap();
        assert_eq!(rows.len(), 6);
        for (i, row) in rows.iter().enumerate() {
            if [1, 3, 5].contains(&(i as u64)) {
                let r = row.as_ref().expect("present");
                assert_eq!(r.key.as_u64(), Some(i as u64));
            } else {
                assert!(row.is_none());
            }
        }
        // One RPC regardless of key count.
        assert_eq!(t.metrics().snapshot().read_ops, 1);
    }

    #[test]
    fn age_transfer_moves_old_cells_to_disk_family() {
        let t = table();
        let key = RowKey::from_u64(1);
        for ts in [10u64, 20, 30] {
            t.mutate_row(
                &key,
                &[Mutation::put("mem", "loc", Timestamp(ts), vec![ts as u8])],
            )
            .unwrap();
        }
        let moved = t.age_transfer("mem", "disk", Timestamp(20)).unwrap();
        assert_eq!(moved, 2); // ts 10 and 20 moved; 30 stays hot
        let mem = t.get_latest(&key, "mem", "loc").unwrap().unwrap();
        assert_eq!(mem.ts, Timestamp(30));
        let row = t
            .get_row(
                &key,
                &ReadOptions {
                    families: Some(vec!["disk".into()]),
                    latest_only: false,
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(row.entries[0].cells.len(), 2);
        // Direction check: disk -> mem is rejected.
        assert!(t.age_transfer("disk", "mem", Timestamp(99)).is_err());
    }

    #[test]
    fn metrics_count_reads_and_writes() {
        let t = table();
        let key = RowKey::from_u64(3);
        t.mutate_row(
            &key,
            &[Mutation::put("mem", "q", Timestamp(0), &b"abc"[..])],
        )
        .unwrap();
        let _ = t.get_latest(&key, "mem", "q").unwrap();
        let snap = t.metrics().snapshot();
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.read_ops, 1);
        assert!(snap.bytes_written >= 3);
    }
}
