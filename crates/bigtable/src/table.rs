//! Table API: reads, atomic row mutations, batch mutations and range scans.

use crate::error::{BigtableError, Result};
use crate::metrics::Metrics;
use crate::schema::TableSchema;
use crate::tablet::{RowStorage, TabletSet};
use crate::types::{Cell, Locality, RowKey, Timestamp};
use crate::wal::{self, WalRecord, WalWriter};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// A single change to one row. Mutations within a [`RowMutation`] apply
/// atomically (BigTable guarantees single-row atomicity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Writes one timestamped cell.
    Put {
        /// Column family name.
        family: String,
        /// Column qualifier.
        qualifier: String,
        /// Cell timestamp.
        ts: Timestamp,
        /// Cell value.
        value: Bytes,
    },
    /// Deletes all versions of one column.
    DeleteColumn {
        /// Column family name.
        family: String,
        /// Column qualifier.
        qualifier: String,
    },
    /// Deletes all columns of one family in the row.
    DeleteFamily {
        /// Column family name.
        family: String,
    },
    /// Deletes the entire row.
    DeleteRow,
}

impl Mutation {
    /// Convenience constructor for a put.
    pub fn put(
        family: impl Into<String>,
        qualifier: impl Into<String>,
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
    pub fn delete_column(family: impl Into<String>, qualifier: impl Into<String>) -> Self {
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
    pub fn payload_bytes(&self) -> usize {
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

    /// All keys starting with `prefix`.
    pub fn prefix(prefix: RowKey) -> Self {
        let end = prefix.prefix_successor();
        ScanRange { start: prefix, end }
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
    pub fn wal_fsync_every(&self) -> Option<u64> {
        self.wal_fsync_every
    }

    /// Appends one framed record and returns the held lock so the caller's
    /// in-memory apply stays inside the WAL critical section.
    fn wal_append_with(
        &self,
        payload: impl FnOnce() -> Vec<u8>,
    ) -> Result<Option<MutexGuard<'_, WalWriter>>> {
        match &self.wal {
            None => Ok(None),
            Some(wal) => {
                let mut w = wal.lock();
                let info = w.append(&payload())?;
                self.metrics.record_wal_append(info.bytes, info.fsynced);
                Ok(Some(w))
            }
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's metrics counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
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
        for tablet in self.tablets.route_range(&RowKey::MIN, None) {
            let rows = tablet.rows.read();
            total += rows.values().map(|r| r.cell_count()).sum::<usize>();
        }
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
        let tablet = self.tablets.route(key);
        let rows = tablet.rows.read();
        let row = match rows.get(key) {
            Some(r) => r,
            None => {
                self.metrics.record_read(1, 0, 0);
                return Ok(None);
            }
        };
        let owned = self.materialize(key, row, &family_filter, opts.latest_only);
        self.metrics
            .record_read(1, 1, owned.as_ref().map_or(0, |r| r.payload_bytes() as u64));
        Ok(owned)
    }

    /// Latest cell of `family:qualifier` in `key`'s row.
    pub fn get_latest(&self, key: &RowKey, family: &str, qualifier: &str) -> Result<Option<Cell>> {
        let fidx = self.family_checked(family)?;
        let tablet = self.tablets.route(key);
        let rows = tablet.rows.read();
        let cell = rows
            .get(key)
            .and_then(|r| r.families[fidx].get(qualifier))
            .and_then(|versions| versions.first())
            .cloned();
        self.metrics.record_read(
            1,
            u64::from(cell.is_some()),
            cell.as_ref().map_or(0, |c| c.value.len() as u64),
        );
        Ok(cell)
    }

    /// Applies mutations to one row atomically.
    pub fn mutate_row(&self, key: &RowKey, mutations: &[Mutation]) -> Result<()> {
        // Validate families before taking the lock so errors are side-effect
        // free.
        self.validate_mutations(mutations)?;
        let _wal = self.wal_append_with(|| wal::encode_rows(&[(key, mutations)]))?;
        let tablet = self.tablets.route(key);
        let delta = {
            let mut rows = tablet.rows.write();
            self.apply_to_row(&mut rows, key, mutations)
        };
        self.note_row_delta(delta);
        self.metrics
            .record_write(1, mutations.len() as u64, Self::mutation_bytes(mutations));
        self.tablets.maybe_split();
        Ok(())
    }

    /// Applies a batch of row mutations. Atomic per row, not across rows
    /// (exactly BigTable's contract). Returns the number of rows touched.
    ///
    /// Rows are grouped by tablet so the batch takes each tablet's write
    /// lock once — this is the "batch reading/writing" advantage §3.3.2's
    /// clustering leans on.
    pub fn mutate_rows(&self, batch: &[RowMutation]) -> Result<usize> {
        for rm in batch {
            self.validate_mutations(&rm.mutations)?;
        }
        let _wal = self.wal_append_with(|| {
            let rows: Vec<(&RowKey, &[Mutation])> = batch
                .iter()
                .map(|rm| (&rm.key, rm.mutations.as_slice()))
                .collect();
            wal::encode_rows(&rows)
        })?;
        let (total_muts, total_bytes) = self.apply_batch(batch);
        self.metrics.record_batch_write(total_muts, total_bytes);
        self.tablets.maybe_split();
        Ok(batch.len())
    }

    /// Groups a validated batch by tablet, applies it (one write lock per
    /// tablet group), and returns `(mutations, payload bytes)`. Shared by
    /// the live path and WAL replay.
    fn apply_batch(&self, batch: &[RowMutation]) -> (u64, u64) {
        let mut groups: HashMap<usize, (Arc<crate::tablet::Tablet>, Vec<&RowMutation>)> =
            HashMap::new();
        for rm in batch {
            let tablet = self.tablets.route(&rm.key);
            let id = Arc::as_ptr(&tablet) as usize;
            groups
                .entry(id)
                .or_insert_with(|| (tablet, Vec::new()))
                .1
                .push(rm);
        }
        let mut total_muts = 0u64;
        let mut total_bytes = 0u64;
        let mut total_delta = 0i64;
        for (_, (tablet, rms)) in groups {
            let mut rows = tablet.rows.write();
            for rm in rms {
                total_delta += self.apply_to_row(&mut rows, &rm.key, &rm.mutations);
                total_muts += rm.mutations.len() as u64;
                total_bytes += Self::mutation_bytes(&rm.mutations);
            }
        }
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
        self.validate_mutations(mutations)?;
        // WAL lock before tablet lock (the store-wide ordering): whether to
        // log is only known once the guard is evaluated under the row lock,
        // so the record is appended there — still before the apply.
        let mut wal_guard = self.wal.as_ref().map(|m| m.lock());
        let tablet = self.tablets.route(key);
        let (applied, delta) = {
            let mut rows = tablet.rows.write();
            let current: Option<Bytes> = rows
                .get(key)
                .and_then(|r| r.families[fidx].get(qualifier))
                .and_then(|versions| versions.first())
                .map(|c| c.value.clone());
            let matches = match (expected, &current) {
                (None, None) => true,
                (Some(e), Some(c)) => e == c.as_ref(),
                _ => false,
            };
            if matches {
                if let Some(w) = wal_guard.as_deref_mut() {
                    let info = w.append(&wal::encode_rows(&[(key, mutations)]))?;
                    self.metrics.record_wal_append(info.bytes, info.fsynced);
                }
                let delta = self.apply_to_row(&mut rows, key, mutations);
                (true, delta)
            } else {
                (false, 0)
            }
        };
        self.note_row_delta(delta);
        self.metrics.record_read(1, u64::from(applied), 0);
        if applied {
            self.metrics
                .record_write(1, mutations.len() as u64, Self::mutation_bytes(mutations));
            self.tablets.maybe_split();
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
        for key in keys {
            let tablet = self.tablets.route(key);
            let rows = tablet.rows.read();
            let owned = rows
                .get(key)
                .and_then(|r| self.materialize(key, r, &family_filter, opts.latest_only));
            if let Some(r) = &owned {
                rows_found += 1;
                bytes += r.payload_bytes() as u64;
            }
            out.push(owned);
        }
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
        let tablets = self.tablets.route_range(&range.start, range.end.as_ref());
        let mut bytes = 0u64;
        'outer: for tablet in tablets {
            let rows = tablet.rows.read();
            let iter: Box<dyn Iterator<Item = (&RowKey, &RowStorage)>> = match &range.end {
                Some(end) => Box::new(rows.range(range.start.clone()..end.clone())),
                None => Box::new(rows.range(range.start.clone()..)),
            };
            for (key, row) in iter {
                if let Some(owned) = self.materialize(key, row, &family_filter, opts.latest_only) {
                    bytes += owned.payload_bytes() as u64;
                    out.push(owned);
                    if out.len() >= limit {
                        break 'outer;
                    }
                }
            }
        }
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
        let _wal =
            self.wal_append_with(|| wal::encode_age_transfer(mem_family, disk_family, cutoff))?;
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
        for tablet in self.tablets.route_range(&RowKey::MIN, None) {
            let mut rows = tablet.rows.write();
            for row in rows.values_mut() {
                // Collect first to avoid borrowing families twice.
                let mut staged: Vec<(String, Cell)> = Vec::new();
                for (qual, versions) in row.families[mem_idx].iter_mut() {
                    let split = versions.partition_point(|c| c.ts > cutoff);
                    for cell in versions.drain(split..) {
                        staged.push((qual.clone(), cell));
                    }
                }
                row.families[mem_idx].retain(|_, v| !v.is_empty());
                moved += staged.len();
                for (qual, cell) in staged {
                    row.put(disk_idx, &qual, cell.ts, cell.value, disk_max);
                }
            }
        }
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
        let mut buf = wal::encode_schema(&self.schema);
        let count_pos = buf.len();
        wal::put_u64(&mut buf, 0); // patched below
        let mut n = 0u64;
        for tablet in self.tablets.route_range(&RowKey::MIN, None) {
            let rows = tablet.rows.read();
            for (key, row) in rows.iter() {
                n += 1;
                wal::put_bytes(&mut buf, &key.0);
                for fam in &row.families {
                    wal::put_u32(&mut buf, fam.len() as u32);
                    for (qual, versions) in fam {
                        wal::put_str(&mut buf, qual);
                        wal::put_u32(&mut buf, versions.len() as u32);
                        for c in versions {
                            wal::put_u64(&mut buf, c.ts.0);
                            wal::put_bytes(&mut buf, &c.value);
                        }
                    }
                }
            }
        }
        buf[count_pos..count_pos + 8].copy_from_slice(&n.to_le_bytes());
        buf
    }

    /// Loads the row section of a snapshot payload (the reader is
    /// positioned just past the schema). Recovery-only: the table is not
    /// yet shared, so direct tablet inserts are safe.
    pub(crate) fn load_snapshot_rows(&self, r: &mut wal::Reader<'_>) -> Result<u64> {
        let nrows = r.u64()?;
        let nfam = self.schema.families.len();
        for i in 0..nrows {
            let key = RowKey(r.bytes()?.to_vec());
            let mut row = RowStorage::with_families(nfam);
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
            let tablet = self.tablets.route(&key);
            tablet.rows.write().insert(key, row);
            self.note_row_delta(1);
            if i % 1024 == 1023 {
                self.tablets.maybe_split();
            }
        }
        self.tablets.maybe_split();
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
                for rm in &batch {
                    self.validate_mutations(&rm.mutations)?;
                }
                self.apply_batch(&batch);
                self.tablets.maybe_split();
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

    fn validate_mutations(&self, mutations: &[Mutation]) -> Result<()> {
        for m in mutations {
            match m {
                Mutation::Put { family, .. }
                | Mutation::DeleteColumn { family, .. }
                | Mutation::DeleteFamily { family } => {
                    self.family_checked(family)?;
                }
                Mutation::DeleteRow => {}
            }
        }
        Ok(())
    }

    /// Applies mutations under the tablet lock; returns the net change in
    /// row count (+1 created, −1 removed, 0 otherwise).
    fn apply_to_row(
        &self,
        rows: &mut std::collections::BTreeMap<RowKey, RowStorage>,
        key: &RowKey,
        mutations: &[Mutation],
    ) -> i64 {
        let nfam = self.schema.families.len();
        let existed = rows.contains_key(key);
        let row = rows
            .entry(key.clone())
            .or_insert_with(|| RowStorage::with_families(nfam));
        for m in mutations {
            match m {
                Mutation::Put {
                    family,
                    qualifier,
                    ts,
                    value,
                } => {
                    // Families were validated; index lookup cannot fail.
                    let (fidx, fam) = self.schema.family(family).expect("validated family");
                    row.put(fidx, qualifier, *ts, value.clone(), fam.max_versions);
                }
                Mutation::DeleteColumn { family, qualifier } => {
                    let (fidx, _) = self.schema.family(family).expect("validated family");
                    row.delete_column(fidx, qualifier);
                }
                Mutation::DeleteFamily { family } => {
                    let (fidx, _) = self.schema.family(family).expect("validated family");
                    row.delete_family(fidx);
                }
                Mutation::DeleteRow => {
                    for f in &mut row.families {
                        f.clear();
                    }
                }
            }
        }
        let empty_now = row.is_empty();
        if empty_now {
            rows.remove(key);
        }
        match (existed, empty_now) {
            (false, false) => 1,
            (true, true) => -1,
            _ => 0,
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
        for (fidx, fam) in self.schema.families.iter().enumerate() {
            if let Some(filter) = family_filter {
                if !filter.contains(&fidx) {
                    continue;
                }
            }
            for (qual, versions) in &row.families[fidx] {
                if versions.is_empty() {
                    continue;
                }
                let cells = if latest_only {
                    vec![versions[0].clone()]
                } else {
                    versions.clone()
                };
                entries.push(RowEntry {
                    family: fam.name.clone(),
                    qualifier: qual.clone(),
                    cells,
                });
            }
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

    fn mutation_bytes(mutations: &[Mutation]) -> u64 {
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
        let rows = t
            .scan(
                &ScanRange::prefix(RowKey::from_u64(6)),
                &ReadOptions::latest(),
                None,
            )
            .unwrap();
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
