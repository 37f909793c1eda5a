//! Typed wrappers around the three MOIST tables (§3.1).
//!
//! * **Location Table** — keyed by OID; one in-memory column of recent
//!   timestamped location records plus a disk column for aged records.
//! * **Spatial Index Table** — keyed by `leaf-cell-index ∥ OID`; one row per
//!   *leader*, valued with its latest location record. Composite keys make a
//!   cell a contiguous row range, so NN search and clustering read whole
//!   cells with one batch scan (§3.4.1).
//! * **Affiliation Table** — keyed by OID; the `L/F` column family holds the
//!   object's leader/follower record, the `Follower Info` family holds, on
//!   leader rows, one column per follower valued with the displacement
//!   `leader → follower`.
//!
//! One deliberate deviation from Figure 2: the paper stores Follower Info as
//! a single concatenated value; we store one column per follower in the same
//! row. Row-level atomicity and read cost are identical (BigTable returns
//! the whole row either way), but membership changes touch one column
//! instead of rewriting the concatenation.

use crate::codec::{
    decode_displacement, encode_displacement, follower_qualifier, parse_follower_qualifier,
    LfRecord, LocationRecord,
};
use crate::config::{table_names, MoistConfig};
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use moist_bigtable::{
    Bigtable, ColumnFamily, Mutation, OwnedRow, ReadOptions, RowKey, RowMutation, ScanRange,
    Session, Table, TableSchema, Timestamp,
};
use moist_spatial::{CellId, Displacement};
use std::sync::Arc;

/// Column family / qualifier names.
mod cols {
    /// Location Table: in-memory location-signal family.
    pub const LOC_MEM: &str = "loc";
    /// Location Table: disk family for aged records.
    pub const LOC_DISK: &str = "loc_disk";
    /// Location Table: record qualifier.
    pub const LOC_Q: &str = "r";
    /// Spatial Index Table: id family.
    pub const SPATIAL: &str = "id";
    /// Spatial Index Table: record qualifier.
    pub const SPATIAL_Q: &str = "r";
    /// Affiliation Table: in-memory L/F family.
    pub const LF_MEM: &str = "lf";
    /// Affiliation Table: disk L/F family (aged records).
    pub const LF_DISK: &str = "lf_disk";
    /// Affiliation Table: L/F qualifier.
    pub const LF_Q: &str = "lf";
    /// Affiliation Table: Follower Info family.
    pub const FOLLOWERS: &str = "followers";
}

/// The Location Table cell write: one timestamped record.
fn location_put(rec: &LocationRecord, ts: Timestamp) -> Mutation {
    Mutation::put(cols::LOC_MEM, cols::LOC_Q, ts, rec.encode().to_vec())
}

/// The Spatial Index cell write: a leader's latest record.
fn spatial_put(rec: &LocationRecord, ts: Timestamp) -> Mutation {
    Mutation::put(cols::SPATIAL, cols::SPATIAL_Q, ts, rec.encode().to_vec())
}

/// The Affiliation Table cell write: an L/F record landing at exactly `ts`.
fn lf_put(lf: &LfRecord, ts: Timestamp) -> Mutation {
    Mutation::put(cols::LF_MEM, cols::LF_Q, ts, lf.encode())
}

/// The Follower Info cell write: `follower`'s displacement from its leader.
fn follower_put(follower: ObjectId, disp: Displacement, ts: Timestamp) -> Mutation {
    Mutation::put(
        cols::FOLLOWERS,
        follower_qualifier(follower),
        ts,
        encode_displacement(disp).to_vec(),
    )
}

/// Decodes a leader row's Follower Info family.
fn decode_followers(row: Option<OwnedRow>) -> Result<Vec<(ObjectId, Displacement)>> {
    let mut out = Vec::new();
    if let Some(row) = row {
        for entry in row.family(cols::FOLLOWERS) {
            let oid = parse_follower_qualifier(&entry.qualifier)?;
            let disp = decode_displacement(&entry.cells[0].value)?;
            out.push((oid, disp));
        }
    }
    Ok(out)
}

/// Handles to the three tables.
#[derive(Clone)]
pub struct MoistTables {
    /// The Location Table.
    pub location: Arc<Table>,
    /// The Spatial Index Table.
    pub spatial: Arc<Table>,
    /// The Affiliation Table.
    pub affiliation: Arc<Table>,
}

impl MoistTables {
    /// Creates the three tables in `store` (errors if any already exists).
    pub fn create(store: &Arc<Bigtable>, cfg: &MoistConfig) -> Result<Self> {
        cfg.validate()?;
        let location = store.create_table(TableSchema::new(
            table_names::LOCATION,
            vec![
                ColumnFamily::in_memory(cols::LOC_MEM, cfg.memory_records_per_object.max(1)),
                ColumnFamily::on_disk(cols::LOC_DISK, usize::MAX),
            ],
        )?)?;
        let spatial = store.create_table(TableSchema::new(
            table_names::SPATIAL_INDEX,
            vec![ColumnFamily::in_memory(cols::SPATIAL, 1)],
        )?)?;
        let affiliation = store.create_table(TableSchema::new(
            table_names::AFFILIATION,
            vec![
                ColumnFamily::in_memory(cols::LF_MEM, 1),
                ColumnFamily::on_disk(cols::LF_DISK, usize::MAX),
                ColumnFamily::in_memory(cols::FOLLOWERS, 1),
            ],
        )?)?;
        Ok(MoistTables {
            location,
            spatial,
            affiliation,
        })
    }

    /// Opens tables previously created by [`MoistTables::create`].
    pub fn open(store: &Arc<Bigtable>) -> Result<Self> {
        Ok(MoistTables {
            location: store.open_table(table_names::LOCATION)?,
            spatial: store.open_table(table_names::SPATIAL_INDEX)?,
            affiliation: store.open_table(table_names::AFFILIATION)?,
        })
    }

    // ---------- Location Table ----------

    /// Appends a timestamped location record for `oid`.
    pub fn put_location(
        &self,
        s: &mut Session,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.location,
            &RowKey::from_u64(oid.0),
            &[location_put(rec, ts)],
        )?;
        Ok(())
    }

    /// Latest location record of `oid` with its timestamp.
    pub fn latest_location(
        &self,
        s: &mut Session,
        oid: ObjectId,
    ) -> Result<Option<(Timestamp, LocationRecord)>> {
        match s.get_latest(
            &self.location,
            &RowKey::from_u64(oid.0),
            cols::LOC_MEM,
            cols::LOC_Q,
        )? {
            None => Ok(None),
            Some(cell) => Ok(Some((cell.ts, LocationRecord::decode(&cell.value)?))),
        }
    }

    /// Batch-fetches the latest location records of many objects.
    pub(crate) fn batch_latest_locations(
        &self,
        s: &mut Session,
        oids: &[ObjectId],
    ) -> Result<Vec<Option<(Timestamp, LocationRecord)>>> {
        let keys: Vec<RowKey> = oids.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.location,
            &keys,
            &ReadOptions::latest_in(cols::LOC_MEM),
        )?;
        rows.into_iter()
            .map(|row| match row {
                None => Ok(None),
                Some(r) => match r.latest(cols::LOC_MEM, cols::LOC_Q) {
                    None => Ok(None),
                    Some(cell) => Ok(Some((cell.ts, LocationRecord::decode(&cell.value)?))),
                },
            })
            .collect()
    }

    /// Moves location records older than `cutoff` to the disk column
    /// (aged-data treatment, §3.1.2).
    pub(crate) fn age_locations(&self, cutoff: Timestamp) -> Result<usize> {
        Ok(self
            .location
            .age_transfer(cols::LOC_MEM, cols::LOC_DISK, cutoff)?)
    }

    // ---------- Spatial Index Table ----------

    fn spatial_key(leaf_index: u64, oid: ObjectId) -> RowKey {
        RowKey::composite(leaf_index, oid.0)
    }

    /// Inserts (or refreshes) a leader's entry under `leaf_index`.
    pub fn spatial_insert(
        &self,
        s: &mut Session,
        leaf_index: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.spatial,
            &Self::spatial_key(leaf_index, oid),
            &[spatial_put(rec, ts)],
        )?;
        Ok(())
    }

    /// Moves a leader's entry between cells in one batch RPC (delete old row
    /// + put new row — Algorithm 1, line 3).
    pub(crate) fn spatial_move(
        &self,
        s: &mut Session,
        old_leaf: u64,
        new_leaf: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<()> {
        let put = RowMutation::new(Self::spatial_key(new_leaf, oid), vec![spatial_put(rec, ts)]);
        if old_leaf == new_leaf {
            s.mutate_rows(&self.spatial, &[put])?;
        } else {
            let del = RowMutation::new(Self::spatial_key(old_leaf, oid), vec![Mutation::DeleteRow]);
            s.mutate_rows(&self.spatial, &[del, put])?;
        }
        Ok(())
    }

    /// All leaders inside `cell` (any level): one contiguous range scan over
    /// the cell's descendant leaf range.
    pub fn spatial_scan_cell(
        &self,
        s: &mut Session,
        cell: CellId,
        leaf_level: u8,
        limit: Option<usize>,
    ) -> Result<Vec<SpatialEntry>> {
        let (start, end) = cell
            .descendant_range(leaf_level)
            .ok_or(MoistError::Codec("cell finer than leaf level"))?;
        self.spatial_scan_range(s, start, end, limit)
    }

    /// All leaders in the contiguous leaf-index range `[start, end)` —
    /// one scan RPC (region queries scan merged ranges directly).
    pub(crate) fn spatial_scan_range(
        &self,
        s: &mut Session,
        start: u64,
        end: u64,
        limit: Option<usize>,
    ) -> Result<Vec<SpatialEntry>> {
        let rows = s.scan(
            &self.spatial,
            &ScanRange::between(RowKey::composite(start, 0), RowKey::composite(end, 0)),
            &ReadOptions::latest_in(cols::SPATIAL),
            limit,
        )?;
        rows.into_iter()
            .map(|row| {
                let (leaf, oid) = row
                    .key
                    .split_composite()
                    .ok_or(MoistError::Codec("malformed spatial key"))?;
                let cell = row
                    .latest(cols::SPATIAL, cols::SPATIAL_Q)
                    .ok_or(MoistError::Codec("spatial row without record"))?;
                Ok(SpatialEntry {
                    leaf_index: leaf,
                    oid: ObjectId(oid),
                    record: LocationRecord::decode(&cell.value)?,
                    ts: cell.ts,
                })
            })
            .collect()
    }

    /// Number of leaders inside `cell` (a charged scan; FLAG's `m`).
    pub(crate) fn spatial_count_cell(
        &self,
        s: &mut Session,
        cell: CellId,
        leaf_level: u8,
    ) -> Result<usize> {
        Ok(self.spatial_scan_cell(s, cell, leaf_level, None)?.len())
    }

    /// Atomically deletes a scanned leader's spatial row *only if* it
    /// still holds exactly the scanned record — the store's
    /// check-and-mutate under one tablet write lock. This is the commit
    /// point of a school merge: if the object updated or moved between
    /// the clustering scan and the commit, the row's value changed (or
    /// the row is gone), the guard fails, and the caller aborts that
    /// object's merge instead of demoting a live leader.
    pub(crate) fn spatial_check_and_delete(
        &self,
        s: &mut Session,
        entry: &SpatialEntry,
    ) -> Result<bool> {
        let expected = entry.record.encode();
        self.spatial_check_and_delete_value(s, entry.leaf_index, entry.oid, expected.as_ref())
    }

    /// Moves a leader's entry between leaves **guarded**: the old row is
    /// deleted only if it is still present with its current value (one
    /// check-and-mutate under the tablet lock), and the new row is
    /// written only after winning that delete. Returns `false` — nothing
    /// written — when the old row is gone or changed: a clustering merge
    /// absorbed the object concurrently (its commit deletes the row
    /// through the same guard, see
    /// [`spatial_check_and_delete`](MoistTables::spatial_check_and_delete)),
    /// and rewriting the entry would resurrect an absorbed leader. The
    /// old spatial row is thus the *mutual-exclusion point* between a
    /// cross-cell move and the old cell's merge: exactly one of the two
    /// deletes it, and the loser backs off.
    pub(crate) fn spatial_move_guarded(
        &self,
        s: &mut Session,
        old_leaf: u64,
        new_leaf: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<bool> {
        let old_key = Self::spatial_key(old_leaf, oid);
        let Some(cell) = s.get_latest(&self.spatial, &old_key, cols::SPATIAL, cols::SPATIAL_Q)?
        else {
            return Ok(false);
        };
        if !s.check_and_mutate(
            &self.spatial,
            &old_key,
            cols::SPATIAL,
            cols::SPATIAL_Q,
            Some(&cell.value),
            &[Mutation::DeleteRow],
        )? {
            return Ok(false);
        }
        self.spatial_insert(s, new_leaf, oid, rec, ts)?;
        Ok(true)
    }

    // ---------- Affiliation Table ----------

    /// The L/F record of `oid` (None for never-seen objects).
    pub fn lf(&self, s: &mut Session, oid: ObjectId) -> Result<Option<LfRecord>> {
        match s.get_latest(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
        )? {
            None => Ok(None),
            Some(cell) => Ok(Some(LfRecord::decode(&cell.value)?)),
        }
    }

    /// Batch-fetches L/F records *with their head timestamps* for the
    /// batched apply path. The head timestamp lets the batch clamp a
    /// deferred superseding L/F write locally (the same rule as
    /// [`lf_supersede_ts`](Self::lf_supersede_ts)) without a per-row
    /// re-read, valid because the batch holds the routing key's shard
    /// lock and the cross-shard writers that could move the head are
    /// excluded by the spatial-row guard it wins first.
    pub(crate) fn batch_lf_versions(
        &self,
        s: &mut Session,
        oids: &[ObjectId],
    ) -> Result<Vec<Option<(Timestamp, LfRecord)>>> {
        let keys: Vec<RowKey> = oids.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.affiliation,
            &keys,
            &ReadOptions::latest_in(cols::LF_MEM),
        )?;
        rows.into_iter()
            .map(|row| match row {
                None => Ok(None),
                Some(r) => match r.latest(cols::LF_MEM, cols::LF_Q) {
                    None => Ok(None),
                    Some(cell) => Ok(Some((cell.ts, LfRecord::decode(&cell.value)?))),
                },
            })
            .collect()
    }

    /// Batch-fetches the raw spatial-row values of many `(leaf, oid)`
    /// entries at once — the batched apply path's prefetch for guarded
    /// cross-cell moves. The returned bytes are exactly what a subsequent
    /// `check_and_mutate` must present as its expected value.
    pub(crate) fn batch_spatial_values(
        &self,
        s: &mut Session,
        entries: &[(u64, ObjectId)],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let keys: Vec<RowKey> = entries
            .iter()
            .map(|&(leaf, oid)| Self::spatial_key(leaf, oid))
            .collect();
        let rows = s.batch_get(&self.spatial, &keys, &ReadOptions::latest_in(cols::SPATIAL))?;
        Ok(rows
            .into_iter()
            .map(|row| {
                row.and_then(|r| {
                    r.latest(cols::SPATIAL, cols::SPATIAL_Q)
                        .map(|cell| cell.value.to_vec())
                })
            })
            .collect())
    }

    /// Atomically deletes the spatial row `(leaf, oid)` *only if* it still
    /// holds exactly `expected` — the batched apply path's half of
    /// [`spatial_move_guarded`](Self::spatial_move_guarded), with the
    /// current-value read amortized into a prior
    /// [`batch_spatial_values`](Self::batch_spatial_values) prefetch.
    /// Returns `false` when the row is gone or changed (a clustering
    /// merge won the race); the caller must then skip the superseded
    /// spatial rewrite.
    pub(crate) fn spatial_check_and_delete_value(
        &self,
        s: &mut Session,
        leaf_index: u64,
        oid: ObjectId,
        expected: &[u8],
    ) -> Result<bool> {
        Ok(s.check_and_mutate(
            &self.spatial,
            &Self::spatial_key(leaf_index, oid),
            cols::SPATIAL,
            cols::SPATIAL_Q,
            Some(expected),
            &[Mutation::DeleteRow],
        )?)
    }

    /// Applies a deferred [`WriteBatch`]: at most one multi-row RPC per
    /// touched table, so the store's batch discount (rpc base charged
    /// once per table, per-row cost at batch rates) is actually
    /// exercised. Returns the number of rows written and leaves the
    /// batch empty.
    pub(crate) fn flush_write_batch(&self, s: &mut Session, wb: &mut WriteBatch) -> Result<usize> {
        let mut rows = 0;
        if !wb.location.is_empty() {
            rows += s.mutate_rows(&self.location, &wb.location)?;
            wb.location.clear();
        }
        if !wb.spatial.is_empty() {
            rows += s.mutate_rows(&self.spatial, &wb.spatial)?;
            wb.spatial.clear();
        }
        if !wb.affiliation.is_empty() {
            rows += s.mutate_rows(&self.affiliation, &wb.affiliation)?;
            wb.affiliation.clear();
        }
        Ok(rows)
    }

    /// Writes the L/F record of `oid`. The write lands at a clamped
    /// timestamp (`lf_supersede_ts`): an L/F
    /// write always supersedes the current record, even when the writer's
    /// virtual clock trails a clustering tick that stamped the head far
    /// ahead of it.
    pub fn set_lf(
        &self,
        s: &mut Session,
        oid: ObjectId,
        lf: &LfRecord,
        ts: Timestamp,
    ) -> Result<()> {
        let ts = self.lf_supersede_ts(s, oid, ts)?;
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            &[lf_put(lf, ts)],
        )?;
        Ok(())
    }

    /// Timestamp at which a *superseding* L/F write must land to become
    /// the row's newest version.
    ///
    /// L/F records are a state machine — only the latest matters — but the
    /// store orders cell versions by timestamp, and the tier's actors run
    /// on skewed virtual clocks: a clustering tick can stamp a record far
    /// ahead of the object's own report clock. A transition written at the
    /// object's (older) clock would land *behind* the head version — or be
    /// truncated away outright — and every read would keep resurrecting
    /// the superseded affiliation. Clamping to just past the head keeps
    /// the version order equal to the commit order.
    fn lf_supersede_ts(&self, s: &mut Session, oid: ObjectId, ts: Timestamp) -> Result<Timestamp> {
        let head = s.get_latest(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
        )?;
        Ok(match head {
            Some(cell) if cell.ts >= ts => Timestamp(cell.ts.0 + 1),
            _ => ts,
        })
    }

    /// Atomically replaces `oid`'s L/F record *only if* it still equals
    /// `expected` (the store's check-and-mutate). The clustering merge
    /// re-affiliates an absorbed leader's followers through this guard: a
    /// follower that promoted concurrently (its update rewrote the record
    /// on another shard) fails the check and keeps its self-chosen
    /// affiliation. The replacement lands at a clamped timestamp
    /// ([`lf_supersede_ts`](Self::lf_supersede_ts)) so a writer with a
    /// lagging clock still supersedes the record it matched.
    pub(crate) fn lf_check_and_set(
        &self,
        s: &mut Session,
        oid: ObjectId,
        expected: &LfRecord,
        new: &LfRecord,
        ts: Timestamp,
    ) -> Result<bool> {
        let ts = self.lf_supersede_ts(s, oid, ts)?;
        Ok(s.check_and_mutate(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
            Some(&expected.encode()),
            &[lf_put(new, ts)],
        )?)
    }

    /// The Follower Info of a leader: each follower with its displacement.
    pub fn followers(
        &self,
        s: &mut Session,
        leader: ObjectId,
    ) -> Result<Vec<(ObjectId, Displacement)>> {
        decode_followers(s.get_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &ReadOptions::latest_in(cols::FOLLOWERS),
        )?)
    }

    /// Batch-fetches the Follower Info of many leaders at once.
    pub(crate) fn batch_followers(
        &self,
        s: &mut Session,
        leaders: &[ObjectId],
    ) -> Result<Vec<Vec<(ObjectId, Displacement)>>> {
        let keys: Vec<RowKey> = leaders.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.affiliation,
            &keys,
            &ReadOptions::latest_in(cols::FOLLOWERS),
        )?;
        rows.into_iter().map(decode_followers).collect()
    }

    /// Adds `follower` to `leader`'s Follower Info.
    pub(crate) fn add_follower(
        &self,
        s: &mut Session,
        leader: ObjectId,
        follower: ObjectId,
        disp: Displacement,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &[follower_put(follower, disp, ts)],
        )?;
        Ok(())
    }

    /// Builds (without applying) the add-follower mutation.
    pub(crate) fn add_follower_mutation(
        leader: ObjectId,
        follower: ObjectId,
        disp: Displacement,
        ts: Timestamp,
    ) -> RowMutation {
        RowMutation::new(
            RowKey::from_u64(leader.0),
            vec![follower_put(follower, disp, ts)],
        )
    }

    /// Removes `follower` from `leader`'s Follower Info.
    pub(crate) fn remove_follower(
        &self,
        s: &mut Session,
        leader: ObjectId,
        follower: ObjectId,
    ) -> Result<()> {
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &[Mutation::delete_column(
                cols::FOLLOWERS,
                follower_qualifier(follower),
            )],
        )?;
        Ok(())
    }

    /// Builds a mutation clearing a leader's whole Follower Info (used when
    /// the leader is merged into another school).
    pub(crate) fn clear_followers_mutation(leader: ObjectId) -> RowMutation {
        RowMutation::new(
            RowKey::from_u64(leader.0),
            vec![Mutation::DeleteFamily {
                family: cols::FOLLOWERS.into(),
            }],
        )
    }

    /// Applies a prepared affiliation batch (clustering write phase).
    pub(crate) fn affiliation_batch(
        &self,
        s: &mut Session,
        batch: &[RowMutation],
    ) -> Result<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        Ok(s.mutate_rows(&self.affiliation, batch)?)
    }

    /// Moves aged L/F records to the disk family (§3.1.1).
    pub(crate) fn age_affiliations(&self, cutoff: Timestamp) -> Result<usize> {
        Ok(self
            .affiliation
            .age_transfer(cols::LF_MEM, cols::LF_DISK, cutoff)?)
    }
}

/// A deferred write buffer for the batched apply path: plain (unguarded)
/// row writes accumulate here and land later via
/// [`MoistTables::flush_write_batch`] as one multi-row RPC per table.
///
/// Only writes whose rows no concurrent actor can touch may be deferred —
/// the batch holds the routing key's shard lock, every buffered row is
/// keyed by an OID this batch owns exclusively (enforced by the caller's
/// dirty-set), and guarded check-and-mutate commits (the cross-shard
/// mutual-exclusion points) are never buffered. Deferral therefore
/// reorders only writes to disjoint rows, and every mutation carries its
/// own explicit timestamp, so the final store state is identical to the
/// synchronous path's.
#[derive(Debug, Default)]
pub(crate) struct WriteBatch {
    location: Vec<RowMutation>,
    spatial: Vec<RowMutation>,
    affiliation: Vec<RowMutation>,
}

impl WriteBatch {
    /// An empty batch.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.location.is_empty() && self.spatial.is_empty() && self.affiliation.is_empty()
    }

    /// Defers [`MoistTables::put_location`].
    pub(crate) fn put_location(&mut self, oid: ObjectId, rec: &LocationRecord, ts: Timestamp) {
        self.location.push(RowMutation::new(
            RowKey::from_u64(oid.0),
            vec![location_put(rec, ts)],
        ));
    }

    /// Defers [`MoistTables::spatial_insert`] (also the same-leaf refresh
    /// half of `spatial_move` — a plain overwrite of the row this batch's
    /// shard lock already serializes against the cell's clustering).
    pub(crate) fn spatial_insert(
        &mut self,
        leaf_index: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) {
        self.spatial.push(RowMutation::new(
            MoistTables::spatial_key(leaf_index, oid),
            vec![spatial_put(rec, ts)],
        ));
    }

    /// Defers an L/F write landing at exactly `ts`. The caller is
    /// responsible for supersede-clamping: pass the raw report time for a
    /// first-sight registration (no head version exists) or a timestamp
    /// already clamped past the prefetched head (see
    /// [`MoistTables::batch_lf_versions`]).
    pub(crate) fn set_lf_at(&mut self, oid: ObjectId, lf: &LfRecord, ts: Timestamp) {
        self.affiliation.push(RowMutation::new(
            RowKey::from_u64(oid.0),
            vec![lf_put(lf, ts)],
        ));
    }
}

/// One decoded Spatial Index Table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialEntry {
    /// Leaf cell the leader is filed under.
    pub leaf_index: u64,
    /// The leader's id.
    pub oid: ObjectId,
    /// The leader's location record at its last update.
    pub record: LocationRecord,
    /// Timestamp of that update.
    pub ts: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_bigtable::CostProfile;
    use moist_spatial::{Point, Velocity};

    fn setup() -> (Arc<Bigtable>, MoistTables, Session) {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session)
    }

    fn rec(x: f64, y: f64, leaf: u64) -> LocationRecord {
        LocationRecord {
            loc: Point::new(x, y),
            vel: Velocity::new(1.0, 0.0),
            leaf_index: leaf,
        }
    }

    #[test]
    fn create_twice_fails_open_succeeds() {
        let (store, _t, _s) = setup();
        assert!(MoistTables::create(&store, &MoistConfig::default()).is_err());
        assert!(MoistTables::open(&store).is_ok());
    }

    #[test]
    fn latest_location_is_the_newest_of_out_of_order_writes() {
        let (_store, t, mut s) = setup();
        let oid = ObjectId(5);
        for ts in [1u64, 3, 2] {
            t.put_location(&mut s, oid, &rec(ts as f64, 0.0, 9), Timestamp(ts))
                .unwrap();
        }
        let (ts, latest) = t.latest_location(&mut s, oid).unwrap().unwrap();
        assert_eq!(ts, Timestamp(3));
        assert_eq!(latest.loc.x, 3.0);
        assert!(t.latest_location(&mut s, ObjectId(99)).unwrap().is_none());
    }

    #[test]
    fn batch_latest_locations_aligns_with_input() {
        let (_store, t, mut s) = setup();
        t.put_location(&mut s, ObjectId(1), &rec(1.0, 0.0, 0), Timestamp(1))
            .unwrap();
        t.put_location(&mut s, ObjectId(3), &rec(3.0, 0.0, 0), Timestamp(1))
            .unwrap();
        let got = t
            .batch_latest_locations(&mut s, &[ObjectId(1), ObjectId(2), ObjectId(3)])
            .unwrap();
        assert!(got[0].is_some() && got[1].is_none() && got[2].is_some());
        assert_eq!(got[2].unwrap().1.loc.x, 3.0);
    }

    #[test]
    fn spatial_insert_scan_move_remove() {
        let (_store, t, mut s) = setup();
        let cfg = MoistConfig::default();
        let leaf_level = cfg.space.leaf_level;
        let p = Point::new(100.0, 100.0);
        let leaf = cfg.space.leaf_cell(&p).index;
        t.spatial_insert(
            &mut s,
            leaf,
            ObjectId(7),
            &rec(100.0, 100.0, leaf),
            Timestamp(1),
        )
        .unwrap();
        // Scan the enclosing clustering cell.
        let cc = cfg.space.cell_at(cfg.clustering_level, &p);
        let entries = t.spatial_scan_cell(&mut s, cc, leaf_level, None).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].oid, ObjectId(7));
        assert_eq!(entries[0].leaf_index, leaf);
        // Move to another cell.
        let p2 = Point::new(900.0, 900.0);
        let leaf2 = cfg.space.leaf_cell(&p2).index;
        t.spatial_move(
            &mut s,
            leaf,
            leaf2,
            ObjectId(7),
            &rec(900.0, 900.0, leaf2),
            Timestamp(2),
        )
        .unwrap();
        assert!(t
            .spatial_scan_cell(&mut s, cc, leaf_level, None)
            .unwrap()
            .is_empty());
        let cc2 = cfg.space.cell_at(cfg.clustering_level, &p2);
        assert_eq!(t.spatial_count_cell(&mut s, cc2, leaf_level).unwrap(), 1);
        let moved = t.spatial_scan_cell(&mut s, cc2, leaf_level, None).unwrap();
        assert!(t.spatial_check_and_delete(&mut s, &moved[0]).unwrap());
        assert_eq!(t.spatial_count_cell(&mut s, cc2, leaf_level).unwrap(), 0);
    }

    #[test]
    fn lf_and_followers_roundtrip() {
        let (_store, t, mut s) = setup();
        let leader = ObjectId(4);
        let f1 = ObjectId(2);
        let f2 = ObjectId(7);
        t.set_lf(
            &mut s,
            leader,
            &LfRecord::Leader {
                since_us: 1,
                last_leaf: 0,
            },
            Timestamp(1),
        )
        .unwrap();
        let d1 = Displacement::new(1.0, 0.0);
        let d2 = Displacement::new(0.0, 2.0);
        t.add_follower(&mut s, leader, f1, d1, Timestamp(1))
            .unwrap();
        t.add_follower(&mut s, leader, f2, d2, Timestamp(1))
            .unwrap();
        t.set_lf(
            &mut s,
            f1,
            &LfRecord::Follower {
                leader,
                displacement: d1,
                since_us: 1,
            },
            Timestamp(1),
        )
        .unwrap();
        assert!(t.lf(&mut s, leader).unwrap().unwrap().is_leader());
        assert!(!t.lf(&mut s, f1).unwrap().unwrap().is_leader());
        assert!(t.lf(&mut s, ObjectId(42)).unwrap().is_none());
        let mut followers = t.followers(&mut s, leader).unwrap();
        followers.sort_by_key(|(o, _)| o.0);
        assert_eq!(followers, vec![(f1, d1), (f2, d2)]);
        t.remove_follower(&mut s, leader, f1).unwrap();
        assert_eq!(t.followers(&mut s, leader).unwrap().len(), 1);
        // Clear the rest via the batch mutation builder.
        t.affiliation_batch(&mut s, &[MoistTables::clear_followers_mutation(leader)])
            .unwrap();
        assert!(t.followers(&mut s, leader).unwrap().is_empty());
        // L/F record survives the follower-family clear.
        assert!(t.lf(&mut s, leader).unwrap().is_some());
    }

    #[test]
    fn batch_lf_and_batch_followers() {
        let (_store, t, mut s) = setup();
        t.set_lf(
            &mut s,
            ObjectId(1),
            &LfRecord::Leader {
                since_us: 0,
                last_leaf: 0,
            },
            Timestamp(0),
        )
        .unwrap();
        t.add_follower(
            &mut s,
            ObjectId(1),
            ObjectId(9),
            Displacement::ZERO,
            Timestamp(0),
        )
        .unwrap();
        let lfs = t
            .batch_lf_versions(&mut s, &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(lfs[0].is_some() && lfs[1].is_none());
        let fols = t
            .batch_followers(&mut s, &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert_eq!(fols[0].len(), 1);
        assert!(fols[1].is_empty());
    }

    #[test]
    fn write_batch_flush_lands_identical_rows() {
        let (_store, t, mut s) = setup();
        let r = rec(10.0, 20.0, 3);
        let mut wb = WriteBatch::new();
        assert!(wb.is_empty());
        wb.put_location(ObjectId(1), &r, Timestamp(5));
        wb.spatial_insert(3, ObjectId(1), &r, Timestamp(5));
        wb.set_lf_at(
            ObjectId(1),
            &LfRecord::Leader {
                since_us: 5,
                last_leaf: 3,
            },
            Timestamp(5),
        );
        assert!(!wb.is_empty());
        let written = t.flush_write_batch(&mut s, &mut wb).unwrap();
        assert_eq!(written, 3);
        assert!(wb.is_empty(), "flush must leave the batch reusable");
        // The rows read back exactly as the synchronous writers would
        // have left them.
        let (ts, got) = t.latest_location(&mut s, ObjectId(1)).unwrap().unwrap();
        assert_eq!((ts, got.loc), (Timestamp(5), r.loc));
        assert!(t.lf(&mut s, ObjectId(1)).unwrap().unwrap().is_leader());
        let heads = t
            .batch_lf_versions(&mut s, &[ObjectId(1), ObjectId(9)])
            .unwrap();
        assert_eq!(heads[0].as_ref().unwrap().0, Timestamp(5));
        assert!(heads[1].is_none());
        let vals = t
            .batch_spatial_values(&mut s, &[(3, ObjectId(1)), (4, ObjectId(1))])
            .unwrap();
        assert_eq!(vals[0].as_deref(), Some(r.encode().as_ref()));
        assert!(vals[1].is_none());
        // The guarded delete against the prefetched value wins exactly
        // once.
        let expected = vals[0].clone().unwrap();
        assert!(t
            .spatial_check_and_delete_value(&mut s, 3, ObjectId(1), &expected)
            .unwrap());
        assert!(!t
            .spatial_check_and_delete_value(&mut s, 3, ObjectId(1), &expected)
            .unwrap());
    }

    #[test]
    fn aging_moves_records_to_disk_families() {
        let (_store, t, mut s) = setup();
        let oid = ObjectId(1);
        t.put_location(&mut s, oid, &rec(0.0, 0.0, 0), Timestamp::from_secs(1))
            .unwrap();
        t.put_location(&mut s, oid, &rec(1.0, 0.0, 0), Timestamp::from_secs(100))
            .unwrap();
        let moved = t.age_locations(Timestamp::from_secs(50)).unwrap();
        assert_eq!(moved, 1);
        // Latest (hot) record still served from memory.
        let (_, latest) = t.latest_location(&mut s, oid).unwrap().unwrap();
        assert_eq!(latest.loc.x, 1.0);
        t.set_lf(
            &mut s,
            oid,
            &LfRecord::Leader {
                since_us: 0,
                last_leaf: 0,
            },
            Timestamp(0),
        )
        .unwrap();
        let aged = t.age_affiliations(Timestamp::from_secs(50)).unwrap();
        assert_eq!(aged, 1);
    }
}
