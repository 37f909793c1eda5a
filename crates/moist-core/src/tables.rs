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
    Bigtable, Bytes, Cell, ColumnFamily, Mutation, OwnedRow, ReadOptions, RowKey, RowMutation,
    ScanRange, Session, Table, TableSchema, Timestamp,
};
use moist_spatial::{CellId, Displacement};
use std::sync::Arc;

/// Location records the Location Table keeps in memory per object, `m`
/// (§3.5).
const MEMORY_RECORDS_PER_OBJECT: usize = 8;

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

/// The one column of each table that holds a row's current record: the
/// cells Algorithm 1 reads and rewrites, so also the cells a batch fetches
/// ahead and writes behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordColumn {
    /// Location Table: an object's timestamped location records.
    Location,
    /// Spatial Index Table: a leader's latest location record.
    Spatial,
    /// Affiliation Table: an object's L/F record.
    Lf,
}

impl RecordColumn {
    fn names(self) -> (&'static str, &'static str) {
        match self {
            RecordColumn::Location => (cols::LOC_MEM, cols::LOC_Q),
            RecordColumn::Spatial => (cols::SPATIAL, cols::SPATIAL_Q),
            RecordColumn::Lf => (cols::LF_MEM, cols::LF_Q),
        }
    }

    /// The cell write: `value` as this column's version at exactly `ts`.
    fn put(self, ts: Timestamp, value: Bytes) -> Mutation {
        let (family, qualifier) = self.names();
        Mutation::put(family, qualifier, ts, value)
    }
}

/// Decodes a record cell, keeping the timestamp it was written at.
pub(crate) fn decode_cell<T>(
    cell: Option<&Cell>,
    decode: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<Option<(Timestamp, T)>> {
    cell.map(|c| Ok((c.ts, decode(&c.value)?))).transpose()
}

/// Timestamp at which a *superseding* L/F write must land to become the
/// row's newest version, given the row's current `head`.
///
/// L/F records are a state machine — only the latest matters — but the
/// store orders cell versions by timestamp, and the tier's actors run
/// on skewed virtual clocks: a clustering tick can stamp a record far
/// ahead of the object's own report clock. A transition written at the
/// object's (older) clock would land *behind* the head version — or be
/// truncated away outright — and every read would keep resurrecting
/// the superseded affiliation. Clamping to just past the head keeps
/// the version order equal to the commit order.
pub(crate) fn supersede_ts(head: Option<&Cell>, ts: Timestamp) -> Timestamp {
    match head {
        Some(cell) if cell.ts >= ts => Timestamp(cell.ts.0 + 1),
        _ => ts,
    }
}

/// The Follower Info cell write: `follower`'s displacement from its leader.
fn follower_put(follower: ObjectId, disp: Displacement, ts: Timestamp) -> Mutation {
    Mutation::put(
        cols::FOLLOWERS,
        follower_qualifier(follower),
        ts,
        Bytes::from(encode_displacement(disp)),
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
                ColumnFamily::in_memory(cols::LOC_MEM, MEMORY_RECORDS_PER_OBJECT),
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

    // ---------- Record columns ----------

    fn table(&self, col: RecordColumn) -> &Table {
        match col {
            RecordColumn::Location => &self.location,
            RecordColumn::Spatial => &self.spatial,
            RecordColumn::Lf => &self.affiliation,
        }
    }

    /// Latest cell of `key`'s record column: one point read.
    pub(crate) fn latest_cell(
        &self,
        s: &mut Session,
        col: RecordColumn,
        key: &RowKey,
    ) -> Result<Option<Cell>> {
        let (family, qualifier) = col.names();
        Ok(s.get_latest(self.table(col), key, family, qualifier)?)
    }

    /// Latest record cells of many rows, aligned with `keys`: one
    /// multi-get, its rows charged at scan rates.
    pub(crate) fn latest_cells(
        &self,
        s: &mut Session,
        col: RecordColumn,
        keys: &[RowKey],
    ) -> Result<Vec<Option<Cell>>> {
        let (family, qualifier) = col.names();
        let rows = s.batch_get(self.table(col), keys, &ReadOptions::latest_in(family))?;
        Ok(rows
            .into_iter()
            .map(|row| row.and_then(|r| r.latest(family, qualifier).cloned()))
            .collect())
    }

    /// Writes one record cell at exactly `ts`: one single-row write.
    pub(crate) fn put_cell(
        &self,
        s: &mut Session,
        col: RecordColumn,
        key: &RowKey,
        ts: Timestamp,
        value: Bytes,
    ) -> Result<()> {
        Ok(s.mutate_row(self.table(col), key, &[col.put(ts, value)])?)
    }

    /// Applies a [`WriteBatch`] — at most one multi-row RPC per table, so
    /// the rpc base is charged once per table and the rows at batch rates
    /// — and leaves it empty.
    pub(crate) fn flush_write_batch(&self, s: &mut Session, wb: &mut WriteBatch) -> Result<()> {
        for col in [
            RecordColumn::Location,
            RecordColumn::Spatial,
            RecordColumn::Lf,
        ] {
            let rows = &mut wb.rows[col as usize];
            if !rows.is_empty() {
                s.mutate_rows(self.table(col), rows)?;
                rows.clear();
            }
        }
        Ok(())
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
        let key = RowKey::from_u64(oid.0);
        self.put_cell(
            s,
            RecordColumn::Location,
            &key,
            ts,
            Bytes::from(rec.encode()),
        )
    }

    /// Latest location record of `oid` with its timestamp.
    pub fn latest_location(
        &self,
        s: &mut Session,
        oid: ObjectId,
    ) -> Result<Option<(Timestamp, LocationRecord)>> {
        let cell = self.latest_cell(s, RecordColumn::Location, &RowKey::from_u64(oid.0))?;
        decode_cell(cell.as_ref(), LocationRecord::decode)
    }

    /// Moves location records older than `cutoff` to the disk column
    /// (aged-data treatment, §3.1.2).
    pub(crate) fn age_locations(&self, cutoff: Timestamp) -> Result<usize> {
        Ok(self
            .location
            .age_transfer(cols::LOC_MEM, cols::LOC_DISK, cutoff)?)
    }

    // ---------- Spatial Index Table ----------

    /// The Spatial Index row of `oid` filed under `leaf_index`.
    pub(crate) fn spatial_key(leaf_index: u64, oid: ObjectId) -> RowKey {
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
        let key = Self::spatial_key(leaf_index, oid);
        self.put_cell(
            s,
            RecordColumn::Spatial,
            &key,
            ts,
            Bytes::from(rec.encode()),
        )
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
        let key = Self::spatial_key(entry.leaf_index, entry.oid);
        self.spatial_delete_if(s, &key, &entry.record.encode())
    }

    /// Deletes the spatial row `key` *only if* its record still holds
    /// exactly `expected` (one check-and-mutate). Returns `false`, nothing
    /// deleted, when the row is gone or changed.
    pub(crate) fn spatial_delete_if(
        &self,
        s: &mut Session,
        key: &RowKey,
        expected: &[u8],
    ) -> Result<bool> {
        Ok(s.check_and_mutate(
            &self.spatial,
            key,
            cols::SPATIAL,
            cols::SPATIAL_Q,
            Some(expected),
            &[Mutation::DeleteRow],
        )?)
    }

    // ---------- Affiliation Table ----------

    /// The L/F record of `oid` (None for never-seen objects).
    pub fn lf(&self, s: &mut Session, oid: ObjectId) -> Result<Option<LfRecord>> {
        let cell = self.latest_cell(s, RecordColumn::Lf, &RowKey::from_u64(oid.0))?;
        Ok(decode_cell(cell.as_ref(), LfRecord::decode)?.map(|(_, lf)| lf))
    }

    /// Writes the L/F record of `oid`. The write lands at a clamped
    /// timestamp (`supersede_ts`): an L/F write always supersedes the
    /// current record, even when the writer's virtual clock trails a
    /// clustering tick that stamped the head far ahead of it.
    pub fn set_lf(
        &self,
        s: &mut Session,
        oid: ObjectId,
        lf: &LfRecord,
        ts: Timestamp,
    ) -> Result<()> {
        let key = RowKey::from_u64(oid.0);
        let head = self.latest_cell(s, RecordColumn::Lf, &key)?;
        let ts = supersede_ts(head.as_ref(), ts);
        self.put_cell(s, RecordColumn::Lf, &key, ts, lf.encode())
    }

    /// Atomically replaces `oid`'s L/F record *only if* it still equals
    /// `expected` (the store's check-and-mutate). The clustering merge
    /// re-affiliates an absorbed leader's followers through this guard: a
    /// follower that promoted concurrently (its update rewrote the record
    /// on another shard) fails the check and keeps its self-chosen
    /// affiliation. The replacement lands at a clamped timestamp
    /// ([`supersede_ts`]) so a writer with a lagging clock still
    /// supersedes the record it matched.
    pub(crate) fn lf_check_and_set(
        &self,
        s: &mut Session,
        oid: ObjectId,
        expected: &LfRecord,
        new: &LfRecord,
        ts: Timestamp,
    ) -> Result<bool> {
        let key = RowKey::from_u64(oid.0);
        let head = self.latest_cell(s, RecordColumn::Lf, &key)?;
        let put = RecordColumn::Lf.put(supersede_ts(head.as_ref(), ts), new.encode());
        Ok(s.check_and_mutate(
            &self.affiliation,
            &key,
            cols::LF_MEM,
            cols::LF_Q,
            Some(&expected.encode()),
            &[put],
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

/// Record-cell writes a batch holds back, to land through
/// [`MoistTables::flush_write_batch`] as one multi-row RPC per table.
///
/// Only plain (unguarded) writes wait here, each with its own explicit
/// timestamp, and a table applies a batch's rows in the order they were
/// pushed — so holding them back reorders writes to different rows only,
/// and the store ends as if each had landed when it was issued. Guarded
/// check-and-mutate commits (the cross-shard mutual-exclusion points) are
/// never buffered.
#[derive(Debug, Default)]
pub(crate) struct WriteBatch {
    /// Indexed by [`RecordColumn`].
    rows: [Vec<RowMutation>; 3],
}

impl WriteBatch {
    /// Holds back what [`MoistTables::put_cell`] would write now.
    pub(crate) fn push(&mut self, col: RecordColumn, key: RowKey, ts: Timestamp, value: Bytes) {
        self.rows[col as usize].push(RowMutation::new(key, vec![col.put(ts, value)]));
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
        let keys = [1u64, 2, 3].map(RowKey::from_u64);
        let got = t
            .latest_cells(&mut s, RecordColumn::Location, &keys)
            .unwrap();
        assert!(got[0].is_some() && got[1].is_none() && got[2].is_some());
        let (ts, third) = decode_cell(got[2].as_ref(), LocationRecord::decode)
            .unwrap()
            .unwrap();
        assert_eq!((ts, third.loc.x), (Timestamp(1), 3.0));
        // The multi-get returns what the point read returns.
        assert_eq!(
            t.latest_cell(&mut s, RecordColumn::Location, &keys[2])
                .unwrap(),
            got[2]
        );
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
        // Move to another cell: delete the old row, insert the new one.
        let p2 = Point::new(900.0, 900.0);
        let leaf2 = cfg.space.leaf_cell(&p2).index;
        assert!(t.spatial_check_and_delete(&mut s, &entries[0]).unwrap());
        t.spatial_insert(
            &mut s,
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
        let keys = [1u64, 2].map(RowKey::from_u64);
        let lfs = t.latest_cells(&mut s, RecordColumn::Lf, &keys).unwrap();
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
        let lf = LfRecord::Leader {
            since_us: 5,
            last_leaf: 3,
        };
        let oid_key = RowKey::from_u64(1);
        let spatial_key = MoistTables::spatial_key(3, ObjectId(1));
        let mut wb = WriteBatch::default();
        let ts = Timestamp(5);
        wb.push(
            RecordColumn::Location,
            oid_key.clone(),
            ts,
            Bytes::from(r.encode()),
        );
        wb.push(
            RecordColumn::Spatial,
            spatial_key.clone(),
            ts,
            Bytes::from(r.encode()),
        );
        wb.push(RecordColumn::Lf, oid_key.clone(), ts, lf.encode());
        t.flush_write_batch(&mut s, &mut wb).unwrap();
        assert!(
            wb.rows.iter().all(Vec::is_empty),
            "flush must leave the batch reusable"
        );
        // The rows read back exactly as the synchronous writers would
        // have left them.
        let (ts, got) = t.latest_location(&mut s, ObjectId(1)).unwrap().unwrap();
        assert_eq!((ts, got.loc), (Timestamp(5), r.loc));
        assert_eq!(t.lf(&mut s, ObjectId(1)).unwrap(), Some(lf));
        let head = t.latest_cell(&mut s, RecordColumn::Lf, &oid_key).unwrap();
        assert_eq!(head.unwrap().ts, Timestamp(5));
        let keys = [spatial_key, MoistTables::spatial_key(4, ObjectId(1))];
        let vals = t
            .latest_cells(&mut s, RecordColumn::Spatial, &keys)
            .unwrap();
        let expected = vals[0].clone().unwrap().value;
        assert_eq!(expected.as_ref(), r.encode().as_ref());
        assert!(vals[1].is_none());
        // The guarded delete against the fetched value wins exactly once.
        let mut delete = || t.spatial_delete_if(&mut s, &keys[0], &expected).unwrap();
        assert!(delete());
        assert!(!delete());
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
