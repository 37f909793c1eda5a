//! The MOIST update procedure (Algorithm 1, §3.3.1).
//!
//! An update message is the 4-tuple `(ID, Loc, V, t)`. The procedure has
//! three branches: leader update, shed follower update, and follower
//! departure. A fourth branch — first sight of an object — registers it as
//! the leader of a fresh single-member school (the paper leaves
//! registration implicit).
//!
//! The procedure is written once (`apply_one`) against a private view of
//! the store (`Io`). [`apply_update`] runs it over the store as it is;
//! `apply_update_batch` runs the same procedure, message by message, over a
//! view that has fetched ahead what the messages will read and holds their
//! plain writes back — the four rules that keep the two indistinguishable
//! are `Io`'s.

use crate::codec::{LfRecord, LocationRecord};
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use crate::school::within_school;
use crate::tables::{decode_cell, supersede_ts, MoistTables, RecordColumn, WriteBatch};
use moist_bigtable::{Bytes, Cell, RowKey, Session, Timestamp};
use moist_spatial::{Point, Velocity};
use std::collections::HashMap;

/// One location update from a mobile client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateMessage {
    /// The reporting object.
    pub oid: ObjectId,
    /// Reported world-coordinate location.
    pub loc: Point,
    /// Reported velocity.
    pub vel: Velocity,
    /// Report time.
    pub ts: Timestamp,
}

/// Latest report time accepted, µs: 2^62, the bound `MoistConfig` puts on
/// the clustering interval. Timestamps are added to (an L/F write lands
/// one past its row's head, the scheduler adds intervals to deadlines), so
/// they must stay far inside `u64`.
pub(crate) const MAX_REPORT_US: u64 = u64::MAX / 4;

impl UpdateMessage {
    /// Rejects a malformed message: a non-finite location or velocity, or
    /// a report time past 2^62 µs. Every entry point that accepts messages
    /// from outside — the two apply paths and the cluster tier's `submit` —
    /// calls this before touching the store or buffering anything.
    pub(crate) fn validate(&self) -> Result<()> {
        let problem = if !(self.loc.is_finite() && self.vel.is_finite()) {
            "non-finite"
        } else if self.ts.0 > MAX_REPORT_US {
            "far-future"
        } else {
            return Ok(());
        };
        Err(MoistError::Inconsistent(format!(
            "{problem} update for {}",
            self.oid
        )))
    }
}

/// What the update procedure did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// First sight: the object became the leader of a new school.
    Registered,
    /// Leader branch: Location (and, unless a racing clustering merge
    /// absorbed the object mid-move, Spatial Index) tables updated.
    LeaderUpdated,
    /// Follower within ε of its estimate: the update was shed — zero
    /// writes reached the store.
    Shed,
    /// Follower left its school and became a leader of a new school.
    Departed {
        /// The school it left.
        old_leader: ObjectId,
    },
}

/// Applies Algorithm 1 for one message. Returns what happened, so callers
/// can track shed ratios.
pub fn apply_update(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    msg: &UpdateMessage,
) -> Result<UpdateOutcome> {
    msg.validate()?;
    let batch = None;
    apply_one(&mut Io { s, tables, batch }, cfg, msg)
}

/// Applies Algorithm 1 to a whole batch of messages: the same procedure,
/// message by message in order, over an [`Io`] that has fetched ahead what
/// the messages will read and holds their plain writes back. The store ends
/// in the state [`apply_update`] message by message leaves it in, and the
/// returned outcomes align with `msgs`.
///
/// Every message is validated up front, so a malformed message fails
/// the whole batch *before* any store write — callers can reject the
/// batch without partial application.
pub(crate) fn apply_update_batch(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    msgs: &[UpdateMessage],
) -> Result<Vec<UpdateOutcome>> {
    for msg in msgs {
        msg.validate()?;
    }
    // A batch of one has nothing to amortize: the three fetches would cost
    // more than the point reads they replace.
    let batch = (msgs.len() > 1).then(Batch::default);
    let mut io = Io { s, tables, batch };
    io.fetch_ahead(cfg, msgs)?;
    let outcomes = msgs
        .iter()
        .map(|msg| apply_one(&mut io, cfg, msg))
        .collect::<Result<Vec<_>>>()?;
    io.flush()?;
    Ok(outcomes)
}

/// The store as Algorithm 1 sees it. For a lone update it is the store:
/// nothing is cached, every read is a point read and every write lands as
/// it is issued. A batch puts a read-ahead cache and a write-behind buffer
/// in between, under four rules:
///
/// * a read of a record cell the batch fetched ahead is served from the
///   cache;
/// * a miss first flushes the held-back writes, then does the point read —
///   so no read ever sees the store behind a write this batch issued;
/// * a plain write is held back, and the cached cell of the row it
///   rewrites is forgotten — so no decision is ever made against a value
///   the batch itself has superseded;
/// * guarded commits stay synchronous: the cross-leaf move's delete (its
///   expected value a cache hit or a read behind a flush, so nothing held
///   back touches its row), and a promotion with every write ordered
///   after it, behind a flush. They are the mutual-exclusion points
///   against clustering merges on other shards and cannot be reordered.
///
/// Holding writes back is sound because the batch runs under the shard
/// lock of its messages' routing key, which serializes it with that
/// cell's clustering; the actors it does not exclude meet it only at the
/// guards.
struct Io<'a> {
    s: &'a mut Session,
    tables: &'a MoistTables,
    /// What a batch puts in between; `None` for a lone update.
    batch: Option<Batch>,
}

/// A batch's read-ahead cache and write-behind buffer.
#[derive(Default)]
struct Batch {
    /// Record cells fetched ahead, by [`RecordColumn`] and row (`None`:
    /// the row has no such cell).
    ahead: [HashMap<RowKey, Option<Cell>>; 3],
    /// Plain writes held back until the next flush.
    behind: WriteBatch,
}

impl Io<'_> {
    /// The three reads a batch makes up front, each one multi-get: every
    /// distinct object's L/F record, then — classified by it — the latest
    /// location of every follower's leader (the shed test) and the old
    /// spatial row of every leader changing leaf (the move guard's
    /// expected value). A lone update fetches nothing ahead.
    fn fetch_ahead(&mut self, cfg: &MoistConfig, msgs: &[UpdateMessage]) -> Result<()> {
        if self.batch.is_none() {
            return Ok(());
        }
        let oid_key = |m: &UpdateMessage| RowKey::from_u64(m.oid.0);
        self.fetch(RecordColumn::Lf, msgs.iter().map(oid_key).collect())?;
        let (mut leaders, mut moves) = (Vec::new(), Vec::new());
        for msg in msgs {
            let lf = self.read(RecordColumn::Lf, &oid_key(msg))?;
            match decode_cell(lf.as_ref(), LfRecord::decode)? {
                Some((_, LfRecord::Follower { leader, .. })) => {
                    leaders.push(RowKey::from_u64(leader.0));
                }
                Some((_, LfRecord::Leader { last_leaf, .. }))
                    if last_leaf != cfg.space.leaf_cell(&msg.loc).index =>
                {
                    moves.push(MoistTables::spatial_key(last_leaf, msg.oid));
                }
                _ => {}
            }
        }
        self.fetch(RecordColumn::Location, leaders)?;
        self.fetch(RecordColumn::Spatial, moves)
    }

    /// Caches the latest `col` cells of the distinct rows among `keys`.
    fn fetch(&mut self, col: RecordColumn, mut keys: Vec<RowKey>) -> Result<()> {
        keys.sort_unstable();
        keys.dedup();
        if let (Some(batch), false) = (&mut self.batch, keys.is_empty()) {
            let cells = self.tables.latest_cells(self.s, col, &keys)?;
            batch.ahead[col as usize].extend(keys.into_iter().zip(cells));
        }
        Ok(())
    }

    /// Lands every held-back write.
    fn flush(&mut self) -> Result<()> {
        match &mut self.batch {
            Some(batch) => self.tables.flush_write_batch(self.s, &mut batch.behind),
            None => Ok(()),
        }
    }

    /// Latest cell of `key`'s record column.
    fn read(&mut self, col: RecordColumn, key: &RowKey) -> Result<Option<Cell>> {
        if let Some(batch) = &self.batch {
            if let Some(hit) = batch.ahead[col as usize].get(key) {
                return Ok(hit.clone());
            }
            self.flush()?;
        }
        self.tables.latest_cell(self.s, col, key)
    }

    /// Drops the cached cell of a row about to change.
    fn forget(&mut self, col: RecordColumn, key: &RowKey) {
        if let Some(batch) = &mut self.batch {
            batch.ahead[col as usize].remove(key);
        }
    }

    /// A plain write of one record cell.
    fn write(
        &mut self,
        col: RecordColumn,
        key: &RowKey,
        ts: Timestamp,
        value: Bytes,
    ) -> Result<()> {
        match &mut self.batch {
            Some(batch) => {
                batch.ahead[col as usize].remove(key);
                batch.behind.push(col, key.clone(), ts, value);
                Ok(())
            }
            None => self.tables.put_cell(self.s, col, key, ts, value),
        }
    }

    /// A write ordered after a guarded commit: it lands now.
    fn write_now(
        &mut self,
        col: RecordColumn,
        key: &RowKey,
        ts: Timestamp,
        value: Bytes,
    ) -> Result<()> {
        self.forget(col, key);
        self.tables.put_cell(self.s, col, key, ts, value)
    }

    /// A leader's same-leaf spatial refresh: a plain write that has always
    /// gone out as a one-row *batch* RPC, so that is what a lone update
    /// still sends (and is charged).
    fn refresh(&mut self, key: &RowKey, ts: Timestamp, value: Bytes) -> Result<()> {
        if self.batch.is_some() {
            return self.write(RecordColumn::Spatial, key, ts, value);
        }
        let mut one = WriteBatch::default();
        one.push(RecordColumn::Spatial, key.clone(), ts, value);
        self.tables.flush_write_batch(self.s, &mut one)
    }

    /// Writes `oid`'s L/F record so that it supersedes the current one
    /// (see [`supersede_ts`]).
    fn set_lf(&mut self, oid: &RowKey, lf: &LfRecord, ts: Timestamp) -> Result<()> {
        let head = self.read(RecordColumn::Lf, oid)?;
        let ts = supersede_ts(head.as_ref(), ts);
        self.write(RecordColumn::Lf, oid, ts, lf.encode())
    }
}

/// Algorithm 1 for one (validated) message.
fn apply_one(io: &mut Io, cfg: &MoistConfig, msg: &UpdateMessage) -> Result<UpdateOutcome> {
    let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
    let record = LocationRecord {
        loc: msg.loc,
        vel: msg.vel,
        leaf_index: new_leaf,
    };
    let value = || Bytes::from(record.encode());
    let oid_key = RowKey::from_u64(msg.oid.0);
    let new_spatial_key = MoistTables::spatial_key(new_leaf, msg.oid);

    // Line 1: is the object a leader or a follower? The follower branch
    // re-runs from the top when a racing clustering merge re-affiliates
    // the object between our affiliation read and our guarded promotion —
    // the re-read sees the new school and the departure decision is made
    // against it.
    loop {
        let lf = io.read(RecordColumn::Lf, &oid_key)?;
        return match decode_cell(lf.as_ref(), LfRecord::decode)?.map(|(_, lf)| lf) {
            None => {
                // First sight: become a leader of a new (singleton) school.
                let lf = LfRecord::Leader {
                    since_us: msg.ts.0,
                    last_leaf: new_leaf,
                };
                io.set_lf(&oid_key, &lf, msg.ts)?;
                io.write(RecordColumn::Location, &oid_key, msg.ts, value())?;
                io.write(RecordColumn::Spatial, &new_spatial_key, msg.ts, value())?;
                Ok(UpdateOutcome::Registered)
            }
            Some(LfRecord::Leader {
                since_us,
                last_leaf,
            }) => {
                // Lines 2–3: leader path.
                io.write(RecordColumn::Location, &oid_key, msg.ts, value())?;
                if last_leaf == new_leaf {
                    // Same leaf — same routing key — so this update serializes
                    // with the cell's clustering on the owner's lock; a plain
                    // overwrite cannot race a merge.
                    io.refresh(&new_spatial_key, msg.ts, value())?;
                } else {
                    // A cross-cell move is applied by the *destination* cell's
                    // owner and can race the old cell's clustering merge on
                    // another shard. The old spatial row is the
                    // mutual-exclusion point: delete it only while it still
                    // holds the value read (the same check-and-mutate the
                    // merge commits through, see
                    // `MoistTables::spatial_check_and_delete`), so exactly one
                    // side deletes it and the new row is written only after
                    // winning. Losing — the row is gone or changed — means the
                    // merge just absorbed this object, and rewriting the entry
                    // would resurrect an absorbed leader: skip the superseded
                    // spatial rewrite. The Location Table already carries the
                    // report, and the next update takes the follower branch
                    // against the merged school (and departs from it if the
                    // move really escaped).
                    let old_key = MoistTables::spatial_key(last_leaf, msg.oid);
                    let won = match io.read(RecordColumn::Spatial, &old_key)? {
                        None => false,
                        Some(cell) => {
                            io.forget(RecordColumn::Spatial, &old_key);
                            io.tables.spatial_delete_if(io.s, &old_key, &cell.value)?
                        }
                    };
                    if !won {
                        return Ok(UpdateOutcome::LeaderUpdated);
                    }
                    io.write(RecordColumn::Spatial, &new_spatial_key, msg.ts, value())?;
                    let lf = LfRecord::Leader {
                        since_us,
                        last_leaf: new_leaf,
                    };
                    io.set_lf(&oid_key, &lf, msg.ts)?;
                }
                Ok(UpdateOutcome::LeaderUpdated)
            }
            Some(
                observed @ LfRecord::Follower {
                    leader,
                    displacement,
                    ..
                },
            ) => {
                // Lines 5–6: estimate the follower's location from its leader.
                let leader_key = RowKey::from_u64(leader.0);
                let leader_loc = io.read(RecordColumn::Location, &leader_key)?;
                // A leader whose hot Location row is gone (aged out to the
                // disk family after a long quiet spell) is no basis for an
                // estimate: self-heal by promotion, leaving no school.
                let old_leader = match decode_cell(leader_loc.as_ref(), LocationRecord::decode)? {
                    // Lines 7–8: within ε → shed, zero store writes.
                    Some((leader_ts, leader_rec))
                        if within_school(
                            &leader_rec,
                            leader_ts,
                            displacement,
                            &msg.loc,
                            msg.ts,
                            cfg.epsilon,
                        ) =>
                    {
                        return Ok(UpdateOutcome::Shed);
                    }
                    Some(_) => Some(leader),
                    None => None,
                };
                // Lines 10–13: departure — become a leader of a new school.
                match promote_to_leader(io, msg, &record, new_leaf, &observed, old_leader)? {
                    Some(out) => Ok(out),
                    None => continue,
                }
            }
        };
    }
}

/// Lines 10–13 of Algorithm 1: remove the follower from its old school (if
/// any) and set it up as a leader.
///
/// The leader flag is flipped under a check-and-mutate guard on `observed`
/// (the affiliation record the departure decision was made against): a
/// clustering merge running on another shard may have re-affiliated the
/// object to a surviving leader between our read and this write, and a
/// blind overwrite would leave the object both inside the survivor's
/// school *and* holding its own spatial row — a permanent double sighting.
/// Returns `Ok(None)` when the guard fails, so the caller re-reads the
/// affiliation — from the store: the cached record is forgotten either
/// way — and re-decides against the new school.
fn promote_to_leader(
    io: &mut Io,
    msg: &UpdateMessage,
    record: &LocationRecord,
    new_leaf: u64,
    observed: &LfRecord,
    old_leader: Option<ObjectId>,
) -> Result<Option<UpdateOutcome>> {
    io.flush()?;
    let oid_key = RowKey::from_u64(msg.oid.0);
    io.forget(RecordColumn::Lf, &oid_key);
    // Line 11: label ID a leader — only if nothing re-affiliated it since.
    let promoted = io.tables.lf_check_and_set(
        io.s,
        msg.oid,
        observed,
        &LfRecord::Leader {
            since_us: msg.ts.0,
            last_leaf: new_leaf,
        },
        msg.ts,
    )?;
    if !promoted {
        return Ok(None);
    }
    if let Some(leader) = old_leader {
        // Line 10: delete ID's entry from the old leader's Follower Info
        // *before* inserting the spatial row, so no instant shows the
        // object both as a school member and as a row of its own.
        io.tables.remove_follower(io.s, leader, msg.oid)?;
    }
    // A promoted follower owns no Spatial Index entry to clean up: the
    // clustering merge that demoted it deleted its row under a
    // check-and-mutate guard on the scanned value, so the row the merge
    // removed is exactly the row the object's last leader-path write
    // created (a racing move fails the guard and aborts the merge).
    let value = || Bytes::from(record.encode());
    // Line 12: Location Table.
    io.write_now(RecordColumn::Location, &oid_key, msg.ts, value())?;
    // Line 13: Spatial Index Table.
    let spatial_key = MoistTables::spatial_key(new_leaf, msg.oid);
    io.write_now(RecordColumn::Spatial, &spatial_key, msg.ts, value())?;
    Ok(Some(match old_leader {
        Some(old_leader) => UpdateOutcome::Departed { old_leader },
        None => UpdateOutcome::Registered,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LfRecord;
    use moist_bigtable::{Bigtable, CostProfile};
    use moist_spatial::{CellId, Displacement};
    use std::sync::Arc;

    fn setup(epsilon: f64) -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon,
            ..MoistConfig::default()
        };
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session, cfg)
    }

    fn msg(oid: u64, x: f64, y: f64, vx: f64, secs: u64) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(x, y),
            vel: Velocity::new(vx, 0.0),
            ts: Timestamp::from_secs(secs),
        }
    }

    #[test]
    fn first_update_registers_a_leader() {
        let (_st, t, mut s, cfg) = setup(5.0);
        let out = apply_update(&mut s, &t, &cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        assert_eq!(out, UpdateOutcome::Registered);
        assert!(t.lf(&mut s, ObjectId(1)).unwrap().unwrap().is_leader());
        let (_, rec) = t.latest_location(&mut s, ObjectId(1)).unwrap().unwrap();
        assert_eq!(rec.loc, Point::new(100.0, 100.0));
        // Present in the spatial index.
        let cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
    }

    #[test]
    fn leader_update_moves_spatial_entry_exactly_once() {
        let (_st, t, mut s, cfg) = setup(5.0);
        apply_update(&mut s, &t, &cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        let out = apply_update(&mut s, &t, &cfg, &msg(1, 600.0, 600.0, 1.0, 1)).unwrap();
        assert_eq!(out, UpdateOutcome::LeaderUpdated);
        // Old cell empty, new cell has exactly one entry.
        let old_cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let new_cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(600.0, 600.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, old_cc, cfg.space.leaf_level)
                .unwrap(),
            0
        );
        assert_eq!(
            t.spatial_count_cell(&mut s, new_cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
        // The LF record tracks the new leaf.
        match t.lf(&mut s, ObjectId(1)).unwrap().unwrap() {
            LfRecord::Leader { last_leaf, .. } => {
                assert_eq!(
                    last_leaf,
                    cfg.space.leaf_cell(&Point::new(600.0, 600.0)).index
                );
            }
            _ => panic!("leader expected"),
        }
    }

    /// Builds a two-object school: 1 leads, 2 follows at displacement (0,2).
    fn build_school(t: &MoistTables, s: &mut Session, cfg: &MoistConfig) {
        apply_update(s, t, cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        t.set_lf(
            s,
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: Displacement::new(0.0, 2.0),
                since_us: 0,
            },
            Timestamp::ZERO,
        )
        .unwrap();
        t.add_follower(
            s,
            ObjectId(1),
            ObjectId(2),
            Displacement::new(0.0, 2.0),
            Timestamp::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn follower_within_epsilon_is_shed() {
        let (st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        let writes_before = st.metrics_snapshot();
        // Leader at t=0 at (100,100) moving (1,0): estimate for follower at
        // t=10 is (110, 102). Report (111, 102): 1 unit off, ε=5 → shed.
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 111.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(out, UpdateOutcome::Shed);
        let writes_after = st.metrics_snapshot();
        assert_eq!(
            writes_after.write_ops + writes_after.batch_ops,
            writes_before.write_ops + writes_before.batch_ops,
            "a shed update must not write"
        );
        // Follower has no Location Table row of its own.
        assert!(t.latest_location(&mut s, ObjectId(2)).unwrap().is_none());
    }

    #[test]
    fn follower_beyond_epsilon_departs_and_leads() {
        let (_st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        // Report 300 units away from the estimate.
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 400.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(
            out,
            UpdateOutcome::Departed {
                old_leader: ObjectId(1)
            }
        );
        // Now a leader with its own rows.
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
        assert!(t.latest_location(&mut s, ObjectId(2)).unwrap().is_some());
        // Removed from the old leader's Follower Info.
        assert!(t.followers(&mut s, ObjectId(1)).unwrap().is_empty());
        // And it is in the spatial index at its reported location.
        let cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(400.0, 102.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
    }

    #[test]
    fn epsilon_zero_sheds_nothing() {
        let (_st, t, mut s, cfg) = setup(0.0);
        build_school(&t, &mut s, &cfg);
        // Even a perfect report departs under ε=0 *if* it deviates at all;
        // an exact match is still within the school (distance 0 ≤ 0).
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 110.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(out, UpdateOutcome::Shed, "exact estimate is distance 0");
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 110.1, 102.0, 1.0, 10)).unwrap();
        assert!(matches!(out, UpdateOutcome::Departed { .. }));
    }

    #[test]
    fn follower_with_vanished_leader_self_heals() {
        let (_st, t, mut s, cfg) = setup(5.0);
        // A follower whose leader has no Location row at all.
        t.set_lf(
            &mut s,
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: Displacement::ZERO,
                since_us: 0,
            },
            Timestamp::ZERO,
        )
        .unwrap();
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 50.0, 50.0, 0.0, 1)).unwrap();
        assert_eq!(out, UpdateOutcome::Registered);
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
    }

    /// The batched apply is a pure optimization: same outcomes, same
    /// final table state as replaying the messages synchronously. The
    /// mix below exercises every branch — registration, leader moves,
    /// shed, departure, and cache misses (repeat OIDs and a
    /// follower whose leader updated earlier in the same batch).
    #[test]
    fn batch_apply_matches_synchronous_outcomes_and_state() {
        let (_st1, t1, mut s1, cfg) = setup(5.0);
        let (_st2, t2, mut s2, _) = setup(5.0);
        build_school(&t1, &mut s1, &cfg);
        build_school(&t2, &mut s2, &cfg);
        let batch = vec![
            msg(3, 200.0, 200.0, 1.0, 1),  // first sight: register
            msg(1, 101.0, 100.0, 1.0, 2),  // leader move
            msg(2, 111.0, 102.0, 1.0, 10), // its follower: leader location re-read, shed
            msg(1, 600.0, 600.0, 1.0, 12), // the leader again: cross-cell move
            msg(2, 900.0, 102.0, 1.0, 14), // departure
            msg(3, 205.0, 200.0, 1.0, 15), // repeat OID: leader move
        ];
        let sync: Vec<UpdateOutcome> = batch
            .iter()
            .map(|m| apply_update(&mut s1, &t1, &cfg, m).unwrap())
            .collect();
        let batched = apply_update_batch(&mut s2, &t2, &cfg, &batch).unwrap();
        assert_eq!(sync, batched);
        assert!(matches!(batched[2], UpdateOutcome::Shed));
        assert!(matches!(batched[4], UpdateOutcome::Departed { .. }));
        for oid in [1u64, 2, 3] {
            assert_eq!(
                t1.lf(&mut s1, ObjectId(oid)).unwrap(),
                t2.lf(&mut s2, ObjectId(oid)).unwrap(),
                "L/F record of {oid} must match the sync replay"
            );
            assert_eq!(
                t1.latest_location(&mut s1, ObjectId(oid))
                    .unwrap()
                    .map(|(_, r)| r),
                t2.latest_location(&mut s2, ObjectId(oid))
                    .unwrap()
                    .map(|(_, r)| r),
                "latest location of {oid} must match the sync replay"
            );
        }
        // Spatial index converged identically: each live leader filed
        // under the same cell on both stores.
        for p in [
            Point::new(600.0, 600.0),
            Point::new(900.0, 102.0),
            Point::new(205.0, 200.0),
        ] {
            let cc = cfg.space.cell_at(cfg.clustering_level, &p);
            assert_eq!(
                t1.spatial_count_cell(&mut s1, cc, cfg.space.leaf_level)
                    .unwrap(),
                t2.spatial_count_cell(&mut s2, cc, cfg.space.leaf_level)
                    .unwrap()
            );
        }
    }

    /// A batch that is pure steady-state traffic (sheds + same-leaf
    /// leader refreshes) must write strictly fewer, batched ops than
    /// the synchronous replay — the whole point of the pipeline.
    #[test]
    fn batch_apply_sheds_without_writes_and_batches_the_rest() {
        let (st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        let before = st.metrics_snapshot();
        let batch = vec![
            msg(2, 111.0, 102.0, 1.0, 10), // shed
            msg(2, 112.0, 102.0, 1.0, 11), // shed again, still from the cache
        ];
        let out = apply_update_batch(&mut s, &t, &cfg, &batch).unwrap();
        assert_eq!(out, vec![UpdateOutcome::Shed, UpdateOutcome::Shed]);
        let after = st.metrics_snapshot();
        assert_eq!(
            after.write_ops + after.batch_ops,
            before.write_ops + before.batch_ops,
            "an all-shed batch must not write"
        );
    }

    /// What one call was charged: the store's `(read_ops, scan_ops,
    /// write_ops, batch_ops, mutations)` deltas and the virtual µs of a
    /// fresh session on the default cost profile.
    fn charged(
        store: &Arc<Bigtable>,
        f: impl FnOnce(&mut Session) -> Vec<UpdateOutcome>,
    ) -> (Vec<UpdateOutcome>, [u64; 5], f64) {
        let mut s = store.session();
        let before = store.metrics_snapshot();
        let out = f(&mut s);
        let d = store.metrics_snapshot().delta(&before);
        let ops = [
            d.read_ops,
            d.scan_ops,
            d.write_ops,
            d.batch_ops,
            d.mutations,
        ];
        (out, ops, s.elapsed_us())
    }

    /// Makes `follower` a follower of `leader` at displacement (0, 2).
    fn enlist(t: &MoistTables, s: &mut Session, leader: u64, follower: u64) {
        let displacement = Displacement::new(0.0, 2.0);
        let lf = LfRecord::Follower {
            leader: ObjectId(leader),
            displacement,
            since_us: 0,
        };
        t.set_lf(s, ObjectId(follower), &lf, Timestamp::ZERO)
            .unwrap();
        t.add_follower(
            s,
            ObjectId(leader),
            ObjectId(follower),
            displacement,
            Timestamp::ZERO,
        )
        .unwrap();
    }

    /// The virtual-time gate for both paths. The literals are what the
    /// build before the two procedures were merged was charged: a lone
    /// update of each branch, and a 64-message batch with no repeated OID
    /// and no departure (16 registrations, 16 same-leaf refreshes, 16
    /// cross-leaf moves, 16 sheds). The byte-diffed smoke archives cover
    /// the lone update only; nothing else pins the batch.
    #[test]
    fn each_branch_and_a_clean_batch_are_charged_what_they_always_were() {
        let (st, t, mut free, cfg) = setup(5.0);
        let lone = |m: UpdateMessage| {
            let (out, ops, us) = charged(&st, |s| vec![apply_update(s, &t, &cfg, &m).unwrap()]);
            (out[0], ops, us)
        };
        let registered = lone(msg(1, 100.0, 100.0, 1.0, 0));
        let same_leaf = lone(msg(1, 100.0, 100.0, 1.0, 1));
        let cross_leaf = lone(msg(1, 600.0, 600.0, 1.0, 2));
        enlist(&t, &mut free, 1, 2);
        let shed = lone(msg(2, 601.0, 602.0, 1.0, 3));
        let departed = lone(msg(2, 900.0, 102.0, 1.0, 4));
        let old_leader = ObjectId(1);
        assert_eq!(
            [registered, same_leaf, cross_leaf, shed, departed],
            [
                (
                    UpdateOutcome::Registered,
                    [2, 0, 3, 0, 3],
                    105.28999999999999
                ),
                (
                    UpdateOutcome::LeaderUpdated,
                    [1, 0, 1, 1, 2],
                    58.10799999999999
                ),
                (UpdateOutcome::LeaderUpdated, [4, 0, 4, 0, 4], 166.87),
                (UpdateOutcome::Shed, [2, 0, 0, 0, 0], 39.745999999999995),
                (
                    UpdateOutcome::Departed { old_leader },
                    [4, 0, 4, 0, 4],
                    166.934
                ),
            ]
        );

        // 100–115 refresh in place, 200–215 change leaf, 300–315 follow
        // 400–415 (which stay silent) and shed, 500–515 are new.
        for i in 0..16u64 {
            for base in [100, 200, 400] {
                let m = msg(base + i, 10.0 * i as f64, base as f64, 1.0, 5);
                apply_update(&mut free, &t, &cfg, &m).unwrap();
            }
            enlist(&t, &mut free, 400 + i, 300 + i);
        }
        let batch: Vec<UpdateMessage> = (0..16u64)
            .flat_map(|i| {
                let x = 10.0 * i as f64;
                [
                    msg(100 + i, x, 100.0, 1.0, 9),
                    msg(200 + i, x + 5.0, 205.0, 1.0, 9),
                    msg(300 + i, x + 4.0, 402.0, 1.0, 9),
                    msg(500 + i, x, 500.0, 1.0, 9),
                ]
            })
            .collect();
        let (out, ops, us) = charged(&st, |s| apply_update_batch(s, &t, &cfg, &batch).unwrap());
        assert_eq!((ops, us), ([19, 0, 16, 3, 144], 1299.3162837624811));
        let sheds = out.iter().filter(|o| **o == UpdateOutcome::Shed).count();
        let registrations = out
            .iter()
            .filter(|o| **o == UpdateOutcome::Registered)
            .count();
        assert_eq!((sheds, registrations, out.len()), (16, 16, 64));
    }

    /// A batch that repeats OIDs (and updates a leader before its
    /// follower reports) issues no more store ops than the build before
    /// the merge did for the same messages.
    #[test]
    fn a_repeat_oid_batch_issues_no_more_ops_than_it_used_to() {
        let (st, t, mut free, cfg) = setup(5.0);
        build_school(&t, &mut free, &cfg);
        let batch = vec![
            msg(3, 200.0, 200.0, 1.0, 1),  // first sight
            msg(1, 101.0, 100.0, 1.0, 2),  // leader changes leaf
            msg(2, 111.0, 102.0, 1.0, 10), // its follower sheds
            msg(1, 600.0, 600.0, 1.0, 12), // the leader again
            msg(3, 200.0, 200.0, 1.0, 13), // same leaf, second sight
            msg(2, 900.0, 102.0, 1.0, 14), // the follower departs
            msg(3, 205.0, 200.0, 1.0, 15), // third sight, new leaf
        ];
        let (_, ops, us) = charged(&st, |s| apply_update_batch(s, &t, &cfg, &batch).unwrap());
        // Before: 19 reads + 14 single-row writes + 4 batch writes, 761.82 µs.
        assert!(ops[..4].iter().sum::<u64>() <= 37, "{ops:?}");
        assert!(us <= 761.83, "{us}");
    }

    #[test]
    fn batch_apply_rejects_bad_messages_before_writing_anything() {
        let (st, t, mut s, cfg) = setup(5.0);
        let bad = UpdateMessage {
            oid: ObjectId(9),
            loc: Point::new(f64::NAN, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::ZERO,
        };
        let far_future = UpdateMessage {
            ts: Timestamp(u64::MAX),
            ..msg(9, 100.0, 100.0, 1.0, 0)
        };
        let before = st.metrics_snapshot();
        for bad in [bad, far_future] {
            let batch = vec![msg(1, 100.0, 100.0, 1.0, 0), bad];
            assert!(apply_update_batch(&mut s, &t, &cfg, &batch).is_err());
        }
        let after = st.metrics_snapshot();
        assert_eq!(
            after.write_ops + after.batch_ops,
            before.write_ops + before.batch_ops,
            "validation must fail the batch before any store write"
        );
    }

    #[test]
    fn non_finite_updates_are_rejected() {
        let (st, t, mut s, cfg) = setup(5.0);
        let bad = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(f64::NAN, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::ZERO,
        };
        assert!(apply_update(&mut s, &t, &cfg, &bad).is_err());
        // A report time the L/F supersede clamp (head + 1) could overflow
        // on is refused too; the last accepted one registers and moves.
        let at = |ts: u64, x: f64| UpdateMessage {
            ts: Timestamp(ts),
            ..msg(1, x, 100.0, 1.0, 0)
        };
        let rejected = |r: Result<UpdateOutcome>| matches!(r, Err(MoistError::Inconsistent(_)));
        assert!(rejected(apply_update(
            &mut s,
            &t,
            &cfg,
            &at(u64::MAX, 100.0)
        )));
        assert!(rejected(apply_update(
            &mut s,
            &t,
            &cfg,
            &at(u64::MAX / 4 + 1, 100.0)
        )));
        assert!(t.lf(&mut s, ObjectId(1)).unwrap().is_none());
        for x in [100.0, 900.0, 100.0] {
            apply_update(&mut s, &t, &cfg, &at(u64::MAX / 4, x)).unwrap();
        }
        let indexed = t
            .spatial_scan_cell(&mut s, CellId::ROOT, cfg.space.leaf_level, None)
            .unwrap();
        assert_eq!(indexed.len(), 1, "one object, one Spatial Index row");
        // Queries reject what updates reject, with the same typed error,
        // before touching the store.
        let cluster = crate::MoistCluster::builder(&st, cfg).build().unwrap();
        let before = st.metrics_snapshot();
        let rejected = |r: Result<()>| matches!(r, Err(MoistError::Inconsistent(_)));
        let at = Timestamp::ZERO;
        let fixed = |k, level| crate::nn::NnOptions {
            nn_level: Some(level),
            ..crate::nn::NnOptions::new(k)
        };
        for c in [
            Point::new(f64::NAN, 500.0),
            Point::new(500.0, f64::INFINITY),
        ] {
            assert!(rejected(cluster.nn(c, 3, at).map(drop)));
            let fixed_level = cluster.nn_with_options(c, at, &fixed(3, 4));
            assert!(rejected(fixed_level.map(drop)));
        }
        let world = cfg.space.world;
        let nan_corner = moist_spatial::Rect {
            min_x: f64::NAN,
            ..world
        };
        let unbounded = moist_spatial::Rect::new(0.0, 0.0, f64::INFINITY, 10.0);
        assert!(rejected(cluster.region(&nan_corner, at, 0.0).map(drop)));
        assert!(rejected(cluster.region(&unbounded, at, 0.0).map(drop)));
        assert!(rejected(cluster.region(&world, at, f64::NAN).map(drop)));
        let partial = cluster
            .with_shard_read(0, |s| s.region_partial(&[(0, 4)], &nan_corner, at))
            .unwrap();
        assert!(rejected(partial.map(drop)));
        let p = Point::new(500.0, 500.0);
        let predictive = |horizon| crate::nn::NnOptions {
            predict_secs: horizon,
            ..fixed(1, 8)
        };
        for horizon in [f64::INFINITY, f64::NAN] {
            let answer = cluster.nn_with_options(p, at, &predictive(horizon));
            assert!(rejected(answer.map(drop)));
        }
        let nan_range = crate::nn::NnOptions {
            max_distance: f64::NAN,
            ..fixed(1, 8)
        };
        assert!(rejected(
            cluster.nn_with_options(p, at, &nan_range).map(drop)
        ));
        assert_eq!(st.metrics_snapshot(), before, "rejected before any read");
        assert!(cluster.region(&world, at, 0.0).is_ok());
        // A finite horizon past the end of time saturates instead of
        // overflowing, and the one object is still found. Twice: the
        // second query closes a load window that opened at the end of time.
        for _ in 0..2 {
            let end = Timestamp(u64::MAX - 10);
            let (hits, _) = cluster.nn_with_options(p, end, &predictive(1.0)).unwrap();
            assert_eq!(hits.len(), 1);
        }
    }
}
