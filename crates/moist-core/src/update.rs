//! The MOIST update procedure (Algorithm 1, §3.3.1).
//!
//! An update message is the 4-tuple `(ID, Loc, V, t)`. The procedure has
//! three branches: leader update, shed follower update, and follower
//! departure. A fourth branch — first sight of an object — registers it as
//! the leader of a fresh single-member school (the paper leaves
//! registration implicit).

use crate::codec::{LfRecord, LocationRecord};
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use crate::school::within_school;
use crate::tables::{MoistTables, WriteBatch};
use moist_bigtable::{Session, Timestamp};
use moist_spatial::{Point, Velocity};
use std::collections::{HashMap, HashSet};

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

impl UpdateMessage {
    /// Rejects a malformed (non-finite location or velocity) message.
    /// Every entry point that accepts messages from outside — the two
    /// apply paths and the cluster tier's `submit` — calls this before
    /// touching the store or buffering anything.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.loc.is_finite() && self.vel.is_finite() {
            Ok(())
        } else {
            Err(MoistError::Inconsistent(format!(
                "non-finite update for {}",
                self.oid
            )))
        }
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
    let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
    let record = LocationRecord {
        loc: msg.loc,
        vel: msg.vel,
        leaf_index: new_leaf,
    };

    // Line 1: is the object a leader or a follower? The follower branch
    // re-runs from the top when a racing clustering merge re-affiliates
    // the object between our affiliation read and our guarded promotion —
    // the re-read sees the new school and the departure decision is made
    // against it.
    loop {
        return match tables.lf(s, msg.oid)? {
            None => {
                // First sight: become a leader of a new (singleton) school.
                tables.set_lf(
                    s,
                    msg.oid,
                    &LfRecord::Leader {
                        since_us: msg.ts.0,
                        last_leaf: new_leaf,
                    },
                    msg.ts,
                )?;
                tables.put_location(s, msg.oid, &record, msg.ts)?;
                tables.spatial_insert(s, new_leaf, msg.oid, &record, msg.ts)?;
                Ok(UpdateOutcome::Registered)
            }
            Some(LfRecord::Leader {
                since_us,
                last_leaf,
            }) => {
                // Lines 2–3: leader path.
                tables.put_location(s, msg.oid, &record, msg.ts)?;
                if last_leaf == new_leaf {
                    // Same leaf — same routing key — so this update serializes
                    // with the cell's clustering on the owner's lock; a plain
                    // overwrite cannot race a merge.
                    tables.spatial_move(s, last_leaf, new_leaf, msg.oid, &record, msg.ts)?;
                } else {
                    // A cross-cell move is applied by the *destination* cell's
                    // owner and can race the old cell's clustering merge on
                    // another shard. The old spatial row is the
                    // mutual-exclusion point: delete it only while it still
                    // holds its scanned value (the same check-and-mutate the
                    // merge commits through), so exactly one side wins.
                    // Losing means the merge just absorbed this object: skip
                    // the superseded spatial rewrite — the Location Table
                    // already carries the report, and the next update takes
                    // the follower branch against the merged school (and
                    // departs from it if the move really escaped).
                    if !tables
                        .spatial_move_guarded(s, last_leaf, new_leaf, msg.oid, &record, msg.ts)?
                    {
                        return Ok(UpdateOutcome::LeaderUpdated);
                    }
                    tables.set_lf(
                        s,
                        msg.oid,
                        &LfRecord::Leader {
                            since_us,
                            last_leaf: new_leaf,
                        },
                        msg.ts,
                    )?;
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
                let (leader_ts, leader_rec) = match tables.latest_location(s, leader)? {
                    Some(x) => x,
                    None => {
                        // The leader's hot Location row is gone (aged out to
                        // the disk family after a long quiet spell): self-heal
                        // by promotion rather than estimating from stale data.
                        match promote_to_leader(s, tables, msg, &record, new_leaf, &observed, None)?
                        {
                            Some(out) => return Ok(out),
                            None => continue,
                        }
                    }
                };
                // Lines 7–8: within ε → shed, zero store writes.
                if within_school(
                    &leader_rec,
                    leader_ts,
                    displacement,
                    &msg.loc,
                    msg.ts,
                    cfg.epsilon,
                ) {
                    return Ok(UpdateOutcome::Shed);
                }
                // Lines 10–13: departure — become a leader of a new school.
                match promote_to_leader(s, tables, msg, &record, new_leaf, &observed, Some(leader))?
                {
                    Some(out) => Ok(out),
                    None => continue,
                }
            }
        };
    }
}

/// Applies Algorithm 1 to a whole batch of messages, amortizing store
/// round-trips across the batch. Semantically equivalent to running
/// [`apply_update`] message by message in order; the store ends in the
/// same state and the returned outcomes align with `msgs`.
///
/// The amortization has two halves:
///
/// * **prefetch** — one batched affiliation read classifies every
///   distinct OID, one batched Location read serves every follower's
///   shed test, and one batched spatial read arms the cross-cell move
///   guards. Each replaces a per-message point read (rpc base charged
///   per row) with a scan-rate batch row.
/// * **deferral** — plain row writes (registrations, Location appends,
///   same-leaf spatial refreshes) accumulate in a [`WriteBatch`] and
///   land as one multi-row RPC per table at the end.
///
/// Correctness rests on a *dirty set*: once the batch writes (or
/// defers a write for) an OID, every later message touching that OID —
/// or a follower whose leader is that OID — flushes the deferred
/// writes and falls back to the synchronous [`apply_update`], so no
/// decision is ever made against a prefetched value the batch itself
/// has superseded. Guarded commits (cross-cell spatial moves, follower
/// promotions) stay synchronous: they are the mutual-exclusion points
/// against clustering merges on other shards and cannot be reordered.
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
    if msgs.len() <= 1 {
        // Nothing to amortize: the prefetches would cost more than the
        // point reads they replace.
        return msgs
            .iter()
            .map(|m| apply_update(s, tables, cfg, m))
            .collect();
    }

    // Phase 1: classify every distinct OID with one batched affiliation
    // read (head timestamps included, for local supersede-clamping of
    // deferred L/F writes).
    let mut uniq: Vec<ObjectId> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for msg in msgs {
        if seen.insert(msg.oid.0) {
            uniq.push(msg.oid);
        }
    }
    let lf_heads = tables.batch_lf_versions(s, &uniq)?;
    let lf_of: HashMap<u64, Option<(Timestamp, LfRecord)>> = uniq
        .iter()
        .zip(lf_heads)
        .map(|(oid, head)| (oid.0, head))
        .collect();

    // Phase 2: prefetch what the classified messages will read — the
    // leaders' latest locations (every follower's shed test) and the
    // old spatial rows of cross-cell-moving leaders (the guard's
    // expected values). First occurrence per OID decides; later
    // occurrences hit the dirty-set fallback anyway.
    let mut leader_oids: Vec<ObjectId> = Vec::new();
    let mut leader_seen: HashSet<u64> = HashSet::new();
    let mut move_keys: Vec<(u64, ObjectId)> = Vec::new();
    let mut move_seen: HashSet<u64> = HashSet::new();
    for msg in msgs {
        match lf_of.get(&msg.oid.0) {
            Some(Some((_, LfRecord::Follower { leader, .. }))) if leader_seen.insert(leader.0) => {
                leader_oids.push(*leader);
            }
            Some(Some((_, LfRecord::Leader { last_leaf, .. }))) => {
                let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
                if new_leaf != *last_leaf && move_seen.insert(msg.oid.0) {
                    move_keys.push((*last_leaf, msg.oid));
                }
            }
            _ => {}
        }
    }
    let leader_locs: HashMap<u64, Option<(Timestamp, LocationRecord)>> = if leader_oids.is_empty() {
        HashMap::new()
    } else {
        leader_oids
            .iter()
            .zip(tables.batch_latest_locations(s, &leader_oids)?)
            .map(|(oid, loc)| (oid.0, loc))
            .collect()
    };
    let move_vals: HashMap<u64, Option<Vec<u8>>> = if move_keys.is_empty() {
        HashMap::new()
    } else {
        move_keys
            .iter()
            .zip(tables.batch_spatial_values(s, &move_keys)?)
            .map(|(&(_, oid), val)| (oid.0, val))
            .collect()
    };

    // Phase 3: apply in message order. Deferrable writes go to `wb`;
    // anything touching an already-written OID flushes and falls back
    // to the synchronous path.
    let mut wb = WriteBatch::new();
    let mut dirty: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(msgs.len());
    for msg in msgs {
        let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
        let record = LocationRecord {
            loc: msg.loc,
            vel: msg.vel,
            leaf_index: new_leaf,
        };
        // The prefetched snapshot is valid only while this batch has not
        // written the rows it describes.
        let fallback = dirty.contains(&msg.oid.0)
            || match lf_of.get(&msg.oid.0) {
                Some(Some((_, LfRecord::Follower { leader, .. }))) => {
                    dirty.contains(&leader.0)
                        || !matches!(leader_locs.get(&leader.0), Some(Some(_)))
                }
                _ => false,
            };
        if fallback {
            if !wb.is_empty() {
                tables.flush_write_batch(s, &mut wb)?;
            }
            let outcome = apply_update(s, tables, cfg, msg)?;
            dirty.insert(msg.oid.0);
            out.push(outcome);
            continue;
        }
        let outcome = match lf_of.get(&msg.oid.0).and_then(|h| h.as_ref()) {
            None => {
                // First sight: no head version exists, so the deferred
                // L/F write lands at the raw report time unclamped.
                wb.set_lf_at(
                    msg.oid,
                    &LfRecord::Leader {
                        since_us: msg.ts.0,
                        last_leaf: new_leaf,
                    },
                    msg.ts,
                );
                wb.put_location(msg.oid, &record, msg.ts);
                wb.spatial_insert(new_leaf, msg.oid, &record, msg.ts);
                dirty.insert(msg.oid.0);
                UpdateOutcome::Registered
            }
            Some((
                head_ts,
                LfRecord::Leader {
                    since_us,
                    last_leaf,
                },
            )) => {
                wb.put_location(msg.oid, &record, msg.ts);
                if *last_leaf == new_leaf {
                    // Same routing key as the cell's clustering — the
                    // shard lock this batch holds serializes them, so
                    // the plain refresh can be deferred.
                    wb.spatial_insert(new_leaf, msg.oid, &record, msg.ts);
                } else {
                    // Cross-cell move: commit the guarded delete now
                    // (it is the mutual-exclusion point against the old
                    // cell's merge on another shard), with the expected
                    // value amortized into the phase-2 prefetch. Losing
                    // means a merge absorbed the object: skip the
                    // superseded rewrite, exactly like the sync path.
                    let won = match move_vals.get(&msg.oid.0).and_then(|v| v.as_deref()) {
                        None => false,
                        Some(expected) => tables
                            .spatial_check_and_delete_value(s, *last_leaf, msg.oid, expected)?,
                    };
                    if won {
                        wb.spatial_insert(new_leaf, msg.oid, &record, msg.ts);
                        // Supersede-clamp locally against the prefetched
                        // head: no other actor can move this row's head
                        // while the batch holds the key's shard lock and
                        // the spatial guard has been won.
                        let lf_ts = if *head_ts >= msg.ts {
                            Timestamp(head_ts.0 + 1)
                        } else {
                            msg.ts
                        };
                        wb.set_lf_at(
                            msg.oid,
                            &LfRecord::Leader {
                                since_us: *since_us,
                                last_leaf: new_leaf,
                            },
                            lf_ts,
                        );
                    }
                }
                dirty.insert(msg.oid.0);
                UpdateOutcome::LeaderUpdated
            }
            Some((
                _,
                LfRecord::Follower {
                    leader,
                    displacement,
                    ..
                },
            )) => {
                let (leader_ts, leader_rec) = leader_locs
                    .get(&leader.0)
                    .and_then(|l| l.as_ref())
                    .expect("missing leader location routed to fallback above");
                if within_school(
                    leader_rec,
                    *leader_ts,
                    *displacement,
                    &msg.loc,
                    msg.ts,
                    cfg.epsilon,
                ) {
                    // Shed: zero writes, so the prefetched snapshot for
                    // this OID stays valid — no dirty mark.
                    UpdateOutcome::Shed
                } else {
                    // Departure: the promotion is a guarded L/F commit
                    // racing clustering merges — flush and take the
                    // synchronous path end to end.
                    if !wb.is_empty() {
                        tables.flush_write_batch(s, &mut wb)?;
                    }
                    let outcome = apply_update(s, tables, cfg, msg)?;
                    dirty.insert(msg.oid.0);
                    outcome
                }
            }
        };
        out.push(outcome);
    }
    if !wb.is_empty() {
        tables.flush_write_batch(s, &mut wb)?;
    }
    Ok(out)
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
/// affiliation and re-decides against the new school.
fn promote_to_leader(
    s: &mut Session,
    tables: &MoistTables,
    msg: &UpdateMessage,
    record: &LocationRecord,
    new_leaf: u64,
    observed: &LfRecord,
    old_leader: Option<ObjectId>,
) -> Result<Option<UpdateOutcome>> {
    // Line 11: label ID a leader — only if nothing re-affiliated it since.
    let promoted = tables.lf_check_and_set(
        s,
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
        tables.remove_follower(s, leader, msg.oid)?;
    }
    // A promoted follower owns no Spatial Index entry to clean up: the
    // clustering merge that demoted it deleted its row under a
    // check-and-mutate guard on the scanned value, so the row the merge
    // removed is exactly the row the object's last leader-path write
    // created (a racing move fails the guard and aborts the merge).
    // Line 12: Location Table.
    tables.put_location(s, msg.oid, record, msg.ts)?;
    // Line 13: Spatial Index Table.
    tables.spatial_insert(s, new_leaf, msg.oid, record, msg.ts)?;
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
    use moist_spatial::Displacement;
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
    /// shed, departure, and dirty-set fallbacks (repeat OIDs and a
    /// follower whose leader updated earlier in the same batch).
    #[test]
    fn batch_apply_matches_synchronous_outcomes_and_state() {
        let (_st1, t1, mut s1, cfg) = setup(5.0);
        let (_st2, t2, mut s2, _) = setup(5.0);
        build_school(&t1, &mut s1, &cfg);
        build_school(&t2, &mut s2, &cfg);
        let batch = vec![
            msg(3, 200.0, 200.0, 1.0, 1),  // first sight: register
            msg(1, 101.0, 100.0, 1.0, 2),  // leader move (dirties 1)
            msg(2, 111.0, 102.0, 1.0, 10), // follower of dirty leader: fallback, shed
            msg(1, 600.0, 600.0, 1.0, 12), // dirty OID: fallback, cross-cell move
            msg(2, 900.0, 102.0, 1.0, 14), // departure
            msg(3, 205.0, 200.0, 1.0, 15), // dirty OID: fallback leader move
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
            msg(2, 112.0, 102.0, 1.0, 11), // shed again (not dirty: no writes)
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

    #[test]
    fn batch_apply_rejects_bad_messages_before_writing_anything() {
        let (st, t, mut s, cfg) = setup(5.0);
        let bad = UpdateMessage {
            oid: ObjectId(9),
            loc: Point::new(f64::NAN, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::ZERO,
        };
        let before = st.metrics_snapshot();
        let batch = vec![msg(1, 100.0, 100.0, 1.0, 0), bad];
        assert!(apply_update_batch(&mut s, &t, &cfg, &batch).is_err());
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
        // Queries reject what updates reject, with the same typed error,
        // before touching the store.
        let server = crate::server::MoistServer::new(&st, cfg).unwrap();
        let rejected = |r: Result<()>| matches!(r, Err(MoistError::Inconsistent(_)));
        let at = Timestamp::ZERO;
        for c in [
            Point::new(f64::NAN, 500.0),
            Point::new(500.0, f64::INFINITY),
        ] {
            assert!(rejected(server.nn(c, 3, at).map(drop)));
            assert!(rejected(server.nn_at_level(c, 3, at, 4).map(drop)));
            assert!(rejected(server.flag_level(&c, at).map(drop)));
        }
        let world = cfg.space.world;
        let nan_corner = moist_spatial::Rect {
            min_x: f64::NAN,
            ..world
        };
        let unbounded = moist_spatial::Rect::new(0.0, 0.0, f64::INFINITY, 10.0);
        assert!(rejected(server.region(&nan_corner, at, 0.0).map(drop)));
        assert!(rejected(server.region(&unbounded, at, 0.0).map(drop)));
        assert!(rejected(server.region(&world, at, f64::NAN).map(drop)));
        let partial = server.region_partial(&[(0, 4)], &nan_corner, at);
        assert!(rejected(partial.map(drop)));
        assert_eq!(server.meter_hub().op_count(), 0, "rejected before any read");
        assert!(server.region(&world, at, 0.0).is_ok());
    }
}
