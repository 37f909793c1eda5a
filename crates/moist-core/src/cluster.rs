//! Periodic lazy clustering (§3.3.2).
//!
//! Clustering runs cell by cell over *clustering cells* — cells several
//! levels coarser than the spatial leaf level, so each one is a contiguous
//! row range batch-read from the Spatial Index Table. Within a cell:
//!
//! 1. **read** — batch-scan the cell's leaders and batch-get their Follower
//!    Info from the Affiliation Table;
//! 2. **compute** — map each leader's velocity to a hexagonal bin (`O(1)`
//!    each, `O(n)` total) and merge the leaders sharing a bin;
//! 3. **write** — commit each merged leader by atomically deleting its
//!    Spatial Index row *guarded on the scanned value* (the store's
//!    check-and-mutate), then apply the affiliation rewrites as batched
//!    mutations: transfer Follower Info, rewrite L/F entries of moved
//!    followers. A leader whose row changed since the scan (it updated or
//!    moved concurrently on another shard) fails the guard and its merge
//!    is aborted for this round — clustering never demotes a live leader
//!    out from under a racing cross-cell move.
//!
//! The per-phase virtual latencies are reported so Figure 10's
//! read/compute/write breakdown can be regenerated. The compute phase is
//! priced like the store's operations, per leader binned and per bin
//! planned, so a clustering round costs the same on every run.

use crate::codec::LfRecord;
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::hexgrid::{HexBin, HexGrid};
use crate::ids::ObjectId;
use crate::placement::{routing_key_cell, SplitTable};
use crate::tables::{MoistTables, SpatialEntry};
use crate::update::MAX_REPORT_US;
use moist_bigtable::{RowMutation, Session, Timestamp};
use moist_spatial::{cells_at_level, CellId};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Virtual µs the compute phase charges per leader scanned: mapping its
/// velocity to a hexagon bin. Calibrated to the median wall time of the
/// binning on a 2-core x86-64 host (Figure 10a's slope).
const COMPUTE_US_PER_LEADER: f64 = 0.1;

/// Virtual µs the compute phase charges per hexagon bin: planning that
/// bin's merge (Figure 10b's slope, calibrated the same way).
const COMPUTE_US_PER_BIN: f64 = 0.042;

/// Outcome and phase timing of clustering one cell.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ClusterReport {
    /// Leaders present before clustering.
    pub pre_leaders: usize,
    /// Leaders remaining after clustering.
    pub post_leaders: usize,
    /// Leaders merged into other schools.
    pub merged: usize,
    /// Merges aborted because the leader's spatial row changed between
    /// the clustering scan and the guarded commit (a racing update won).
    pub merge_aborts: usize,
    /// Followers whose affiliation was rewritten.
    pub followers_moved: usize,
    /// Virtual µs spent reading (Spatial Index + Affiliation batch reads).
    pub read_us: f64,
    /// Virtual µs charged for the in-server computation: binning and merge
    /// planning, priced per leader and per bin.
    pub compute_us: f64,
    /// Virtual µs spent writing the merge batches.
    pub write_us: f64,
}

impl ClusterReport {
    /// Total virtual latency of this clustering.
    pub fn total_us(&self) -> f64 {
        self.read_us + self.compute_us + self.write_us
    }

    /// Accumulates another report (for whole-map sweeps).
    pub(crate) fn merge_from(&mut self, other: &ClusterReport) {
        self.pre_leaders += other.pre_leaders;
        self.post_leaders += other.post_leaders;
        self.merged += other.merged;
        self.merge_aborts += other.merge_aborts;
        self.followers_moved += other.followers_moved;
        self.read_us += other.read_us;
        self.compute_us += other.compute_us;
        self.write_us += other.write_us;
    }
}

/// Clusters one clustering cell: merges leaders with similar velocities.
///
/// `now` stamps the rewritten records. Geographic proximity is inherent:
/// only leaders inside the same clustering cell are candidates (§3.3.2).
pub fn cluster_cell(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    cell: CellId,
    now: Timestamp,
) -> Result<ClusterReport> {
    let mut report = ClusterReport::default();

    // ---- read phase ----
    let t0 = s.elapsed_us();
    let leaders: Vec<SpatialEntry> =
        tables.spatial_scan_cell(s, cell, cfg.space.leaf_level, None)?;
    report.pre_leaders = leaders.len();
    if leaders.len() < 2 {
        report.post_leaders = leaders.len();
        report.read_us = s.elapsed_us() - t0;
        return Ok(report);
    }
    let leader_ids: Vec<ObjectId> = leaders.iter().map(|e| e.oid).collect();
    let follower_infos = tables.batch_followers(s, &leader_ids)?;
    report.read_us = s.elapsed_us() - t0;

    // ---- compute phase (priced by the model) ----
    let grid = HexGrid::new(cfg.delta_m);
    let mut bins: HashMap<HexBin, Vec<usize>> = HashMap::new();
    for (i, entry) in leaders.iter().enumerate() {
        bins.entry(grid.bin(&entry.record.vel)).or_default().push(i);
    }
    report.compute_us =
        leaders.len() as f64 * COMPUTE_US_PER_LEADER + bins.len() as f64 * COMPUTE_US_PER_BIN;
    s.charge_extra_us(report.compute_us);
    // Within each bin, the leader with the most followers survives — it is
    // the cheapest merge (fewest L/F rewrites).
    struct Merge {
        survivor: usize,
        absorbed: Vec<usize>,
    }
    let merges: Vec<Merge> = bins
        .into_values()
        .filter(|members| members.len() > 1)
        .map(|mut members| {
            members
                .sort_by_key(|&i| (std::cmp::Reverse(follower_infos[i].len()), leaders[i].oid.0));
            let survivor = members[0];
            Merge {
                survivor,
                absorbed: members[1..].to_vec(),
            }
        })
        .collect();

    // ---- write phase ----
    //
    // Each absorbed leader commits through per-row guards rather than one
    // blind batch, because a cross-cell move is applied by the
    // *destination* cell's owner — a different shard, outside this cell's
    // serialization:
    //
    // * the **commit point** is a check-and-mutate delete of j's spatial
    //   row (fails ⇒ j moved since the scan ⇒ j's merge aborts whole);
    //   the update path's cross-cell move deletes through the same guard
    //   (`update.rs`, the leader branch), so exactly one side wins
    //   and an absorbed leader can never be resurrected;
    // * each **follower re-affiliation** is a check-and-mutate on the
    //   follower's L/F record (fails ⇒ the follower promoted since the
    //   scan ⇒ it keeps its self-chosen affiliation and the school add is
    //   compensated).
    let t1 = s.elapsed_us();
    let mut merged_count = 0usize;
    let mut followers_moved = 0usize;
    let mut aborted = 0usize;
    // Leaders' stored records carry different timestamps (each wrote at its
    // own last update); advance both to `now` under linear motion before
    // differencing, or displacements absorb up to v·Δt of skew.
    let pos_now = |e: &SpatialEntry| e.record.loc.advance(e.record.vel, now.secs_since(e.ts));
    for m in &merges {
        let survivor = &leaders[m.survivor];
        for &j in &m.absorbed {
            let absorbed = &leaders[j];
            // (iii, hoisted) the commit point: atomically delete j from
            // the Spatial Index Table iff its row still holds the scanned
            // record. From here until j's L/F record flips below, j's own
            // updates back off (their guarded move finds no row), so j's
            // affiliation cannot change under us.
            if !tables.spatial_check_and_delete(s, absorbed)? {
                aborted += 1;
                continue;
            }
            // Displacement from the survivor to the absorbed leader at `now`.
            let lead_disp = pos_now(survivor).displacement_to(&pos_now(absorbed));
            // (ii) every follower of j re-affiliates to the survivor; its
            // displacement composes: survivor → j → follower. Re-read the
            // follower's record (not the scanned copy): one that departed
            // since the scan is no longer ours to move.
            for &(f, _) in &follower_infos[j] {
                let (d, expected) = match tables.lf(s, f)? {
                    Some(LfRecord::Follower {
                        leader,
                        displacement,
                        since_us,
                    }) if leader == absorbed.oid => (
                        displacement,
                        LfRecord::Follower {
                            leader,
                            displacement,
                            since_us,
                        },
                    ),
                    _ => continue, // departed (or re-led) since the scan
                };
                let nd = moist_spatial::Displacement::new(lead_disp.dx + d.dx, lead_disp.dy + d.dy);
                // School row before pointer: once the guarded flip lands,
                // f's very next update can depart and must find itself in
                // the survivor's Follower Info to remove.
                tables.add_follower(s, survivor.oid, f, nd, now)?;
                let flipped = tables.lf_check_and_set(
                    s,
                    f,
                    &expected,
                    &LfRecord::Follower {
                        leader: survivor.oid,
                        displacement: nd,
                        since_us: now.0,
                    },
                    now,
                )?;
                if flipped {
                    followers_moved += 1;
                } else {
                    // f promoted between the re-read and the guard: it
                    // never saw the survivor, so un-add it.
                    tables.remove_follower(s, survivor.oid, f)?;
                }
            }
            // (i) j's Follower Info is cleared and j itself becomes a
            // follower of the survivor (school row first, pointer last —
            // j's updates are backed off, see the commit point above).
            // The pointer flip goes through `set_lf` so it lands at a
            // superseding timestamp: this ticker's clock may trail j's
            // own report clock, and a flip stamped behind j's Leader
            // record would be shadowed — j would read itself a leader
            // forever while sitting in the survivor's school.
            tables.affiliation_batch(
                s,
                &coalesce_rows(vec![
                    MoistTables::clear_followers_mutation(absorbed.oid),
                    MoistTables::add_follower_mutation(survivor.oid, absorbed.oid, lead_disp, now),
                ]),
            )?;
            tables.set_lf(
                s,
                absorbed.oid,
                &LfRecord::Follower {
                    leader: survivor.oid,
                    displacement: lead_disp,
                    since_us: now.0,
                },
                now,
            )?;
            merged_count += 1;
        }
    }
    report.write_us = s.elapsed_us() - t1;
    report.merge_aborts = aborted;
    report.merged = merged_count;
    report.followers_moved = followers_moved;
    report.post_leaders = report.pre_leaders - merged_count;
    Ok(report)
}

/// Merges the mutations targeting the same row into one [`RowMutation`]
/// (preserving per-row mutation order), the way a batching client library
/// groups its commit: row-level atomicity is unchanged, the batch just
/// carries fewer row headers.
fn coalesce_rows(batch: Vec<RowMutation>) -> Vec<RowMutation> {
    let mut order: Vec<moist_bigtable::RowKey> = Vec::new();
    let mut by_row: HashMap<moist_bigtable::RowKey, Vec<moist_bigtable::Mutation>> = HashMap::new();
    for rm in batch {
        match by_row.entry(rm.key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().extend(rm.mutations);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(rm.key.clone());
                e.insert(rm.mutations);
            }
        }
    }
    order
        .into_iter()
        .map(|key| {
            let mutations = by_row.remove(&key).expect("tracked key");
            RowMutation { key, mutations }
        })
        .collect()
}

/// Clusters every clustering cell of the map once, sequentially ("at any
/// given time only a small number of clustering cells are being processed",
/// §3.3.2). Returns the aggregated report.
pub fn cluster_sweep(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    now: Timestamp,
) -> Result<ClusterReport> {
    let mut total = ClusterReport::default();
    for index in 0..cells_at_level(cfg.clustering_level) {
        let cell = CellId {
            level: cfg.clustering_level,
            index,
        };
        let r = cluster_cell(s, tables, cfg, cell, now)?;
        total.merge_from(&r);
    }
    Ok(total)
}

/// Tracks per-cell clustering deadlines so servers can run lazy clustering
/// on the configured interval `T_c`.
///
/// Deadlines live in a min-heap keyed by due time, so `due_cells` is
/// `O(due · log keys)` rather than a full sweep of every cell, and a cell
/// re-arms from its *missed deadline* (advanced by whole intervals past
/// `now`), so late callers do not drift the schedule's phase.
///
/// A standalone [`MoistServer`](crate::MoistServer) holds one for the
/// whole map. A [`MoistCluster`](crate::MoistCluster) holds one for the
/// whole tier, keyed by routing key: a shard's tick pops only the due keys
/// it is the rendezvous primary of and leaves the others' in place, so
/// every key is clustered by exactly one shard. A key's deadline belongs
/// to its cell, not to the cell's owner: joins, leaves and weight changes
/// move no deadline, and only a split or unsplit re-keys the table
/// ([`resplit`](ClusterScheduler::resplit)).
#[derive(Debug)]
pub(crate) struct ClusterScheduler {
    interval_us: u64,
    level: u8,
    /// Min-heap of `(due_us, routing key)`.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ClusterScheduler {
    /// Creates a scheduler over every cell of `cfg`'s clustering level.
    ///
    /// First deadlines are staggered by cell index so cells do not all
    /// fire at once (the paper clusters cells sequentially for the same
    /// reason).
    pub(crate) fn new(cfg: &MoistConfig) -> Self {
        let n = cells_at_level(cfg.clustering_level);
        let interval_us = (cfg.cluster_interval_secs * 1e6) as u64;
        // 128-bit multiply before the divide: at fine levels `n` exceeds
        // `interval_us` and the naive `interval_us / n * i` truncates every
        // stagger to 0, re-creating the thundering herd.
        let stagger = |i: u64| (interval_us as u128 * i as u128 / n as u128) as u64;
        ClusterScheduler {
            interval_us: interval_us.max(1),
            level: cfg.clustering_level,
            heap: (0..n)
                .map(|i| Reverse((interval_us + stagger(i), i)))
                .collect(),
        }
    }

    /// The pending deadline (virtual µs) of routing key `key`, or `None`
    /// if `key` is not scheduled.
    pub(crate) fn deadline_of(&self, key: u64) -> Option<u64> {
        self.heap
            .iter()
            .find(|Reverse((_, k))| *k == key)
            .map(|Reverse((due, _))| *due)
    }

    /// The cells due for clustering at `now` among the routing keys
    /// `mine` accepts, re-armed from their deadline. Due keys `mine`
    /// rejects stay scheduled untouched, for the shard they belong to.
    ///
    /// Each returned cell's next deadline is its missed one advanced by
    /// whole intervals until it is strictly in the future: the phase of the
    /// schedule is preserved without accumulating a catch-up backlog, and a
    /// cell fires at most once per call. Routing keys decode to concrete
    /// cells here ([`routing_key_cell`]): a split cell's children come back
    /// as cells one level finer, each clustered as its own smaller cell.
    ///
    /// A tick past 2^62 µs, the latest report time an update may carry, is
    /// refused before any key pops: re-arming adds whole intervals to a
    /// deadline, which must stay inside `u64`.
    pub(crate) fn due_cells(
        &mut self,
        now: Timestamp,
        mine: impl Fn(u64) -> bool,
    ) -> Result<Vec<CellId>> {
        if now.0 > MAX_REPORT_US {
            return Err(MoistError::Inconsistent(format!(
                "clustering tick at {} µs is past the end of time",
                now.0
            )));
        }
        let now_us = now.0;
        let mut due = Vec::new();
        let mut back = Vec::new();
        while let Some(Reverse((due_us, key))) = self.heap.peek().copied() {
            if due_us > now_us {
                break;
            }
            self.heap.pop();
            if !mine(key) {
                back.push(Reverse((due_us, key)));
                continue;
            }
            due.push(routing_key_cell(key, self.level));
            let missed = (now_us - due_us) / self.interval_us + 1;
            back.push(Reverse((due_us + missed * self.interval_us, key)));
        }
        self.heap.extend(back);
        Ok(due)
    }

    /// Re-keys the schedule from split table `old` to `new`: a freshly
    /// split cell hands its pending deadline to its four children, so none
    /// re-clusters early or skips a round, and a reunited cell takes its
    /// earliest child's deadline.
    pub(crate) fn resplit(&mut self, old: &SplitTable, new: &SplitTable) {
        let split: Vec<u64> = new.cells().filter(|&c| !old.is_split(c)).collect();
        let unsplit: Vec<u64> = old.cells().filter(|&c| !new.is_split(c)).collect();
        if split.is_empty() && unsplit.is_empty() {
            return;
        }
        let mut due: HashMap<u64, u64> = self.heap.drain().map(|Reverse((d, k))| (k, d)).collect();
        for cell in split {
            if let Some(d) = due.remove(&cell) {
                due.extend(SplitTable::child_keys(cell).map(|child| (child, d)));
            }
        }
        for cell in unsplit {
            let children = SplitTable::child_keys(cell);
            if let Some(d) = children.iter().filter_map(|c| due.remove(c)).min() {
                due.insert(cell, d);
            }
        }
        self.heap = due.into_iter().map(|(k, d)| Reverse((d, k))).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{winner, ShardWeight};
    use crate::update::{apply_update, UpdateMessage};
    use moist_bigtable::Bigtable;
    use moist_spatial::{Point, Velocity};
    use std::sync::Arc;

    fn setup() -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            delta_m: 0.5,
            clustering_level: 3,
            ..MoistConfig::default()
        };
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session(); // real cost profile: reports need time
        (store, tables, session, cfg)
    }

    #[allow(clippy::too_many_arguments)]
    fn seed_leader(
        s: &mut Session,
        t: &MoistTables,
        cfg: &MoistConfig,
        oid: u64,
        x: f64,
        y: f64,
        vx: f64,
        vy: f64,
    ) {
        apply_update(
            s,
            t,
            cfg,
            &UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::new(vx, vy),
                ts: Timestamp::from_secs(1),
            },
        )
        .unwrap();
    }

    #[test]
    fn similar_velocity_leaders_merge_into_one_school() {
        let (_st, t, mut s, cfg) = setup();
        // Three nearby leaders, two with near-identical velocities.
        seed_leader(&mut s, &t, &cfg, 1, 100.0, 100.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 101.0, 100.0, 1.01, 0.0);
        seed_leader(&mut s, &t, &cfg, 3, 102.0, 100.0, -1.0, 0.0); // opposite
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let report = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.pre_leaders, 3);
        assert_eq!(report.merged, 1);
        assert_eq!(report.post_leaders, 2);
        // The merged leader is now a follower.
        let lf1 = t.lf(&mut s, ObjectId(1)).unwrap().unwrap();
        let lf2 = t.lf(&mut s, ObjectId(2)).unwrap().unwrap();
        assert_ne!(lf1.is_leader(), lf2.is_leader(), "exactly one survives");
        // Object 3 is untouched.
        assert!(t.lf(&mut s, ObjectId(3)).unwrap().unwrap().is_leader());
        // Spatial index holds exactly the two surviving leaders.
        assert_eq!(
            t.spatial_count_cell(&mut s, cell, cfg.space.leaf_level)
                .unwrap(),
            2
        );
        // Phase breakdown is populated.
        assert!(report.read_us > 0.0 && report.write_us > 0.0);
    }

    #[test]
    fn merge_transfers_followers_with_composed_displacements() {
        let (_st, t, mut s, cfg) = setup();
        seed_leader(&mut s, &t, &cfg, 1, 100.0, 100.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 110.0, 100.0, 1.0, 0.0);
        let affiliate = |s: &mut Session, leader: u64, follower: u64, d| {
            t.set_lf(
                s,
                ObjectId(follower),
                &LfRecord::Follower {
                    leader: ObjectId(leader),
                    displacement: d,
                    since_us: 0,
                },
                Timestamp::from_secs(1),
            )
            .unwrap();
            t.add_follower(
                s,
                ObjectId(leader),
                ObjectId(follower),
                d,
                Timestamp::from_secs(1),
            )
            .unwrap();
        };
        // Leader 1 has one follower (9); leader 2 has two (10, 11), so 2
        // survives the merge and 1's school moves over.
        let d9 = moist_spatial::Displacement::new(0.0, 3.0);
        affiliate(&mut s, 1, 9, d9);
        affiliate(&mut s, 2, 10, moist_spatial::Displacement::new(1.0, 0.0));
        affiliate(&mut s, 2, 11, moist_spatial::Displacement::new(2.0, 0.0));
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let report = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.merged, 1);
        assert_eq!(report.followers_moved, 1, "only the absorbed school moves");
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
        // The absorbed leader 1 follows 2 with displacement 2→1 = (-10, 0).
        match t.lf(&mut s, ObjectId(1)).unwrap().unwrap() {
            LfRecord::Follower {
                leader,
                displacement,
                ..
            } => {
                assert_eq!(leader, ObjectId(2));
                assert!((displacement.dx - (-10.0)).abs() < 1e-9);
            }
            _ => panic!("absorbed leader must follow"),
        }
        // Follower 9's displacement composed: 2→1 + 1→9 = (-10, 3).
        match t.lf(&mut s, ObjectId(9)).unwrap().unwrap() {
            LfRecord::Follower {
                leader,
                displacement,
                ..
            } => {
                assert_eq!(leader, ObjectId(2));
                assert!((displacement.dx - (-10.0)).abs() < 1e-9);
                assert!((displacement.dy - 3.0).abs() < 1e-9);
            }
            _ => panic!("moved follower must follow the survivor"),
        }
        // Survivor's Follower Info: 10, 11, moved 9, absorbed 1.
        let followers = t.followers(&mut s, ObjectId(2)).unwrap();
        assert_eq!(followers.len(), 4);
        // Absorbed leader's own Follower Info was cleared.
        assert!(t.followers(&mut s, ObjectId(1)).unwrap().is_empty());
    }

    #[test]
    fn far_apart_leaders_are_not_merged_across_cells() {
        let (_st, t, mut s, cfg) = setup();
        // Same velocity but opposite map corners: different clustering cells.
        seed_leader(&mut s, &t, &cfg, 1, 10.0, 10.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 990.0, 990.0, 1.0, 0.0);
        let report = cluster_sweep(&mut s, &t, &cfg, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.merged, 0, "geographic proximity is required");
        assert_eq!(report.pre_leaders, 2);
    }

    #[test]
    fn empty_and_singleton_cells_are_cheap_noops() {
        let (_st, t, mut s, cfg) = setup();
        seed_leader(&mut s, &t, &cfg, 1, 500.0, 500.0, 1.0, 0.0);
        let empty_cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(10.0, 10.0));
        let r = cluster_cell(&mut s, &t, &cfg, empty_cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r.pre_leaders, 0);
        assert_eq!(r.write_us, 0.0);
        let single = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(500.0, 500.0));
        let r = cluster_cell(&mut s, &t, &cfg, single, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r.pre_leaders, 1);
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn clustering_is_idempotent() {
        let (_st, t, mut s, cfg) = setup();
        for i in 0..10 {
            seed_leader(&mut s, &t, &cfg, i, 100.0 + i as f64, 100.0, 1.0, 0.0);
        }
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let r1 = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r1.post_leaders, 1);
        let r2 = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(3)).unwrap();
        assert_eq!(r2.pre_leaders, 1);
        assert_eq!(r2.merged, 0, "second clustering finds nothing to merge");
    }

    #[test]
    fn scheduler_fires_each_cell_once_per_interval() {
        let cfg = MoistConfig {
            clustering_level: 1, // 4 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        let mut due = |t| sched.due_cells(Timestamp::from_secs(t), |_| true).unwrap();
        assert!(due(5).is_empty());
        // Deadlines are staggered at 10, 12.5, 15, 17.5 s: after 18 s every
        // cell has fired exactly once.
        let fired: usize = [10, 12, 15, 18].map(|t| due(t).len()).iter().sum();
        assert_eq!(fired, 4);
        // They re-arm one interval past their deadline.
        assert_eq!(due(40).len(), 4);
    }

    #[test]
    fn scheduler_rearms_from_deadline_not_call_time() {
        let cfg = MoistConfig {
            clustering_level: 0, // one cell, first due at 10 s
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        let mut due = |t| sched.due_cells(Timestamp::from_secs(t), |_| true).unwrap();
        // A caller 3 s late: the cell fires, and the schedule keeps its
        // phase (next deadline 20 s, not 23 s).
        assert_eq!(due(13).len(), 1);
        assert!(due(19).is_empty());
        assert_eq!(due(20).len(), 1);
        // A caller several intervals late gets the cell once, not a
        // backlog of catch-up firings; phase is still preserved.
        assert_eq!(due(57).len(), 1);
        assert!(due(59).is_empty());
        assert_eq!(due(60).len(), 1);
    }

    #[test]
    fn member_ticks_fire_only_their_keys_and_leave_the_rest_untouched() {
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let members = [0u64, 1, 2, 3].map(ShardWeight::unit);
        let mut sched = ClusterScheduler::new(&cfg);
        let first: Vec<Option<u64>> = (0..64).map(|k| sched.deadline_of(k)).collect();
        // Past every staggered first deadline (they all lie in [T, 2T)).
        let now = Timestamp::from_secs(25);
        let mut seen = std::collections::HashSet::new();
        for pos in 0..members.len() {
            for cell in sched
                .due_cells(now, |k| winner(k, &members) == pos)
                .unwrap()
            {
                assert_eq!(winner(cell.index, &members), pos);
                assert!(seen.insert(cell.index), "cell {} fired twice", cell.index);
            }
            // The other members' keys keep their first deadline until
            // their own tick pops them.
            for key in 0..64 {
                if winner(key, &members) > pos {
                    assert_eq!(sched.deadline_of(key), first[key as usize]);
                }
            }
        }
        assert_eq!(seen.len(), 64, "every cell fires exactly once");
    }

    #[test]
    fn resplit_hands_a_cells_deadline_down_and_back_up() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        let due = sched.deadline_of(5).unwrap();
        let mut splits = SplitTable::new();
        splits.split(5);
        sched.resplit(&SplitTable::new(), &splits);
        assert_eq!(sched.deadline_of(5), None, "the split parent is re-keyed");
        let children = SplitTable::child_keys(5);
        for child in children {
            assert_eq!(
                sched.deadline_of(child),
                Some(due),
                "children inherit the phase"
            );
        }
        // The split cell fires as its four children, one level finer.
        let fired = sched
            .due_cells(Timestamp::from_secs(100), |_| true)
            .unwrap();
        assert_eq!(fired.len(), 15 + 4);
        let fine: Vec<&CellId> = fired.iter().filter(|c| c.level == 3).collect();
        assert_eq!(fine.len(), 4);
        assert!(fine.iter().all(|c| c.index >> 2 == 5));
        // One child fires once more, so the others now hold the earliest
        // child deadline: the reunited cell takes it and the children
        // leave the table.
        let earliest = sched.deadline_of(children[0]).unwrap();
        let fired = sched.due_cells(Timestamp(earliest), |k| k == children[0]);
        assert_eq!(fired.unwrap().len(), 1);
        assert!(sched.deadline_of(children[0]).unwrap() > earliest);
        assert_eq!(sched.deadline_of(children[1]), Some(earliest));
        sched.resplit(&splits, &SplitTable::new());
        assert_eq!(sched.deadline_of(5), Some(earliest));
        assert!(children.iter().all(|&c| sched.deadline_of(c).is_none()));
        assert_eq!(sched.heap.len(), 16);
        // No split-table change, no re-keying.
        sched.resplit(&SplitTable::new(), &SplitTable::new());
        assert_eq!(sched.heap.len(), 16);
    }

    #[test]
    fn ticks_past_the_end_of_time_pop_nothing() {
        let mut sched = ClusterScheduler::new(&MoistConfig::default());
        let end = Timestamp(MAX_REPORT_US + 1);
        assert!(sched.due_cells(end, |_| true).is_err());
        assert_eq!(
            sched.deadline_of(0),
            ClusterScheduler::new(&MoistConfig::default()).deadline_of(0)
        );
    }
}
