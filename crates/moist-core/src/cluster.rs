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
//! read/compute/write breakdown can be regenerated.

use crate::codec::LfRecord;
use crate::config::MoistConfig;
use crate::error::Result;
use crate::hexgrid::{HexBin, HexGrid};
use crate::ids::ObjectId;
use crate::placement::{routing_key_cell, winner, ShardWeight, SplitTable, SPLIT_CHILD_TAG};
use crate::tables::{MoistTables, SpatialEntry};
use moist_bigtable::{RowMutation, Session, Timestamp};
use moist_spatial::{cells_at_level, CellId};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

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
    /// Virtual µs spent on the in-server computation.
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

    // ---- compute phase (wall-measured, charged to the virtual clock) ----
    let wall0 = std::time::Instant::now();
    let grid = HexGrid::new(cfg.delta_m);
    let mut bins: HashMap<HexBin, Vec<usize>> = HashMap::new();
    for (i, entry) in leaders.iter().enumerate() {
        bins.entry(grid.bin(&entry.record.vel)).or_default().push(i);
    }
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
    let compute_wall_us = wall0.elapsed().as_secs_f64() * 1e6;
    s.charge_extra_us(compute_wall_us);
    report.compute_us = compute_wall_us;

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
/// `O(due · log owned)` rather than a full sweep of every cell, and a cell
/// re-arms from its *missed deadline* (advanced by whole intervals past
/// `now`), so late callers do not drift the schedule's phase.
///
/// In a [`crate::cluster_tier::MoistCluster`] each shard holds the
/// scheduler for the routing keys it wins under [`crate::placement`]'s
/// rendezvous; the shards' owned sets form an exact partition of the
/// clustering level, so every cell is clustered by exactly one shard. On a
/// membership change the tier
/// moves only the cells whose rendezvous winner changed, handing each
/// cell's pending deadline from `release` on the old owner to `adopt`
/// on the new one — the schedule's phase survives the migration, so a
/// joining shard neither re-clusters everything at once nor skips a round.
///
#[derive(Debug)]
pub struct ClusterScheduler {
    interval_us: u64,
    level: u8,
    /// The owned cell indices (mirrors the heap's contents).
    owned: HashSet<u64>,
    /// Min-heap of `(due_us, cell index)` for the owned cells.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ClusterScheduler {
    /// Creates a scheduler owning every cell of `cfg`'s clustering level.
    pub(crate) fn new(cfg: &MoistConfig) -> Self {
        let n = cells_at_level(cfg.clustering_level);
        Self::for_cells(cfg, 0..n)
    }

    /// Creates a scheduler owning no cells (a freshly joined shard before
    /// the tier migrates its rendezvous wins over via [`adopt`]).
    ///
    /// [`adopt`]: ClusterScheduler::adopt
    pub(crate) fn empty(cfg: &MoistConfig) -> Self {
        Self::for_cells(cfg, std::iter::empty())
    }

    /// Creates the scheduler for member `member` of the placement
    /// `members`: it owns the routing keys (unsplit cells, plus children
    /// of split cells) whose rendezvous winner ([`crate::placement::owners`]
    /// rank 0) is `member`.
    pub fn for_placement(
        cfg: &MoistConfig,
        member: u64,
        members: &[ShardWeight],
        splits: &SplitTable,
    ) -> Self {
        Self::for_cells(
            cfg,
            splits
                .routing_keys(cfg.clustering_level)
                .into_iter()
                .filter(|&key| members[winner(key, members)].id == member),
        )
    }

    /// Creates a scheduler owning exactly `cells` — routing keys at
    /// `cfg`'s clustering level (plain cell indices, or
    /// [`SPLIT_CHILD_TAG`]-tagged children of split cells).
    ///
    /// First deadlines are staggered by *global* cell index so cells do
    /// not all fire at once (the paper clusters cells sequentially for the
    /// same reason); the stagger is identical no matter how the level is
    /// split across shards, so handing a cell between owners never shifts
    /// its phase. A split cell's children share their parent's stagger
    /// slot (they inherit its deadline phase on a live split too).
    fn for_cells(cfg: &MoistConfig, cells: impl IntoIterator<Item = u64>) -> Self {
        let n = cells_at_level(cfg.clustering_level);
        let interval_us = (cfg.cluster_interval_secs * 1e6) as u64;
        // 128-bit multiply before the divide: at fine levels `n` exceeds
        // `interval_us` and the naive `interval_us / n * i` truncates every
        // stagger to 0, re-creating the thundering herd.
        let stagger = |key: u64| {
            let i = if key & SPLIT_CHILD_TAG != 0 {
                (key & !SPLIT_CHILD_TAG) >> 2
            } else {
                key
            };
            (interval_us as u128 * i as u128 / n.max(1) as u128) as u64
        };
        let mut owned = HashSet::new();
        let heap = cells
            .into_iter()
            .filter(|&i| owned.insert(i))
            .map(|i| Reverse((interval_us + stagger(i), i)))
            .collect();
        ClusterScheduler {
            interval_us: interval_us.max(1),
            level: cfg.clustering_level,
            owned,
            heap,
        }
    }

    /// Whether this scheduler owns clustering cell `index`.
    pub fn owns(&self, index: u64) -> bool {
        self.owned.contains(&index)
    }

    /// Number of clustering cells this scheduler owns.
    pub fn owned_count(&self) -> usize {
        self.heap.len()
    }

    /// The pending deadline (virtual µs) of owned cell `index`, or `None`
    /// if this scheduler does not own it.
    pub fn deadline_of(&self, index: u64) -> Option<u64> {
        self.heap
            .iter()
            .find(|Reverse((_, i))| *i == index)
            .map(|Reverse((due, _))| *due)
    }

    /// Stops owning cell `index`, returning its pending deadline so the
    /// new owner can [`adopt`](ClusterScheduler::adopt) the cell at the
    /// same phase. Returns `None` (and changes nothing) if the cell was
    /// not owned. `O(owned)` — membership changes are rare.
    pub(crate) fn release(&mut self, index: u64) -> Option<u64> {
        if !self.owned.remove(&index) {
            return None;
        }
        let mut released = None;
        let entries: Vec<_> = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|Reverse((due, i))| {
                if *i == index {
                    released = Some(*due);
                    false
                } else {
                    true
                }
            })
            .collect();
        released
    }

    /// Starts owning cell `index` with the pending deadline `due_us`
    /// (virtual µs) — the counterpart of [`release`] on the cell's new
    /// owner. Adopting preserves the cell's phase: its next clustering
    /// fires exactly when it would have on the old owner, instead of
    /// immediately (a thundering re-cluster) or an interval late (a missed
    /// round). A no-op if the cell is already owned.
    ///
    /// [`release`]: ClusterScheduler::release
    pub(crate) fn adopt(&mut self, index: u64, due_us: u64) {
        if self.owned.insert(index) {
            self.heap.push(Reverse((due_us, index)));
        }
    }

    /// Cells due for clustering at `now`, re-armed from their deadline.
    ///
    /// Each returned cell's next deadline is its missed one advanced by
    /// whole intervals until it is strictly in the future: the phase of the
    /// schedule is preserved without accumulating a catch-up backlog, and a
    /// cell fires at most once per call. Routing keys decode to concrete
    /// cells here ([`routing_key_cell`]): a split cell's children come back
    /// as cells one level finer, each clustered as its own smaller cell.
    pub(crate) fn due_cells(&mut self, now: Timestamp) -> Vec<CellId> {
        let now_us = now.0;
        let mut due = Vec::new();
        while let Some(&Reverse((due_us, index))) = self.heap.peek() {
            if due_us > now_us {
                break;
            }
            self.heap.pop();
            due.push(routing_key_cell(index, self.level));
            let missed = (now_us - due_us) / self.interval_us + 1;
            self.heap
                .push(Reverse((due_us + missed * self.interval_us, index)));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(sched.due_cells(Timestamp::from_secs(5)).is_empty());
        // Deadlines are staggered at 10, 12.5, 15, 17.5 s: after 18 s every
        // cell has fired exactly once.
        let mut fired = 0;
        for t in [10, 12, 15, 18] {
            fired += sched.due_cells(Timestamp::from_secs(t)).len();
        }
        assert_eq!(fired, 4);
        // They re-arm one interval past their deadline.
        let more = sched.due_cells(Timestamp::from_secs(40)).len();
        assert_eq!(more, 4);
    }

    #[test]
    fn scheduler_rearms_from_deadline_not_call_time() {
        let cfg = MoistConfig {
            clustering_level: 0, // one cell, first due at 10 s
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        // A caller 3 s late: the cell fires, and the schedule keeps its
        // phase (next deadline 20 s, not 23 s).
        assert_eq!(sched.due_cells(Timestamp::from_secs(13)).len(), 1);
        assert!(sched.due_cells(Timestamp::from_secs(19)).is_empty());
        assert_eq!(sched.due_cells(Timestamp::from_secs(20)).len(), 1);
        // A caller several intervals late gets the cell once, not a
        // backlog of catch-up firings; phase is still preserved.
        assert_eq!(sched.due_cells(Timestamp::from_secs(57)).len(), 1);
        assert!(sched.due_cells(Timestamp::from_secs(59)).is_empty());
        assert_eq!(sched.due_cells(Timestamp::from_secs(60)).len(), 1);
    }

    #[test]
    fn schedulers_decode_split_children_to_finer_cells() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut splits = SplitTable::new();
        splits.split(5);
        let members = [ShardWeight::unit(0)];
        let mut sched = ClusterScheduler::for_placement(&cfg, 0, &members, &splits);
        assert_eq!(sched.owned_count(), 15 + 4);
        let due = sched.due_cells(Timestamp::from_secs(100));
        assert_eq!(due.len(), 15 + 4);
        let fine: Vec<&CellId> = due.iter().filter(|c| c.level == 3).collect();
        assert_eq!(fine.len(), 4, "the split cell fires as four children");
        for c in fine {
            assert_eq!(c.index >> 2, 5);
        }
        assert!(
            due.iter().filter(|c| c.level == 2).all(|c| c.index != 5),
            "the split parent itself never fires"
        );
    }

    #[test]
    fn rendezvous_schedulers_cover_each_cell_exactly_once() {
        let cfg = MoistConfig {
            clustering_level: 4, // 256 cells
            ..MoistConfig::default()
        };
        for ids in [vec![0u64], vec![0, 1], vec![5, 9, 13], vec![2, 3, 5, 7, 11]] {
            let members: Vec<ShardWeight> = ids.iter().map(|&id| ShardWeight::unit(id)).collect();
            let scheds: Vec<ClusterScheduler> = ids
                .iter()
                .map(|&m| ClusterScheduler::for_placement(&cfg, m, &members, &SplitTable::new()))
                .collect();
            let total: usize = scheds.iter().map(|s| s.owned_count()).sum();
            assert_eq!(total, 256, "{ids:?} must partition the level");
            for index in 0..256u64 {
                let owners = scheds.iter().filter(|s| s.owns(index)).count();
                assert_eq!(owners, 1, "cell {index} with members {ids:?}");
                assert!(scheds[winner(index, &members)].owns(index));
            }
        }
    }

    #[test]
    fn rendezvous_schedulers_fire_only_the_cells_they_own() {
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let members = [0u64, 1, 2, 3].map(ShardWeight::unit);
        let mut scheds: Vec<ClusterScheduler> = members
            .iter()
            .map(|m| ClusterScheduler::for_placement(&cfg, m.id, &members, &SplitTable::new()))
            .collect();
        // Past every staggered first deadline (they all lie in [T, 2T)).
        let now = Timestamp::from_secs(25);
        let mut seen = std::collections::HashSet::new();
        for (pos, sched) in scheds.iter_mut().enumerate() {
            for cell in sched.due_cells(now) {
                assert_eq!(winner(cell.index, &members), pos);
                assert!(seen.insert(cell.index), "cell {} fired twice", cell.index);
            }
        }
        assert_eq!(seen.len(), 64, "every cell fires exactly once");
    }

    #[test]
    fn release_and_adopt_hand_a_cell_over_at_its_phase() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut old = ClusterScheduler::new(&cfg);
        let mut joiner = ClusterScheduler::empty(&cfg);
        assert_eq!(joiner.owned_count(), 0);
        let due = old.deadline_of(5).unwrap();
        assert_eq!(old.release(5), Some(due));
        assert!(!old.owns(5));
        assert_eq!(old.owned_count(), 15);
        assert_eq!(old.release(5), None, "double release is a no-op");
        joiner.adopt(5, due);
        assert!(joiner.owns(5));
        assert_eq!(joiner.deadline_of(5), Some(due), "phase survives handoff");
        // Adopting an already-owned cell does not duplicate it.
        joiner.adopt(5, due + 1);
        assert_eq!(joiner.owned_count(), 1);
        // The released cell never fires on the old owner again.
        let fired: Vec<u64> = old
            .due_cells(Timestamp::from_secs(1_000))
            .iter()
            .map(|c| c.index)
            .collect();
        assert!(!fired.contains(&5));
        // …but fires on the joiner, at the handed-over deadline.
        assert!(joiner.due_cells(Timestamp(due - 1)).is_empty());
        assert_eq!(joiner.due_cells(Timestamp(due)).len(), 1);
    }
}
