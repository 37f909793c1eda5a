//! Nearest-neighbour search (§3.4, Algorithm 2).
//!
//! Two priority queues drive the search: `Q_cell` pops the unvisited NN cell
//! closest to the query point; `Q_obj` keeps the best `k` candidates seen so
//! far, popping its *furthest* member. A cell whose lower-bound distance
//! exceeds the current k-th candidate distance terminates the loop, because
//! cell distance lower-bounds every object inside it.
//!
//! NN cells live at a tunable level `l_n` coarser than the table's leaf
//! level `l_s`; by the curve's prefix property each NN cell is one
//! contiguous row range, fetched with a single batch scan.

use crate::config::MoistConfig;
use crate::error::Result;
use crate::ids::ObjectId;
use crate::tables::{MoistTables, SpatialEntry};
use moist_bigtable::{Session, Timestamp};
use moist_spatial::{CellId, Point, Rect};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// One returned neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The object.
    pub oid: ObjectId,
    /// Its (possibly estimated/predicted) world location.
    pub loc: Point,
    /// Distance to the query point, world units.
    pub distance: f64,
    /// The leader of the object's school (itself for leaders).
    pub leader: ObjectId,
}

/// Finest NN level a caller may fix. Algorithm 2 walks every cell out to
/// the k-th neighbour, and each level finer quadruples the cells over the
/// same distance: on a sparse map a fixed level 14 scans ~300k cells and
/// level 20 runs for minutes. Level 10 bounds the walk at 4^10 cells, the
/// limit the clustering schedule keeps too. FLAG's own levels are not
/// capped: FLAG picks a level whose cell holds about σ objects.
pub(crate) const MAX_FIXED_NN_LEVEL: u8 = 10;

/// Query shaping.
#[derive(Debug, Clone, Copy)]
pub struct NnOptions {
    /// Maximum neighbours returned (`k`).
    pub k: usize,
    /// NN cell level `l_n`: `None` (the default) has FLAG tune it per
    /// query; `Some(level)` fixes it, as the paper's "Search Level 19/20"
    /// baselines do. A fixed level finer than 10 is refused with
    /// [`MoistError::Inconsistent`](crate::MoistError::Inconsistent).
    pub nn_level: Option<u8>,
    /// Expand schools: include followers at their estimated locations
    /// (§3.4 steps iii–iv). When false only leaders are returned.
    pub include_followers: bool,
    /// Predictive search horizon in seconds: candidates are evaluated at
    /// `at + predict_secs` under linear motion (§3.4.1's "predictive
    /// version"). Zero for current positions.
    pub predict_secs: f64,
    /// Search-range limit in world units (§4.3.1's "search range limit"):
    /// neighbours beyond this distance are never returned and cells beyond
    /// it are never scanned. `f64::INFINITY` disables the limit.
    pub max_distance: f64,
}

impl NnOptions {
    /// `k` nearest with followers, at FLAG's level, with no prediction
    /// and no range limit.
    pub fn new(k: usize) -> Self {
        NnOptions {
            k,
            nn_level: None,
            include_followers: true,
            predict_secs: 0.0,
            max_distance: f64::INFINITY,
        }
    }
}

/// Statistics of one NN query, for the Figure 12 benches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NnStats {
    /// NN cells popped and scanned.
    pub cells_scanned: usize,
    /// Leader rows retrieved from the Spatial Index Table.
    pub leaders_fetched: usize,
    /// Shards that scanned for this query: always 1 — Algorithm 2 runs
    /// whole on one server (on the tier, the key's reader).
    pub shards_scattered: usize,
    /// Client-visible virtual µs.
    pub cost_us: f64,
}

/// Total-ordered f64 for heap keys (NaN-free by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// World-space rectangle of a unit-space cell.
fn cell_world_rect(cfg: &MoistConfig, cell: CellId) -> Rect {
    let b = cell.bounds(cfg.space.curve);
    let lo = cfg.space.to_world(&Point::new(b.min_x, b.min_y));
    let hi = cfg.space.to_world(&Point::new(b.max_x, b.max_y));
    Rect::new(lo.x, lo.y, hi.x, hi.y)
}

/// Evaluated position of a leader record at the query's evaluation time.
fn eval_position(entry: &SpatialEntry, eval_at: Timestamp) -> Point {
    let dt = eval_at.secs_since(entry.ts);
    entry.record.loc.advance(entry.record.vel, dt)
}

/// Runs Algorithm 2 at NN level `nn_level` and (optionally) the school
/// expansion of §3.4. `opts.nn_level` is not read: the front end resolves
/// it (FLAG, or the caller's capped fixed level) and passes it here.
///
/// Returns up to `k` neighbours sorted by ascending distance, plus the
/// query statistics.
pub fn nn_query(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    center: Point,
    at: Timestamp,
    nn_level: u8,
    opts: &NnOptions,
) -> Result<(Vec<Neighbor>, NnStats)> {
    let mut stats = NnStats {
        shards_scattered: 1,
        ..NnStats::default()
    };
    if opts.k == 0 {
        return Ok((Vec::new(), stats));
    }
    let cost0 = s.elapsed_us();
    let eval_at = at.plus_secs(opts.predict_secs.max(0.0));
    let nn_level = nn_level.min(cfg.space.leaf_level);

    // Q_cell: min-heap on distance (BinaryHeap is a max-heap → Reverse).
    let mut q_cell: BinaryHeap<std::cmp::Reverse<(Dist, CellId)>> = BinaryHeap::new();
    let mut seen: HashSet<CellId> = HashSet::new();
    let start = cfg.space.cell_at(nn_level, &center);
    q_cell.push(std::cmp::Reverse((Dist(0.0), start)));
    seen.insert(start);

    // Q_obj: max-heap of the best k leader candidates (furthest on top).
    let mut q_obj: BinaryHeap<(Dist, u64)> = BinaryHeap::new();
    let mut found: Vec<(SpatialEntry, Point, f64)> = Vec::new();
    let mut dist_max = f64::INFINITY;

    while let Some(std::cmp::Reverse((Dist(cell_dist), cell))) = q_cell.pop() {
        if cell_dist > dist_max.min(opts.max_distance) {
            break; // Line 7: nearest remaining cell cannot improve Q_obj.
        }
        // One contiguous batch scan per cell.
        let entries = tables.spatial_scan_cell(s, cell, cfg.space.leaf_level, None)?;
        stats.cells_scanned += 1;
        stats.leaders_fetched += entries.len();
        for entry in entries {
            let pos = eval_position(&entry, eval_at);
            let d = center.distance(&pos);
            if d > opts.max_distance {
                continue;
            }
            q_obj.push((Dist(d), entry.oid.0));
            found.push((entry, pos, d));
            if q_obj.len() > opts.k {
                q_obj.pop();
            }
            if q_obj.len() == opts.k {
                dist_max = q_obj.peek().map(|(Dist(d), _)| *d).unwrap_or(f64::INFINITY);
            }
        }
        // Lines 19–21: push the edge neighbours.
        for n in cell.edge_neighbors(cfg.space.curve) {
            if seen.insert(n) {
                let d = cell_world_rect(cfg, n).distance_to_point(&center);
                q_cell.push(std::cmp::Reverse((Dist(d), n)));
            }
        }
    }

    let mut candidates = expand_school_candidates(s, tables, &center, &found, opts)?;
    // Ties break by object id, so the ranking is a property of the data,
    // not of scan order. Each object appears once: a leader is exactly
    // one spatial entry, a follower lives in exactly one school, and the
    // clustering merge's guarded commit keeps those disjoint even under
    // racing cross-cell moves (a merge whose scanned row changed aborts).
    candidates.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.oid.cmp(&b.oid)));
    candidates.truncate(opts.k);
    stats.cost_us = s.elapsed_us() - cost0;
    Ok((candidates, stats))
}

/// §3.4 steps (iii)–(iv) applied to the scanned leader entries: builds
/// each leader's candidate and batch-expands its school (one RPC),
/// filtering followers by the search-range limit.
fn expand_school_candidates(
    s: &mut Session,
    tables: &MoistTables,
    center: &Point,
    found: &[(SpatialEntry, Point, f64)],
    opts: &NnOptions,
) -> Result<Vec<Neighbor>> {
    let leader = |(entry, pos, d): &(SpatialEntry, Point, f64)| Neighbor {
        oid: entry.oid,
        loc: *pos,
        distance: *d,
        leader: entry.oid,
    };
    let mut candidates: Vec<Neighbor> = found.iter().map(leader).collect();
    if opts.include_followers && !found.is_empty() {
        let leader_ids: Vec<ObjectId> = found.iter().map(|(e, _, _)| e.oid).collect();
        let infos = tables.batch_followers(s, &leader_ids)?;
        for (i, followers) in infos.into_iter().enumerate() {
            let leader_pos = found[i].1;
            for (foid, disp) in followers {
                let pos = leader_pos.translate(disp);
                let d = center.distance(&pos);
                if d <= opts.max_distance {
                    candidates.push(Neighbor {
                        oid: foid,
                        loc: pos,
                        distance: d,
                        leader: leader_ids[i],
                    });
                }
            }
        }
    }
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{apply_update, UpdateMessage};
    use moist_bigtable::{Bigtable, CostProfile};
    use moist_spatial::Velocity;
    use std::sync::Arc;

    fn setup() -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session, cfg)
    }

    fn put(s: &mut Session, t: &MoistTables, cfg: &MoistConfig, oid: u64, x: f64, y: f64) {
        apply_update(
            s,
            t,
            cfg,
            &UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs(1),
            },
        )
        .unwrap();
    }

    #[test]
    fn finds_the_true_k_nearest_leaders() {
        let (_st, t, mut s, cfg) = setup();
        // A ring of objects around (500,500) at distances 10, 20, ..., 100.
        for i in 1..=10u64 {
            put(&mut s, &t, &cfg, i, 500.0 + 10.0 * i as f64, 500.0);
        }
        let (nn, stats) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(500.0, 500.0),
            Timestamp::from_secs(1),
            8,
            &NnOptions::new(3),
        )
        .unwrap();
        assert_eq!(nn.len(), 3);
        let ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!((nn[0].distance - 10.0).abs() < 1e-9);
        assert!(nn.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert!(stats.cells_scanned >= 1);
    }

    #[test]
    fn exactness_against_brute_force_on_scattered_points() {
        let (_st, t, mut s, cfg) = setup();
        // Deterministic scatter.
        let mut pts = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..200u64 {
            let (x, y) = (next() * 1000.0, next() * 1000.0);
            pts.push((i, x, y));
            put(&mut s, &t, &cfg, i, x, y);
        }
        let center = Point::new(333.0, 667.0);
        for level in [4u8, 6, 8, 10] {
            let opts = NnOptions::new(10);
            let at = Timestamp::from_secs(1);
            let (nn, _) = nn_query(&mut s, &t, &cfg, center, at, level, &opts).unwrap();
            let mut brute: Vec<(u64, f64)> = pts
                .iter()
                .map(|&(i, x, y)| (i, center.distance(&Point::new(x, y))))
                .collect();
            brute.sort_by(|a, b| a.1.total_cmp(&b.1));
            let want: Vec<u64> = brute[..10].iter().map(|&(i, _)| i).collect();
            let got: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
            assert_eq!(got, want, "level {level} disagrees with brute force");
        }
    }

    #[test]
    fn followers_are_expanded_and_can_outrank_far_leaders() {
        let (_st, t, mut s, cfg) = setup();
        put(&mut s, &t, &cfg, 1, 510.0, 500.0); // leader, 10 away
        put(&mut s, &t, &cfg, 2, 600.0, 500.0); // leader, 100 away
                                                // Follower of 1 sitting 5 away from the query point.
        let d = moist_spatial::Displacement::new(-5.0, 0.0);
        t.set_lf(
            &mut s,
            ObjectId(3),
            &crate::codec::LfRecord::Follower {
                leader: ObjectId(1),
                displacement: d,
                since_us: 0,
            },
            Timestamp::from_secs(1),
        )
        .unwrap();
        t.add_follower(&mut s, ObjectId(1), ObjectId(3), d, Timestamp::from_secs(1))
            .unwrap();
        let opts = NnOptions::new(2);
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(500.0, 500.0),
            Timestamp::from_secs(1),
            8,
            &opts,
        )
        .unwrap();
        let ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
        assert_eq!(ids, vec![3, 1], "follower at 5 beats leader at 10");
        assert_eq!(nn[0].leader, ObjectId(1));
        // Leaders-only mode skips the school expansion.
        let opts = NnOptions {
            include_followers: false,
            ..opts
        };
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(500.0, 500.0),
            Timestamp::from_secs(1),
            8,
            &opts,
        )
        .unwrap();
        let ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn predictive_search_uses_future_positions() {
        let (_st, t, mut s, cfg) = setup();
        // Object 1 near now but racing away; object 2 far now but closing in.
        apply_update(
            &mut s,
            &t,
            &cfg,
            &UpdateMessage {
                oid: ObjectId(1),
                loc: Point::new(510.0, 500.0),
                vel: Velocity::new(50.0, 0.0),
                ts: Timestamp::from_secs(0),
            },
        )
        .unwrap();
        apply_update(
            &mut s,
            &t,
            &cfg,
            &UpdateMessage {
                oid: ObjectId(2),
                loc: Point::new(700.0, 500.0),
                vel: Velocity::new(-50.0, 0.0),
                ts: Timestamp::from_secs(0),
            },
        )
        .unwrap();
        let now_opts = NnOptions::new(1);
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(500.0, 500.0),
            Timestamp::from_secs(0),
            6,
            &now_opts,
        )
        .unwrap();
        assert_eq!(nn[0].oid, ObjectId(1), "object 1 is nearest now");
        let future_opts = NnOptions {
            predict_secs: 4.0,
            ..now_opts
        };
        // At t+4: object 1 at 710, object 2 at 500 → object 2 wins.
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(500.0, 500.0),
            Timestamp::from_secs(0),
            6,
            &future_opts,
        )
        .unwrap();
        assert_eq!(nn[0].oid, ObjectId(2), "object 2 is nearest at t+4s");
    }

    #[test]
    fn empty_index_and_k_zero() {
        let (_st, t, mut s, cfg) = setup();
        let (nn, stats) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(1.0, 1.0),
            Timestamp::ZERO,
            6,
            &NnOptions::new(5),
        )
        .unwrap();
        assert!(nn.is_empty());
        // Scanned the whole (empty) frontier without looping forever.
        assert!(stats.cells_scanned > 0);
        put(&mut s, &t, &cfg, 1, 2.0, 2.0);
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(1.0, 1.0),
            Timestamp::ZERO,
            6,
            &NnOptions::new(0),
        )
        .unwrap();
        assert!(nn.is_empty());
    }

    #[test]
    fn query_from_map_corner_stays_in_bounds() {
        let (_st, t, mut s, cfg) = setup();
        put(&mut s, &t, &cfg, 1, 5.0, 5.0);
        let (nn, _) = nn_query(
            &mut s,
            &t,
            &cfg,
            Point::new(0.0, 0.0),
            Timestamp::from_secs(1),
            6,
            &NnOptions::new(1),
        )
        .unwrap();
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].oid, ObjectId(1));
    }
}
