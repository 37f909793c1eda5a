//! The Bx-tree comparator (Jensen, Lin, Ooi — VLDB 2004; \[15\] in the MOIST
//! paper).
//!
//! A Bx-tree indexes moving objects in a B+-tree whose keys concatenate a
//! *time partition* with the space-filling-curve value of the object's
//! position linearised at that partition's *label timestamp*:
//!
//! `key = partition ∥ curve(pos at label(t)) ∥ oid`
//!
//! Positions are advanced to the label timestamp under linear motion, so the
//! index stays valid without rewrites until the partition rolls over. A
//! range query at time `t` must, per partition, **enlarge** the query window
//! by `v_max · |t − label|` to catch objects that may have moved in or out,
//! then scan the covering curve ranges. kNN iteratively grows a search
//! radius until `k` candidates are confirmed.
//!
//! The tree runs against the same `moist-bigtable` store and cost model as
//! MOIST (the underlying B+-tree role is played by the sorted row space), so
//! the QPS comparison in the `headline` bench reflects algorithmic cost —
//! update = delete + insert, one object per update, zero shedding — rather
//! than substrate differences.

use moist_bigtable::{
    Bigtable, ColumnFamily, Mutation, ReadOptions, Result, RowKey, ScanRange, Session, Table,
    TableSchema, Timestamp,
};
use moist_spatial::{cover_rect, CellId, Point, Rect, Space, Velocity};
use std::collections::HashMap;
use std::sync::Arc;

/// Bx-tree configuration.
#[derive(Debug, Clone, Copy)]
pub struct BxConfig {
    /// Number of time partitions (classically 2: "half-phase" indexing).
    pub partitions: u64,
    /// Length of one partition in seconds (`Δt`); label timestamps sit at
    /// partition ends.
    pub phase_secs: f64,
    /// Curve level of the linearisation grid (the Bx "grid order").
    pub grid_level: u8,
    /// Maximum object speed `v_max`, world units/s (drives window
    /// enlargement).
    pub v_max: f64,
}

impl Default for BxConfig {
    fn default() -> Self {
        BxConfig {
            partitions: 2,
            phase_secs: 60.0,
            grid_level: 10,
            v_max: 2.0,
        }
    }
}

/// One indexed object as returned by queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BxEntry {
    /// Object id.
    pub oid: u64,
    /// Position advanced to the query evaluation time.
    pub loc: Point,
    /// Stored velocity.
    pub vel: Velocity,
}

const FAMILY: &str = "o";
const QUAL: &str = "v";

/// The Bx-tree index.
pub struct BxTree {
    cfg: BxConfig,
    space: Space,
    table: Arc<Table>,
    /// oid → current (key, label position/velocity) for the delete half of
    /// updates (the classical implementation keeps this in the client).
    current: HashMap<u64, RowKey>,
}

impl BxTree {
    /// Creates (or opens) the index table.
    pub fn new(store: &Arc<Bigtable>, space: Space, cfg: BxConfig, name: &str) -> Result<Self> {
        let table = match store.open_table(name) {
            Ok(t) => t,
            Err(_) => store.create_table(TableSchema::new(
                name,
                vec![ColumnFamily::in_memory(FAMILY, 1)],
            )?)?,
        };
        Ok(BxTree {
            cfg,
            space,
            table,
            current: HashMap::new(),
        })
    }

    /// The partition index active for an update at `t`.
    fn partition_of(&self, t: Timestamp) -> u64 {
        ((t.as_secs_f64() / self.cfg.phase_secs) as u64) % self.cfg.partitions
    }

    /// Label timestamp of the partition an update at `t` goes into: the end
    /// of its phase.
    fn label_of(&self, t: Timestamp) -> f64 {
        let phase = (t.as_secs_f64() / self.cfg.phase_secs).floor();
        (phase + 1.0) * self.cfg.phase_secs
    }

    fn key(&self, partition: u64, curve_index: u64, oid: u64) -> RowKey {
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&partition.to_be_bytes());
        v.extend_from_slice(&curve_index.to_be_bytes());
        v.extend_from_slice(&oid.to_be_bytes());
        RowKey::from_bytes(v)
    }

    fn encode(loc: &Point, vel: &Velocity, label_secs: f64) -> Vec<u8> {
        let mut v = Vec::with_capacity(40);
        v.extend_from_slice(&loc.x.to_le_bytes());
        v.extend_from_slice(&loc.y.to_le_bytes());
        v.extend_from_slice(&vel.vx.to_le_bytes());
        v.extend_from_slice(&vel.vy.to_le_bytes());
        v.extend_from_slice(&label_secs.to_le_bytes());
        v
    }

    fn decode(buf: &[u8]) -> Option<(Point, Velocity, f64)> {
        if buf.len() < 40 {
            return None;
        }
        let f = |r: std::ops::Range<usize>| f64::from_le_bytes(buf[r].try_into().unwrap());
        Some((
            Point::new(f(0..8), f(8..16)),
            Velocity::new(f(16..24), f(24..32)),
            f(32..40),
        ))
    }

    /// Inserts or updates one object: delete the old B+-tree entry, insert
    /// the new one keyed at the current phase's label timestamp. Two write
    /// RPCs — the Bx-tree's fixed per-update cost that schooling avoids.
    pub fn update(
        &mut self,
        s: &mut Session,
        oid: u64,
        loc: &Point,
        vel: &Velocity,
        t: Timestamp,
    ) -> Result<()> {
        let label = self.label_of(t);
        // Linearise the position at the label timestamp.
        let at_label = loc.advance(*vel, label - t.as_secs_f64());
        let clamped = self.space.world.clamp(&at_label);
        let cell = self.space.cell_at(self.cfg.grid_level, &clamped);
        let key = self.key(self.partition_of(t), cell.index, oid);
        if let Some(old_key) = self.current.insert(oid, key.clone()) {
            if old_key != key {
                s.mutate_row(&self.table, &old_key, &[Mutation::DeleteRow])?;
            }
        }
        s.mutate_row(
            &self.table,
            &key,
            &[Mutation::put(
                FAMILY,
                QUAL,
                t,
                Self::encode(loc, vel, label),
            )],
        )?;
        Ok(())
    }

    /// Range query: all objects inside `rect` at time `t`.
    ///
    /// Per partition, the window is enlarged by `v_max · |t − label|` and
    /// the covering curve cells are scanned as merged contiguous key ranges;
    /// candidates are then position-checked at `t`.
    pub fn range_query(&self, s: &mut Session, rect: &Rect, t: Timestamp) -> Result<Vec<BxEntry>> {
        let mut out = Vec::new();
        let now = t.as_secs_f64();
        for partition in 0..self.cfg.partitions {
            // The worst-case label distance within a partition is one full
            // phase; enlarge conservatively like the original.
            let enlarge = self.cfg.v_max * self.cfg.phase_secs.max(0.0)
                + self.cfg.v_max * 0.0_f64.max(now % self.cfg.phase_secs);
            let enlarged = Rect::new(
                rect.min_x - enlarge,
                rect.min_y - enlarge,
                rect.max_x + enlarge,
                rect.max_y + enlarge,
            );
            let unit = self.space.rect_to_unit(&enlarged);
            // Cover at an adaptive level (≤ 16×16 cells), then widen each
            // cover cell to its contiguous grid-level key range: same
            // superset semantics, bounded enumeration cost.
            let mut cover_level = self.cfg.grid_level;
            while cover_level > 0 {
                let side = (1u64 << cover_level) as f64;
                let span_x = (unit.max_x - unit.min_x) * side;
                let span_y = (unit.max_y - unit.min_y) * side;
                if span_x <= 16.0 && span_y <= 16.0 {
                    break;
                }
                cover_level -= 1;
            }
            let cells = cover_rect(self.space.curve, cover_level, &unit);
            for (start, end) in merge_cell_ranges(&cells, self.cfg.grid_level) {
                let rows = s.scan(
                    &self.table,
                    &ScanRange::between(self.key(partition, start, 0), self.key(partition, end, 0)),
                    &ReadOptions::latest_in(FAMILY),
                    None,
                )?;
                for row in rows {
                    let Some(cell) = row.latest(FAMILY, QUAL) else {
                        continue;
                    };
                    let Some((loc, vel, label)) = Self::decode(&cell.value) else {
                        continue;
                    };
                    // Advance from the *update* position: stored loc is the
                    // true position at update time; key was linearised.
                    let pos = loc.advance(vel, now - cell.ts.as_secs_f64());
                    let _ = label;
                    if rect.contains(&pos) {
                        let oid =
                            u64::from_be_bytes(row.key.as_slice()[16..24].try_into().unwrap());
                        out.push(BxEntry { oid, loc: pos, vel });
                    }
                }
            }
        }
        out.sort_by_key(|e| e.oid);
        out.dedup_by_key(|e| e.oid);
        Ok(out)
    }

    /// kNN by iterative range enlargement: start from a radius sized for
    /// the expected density and double until `k` confirmed neighbours fit
    /// inside the verified radius.
    pub fn knn(
        &self,
        s: &mut Session,
        center: Point,
        k: usize,
        t: Timestamp,
    ) -> Result<Vec<BxEntry>> {
        if k == 0 || self.current.is_empty() {
            return Ok(Vec::new());
        }
        let total = self.current.len() as f64;
        let area = self.space.world.width() * self.space.world.height();
        // Radius expected to contain ~k objects under uniform density.
        let mut r = (area * k as f64 / (total * std::f64::consts::PI))
            .sqrt()
            .max(self.space.cell_side_world(self.cfg.grid_level));
        let max_r = self.space.world.width() + self.space.world.height();
        loop {
            let rect = Rect::new(center.x - r, center.y - r, center.x + r, center.y + r);
            let mut found = self.range_query(s, &rect, t)?;
            found.sort_by(|a, b| center.distance(&a.loc).total_cmp(&center.distance(&b.loc)));
            // Confirmed when the k-th candidate is within the *inscribed*
            // circle of the query rect (else a nearer object could hide
            // outside the rect corners).
            if found.len() >= k && center.distance(&found[k - 1].loc) <= r {
                found.truncate(k);
                return Ok(found);
            }
            if r >= max_r {
                found.truncate(k);
                return Ok(found);
            }
            r *= 2.0;
        }
    }
}

/// Expands same-level cover cells to their contiguous `grid_level` key
/// ranges and merges adjacent ranges (cells arrive sorted from
/// `cover_rect`, so ranges arrive sorted too).
fn merge_cell_ranges(cells: &[CellId], grid_level: u8) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for c in cells {
        let Some((start, end)) = c.descendant_range(grid_level) else {
            continue;
        };
        match ranges.last_mut() {
            Some((_, e)) if *e == start => *e = end,
            _ => ranges.push((start, end)),
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_bigtable::CostProfile;

    fn setup() -> (Arc<Bigtable>, BxTree, Session) {
        let store = Bigtable::new();
        let tree = BxTree::new(&store, Space::paper_map(), BxConfig::default(), "bx").unwrap();
        let s = store.session_with(CostProfile::free());
        (store, tree, s)
    }

    #[test]
    fn merge_cell_ranges_collapses_contiguous_runs() {
        let mk = |i| CellId::new(4, i).unwrap();
        // Same level: ranges are the indexes themselves.
        let ranges = merge_cell_ranges(&[mk(1), mk(2), mk(3), mk(7), mk(9), mk(10)], 4);
        assert_eq!(ranges, vec![(1, 4), (7, 8), (9, 11)]);
        assert!(merge_cell_ranges(&[], 4).is_empty());
        // Coarser cover cells expand to their descendant ranges.
        let ranges = merge_cell_ranges(&[mk(1), mk(2)], 6);
        assert_eq!(ranges, vec![(16, 48)]);
    }

    #[test]
    fn update_then_range_query_finds_static_objects() {
        let (_st, mut tree, mut s) = setup();
        for i in 0..50u64 {
            let p = Point::new(
                10.0 + (i % 10) as f64 * 100.0,
                10.0 + (i / 10) as f64 * 100.0,
            );
            tree.update(&mut s, i, &p, &Velocity::ZERO, Timestamp::from_secs(1))
                .unwrap();
        }
        let hits = tree
            .range_query(
                &mut s,
                &Rect::new(0.0, 0.0, 250.0, 250.0),
                Timestamp::from_secs(1),
            )
            .unwrap();
        // Objects at x ∈ {10,110,210} × y ∈ {10,110,210}: 9 objects.
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn moving_objects_are_found_at_their_future_positions() {
        let (_st, mut tree, mut s) = setup();
        // Object crossing the map at 2 u/s.
        tree.update(
            &mut s,
            1,
            &Point::new(100.0, 500.0),
            &Velocity::new(2.0, 0.0),
            Timestamp::from_secs(0),
        )
        .unwrap();
        // 50 s later it should appear around x=200.
        let hits = tree
            .range_query(
                &mut s,
                &Rect::new(190.0, 490.0, 210.0, 510.0),
                Timestamp::from_secs(50),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!((hits[0].loc.x - 200.0).abs() < 1e-9);
        // And it is NOT found at its stale position.
        let stale = tree
            .range_query(
                &mut s,
                &Rect::new(90.0, 490.0, 110.0, 510.0),
                Timestamp::from_secs(50),
            )
            .unwrap();
        assert!(stale.is_empty());
    }

    #[test]
    fn knn_matches_brute_force() {
        let (_st, mut tree, mut s) = setup();
        let mut pts = Vec::new();
        let mut state = 0xBADC0FFEE0DDF00Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..300u64 {
            let p = Point::new(next() * 1000.0, next() * 1000.0);
            pts.push((i, p));
            tree.update(&mut s, i, &p, &Velocity::ZERO, Timestamp::from_secs(1))
                .unwrap();
        }
        let center = Point::new(400.0, 600.0);
        let got = tree
            .knn(&mut s, center, 7, Timestamp::from_secs(1))
            .unwrap();
        let mut brute: Vec<(u64, f64)> =
            pts.iter().map(|&(i, p)| (i, center.distance(&p))).collect();
        brute.sort_by(|a, b| a.1.total_cmp(&b.1));
        let want: Vec<u64> = brute[..7].iter().map(|&(i, _)| i).collect();
        let got_ids: Vec<u64> = got.iter().map(|e| e.oid).collect();
        assert_eq!(got_ids, want);
    }

    #[test]
    fn update_replaces_the_old_entry() {
        let (_st, mut tree, mut s) = setup();
        tree.update(
            &mut s,
            1,
            &Point::new(100.0, 100.0),
            &Velocity::ZERO,
            Timestamp::from_secs(0),
        )
        .unwrap();
        tree.update(
            &mut s,
            1,
            &Point::new(900.0, 900.0),
            &Velocity::ZERO,
            Timestamp::from_secs(1),
        )
        .unwrap();
        let everywhere = tree
            .range_query(
                &mut s,
                &Rect::new(0.0, 0.0, 1000.0, 1000.0),
                Timestamp::from_secs(1),
            )
            .unwrap();
        assert_eq!(everywhere.len(), 1);
        assert_eq!(everywhere[0].loc, Point::new(900.0, 900.0));
    }

    #[test]
    fn knn_on_empty_tree_and_k_zero() {
        let (_st, mut tree, mut s) = setup();
        assert!(tree
            .knn(&mut s, Point::new(1.0, 1.0), 3, Timestamp::ZERO)
            .unwrap()
            .is_empty());
        tree.update(
            &mut s,
            1,
            &Point::new(5.0, 5.0),
            &Velocity::ZERO,
            Timestamp::ZERO,
        )
        .unwrap();
        assert!(tree
            .knn(&mut s, Point::new(1.0, 1.0), 0, Timestamp::ZERO)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn knn_with_fewer_objects_than_k_returns_all() {
        let (_st, mut tree, mut s) = setup();
        for i in 0..3u64 {
            tree.update(
                &mut s,
                i,
                &Point::new(100.0 * i as f64 + 50.0, 500.0),
                &Velocity::ZERO,
                Timestamp::ZERO,
            )
            .unwrap();
        }
        let got = tree
            .knn(&mut s, Point::new(0.0, 500.0), 10, Timestamp::ZERO)
            .unwrap();
        assert_eq!(got.len(), 3);
    }
}
