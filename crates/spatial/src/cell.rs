//! Hierarchical spatial cells over a space-filling curve.
//!
//! This is the S2Cell-style decomposition of §3.2.1: the unit square is
//! recursively divided into a `2^l × 2^l` grid; each grid cell at level `l`
//! is identified by its curve index. A [`CellId`] therefore doubles as a
//! *row key* in the Spatial Index Table and as a *key range* of all its
//! descendant cells at a finer level — the property batch reads exploit.

use crate::curve::{CurveKind, MAX_LEVEL};
use crate::point::{Point, Rect};
use serde::Serialize;

/// Identifier of one cell of the recursive decomposition.
///
/// A cell is `(level, index)` where `index ∈ [0, 4^level)` is the position of
/// the cell along the space-filling curve at that level. Ordering is by
/// `(level, index)`; within one level this is exactly curve order, which is
/// key order in the Spatial Index Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CellId {
    /// Refinement depth; 0 is the whole space.
    pub level: u8,
    /// Curve index of the cell at `level`.
    pub index: u64,
}

impl CellId {
    /// The root cell covering the whole unit square.
    pub const ROOT: CellId = CellId { level: 0, index: 0 };

    /// Creates a cell id, checking that `index` is on the level's curve.
    ///
    /// Returns `None` when `level > 30` or the index is out of range.
    pub fn new(level: u8, index: u64) -> Option<CellId> {
        if level > MAX_LEVEL || index >= cells_at_level(level) {
            return None;
        }
        Some(CellId { level, index })
    }

    /// The cell at `level` containing the unit-square point `p`.
    ///
    /// Points outside `[0,1)²` are clamped onto the square first, matching
    /// how an indexer must accept slightly out-of-range GPS fixes.
    pub fn from_point(curve: CurveKind, level: u8, p: &Point) -> CellId {
        let level = level.min(MAX_LEVEL);
        let side = 1u64 << level;
        let fx = p.x.clamp(0.0, 1.0 - f64::EPSILON);
        let fy = p.y.clamp(0.0, 1.0 - f64::EPSILON);
        let x = ((fx * side as f64) as u64).min(side - 1) as u32;
        let y = ((fy * side as f64) as u64).min(side - 1) as u32;
        CellId {
            level,
            index: curve.index(level, x, y),
        }
    }

    /// Grid coordinates of this cell on the `2^level` grid.
    #[inline]
    fn coords(&self, curve: CurveKind) -> (u32, u32) {
        curve.coords(self.level, self.index)
    }

    /// The cell's rectangle in unit-square coordinates.
    pub fn bounds(&self, curve: CurveKind) -> Rect {
        let (x, y) = self.coords(curve);
        let side = (1u64 << self.level) as f64;
        Rect::new(
            x as f64 / side,
            y as f64 / side,
            (x + 1) as f64 / side,
            (y + 1) as f64 / side,
        )
    }

    /// Centre of the cell in unit-square coordinates.
    pub fn center(&self, curve: CurveKind) -> Point {
        self.bounds(curve).center()
    }

    /// The parent cell one level up; `None` at the root.
    ///
    /// Valid for any quadrant-refinement curve thanks to the prefix property
    /// (children of `i` are `4i..4i+4`).
    #[inline]
    pub fn parent(&self) -> Option<CellId> {
        if self.level == 0 {
            return None;
        }
        Some(CellId {
            level: self.level - 1,
            index: self.index >> 2,
        })
    }

    /// Ancestor at `level` (must be coarser than or equal to this cell).
    pub fn ancestor_at(&self, level: u8) -> Option<CellId> {
        if level > self.level {
            return None;
        }
        let shift = 2 * (self.level - level) as u64;
        Some(CellId {
            level,
            index: self.index >> shift,
        })
    }

    /// Whether `other` lies inside this cell (possibly at a finer level).
    pub fn contains_cell(&self, other: &CellId) -> bool {
        other.ancestor_at(self.level) == Some(*self)
    }

    /// Range `[start, end)` of descendant curve indexes at `target_level`.
    ///
    /// This is the contiguous Spatial-Index-Table row range the NN search
    /// scans in one batch read (§3.4.1). Returns `None` when `target_level`
    /// is coarser than this cell.
    pub fn descendant_range(&self, target_level: u8) -> Option<(u64, u64)> {
        if target_level < self.level || target_level > MAX_LEVEL {
            return None;
        }
        let shift = 2 * (target_level - self.level) as u64;
        Some((self.index << shift, (self.index + 1) << shift))
    }

    /// The (up to four) edge-adjacent cells at the same level.
    ///
    /// Cells on the boundary of the space have fewer neighbours; the paper's
    /// NN loop pushes "those four cells that share an edge with c" (§3.4.1).
    pub fn edge_neighbors(&self, curve: CurveKind) -> Vec<CellId> {
        let (x, y) = self.coords(curve);
        let side = 1u64 << self.level;
        let mut out = Vec::with_capacity(4);
        let candidates = [
            (x as i64 - 1, y as i64),
            (x as i64 + 1, y as i64),
            (x as i64, y as i64 - 1),
            (x as i64, y as i64 + 1),
        ];
        for (nx, ny) in candidates {
            if nx >= 0 && ny >= 0 && (nx as u64) < side && (ny as u64) < side {
                out.push(CellId {
                    level: self.level,
                    index: curve.index(self.level, nx as u32, ny as u32),
                });
            }
        }
        out
    }

    /// Shortest distance from the unit-square point `p` to this cell.
    #[inline]
    pub fn distance_to_point(&self, curve: CurveKind, p: &Point) -> f64 {
        self.bounds(curve).distance_to_point(p)
    }
}

/// Number of cells at `level` (`4^level`).
#[inline]
pub fn cells_at_level(level: u8) -> u64 {
    1u64 << (2 * level as u64)
}

/// Covers a rectangle with the minimal set of same-level cells intersecting
/// it, in curve order.
///
/// Used to approximate "an arbitrary region by a collection of cells" (§1)
/// for region queries and for clustering-cell enumeration.
pub fn cover_rect(curve: CurveKind, level: u8, rect: &Rect) -> Vec<CellId> {
    let level = level.min(MAX_LEVEL);
    let side = 1u64 << level;
    let to_grid = |v: f64| -> u64 { ((v.clamp(0.0, 1.0) * side as f64) as u64).min(side - 1) };
    // Half-open handling: a rect whose max touches a grid line should not
    // include the next cell, hence the tiny inward nudge on the max corner.
    let eps = f64::EPSILON;
    let x0 = to_grid(rect.min_x);
    let y0 = to_grid(rect.min_y);
    let x1 = to_grid((rect.max_x - eps).max(rect.min_x));
    let y1 = to_grid((rect.max_y - eps).max(rect.min_y));
    let mut cells = Vec::with_capacity(((x1 - x0 + 1) * (y1 - y0 + 1)) as usize);
    for x in x0..=x1 {
        for y in y0..=y1 {
            cells.push(CellId {
                level,
                index: curve.index(level, x as u32, y as u32),
            });
        }
    }
    cells.sort_unstable();
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: CurveKind = CurveKind::Hilbert;

    #[test]
    fn root_contains_everything() {
        let p = Point::new(0.73, 0.21);
        for level in 0..=10 {
            let c = CellId::from_point(H, level, &p);
            assert!(CellId::ROOT.contains_cell(&c));
            assert!(c.bounds(H).contains(&p));
        }
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(CellId::new(2, 15).is_some());
        assert!(CellId::new(2, 16).is_none());
        assert!(CellId::new(MAX_LEVEL + 1, 0).is_none());
    }

    #[test]
    fn parent_child_roundtrip() {
        let c = CellId::from_point(H, 12, &Point::new(0.4, 0.9));
        let kids = (0..4).map(|i| CellId {
            level: c.level + 1,
            index: (c.index << 2) + i,
        });
        for k in kids {
            assert_eq!(k.parent(), Some(c));
            assert!(c.contains_cell(&k));
        }
        assert_eq!(c.ancestor_at(12), Some(c));
        assert_eq!(c.ancestor_at(13), None);
    }

    #[test]
    fn descendant_range_covers_exactly_the_children() {
        let c = CellId::from_point(H, 5, &Point::new(0.1, 0.1));
        let (start, end) = c.descendant_range(8).unwrap();
        assert_eq!(end - start, 64); // 4^3 descendants
                                     // Every index in the range has c as its level-5 ancestor.
        for i in start..end {
            let leaf = CellId { level: 8, index: i };
            assert_eq!(leaf.ancestor_at(5), Some(c));
        }
        // And the indexes just outside do not.
        if start > 0 {
            let before = CellId {
                level: 8,
                index: start - 1,
            };
            assert_ne!(before.ancestor_at(5), Some(c));
        }
        let after = CellId {
            level: 8,
            index: end,
        };
        assert_ne!(after.ancestor_at(5), Some(c));
    }

    #[test]
    fn edge_neighbors_are_mutual_and_adjacent() {
        for level in 1..=6u8 {
            let c = CellId::from_point(H, level, &Point::new(0.51, 0.49));
            let (cx, cy) = c.coords(H);
            let ns = c.edge_neighbors(H);
            assert!(!ns.is_empty() && ns.len() <= 4);
            for n in &ns {
                let (nx, ny) = n.coords(H);
                let manhattan = (cx as i64 - nx as i64).abs() + (cy as i64 - ny as i64).abs();
                assert_eq!(manhattan, 1);
                assert!(n.edge_neighbors(H).contains(&c), "neighbourhood not mutual");
            }
        }
    }

    #[test]
    fn corner_cell_has_two_neighbors() {
        let c = CellId::from_point(H, 3, &Point::new(0.0, 0.0));
        assert_eq!(c.edge_neighbors(H).len(), 2);
    }

    #[test]
    fn bounds_partition_the_square() {
        // At level 2 the 16 cells tile the unit square without overlap.
        let level = 2;
        let mut area = 0.0;
        for i in 0..cells_at_level(level) {
            let b = CellId { level, index: i }.bounds(H);
            area += b.width() * b.height();
        }
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cover_rect_returns_intersecting_cells_only() {
        let rect = Rect::new(0.30, 0.30, 0.55, 0.40);
        let cells = cover_rect(H, 3, &rect);
        // Level 3: cell side 1/8 = 0.125. x cells 2..=4, y cells 2..=3 → 6.
        assert_eq!(cells.len(), 6);
        for c in &cells {
            assert!(c.bounds(H).intersects(&rect));
        }
        // Sorted in curve order.
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        assert_eq!(cells, sorted);
    }

    #[test]
    fn cover_rect_degenerate_point() {
        let p = Rect::new(0.5, 0.5, 0.5, 0.5);
        let cells = cover_rect(H, 4, &p);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn from_point_clamps_out_of_range_points() {
        let c = CellId::from_point(H, 4, &Point::new(7.0, -3.0));
        let b = c.bounds(H);
        assert!(b.max_x >= 1.0 - 1e-9 && b.min_y <= 1e-9);
    }
}
