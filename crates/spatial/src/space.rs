//! World ↔ unit-square coordinate mapping.
//!
//! The paper's experiments run on a 1,000×1,000-unit map (§4.1) or a 1 km²
//! area (§4.3); the spatial indexer itself works on `[0,1]²`. A [`Space`]
//! binds the two together and fixes the curve kind and the base (leaf)
//! indexing level `ls` used for the Spatial Index Table.

use crate::cell::CellId;
use crate::curve::{CurveKind, MAX_LEVEL};
use crate::point::{Point, Rect};
use serde::Serialize;

/// A configured 2-D space: world bounds, curve kind and leaf level.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Space {
    /// World-coordinate bounds mapped onto the unit square.
    pub world: Rect,
    /// Space-filling curve used for all keys in this space.
    pub curve: CurveKind,
    /// Leaf level `ls` of the Spatial Index Table (§3.4.1).
    pub leaf_level: u8,
}

impl Space {
    /// Creates a space; `leaf_level` is clamped to 30, the deepest level.
    fn new(world: Rect, curve: CurveKind, leaf_level: u8) -> Self {
        Space {
            world,
            curve,
            leaf_level: leaf_level.min(MAX_LEVEL),
        }
    }

    /// The paper's synthetic map: 1,000×1,000 units, Hilbert curve,
    /// leaf level 20 (≈1-unit cells on a 1,000-unit map would be level 10;
    /// level 20 gives ~1 mm resolution, comfortably finer than GPS noise).
    pub fn paper_map() -> Self {
        Space::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), CurveKind::Hilbert, 20)
    }

    /// Converts world coordinates to unit-square coordinates (clamping).
    #[inline]
    pub fn to_unit(&self, p: &Point) -> Point {
        let w = self.world.width().max(f64::MIN_POSITIVE);
        let h = self.world.height().max(f64::MIN_POSITIVE);
        Point::new(
            ((p.x - self.world.min_x) / w).clamp(0.0, 1.0),
            ((p.y - self.world.min_y) / h).clamp(0.0, 1.0),
        )
    }

    /// Converts unit-square coordinates back to world coordinates.
    #[inline]
    pub fn to_world(&self, p: &Point) -> Point {
        Point::new(
            self.world.min_x + p.x * self.world.width(),
            self.world.min_y + p.y * self.world.height(),
        )
    }

    /// Converts a world-coordinate rect to unit coordinates.
    pub fn rect_to_unit(&self, r: &Rect) -> Rect {
        let a = self.to_unit(&Point::new(r.min_x, r.min_y));
        let b = self.to_unit(&Point::new(r.max_x, r.max_y));
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Leaf cell containing the world point `p`.
    #[inline]
    pub fn leaf_cell(&self, p: &Point) -> CellId {
        CellId::from_point(self.curve, self.leaf_level, &self.to_unit(p))
    }

    /// Cell at an arbitrary `level` containing the world point `p`.
    #[inline]
    pub fn cell_at(&self, level: u8, p: &Point) -> CellId {
        CellId::from_point(self.curve, level, &self.to_unit(p))
    }

    /// World-units side length of a cell at `level`.
    #[inline]
    pub fn cell_side_world(&self, level: u8) -> f64 {
        self.world.width() / (1u64 << level) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrip() {
        let s = Space::paper_map();
        let p = Point::new(123.4, 987.6);
        let back = s.to_world(&s.to_unit(&p));
        assert!((back.x - p.x).abs() < 1e-9 && (back.y - p.y).abs() < 1e-9);
    }

    #[test]
    fn to_unit_clamps() {
        let s = Space::paper_map();
        let u = s.to_unit(&Point::new(-5.0, 2000.0));
        assert_eq!(u, Point::new(0.0, 1.0));
    }

    #[test]
    fn leaf_cell_contains_point() {
        let s = Space::paper_map();
        let p = Point::new(250.0, 750.0);
        let cell = s.leaf_cell(&p);
        assert!(cell.bounds(s.curve).contains(&s.to_unit(&p)));
        assert_eq!(cell.level, s.leaf_level);
    }

    #[test]
    fn cell_side_world_shrinks_with_level() {
        let s = Space::paper_map();
        assert_eq!(s.cell_side_world(0), 1000.0);
        assert_eq!(s.cell_side_world(1), 500.0);
        // Level 7 on a 1 km map ≈ 7.8 m — the paper's "level 19 (8 m)" analogue.
        assert!((s.cell_side_world(7) - 7.8125).abs() < 1e-9);
    }

    #[test]
    fn degenerate_world_rect_does_not_divide_by_zero() {
        let s = Space::new(Rect::new(5.0, 5.0, 5.0, 5.0), CurveKind::Hilbert, 10);
        let u = s.to_unit(&Point::new(5.0, 5.0));
        assert!(u.x.is_finite() && u.y.is_finite());
    }
}
