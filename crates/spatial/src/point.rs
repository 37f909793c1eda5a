//! Planar geometry primitives: points, velocities and axis-aligned rectangles.
//!
//! MOIST works in a normalised unit square `[0,1)²` internally (the paper's
//! `h(·) : [0,1]² → [0,1]` spatial-index function, §3.2.1). World coordinates
//! (e.g. the paper's 1,000×1,000-unit map, §4.1) are mapped to the unit square
//! by [`crate::space::Space`].

use serde::Serialize;

/// A point in the plane.
///
/// Coordinates are interpreted either as world units or normalised unit-square
/// coordinates depending on context; the type itself is unit-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when only
    /// comparisons are needed, e.g. in the NN priority queues of §3.4).
    #[inline]
    fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector displacement from `self` to `other` (the paper's `i → j`
    /// displacement stored in Follower Info records, §3.1.1).
    #[inline]
    pub fn displacement_to(&self, other: &Point) -> Displacement {
        Displacement {
            dx: other.x - self.x,
            dy: other.y - self.y,
        }
    }

    /// Translates this point by a displacement.
    #[inline]
    pub fn translate(&self, d: Displacement) -> Point {
        Point::new(self.x + d.dx, self.y + d.dy)
    }

    /// Position after moving with velocity `v` for `dt` seconds (the linear
    /// motion model used when estimating a follower's location, §3.3.1).
    #[inline]
    pub fn advance(&self, v: Velocity, dt: f64) -> Point {
        Point::new(self.x + v.vx * dt, self.y + v.vy * dt)
    }

    /// Returns `true` when both coordinates are finite numbers.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

/// A 2-D velocity vector in units per second.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Velocity {
    /// Horizontal speed component.
    pub vx: f64,
    /// Vertical speed component.
    pub vy: f64,
}

impl Velocity {
    /// Zero velocity.
    pub const ZERO: Velocity = Velocity { vx: 0.0, vy: 0.0 };

    /// Creates a velocity from its components.
    #[inline]
    pub const fn new(vx: f64, vy: f64) -> Self {
        Velocity { vx, vy }
    }

    /// Magnitude of the vector difference to `other`.
    ///
    /// Two velocities are "similar" for school clustering when this value is
    /// below the threshold `Δm` (§3.3.2).
    #[inline]
    pub fn difference(&self, other: &Velocity) -> f64 {
        let dx = self.vx - other.vx;
        let dy = self.vy - other.vy;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns `true` when both components are finite numbers.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.vx.is_finite() && self.vy.is_finite()
    }
}

/// Displacement vector between two points (`i → j` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Displacement {
    /// Horizontal offset.
    pub dx: f64,
    /// Vertical offset.
    pub dy: f64,
}

impl Displacement {
    /// Zero displacement.
    pub const ZERO: Displacement = Displacement { dx: 0.0, dy: 0.0 };

    /// Creates a displacement from its components.
    #[inline]
    pub const fn new(dx: f64, dy: f64) -> Self {
        Displacement { dx, dy }
    }
}

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// `min_*` must not exceed `max_*`; the constructor normalises swapped
    /// bounds rather than failing so that degenerate inputs stay usable.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Rect {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// Rectangle width.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Rectangle height.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the rectangle contains `p` (closed on all edges).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether two rectangles overlap (closed intersection).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Shortest distance from `p` to any point of the rectangle; zero when
    /// `p` lies inside.
    ///
    /// This is the "distance between a cell and loc" lower bound that drives
    /// the NN cell priority queue (§3.4.1).
    #[inline]
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Clamps a point into the rectangle.
    #[inline]
    pub fn clamp(&self, p: &Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn displacement_roundtrip() {
        let a = Point::new(0.25, 0.5);
        let b = Point::new(0.75, 0.125);
        let d = a.displacement_to(&b);
        let b2 = a.translate(d);
        assert!((b2.x - b.x).abs() < 1e-12 && (b2.y - b.y).abs() < 1e-12);
    }

    #[test]
    fn advance_moves_linearly() {
        let p = Point::new(0.0, 0.0).advance(Velocity::new(1.0, -2.0), 0.5);
        assert_eq!(p, Point::new(0.5, -1.0));
    }

    #[test]
    fn velocity_difference_is_metric_like() {
        let u = Velocity::new(1.0, 0.0);
        let v = Velocity::new(0.0, 1.0);
        assert!((u.difference(&v) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(u.difference(&u), 0.0);
        assert_eq!(u.difference(&v), v.difference(&u));
    }

    #[test]
    fn rect_normalises_swapped_bounds() {
        let r = Rect::new(1.0, 1.0, 0.0, 0.0);
        assert_eq!(r.min_x, 0.0);
        assert_eq!(r.max_x, 1.0);
    }

    #[test]
    fn rect_distance_zero_inside_positive_outside() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.distance_to_point(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(r.distance_to_point(&Point::new(2.0, 0.5)), 1.0);
        let corner = r.distance_to_point(&Point::new(2.0, 2.0));
        assert!((corner - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn rect_intersection_cases() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(0.5, 0.5, 2.0, 2.0);
        let c = Rect::new(1.5, 1.5, 2.0, 2.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching edges count as intersecting (closed rects).
        let d = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn rect_clamp() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.clamp(&Point::new(-1.0, 0.5)), Point::new(0.0, 0.5));
        assert_eq!(r.clamp(&Point::new(0.3, 7.0)), Point::new(0.3, 1.0));
    }
}
