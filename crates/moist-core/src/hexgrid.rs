//! Hexagonal partitioning of the velocity space (§3.3.2).
//!
//! "We first partition the velocity space into identical hexagons …, which
//! guarantees that the maximum distance between two internal points is less
//! than Δm. … each leader is first mapped to the corresponding hexagon
//! partition in O(1) time" — this is what makes clustering `O(n)` in the
//! number of leaders instead of the `O(n log n)` of the comparison-based
//! schemes (§2.4).
//!
//! A regular hexagon's maximum internal distance (corner to opposite corner)
//! is twice its circumradius, so we use circumradius `R = Δm / 2`.

use moist_spatial::Velocity;
use serde::Serialize;

/// Axial coordinates of one hexagonal bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct HexBin {
    /// Axial `q` coordinate.
    pub q: i64,
    /// Axial `r` coordinate.
    pub r: i64,
}

/// A hexagonal grid over velocity space with bin diameter `delta_m`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HexGrid {
    /// Hexagon circumradius (`Δm / 2`).
    radius: f64,
}

impl HexGrid {
    /// Creates a grid whose bins never contain two velocities further apart
    /// than `delta_m`.
    ///
    /// Non-positive or non-finite `delta_m` falls back to a tiny positive
    /// radius, which degenerates to "only identical velocities share a bin".
    pub fn new(delta_m: f64) -> Self {
        let delta = if delta_m.is_finite() && delta_m > 0.0 {
            delta_m
        } else {
            f64::MIN_POSITIVE.sqrt()
        };
        HexGrid {
            radius: delta / 2.0,
        }
    }

    /// Maps a velocity to its bin in `O(1)` (pointy-top axial coordinates
    /// with cube rounding).
    pub fn bin(&self, v: &Velocity) -> HexBin {
        let x = v.vx / self.radius;
        let y = v.vy / self.radius;
        // Pointy-top axial transform.
        let qf = (3f64.sqrt() / 3.0) * x - (1.0 / 3.0) * y;
        let rf = (2.0 / 3.0) * y;
        Self::cube_round(qf, rf)
    }

    /// Standard cube rounding: rounds fractional axial coordinates to the
    /// nearest hexagon centre.
    fn cube_round(qf: f64, rf: f64) -> HexBin {
        let sf = -qf - rf;
        let mut q = qf.round();
        let mut r = rf.round();
        let s = sf.round();
        let dq = (q - qf).abs();
        let dr = (r - rf).abs();
        let ds = (s - sf).abs();
        if dq > dr && dq > ds {
            q = -r - s;
        } else if dr > ds {
            r = -q - s;
        }
        HexBin {
            q: q as i64,
            r: r as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bin_implies_similar_velocity() {
        // The defining guarantee: two velocities in one bin differ by < Δm.
        let delta_m = 0.8;
        let grid = HexGrid::new(delta_m);
        let mut rng_state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        let velocities: Vec<Velocity> = (0..4000)
            .map(|_| Velocity::new(next() * 10.0 - 5.0, next() * 10.0 - 5.0))
            .collect();
        use std::collections::HashMap;
        let mut bins: HashMap<HexBin, Vec<Velocity>> = HashMap::new();
        for v in velocities {
            bins.entry(grid.bin(&v)).or_default().push(v);
        }
        for (_, members) in bins {
            for a in &members {
                for b in &members {
                    assert!(
                        a.difference(b) < delta_m + 1e-9,
                        "bin violated Δm: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// Centre velocity of a bin (the prototype velocity of a merged school).
    fn center(grid: &HexGrid, bin: HexBin) -> Velocity {
        let q = bin.q as f64;
        let r = bin.r as f64;
        Velocity::new(
            grid.radius * 3f64.sqrt() * (q + r / 2.0),
            grid.radius * 1.5 * r,
        )
    }

    #[test]
    fn bin_center_roundtrips() {
        let grid = HexGrid::new(1.0);
        for q in -5..=5i64 {
            for r in -5..=5i64 {
                let bin = HexBin { q, r };
                assert_eq!(grid.bin(&center(&grid, bin)), bin);
            }
        }
    }

    #[test]
    fn nearby_velocities_usually_share_bins() {
        let grid = HexGrid::new(1.0);
        let v = Velocity::new(2.0, 3.0);
        let w = Velocity::new(2.001, 3.001);
        assert_eq!(grid.bin(&v), grid.bin(&w));
    }

    #[test]
    fn zero_and_negative_delta_degenerate_safely() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let grid = HexGrid::new(bad);
            // Must not panic, and identical velocities still bin together.
            let v = Velocity::new(1.0, 1.0);
            assert_eq!(grid.bin(&v), grid.bin(&v));
        }
    }

    #[test]
    fn distinct_far_velocities_get_distinct_bins() {
        let grid = HexGrid::new(0.5);
        let a = grid.bin(&Velocity::new(0.0, 0.0));
        let b = grid.bin(&Velocity::new(3.0, 0.0));
        assert_ne!(a, b);
    }
}
