//! Space-filling curves: Hilbert and Z-order (Morton).
//!
//! The paper serialises the 2-D space into a 1-D key space with a
//! space-filling curve (§3.2.1) and uses Hilbert curves because they
//! "guarantee locality" — geographically close cells get close key values.
//! Z-curves are also implemented because the paper notes they are applicable
//! but perform slightly worse \[15\]; the `curve_locality` bench quantifies the
//! gap on our own substrate.
//!
//! Both curves here are *recursive quadrant refinements*, so they share the
//! crucial prefix property MOIST relies on: a cell at level `l` with index
//! `i` contains exactly the leaf cells `[i · 4^(L−l), (i+1) · 4^(L−l))` at any
//! deeper level `L`. That is what makes a coarse cell a *contiguous row range*
//! in the Spatial Index Table (§3.4.1, "NN cell").

use serde::Serialize;

/// Maximum curve level (refinement depth).
///
/// At level 30 an index occupies 60 bits of a `u64`.
pub(crate) const MAX_LEVEL: u8 = 30;

/// Which space-filling curve orders the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum CurveKind {
    /// Hilbert curve: best locality, the paper's choice.
    #[default]
    Hilbert,
    /// Z-order (Morton) curve: cheaper to compute, worse locality.
    Morton,
}

impl CurveKind {
    /// Maps grid coordinates `(x, y)` at `level` to a curve index in
    /// `[0, 4^level)`.
    ///
    /// # Panics
    /// Debug-asserts that `level ≤ 30` and the coordinates fit the
    /// `2^level × 2^level` grid; release builds wrap coordinates into range.
    #[inline]
    pub fn index(self, level: u8, x: u32, y: u32) -> u64 {
        debug_assert!(level <= MAX_LEVEL, "curve level {level} out of range");
        let side: u64 = 1 << level;
        debug_assert!((x as u64) < side && (y as u64) < side, "coords off-grid");
        let x = (x as u64) & (side - 1);
        let y = (y as u64) & (side - 1);
        match self {
            CurveKind::Hilbert => hilbert_index(level, x, y),
            CurveKind::Morton => morton_index(x, y),
        }
    }

    /// Inverse of [`CurveKind::index`]: maps a curve index back to grid
    /// coordinates at `level`.
    #[inline]
    pub fn coords(self, level: u8, index: u64) -> (u32, u32) {
        debug_assert!(level <= MAX_LEVEL, "curve level {level} out of range");
        debug_assert!(index < (1u64 << (2 * level as u64)), "index off-curve");
        match self {
            CurveKind::Hilbert => hilbert_coords(level, index),
            CurveKind::Morton => morton_coords(index),
        }
    }
}

/// Hilbert curve `(x, y) → d` at `level` (grid side `2^level`).
///
/// Classic bit-twiddling formulation (Hamilton's compact variant of the
/// Butz algorithm); `O(level)` time, no tables.
fn hilbert_index(level: u8, mut x: u64, mut y: u64) -> u64 {
    let mut d: u64 = 0;
    let mut s: u64 = if level == 0 { 0 } else { 1 << (level - 1) };
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Drop the consumed bit, then rotate/flip the quadrant so the
        // sub-curve is in canonical orientation.
        x &= s - 1;
        y &= s - 1;
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s >>= 1;
    }
    d
}

/// Hilbert curve `d → (x, y)` at `level`.
fn hilbert_coords(level: u8, d: u64) -> (u32, u32) {
    let mut x: u64 = 0;
    let mut y: u64 = 0;
    let mut t = d;
    let mut s: u64 = 1;
    let n: u64 = 1 << level;
    while s < n {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // Rotate.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Z-order (Morton) `(x, y) → d`: interleaves the bits of `x` and `y`.
fn morton_index(x: u64, y: u64) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Z-order `d → (x, y)`.
fn morton_coords(d: u64) -> (u32, u32) {
    (compact_bits(d) as u32, compact_bits(d >> 1) as u32)
}

/// Spreads the low 32 bits of `v` so bit `i` moves to bit `2i`.
#[inline]
fn spread_bits(mut v: u64) -> u64 {
    v &= 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Inverse of [`spread_bits`].
#[inline]
fn compact_bits(mut v: u64) -> u64 {
    v &= 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_level_1_matches_canonical_order() {
        // The level-1 Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
        assert_eq!(hilbert_index(1, 0, 0), 0);
        assert_eq!(hilbert_index(1, 0, 1), 1);
        assert_eq!(hilbert_index(1, 1, 1), 2);
        assert_eq!(hilbert_index(1, 1, 0), 3);
    }

    #[test]
    fn hilbert_level_2_is_a_permutation_with_unit_steps() {
        let level = 2;
        let side = 1u32 << level;
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let d = hilbert_index(level, x as u64, y as u64);
                assert!(!seen[d as usize], "duplicate index {d}");
                seen[d as usize] = true;
            }
        }
        // Consecutive indexes differ by exactly one grid step (the defining
        // Hilbert property; Z-order does not have it).
        let mut prev = hilbert_coords(level, 0);
        for d in 1..(side * side) as u64 {
            let cur = hilbert_coords(level, d);
            let dist = (prev.0 as i64 - cur.0 as i64).abs() + (prev.1 as i64 - cur.1 as i64).abs();
            assert_eq!(dist, 1, "non-adjacent step at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn hilbert_roundtrip_exhaustive_small_levels() {
        for level in 0..=6u8 {
            let side = 1u64 << level;
            for x in 0..side {
                for y in 0..side {
                    let d = hilbert_index(level, x, y);
                    assert!(d < side * side);
                    let (x2, y2) = hilbert_coords(level, d);
                    assert_eq!((x2 as u64, y2 as u64), (x, y), "level {level}");
                }
            }
        }
    }

    #[test]
    fn morton_roundtrip_exhaustive_small_levels() {
        for level in 0..=6u8 {
            let side = 1u64 << level;
            for x in 0..side {
                for y in 0..side {
                    let d = morton_index(x, y);
                    let (x2, y2) = morton_coords(d);
                    assert_eq!((x2 as u64, y2 as u64), (x, y));
                }
            }
        }
    }

    #[test]
    fn hilbert_prefix_property() {
        // A level-l cell's children occupy indexes 4i..4i+4 at level l+1.
        for level in 1..=8u8 {
            let side = 1u64 << level;
            for _ in 0..64 {
                // Deterministic pseudo-random sample of cells.
                let i = (level as u64 * 2654435761) % (side * side / 4).max(1);
                let (px, py) = hilbert_coords(level - 1, i);
                let mut child_indexes: Vec<u64> = Vec::new();
                for cx in 0..2u64 {
                    for cy in 0..2u64 {
                        let d = hilbert_index(level, (px as u64) * 2 + cx, (py as u64) * 2 + cy);
                        child_indexes.push(d);
                    }
                }
                child_indexes.sort_unstable();
                assert_eq!(child_indexes, vec![4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3]);
            }
        }
    }

    #[test]
    fn level_30_roundtrips_at_extremes() {
        let level = MAX_LEVEL;
        let max = (1u64 << level) - 1;
        for (x, y) in [(0, 0), (max, 0), (0, max), (max, max), (max / 2, max / 3)] {
            for kind in [CurveKind::Hilbert, CurveKind::Morton] {
                let d = kind.index(level, x as u32, y as u32);
                assert_eq!(kind.coords(level, d), (x as u32, y as u32));
            }
        }
    }
}
