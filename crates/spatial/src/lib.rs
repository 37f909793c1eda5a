//! # moist-spatial
//!
//! S2Cell-style hierarchical spatial indexing primitives for the MOIST
//! moving-object indexer (Jiang et al., VLDB 2012, §3.2).
//!
//! The crate provides:
//!
//! * [`curve`] — Hilbert and Z-order space-filling curves with the prefix
//!   (hierarchical containment) property MOIST's batch reads depend on;
//! * [`cell`] — hierarchical [`cell::CellId`]s: parent/children, edge
//!   neighbours, bounds, contiguous descendant key ranges, rect covering;
//! * [`point`] — points, velocities, displacements and rectangles;
//! * [`space`] — world ↔ unit-square mapping plus level/size conversions.
//!
//! ```
//! use moist_spatial::{CellId, CurveKind, Point, Space};
//!
//! let space = Space::paper_map();
//! let cell = space.leaf_cell(&Point::new(250.0, 750.0));
//! // A coarser "NN cell" is a contiguous range of leaf keys (§3.4.1):
//! let nn_cell = cell.ancestor_at(10).unwrap();
//! let (start, end) = nn_cell.descendant_range(space.leaf_level).unwrap();
//! assert!(start <= cell.index && cell.index < end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod curve;
pub mod point;
pub mod space;

pub use cell::{cells_at_level, cover_rect, CellId};
pub use curve::{CurveKind, MAX_LEVEL};
pub use point::{Displacement, Point, Rect, Velocity};
pub use space::Space;
