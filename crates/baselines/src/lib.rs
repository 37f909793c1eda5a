//! # moist-baselines
//!
//! The comparator system the MOIST paper evaluates against:
//!
//! * [`bxtree`] — the Bx-tree of Jensen et al. \[15\]: B+-tree over
//!   `time-partition ∥ space-filling-curve` keys, update = delete+insert,
//!   kNN by iterative window enlargement. The paper's headline "2×/80×"
//!   update-QPS comparisons are against this index.
//!
//! It runs over the same `moist-bigtable` store and cost model as MOIST, so
//! benchmark gaps reflect algorithmic differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bxtree;

pub use bxtree::{BxConfig, BxEntry, BxTree};
