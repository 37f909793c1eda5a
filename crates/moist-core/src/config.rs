//! MOIST configuration.

use crate::error::{MoistError, Result};
use moist_spatial::{Space, MAX_LEVEL};
use serde::Serialize;

/// The finest clustering level a config may ask for. The clustering
/// schedule keeps one deadline per cell, `4^level` of them: 4^10 ≈ 1 M.
pub(crate) const MAX_CLUSTERING_LEVEL: u8 = 10;

/// All tunables of the indexer, with the paper's defaults.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MoistConfig {
    /// The indexed space (world bounds, curve, leaf level `l_s`).
    pub space: Space,
    /// School deviation threshold ε in world units (§3.3.1): a follower
    /// whose reported location is further than ε from its estimated
    /// location departs its school. `0.0` disables schooling (every object
    /// is a leader — the paper's "worst case" BigTable experiments).
    pub epsilon: f64,
    /// Velocity-similarity threshold Δm (world units/s): hexagonal velocity
    /// bins guarantee any two velocities in a bin differ by less than Δm
    /// (§3.3.2).
    pub delta_m: f64,
    /// Level of the clustering cells (coarser than the leaf level and at
    /// most 10, the schedule's limit; §3.3.2).
    pub clustering_level: u8,
    /// Interval between re-clusterings of a cell, seconds (`T_c`, §4.2.1).
    pub cluster_interval_secs: f64,
}

impl Default for MoistConfig {
    fn default() -> Self {
        MoistConfig {
            space: Space::paper_map(),
            epsilon: 20.0,
            delta_m: 2.0,
            clustering_level: 2,
            cluster_interval_secs: 10.0,
        }
    }
}

impl MoistConfig {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.epsilon < 0.0 || !self.epsilon.is_finite() {
            return Err(MoistError::Config(format!(
                "epsilon must be finite and >= 0, got {}",
                self.epsilon
            )));
        }
        if self.delta_m <= 0.0 || !self.delta_m.is_finite() {
            return Err(MoistError::Config(format!(
                "delta_m must be finite and > 0, got {}",
                self.delta_m
            )));
        }
        // `Space`'s fields are public, so a leaf level past the curve's
        // depth can reach here; cells that fine have no descendant range,
        // and every update filed under one could never be scanned back.
        if self.space.leaf_level > MAX_LEVEL {
            return Err(MoistError::Config(format!(
                "leaf level {} is finer than the curve's limit {MAX_LEVEL}",
                self.space.leaf_level
            )));
        }
        if self.clustering_level > self.space.leaf_level {
            return Err(MoistError::Config(format!(
                "clustering level {} must be coarser than leaf level {}",
                self.clustering_level, self.space.leaf_level
            )));
        }
        if self.clustering_level > MAX_CLUSTERING_LEVEL {
            return Err(MoistError::Config(format!(
                "clustering level {} is finer than the schedule's limit {MAX_CLUSTERING_LEVEL}",
                self.clustering_level
            )));
        }
        // The scheduler adds the interval (in µs) to `u64` deadlines, so it
        // must also stay far inside that range.
        let interval = self.cluster_interval_secs;
        if !interval.is_finite() || interval <= 0.0 || interval * 1e6 > (u64::MAX / 4) as f64 {
            return Err(MoistError::Config(format!(
                "cluster interval must be finite, > 0 and below 2^62 µs, got {interval} s"
            )));
        }
        Ok(())
    }

    /// A config with schooling disabled (ε = 0): every object is a leader.
    /// This is how the paper runs its pure-BigTable experiments (§4,
    /// "the error bound was set to be zero … the worst case").
    pub fn without_schooling() -> Self {
        MoistConfig {
            epsilon: 0.0,
            ..MoistConfig::default()
        }
    }
}

/// Table names used in the store.
pub mod table_names {
    /// The Location Table (§3.1.2).
    pub const LOCATION: &str = "moist_location";
    /// The Spatial Index Table (§3.2).
    pub(crate) const SPATIAL_INDEX: &str = "moist_spatial_index";
    /// The Affiliation Table (§3.1.1).
    pub(crate) const AFFILIATION: &str = "moist_affiliation";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MoistConfig::default().validate().unwrap();
        MoistConfig::without_schooling().validate().unwrap();
    }

    #[test]
    fn rejects_bad_values() {
        let base = MoistConfig::default();
        let cases = [
            MoistConfig {
                epsilon: -1.0,
                ..base
            },
            MoistConfig {
                delta_m: 0.0,
                ..base
            },
            MoistConfig {
                clustering_level: base.space.leaf_level + 1,
                ..base
            },
            // Inside the leaf level, but 4^14 deadlines would not fit in
            // memory.
            MoistConfig {
                clustering_level: 14,
                ..base
            },
            // Past the curve's 30 levels: updates would be acknowledged and
            // then lost to every scan.
            MoistConfig {
                space: Space {
                    leaf_level: 31,
                    ..base.space
                },
                ..base
            },
            MoistConfig {
                cluster_interval_secs: 0.0,
                ..base
            },
            MoistConfig {
                cluster_interval_secs: f64::NAN,
                ..base
            },
            MoistConfig {
                cluster_interval_secs: f64::INFINITY,
                ..base
            },
            // Finite, but `interval + stagger` would overflow the µs deadline.
            MoistConfig {
                cluster_interval_secs: 1e15,
                ..base
            },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} must be rejected");
        }
    }
}
