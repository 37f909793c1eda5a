//! FLAG — Fast Level Adaptive Grid (§3.4.2, Algorithms 3 and 4).
//!
//! The NN level `l_n` decides how many objects one batch scan returns. FLAG
//! tunes it so every visited NN cell holds about σ objects: starting from
//! the uniform-density guess `l_n = ½·log₂(n/σ)`, it measures the actual
//! population `m` of the candidate cell and moves by `δ = ½·log₂(m/σ)`
//! levels, bisection-bounded, until converged.
//!
//! Computed levels are cached per *key range* with a timestamp (Algorithm
//! 4): urban and rural areas cache different levels, and entries go stale so
//! business districts re-tune after office hours.

use crate::config::MoistConfig;
use crate::error::Result;
use crate::tables::MoistTables;
use moist_bigtable::{Session, Timestamp};
use moist_spatial::Point;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache + tuner statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagStats {
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries that ran Algorithm 3.
    pub cache_misses: u64,
    /// Total population probes (cell counts) issued by Algorithm 3.
    pub probes: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    right: u64,
    level: u8,
    created: Timestamp,
}

/// Outcome of a shared-guard cache probe (the fast path of Algorithm 4).
///
/// Splitting the lookup from the insert lets a server hold only a *read*
/// guard on the tuner for cache hits — the common case — and upgrade to
/// the write guard only when a query actually re-tunes the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlagLookup {
    /// Fresh cached level; `cache_hits` has been counted.
    Hit(u8),
    /// A covering entry exists but has expired — pass its key to
    /// [`FlagTuner::complete_miss`] so it gets evicted with the insert.
    Stale(u64),
    /// No covering entry.
    Miss,
}

/// The FLAG tuner with its location-sensitive level cache.
///
/// Statistics counters are atomics so the hit path and Algorithm 3's
/// probe loop work through `&self`; only `FlagTuner::complete_miss`
/// (cache mutation) needs `&mut`.
#[derive(Debug)]
pub(crate) struct FlagTuner {
    sigma: usize,
    ttl_secs: f64,
    /// Entries keyed by range start (leaf index).
    cache: BTreeMap<u64, CacheEntry>,
    max_entries: usize,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    probes: AtomicU64,
}

impl FlagTuner {
    /// Creates a tuner using `cfg`'s σ and cache TTL.
    pub(crate) fn new(cfg: &MoistConfig) -> Self {
        FlagTuner {
            sigma: cfg.sigma.max(1),
            ttl_secs: cfg.flag_cache_ttl_secs.max(0.0),
            cache: BTreeMap::new(),
            max_entries: 4096,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// Tuner statistics.
    pub(crate) fn stats(&self) -> FlagStats {
        FlagStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }

    /// Algorithm 4 fast path: probes the cache for a level covering leaf
    /// `index`, counting a hit when the entry is fresh. Shared access
    /// only — safe under a read guard.
    pub(crate) fn lookup(&self, index: u64, now: Timestamp) -> FlagLookup {
        // Look back through a few candidate ranges (entries are keyed by
        // range start; nested/overlapping ranges from earlier epochs may
        // shadow each other — missing just costs a recompute).
        for (&left, entry) in self.cache.range(..=index).rev().take(4) {
            if index < entry.right {
                if now.secs_since(entry.created) <= self.ttl_secs {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return FlagLookup::Hit(entry.level);
                }
                return FlagLookup::Stale(left);
            }
        }
        FlagLookup::Miss
    }

    /// Algorithm 4 slow path: records the miss, evicts the stale entry
    /// from [`FlagTuner::lookup`] (if any), and caches `level` for the
    /// whole cell at that level containing `loc`. The only method that
    /// mutates the cache — callers take the write guard just for this.
    pub(crate) fn complete_miss(
        &mut self,
        stale_key: Option<u64>,
        cfg: &MoistConfig,
        loc: &Point,
        level: u8,
        now: Timestamp,
    ) {
        if let Some(k) = stale_key {
            self.cache.remove(&k);
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let cell = cfg.space.cell_at(level, loc);
        if let Some((left, right)) = cell.descendant_range(cfg.space.leaf_level) {
            if self.cache.len() >= self.max_entries {
                // Evict the oldest entry.
                if let Some((&k, _)) = self.cache.iter().min_by_key(|(_, e)| e.created) {
                    self.cache.remove(&k);
                }
            }
            self.cache.insert(
                left,
                CacheEntry {
                    right,
                    level,
                    created: now,
                },
            );
        }
    }

    /// Algorithm 3: bisection on the level so the cell containing `loc`
    /// holds about σ objects.
    pub(crate) fn calculate_best_level(
        &self,
        s: &mut Session,
        tables: &MoistTables,
        cfg: &MoistConfig,
        loc: &Point,
        total_objects: u64,
    ) -> Result<u8> {
        let sigma = self.sigma as f64;
        let leaf = cfg.space.leaf_level;
        let clamp = |l: i64| -> u8 { l.clamp(0, leaf as i64) as u8 };
        let n = total_objects.max(1) as f64;
        // Line 1: uniform-distribution guess.
        let mut ln: i64 = (0.5 * (n / sigma).log2()).round() as i64;
        ln = ln.clamp(0, leaf as i64);
        let mut min_ln: i64 = i64::MIN;
        let mut max_ln: i64 = i64::MAX;
        loop {
            let cell = cfg.space.cell_at(clamp(ln), loc);
            let m = tables.spatial_count_cell(s, cell, leaf)? as f64;
            self.probes.fetch_add(1, Ordering::Relaxed);
            // δ = ½ log₂(m/σ); empty cells push strongly coarser.
            let delta_f = 0.5 * (m.max(0.25) / sigma).log2();
            let delta = delta_f.round() as i64;
            if delta == 0 {
                break;
            }
            if delta > 0 {
                min_ln = ln;
            } else {
                max_ln = ln;
            }
            let ln_next = (ln + delta).clamp(0, leaf as i64);
            if ln_next <= min_ln || ln_next >= max_ln || ln_next == ln {
                break;
            }
            ln = ln_next;
        }
        Ok(clamp(ln))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::ObjectId;
    use crate::update::{apply_update, UpdateMessage};
    use moist_bigtable::{Bigtable, CostProfile, Session};
    use moist_spatial::Velocity;
    use std::sync::Arc;

    /// Algorithm 4 on one `&mut` tuner: the cached best level for `loc`,
    /// recomputing on a miss or a stale entry. The reference the split-lock
    /// path in `FrontEnd` is checked against. `total_objects` is the global
    /// object count `n` feeding Algorithm 3's initial guess.
    pub(crate) fn best_level(
        tuner: &mut FlagTuner,
        s: &mut Session,
        tables: &MoistTables,
        cfg: &MoistConfig,
        loc: &Point,
        total_objects: u64,
        now: Timestamp,
    ) -> Result<u8> {
        let index = cfg.space.leaf_cell(loc).index;
        let stale_key = match tuner.lookup(index, now) {
            FlagLookup::Hit(level) => return Ok(level),
            FlagLookup::Stale(k) => Some(k),
            FlagLookup::Miss => None,
        };
        let level = tuner.calculate_best_level(s, tables, cfg, loc, total_objects)?;
        tuner.complete_miss(stale_key, cfg, loc, level, now);
        Ok(level)
    }

    fn setup(sigma: usize) -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            sigma,
            ..MoistConfig::default()
        };
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session, cfg)
    }

    /// Deterministically scatters `n` leaders over the given world rect.
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        s: &mut Session,
        t: &MoistTables,
        cfg: &MoistConfig,
        n: u64,
        x0: f64,
        y0: f64,
        w: f64,
        h: f64,
    ) {
        let mut state = 0xA5A5_5A5A_1234_5678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            apply_update(
                s,
                t,
                cfg,
                &UpdateMessage {
                    oid: ObjectId(i),
                    loc: Point::new(x0 + next() * w, y0 + next() * h),
                    vel: Velocity::ZERO,
                    ts: Timestamp::from_secs(1),
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn converged_level_holds_about_sigma_objects() {
        let (_st, t, mut s, cfg) = setup(32);
        scatter(&mut s, &t, &cfg, 2000, 0.0, 0.0, 1000.0, 1000.0);
        let tuner = FlagTuner::new(&cfg);
        let loc = Point::new(500.0, 500.0);
        let level = tuner
            .calculate_best_level(&mut s, &t, &cfg, &loc, 2000)
            .unwrap();
        let cell = cfg.space.cell_at(level, &loc);
        let m = t
            .spatial_count_cell(&mut s, cell, cfg.space.leaf_level)
            .unwrap();
        // Converged when δ rounds to 0: m/σ within [2^-1, 2^1].
        assert!(
            (16..=64).contains(&m),
            "level {level} holds {m} objects, want ≈32"
        );
    }

    #[test]
    fn denser_regions_get_finer_levels() {
        let (_st, t, mut s, cfg) = setup(16);
        // Dense cluster bottom-left, sparse everywhere else.
        scatter(&mut s, &t, &cfg, 3000, 0.0, 0.0, 120.0, 120.0);
        scatter(&mut s, &t, &cfg, 50, 500.0, 500.0, 500.0, 500.0);
        let tuner = FlagTuner::new(&cfg);
        let dense = tuner
            .calculate_best_level(&mut s, &t, &cfg, &Point::new(60.0, 60.0), 3050)
            .unwrap();
        let sparse = tuner
            .calculate_best_level(&mut s, &t, &cfg, &Point::new(750.0, 750.0), 3050)
            .unwrap();
        assert!(
            dense > sparse,
            "dense {dense} must be finer than sparse {sparse}"
        );
    }

    #[test]
    fn cache_hits_within_ttl_and_expires_after() {
        let (_st, t, mut s, cfg) = setup(16);
        scatter(&mut s, &t, &cfg, 500, 0.0, 0.0, 1000.0, 1000.0);
        let mut tuner = FlagTuner::new(&cfg); // ttl = 300 s
        let loc = Point::new(400.0, 400.0);
        let l1 = best_level(
            &mut tuner,
            &mut s,
            &t,
            &cfg,
            &loc,
            500,
            Timestamp::from_secs(0),
        )
        .unwrap();
        assert_eq!(tuner.stats().cache_misses, 1);
        // Nearby query inside the cached cell: hit.
        let l2 = best_level(
            &mut tuner,
            &mut s,
            &t,
            &cfg,
            &Point::new(401.0, 401.0),
            500,
            Timestamp::from_secs(10),
        )
        .unwrap();
        assert_eq!(l1, l2);
        assert_eq!(tuner.stats().cache_hits, 1);
        // After the TTL the entry is recomputed.
        let later = Timestamp::from_secs(10_000);
        let _ = best_level(&mut tuner, &mut s, &t, &cfg, &loc, 500, later).unwrap();
        assert_eq!(tuner.stats().cache_misses, 2);
    }

    #[test]
    fn empty_map_converges_to_a_coarse_level() {
        let (_st, t, mut s, cfg) = setup(32);
        let tuner = FlagTuner::new(&cfg);
        let level = tuner
            .calculate_best_level(&mut s, &t, &cfg, &Point::new(500.0, 500.0), 0)
            .unwrap();
        assert!(level <= 2, "empty space should coarsen, got {level}");
    }
}
