//! Elasticity: live shard join/leave, load-aware rebalancing, the
//! controller tick that drives them, and the [`ClusterStats`] rollup they
//! are steered by (lock-ordering rules: see the [module docs](super)).

use super::membership::{Membership, ShardEntry};
use super::MoistCluster;
use crate::controller::{ControllerAction, Plan};
use crate::error::{MoistError, Result};
use crate::ingest::IngestStats;
use crate::placement::{ranked, ShardWeight, SplitTable};
use crate::server::ServerStats;
use moist_bigtable::Timestamp;
use moist_spatial::cells_at_level;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A cell whose merged EWMA demand rate exceeds this multiple of the mean
/// cell rate is hot enough to split one level finer.
const HOT_SPLIT_FACTOR: f64 = 4.0;

/// Upper bound on the split table: splitting is for the handful of
/// business-center cells, not a second level of hashing. The cap stays
/// *re-usable* because rebalance un-splits cells whose demand faded (see
/// [`UNSPLIT_FACTOR`]) — a hot spot that moves across the map recycles
/// table entries instead of exhausting them.
const MAX_SPLIT_CELLS: usize = 16;

/// A split cell whose merged demand rate falls below this multiple of
/// the mean cell rate is reunited (its four children merge back into one
/// routing key). Far below [`HOT_SPLIT_FACTOR`] on purpose: the wide gap
/// is the hysteresis that keeps a cell wobbling around one threshold
/// from splitting and un-splitting every rebalance.
const UNSPLIT_FACTOR: f64 = 1.0;

/// Largest per-rebalance multiplicative weight step (up or down): placement
/// converges over a few rebalances instead of slamming cells around on one
/// noisy measurement.
const REBALANCE_MAX_STEP: f64 = 2.0;

/// Placement-weight clamp: a shard never owns less than ~1/8 or more than
/// ~8× its fair share, however skewed the measurements get.
const MIN_PLACEMENT_WEIGHT: f64 = 0.125;

/// See [`MIN_PLACEMENT_WEIGHT`].
const MAX_PLACEMENT_WEIGHT: f64 = 8.0;

/// What one [`MoistCluster::rebalance`] step changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebalanceReport {
    /// The membership epoch after the step (unchanged if nothing moved).
    pub epoch: u64,
    /// Clustering cells newly split one level finer.
    pub split_cells: Vec<u64>,
    /// Previously-split cells reunited because their measured demand
    /// faded (freeing split-table capacity for the next hot spot).
    pub unsplit_cells: Vec<u64>,
    /// Routing keys that changed owner (each keeps its clustering
    /// deadline: the schedule belongs to the cell, not to its owner).
    pub migrated_keys: u64,
}

/// One live shard's row in [`ClusterStats`]: the measured signals the
/// load-aware placement runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoadStats {
    /// Stable shard id.
    pub id: u64,
    /// Current placement weight (relative capacity).
    pub weight: f64,
    /// Virtual µs of store time this shard has consumed.
    pub elapsed_us: f64,
    /// Routing keys (cells / split children) this shard is **primary**
    /// for: their updates serialize on it, and its ticks alone pop their
    /// clustering deadlines.
    pub primary_keys: usize,
    /// Routing keys this shard **follows** (it is in their replica set at
    /// rank 1+): it mirrors their state through the shared store and
    /// serves their reads when less loaded than the primary. Always 0 at
    /// `replicas == 1`.
    pub follower_keys: usize,
    /// Reads this shard served as a follower.
    pub replica_reads: u64,
    /// Messages currently buffered in this shard's ingest queue.
    pub queue_depth: usize,
}

/// The tier-level load/placement rollup returned by
/// [`MoistCluster::cluster_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Current membership epoch.
    pub epoch: u64,
    /// Per-shard signals, in position order.
    pub shards: Vec<ShardLoadStats>,
    /// Clustering cells currently split one level finer.
    pub split_cells: Vec<u64>,
    /// Cells migrated by join/leave epoch bumps.
    pub epoch_migrations: u64,
    /// Keys migrated by rebalance steps (weight shifts + cell splits).
    pub split_migrations: u64,
    /// Configured replication factor (1 = unreplicated single-owner).
    pub replicas: usize,
    /// Routing keys whose follower stepped up to primary on a shard
    /// leave (subset of `epoch_migrations`; 0 at `replicas == 1`).
    pub promotions: u64,
    /// Reads served by a follower instead of the primary, tier-wide.
    pub replica_reads: u64,
    /// Ingestion-pipeline counters: queue depths, flush sizes and
    /// latencies, and backpressure refusals.
    pub ingest: IngestStats,
    /// Aggregate operation counters (live + retired shards).
    pub ops: ServerStats,
}

impl ClusterStats {
    /// Max-over-mean shard utilization (virtual elapsed time): 1.0 is a
    /// perfectly level fleet; the `fig16_skew` acceptance bar is about
    /// cutting this.
    pub fn utilization_skew(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        let max = self
            .shards
            .iter()
            .map(|s| s.elapsed_us)
            .fold(0.0f64, f64::max);
        let mean = self.shards.iter().map(|s| s.elapsed_us).sum::<f64>() / self.shards.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// True refusals only: submissions a full ingest queue turned away
    /// with typed backpressure. School sheds are *excluded* — a shed
    /// update was served (absorbed by the school model, the client-visible
    /// QPS multiplier), so it is workload behaving, not capacity failing.
    /// This is the overload signal the `AutoController` scales on;
    /// counting school sheds there would read MOIST's headline feature as
    /// an emergency.
    pub fn refused(&self) -> u64 {
        self.ingest.backpressure
    }
}

impl MoistCluster {
    /// Adds a fresh shard to the tier and returns its stable id.
    ///
    /// Only the clustering cells whose rendezvous winner changed
    /// (≈ cells/(N+1) of them — exactly the joiner's wins) migrate, each
    /// keeping its clustering deadline. In-flight operations keep routing
    /// against the pre-join snapshot and land correctly in the shared
    /// store.
    pub fn add_shard(&self) -> Result<u64> {
        let guard = self.membership.write();
        let id = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        let archiver = self.archiver.as_ref();
        let joiner = ShardEntry::open(id, &self.store, self.cfg, &self.object_estimate, archiver)?;
        let mut shards = guard.shards.clone();
        let mut placement = guard.placement.clone();
        let pos = shards.partition_point(|e| e.id < id);
        shards.insert(pos, joiner);
        // A joiner starts at the fleet's mean weight: unproven capacity
        // gets an average share, and the next rebalance corrects it from
        // measurement.
        let mean = placement.iter().map(|m| m.weight).sum::<f64>() / placement.len().max(1) as f64;
        let weight = if mean.is_finite() && mean > 0.0 {
            mean
        } else {
            1.0
        };
        placement.insert(pos, ShardWeight { id, weight });
        let new = guard.next(shards, placement);
        self.publish_epoch(guard, new, &[&self.epoch_migrations])?;
        Ok(id)
    }

    /// Counts the routing keys whose primary differs between `old` and
    /// `new`: a freshly split cell counts each child its parent's old
    /// owner does not keep, and a reunited cell counts once. No deadline
    /// moves — the tier's one schedule belongs to the cells — so this
    /// takes no lock; [`publish_epoch`](MoistCluster::publish_epoch)
    /// calls it under the membership write lock for
    /// [`add_shard`](MoistCluster::add_shard),
    /// [`remove_shard`](MoistCluster::remove_shard) and
    /// [`rebalance`](MoistCluster::rebalance).
    pub(super) fn moved_keys(&self, old: &Membership, new: &Membership) -> u64 {
        let moved =
            |before: u64, after: u64| u64::from(old.owner_of(before).id != new.owner_of(after).id);
        let children = |cell| SplitTable::child_keys(cell).into_iter();
        (0..cells_at_level(self.cfg.clustering_level))
            .map(
                |cell| match (old.splits.is_split(cell), new.splits.is_split(cell)) {
                    (false, false) => moved(cell, cell),
                    (true, true) => children(cell).map(|c| moved(c, c)).sum(),
                    (false, true) => children(cell).map(|c| moved(cell, c)).sum(),
                    (true, false) => 1,
                },
            )
            .sum()
    }

    /// Removes the shard with stable id `id` from the tier.
    ///
    /// Only the departed shard's cells are reassigned — every other
    /// cell's owner is untouched (the rendezvous property) — and each
    /// reassigned cell keeps its clustering deadline. The removed shard's
    /// counters remain in [`stats`] so no update it absorbed (live or in
    /// flight) goes unaccounted.
    ///
    /// Fails with [`MoistError::NoSuchShard`] if `id` is not a live shard
    /// or it is the last one (an empty tier could serve nothing).
    ///
    /// [`stats`]: MoistCluster::stats
    pub fn remove_shard(&self, id: u64) -> Result<()> {
        let guard = self.membership.write();
        let pos = guard.shards.iter().position(|e| e.id == id);
        let pos = pos.ok_or_else(|| {
            MoistError::NoSuchShard(format!(
                "shard id {id} is not in the live membership {:?} (epoch {})",
                guard.ids(),
                guard.epoch
            ))
        })?;
        if guard.shards.len() == 1 {
            return Err(MoistError::NoSuchShard(format!(
                "cannot remove shard id {id}: it is the last live shard"
            )));
        }
        let mut shards = guard.shards.clone();
        let mut placement = guard.placement.clone();
        self.retired.lock().retire(shards.remove(pos));
        placement.remove(pos);
        let new = guard.next(shards, placement);
        // Exactly the departed shard's keys (the only ones whose winner
        // changes) move to new owners. Rendezvous ranks are prefix-stable
        // under a leave: under replication every migrated key's new
        // primary is exactly its old rank-1 follower, already warm on the
        // key's reads — each move is an instant follower promotion.
        let mut counters = vec![&self.epoch_migrations];
        if guard.replicas > 1 {
            counters.push(&self.promotions);
        }
        self.publish_epoch(guard, new, &counters)?;
        Ok(())
    }

    /// One load-aware placement step: derives per-shard weights from the
    /// utilization measured since the previous rebalance and splits the
    /// hottest clustering cells one level finer, then migrates exactly the
    /// routing keys whose owner changed through the same epoch bump joins
    /// and leaves use (deadlines kept, in-flight updates and clustering
    /// ticks waited out by the membership write lock).
    ///
    /// * **Weights** — a shard whose virtual elapsed time since the last
    ///   rebalance sits above the fleet mean is over-utilized: its weight
    ///   shrinks by the utilization ratio (per-step factor clamped, total
    ///   weight clamped to `[1/8, 8]`, then normalized to mean 1), so the
    ///   weighted rendezvous shifts whole cells away from it with minimal
    ///   remap. Under-utilized shards symmetrically grow. A dead-band
    ///   around the mean keeps a level fleet from oscillating.
    /// * **Splits** — per-cell EWMA update rates (the load layer) merge
    ///   across shards; cells whose rate exceeds `HOT_SPLIT_FACTOR`×
    ///   the mean cell rate split one level finer (bounded by
    ///   `MAX_SPLIT_CELLS`), so a single business-center cell stops
    ///   pinning whichever shard owns it. Split cells whose demand later
    ///   fades below `UNSPLIT_FACTOR`× the mean **un-split** — the four
    ///   children reunite at the earliest child's clustering deadline —
    ///   so the split table's cap recycles as the hot spot moves.
    /// * **Density** — the merged per-cell rates refresh the relative
    ///   density map the region fan-out uses to price its balancing pass.
    ///
    /// Returns what changed; when nothing does (level fleet, no hot
    /// cells) the membership — and its epoch — is left untouched. The
    /// membership change itself cannot fail, but the post-publish ingest
    /// drain applies buffered batches and any error it hits (a poisoned
    /// update, a store failure) is propagated rather than swallowed —
    /// the new epoch is already live at that point, so callers see the
    /// placement applied *and* the drain failure.
    pub fn rebalance(&self, now: Timestamp) -> Result<RebalanceReport> {
        let guard = self.membership.write();
        let old = Arc::clone(&guard);

        // ---- measure: per-shard utilization + merged per-cell rates ----
        let mut utils: Vec<f64> = Vec::with_capacity(old.shards.len());
        let mut cell_rates: HashMap<u64, f64> = HashMap::new();
        {
            let mut baseline = self.rebalance_baseline.lock();
            for entry in &old.shards {
                let elapsed = entry.front.elapsed_us();
                for (cell, rates) in entry.front.load_rates(now) {
                    *cell_rates.entry(cell).or_insert(0.0) += rates.total();
                }
                let prev = baseline.insert(entry.id, elapsed).unwrap_or(0.0);
                utils.push((elapsed - prev).max(0.0));
            }
        }

        // ---- weights from utilization ----
        let n = old.shards.len();
        let mean_util = utils.iter().sum::<f64>() / n.max(1) as f64;
        let mut weights: Vec<f64> = old.placement.iter().map(|m| m.weight).collect();
        if mean_util > 1.0 {
            for (w, &util) in weights.iter_mut().zip(&utils) {
                let ratio = util / mean_util;
                // Dead-band: a ±20% wobble around the mean is noise.
                let factor = if ratio > 1.2 {
                    (1.0 / ratio).max(1.0 / REBALANCE_MAX_STEP)
                } else if ratio < 0.8 {
                    (1.0 / ratio.max(0.05)).min(REBALANCE_MAX_STEP)
                } else {
                    1.0
                };
                if factor != 1.0 {
                    *w = (*w * factor).clamp(MIN_PLACEMENT_WEIGHT, MAX_PLACEMENT_WEIGHT);
                }
            }
            // Normalize to mean 1 so weights stay comparable across
            // epochs instead of drifting towards a clamp.
            let sum: f64 = weights.iter().sum();
            if sum > 0.0 {
                let scale = n as f64 / sum;
                for w in &mut weights {
                    *w *= scale;
                }
            }
        }

        // ---- splits (and un-splits) from per-cell rates ----
        let mut splits = (*old.splits).clone();
        let mut split_now: Vec<u64> = Vec::new();
        let mut unsplit_now: Vec<u64> = Vec::new();
        if self.cfg.clustering_level < self.cfg.space.leaf_level {
            let candidates: Vec<(u64, f64)> = cell_rates
                .iter()
                .filter(|(cell, &rate)| rate > 0.0 && !splits.is_split(**cell))
                .map(|(&cell, &rate)| (cell, rate))
                .collect();
            // Mean over the whole level, not just the loaded cells: "hot"
            // means hot relative to the map, and a map where one cell has
            // all the traffic is the textbook split case.
            let mean_rate = cell_rates.values().sum::<f64>()
                / cells_at_level(self.cfg.clustering_level).max(1) as f64;
            if mean_rate > 0.0 {
                // Un-split first: demand observations key by the *parent*
                // cell even while it is split, so a split cell's merged
                // EWMA rate compares directly against the same mean the
                // split threshold uses. A cell whose demand faded below
                // [`UNSPLIT_FACTOR`]× the mean reunites, freeing
                // split-table capacity for wherever the hot spot moved;
                // the wide gap to [`HOT_SPLIT_FACTOR`] is the hysteresis.
                // An idle map (`mean_rate == 0`) deliberately un-splits
                // nothing: no evidence, no churn.
                for cell in splits.cells().collect::<Vec<u64>>() {
                    let rate = cell_rates.get(&cell).copied().unwrap_or(0.0);
                    if rate < UNSPLIT_FACTOR * mean_rate {
                        splits.unsplit(cell);
                        unsplit_now.push(cell);
                    }
                }
                let mut hot: Vec<(u64, f64)> = candidates
                    .into_iter()
                    .filter(|&(_, rate)| rate >= HOT_SPLIT_FACTOR * mean_rate)
                    .collect();
                hot.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                for (cell, _) in hot {
                    if splits.len() >= MAX_SPLIT_CELLS {
                        break;
                    }
                    splits.split(cell);
                    split_now.push(cell);
                }
            }
        }

        // ---- refresh the fan-out's density map ----
        if !cell_rates.is_empty() {
            let mean = cell_rates.values().sum::<f64>() / cell_rates.len() as f64;
            if mean > 0.0 {
                let density: HashMap<u64, f64> = cell_rates
                    .iter()
                    .map(|(&cell, &rate)| (cell, rate / mean))
                    .collect();
                *self.cell_density.write() = Arc::new(density);
            }
        }

        let weights_changed = weights
            .iter()
            .zip(&old.placement)
            .any(|(a, b)| (a - b.weight).abs() > 1e-9);
        if !weights_changed && split_now.is_empty() && unsplit_now.is_empty() {
            return Ok(RebalanceReport {
                epoch: old.epoch,
                ..RebalanceReport::default()
            });
        }

        // ---- publish: one epoch bump, the schedule re-keyed under it ----
        let placement = old
            .placement
            .iter()
            .zip(weights)
            .map(|(m, weight)| ShardWeight { id: m.id, weight })
            .collect();
        self.schedule.lock().resplit(&old.splits, &splits);
        let new = Membership {
            splits: Arc::new(splits),
            ..old.next(old.shards.clone(), placement)
        };
        let migrated_keys = self.publish_epoch(guard, new, &[&self.split_migrations])?;
        Ok(RebalanceReport {
            epoch: old.epoch + 1,
            split_cells: split_now,
            unsplit_cells: unsplit_now,
            migrated_keys,
        })
    }

    /// Drives the elasticity controller one tick of virtual time: a
    /// no-op unless a controller was attached
    /// ([`ClusterBuilder::controller`](super::ClusterBuilder::controller)) *and* an evaluation is due at
    /// `now`. Call it from the client loop next to
    /// [`run_due_clustering`](MoistCluster::run_due_clustering) — the
    /// controller is deliberately thread-free and deterministic, exactly
    /// like the load layer it reads.
    ///
    /// Each closed window yields at most one scaling action (plus
    /// rebalances on their own cadence); the actions executed this tick
    /// are returned and logged to
    /// [`controller_events`](MoistCluster::controller_events).
    /// Concurrent tickers don't serialize: whoever holds the controller
    /// evaluates, everyone else returns immediately. A planned removal
    /// that races an operator's own `remove_shard` (the victim is
    /// already gone) is skipped, not an error; the min-fleet clamp is
    /// re-checked against the live membership at execution time.
    pub fn controller_tick(&self, now: Timestamp) -> Result<Vec<ControllerAction>> {
        let Some(ctl) = &self.controller else {
            return Ok(Vec::new());
        };
        let Some(mut guard) = ctl.try_lock() else {
            return Ok(Vec::new());
        };
        if !guard.due(now) {
            return Ok(Vec::new());
        }
        let stats = self.cluster_stats();
        let split_table_full = stats.split_cells.len() >= MAX_SPLIT_CELLS;
        let plans = guard.plan(now, &stats, self.ingest_cfg.queue_cap, split_table_full);
        let mut actions = Vec::new();
        for plan in plans {
            match plan {
                Plan::Rebalance => {
                    let report = self.rebalance(now)?;
                    let action = ControllerAction::Rebalance {
                        epoch: report.epoch,
                    };
                    guard.note_action(now, action, self.num_shards(), "rebalance cadence");
                    actions.push(action);
                }
                Plan::Add { count, reason } => {
                    for _ in 0..count {
                        if self.num_shards() >= guard.config().max_shards {
                            break;
                        }
                        let id = self.add_shard()?;
                        let action = ControllerAction::AddShard { id };
                        guard.note_action(now, action, self.num_shards(), reason);
                        actions.push(action);
                    }
                }
                Plan::Remove { victim, reason } => {
                    if self.num_shards() <= guard.config().min_shards {
                        continue;
                    }
                    match self.remove_shard(victim) {
                        Ok(()) => {
                            let action = ControllerAction::RemoveShard { id: victim };
                            guard.note_action(now, action, self.num_shards(), reason);
                            actions.push(action);
                        }
                        // The victim raced away (operator kill, chaos):
                        // the plan is stale, not wrong.
                        Err(MoistError::NoSuchShard(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(actions)
    }

    /// The tier's load/placement observability rollup: per-shard
    /// utilization, placement weights, owned-key counts and queue depths,
    /// the split table, and the migration counters — what
    /// [`rebalance`](MoistCluster::rebalance) and the elasticity
    /// controller steer by, exposed so operators (and the `fig16_skew`
    /// bench) can see what placement sees.
    pub fn cluster_stats(&self) -> ClusterStats {
        let snap = self.snapshot();
        // Key counts by position: walk every routing key's replica set
        // once, charging rank 0 (the owner, whose ticks cluster the key)
        // as primary and ranks 1+ as follower.
        let mut primary_keys = vec![0usize; snap.shards.len()];
        let mut follower_keys = vec![0usize; snap.shards.len()];
        for key in snap.splits.routing_keys(self.cfg.clustering_level) {
            let ranks = ranked(key, &snap.placement, snap.replicas);
            primary_keys[ranks[0]] += 1;
            for &pos in &ranks[1..] {
                follower_keys[pos] += 1;
            }
        }
        let shards = snap
            .shards
            .iter()
            .zip(&snap.placement)
            .zip(primary_keys.into_iter().zip(follower_keys))
            .map(
                |((entry, m), (primary_keys, follower_keys))| ShardLoadStats {
                    id: entry.id,
                    weight: m.weight,
                    elapsed_us: entry.front.elapsed_us(),
                    primary_keys,
                    follower_keys,
                    replica_reads: entry.replica_reads.load(Ordering::Relaxed),
                    queue_depth: self.ingest.depth(entry.id),
                },
            )
            .collect();
        ClusterStats {
            epoch: snap.epoch,
            shards,
            split_cells: snap.splits.cells().collect(),
            epoch_migrations: self.epoch_migrations.load(Ordering::Relaxed),
            split_migrations: self.split_migrations.load(Ordering::Relaxed),
            replicas: snap.replicas,
            promotions: self.promotions.load(Ordering::Relaxed),
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
            ingest: self.ingest.stats(),
            ops: self.stats(),
        }
    }
}
