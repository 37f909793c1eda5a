//! Epoch-stamped membership: the shard entries, the immutable routing
//! snapshot operations run against, and the one sequence that publishes a
//! new snapshot (lock-ordering rules: see the [module docs](super)).

use super::MoistCluster;
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::placement::{self, ShardWeight, SplitTable};
use crate::server::{MoistServer, ServerStats};
use moist_archive::PppArchiver;
use moist_bigtable::Bigtable;
use moist_spatial::Point;
use parking_lot::ReadMostlyWriteGuard;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One live shard: its stable id and its server. The entry holds no
/// lock: updates and clustering sweeps serialize on the tier's writer
/// lock of their routing key, and queries, counters, load and clock reads
/// run on the server's [`FrontEnd`](crate::server::FrontEnd) beside them
/// (module docs, lock rules 2 and 3).
pub(super) struct ShardEntry {
    /// Stable shard id — never reused, survives other shards' churn.
    pub(super) id: u64,
    pub(super) server: MoistServer,
    /// Reads this shard served as a *follower* (it was in the routing
    /// key's replica set but not its primary).
    pub(super) replica_reads: AtomicU64,
}

impl ShardEntry {
    /// Opens shard `id`'s server over `store` with the tier's shared
    /// object-count estimate (seeded from the store's row count, so a tier
    /// over a populated store starts with the right FLAG `n`) and the
    /// tier's archiver, if any.
    pub(super) fn open(
        id: u64,
        store: &Arc<Bigtable>,
        cfg: MoistConfig,
        estimate: &Arc<AtomicU64>,
        archiver: Option<&Arc<PppArchiver>>,
    ) -> Result<Arc<Self>> {
        let server = MoistServer::shard(store, cfg, Arc::clone(estimate), archiver.cloned())?;
        Ok(Arc::new(ShardEntry {
            id,
            server,
            replica_reads: AtomicU64::new(0),
        }))
    }
}

/// An immutable snapshot of the tier's membership at one epoch.
///
/// Operations route against one snapshot end to end; the `Arc`s keep a
/// shard alive for in-flight operations even after it leaves the tier
/// (its writes still land in the shared store, so nothing is lost). The
/// snapshot carries the full **placement** state — per-shard weights and
/// the hot-cell split table — so routing, slicing and scheduling within
/// one epoch always agree.
pub(super) struct Membership {
    /// Monotonic epoch, bumped by every join/leave/rebalance.
    pub(super) epoch: u64,
    /// Live shards, sorted by id (positions index this order).
    pub(super) shards: Vec<Arc<ShardEntry>>,
    /// `(id, weight)` of every live shard, parallel to `shards` — what
    /// [`crate::placement`] hashes over (weights are relative capacity:
    /// 1.0 until a [`MoistCluster::rebalance`] derives measured ones).
    pub(super) placement: Vec<ShardWeight>,
    /// Clustering cells whose ownership is split one level finer.
    pub(super) splits: Arc<SplitTable>,
    /// Replication factor: each routing key's rendezvous top-`replicas`
    /// shards form its replica set — rank 0 is the primary (the only
    /// shard that takes the key's updates and clusters it), ranks 1+ are
    /// followers that mirror state via the shared store and serve reads.
    /// 1 reproduces single-owner routing exactly.
    pub(super) replicas: usize,
}

impl Membership {
    /// The successor snapshot: next epoch, same split table and
    /// replication factor unless the caller overrides them.
    pub(super) fn next(
        &self,
        shards: Vec<Arc<ShardEntry>>,
        placement: Vec<ShardWeight>,
    ) -> Membership {
        Membership {
            epoch: self.epoch + 1,
            shards,
            placement,
            splits: Arc::clone(&self.splits),
            replicas: self.replicas,
        }
    }

    pub(super) fn ids(&self) -> Vec<u64> {
        self.placement.iter().map(|m| m.id).collect()
    }

    /// The position of the shard owning routing key `key` (the rendezvous
    /// winner — one allocation-free pass; this is the per-operation hot
    /// path).
    pub(super) fn owner_position(&self, key: u64) -> usize {
        placement::winner(key, &self.placement)
    }

    /// The entry owning routing key `key`.
    pub(super) fn owner_of(&self, key: u64) -> &Arc<ShardEntry> {
        &self.shards[self.owner_position(key)]
    }

    /// The replica that should serve a *read* of routing key `key`: the
    /// least-loaded member of the key's replica set by `load_of(position)`
    /// ([`placement::reader`]), plus whether it is a follower.
    pub(super) fn reader_of(&self, key: u64, load_of: impl Fn(usize) -> f64) -> (usize, bool) {
        placement::reader(key, &self.placement, self.replicas, load_of)
    }

    /// [`reader_of`](Membership::reader_of) by live virtual elapsed store
    /// time — the same deterministic signal
    /// [`rebalance`](MoistCluster::rebalance) weighs.
    pub(super) fn read_replica(&self, key: u64) -> (&Arc<ShardEntry>, bool) {
        let (pos, follower) = self.reader_of(key, |pos| self.shards[pos].server.elapsed_us());
        (&self.shards[pos], follower)
    }

    /// The routing key of the clustering cell containing leaf index
    /// `leaf`: the cell itself, or its child one level finer when the
    /// cell's ownership is split.
    pub(super) fn route_leaf(&self, leaf: u64, cfg: &MoistConfig) -> u64 {
        self.splits
            .route_leaf(leaf, cfg.clustering_level, cfg.space.leaf_level)
    }

    /// The routing key of the point `p`.
    pub(super) fn route_point(&self, p: &Point, cfg: &MoistConfig) -> u64 {
        self.route_leaf(cfg.space.leaf_cell(p).index, cfg)
    }

    pub(super) fn entry(&self, shard: usize) -> Result<&Arc<ShardEntry>> {
        self.shards.get(shard).ok_or_else(|| {
            MoistError::NoSuchShard(format!(
                "position {shard} out of {} live shards (epoch {})",
                self.shards.len(),
                self.epoch
            ))
        })
    }
}

/// Bookkeeping for shards that left the tier: folded counters plus the
/// entries that may still be referenced by in-flight operations.
#[derive(Default)]
pub(super) struct RetiredShards {
    /// Counters of retired shards whose last reference has dropped.
    folded: ServerStats,
    /// Retired entries possibly still held by in-flight snapshots.
    entries: Vec<Arc<ShardEntry>>,
}

impl RetiredShards {
    /// Retires `entry`, then folds quiescent entries (no outstanding
    /// in-flight `Arc`s, so their counters can no longer move) into the
    /// aggregate and drops them.
    pub(super) fn retire(&mut self, entry: Arc<ShardEntry>) {
        self.entries.push(entry);
        self.compact();
    }

    fn compact(&mut self) {
        self.entries.retain(|entry| {
            if Arc::strong_count(entry) == 1 {
                self.folded.merge_from(&entry.server.stats());
                false
            } else {
                true
            }
        });
    }

    /// Total counters across folded and still-referenced retirees.
    pub(super) fn stats(&mut self) -> ServerStats {
        self.compact();
        let mut total = self.folded;
        for entry in &self.entries {
            total.merge_from(&entry.server.stats());
        }
        total
    }
}

impl MoistCluster {
    /// The current membership snapshot.
    pub(super) fn snapshot(&self) -> Arc<Membership> {
        self.membership.read().clone()
    }

    /// The entry at position `shard` in the current snapshot, as an owned
    /// `Arc`.
    pub(super) fn entry_at(&self, shard: usize) -> Result<Arc<ShardEntry>> {
        Ok(Arc::clone(self.snapshot().entry(shard)?))
    }

    /// Publishes `new` as the membership — the one epoch-bump sequence
    /// [`add_shard`](MoistCluster::add_shard),
    /// [`remove_shard`](MoistCluster::remove_shard) and
    /// [`rebalance`](MoistCluster::rebalance) share. `guard` is the
    /// membership write lock the caller built `new` under.
    ///
    /// Holding the write lock means no update or clustering tick is in
    /// flight (both hold the read guard from routing to the end of their
    /// work), so the snapshot swaps, the write lock drops, and the ingest
    /// queues drain against the published snapshot — batches buffered
    /// under the old epoch (a departed shard's included) re-route to the
    /// new owners instead of being stranded. Returns the number of routing
    /// keys that changed owner, also added to each of `counters`. The
    /// membership change itself cannot fail; a drain error (a poisoned
    /// update, a store failure) is propagated with the new epoch already
    /// live.
    pub(super) fn publish_epoch(
        &self,
        mut guard: ReadMostlyWriteGuard<'_, Arc<Membership>>,
        new: Membership,
        counters: &[&AtomicU64],
    ) -> Result<u64> {
        let migrated = self.moved_keys(&guard, &new);
        for counter in counters {
            counter.fetch_add(migrated, Ordering::Relaxed);
        }
        *guard = Arc::new(new);
        drop(guard);
        self.drain_ingest()?;
        Ok(migrated)
    }
}
