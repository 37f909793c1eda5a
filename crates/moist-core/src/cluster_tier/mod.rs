//! The sharded multi-server front-end tier (§4.3.3).
//!
//! The paper's headline numbers are *fleet* numbers: 5 and 10 front-end
//! servers share one BigTable and split the update stream between them.
//! [`MoistCluster`] is that deployment shape, and the library's one front
//! door: it owns N [`MoistServer`](crate::MoistServer) shards (one by
//! default) over one shared [`Bigtable`] and routes every operation to a
//! shard by **rendezvous hash** ([`crate::placement`]) over the cell of
//! the operation's location at the configured clustering level.
//!
//! Routing by clustering cell buys two invariants:
//!
//! * **Clustering exclusivity** — the tier keeps one clustering schedule
//!   (a deadline per routing key), and a shard's tick pops only the due
//!   keys it wins under the same hash, so every clustering cell is lazily
//!   clustered by *exactly one* shard (naively running
//!   `run_due_clustering` on N servers clusters the whole map N times
//!   over).
//! * **School-merge locality** — school merges only ever happen between
//!   leaders of one clustering cell, and all updates for a cell serialize
//!   through its owner shard, so a school is never torn by two shards
//!   rewriting it concurrently.
//!
//! The tier reads in five files: this one ([`MoistCluster`], its
//! [`ClusterBuilder`] and accessors), `membership` (shard entries, the
//! routing snapshot, the epoch-publish sequence), `write` (update,
//! batches, pipelined ingestion, checkpoint), `read` (NN, region, object
//! lookups) and `elastic` (join, leave, rebalance, controller tick,
//! [`ClusterStats`]).
//!
//! ## Locks, in order
//!
//! Every lock in the tier obeys these rules; the code below does not
//! restate them. The membership lock is a `parking_lot::ReadMostly`: a
//! copy of the snapshot `Arc` per reader stripe, so that the read guard
//! every update takes is a lock on the calling thread's own stripe and two
//! writers on different shards share no cache line in it. Its write lock
//! takes every stripe, in order, and publishes the new snapshot to all of
//! them before it lets a reader in; read and write guards otherwise
//! behave as one writer-preferring `RwLock`'s, and the rules below are
//! theirs.
//!
//! 1. **An epoch bump takes no shard lock.** Only an epoch bump
//!    ([`add_shard`], [`remove_shard`], [`rebalance`]) holds the
//!    membership write lock, and ownership moves with the snapshot alone.
//!    The other locks a bump takes under it — the clustering schedule's
//!    mutex (a rebalance re-keys split cells) and the tier's bookkeeping
//!    — never wait on a shard lock or the membership lock. The schedule
//!    mutex is a leaf: nothing is taken under it.
//! 2. **Writers and clustering ticks hold the membership read guard
//!    across their owner's lock; queries and `submit` clone the snapshot
//!    and hold nothing.** An update or a batch
//!    ([`update`](MoistCluster::update), the ingest flushes) routes, locks
//!    its owner and applies under one read guard; a tick
//!    ([`run_due_clustering_shard`](MoistCluster::run_due_clustering_shard))
//!    pops its due keys and clusters them under one. An epoch bump's write
//!    lock therefore waits out every in-flight writer and sweep, and no
//!    write or sweep lands on a migrated cell's old owner. Every other caller
//!    clones the `Arc` snapshot out of the lock (`snapshot()`) and drops
//!    the guard before any shard lock or scan. An NN scan must never hold
//!    the guard: the lock prefers a waiting writer, so a scan under it
//!    would park every update behind a waiting bump for the ~1.5 ms the
//!    scan takes. Nothing takes the membership lock under a shard lock,
//!    and no thread takes a second read guard while it holds one (a bump
//!    queued in between deadlocks both).
//! 3. **Never two shard locks at once.**
//! 4. **Below a shard lock: WAL lock → tablet lock** (the store's own
//!    order, see `moist_bigtable`).
//! 5. **There is no shard read guard.** The shard lock is a writer mutex: it
//!    serializes a shard's *writers* (updates, clustering) so
//!    that a cell's read-modify-writes never interleave. The shared half
//!    of the server ([`FrontEnd`]: queries, counters, load signal, clock,
//!    aging) lives outside it by type — the entry holds the same
//!    `Arc<FrontEnd>` the locked `MoistServer` derefs to — so nothing
//!    but a writer can wait for a writer. A query only reads the shared
//!    store, where the other shards' writers are at work on the cells it
//!    scans whichever shard serves it. Under the lock, a ~2 ms NN scan
//!    costs a paced writer that has fallen behind a whole scan at every
//!    conflicting update, and it never catches up (`rush_hour`: two
//!    thirds of the updates miss their deadline).
//!
//! ## Elastic membership
//!
//! The fleet can grow and shrink live. Membership is an epoch-stamped,
//! read-mostly snapshot: each operation grabs an `Arc` of the current
//! membership (one brief read-lock of its thread's stripe), routes
//! against it, and keeps the
//! target shard alive through the `Arc` even if the membership changes
//! mid-flight. [`add_shard`] and [`remove_shard`] bump the epoch and swap
//! the snapshot. Updates and clustering ticks instead hold the membership
//! read guard from routing to the end of their work (lock rule 2), so a
//! bump waits for them and neither lands on a migrated cell's old owner —
//! no torn routing, no lost updates; read-only queries route on the
//! snapshot alone.
//!
//! Because ownership is a **rendezvous** (highest-random-weight) hash over
//! the stable shard *ids* — not a modular hash over the shard *count* —
//! a membership change remaps the minimum: a join steals only the ~1/(N+1)
//! of cells the newcomer now wins, a leave reassigns only the departed
//! shard's cells, and every other cell's owner (and therefore its school
//! state's home shard) is untouched. A cell's clustering deadline belongs
//! to the cell, in the tier's one schedule, not to its owner: a migrating
//! cell keeps its phase and its new owner's next tick pops it, so a join
//! causes neither a thundering re-cluster of the stolen cells nor a missed
//! round.
//!
//! The shards share one cluster-wide object-count estimate (FLAG's `n`),
//! seeded from the store, so a shard that joins an already-populated store
//! guesses sensible NN levels from its first query.
//!
//! Shards are individually locked: concurrent writers contend per shard,
//! not on the whole tier, and operations on different shards proceed in
//! parallel on real OS threads (drive it with
//! `moist_workload::ClientPool`).
//!
//! ## Query fan-out (scatter-gather)
//!
//! Updates route to one shard by design — a cell's writes must serialize
//! on its owner. Queries have no such constraint: any shard reads a
//! consistent view of the shared store. [`region`](MoistCluster::region)
//! therefore plans its merged leaf ranges once, slices them by reader
//! ([`crate::placement::slice_ranges`] — an exact partition of the plan),
//! scans every slice on a pooled worker ([`crate::query_pool::QueryPool`])
//! against its shard, and merges the partials: hits move (never clone)
//! into one list and each object is deduplicated exactly once at the merge
//! (partials scanned at different instants can double-sight a mover
//! crossing a slice boundary). The client-visible cost is the *slowest*
//! partial, not the sum, because the slices consume store time in
//! parallel.
//!
//! [`nn`](MoistCluster::nn) does **not** scatter: the FLAG probe and
//! Algorithm 2 run whole on the least-loaded replica of the query point's
//! routing key, like [`position`](MoistCluster::position). The search is a bounded frontier
//! walk that stops when the k-th distance closes, and one FLAG-sized cell
//! holds ~σ = 32 objects, so a slice is too small to be worth a dispatch
//! and a scatter cannot apply the `Q_obj` bound across slices. A ring
//! scatter with a replayed merge was measured at 0.44–0.57× the one-shard
//! NN rate on the wall clock (`lookup` NN p50 3.9 ms against 1.6 ms
//! anchored) and lost in virtual time as well, so it was deleted.
//!
//! ## Load-aware placement
//!
//! Placement is not static: every shard tracks per-clustering-cell EWMA
//! demand rates (`load::LoadTracker`, fed by the update/query
//! timestamps, so the signal is deterministic in virtual time), and
//! [`rebalance`] folds the measurements into the membership snapshot
//! through the same epoch bump joins and leaves use:
//!
//! * **weighted rendezvous** — per-shard weights derived from measured
//!   utilization; a weight change remaps only keys toward/away from the
//!   re-weighted shard;
//! * **hot-cell splitting** — cells hot enough to pin a shard on their
//!   own split ownership one level finer
//!   ([`crate::placement::SplitTable`], consulted before rendezvous), each
//!   child routed, scheduled and clustered independently from its
//!   parent's deadline (an unsplit takes the earliest child's);
//! * **fan-out slice balancing** — scattered region plans subdivide
//!   their costliest owner slices across idle shards
//!   (`region::balance_slices`, priced by the per-cell demand density
//!   the last rebalance measured), so the client-visible latency tracks
//!   the mean slice, not the largest ownership share.
//!
//! [`cluster_stats`](MoistCluster::cluster_stats) exposes what placement
//! steers by (per-shard utilization and weights, primary/follower key
//! counts, queue depths, split table, migration/promotion counters) for
//! operators, benches and the elasticity controller.
//!
//! ## Replicated ownership
//!
//! With [`ClusterBuilder::replicas`]`(k)`, ownership of each routing key
//! widens from the rendezvous *winner* to the rendezvous **top-k**
//! ([`crate::placement::owners`]): rank 0 is the **primary** — the only
//! shard that takes the key's updates and clusters it, so every
//! exclusivity invariant above is unchanged — and ranks 1+ are
//! **followers**. Followers hold no private state (the store is shared,
//! so they mirror the key's schools and spatial rows for free); what they
//! add is a wider *read* path: NN queries and object lookups route to
//! the least-loaded live replica of their key (by virtual elapsed store
//! time, primary on ties), and scattered region slices spread across
//! follower sets the same way. Because a
//! member's rendezvous score is independent of the other members, the
//! top-k list is **prefix-stable**: when a primary leaves, each of its
//! keys' rank-1 follower — already warm on that key's reads — is exactly
//! the new winner, and its next tick pops the key's clustering deadline
//! where the primary left it. Failover is therefore *promotion*, not
//! recovery. `k = 1` (the default) is the single-owner tier.
//!
//! ## Pipelined ingestion
//!
//! [`update`](MoistCluster::update) is the synchronous baseline: one
//! message, one owner lock, one store round-trip per write. The pipelined
//! tier ([`crate::ingest`]) buffers submissions in a bounded queue per
//! shard ([`submit`](MoistCluster::submit)), flushes each queue as one
//! [`MoistServer::update_batch`](crate::MoistServer::update_batch) when it
//! reaches the batch size or its oldest message ages past the 1 s flush
//! deadline ([`flush_due`](MoistCluster::flush_due)), and surfaces a full queue as
//! typed backpressure instead of queueing unboundedly. Batched flushes go
//! through `update_batch`, which routes every message under the same
//! membership read guard the synchronous path holds — grouped by the
//! *current* owner — and every epoch bump (join, leave, rebalance)
//! drains the queues right after publishing its snapshot
//! ([`drain_ingest`](MoistCluster::drain_ingest)), so in-flight batches
//! re-route rather than land on a migrated cell's old owner and a killed
//! shard's buffered messages are applied, not lost.
//!
//! [`add_shard`]: MoistCluster::add_shard
//! [`remove_shard`]: MoistCluster::remove_shard
//! [`rebalance`]: MoistCluster::rebalance
//!
//! ```
//! use moist_bigtable::{Bigtable, Timestamp};
//! use moist_core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
//! use moist_spatial::{Point, Velocity};
//!
//! let store = Bigtable::new();
//! let cluster = MoistCluster::builder(&store, MoistConfig::default())
//!     .shards(4)
//!     .build()?;
//! cluster.update(&UpdateMessage {
//!     oid: ObjectId(1),
//!     loc: Point::new(420.0, 500.0),
//!     vel: Velocity::new(1.8, 0.0),
//!     ts: Timestamp::from_secs(10),
//! })?;
//! // Grow the fleet live: only the joiner's rendezvous wins migrate.
//! let id = cluster.add_shard()?;
//! assert_eq!(cluster.num_shards(), 5);
//! // Any front-end answers queries over the whole map.
//! let (nn, _) = cluster.nn(Point::new(400.0, 500.0), 1, Timestamp::from_secs(11))?;
//! assert_eq!(nn[0].oid, ObjectId(1));
//! // And shrink again: the departed shard's cells find new owners.
//! cluster.remove_shard(id)?;
//! # Ok::<(), moist_core::MoistError>(())
//! ```

mod elastic;
mod membership;
mod read;
mod write;

pub use elastic::{ClusterStats, RebalanceReport, ShardLoadStats};

use crate::cluster::{ClusterReport, ClusterScheduler};
use crate::config::MoistConfig;
use crate::controller::{AutoController, ControllerConfig, ControllerEvent};
use crate::error::Result;
use crate::ingest::{IngestConfig, IngestQueues, IngestStats};
use crate::placement::ShardWeight;
use crate::query_pool::QueryPool;
use crate::server::{FrontEnd, ServerStats};
use membership::{Membership, RetiredShards, ShardEntry};
use moist_archive::PppArchiver;
use moist_bigtable::{Bigtable, RecoveryReport, StoreConfig, Timestamp};
use moist_spatial::Point;
use parking_lot::{Mutex, ReadMostly, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sharded tier of MOIST front-end servers over one shared store, with
/// live shard join/leave (see the module docs for the membership design).
pub struct MoistCluster {
    cfg: MoistConfig,
    store: Arc<Bigtable>,
    /// Read-mostly membership snapshot, one copy per reader stripe;
    /// swapped whole on epoch bumps. Writers hold its read guard from
    /// routing to apply (lock rule 2).
    membership: ReadMostly<Arc<Membership>>,
    /// Shared worker pool running scattered query slices in parallel.
    query_pool: QueryPool,
    /// Counters of shards that left the tier (their updates — absorbed
    /// while live or in flight — must stay in [`stats`]). A departed
    /// shard's entry lingers only until its last in-flight `Arc` drops,
    /// then folds into the aggregate, so churn does not accumulate dead
    /// servers.
    ///
    /// [`stats`]: MoistCluster::stats
    retired: Mutex<RetiredShards>,
    /// The one clustering schedule: a deadline per routing key of the
    /// current split table, popped by whichever shard is the key's primary
    /// when it ticks. A leaf lock (lock rule 1).
    schedule: Mutex<ClusterScheduler>,
    /// Cluster-wide object-count estimate shared by every shard's FLAG.
    object_estimate: Arc<AtomicU64>,
    /// Archiver handed to every current and future shard.
    archiver: Option<Arc<PppArchiver>>,
    /// Next stable shard id to assign.
    next_shard_id: AtomicU64,
    /// Cells migrated between shards by join/leave epoch bumps.
    epoch_migrations: AtomicU64,
    /// Routing keys whose next-ranked follower stepped up to primary on a
    /// shard leave (replicated mode's instant promotions).
    promotions: AtomicU64,
    /// Reads served by a follower instead of the primary, tier-wide
    /// (monotonic — includes reads served by shards that later retired).
    replica_reads: AtomicU64,
    /// Cell migrations caused by hot-cell splits (children owned by a
    /// shard other than the parent's old owner) and by rebalance weight
    /// shifts.
    split_migrations: AtomicU64,
    /// Per-shard virtual elapsed µs at the last rebalance — the baseline
    /// the next rebalance diffs against to get utilization *since*.
    rebalance_baseline: Mutex<HashMap<u64, f64>>,
    /// Read-mostly per-clustering-cell demand density (relative rate,
    /// mean ≈ 1), refreshed by [`rebalance`](MoistCluster::rebalance) and
    /// consumed by the region fan-out to price slices — empty until the
    /// first rebalance (every cell then prices by its leaf span alone).
    cell_density: RwLock<Arc<HashMap<u64, f64>>>,
    /// Ingestion-pipeline knobs (batch size, queue cap), normalized; set via
    /// [`ClusterBuilder::ingest`].
    ingest_cfg: IngestConfig,
    /// The per-shard bounded submission queues plus their counters.
    ingest: IngestQueues,
    /// The elasticity controller, when one was attached via
    /// [`ClusterBuilder::controller`]. Mutexed because ticks arrive from
    /// arbitrary client threads; `try_lock` keeps concurrent tickers
    /// from serializing on it.
    controller: Option<Mutex<AutoController>>,
}

/// The one construction path for [`MoistCluster`]: every knob — fleet
/// size, replication factor, ingest pipeline, elasticity controller,
/// archiver — is set on the builder, and both fresh construction
/// ([`build`](ClusterBuilder::build)) and crash recovery
/// ([`recover`](ClusterBuilder::recover)) honour all of them.
///
/// ```
/// # use moist_core::{MoistCluster, MoistConfig, ControllerConfig, IngestConfig};
/// # use moist_bigtable::Bigtable;
/// # fn main() -> moist_core::Result<()> {
/// let store = Bigtable::new();
/// let cluster = MoistCluster::builder(&store, MoistConfig::default())
///     .shards(10)
///     .replicas(2)
///     .ingest(IngestConfig::default())
///     .controller(ControllerConfig::default())
///     .build()?;
/// assert_eq!(cluster.num_shards(), 10);
/// assert_eq!(cluster.cluster_stats().replicas, 2);
/// # Ok(())
/// # }
/// ```
pub struct ClusterBuilder {
    store: Arc<Bigtable>,
    cfg: MoistConfig,
    shards: usize,
    replicas: usize,
    ingest: IngestConfig,
    controller: Option<ControllerConfig>,
    archiver: Option<Arc<PppArchiver>>,
}

impl ClusterBuilder {
    /// Fleet size to start with (default 1; clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Replication factor (default 1 = unreplicated single-owner): each
    /// routing key is owned by its rendezvous top-`k` shards — the rank-0
    /// **primary** (updates and clustering, exactly as in the unreplicated
    /// tier) plus `k − 1` **followers** that mirror the key's state through
    /// the shared store and serve its reads when they are less loaded than
    /// the primary. `k` clamps to the live shard count.
    ///
    /// Replication here costs no extra storage or write amplification —
    /// the store is shared, followers hold no private state — it widens
    /// each key's *read* path and pre-arms a leave: when the primary
    /// dies, the rank-1 follower is already serving the key's reads and
    /// its ticks take over the key's clustering at the same deadlines.
    pub fn replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Ingestion-pipeline knobs for [`submit`](MoistCluster::submit) /
    /// [`flush_due`](MoistCluster::flush_due) (default
    /// [`IngestConfig::default`]): batch size and queue cap. Degenerate
    /// sizes are clamped to workable minima. The synchronous [`update`](MoistCluster::update) path is
    /// unaffected.
    pub fn ingest(mut self, cfg: IngestConfig) -> Self {
        self.ingest = cfg;
        self
    }

    /// Attaches a self-tuning elasticity controller (none by default):
    /// the tier then grows/shrinks/rebalances itself on
    /// [`controller_tick`](MoistCluster::controller_tick)s.
    pub fn controller(mut self, cfg: ControllerConfig) -> Self {
        self.controller = Some(cfg);
        self
    }

    /// Attaches one shared PPP archiver to every shard (current and future
    /// joiners): all non-shed location writes stream into the aged-data
    /// pipeline.
    pub fn archiver(mut self, archiver: Arc<PppArchiver>) -> Self {
        self.archiver = Some(archiver);
        self
    }

    /// Builds the tier over the store the builder was bound to, opening
    /// (or on first use creating) the MOIST tables in it.
    pub fn build(self) -> Result<MoistCluster> {
        let store = Arc::clone(&self.store);
        self.build_over(store)
    }

    /// Rebuilds the tier from a crashed durable store, carrying **every**
    /// builder knob over to the recovered fleet. The store the builder was
    /// bound to is ignored; the recovered store replaces it.
    ///
    /// [`Bigtable::recover`] replays every table's snapshot + WAL tail
    /// to its last consistent cut, then the fleet is built over the
    /// recovered store exactly as [`build`](ClusterBuilder::build) does
    /// over a populated one: tables are opened (not recreated), the
    /// clustering schedule restarts at its first staggered deadlines, and
    /// the shared object estimate restarts from the recovered affiliation
    /// rows. Returns the recovered store (callers usually want sessions
    /// on it), the tier, and the recovery report. `store_cfg.durability`
    /// must be [`Durability::Wal`](moist_bigtable::Durability::Wal).
    pub fn recover(
        self,
        store_cfg: StoreConfig,
    ) -> Result<(Arc<Bigtable>, MoistCluster, RecoveryReport)> {
        let (store, report) = Bigtable::recover(store_cfg)?;
        let cluster = self.build_over(Arc::clone(&store))?;
        Ok((store, cluster, report))
    }

    /// The construction body [`build`](ClusterBuilder::build) and
    /// [`recover`](ClusterBuilder::recover) share: `shards` servers with
    /// ids `0..shards` at unit weights, epoch 0, no splits, and the whole
    /// level's clustering schedule.
    fn build_over(self, store: Arc<Bigtable>) -> Result<MoistCluster> {
        let cfg = self.cfg;
        let object_estimate = Arc::new(AtomicU64::new(0));
        let placement: Vec<ShardWeight> = (0..self.shards.max(1) as u64)
            .map(ShardWeight::unit)
            .collect();
        // Opening a shard validates `cfg`, so the schedule is built after.
        let shards = placement
            .iter()
            .map(|m| ShardEntry::open(m.id, &store, cfg, &object_estimate, self.archiver.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        Ok(MoistCluster {
            cfg,
            next_shard_id: AtomicU64::new(shards.len() as u64),
            membership: ReadMostly::new(Arc::new(Membership {
                epoch: 0,
                shards,
                placement,
                splits: Arc::default(),
                replicas: self.replicas.max(1),
            })),
            schedule: Mutex::new(ClusterScheduler::new(&cfg)),
            store,
            query_pool: QueryPool::sized_for_host(),
            retired: Mutex::new(RetiredShards::default()),
            object_estimate,
            archiver: self.archiver,
            epoch_migrations: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            replica_reads: AtomicU64::new(0),
            split_migrations: AtomicU64::new(0),
            rebalance_baseline: Mutex::new(HashMap::new()),
            cell_density: RwLock::new(Arc::new(HashMap::new())),
            ingest_cfg: self.ingest.normalized(),
            ingest: IngestQueues::default(),
            controller: self.controller.map(|c| Mutex::new(AutoController::new(c))),
        })
    }
}

impl MoistCluster {
    /// Starts a [`ClusterBuilder`] over `store` — **the** construction
    /// path for the tier.
    pub fn builder(store: &Arc<Bigtable>, cfg: MoistConfig) -> ClusterBuilder {
        ClusterBuilder {
            store: Arc::clone(store),
            cfg,
            shards: 1,
            replicas: 1,
            ingest: IngestConfig::default(),
            controller: None,
            archiver: None,
        }
    }

    /// The ingestion pipeline's current knobs.
    pub fn ingest_config(&self) -> IngestConfig {
        self.ingest_cfg
    }

    /// Point-in-time ingestion-pipeline counters (also embedded in
    /// [`cluster_stats`](MoistCluster::cluster_stats)).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest.stats()
    }

    /// Number of live front-end shards.
    pub fn num_shards(&self) -> usize {
        self.snapshot().shards.len()
    }

    /// The live shards' stable ids, in position order.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.snapshot().ids()
    }

    /// The tier's configuration.
    pub fn config(&self) -> &MoistConfig {
        &self.cfg
    }

    /// Cluster-wide object-count estimate (FLAG's `n`).
    pub fn object_estimate(&self) -> u64 {
        self.object_estimate.load(Ordering::Relaxed)
    }

    /// The controller's decision log so far (empty when no controller is
    /// attached), oldest first — the observable trace the chaos tests
    /// assert hysteresis on.
    pub fn controller_events(&self) -> Vec<ControllerEvent> {
        self.controller
            .as_ref()
            .map(|c| c.lock().events().to_vec())
            .unwrap_or_default()
    }

    /// The attached controller's (normalized) configuration, if any.
    pub fn controller_config(&self) -> Option<ControllerConfig> {
        self.controller.as_ref().map(|c| c.lock().config())
    }

    /// The position (in current membership order) of the shard owning the
    /// clustering cell (or, for a split cell, the child cell) containing
    /// `p`.
    pub fn shard_for_point(&self, p: &Point) -> usize {
        let snap = self.snapshot();
        snap.owner_position(snap.route_point(p, &self.cfg))
    }

    /// Runs `f` against the shared half of one shard's server by position,
    /// holding no lock — any number of callers overlap on the same shard,
    /// beside its writers.
    pub fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&FrontEnd) -> R) -> Result<R> {
        Ok(f(&self.entry_at(shard)?.front))
    }

    /// Runs lazy clustering on one shard by position: only the due routing
    /// keys that shard is primary for fire, so across shards each key is
    /// clustered by exactly one server. Workers call this for "their"
    /// shard on a tick; a worker racing a shard removal gets
    /// [`MoistError::NoSuchShard`](crate::MoistError::NoSuchShard), not a panic.
    pub fn run_due_clustering_shard(&self, shard: usize, now: Timestamp) -> Result<ClusterReport> {
        let snap = self.membership.read();
        snap.entry(shard)?;
        self.cluster_due(&snap, shard, now)
    }

    /// Runs lazy clustering on every shard in turn (single-driver mode).
    pub fn run_due_clustering(&self, now: Timestamp) -> Result<ClusterReport> {
        let snap = self.membership.read();
        let mut total = ClusterReport::default();
        for pos in 0..snap.shards.len() {
            total.merge_from(&self.cluster_due(&snap, pos, now)?);
        }
        Ok(total)
    }

    /// One shard's tick under the caller's membership read guard (lock
    /// rule 2): pops the due keys whose primary is position `pos` off the
    /// schedule, then clusters them under that shard's writer lock.
    fn cluster_due(&self, snap: &Membership, pos: usize, now: Timestamp) -> Result<ClusterReport> {
        let mine = |key| snap.owner_position(key) == pos;
        let cells = self.schedule.lock().due_cells(now, mine)?;
        if cells.is_empty() {
            return Ok(ClusterReport::default());
        }
        snap.shards[pos].server.lock().cluster_cells(&cells, now)
    }

    /// The pending clustering deadline (virtual µs) of routing key `key`
    /// — a clustering cell, or a split cell's child
    /// ([`SplitTable::child_keys`](crate::SplitTable::child_keys)) — or
    /// `None` when `key` is not a routing key under the current split
    /// table.
    pub fn clustering_deadline(&self, key: u64) -> Option<u64> {
        self.schedule.lock().deadline_of(key)
    }

    /// Ages out cold records. The aging columns are table-global, so this
    /// runs once (through the first live shard), not once per shard.
    pub fn age_data(&self, now: Timestamp) -> Result<usize> {
        self.entry_at(0)?.front.age_data(now)
    }

    /// Aggregate operation counters across all shards, including shards
    /// that have since left the tier (so a failover never "loses" the
    /// updates the departed shard absorbed).
    pub fn stats(&self) -> ServerStats {
        let snap = self.snapshot();
        let mut total = self.retired.lock().stats();
        for entry in &snap.shards {
            total.merge_from(&entry.front.stats());
        }
        total
    }

    /// Per-shard operation counters for the live shards, in position
    /// order.
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        let snap = self.snapshot();
        snap.shards.iter().map(|e| e.front.stats()).collect()
    }

    /// Sum of the live shards' virtual elapsed microseconds (total store
    /// work). Per-shard times, and the busiest shard's, are in
    /// [`cluster_stats`](MoistCluster::cluster_stats).
    pub fn total_elapsed_us(&self) -> f64 {
        let snap = self.snapshot();
        snap.shards.iter().map(|e| e.front.elapsed_us()).sum()
    }

    /// Resets every live shard's session clock (benches do this after
    /// warm-up) along with the rebalance utilization baseline, which is
    /// measured against those clocks.
    pub fn reset_clocks(&self) {
        let snap = self.snapshot();
        for entry in &snap.shards {
            entry.front.reset_clock();
        }
        self.rebalance_baseline.lock().clear();
    }
}

#[cfg(test)]
mod tests;
