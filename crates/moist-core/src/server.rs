//! The MOIST front-end server: one shard of the tier.
//!
//! A [`MoistServer`] is one of the paper's front-end machines: it applies
//! updates (Algorithm 1), answers NN queries (Algorithm 2 + FLAG), and
//! streams leaders' location records into the PPP archiver. Clients reach
//! it through [`MoistCluster`](crate::MoistCluster) — one shard by
//! default — which holds one per shard over one shared `Arc<Bigtable>`,
//! exactly like the paper's 5- and 10-server deployments share one
//! BigTable (§4.3.3). The tier keeps one clustering schedule for all its
//! shards, so a shard holds none of its own.
//!
//! Outside the tier, [`MoistServer::new`] builds a bare server with its
//! own whole-map schedule: the wall-clock harness's probe of the layer
//! under the tier. Its `pub` surface is the seven calls that probe makes.
//!
//! ## Intra-shard concurrency
//!
//! A server is cut in two by type. [`FrontEnd`] is the shared half:
//! every query path, counter and load accessor, and `age_data`, all
//! through `&self` — each call opens an ephemeral [`Session`] attached to
//! the shared [`MeterHub`], so cost accounting needs no `&mut` clock, and
//! the query-side bookkeeping lives behind shared-friendly state (atomic
//! [`ServerStats`] counters, a `Mutex<LoadTracker>`, an
//! `RwLock<FlagTuner>` whose write guard is taken only when a query
//! actually re-tunes the level). [`MoistServer`] holds an
//! `Arc<FrontEnd>`, derefs to it, and adds the writer's half — the archiver
//! feed behind `&mut self` (`update`, `update_batch`, clustering). A
//! cluster tier puts the `MoistServer` behind a mutex that serializes
//! those writers and keeps the same `Arc<FrontEnd>` beside it: a scan of
//! the shared store never makes the shard's writer wait.
//!
//! Ephemeral sessions are *seeded* from the hub's running total, so on a
//! single thread every charge lands in the same order and at the same
//! absolute clock value as the old one-shared-session design — virtual
//! time stays bit-identical.

use crate::cluster::{cluster_cell, ClusterReport, ClusterScheduler};
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::flag::{FlagLookup, FlagStats, FlagTuner};
use crate::ids::ObjectId;
use crate::load::{CellRates, LoadTracker};
use crate::nn::{nn_query, Neighbor, NnOptions, NnStats, MAX_FIXED_NN_LEVEL};
use crate::school::estimated_location;
use crate::tables::MoistTables;
use crate::update::{apply_update, apply_update_batch, UpdateMessage, UpdateOutcome};
use moist_archive::{HistoryRecord, PppArchiver};
use moist_bigtable::{Bigtable, BigtableError, MeterHub, Session, Timestamp};
use moist_spatial::{CellId, Point, Rect};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Updates processed between lazy re-seeds of the object estimate from the
/// store's row count (which sees other servers' registrations too).
const ESTIMATE_REFRESH_OPS: u64 = 1024;

/// Age in seconds after which location and affiliation records count as
/// aged and [`FrontEnd::age_data`] moves them to the disk columns (§3.5).
pub(crate) const AGING_SECS: u64 = 600;

/// Per-server operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ServerStats {
    /// Updates received.
    pub updates: u64,
    /// Updates shed by schooling (no store writes).
    pub shed: u64,
    /// Leader-branch updates.
    pub leader_updates: u64,
    /// First-sight registrations.
    pub registered: u64,
    /// School departures.
    pub departures: u64,
    /// NN queries served.
    pub nn_queries: u64,
    /// Clustering runs executed.
    pub cluster_runs: u64,
}

impl ServerStats {
    /// Fraction of updates shed (`0.0` when no updates were seen).
    pub fn shed_ratio(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.shed as f64 / self.updates as f64
        }
    }

    /// Whether the per-outcome counters account for every update received
    /// (each update is exactly one of shed / leader / registered /
    /// departed — the cluster-tier consistency invariant).
    pub fn balanced(&self) -> bool {
        self.shed + self.leader_updates + self.registered + self.departures == self.updates
    }

    /// Accumulates another server's counters (cluster-tier aggregation).
    pub(crate) fn merge_from(&mut self, other: &ServerStats) {
        self.updates += other.updates;
        self.shed += other.shed;
        self.leader_updates += other.leader_updates;
        self.registered += other.registered;
        self.departures += other.departures;
        self.nn_queries += other.nn_queries;
        self.cluster_runs += other.cluster_runs;
    }
}

/// Atomic backing for [`ServerStats`] so query paths can count through
/// `&self`; [`StatsCells::snapshot`] materialises the public struct.
#[derive(Debug, Default)]
struct StatsCells {
    updates: AtomicU64,
    shed: AtomicU64,
    leader_updates: AtomicU64,
    registered: AtomicU64,
    departures: AtomicU64,
    nn_queries: AtomicU64,
    cluster_runs: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            updates: self.updates.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            leader_updates: self.leader_updates.load(Ordering::Relaxed),
            registered: self.registered.load(Ordering::Relaxed),
            departures: self.departures.load(Ordering::Relaxed),
            nn_queries: self.nn_queries.load(Ordering::Relaxed),
            cluster_runs: self.cluster_runs.load(Ordering::Relaxed),
        }
    }
}

/// The shared half of a front-end: everything reachable through `&self`
/// — configuration, tables, meters, FLAG cache, counters and the load
/// signal — so every query, counter and load accessor runs on it without
/// the writer's lock. A [`MoistServer`] derefs to its `FrontEnd`; the
/// cluster tier keeps the same `Arc<FrontEnd>` beside the shard's writer
/// mutex.
pub struct FrontEnd {
    cfg: MoistConfig,
    tables: MoistTables,
    store: Arc<Bigtable>,
    /// Shared accumulator of virtual time; every per-call session this
    /// front-end opens mirrors its charges here.
    hub: Arc<MeterHub>,
    /// FLAG tuner: read guard for cache hits and Algorithm 3 probes,
    /// write guard only to install a re-tuned level.
    flag: RwLock<FlagTuner>,
    stats: StatsCells,
    /// Object-count estimate for FLAG's initial guess. Seeded from the
    /// store on construction (a server joining an already-populated store
    /// must not feed FLAG `n = 1`), bumped on local registrations, and
    /// lazily re-seeded from the store row count every
    /// [`ESTIMATE_REFRESH_OPS`] updates so remote registrations show up
    /// too. Shared across shards in a cluster tier.
    object_estimate: Arc<AtomicU64>,
    /// Updates since the estimate was last re-seeded from the store.
    estimate_staleness: AtomicU64,
    /// Per-clustering-cell EWMA demand rates (the load-signal layer the
    /// cluster tier's hot-cell splitting and fan-out pricing consume).
    /// Lives next to the FLAG machinery: FLAG estimates *density*, this
    /// tracks *demand*. Behind a small internal lock (EWMA folds need
    /// `&mut`) so concurrent queries can record demand from `&self`.
    load: Mutex<LoadTracker>,
}

/// One MOIST front-end server: the shared [`FrontEnd`] plus the writer's
/// own state (the archiver feed, and a bare server's clustering schedule).
pub struct MoistServer {
    front: Arc<FrontEnd>,
    /// The whole map's schedule on a bare server; `None` on a tier shard,
    /// whose cells the tier's one schedule hands it.
    scheduler: Option<ClusterScheduler>,
    archiver: Option<Arc<PppArchiver>>,
}

impl std::ops::Deref for MoistServer {
    type Target = FrontEnd;

    fn deref(&self) -> &FrontEnd {
        &self.front
    }
}

/// Opens the MOIST tables, creating them only when genuinely missing.
///
/// Schema or decode errors from `open` propagate instead of being masked
/// by a doomed `create` attempt; losing the creation race to a concurrent
/// server (`TableExists`) falls back to re-opening what the winner built.
fn open_or_create_tables(store: &Arc<Bigtable>, cfg: &MoistConfig) -> Result<MoistTables> {
    match MoistTables::open(store) {
        Ok(t) => Ok(t),
        Err(MoistError::Store(BigtableError::UnknownTable(_))) => {
            match MoistTables::create(store, cfg) {
                Ok(t) => Ok(t),
                Err(MoistError::Store(BigtableError::TableExists(_))) => MoistTables::open(store),
                Err(e) => Err(e),
            }
        }
        Err(e) => Err(e),
    }
}

/// Rejects non-finite query input — a centre, or a window's corners and
/// margin — with the typed error updates get ([`UpdateMessage::validate`]):
/// a NaN centre ranks every leader at distance NaN, an infinite one never
/// closes the search frontier, and a NaN corner plans an empty scan.
pub(crate) fn check_finite(coords: &[f64]) -> Result<()> {
    if coords.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(MoistError::Inconsistent("non-finite query input".into()))
    }
}

impl MoistServer {
    /// A bare server: opens (or on first use creates) the MOIST tables in
    /// `store` and builds a server around them, with its own clustering
    /// schedule over the whole map. Clients build a
    /// [`MoistCluster`](crate::MoistCluster) instead.
    pub fn new(store: &Arc<Bigtable>, cfg: MoistConfig) -> Result<Self> {
        let mut server = Self::shard(store, cfg, Arc::default(), None)?;
        server.scheduler = Some(ClusterScheduler::new(&cfg));
        Ok(server)
    }

    /// A tier shard: [`new`](MoistServer::new) without a clustering
    /// schedule, sharing a tier-wide object-count estimate (the handed-in
    /// counter absorbs the store's current row count, so all shards feed
    /// FLAG the same `n`) and streaming every non-shed location write into
    /// `archiver`, if any.
    pub(crate) fn shard(
        store: &Arc<Bigtable>,
        cfg: MoistConfig,
        estimate: Arc<AtomicU64>,
        archiver: Option<Arc<PppArchiver>>,
    ) -> Result<Self> {
        cfg.validate()?;
        let tables = open_or_create_tables(store, &cfg)?;
        // One affiliation row per object ever seen: the store's estimate is
        // the right FLAG seed even when this server joins late.
        estimate.fetch_max(tables.affiliation.approx_row_count(), Ordering::Relaxed);
        Ok(MoistServer {
            scheduler: None,
            archiver,
            front: Arc::new(FrontEnd {
                flag: RwLock::new(FlagTuner::new()),
                store: Arc::clone(store),
                hub: Arc::new(MeterHub::new()),
                stats: StatsCells::default(),
                object_estimate: estimate,
                estimate_staleness: AtomicU64::new(0),
                load: Mutex::default(),
                tables,
                cfg,
            }),
        })
    }

    /// The shared half, for a holder that serves this server's queries
    /// beside its writer lock.
    pub(crate) fn front(&self) -> &Arc<FrontEnd> {
        &self.front
    }

    /// Applies one update (Algorithm 1), maintaining counters and feeding
    /// the archiver on the non-shed branches.
    pub fn update(&mut self, msg: &UpdateMessage) -> Result<UpdateOutcome> {
        let mut s = self.charged_session();
        let outcome = apply_update(&mut s, &self.tables, &self.cfg, msg)?;
        self.account_update(msg, outcome);
        Ok(outcome)
    }

    /// Applies a whole batch of updates through the amortized path
    /// (`apply_update_batch`): one lock acquisition, batched prefetch
    /// reads, and multi-row deferred writes instead of per-message store
    /// round-trips. Per-message accounting (stats, load signal, archiver,
    /// object estimate) is identical to calling
    /// [`update`](MoistServer::update) once per message, so
    /// [`ServerStats::balanced`] and the cluster-tier zero-lost-updates
    /// invariant hold unchanged.
    ///
    /// On error nothing is accounted: the batch is validated up front, so
    /// the only failures are store errors, which the synchronous path
    /// treats as fatal too.
    pub fn update_batch(&mut self, msgs: &[UpdateMessage]) -> Result<Vec<UpdateOutcome>> {
        let mut s = self.charged_session();
        let outcomes = apply_update_batch(&mut s, &self.tables, &self.cfg, msgs)?;
        for (msg, &outcome) in msgs.iter().zip(&outcomes) {
            self.account_update(msg, outcome);
        }
        Ok(outcomes)
    }

    /// The per-update bookkeeping shared by the synchronous and batched
    /// apply paths: outcome counters, the per-cell load signal, lazy
    /// object-estimate refresh, and archiver ingestion for non-shed
    /// branches.
    fn account_update(&self, msg: &UpdateMessage, outcome: UpdateOutcome) {
        self.stats.updates.fetch_add(1, Ordering::Relaxed);
        let cell = self.cfg.space.cell_at(self.cfg.clustering_level, &msg.loc);
        self.load.lock().observe_update(cell.index, msg.ts);
        let stale = self.estimate_staleness.fetch_add(1, Ordering::Relaxed) + 1;
        if stale >= ESTIMATE_REFRESH_OPS {
            self.refresh_object_estimate();
        }
        match outcome {
            UpdateOutcome::Shed => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
            }
            UpdateOutcome::LeaderUpdated => {
                self.stats.leader_updates.fetch_add(1, Ordering::Relaxed);
            }
            UpdateOutcome::Registered => {
                self.stats.registered.fetch_add(1, Ordering::Relaxed);
                self.object_estimate.fetch_add(1, Ordering::Relaxed);
            }
            UpdateOutcome::Departed { .. } => {
                self.stats.departures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if outcome != UpdateOutcome::Shed {
            if let Some(archiver) = &self.archiver {
                archiver.ingest(
                    HistoryRecord::new(msg.oid.0, msg.ts.0, msg.loc, msg.vel),
                    msg.ts.0,
                );
            }
        }
    }

    /// Runs clustering for every cell due at `now` (lazy clustering).
    /// A tier shard has no schedule of its own and clusters nothing here;
    /// the tier's ticks hand it its cells.
    ///
    /// A tick past 2^62 µs, the latest report time an update may carry, is
    /// refused before any cell runs: the scheduler re-arms each due cell
    /// by adding whole intervals to its deadline, which must stay inside
    /// `u64`.
    pub fn run_due_clustering(&mut self, now: Timestamp) -> Result<ClusterReport> {
        let cells = match &mut self.scheduler {
            Some(scheduler) => scheduler.due_cells(now, |_| true)?,
            None => Vec::new(),
        };
        self.cluster_cells(&cells, now)
    }

    /// Clusters `cells` at `now`, counting one `cluster_runs` each: the
    /// part of a tick that runs under the writer lock.
    pub(crate) fn cluster_cells(
        &mut self,
        cells: &[CellId],
        now: Timestamp,
    ) -> Result<ClusterReport> {
        let mut s = self.charged_session();
        let mut total = ClusterReport::default();
        for &cell in cells {
            total.merge_from(&cluster_cell(&mut s, &self.tables, &self.cfg, cell, now)?);
            self.stats.cluster_runs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(total)
    }
}

impl FrontEnd {
    /// Opens an ephemeral cost session for one call: charges mirror into
    /// the shared hub and the session's clock is seeded from the hub's
    /// running total, so single-threaded charge sequences (and every
    /// mid-call `elapsed_us` diff) are bit-identical to one shared clock.
    fn charged_session(&self) -> Session {
        self.store.session_with_hub(Arc::clone(&self.hub))
    }

    /// Zeroes the virtual clock (benches do this after warm-up).
    pub(crate) fn reset_clock(&self) {
        self.hub.reset();
    }

    /// Virtual microseconds this server has consumed across all its
    /// sessions (the shared hub total).
    pub(crate) fn elapsed_us(&self) -> f64 {
        self.hub.elapsed_us()
    }

    /// Operation counters.
    pub(crate) fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// FLAG tuner counters.
    pub fn flag_stats(&self) -> FlagStats {
        self.flag.read().stats()
    }

    /// The per-clustering-cell EWMA demand rates as of `now` (ascending
    /// cell order) — this server's slice of the load-signal layer.
    pub(crate) fn load_rates(&self, now: Timestamp) -> Vec<(u64, CellRates)> {
        self.load.lock().rates(now)
    }

    /// Current object-count estimate feeding FLAG's initial level guess.
    pub(crate) fn object_estimate(&self) -> u64 {
        self.object_estimate.load(Ordering::Relaxed)
    }

    /// Re-seeds the object estimate from the store's row count immediately
    /// (also runs lazily every [`ESTIMATE_REFRESH_OPS`] updates).
    ///
    /// `fetch_max`, not `store`: a plain store would erase a registration
    /// another shard counted between our row-count read and the write.
    /// Objects are never deleted, so the estimate only ever needs raising.
    fn refresh_object_estimate(&self) -> u64 {
        let n = self.tables.affiliation.approx_row_count();
        self.estimate_staleness.store(0, Ordering::Relaxed);
        self.object_estimate.fetch_max(n, Ordering::Relaxed).max(n)
    }

    /// k-nearest-neighbour query at FLAG's level.
    pub fn nn(&self, center: Point, k: usize, at: Timestamp) -> Result<(Vec<Neighbor>, NnStats)> {
        self.nn_with_options(center, at, &NnOptions::new(k))
    }

    /// NN query with explicit options (FLAG or a fixed level, range
    /// limit, prediction — see [`NnOptions`]). One session threads FLAG's
    /// probes and the NN scan, so the charge sequence matches one shared
    /// clock exactly.
    pub(crate) fn nn_with_options(
        &self,
        center: Point,
        at: Timestamp,
        opts: &NnOptions,
    ) -> Result<(Vec<Neighbor>, NnStats)> {
        // An infinite horizon has no position to rank by, a NaN range
        // limit would compare as "no limit", and each fixed level past
        // the cap quadruples the cells the walk visits.
        check_finite(&[center.x, center.y, opts.predict_secs])?;
        if opts.max_distance.is_nan() {
            return Err(MoistError::Inconsistent("NaN search range limit".into()));
        }
        if let Some(level) = opts.nn_level.filter(|&l| l > MAX_FIXED_NN_LEVEL) {
            return Err(MoistError::Inconsistent(format!(
                "fixed NN level {level} is finer than the limit {MAX_FIXED_NN_LEVEL}"
            )));
        }
        let mut s = self.charged_session();
        let level = match opts.nn_level {
            Some(level) => level,
            None => self.flag_level_in(&mut s, &center, at)?,
        };
        let out = nn_query(&mut s, &self.tables, &self.cfg, center, at, level, opts)?;
        self.stats.nn_queries.fetch_add(1, Ordering::Relaxed);
        let cell = self.cfg.space.cell_at(self.cfg.clustering_level, &center);
        self.load.lock().observe_query(cell.index, at);
        Ok(out)
    }

    /// Algorithm 4 under the split tuner lock: cache hits (the common
    /// case) and Algorithm 3's probe loop run under the *read* guard;
    /// the write guard is taken only to install a re-tuned level. Two
    /// racing misses may both recompute — both arrive at the same
    /// answer, and the cache insert is idempotent.
    fn flag_level_in(&self, s: &mut Session, loc: &Point, at: Timestamp) -> Result<u8> {
        let index = self.cfg.space.leaf_cell(loc).index;
        let stale_key = match self.flag.read().lookup(index, at) {
            FlagLookup::Hit(level) => return Ok(level),
            FlagLookup::Stale(k) => Some(k),
            FlagLookup::Miss => None,
        };
        let n = self.object_estimate().max(1);
        let level = self
            .flag
            .read()
            .calculate_best_level(s, &self.tables, &self.cfg, loc, n)?;
        self.flag
            .write()
            .complete_miss(stale_key, &self.cfg, loc, level, at);
        Ok(level)
    }

    /// All objects inside a world-coordinate rectangle at `at` ("browse all
    /// running buses near a location", §5).
    pub fn region(
        &self,
        rect: &Rect,
        at: Timestamp,
        margin: f64,
    ) -> Result<(Vec<Neighbor>, crate::region::RegionStats)> {
        check_finite(&[rect.min_x, rect.min_y, rect.max_x, rect.max_y, margin])?;
        let cell = self
            .cfg
            .space
            .cell_at(self.cfg.clustering_level, &rect.center());
        self.load.lock().observe_query(cell.index, at);
        let mut s = self.charged_session();
        crate::region::region_query(&mut s, &self.tables, &self.cfg, rect, at, margin)
    }

    /// Shard-local slice of a scattered region query: scans exactly the
    /// pre-planned leaf `ranges` (no re-planning — the cluster tier planned
    /// once and owner-sliced the ranges) and returns the raw mergeable
    /// partial. Counted as neither a query nor deduped here; the tier's
    /// merge does that exactly once.
    pub(crate) fn region_partial(
        &self,
        ranges: &[(u64, u64)],
        rect: &Rect,
        at: Timestamp,
    ) -> Result<crate::region::RegionPartial> {
        check_finite(&[rect.min_x, rect.min_y, rect.max_x, rect.max_y])?;
        let mut s = self.charged_session();
        crate::region::region_partial_scan(&mut s, &self.tables, ranges, rect, at)
    }

    /// Current position of one object: leaders from their latest record,
    /// followers via the school estimate (§3.3.1).
    pub(crate) fn position(&self, oid: ObjectId, at: Timestamp) -> Result<Option<Point>> {
        use crate::codec::LfRecord;
        let mut s = self.charged_session();
        match self.tables.lf(&mut s, oid)? {
            None => Ok(None),
            Some(LfRecord::Leader { .. }) => Ok(self
                .tables
                .latest_location(&mut s, oid)?
                .map(|(ts, rec)| rec.loc.advance(rec.vel, at.secs_since(ts)))),
            Some(LfRecord::Follower {
                leader,
                displacement,
                ..
            }) => match self.tables.latest_location(&mut s, leader)? {
                None => Ok(None),
                Some((ts, rec)) => Ok(Some(estimated_location(&rec, ts, displacement, at))),
            },
        }
    }

    /// Ages out old location and affiliation records to disk columns.
    pub(crate) fn age_data(&self, now: Timestamp) -> Result<usize> {
        let cutoff = Timestamp(now.0.saturating_sub(AGING_SECS * 1_000_000));
        let a = self.tables.age_locations(cutoff)?;
        let b = self.tables.age_affiliations(cutoff)?;
        Ok(a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_archive::PppConfig;
    use moist_bigtable::{CostProfile, OwnedRow, ReadOptions, ScanRange};
    use moist_spatial::Velocity;
    use proptest::prelude::*;

    fn msg(oid: u64, x: f64, y: f64, vx: f64, secs: f64) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(x, y),
            vel: Velocity::new(vx, 0.0),
            ts: Timestamp::from_secs_f64(secs),
        }
    }

    #[test]
    fn end_to_end_update_query_cycle() {
        let store = Bigtable::new();
        let mut server = MoistServer::new(&store, MoistConfig::default()).unwrap();
        for i in 0..20u64 {
            server
                .update(&msg(i, 100.0 + 10.0 * i as f64, 500.0, 1.0, 0.0))
                .unwrap();
        }
        let (nn, stats) = server
            .nn(Point::new(100.0, 500.0), 5, Timestamp::ZERO)
            .unwrap();
        assert_eq!(nn.len(), 5);
        assert_eq!(nn[0].oid, ObjectId(0));
        assert!(stats.cost_us > 0.0, "queries must cost virtual time");
        assert_eq!(server.stats().updates, 20);
        assert_eq!(server.stats().registered, 20);
        assert!(server.elapsed_us() > 0.0);
    }

    #[test]
    fn two_servers_share_one_store() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let mut a = MoistServer::new(&store, cfg).unwrap();
        let b = MoistServer::new(&store, cfg).unwrap();
        a.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
        // Server b sees server a's object.
        let pos = b.position(ObjectId(1), Timestamp::ZERO).unwrap().unwrap();
        assert_eq!(pos, Point::new(100.0, 100.0));
        let (nn, _) = b.nn(Point::new(100.0, 100.0), 1, Timestamp::ZERO).unwrap();
        assert_eq!(nn[0].oid, ObjectId(1));
    }

    #[test]
    fn late_joining_server_seeds_object_estimate_from_store() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let mut a = MoistServer::new(&store, cfg).unwrap();
        for i in 0..50u64 {
            a.update(&msg(i, 100.0 + i as f64, 500.0, 1.0, 0.0))
                .unwrap();
        }
        assert_eq!(a.object_estimate(), 50);
        // A server joining the populated store must not start from 0.
        let b = MoistServer::new(&store, cfg).unwrap();
        assert_eq!(b.object_estimate(), 50);
        // Registrations seen elsewhere surface on refresh.
        a.update(&msg(99, 900.0, 900.0, 1.0, 0.0)).unwrap();
        assert_eq!(b.refresh_object_estimate(), 51);
        // A shared counter keeps shards in sync without refreshes.
        let shared = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut c = MoistServer::shard(&store, cfg, Arc::clone(&shared), None).unwrap();
        let d = MoistServer::shard(&store, cfg, Arc::clone(&shared), None).unwrap();
        c.update(&msg(100, 50.0, 50.0, 1.0, 0.0)).unwrap();
        assert_eq!(d.object_estimate(), 52);
    }

    #[test]
    fn new_creates_missing_tables_but_propagates_partial_schemas() {
        use moist_bigtable::{ColumnFamily, TableSchema};
        // Fresh store: tables are created.
        let store = Bigtable::new();
        assert!(MoistServer::new(&store, MoistConfig::default()).is_ok());
        // Existing tables: opened, not clobbered.
        assert!(MoistServer::new(&store, MoistConfig::default()).is_ok());
        // A store with only *some* MOIST tables is corrupt: `new` must
        // surface an error instead of silently falling back to `create`
        // (which would mask the real problem behind `TableExists`).
        let partial = Bigtable::new();
        partial
            .create_table(
                TableSchema::new(
                    crate::config::table_names::LOCATION,
                    vec![ColumnFamily::in_memory("wrong", 1)],
                )
                .unwrap(),
            )
            .unwrap();
        let err = match MoistServer::new(&partial, MoistConfig::default()) {
            Ok(_) => panic!("partial table set must not open cleanly"),
            Err(e) => e,
        };
        assert!(
            matches!(err, MoistError::Store(_)),
            "partial schema must propagate, got {err:?}"
        );
    }

    #[test]
    fn position_extrapolates_leaders_and_estimates_followers() {
        let store = Bigtable::new();
        let mut server = MoistServer::new(&store, MoistConfig::default()).unwrap();
        server.update(&msg(1, 100.0, 100.0, 2.0, 0.0)).unwrap();
        // Leader extrapolated 5 s forward at vx=2: x = 110.
        let p = server
            .position(ObjectId(1), Timestamp::from_secs(5))
            .unwrap()
            .unwrap();
        assert!((p.x - 110.0).abs() < 1e-9);
        // Manually affiliate a follower and check its estimate.
        use crate::codec::LfRecord;
        use moist_spatial::Displacement;
        let t = server.tables.clone();
        let d = Displacement::new(0.0, 7.0);
        t.set_lf(
            &mut store.session(),
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: d,
                since_us: 0,
            },
            Timestamp::ZERO,
        )
        .unwrap();
        let p = server
            .position(ObjectId(2), Timestamp::from_secs(5))
            .unwrap()
            .unwrap();
        assert!((p.x - 110.0).abs() < 1e-9 && (p.y - 107.0).abs() < 1e-9);
        assert!(server
            .position(ObjectId(99), Timestamp::ZERO)
            .unwrap()
            .is_none());
    }

    #[test]
    fn archiver_receives_leader_records_and_serves_history() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let archiver = Arc::new(PppArchiver::new(cfg.space, PppConfig::default()));
        let cluster = crate::MoistCluster::builder(&store, cfg)
            .archiver(Arc::clone(&archiver))
            .build()
            .unwrap();
        for t in 0..10u64 {
            cluster
                .update(&msg(1, 100.0 + t as f64, 100.0, 1.0, t as f64))
                .unwrap();
        }
        archiver.flush_all();
        let (hist, _) = cluster
            .history(ObjectId(1), Timestamp::ZERO, Timestamp::from_secs(100))
            .unwrap();
        assert_eq!(hist.len(), 10);
    }

    #[test]
    fn clustering_runs_on_schedule_and_reduces_leaders() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 2,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut server = MoistServer::new(&store, cfg).unwrap();
        for i in 0..10u64 {
            server
                .update(&msg(i, 500.0 + i as f64, 500.0, 1.0, 0.0))
                .unwrap();
        }
        // Not yet due.
        let r = server.run_due_clustering(Timestamp::from_secs(1)).unwrap();
        assert_eq!(r.pre_leaders, 0);
        // After the interval every cell has fired at least once.
        let r = server.run_due_clustering(Timestamp::from_secs(25)).unwrap();
        assert!(r.merged > 0, "identical-velocity leaders must merge");
        assert!(server.stats().cluster_runs > 0);
    }

    #[test]
    fn shed_ratio_reflects_schooling() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 2,
            ..MoistConfig::default()
        };
        let mut server = MoistServer::new(&store, cfg).unwrap();
        // Two co-moving objects.
        server.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
        server.update(&msg(2, 101.0, 100.0, 1.0, 0.0)).unwrap();
        server.run_due_clustering(Timestamp::from_secs(30)).unwrap();
        // Subsequent follower updates along the shared trajectory are shed.
        for t in 1..=10u64 {
            let x = 101.0 + t as f64;
            server.update(&msg(2, x, 100.0, 1.0, t as f64)).unwrap();
        }
        assert!(server.stats().shed >= 9, "stats: {:?}", server.stats());
        assert!(server.stats().shed_ratio() > 0.7);
    }

    #[test]
    fn update_batch_accounts_exactly_like_the_synchronous_path() {
        let store_a = Bigtable::new();
        let store_b = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 2,
            ..MoistConfig::default()
        };
        let mut sync_srv = MoistServer::new(&store_a, cfg).unwrap();
        let mut batch_srv = MoistServer::new(&store_b, cfg).unwrap();
        // Seed a school on both, then run one clustering pass so follower
        // traffic really sheds.
        for srv in [&mut sync_srv, &mut batch_srv] {
            srv.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
            srv.update(&msg(2, 101.0, 100.0, 1.0, 0.0)).unwrap();
            srv.run_due_clustering(Timestamp::from_secs(30)).unwrap();
        }
        let batch: Vec<UpdateMessage> = (1..=8u64)
            .map(|t| msg(2, 101.0 + t as f64, 100.0, 1.0, 30.0 + t as f64))
            .chain((0..4u64).map(|i| msg(10 + i, 700.0 + i as f64, 700.0, 1.0, 31.0)))
            .collect();
        let sync_out: Vec<UpdateOutcome> =
            batch.iter().map(|m| sync_srv.update(m).unwrap()).collect();
        let batch_out = batch_srv.update_batch(&batch).unwrap();
        assert_eq!(sync_out, batch_out);
        assert_eq!(sync_srv.stats(), batch_srv.stats());
        assert!(batch_srv.stats().balanced());
        assert_eq!(batch_srv.stats().updates, 2 + batch.len() as u64);
        assert!(batch_srv.stats().shed >= 7, "{:?}", batch_srv.stats());
        // The batched path must be measurably cheaper in virtual time
        // than replaying the same messages synchronously — that is its
        // entire reason to exist.
        assert!(
            batch_srv.elapsed_us() < sync_srv.elapsed_us(),
            "batched {} µs must beat sync {} µs",
            batch_srv.elapsed_us(),
            sync_srv.elapsed_us()
        );
    }

    #[test]
    fn age_data_moves_cold_records() {
        let store = Bigtable::new();
        let mut server = MoistServer::new(&store, MoistConfig::default()).unwrap();
        server.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
        server.update(&msg(1, 110.0, 100.0, 1.0, 5.0)).unwrap();
        server.update(&msg(1, 120.0, 100.0, 1.0, 100.0)).unwrap();
        // Cut-off at 90 s: the reports at 0 s and 5 s are cold.
        let moved = server
            .age_data(Timestamp::from_secs(90 + AGING_SECS))
            .unwrap();
        assert!(moved >= 2, "old records age to disk, got {moved}");
        // The hot path still works.
        let p = server
            .position(ObjectId(1), Timestamp::from_secs(100))
            .unwrap()
            .unwrap();
        assert_eq!(p.x, 120.0);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Update {
            oid: u64,
            x: f64,
            y: f64,
            vx: f64,
            vy: f64,
            dt: f64,
        },
        Cluster,
    }

    fn op_strategy(objects: u64) -> impl Strategy<Value = Op> {
        prop_oneof![
            9 => (
                0..objects,
                0.0f64..1000.0,
                0.0f64..1000.0,
                -2.0f64..2.0,
                -2.0f64..2.0,
                0.1f64..5.0,
            )
                .prop_map(|(oid, x, y, vx, vy, dt)| Op::Update { oid, x, y, vx, vy, dt }),
            1 => Just(Op::Cluster),
        ]
    }

    /// Every version of every cell of the three tables, in key order.
    fn full_scans(tables: &MoistTables) -> Vec<Vec<OwnedRow>> {
        [&tables.location, &tables.spatial, &tables.affiliation]
            .iter()
            .map(|t| {
                t.scan(&ScanRange::all(), &ReadOptions::default(), None)
                    .unwrap()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The oracle for the batch path: one stream applied message by message
        /// through `MoistServer::update` and, cut into batches of 1–64, through
        /// `MoistServer::update_batch` must report the same outcomes, count the
        /// same `ServerStats` and leave byte-equal tables. Ten objects over a
        /// few hundred messages repeat OIDs inside most batches; four
        /// clustering cells and one velocity bin make every sweep merge, and
        /// ε = 250 then has about a quarter of the followers' reports shed and
        /// the rest depart, beside leaders updating in the same batch.
        #[test]
        fn batched_stream_leaves_the_store_the_one_by_one_stream_leaves(
            ops in prop::collection::vec(op_strategy(10), 1..300),
            cuts in prop::collection::vec(1usize..65, 1..40),
        ) {
            let cfg = MoistConfig {
                epsilon: 250.0,
                delta_m: 8.0,
                clustering_level: 1,
                ..MoistConfig::default()
            };
            let (store_a, store_b) = (Bigtable::new(), Bigtable::new());
            let mut one_by_one = MoistServer::new(&store_a, cfg).unwrap();
            let mut batched = MoistServer::new(&store_b, cfg).unwrap();
            let mut free_a = store_a.session_with(CostProfile::free());
            let mut free_b = store_b.session_with(CostProfile::free());
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            let mut pending: Vec<UpdateMessage> = Vec::new();
            let mut cuts = cuts.iter().cycle();
            let mut cut = *cuts.next().unwrap();
            let mut now = 0.0;
            for op in &ops {
                match op {
                    Op::Update { oid, x, y, vx, vy, dt } => {
                        now += dt;
                        let msg = UpdateMessage {
                            oid: ObjectId(*oid),
                            loc: Point::new(*x, *y),
                            vel: Velocity::new(*vx, *vy),
                            ts: Timestamp::from_secs_f64(now),
                        };
                        out_a.push(one_by_one.update(&msg).unwrap());
                        pending.push(msg);
                        if pending.len() == cut {
                            out_b.extend(batched.update_batch(&pending).unwrap());
                            pending.clear();
                            cut = *cuts.next().unwrap();
                        }
                    }
                    Op::Cluster => {
                        out_b.extend(batched.update_batch(&pending).unwrap());
                        pending.clear();
                        now += 1.0;
                        let at = Timestamp::from_secs_f64(now);
                        crate::cluster::cluster_sweep(&mut free_a, &one_by_one.tables, &cfg, at).unwrap();
                        crate::cluster::cluster_sweep(&mut free_b, &batched.tables, &cfg, at).unwrap();
                    }
                }
            }
            out_b.extend(batched.update_batch(&pending).unwrap());
            prop_assert_eq!(&out_a, &out_b);
            prop_assert_eq!(one_by_one.stats(), batched.stats());
            prop_assert_eq!(full_scans(&one_by_one.tables), full_scans(&batched.tables));
        }
    }
}
