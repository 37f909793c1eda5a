//! The read path: replica-anchored point reads (`nn`, `position`), the
//! archiver's object history, and the scatter-gather region fan-out.
//! Every query here runs on its shard's `FrontEnd` and takes no writer
//! lock (see the [module docs](super)).

use super::membership::{Membership, ShardEntry};
use super::MoistCluster;
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use crate::nn::{Neighbor, NnOptions, NnStats};
use crate::placement::slice_ranges;
use crate::region::{balance_slices, merge_region_partials, plan_region_ranges, RegionStats};
use crate::server::check_finite;
use moist_archive::{HistoryRecord, QueryCost};
use moist_bigtable::Timestamp;
use moist_spatial::{Point, Rect};
use std::cell::OnceCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl MoistCluster {
    /// The shard that serves a point read of the routing key `key_of`
    /// picks from the current snapshot: the key's least-loaded live
    /// replica ([`Membership::read_replica`]), with a follower serve
    /// counted once, on the shard and tier-wide.
    fn read_anchor(&self, key_of: impl FnOnce(&Membership) -> u64) -> Arc<ShardEntry> {
        let snap = self.snapshot();
        let (entry, follower) = snap.read_replica(key_of(&snap));
        if follower {
            entry.replica_reads.fetch_add(1, Ordering::Relaxed);
            self.replica_reads.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(entry)
    }

    /// FLAG-tuned k-nearest-neighbour query:
    /// [`nn_with_options`](MoistCluster::nn_with_options) with
    /// [`NnOptions::new`]`(k)`.
    pub fn nn(&self, center: Point, k: usize, at: Timestamp) -> Result<(Vec<Neighbor>, NnStats)> {
        self.nn_with_options(center, at, &NnOptions::new(k))
    }

    /// k-nearest-neighbour query shaped by `opts`: FLAG's level or a
    /// fixed one, a search-range limit, a predictive horizon, leaders
    /// only. The level choice and Algorithm 2 run whole, on one session,
    /// on the least-loaded replica of the query point's routing key. Any
    /// shard answers exactly from the shared store, and the search is a
    /// bounded frontier walk that stops when the k-th distance closes —
    /// there is nothing to scatter.
    pub fn nn_with_options(
        &self,
        center: Point,
        at: Timestamp,
        opts: &NnOptions,
    ) -> Result<(Vec<Neighbor>, NnStats)> {
        let entry = self.read_anchor(|snap| snap.route_point(&center, &self.cfg));
        entry.server.nn_with_options(center, at, opts)
    }

    /// Current position of one object, routed by object id (any replica
    /// of the id's routing key serves it from the shared store).
    pub fn position(&self, oid: ObjectId, at: Timestamp) -> Result<Option<Point>> {
        self.read_anchor(|_| oid.0).server.position(oid, at)
    }

    /// One object's history from the tier's archiver (memory and disks).
    /// Fails with [`MoistError::Config`] when the tier was built without
    /// one ([`ClusterBuilder::archiver`](super::ClusterBuilder::archiver)),
    /// and with [`MoistError::Archive`] when the archive lost a page of
    /// the object's disk or cannot read one back.
    pub fn history(
        &self,
        oid: ObjectId,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<(Vec<HistoryRecord>, QueryCost)> {
        let archiver = self.archiver.as_ref().ok_or_else(|| {
            MoistError::Config("history needs a tier built with an archiver".into())
        })?;
        Ok(archiver.query_object(oid.0, from.0, to.0)?)
    }

    /// Region query, scatter-gathered across the owning shards.
    ///
    /// The merged leaf ranges are planned once, sliced by reader (an exact
    /// partition — see [`slice_ranges`]; each routing key's piece goes to
    /// its least-loaded replica, i.e. its owner at `replicas == 1`),
    /// scanned in parallel on the [`QueryPool`](crate::QueryPool) (one
    /// slice per shard), and merged: hits
    /// move into one list and each object dedups exactly once at the
    /// merge. `cost_us` in the returned stats is the client-visible latency
    /// of the fan-out: the slices overlap, so the query costs its *slowest*
    /// partial. `shards_scattered` counts the shards that scanned. The
    /// whole query routes on one membership snapshot: a slice whose cells
    /// migrate mid-scatter is read where it was sent, which is as correct
    /// as anywhere (one shared store).
    pub fn region(
        &self,
        rect: &Rect,
        at: Timestamp,
        margin: f64,
    ) -> Result<(Vec<Neighbor>, RegionStats)> {
        check_finite(&[rect.min_x, rect.min_y, rect.max_x, rect.max_y, margin])?;
        let clustering_level = self.cfg.clustering_level;
        let leaf_level = self.cfg.space.leaf_level;
        let ranges = plan_region_ranges(&self.cfg, rect, margin);
        let snap = self.snapshot();
        // One elapsed snapshot per shard, taken only if a replica set
        // actually has a choice to make: a query-heavy mix then spreads a
        // hot key's scans over its followers instead of pinning the
        // primary.
        let loads: OnceCell<Vec<f64>> = OnceCell::new();
        let load_of = |pos: usize| {
            loads.get_or_init(|| {
                let elapsed = |e: &Arc<ShardEntry>| e.server.elapsed_us();
                snap.shards.iter().map(elapsed).collect()
            })[pos]
        };
        let slices = slice_ranges(&ranges, clustering_level, leaf_level, &snap.splits, |key| {
            snap.placement[snap.reader_of(key, load_of).0].id
        });
        // Balancing pass: the largest owner slices subdivide across
        // idle shards (any shard can scan any range), priced by the
        // load layer's per-cell demand density so a short-but-hot range
        // counts as expensive. The client then waits for the *mean*-ish
        // slice, not the largest ownership share. The density is
        // capped: schooling collapses a hot cell's objects into few
        // leader rows, so update rate overstates scan cost — an uncapped
        // density would make the balancer dedicate shards to
        // cheap-to-scan hot cells and cram the real rows together
        // elsewhere.
        let density = self.cell_density.read().clone();
        let shift = 2 * (leaf_level - clustering_level) as u64;
        let cost_of = move |start: u64, end: u64| -> f64 {
            let mut cost = 0.0;
            let mut s = start;
            while s < end {
                let cell = s >> shift;
                let e = end.min((cell + 1) << shift);
                let frac = (e - s) as f64 / (1u64 << shift) as f64;
                let d = density.get(&cell).copied().unwrap_or(0.0);
                cost += frac * (1.0 + d.min(crate::region::MAX_SCAN_DENSITY));
                s = e;
            }
            cost
        };
        // Scan capacity is uniform — any shard reads the shared store
        // equally fast — so every live shard takes an equal share.
        // Placement weights only shape *ownership* (update locality): a
        // shard up-weighted because it was idle on updates may own half
        // the map, and its slice is exactly what this pass subdivides.
        let slices = balance_slices(slices, &snap.ids(), &cost_of);
        let rect = *rect;
        let tasks: Vec<_> = slices
            .into_iter()
            .map(|(id, ranges)| {
                let entry = snap.shards.iter().find(|e| e.id == id);
                let entry = Arc::clone(entry.expect("sliced to a live shard"));
                move || entry.server.region_partial(&ranges, &rect, at)
            })
            .collect();
        let parts: Result<Vec<_>> = self.query_pool.scatter(tasks).into_iter().collect();
        Ok(merge_region_partials(parts?))
    }
}
