//! The read path: replica-anchored point reads (`nn`, `position`) and the
//! scatter-gather region fan-out. Every query here runs on its shard's
//! `reader`, beside the shard lock (see the [module docs](super)).

use super::membership::{Membership, ShardEntry};
use super::MoistCluster;
use crate::error::Result;
use crate::ids::ObjectId;
use crate::nn::{Neighbor, NnStats};
use crate::placement::slice_ranges;
use crate::region::{balance_slices, merge_region_partials, plan_region_ranges};
use crate::region::{RegionPartial, RegionStats};
use moist_bigtable::Timestamp;
use moist_spatial::{Point, Rect};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Scatter rounds after which a region query stops re-validating slice
/// ownership and scans wherever the last slicing routed them. Reads are
/// correct on any shard (the store is shared); the cap only bounds the
/// re-route loop under pathological non-stop churn.
const MAX_REROUTE_ROUNDS: usize = 4;

/// Cap on the relative demand density used to price scattered-region
/// slices: above this the update rate says "hot" but (thanks to
/// schooling) not "proportionally more rows to scan".
const MAX_SCAN_DENSITY: f64 = 3.0;

/// A set of merged `[start, end)` leaf-index ranges.
type RangeSet = Vec<(u64, u64)>;

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

    /// FLAG-tuned k-nearest-neighbour query: the FLAG probe and
    /// Algorithm 2 run whole, on one session, on the least-loaded replica
    /// of the query point's routing key. Any shard answers exactly from
    /// the shared store, and the search is a bounded frontier walk that
    /// stops when the k-th distance closes — there is nothing to scatter.
    pub fn nn(&self, center: Point, k: usize, at: Timestamp) -> Result<(Vec<Neighbor>, NnStats)> {
        let entry = self.read_anchor(|snap| snap.route_point(&center, &self.cfg));
        entry.reader.nn(center, k, at)
    }

    /// k-NN at a fixed search level, routed like [`MoistCluster::nn`].
    pub fn nn_at_level(
        &self,
        center: Point,
        k: usize,
        at: Timestamp,
        nn_level: u8,
    ) -> Result<(Vec<Neighbor>, NnStats)> {
        let entry = self.read_anchor(|snap| snap.route_point(&center, &self.cfg));
        entry.reader.nn_at_level(center, k, at, nn_level)
    }

    /// Current position of one object, routed by object id (any replica
    /// of the id's routing key serves it from the shared store).
    pub fn position(&self, oid: ObjectId, at: Timestamp) -> Result<Option<Point>> {
        self.read_anchor(|_| oid.0).reader.position(oid, at)
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
    /// of the fan-out: within a scatter round the slices overlap, so the
    /// round costs its *slowest* partial, and the (rare, churn-only)
    /// re-route rounds run back to back, so rounds *add*.
    /// `shards_scattered` counts distinct shards that scanned.
    ///
    /// Workers re-validate their slice against the freshest membership
    /// snapshot (re-slicing it with the same property-tested
    /// [`slice_ranges`] the dispatch used), so an epoch bump mid-scatter
    /// re-routes only the slices whose cells actually migrated; reads are
    /// correct on any shard (one shared store), the re-route just keeps
    /// load on the current owners.
    pub fn region(
        &self,
        rect: &Rect,
        at: Timestamp,
        margin: f64,
    ) -> Result<(Vec<Neighbor>, RegionStats)> {
        let clustering_level = self.cfg.clustering_level;
        let leaf_level = self.cfg.space.leaf_level;
        let mut pending = plan_region_ranges(&self.cfg, rect, margin);
        let mut parts: Vec<RegionPartial> = Vec::new();
        let mut scanned_shards: HashSet<u64> = HashSet::new();
        let mut cost_us = 0.0f64;
        let mut rebalanced = 0usize;
        let mut round = 0usize;
        while !pending.is_empty() {
            round += 1;
            let revalidate = round < MAX_REROUTE_ROUNDS;
            let snap = self.snapshot();
            // One elapsed snapshot per shard per round, taken only if a
            // replica set actually has a choice to make: a query-heavy mix
            // then spreads a hot key's scans over its followers instead of
            // pinning the primary.
            let loads: OnceCell<Vec<f64>> = OnceCell::new();
            let load_of = |pos: usize| {
                loads.get_or_init(|| {
                    let elapsed = |e: &Arc<ShardEntry>| e.reader.elapsed_us();
                    snap.shards.iter().map(elapsed).collect()
                })[pos]
            };
            let slices = slice_ranges(
                &pending,
                clustering_level,
                leaf_level,
                &snap.splits,
                |key| snap.placement[snap.reader_of(key, load_of).0].id,
            );
            // Balancing pass: the largest owner slices subdivide across
            // idle shards (any shard can scan any range), priced by the
            // load layer's per-cell demand so a short-but-hot range counts
            // as expensive. The client then waits for the *mean*-ish
            // slice, not the largest ownership share.
            let density = self.cell_density.read().clone();
            let scan_price = self.cell_scan_cost.read().clone();
            let shift = 2 * (leaf_level - clustering_level) as u64;
            let cost_of = move |start: u64, end: u64| -> f64 {
                let mut cost = 0.0;
                let mut s = start;
                while s < end {
                    let cell = s >> shift;
                    let e = end.min((cell + 1) << shift);
                    let frac = (e - s) as f64 / (1u64 << shift) as f64;
                    let price = match scan_price.get(&cell) {
                        // Measured beats modelled: cells the fan-out has
                        // scanned before price at their learned per-cell
                        // scan cost (merged across shards at rebalance),
                        // uncapped — a measurement needs no guard against
                        // overstating itself.
                        Some(&p) => p,
                        // Never-scanned cells fall back to the demand
                        // density *prior*, capped: schooling collapses a
                        // hot cell's objects into few leader rows, so
                        // update rate overstates scan cost — an uncapped
                        // density would make the balancer dedicate shards
                        // to cheap-to-scan hot cells and cram the real
                        // rows together elsewhere.
                        None => {
                            1.0 + density
                                .get(&cell)
                                .copied()
                                .unwrap_or(0.0)
                                .min(MAX_SCAN_DENSITY)
                        }
                    };
                    cost += frac * price;
                    s = e;
                }
                cost
            };
            // Scan capacity is uniform — any shard reads the shared store
            // equally fast — so the balancer gets unit shares. Placement
            // weights only shape *ownership* (update locality): a shard
            // up-weighted because it was idle on updates may own half the
            // map, and its slice is exactly what this pass subdivides.
            let shares: Vec<(u64, f64)> = snap.placement.iter().map(|w| (w.id, 1.0)).collect();
            let (slices, moved) = balance_slices(slices, &shares, &cost_of);
            rebalanced += moved;
            pending = Vec::new();
            let rect = *rect;
            let dispatch_epoch = snap.epoch;
            let tasks: Vec<_> = slices
                .into_iter()
                .map(|(id, ranges)| {
                    let entry = snap.shards.iter().find(|e| e.id == id);
                    let entry = Arc::clone(entry.expect("sliced to a live shard"));
                    let membership = Arc::clone(&self.membership);
                    move || -> Result<(u64, RegionPartial, RangeSet)> {
                        // Freshest snapshot. Same epoch — the common,
                        // churn-free case — means the dispatch slicing
                        // (including deliberate balancing moves) is still
                        // current: skip re-hashing.
                        let raced = revalidate
                            .then(|| membership.read().clone())
                            .filter(|now| now.epoch != dispatch_epoch);
                        let (mine, migrated) = match raced {
                            None => (ranges, Vec::new()),
                            // An epoch bump raced the scatter: re-slice
                            // with this worker's load pinned to zero, so
                            // any piece whose *current* replica set still
                            // contains this shard is kept (a replica read
                            // is as correct as a primary read); pieces it
                            // no longer replicates (balanced-in pieces
                            // included — the gather re-balances them) hand
                            // back. At `replicas == 1` the set is the
                            // owner alone, so this is the exact owner
                            // re-slicing.
                            Some(now) => {
                                let me = now.placement.iter().position(|m| m.id == entry.id);
                                let load_of = |pos| if Some(pos) == me { 0.0 } else { 1.0 };
                                let mut mine = Vec::new();
                                let mut migrated = Vec::new();
                                for (reader, slice) in slice_ranges(
                                    &ranges,
                                    clustering_level,
                                    leaf_level,
                                    &now.splits,
                                    |key| now.placement[now.reader_of(key, load_of).0].id,
                                ) {
                                    if reader == entry.id {
                                        mine = slice;
                                    } else {
                                        migrated.extend(slice);
                                    }
                                }
                                (mine, migrated)
                            }
                        };
                        if mine.is_empty() {
                            return Ok((entry.id, RegionPartial::default(), migrated));
                        }
                        let part = entry.reader.region_partial(&mine, &rect, at)?;
                        Ok((entry.id, part, migrated))
                    }
                })
                .collect();
            let mut round_cost = 0.0f64;
            for outcome in self.query_pool.scatter(tasks) {
                let (id, part, migrated) = outcome?;
                round_cost = round_cost.max(part.stats.cost_us);
                if part.stats.shards_scattered > 0 {
                    scanned_shards.insert(id);
                    parts.push(part);
                }
                pending.extend(migrated);
            }
            // Rounds run sequentially: the client waits for each round's
            // slowest slice in turn.
            cost_us += round_cost;
        }
        let (hits, mut stats) = merge_region_partials(parts);
        stats.cost_us = cost_us;
        stats.shards_scattered = scanned_shards.len();
        stats.slices_rebalanced = rebalanced;
        Ok((hits, stats))
    }
}
