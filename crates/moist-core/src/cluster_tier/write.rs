//! The write path: seqlock-validated synchronous updates, owner-grouped
//! batches, the pipelined submit/flush/drain tier, and checkpoints
//! (lock-ordering rules: see the [module docs](super)).

use super::membership::{Membership, ShardEntry};
use super::MoistCluster;
use crate::error::{MoistError, Result};
use crate::ingest::{BackpressurePolicy, EnqueueResult, FlushKind, SubmitOutcome};
use crate::server::MoistServer;
use crate::update::{UpdateMessage, UpdateOutcome};
use moist_bigtable::Timestamp;
use parking_lot::MutexGuard;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl MoistCluster {
    /// A quiescent (even) seqlock version and the snapshot to route
    /// under it; spins while a membership change is migrating cells.
    fn stable_snapshot(&self) -> (u64, Arc<Membership>) {
        loop {
            let version = self.version.load(Ordering::Acquire);
            if version % 2 == 1 {
                std::thread::yield_now();
                continue;
            }
            return (version, self.snapshot());
        }
    }

    /// Locks `entry` — routed as an owner under seqlock `version`
    /// — and validates the routing: `None` when a membership change ran
    /// (or is running) since, so the entry may no longer own the key and
    /// the caller must re-route on a fresh snapshot. This keeps the
    /// exclusivity invariant — a cell's updates and its clustering
    /// serialize on the *current* owner's lock — across epoch bumps:
    /// without it, an update routed on a pre-bump snapshot could mutate a
    /// migrated cell's school state on the old owner while the new owner
    /// is already clustering that cell.
    fn lock_owner<'a>(
        &self,
        entry: &'a ShardEntry,
        version: u64,
    ) -> Option<MutexGuard<'a, MoistServer>> {
        let server = entry.server.lock();
        (self.version.load(Ordering::Acquire) == version).then_some(server)
    }

    /// Applies one update on the shard owning the update's clustering
    /// cell, under the seqlock discipline: version read, routing, owner
    /// lock, version re-check, retry on a raced epoch bump. Read-only
    /// queries skip the validation deliberately (a stale-routed read still
    /// scans a consistent store).
    pub fn update(&self, msg: &UpdateMessage) -> Result<UpdateOutcome> {
        loop {
            // Routing key and owner come from the same snapshot, so the
            // split table consulted is the one this epoch's owners were
            // seeded from.
            let (version, snap) = self.stable_snapshot();
            let entry = Arc::clone(snap.owner_of(snap.route_point(&msg.loc, &self.cfg)));
            drop(snap);
            // Bound first so the guard drops before `entry`.
            let locked = self.lock_owner(&entry, version);
            if let Some(mut server) = locked {
                return server.update(msg);
            }
        }
    }

    /// Applies a batch of updates, each on the shard owning its
    /// clustering cell, amortizing lock acquisitions and store
    /// round-trips across each shard's group
    /// ([`MoistServer::update_batch`]).
    ///
    /// Routing holds the same seqlock discipline as
    /// [`update`](MoistCluster::update), per owner group: messages are
    /// grouped by the current snapshot's owners, and groups raced by an
    /// epoch bump return to the pending set and re-route on the new
    /// snapshot — so no message in the batch ever lands on a migrated
    /// cell's old owner. Outcomes come back in message order. On a store
    /// error the already-applied groups stay applied (store errors are
    /// fatal in this tier, never transient).
    pub(crate) fn update_batch(&self, msgs: &[UpdateMessage]) -> Result<Vec<UpdateOutcome>> {
        let mut out: Vec<Option<UpdateOutcome>> = vec![None; msgs.len()];
        let mut pending: Vec<usize> = (0..msgs.len()).collect();
        while !pending.is_empty() {
            let (version, snap) = self.stable_snapshot();
            // Group by owner in first-seen order: deterministic apply
            // order per submission order, so the virtual-time cost model
            // stays reproducible.
            let mut groups: Vec<(Arc<ShardEntry>, Vec<usize>)> = Vec::new();
            let mut slot_of: HashMap<u64, usize> = HashMap::new();
            for &i in &pending {
                let entry = snap.owner_of(snap.route_point(&msgs[i].loc, &self.cfg));
                let slot = *slot_of.entry(entry.id).or_insert_with(|| {
                    groups.push((Arc::clone(entry), Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push(i);
            }
            drop(snap);
            pending.clear();
            for (entry, idxs) in groups {
                let Some(mut server) = self.lock_owner(&entry, version) else {
                    pending.extend(idxs);
                    continue;
                };
                let batch: Vec<UpdateMessage> = idxs.iter().map(|&i| msgs[i]).collect();
                let outcomes = server.update_batch(&batch)?;
                drop(server);
                for (&i, o) in idxs.iter().zip(outcomes) {
                    out[i] = Some(o);
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every message applied by exactly one group"))
            .collect())
    }

    /// Submits one update to the ingestion pipeline instead of applying
    /// it synchronously.
    ///
    /// The message is routed by the current membership snapshot to its
    /// owner shard's bounded queue. An enqueue that fills the batch
    /// flushes it inline through
    /// `update_batch` (which re-routes
    /// under the seqlock, so queue-key staleness is harmless). A full
    /// queue surfaces per the configured [`BackpressurePolicy`]: a typed
    /// [`MoistError::Backpressure`] (nothing accepted — the client owns
    /// the retry) or an overload shed ([`SubmitOutcome::ShedOverload`],
    /// counted separately from school sheds). Malformed (non-finite)
    /// messages are rejected here, before buffering, so a later flush
    /// can never fail on a message that was already acknowledged.
    ///
    /// `Ok(Enqueued { .. }) | Ok(Flushed { .. })` is the pipeline's
    /// acknowledgement: the update **will** be applied — by a size or
    /// deadline flush, or by the drain every epoch bump and
    /// [`drain_ingest`](MoistCluster::drain_ingest) call performs.
    pub fn submit(&self, msg: &UpdateMessage) -> Result<SubmitOutcome> {
        msg.validate()?;
        let snap = self.snapshot();
        let shard = snap.owner_of(snap.route_point(&msg.loc, &self.cfg)).id;
        drop(snap);
        match self.ingest.enqueue(&self.ingest_cfg, shard, msg) {
            EnqueueResult::Queued { depth } => Ok(SubmitOutcome::Enqueued { shard, depth }),
            EnqueueResult::Batch(batch) => {
                let batch = self.apply_flush(FlushKind::Size, shard, &batch, None)?;
                Ok(SubmitOutcome::Flushed { shard, batch })
            }
            EnqueueResult::Full { depth } => match self.ingest_cfg.policy {
                BackpressurePolicy::Reject => Err(MoistError::Backpressure { shard, depth }),
                BackpressurePolicy::Shed => Ok(SubmitOutcome::ShedOverload { shard }),
            },
        }
    }

    /// Applies one batch taken from `shard`'s ingest queue and records the
    /// flush (which releases the batch's queue slots): the step
    /// [`submit`](MoistCluster::submit)'s size flush,
    /// [`flush_due`](MoistCluster::flush_due) and
    /// [`drain_ingest`](MoistCluster::drain_ingest) share. Queue waits are
    /// measured up to `at` — the driving tick for deadline flushes, the
    /// batch's newest message (`None`) otherwise. Returns the batch size.
    fn apply_flush(
        &self,
        kind: FlushKind,
        shard: u64,
        batch: &[UpdateMessage],
        at: Option<Timestamp>,
    ) -> Result<usize> {
        self.update_batch(batch)?;
        let at = at.unwrap_or_else(|| Timestamp(batch.iter().map(|m| m.ts.0).max().unwrap_or(0)));
        self.ingest.note_flush(kind, shard, batch, at);
        Ok(batch.len())
    }

    /// Flushes every ingest queue whose oldest buffered message has aged
    /// past the flush deadline at (virtual) `now` — the "or deadline"
    /// half of the flush trigger, driven by client ticks rather than a
    /// background thread so the cost model stays deterministic. Returns
    /// the number of updates applied.
    pub fn flush_due(&self, now: Timestamp) -> Result<usize> {
        let mut flushed = 0usize;
        for (shard, batch) in self.ingest.take_due(&self.ingest_cfg, now) {
            flushed += self.apply_flush(FlushKind::Deadline, shard, &batch, Some(now))?;
        }
        Ok(flushed)
    }

    /// Drains every ingest queue unconditionally, applying everything
    /// buffered. Called by every epoch bump right after its snapshot
    /// publishes and by clients at end-of-stream. Returns the number of
    /// updates applied.
    pub fn drain_ingest(&self) -> Result<usize> {
        let mut flushed = 0usize;
        for (shard, batch) in self.ingest.take_all() {
            flushed += self.apply_flush(FlushKind::Drain, shard, &batch, None)?;
        }
        Ok(flushed)
    }

    /// Durability checkpoint: drains the ingest pipeline so every
    /// buffered acknowledged update is applied (and therefore WAL-logged)
    /// **before** the store snapshots, then compacts every table —
    /// snapshot + log truncation. Returns `(updates drained, snapshot
    /// bytes written)`. On a non-durable store the compaction half is a
    /// no-op and `bytes` is 0.
    pub fn checkpoint(&self) -> Result<(usize, u64)> {
        let drained = self.drain_ingest()?;
        let bytes = self.store.compact_all()?;
        Ok((drained, bytes))
    }
}
