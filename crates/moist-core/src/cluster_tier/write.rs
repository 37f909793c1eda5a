//! The write path: synchronous updates and owner-grouped batches routed
//! under the membership read guard, the pipelined submit/flush/drain
//! tier, and checkpoints (lock-ordering rules: see the
//! [module docs](super)).

use super::membership::ShardEntry;
use super::MoistCluster;
use crate::error::{MoistError, Result};
use crate::ingest::{EnqueueResult, FlushKind, SubmitOutcome};
use crate::update::{UpdateMessage, UpdateOutcome};
use moist_bigtable::Timestamp;
use std::collections::HashMap;

impl MoistCluster {
    /// Applies one update on the shard owning the update's clustering
    /// cell. The membership read guard is held across routing, the
    /// owner's lock and the apply, so an epoch bump — which takes the
    /// write lock — waits out the update, and the update never lands on a
    /// migrated cell's old owner while the new owner clusters that cell.
    /// Read-only queries hold no guard (a stale-routed read still scans a
    /// consistent store).
    pub fn update(&self, msg: &UpdateMessage) -> Result<UpdateOutcome> {
        // Routing key and owner come from the same snapshot, so the
        // split table consulted is the one this epoch's owners were
        // seeded from.
        let snap = self.membership.read();
        let entry = snap.owner_of(snap.route_point(&msg.loc, &self.cfg));
        let mut server = entry.server.lock();
        server.update(msg)
    }

    /// Applies a batch of updates, each on the shard owning its
    /// clustering cell, amortizing lock acquisitions and store
    /// round-trips across each shard's group
    /// ([`MoistServer::update_batch`](crate::MoistServer::update_batch)).
    ///
    /// Messages are grouped by owner under one membership read guard,
    /// held until every group has applied — as
    /// [`update`](MoistCluster::update) holds it — so no message in the
    /// batch lands on a migrated cell's old owner. Outcomes come back in
    /// message order. On a store error the already-applied groups stay
    /// applied (store errors are fatal in this tier, never transient).
    pub(crate) fn update_batch(&self, msgs: &[UpdateMessage]) -> Result<Vec<UpdateOutcome>> {
        let snap = self.membership.read();
        // Group by owner in first-seen order: deterministic apply order
        // per submission order, so the virtual-time cost model stays
        // reproducible.
        let mut groups: Vec<(&ShardEntry, Vec<UpdateMessage>, Vec<usize>)> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for (i, msg) in msgs.iter().enumerate() {
            let entry = snap.owner_of(snap.route_point(&msg.loc, &self.cfg));
            let slot = *slot_of.entry(entry.id).or_insert_with(|| {
                groups.push((entry, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(*msg);
            groups[slot].2.push(i);
        }
        let mut out = vec![UpdateOutcome::Shed; msgs.len()];
        for (entry, batch, idxs) in groups {
            let outcomes = entry.server.lock().update_batch(&batch)?;
            for (i, o) in idxs.into_iter().zip(outcomes) {
                out[i] = o;
            }
        }
        Ok(out)
    }

    /// Submits one update to the ingestion pipeline instead of applying
    /// it synchronously.
    ///
    /// The message is routed by the current membership snapshot to its
    /// owner shard's bounded queue. An enqueue that fills the batch
    /// flushes it inline through
    /// `update_batch` (which re-routes every message under the
    /// membership read guard, so queue-key staleness is harmless). A full
    /// queue refuses the message with a typed
    /// [`MoistError::Backpressure`]: nothing is accepted, and the client
    /// owns the retry. Malformed (non-finite)
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
            EnqueueResult::Full { depth } => Err(MoistError::Backpressure { shard, depth }),
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
        for (shard, batch) in self.ingest.take_due(now) {
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
