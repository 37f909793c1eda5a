//! Per-shard bounded ingestion queues: the buffering half of the
//! pipelined update path (the batched apply half lives in
//! `update::apply_update_batch`).
//!
//! The shape follows the log-shipper sink architecture: clients
//! [`submit`] instead of calling the tier synchronously, submissions
//! buffer in a bounded queue per shard (routed by the same membership
//! snapshot the synchronous path uses), and a queue flushes as one
//! batched apply when it reaches [`IngestConfig::batch_size`] *or* when
//! its oldest message is older than the flush deadline (1 s of virtual
//! time) — whichever comes first.
//!
//! The bound is on **outstanding** messages — buffered plus taken into a
//! batch that has not finished applying — so `queue_cap / batch_size` is
//! the per-shard in-flight batch limit: when concurrent submitters
//! outrun a shard's apply rate, batches pile up waiting on its lock and
//! the cap trips. A full queue is **explicit backpressure**: the
//! submission is refused with a typed
//! [`MoistError::Backpressure`](crate::MoistError::Backpressure) and the
//! client owns the retry; it is never dropped or silently queued
//! unbounded.
//!
//! Everything here runs on *virtual* time — deadlines compare message
//! report timestamps, flushes are driven by the callers' ticks
//! ([`MoistCluster::flush_due`]), and there are no background threads —
//! so the pipeline inherits the cost model's determinism.
//!
//! [`submit`]: crate::MoistCluster::submit
//! [`MoistCluster::flush_due`]: crate::MoistCluster::flush_due

use crate::update::UpdateMessage;
use moist_bigtable::Timestamp;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Virtual seconds a queue's **oldest** buffered message may wait before
/// the next [`flush_due`](crate::MoistCluster::flush_due) tick flushes the
/// queue, so a trickle of updates is never stranded waiting for a full
/// batch.
pub(crate) const FLUSH_DEADLINE_SECS: f64 = 1.0;

/// Knobs of the per-shard ingestion pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Flush a shard's queue as soon as it holds this many messages.
    pub batch_size: usize,
    /// Hard bound on a shard's **outstanding** messages (buffered plus in
    /// batches still applying). Submissions that would exceed it are
    /// refused with [`MoistError::Backpressure`](crate::MoistError::Backpressure);
    /// `queue_cap / batch_size` is the effective in-flight batch limit per
    /// shard.
    pub queue_cap: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            batch_size: 64,
            queue_cap: 1024,
        }
    }
}

impl IngestConfig {
    /// Sanity-clamps degenerate values (zero sizes) to workable minima.
    pub(crate) fn normalized(mut self) -> Self {
        self.batch_size = self.batch_size.max(1);
        self.queue_cap = self.queue_cap.max(self.batch_size);
        self
    }
}

/// What [`submit`](crate::MoistCluster::submit) did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Buffered; `depth` is the shard's outstanding count afterwards.
    Enqueued {
        /// Stable id of the shard the message routed to.
        shard: u64,
        /// Outstanding messages (buffered + applying) after the enqueue.
        depth: usize,
    },
    /// The enqueue filled the batch and this call flushed it inline:
    /// `batch` messages (this one included) were applied.
    Flushed {
        /// Stable id of the shard the message routed to.
        shard: u64,
        /// Number of messages in the flushed batch.
        batch: usize,
    },
}

/// Point-in-time ingestion pipeline counters, embedded in
/// [`ClusterStats`](crate::ClusterStats).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IngestStats {
    /// Messages offered to [`submit`](crate::MoistCluster::submit).
    pub submitted: u64,
    /// Messages accepted into a queue (includes ones later flushed).
    pub enqueued: u64,
    /// Submissions refused with a typed `Backpressure` error.
    pub backpressure: u64,
    /// Always 0: a full queue refuses, it never drops. Kept only because
    /// the wall-clock harness in `benchmark/` still reads it.
    pub overload_shed: u64,
    /// Batches flushed (size + deadline + drain).
    pub batches: u64,
    /// Messages applied through flushed batches.
    pub flushed_updates: u64,
    /// Batches flushed because the queue hit `batch_size`.
    pub size_flushes: u64,
    /// Batches flushed because the oldest message aged past the deadline.
    pub deadline_flushes: u64,
    /// Batches flushed by an explicit drain (membership changes, client
    /// end-of-stream).
    pub drain_flushes: u64,
    /// Largest single flushed batch.
    pub max_batch: u64,
    /// Total virtual µs flushed messages spent buffered (flush time −
    /// report time, summed; divide by `flushed_updates` for the mean).
    pub queue_wait_us: u64,
    /// Messages currently outstanding (buffered or in an applying batch)
    /// across all queues (gauge).
    pub queued: u64,
}

impl IngestStats {
    /// Mean flushed-batch size (0 when nothing flushed).
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.flushed_updates as f64 / self.batches as f64
        }
    }

    /// Mean virtual µs a flushed message waited in its queue.
    pub fn avg_queue_wait_us(&self) -> f64 {
        if self.flushed_updates == 0 {
            0.0
        } else {
            self.queue_wait_us as f64 / self.flushed_updates as f64
        }
    }
}

/// Why a batch left its queue (flush-trigger accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushKind {
    Size,
    Deadline,
    Drain,
}

/// What one enqueue attempt did (the cluster translates this into a
/// [`SubmitOutcome`] or a typed backpressure error).
#[derive(Debug)]
pub(crate) enum EnqueueResult {
    /// Buffered below the batch threshold; `depth` is the outstanding
    /// count after the enqueue.
    Queued { depth: usize },
    /// The enqueue completed a batch: apply it, then call
    /// [`IngestQueues::note_flush`] with [`FlushKind::Size`] (which
    /// releases the batch's outstanding slots).
    Batch(Vec<UpdateMessage>),
    /// Queue full — nothing was buffered; `depth` is the outstanding
    /// count that tripped the cap.
    Full { depth: usize },
}

/// One shard's queue: the buffered messages plus the outstanding count
/// the cap is enforced against. `outstanding` ≥ `buf.len()` — the excess
/// is messages taken into batches that have not finished applying.
#[derive(Default)]
struct ShardQueue {
    buf: Mutex<Vec<UpdateMessage>>,
    outstanding: AtomicUsize,
}

/// The per-shard bounded queues plus their counters. Queues are keyed by
/// *stable shard id*; the key is advisory (flushes re-route every message
/// by the then-current membership), so keys going stale across epochs is
/// harmless.
#[derive(Default)]
pub(crate) struct IngestQueues {
    queues: RwLock<HashMap<u64, Arc<ShardQueue>>>,
    submitted: AtomicU64,
    backpressure: AtomicU64,
    batches: AtomicU64,
    flushed_updates: AtomicU64,
    size_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    drain_flushes: AtomicU64,
    max_batch: AtomicU64,
    queue_wait_us: AtomicU64,
}

impl IngestQueues {
    fn queue(&self, shard: u64) -> Arc<ShardQueue> {
        if let Some(q) = self.queues.read().get(&shard) {
            return Arc::clone(q);
        }
        Arc::clone(self.queues.write().entry(shard).or_default())
    }

    /// Buffers `msg` in `shard`'s queue, enforcing the cap and the batch
    /// threshold. Counter updates for the outcome happen here; flush
    /// counters (and the release of a batch's outstanding slots) are
    /// deferred to [`note_flush`](Self::note_flush), so an in-flight
    /// batch still counts against the cap while it applies.
    pub(crate) fn enqueue(
        &self,
        cfg: &IngestConfig,
        shard: u64,
        msg: &UpdateMessage,
    ) -> EnqueueResult {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let queue = self.queue(shard);
        let mut buf = queue.buf.lock();
        let depth = queue.outstanding.load(Ordering::Relaxed);
        if depth >= cfg.queue_cap {
            drop(buf);
            self.backpressure.fetch_add(1, Ordering::Relaxed);
            return EnqueueResult::Full { depth };
        }
        queue.outstanding.fetch_add(1, Ordering::Relaxed);
        buf.push(*msg);
        if buf.len() >= cfg.batch_size {
            EnqueueResult::Batch(std::mem::take(&mut *buf))
        } else {
            EnqueueResult::Queued { depth: depth + 1 }
        }
    }

    /// Takes every queue whose oldest buffered message is at least
    /// [`FLUSH_DEADLINE_SECS`] old at `now`. Returns `(shard, batch)` pairs;
    /// the caller applies each and calls [`note_flush`](Self::note_flush).
    pub(crate) fn take_due(&self, now: Timestamp) -> Vec<(u64, Vec<UpdateMessage>)> {
        let deadline_us = (FLUSH_DEADLINE_SECS * 1e6) as u64;
        let queues: Vec<(u64, Arc<ShardQueue>)> = self
            .queues
            .read()
            .iter()
            .map(|(&shard, q)| (shard, Arc::clone(q)))
            .collect();
        let mut out = Vec::new();
        for (shard, queue) in queues {
            let mut buf = queue.buf.lock();
            let due = buf
                .iter()
                .map(|m| m.ts.0)
                .min()
                .is_some_and(|oldest| oldest.saturating_add(deadline_us) <= now.0);
            if due {
                out.push((shard, std::mem::take(&mut *buf)));
            }
        }
        out
    }

    /// Takes everything buffered, empty queues skipped (drains).
    pub(crate) fn take_all(&self) -> Vec<(u64, Vec<UpdateMessage>)> {
        let queues: Vec<(u64, Arc<ShardQueue>)> = self
            .queues
            .read()
            .iter()
            .map(|(&shard, q)| (shard, Arc::clone(q)))
            .collect();
        queues
            .into_iter()
            .filter_map(|(shard, queue)| {
                let mut buf = queue.buf.lock();
                if buf.is_empty() {
                    None
                } else {
                    Some((shard, std::mem::take(&mut *buf)))
                }
            })
            .collect()
    }

    /// Records one applied flush and releases the batch's outstanding
    /// slots on `shard`: trigger kind, batch size, and the virtual queue
    /// wait of every message in it (flush time − report time). `flush_ts`
    /// is the batch's newest message timestamp for size/drain flushes and
    /// the driving tick's `now` for deadline flushes. Must be called
    /// exactly once per taken batch — a batch whose apply errored keeps
    /// its slots, deliberately: a store error is fatal to the tier, and
    /// wedging the queue beats silently un-counting lost messages.
    pub(crate) fn note_flush(
        &self,
        kind: FlushKind,
        shard: u64,
        batch: &[UpdateMessage],
        flush_ts: Timestamp,
    ) {
        self.queue(shard)
            .outstanding
            .fetch_sub(batch.len(), Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.flushed_updates
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        match kind {
            FlushKind::Size => self.size_flushes.fetch_add(1, Ordering::Relaxed),
            FlushKind::Deadline => self.deadline_flushes.fetch_add(1, Ordering::Relaxed),
            FlushKind::Drain => self.drain_flushes.fetch_add(1, Ordering::Relaxed),
        };
        self.max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        let wait: u64 = batch
            .iter()
            .map(|m| flush_ts.0.saturating_sub(m.ts.0))
            .sum();
        self.queue_wait_us.fetch_add(wait, Ordering::Relaxed);
    }

    /// Current outstanding count of `shard`'s queue (0 when it has none).
    pub(crate) fn depth(&self, shard: u64) -> usize {
        self.queues
            .read()
            .get(&shard)
            .map_or(0, |q| q.outstanding.load(Ordering::Relaxed))
    }

    /// Counter snapshot, including the live outstanding gauge.
    pub(crate) fn stats(&self) -> IngestStats {
        let queued: u64 = self
            .queues
            .read()
            .values()
            .map(|q| q.outstanding.load(Ordering::Relaxed) as u64)
            .sum();
        let flushed_updates = self.flushed_updates.load(Ordering::Relaxed);
        IngestStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            // Every accepted message is flushed or still outstanding.
            enqueued: flushed_updates + queued,
            backpressure: self.backpressure.load(Ordering::Relaxed),
            overload_shed: 0,
            batches: self.batches.load(Ordering::Relaxed),
            flushed_updates,
            size_flushes: self.size_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            drain_flushes: self.drain_flushes.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_wait_us: self.queue_wait_us.load(Ordering::Relaxed),
            queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;
    use moist_spatial::{Point, Velocity};

    fn msg(oid: u64, secs: u64) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(100.0, 100.0),
            vel: Velocity::ZERO,
            ts: Timestamp::from_secs(secs),
        }
    }

    #[test]
    fn enqueue_batches_on_size_and_caps_on_outstanding() {
        let q = IngestQueues::default();
        let cfg = IngestConfig {
            batch_size: 3,
            queue_cap: 4,
        }
        .normalized();
        assert!(matches!(
            q.enqueue(&cfg, 0, &msg(1, 0)),
            EnqueueResult::Queued { depth: 1 }
        ));
        assert!(matches!(
            q.enqueue(&cfg, 0, &msg(2, 1)),
            EnqueueResult::Queued { depth: 2 }
        ));
        let batch = match q.enqueue(&cfg, 0, &msg(3, 2)) {
            EnqueueResult::Batch(b) => b,
            _ => panic!("hitting batch_size must hand the batch out"),
        };
        assert_eq!(batch.len(), 3);
        // The taken batch is still applying: its 3 slots count against
        // the cap. One more enqueue fits (4/4)...
        assert!(matches!(
            q.enqueue(&cfg, 0, &msg(4, 3)),
            EnqueueResult::Queued { depth: 4 }
        ));
        // ...and the next trips backpressure.
        assert!(matches!(
            q.enqueue(&cfg, 0, &msg(5, 3)),
            EnqueueResult::Full { depth: 4 }
        ));
        assert_eq!(q.depth(0), 4);
        // Applying the batch releases its slots; submissions flow again.
        q.note_flush(FlushKind::Size, 0, &batch, batch.last().unwrap().ts);
        assert_eq!(q.depth(0), 1);
        assert!(matches!(
            q.enqueue(&cfg, 0, &msg(5, 4)),
            EnqueueResult::Queued { depth: 2 }
        ));
        let s = q.stats();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.backpressure, 1);
        assert_eq!(s.enqueued, 5, "3 flushed + 2 still buffered");
        assert_eq!(s.size_flushes, 1);
        assert_eq!(s.flushed_updates, 3);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.avg_batch(), 3.0);
        assert_eq!(s.queued, 2);
        assert_eq!(q.depth(7), 0, "unknown shard has an empty queue");
    }

    #[test]
    fn deadline_takes_only_aged_queues_and_drain_takes_all() {
        let q = IngestQueues::default();
        let cfg = IngestConfig {
            batch_size: 100,
            ..IngestConfig::default()
        }
        .normalized();
        q.enqueue(&cfg, 0, &msg(1, 0)); // oldest at t=0
        q.enqueue(&cfg, 0, &msg(2, 9));
        q.enqueue(&cfg, 1, &msg(3, 9)); // young queue
                                        // Inside the deadline even the oldest message waits.
        let early = Timestamp::from_secs_f64(FLUSH_DEADLINE_SECS / 2.0);
        assert!(q.take_due(early).is_empty(), "nothing has aged yet");
        let due = q.take_due(Timestamp::from_secs(6));
        assert_eq!(due.len(), 1, "only the aged queue flushes");
        let (shard, batch) = &due[0];
        assert_eq!((*shard, batch.len()), (0, 2));
        q.note_flush(FlushKind::Deadline, *shard, batch, Timestamp::from_secs(6));
        // Queue-wait accounting: (6-0)s + (6-9 → saturates to 0)s.
        assert_eq!(q.stats().queue_wait_us, 6_000_000);
        assert_eq!(q.stats().deadline_flushes, 1);
        assert_eq!(q.depth(0), 0);
        // The emptied queue is not taken again, the young one still waits.
        assert!(q.take_due(Timestamp::from_secs(6)).is_empty());
        let rest = q.take_all();
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].0, rest[0].1.len()), (1, 1));
        q.note_flush(FlushKind::Drain, 1, &rest[0].1, rest[0].1[0].ts);
        let s = q.stats();
        assert_eq!(s.queued, 0);
        assert_eq!(s.drain_flushes, 1);
        assert_eq!(s.enqueued, 3);
    }

    #[test]
    fn normalized_clamps_degenerate_sizes() {
        let cfg = IngestConfig {
            batch_size: 0,
            queue_cap: 0,
        }
        .normalized();
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.queue_cap, 1);
    }
}
