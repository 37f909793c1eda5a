//! A shared pool of query worker threads for scatter-gather fan-out.
//!
//! `moist_workload::ClientPool` spawns scoped OS threads per call — fine
//! for driving a bench, far too heavy to pay on every query. A
//! [`QueryPool`] keeps a fixed set of workers alive for the lifetime of a
//! [`crate::cluster_tier::MoistCluster`] and lets any caller [`scatter`] a
//! batch of closures across them: each shard's slice of a scattered
//! region query runs on a pooled worker, so the per-shard store scans
//! overlap on real OS threads exactly like the paper's parallel BigTable
//! range reads (§3.2.1).
//!
//! Multiple queries may scatter concurrently; their tasks interleave over
//! the same workers and a region slice takes no writer lock, so the pool
//! introduces no lock-ordering cycles. A panicking task is caught on
//! the worker (keeping the pool alive) and re-raised on the caller.
//!
//! [`scatter`]: QueryPool::scatter

use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing scattered query tasks.
pub struct QueryPool {
    /// Job sender; `None` only during drop (closing it stops the workers).
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryPool {
    /// Spawns a pool of `threads` workers (at least one).
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("moist-query-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn query worker")
            })
            .collect();
        QueryPool {
            tx: Some(tx),
            workers,
        }
    }

    /// A pool sized to the machine (one worker per available core, capped
    /// at 16 — scattered slices beyond that queue and still complete).
    pub fn sized_for_host() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        QueryPool::new(cores.clamp(2, 16))
    }

    /// Runs every task on the pool and returns their results in task
    /// order, blocking until all complete. A single task runs inline on
    /// the caller (no reason to pay a thread hop). If any task panicked,
    /// the panic is re-raised here after the rest have finished.
    pub fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if tasks.len() <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let n = tasks.len();
        let (result_tx, result_rx) = channel();
        let tx = self.tx.as_ref().expect("pool is alive");
        for (i, task) in tasks.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            tx.send(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(task));
                let _ = result_tx.send((i, out));
            }))
            .expect("workers are alive");
        }
        drop(result_tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut panicked = None;
        for _ in 0..n {
            let (i, out) = result_rx.recv().expect("worker delivered a result");
            match out {
                Ok(v) => slots[i] = Some(v),
                Err(p) => panicked = Some(p),
            }
        }
        if let Some(p) = panicked {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task completed"))
            .collect()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only while dequeuing: jobs themselves run
        // unlocked, so workers execute in parallel.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // pool dropped its sender: shut down
        };
        job();
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        self.tx.take(); // closes the channel; workers drain and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_returns_results_in_task_order() {
        let pool = QueryPool::new(4);
        assert_eq!(pool.workers.len(), 4);
        let tasks: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        assert_eq!(
            pool.scatter(tasks),
            (0..32).map(|i| i * 10).collect::<Vec<_>>()
        );
        // Single task runs inline and still returns.
        assert_eq!(pool.scatter(vec![|| 7]), vec![7]);
        assert_eq!(pool.scatter(Vec::<fn() -> i32>::new()), Vec::<i32>::new());
    }

    #[test]
    fn tasks_overlap_across_workers() {
        let pool = QueryPool::new(4);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.scatter(tasks);
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "4 sleeping tasks on 4 workers must overlap"
        );
    }

    #[test]
    fn a_panicking_task_propagates_without_killing_the_pool() {
        let pool = QueryPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(vec![
                Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
                Box::new(|| panic!("task exploded")),
            ]);
        }));
        assert!(caught.is_err(), "the task panic must surface");
        // The pool survives and keeps serving.
        let tasks: Vec<_> = (0..8).map(|i| move || i).collect();
        assert_eq!(pool.scatter(tasks), (0..8).collect::<Vec<_>>());
    }
}
