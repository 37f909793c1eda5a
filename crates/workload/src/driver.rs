//! Multi-client load driving and QPS measurement.
//!
//! The paper's load tests run "up to 20,000 virtual machines, each running
//! 50 threads" against 1–10 front-end servers (§4.1). Here a
//! [`ClientPool`] drives any per-thread worker over OS threads (real lock
//! contention on the shared store), and [`QpsTimeline`] aggregates
//! virtual-time throughput into the per-second series Figure 13(b,c) plots.

use serde::Serialize;

/// Runs one worker closure per thread and collects their outputs.
///
/// Workers receive their thread index. Panics in workers propagate.
pub struct ClientPool;

impl ClientPool {
    /// Spawns `threads` scoped workers and returns their results in thread
    /// order.
    pub fn run<T, F>(threads: usize, worker: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let worker = &worker;
                    scope.spawn(move || worker(i))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }
}

/// One measured point of a throughput timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QpsSample {
    /// Second index on the timeline.
    pub second: u64,
    /// Completed queries in that second.
    pub qps: f64,
    /// Queries that failed / were rejected in that second.
    pub failed: f64,
}

/// A per-second throughput series with the paper's summary statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QpsTimeline {
    /// Samples in time order.
    pub samples: Vec<QpsSample>,
}

impl QpsTimeline {
    /// Builds a timeline by bucketing (time, ok) completion events into
    /// whole seconds.
    pub fn from_events(events: impl IntoIterator<Item = (f64, bool)>) -> Self {
        use std::collections::BTreeMap;
        let mut ok: BTreeMap<u64, u64> = BTreeMap::new();
        let mut bad: BTreeMap<u64, u64> = BTreeMap::new();
        for (t, success) in events {
            let sec = t.max(0.0) as u64;
            *(if success { &mut ok } else { &mut bad })
                .entry(sec)
                .or_default() += 1;
        }
        let last = ok.keys().chain(bad.keys()).copied().max().unwrap_or(0);
        let samples = (0..=last)
            .map(|second| QpsSample {
                second,
                qps: *ok.get(&second).unwrap_or(&0) as f64,
                failed: *bad.get(&second).unwrap_or(&0) as f64,
            })
            .collect();
        QpsTimeline { samples }
    }

    /// Mean successful QPS over the whole run.
    pub fn average(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.qps).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak successful QPS.
    pub fn peak(&self) -> f64 {
        self.samples.iter().map(|s| s.qps).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pool_runs_all_workers_and_orders_results() {
        let counter = AtomicU64::new(0);
        let results = ClientPool::run(8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i * 10
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn timeline_buckets_and_summarises() {
        let events = vec![
            (0.1, true),
            (0.9, true),
            (1.5, true),
            (1.6, false),
            (3.2, true),
        ];
        let tl = QpsTimeline::from_events(events);
        assert_eq!(tl.samples.len(), 4);
        assert_eq!(tl.samples[0].qps, 2.0);
        assert_eq!(tl.samples[1].qps, 1.0);
        assert_eq!(tl.samples[1].failed, 1.0);
        assert_eq!(tl.samples[2].qps, 0.0);
        assert_eq!(tl.peak(), 2.0);
        assert!((tl.average() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_zeroed() {
        let tl = QpsTimeline::from_events(Vec::<(f64, bool)>::new());
        assert_eq!(tl.average(), 0.0);
        assert_eq!(tl.peak(), 0.0);
    }
}
