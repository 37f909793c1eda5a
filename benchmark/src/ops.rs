//! Timed passes over one operation class, and the slices a window collects
//! them in. Every operation is timed by one `Instant` pair into a [`Hist`].

use crate::env::median;
use crate::hist::Hist;
use crate::spec::REGION_SIDE;
use crate::trace::Tracer;
use moist::spatial::{Point, Rect};
use std::time::Instant;

/// SplitMix64: the harness's own seeded generator for query inputs and
/// samples (the simulators carry their own).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The business centre `rush_hour`'s hot queries aim at.
pub const HOT_SPOT: Point = Point::new(500.0, 500.0);

/// `n` query centres uniform over the map; the share `hot` of them instead
/// falls within 50 units of [`HOT_SPOT`] (wide enough that how many
/// objects a seed happens to put there does not set the cost).
pub fn nn_centres(rng: &mut Rng, n: usize, hot: f64) -> Vec<Point> {
    (0..n)
        .map(|_| {
            if rng.unit() < hot {
                Point::new(
                    HOT_SPOT.x + 100.0 * (rng.unit() - 0.5),
                    HOT_SPOT.y + 100.0 * (rng.unit() - 0.5),
                )
            } else {
                Point::new(1000.0 * rng.unit(), 1000.0 * rng.unit())
            }
        })
        .collect()
}

/// `n` query rectangles of `REGION_SIDE`, wholly on the map.
pub fn region_rects(rng: &mut Rng, n: usize) -> Vec<Rect> {
    let span = 1000.0 - REGION_SIDE;
    (0..n)
        .map(|_| {
            let (x, y) = (span * rng.unit(), span * rng.unit());
            Rect::new(x, y, x + REGION_SIDE, y + REGION_SIDE)
        })
        .collect()
}

/// Operations per second: `ops` of them in `ns` nanoseconds.
pub fn rate(ops: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        ops as f64 * 1e9 / ns as f64
    }
}

/// What one timed pass measured.
#[derive(Default, Clone)]
pub struct Pass {
    pub hist: Hist,
    pub failed: u64,
    /// Wall time from the first operation's start to the last one's end.
    pub wall_ns: u64,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        self.hist.count()
    }

    pub fn per_s(&self) -> f64 {
        rate(self.ops(), self.wall_ns)
    }

    pub fn merge(&mut self, other: &Pass) {
        self.hist.merge(&other.hist);
        self.failed += other.failed;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
    }
}

/// One operation class measured in slices spread over the whole window.
/// The host's speed wanders by tens of percent for seconds at a time, so
/// every reported number is the median over slices, which a slow stretch
/// covering fewer than half of them does not move.
#[derive(Default)]
pub struct Sliced {
    slices: Vec<(Pass, f64)>,
}

impl Sliced {
    /// Adds a slice and the rate it ran at (empty slices are dropped).
    pub fn push(&mut self, pass: Pass, per_s: f64) {
        if pass.ops() > 0 {
            self.slices.push((pass, per_s));
        }
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|(p, _)| p.ops()).sum()
    }

    pub fn failed(&self) -> u64 {
        self.slices.iter().map(|(p, _)| p.failed).sum()
    }

    /// Each slice's rate and median latency (µs), in order, for the notes.
    pub fn by_slice(&self) -> Vec<(f64, f64)> {
        self.slices
            .iter()
            .map(|(p, r)| (*r, p.hist.quantile(0.5) / 1e3))
            .collect()
    }

    /// Median slice rate, operations per second.
    pub fn per_s(&self) -> f64 {
        median(&self.slices.iter().map(|(_, r)| *r).collect::<Vec<_>>())
    }

    /// All samples of all slices; with `trimmed`, of all but the two
    /// slices with the highest median latency (when more than four remain).
    fn merged(&self, trimmed: bool) -> Hist {
        let mut order: Vec<&Pass> = self.slices.iter().map(|(p, _)| p).collect();
        order.sort_by(|a, b| a.hist.quantile(0.5).total_cmp(&b.hist.quantile(0.5)));
        if trimmed && order.len() > 6 {
            order.truncate(order.len() - 2);
        }
        let mut all = Hist::new();
        for p in order {
            all.merge(&p.hist);
        }
        all
    }

    /// Whether [`Sliced::quantile`] has ten samples beyond the percentile.
    pub fn supports(&self, q: f64) -> bool {
        self.merged(true).supports(q)
    }

    /// The median over slices of each slice's percentile `q`, nanoseconds.
    /// Where a slice is too small to carry that percentile itself: the
    /// percentile over the samples of all slices but the two slowest, so
    /// that one slow stretch of the host does not become the tail.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.slices.iter().all(|(p, _)| p.hist.supports(q)) {
            let each: Vec<f64> = self
                .slices
                .iter()
                .map(|(p, _)| p.hist.quantile(q))
                .collect();
            median(&each)
        } else {
            self.merged(true).quantile(q)
        }
    }
}

/// Runs `query` over `inputs`, reusing them in order when they run out,
/// until the wall-clock time `until`; one span per query under `parent`
/// (operation ids count up from `first_op`).
pub fn query_pass<I: Copy, T, E>(
    inputs: &[I],
    until: Instant,
    tracer: &mut Tracer,
    parent: u32,
    name: &'static str,
    first_op: u64,
    mut query: impl FnMut(I) -> Result<T, E>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut last = started;
    let mut i = 0usize;
    while last < until {
        let input = inputs[i % inputs.len()];
        let t0 = Instant::now();
        let out = query(input);
        let t1 = Instant::now();
        pass.hist.record((t1 - t0).as_nanos() as u64);
        tracer.record(parent, first_op + i as u64, name, t0, t1);
        pass.failed += out.is_err() as u64;
        last = t1;
        i += 1;
    }
    pass.wall_ns = (last - started).as_nanos() as u64;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_repeat_per_seed_and_stay_on_the_map() {
        let a = nn_centres(&mut Rng::new(5, 1), 100, 0.5);
        let b = nn_centres(&mut Rng::new(5, 1), 100, 0.5);
        let c = nn_centres(&mut Rng::new(6, 1), 100, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let hot = a.iter().filter(|p| p.distance(&HOT_SPOT) < 75.0).count();
        assert!((25..=75).contains(&hot), "{hot} hot centres of 100");
        for r in region_rects(&mut Rng::new(5, 2), 100) {
            assert!(r.min_x >= 0.0 && r.max_x <= 1000.0 && r.min_y >= 0.0 && r.max_y <= 1000.0);
            assert!((r.width() - REGION_SIDE).abs() < 1e-9);
        }
    }

    #[test]
    fn sliced_numbers_are_medians_that_one_slow_slice_does_not_move() {
        let slice = |ns: u64, n: u64| {
            let mut p = Pass::default();
            for _ in 0..n {
                p.hist.record(ns);
            }
            p
        };
        let mut s = Sliced::default();
        for _ in 0..4 {
            s.push(slice(1_000, 2_000), 500.0);
        }
        s.push(slice(9_000, 2_000), 50.0); // a slow stretch
        s.push(Pass::default(), 0.0); // an empty slice is dropped
        assert_eq!(s.ops(), 10_000);
        assert_eq!(s.per_s(), 500.0);
        assert!((s.quantile(0.5) - 1_000.0).abs() < 40.0);
        assert!((s.quantile(0.99) - 1_000.0).abs() < 40.0);
        // Slices too small for their own p99 pool their samples, the two
        // slowest slices left out: two slow slices do not become the tail,
        // three do.
        let mut small = Sliced::default();
        for _ in 0..8 {
            small.push(slice(1_000, 150), 1.0);
        }
        small.push(slice(9_000, 150), 1.0);
        small.push(slice(9_000, 150), 1.0);
        assert!(small.supports(0.99));
        assert!((small.quantile(0.99) - 1_000.0).abs() < 40.0);
        assert!((small.quantile(0.5) - 1_000.0).abs() < 40.0);
        small.push(slice(9_000, 150), 1.0);
        assert!(small.quantile(0.99) > 8_000.0);
        // Too few samples once trimmed: no p99.
        let mut few = Sliced::default();
        for _ in 0..10 {
            few.push(slice(1_000, 120), 1.0);
        }
        assert!(!few.supports(0.99));
    }

    #[test]
    fn a_pass_times_every_query_until_its_deadline_and_counts_failures() {
        let mut tracer = Tracer::new(Instant::now(), 0, true);
        let inputs = [Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let mut calls = 0u64;
        let until = Instant::now() + std::time::Duration::from_millis(20);
        let pass = query_pass(&inputs, until, &mut tracer, 0, "q", 100, |p| {
            calls += 1;
            if calls == 3 {
                Err("injected")
            } else {
                Ok(p)
            }
        });
        assert!(Instant::now() >= until && pass.ops() == calls && calls > 3);
        assert_eq!(pass.failed, 1);
        assert!(pass.per_s() > 0.0);
        let spans = tracer.into_spans();
        assert_eq!(spans.len() as u64, calls);
        assert_eq!(spans[4].op, 104);
    }
}
