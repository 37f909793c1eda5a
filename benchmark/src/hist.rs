//! Log-bucket latency histogram: constant memory, one array increment per
//! sample, so recording inside the timed window costs nothing that grows
//! with the run.
//!
//! Values are nanoseconds. Values below `2 * SUB` are counted exactly; above
//! that every power-of-two range is cut into `SUB` equal buckets (about 3%
//! wide). A percentile interpolates linearly inside the bucket it falls in,
//! so two runs do not read the same value just because they share a bucket.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets for every value up to `u64::MAX`.
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    /// Exact sum of the samples, for the mean.
    sum: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// The half-open value range `[lo, hi)` of a bucket.
fn bounds_of(bucket: usize) -> (u64, u64) {
    let b = bucket as u64;
    if b < 2 * SUB {
        return (b, b + 1);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = (SUB + b % SUB) << shift;
    (lo, lo.saturating_add(1 << shift))
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
        self.sum += nanos;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the samples, nanoseconds (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The value below which the share `q` of the samples lies, in
    /// nanoseconds (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (below + n) as f64 >= rank {
                let (lo, hi) = bounds_of(bucket);
                let into = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + into * (hi - lo) as f64;
            }
            below += n;
        }
        bounds_of(BUCKETS - 1).1 as f64
    }

    /// Whether at least ten samples lie beyond the percentile `q`, the
    /// condition for reporting it.
    pub fn supports(&self, q: f64) -> bool {
        (1.0 - q) * self.total as f64 >= 10.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_range() {
        let mut prev_hi = 0;
        for b in 0..BUCKETS {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, prev_hi, "bucket {b} leaves a gap");
            assert!(hi > lo || hi == u64::MAX);
            prev_hi = hi;
        }
        for v in [0, 1, 63, 64, 65, 1000, 123_456_789, u64::MAX / 3, u64::MAX] {
            let (lo, hi) = bounds_of(bucket_of(v));
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn percentiles_of_a_uniform_ramp_are_within_bucket_width() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 0.02,
                "q{q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_empty_reads_zero() {
        assert_eq!(Hist::new().quantile(0.5), 0.0);
        assert_eq!(Hist::new().mean(), 0.0);
        let mut h = Hist::new();
        for _ in 0..10 {
            h.record(7);
        }
        let p50 = h.quantile(0.5);
        assert!((7.0..8.0).contains(&p50), "{p50}");
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = Hist::new();
        for v in 0..999 {
            h.record(v);
        }
        assert!(!h.supports(0.99));
        h.record(999);
        assert!(h.supports(0.99));
        assert!(h.supports(0.5));
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        a.record(100);
        b.record(300);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 300.0);
        assert!((500.0..520.0).contains(&a.quantile(1.0)));
    }
}
