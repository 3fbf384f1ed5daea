//! Fixed-bucket latency histograms.
//!
//! The bucket boundaries are compiled in ([`BOUNDS`], microseconds, a
//! 1-2-5 decade ladder from 10µs to 10s) so every histogram in the
//! process — and across processes — is mergeable, and the Prometheus
//! exposition is stable enough to golden-test. Recording is lock-free:
//! one atomic add on the bucket, plus count/sum/max updates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Inclusive upper bounds of the finite buckets, in microseconds. One
/// implicit overflow bucket (`+Inf`) follows the last bound.
pub const BOUNDS: [u64; 19] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
    500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Finite buckets plus the overflow bucket.
pub const NUM_BUCKETS: usize = BOUNDS.len() + 1;

/// Index of the bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    BOUNDS
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(BOUNDS.len())
}

/// A thread-safe fixed-bucket histogram of microsecond latencies.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy. Bucket counts are read individually, so a
    /// snapshot taken mid-`record` may momentarily show `total` off by
    /// the in-flight sample — callers that need exactness quiesce
    /// writers first (as the deterministic tests do).
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            total: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; `counts[BOUNDS.len()]` is the overflow
    /// bucket.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all samples, microseconds.
    pub sum: u64,
    /// Largest sample seen, microseconds.
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot (what `Histogram::new().snapshot()` returns).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The quantile estimate for rank `q` in `[0, 1]`: the upper bound
    /// of the bucket containing the `ceil(q · total)`-th smallest
    /// sample. Samples in the overflow bucket report [`Self::max`].
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return if i < BOUNDS.len() {
                    BOUNDS[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// The median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The element-wise merge of two snapshots — identical to having
    /// recorded the union of their samples into one histogram (the
    /// bucket bounds are global, so this is exact, not approximate).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            total: self.total + other.total,
            // `record` accumulates the sum with a wrapping atomic add.
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.record(0); // bucket 0 (≤10)
        h.record(10); // bucket 0 (inclusive bound)
        h.record(11); // bucket 1 (≤20)
        h.record(10_000_001); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[BOUNDS.len()], 1);
        assert_eq!(s.total, 4);
        assert_eq!(s.sum, 10 + 11 + 10_000_001);
        assert_eq!(s.max, 10_000_001);
    }

    #[test]
    fn bucket_counts_sum_to_total() {
        let h = Histogram::new();
        for v in [0, 5, 99, 1234, 500_000, 99_999_999] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts.iter().sum::<u64>(), s.total);
    }

    #[test]
    fn quantiles_are_monotone_in_rank() {
        let h = Histogram::new();
        for v in [1, 15, 40, 150, 900, 4_000, 80_000, 3_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let qs: Vec<u64> = (0..=20).map(|i| s.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistSnapshot::empty().p99(), 0);
    }

    #[test]
    fn overflow_quantile_reports_observed_max() {
        let h = Histogram::new();
        h.record(123_456_789);
        assert_eq!(h.snapshot().p50(), 123_456_789);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (a, b, u) = (Histogram::new(), Histogram::new(), Histogram::new());
        let xs = [3u64, 77, 5_000];
        let ys = [0u64, 77, 999_999, 88_888_888];
        for &v in &xs {
            a.record(v);
            u.record(v);
        }
        for &v in &ys {
            b.record(v);
            u.record(v);
        }
        assert_eq!(a.snapshot().merged(&b.snapshot()), u.snapshot());
    }

    #[test]
    fn all_zero_samples_fill_the_first_bucket_exactly() {
        // The pattern every ManualClock test relies on.
        let h = Histogram::new();
        for _ in 0..7 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!(s.counts[0], 7);
        assert_eq!(s.total, 7);
        assert_eq!(s.sum, 0);
        assert_eq!(s.max, 0);
    }
}
