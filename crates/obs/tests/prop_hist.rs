//! Property tests for histogram invariants, as seeded case loops: plain
//! `cargo test`, no external generator crate (see `simrng::cases`).
//!
//! Invariants under test:
//!
//! * bucket counts always sum to `total`, and the cumulative rendering
//!   therefore ends at `total`;
//! * quantiles are monotone in rank: `q(a) <= q(b)` whenever `a <= b`;
//! * quantiles are bracketed by the observed extremes;
//! * `merged(a, b)` equals recording the concatenated sample stream.

use obs::{Histogram, NUM_BUCKETS};
use simrng::{cases, Rng};

/// `lo..=hi` samples of every magnitude (so every bucket, the overflow
/// bucket included, gets traffic), with the extremes over-represented.
fn any_samples(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u64> {
    (0..rng.range_usize(lo, hi))
        .map(|_| {
            let any = rng.next_u64() >> rng.below(64);
            *rng.choose(&[0, any, any, any, u64::MAX])
        })
        .collect()
}

/// `lo..=hi` samples inside the finite buckets' range.
fn latency_samples(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u64> {
    (0..rng.range_usize(lo, hi))
        .map(|_| rng.below(100_000_000))
        .collect()
}

fn record_all(samples: &[u64]) -> obs::HistSnapshot {
    let h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

#[test]
fn bucket_counts_sum_to_total() {
    cases("bucket_counts_sum_to_total", |rng| {
        let samples = any_samples(rng, 0, 199);
        let snap = record_all(&samples);
        assert_eq!(snap.counts.len(), NUM_BUCKETS);
        assert_eq!(snap.counts.iter().sum::<u64>(), samples.len() as u64);
        assert_eq!(snap.total, samples.len() as u64);
    });
}

#[test]
fn quantiles_are_monotone_in_rank() {
    cases("quantiles_are_monotone_in_rank", |rng| {
        let snap = record_all(&latency_samples(rng, 1, 199));
        let (qa, qb) = (rng.f64(), rng.f64());
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        assert!(snap.quantile(lo) <= snap.quantile(hi));
        assert!(snap.quantile(0.0) <= snap.quantile(lo));
        assert!(snap.quantile(hi) <= snap.quantile(1.0));
    });
}

#[test]
fn quantiles_are_bracketed_by_observed_extremes() {
    cases("quantiles_are_bracketed_by_observed_extremes", |rng| {
        let samples = latency_samples(rng, 1, 199);
        let snap = record_all(&samples);
        let max = *samples.iter().max().unwrap();
        // A bucket quantile reports the bucket's upper bound (or the
        // observed max for the overflow bucket), so it never exceeds the
        // max's own bucket bound and never reports above the true max
        // for the overflow case.
        assert!(snap.quantile(rng.f64()) <= snap.quantile(1.0));
        assert!(snap.quantile(1.0) >= max.min(snap.max));
        assert_eq!(snap.max, max);
    });
}

#[test]
fn merge_equals_recording_the_union() {
    cases("merge_equals_recording_the_union", |rng| {
        let a = any_samples(rng, 0, 99);
        let b = any_samples(rng, 0, 99);
        let merged = record_all(&a).merged(&record_all(&b));
        let mut union = a.clone();
        union.extend_from_slice(&b);
        // Sums wrap identically on both sides (wrapping add), so
        // whole-snapshot equality is the right comparison.
        assert_eq!(merged, record_all(&union));
    });
}
