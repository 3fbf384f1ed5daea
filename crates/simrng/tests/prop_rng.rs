//! Property-based tests for the RNG and distributions: range safety for
//! arbitrary parameters, determinism, and stream independence.
//!
//! Seeded case loops (`simrng::cases`): the parameters of each case come
//! from that case's stream, the generator under test is seeded from a
//! value drawn from it. They run in plain `cargo test`.

use simrng::dist::{CappedGeometric, Categorical, LogNormal, Normal, Zipf};
use simrng::{cases, child_seed, string_of, vec_of, Rng};

/// The generator under test, seeded from the case's stream.
fn subject(rng: &mut Rng) -> Rng {
    Rng::seed_from_u64(rng.next_u64())
}

#[test]
fn below_is_always_in_range() {
    cases("below_is_always_in_range", |rng| {
        let n = rng.next_u64().max(1);
        let mut rng = subject(rng);
        for _ in 0..32 {
            assert!(rng.below(n) < n);
        }
    });
}

#[test]
fn range_i64_hits_inclusive_bounds_only() {
    cases("range_i64_hits_inclusive_bounds_only", |rng| {
        let (a, b) = (rng.next_u64() as i64, rng.next_u64() as i64);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut rng = subject(rng);
        for _ in 0..32 {
            let v = rng.range_i64(lo, hi);
            assert!(v >= lo && v <= hi);
        }
    });
}

#[test]
fn f64_stays_in_unit_interval() {
    cases("f64_stays_in_unit_interval", |rng| {
        let mut rng = subject(rng);
        for _ in 0..64 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    });
}

#[test]
fn streams_are_deterministic_and_label_sensitive() {
    cases("streams_are_deterministic_and_label_sensitive", |rng| {
        let seed = rng.next_u64();
        let label = string_of(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 12);
        assert_eq!(child_seed(seed, &label), child_seed(seed, &label));
        // A different label virtually never collides (not a proof, a
        // regression tripwire: any systematic collision fails fast).
        let other = format!("{label}!");
        assert_ne!(child_seed(seed, &label), child_seed(seed, &other));
    });
}

#[test]
fn zipf_ranks_in_range_for_arbitrary_params() {
    cases("zipf_ranks_in_range_for_arbitrary_params", |rng| {
        let n = 1 + rng.below(99_999);
        let z = Zipf::new(n, rng.f64_range(0.01, 5.0)).unwrap();
        let mut rng = subject(rng);
        for _ in 0..64 {
            let k = z.sample(&mut rng);
            assert!((1..=n).contains(&k), "rank {k} outside 1..={n}");
        }
    });
}

#[test]
fn normal_samples_are_finite() {
    cases("normal_samples_are_finite", |rng| {
        let d = Normal::new(rng.f64_range(-1e6, 1e6), rng.f64_range(0.0, 1e3)).unwrap();
        let mut rng = subject(rng);
        for _ in 0..32 {
            assert!(d.sample(&mut rng).is_finite());
        }
    });
}

#[test]
fn lognormal_samples_positive() {
    cases("lognormal_samples_positive", |rng| {
        let d = LogNormal::from_median(rng.f64_range(0.001, 1e6), rng.f64_range(0.0, 3.0)).unwrap();
        let mut rng = subject(rng);
        for _ in 0..32 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    });
}

#[test]
fn categorical_never_picks_zero_weight() {
    cases("categorical_never_picks_zero_weight", |rng| {
        // A third of the weights are exactly zero; the first never is,
        // so the total is positive.
        let mut weights = vec_of(rng, 1, 11, |r| {
            if r.chance(1.0 / 3.0) {
                0.0
            } else {
                r.f64_range(0.0, 10.0)
            }
        });
        weights[0] += 0.5;
        let c = Categorical::new(&weights).unwrap();
        let mut rng = subject(rng);
        for _ in 0..64 {
            let i = c.sample(&mut rng);
            assert!(i < weights.len());
            assert!(weights[i] > 0.0, "picked zero-weight category {i}");
        }
    });
}

#[test]
fn capped_geometric_respects_cap() {
    cases("capped_geometric_respects_cap", |rng| {
        let cap = rng.below(64) as u32;
        let g = CappedGeometric::new(rng.f64_range(0.001, 1.0), cap).unwrap();
        let mut rng = subject(rng);
        for _ in 0..64 {
            assert!(g.sample(&mut rng) <= cap);
        }
    });
}

#[test]
fn split_streams_do_not_correlate_trivially() {
    cases("split_streams_do_not_correlate_trivially", |rng| {
        let mut parent = subject(rng);
        let mut a = parent.split();
        let mut b = parent.split();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    });
}
