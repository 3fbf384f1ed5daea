//! Deterministic pseudo-random number generation for the `inlinetune`
//! simulator.
//!
//! Everything in this workspace that involves randomness — synthetic
//! benchmark generation, genetic-algorithm operators, sampling profilers —
//! goes through this crate so that a single `u64` seed reproduces an entire
//! experiment bit-for-bit, independent of the version of any external RNG
//! crate.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64, with `jump()` support for cheap independent parallel streams.
//! A small library of sampling distributions (uniform, normal, log-normal,
//! Zipf, categorical via Walker's alias method, …) sits on top.
//!
//! # Example
//!
//! ```
//! use simrng::{Rng, dist::Zipf};
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let z = Zipf::new(100, 1.1).unwrap();
//! let ranks: Vec<u64> = (0..5).map(|_| z.sample(&mut rng)).collect();
//! // Same seed, same ranks, forever.
//! let mut rng2 = Rng::seed_from_u64(42);
//! let again: Vec<u64> = (0..5).map(|_| z.sample(&mut rng2)).collect();
//! assert_eq!(ranks, again);
//! ```

pub mod dist;
mod prop;
mod xoshiro;

pub use prop::{cases, string_of, vec_of};
pub use xoshiro::{Rng, SplitMix64};

/// Derives a child seed from a parent seed and a string label.
///
/// Used to give every subsystem (each synthetic benchmark, each GA run, each
/// profiler instance) an independent, *named* random stream so that adding a
/// new consumer of randomness never perturbs existing ones.
///
/// The mix is FNV-1a over the label folded into the parent seed and then
/// finalized with the SplitMix64 output function, which is a bijective
/// avalanche mix.
#[must_use]
pub fn child_seed(parent: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ parent;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // SplitMix64 finalizer: guarantees avalanche even for short labels.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Convenience constructor: an [`Rng`] for the named child stream.
#[must_use]
pub fn child_rng(parent: u64, label: &str) -> Rng {
    Rng::seed_from_u64(child_seed(parent, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_seeds_differ_per_label() {
        let a = child_seed(7, "workload/compress");
        let b = child_seed(7, "workload/jess");
        let c = child_seed(8, "workload/compress");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn child_seed_is_deterministic() {
        assert_eq!(child_seed(123, "x"), child_seed(123, "x"));
    }

    #[test]
    fn empty_label_still_mixes_parent() {
        assert_ne!(child_seed(1, ""), child_seed(2, ""));
    }
}
