//! Property tests: every search strategy respects its bounds, and a
//! snapshot/restore cycle replays exactly the batch an uninterrupted
//! run would ask next.
//!
//! Gated behind the bare `proptest` cargo feature because the
//! `proptest` crate is not vendored (offline, zero-dependency builds).
//! To run:
//!
//! ```text
//! # on a networked machine:
//! #   add `proptest = "1"` under [dev-dependencies] in crates/search/Cargo.toml
//! cargo test -p inlinetune-search --features proptest
//! ```

#![cfg(feature = "proptest")]

use ga::{GaConfig, LocalEvaluator, Ranges};
use proptest::prelude::*;
use search::Strategy as _;

/// Deterministic synthetic fitness over arbitrary-arity genomes.
fn fitness(g: &[i64]) -> f64 {
    g.iter()
        .enumerate()
        .map(|(i, &x)| ((x as f64) / (i as f64 + 3.0)).sin())
        .sum::<f64>()
}

/// `inline::params`-shaped bounds: a handful of genes, each a non-empty
/// inclusive range with positive low ends (the paper's cascade never
/// admits zero), including degenerate pinned genes like the Opt
/// scenario's fixed adaptive threshold.
fn arb_bounds() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((1i64..=200, 0i64..=400), 2..=6)
        .prop_map(|v| v.into_iter().map(|(lo, w)| (lo, lo + w)).collect())
}

fn arb_spec() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("ga"),
        Just("random"),
        Just("hillclimb"),
        Just("anneal"),
        Just("grid"),
        Just("race"),
        Just("race:anneal+grid"),
    ]
}

fn cfg(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        pop_size: pop,
        generations: gens,
        threads: 1,
        seed,
        stagnation_limit: None,
        ..GaConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_ask_stays_within_bounds(
        bounds in arb_bounds(),
        spec in arb_spec(),
        seed in any::<u64>(),
        pop in 2usize..=10,
        gens in 1usize..=8,
    ) {
        let ranges = Ranges::new(bounds);
        let mut s = search::build(spec, ranges.clone(), cfg(seed, pop, gens)).unwrap();
        let mut guard = 0;
        while !s.is_done() {
            let batch = s.ask();
            for g in &batch {
                prop_assert!(
                    ranges.contains(g),
                    "{spec} proposed {g:?} outside {ranges:?}"
                );
            }
            let scores: Vec<f64> = batch.iter().map(|g| fitness(g)).collect();
            s.tell(&batch, &scores);
            guard += 1;
            prop_assert!(guard < 2_000, "{spec} never terminated");
        }
        if let Some((g, _)) = s.best() {
            prop_assert!(ranges.contains(&g));
        }
    }

    #[test]
    fn snapshot_restore_ask_equals_uninterrupted_ask(
        bounds in arb_bounds(),
        spec in arb_spec(),
        seed in any::<u64>(),
        rounds_before in 0usize..6,
    ) {
        let ranges = Ranges::new(bounds);
        let mut s = search::build(spec, ranges, cfg(seed, 6, 8)).unwrap();
        let backend = LocalEvaluator::new(fitness, 1);
        for _ in 0..rounds_before {
            if search::round(s.as_mut(), &backend, |_| {}) {
                break;
            }
        }
        let uninterrupted = s.ask();
        let mut resumed = search::restore(s.snapshot()).unwrap();
        prop_assert_eq!(
            resumed.ask(),
            uninterrupted,
            "{} restore replayed a different batch",
            spec
        );
        prop_assert_eq!(resumed.rounds(), s.rounds());
        prop_assert_eq!(resumed.evaluations(), s.evaluations());
    }
}
