// Gated: needs the crates.io `proptest` crate (see the `proptest`
// feature note in this crate's Cargo.toml).
#![cfg(feature = "proptest")]

//! Property-based tests for the GA engine: every genome the engine ever
//! evaluates is in range, runs are deterministic, and the engine actually
//! optimizes.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use ga::{GaConfig, GaResult, GaState, Ranges};

/// A fresh search run to completion through the engine's closed-form
/// step.
fn run<F>(ranges: Ranges, config: GaConfig, fitness: F) -> GaResult
where
    F: Fn(&[i64]) -> f64 + Sync,
{
    let mut state = GaState::new(ranges, config);
    while !state.step(&fitness) {}
    state.result()
}

prop_compose! {
    fn arb_ranges()(bounds in proptest::collection::vec((0i64..100, 0i64..4000), 2..8)) -> Ranges {
        Ranges::new(bounds.into_iter().map(|(a, span)| (a, a + span)).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine never proposes an out-of-range genome to the fitness
    /// function, no matter the configuration.
    #[test]
    fn every_evaluated_genome_is_in_range(
        ranges in arb_ranges(),
        seed in any::<u64>(),
        pop in 2usize..16,
        gens in 1usize..12,
        mutation in 0.0f64..1.0,
        crossover in 0.0f64..1.0,
    ) {
        let violations = AtomicUsize::new(0);
        let result = run(
            ranges.clone(),
            GaConfig {
                pop_size: pop,
                generations: gens,
                mutation_prob: mutation,
                crossover_prob: crossover,
                elitism: 1.min(pop - 1),
                threads: 1,
                stagnation_limit: None,
                seed,
                ..GaConfig::default()
            },
            |g| {
                if !ranges.contains(g) {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                g.iter().map(|&v| v as f64).sum()
            },
        );
        prop_assert_eq!(violations.load(Ordering::Relaxed), 0);
        prop_assert!(ranges.contains(&result.best_genome));
    }

    /// Whole runs are pure functions of (ranges, config).
    #[test]
    fn runs_are_deterministic(ranges in arb_ranges(), seed in any::<u64>()) {
        let cfg = GaConfig {
            pop_size: 8,
            generations: 6,
            threads: 1,
            stagnation_limit: None,
            seed,
            ..GaConfig::default()
        };
        let f = |g: &[i64]| g.iter().map(|&v| (v as f64).abs()).sum::<f64>();
        let a = run(ranges.clone(), cfg.clone(), f);
        let b = run(ranges, cfg, f);
        prop_assert_eq!(a.best_genome, b.best_genome);
        prop_assert_eq!(a.best_fitness, b.best_fitness);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
    }

    /// More generations never worsen the best (elitism + monotone best
    /// tracking).
    #[test]
    fn longer_runs_are_no_worse(ranges in arb_ranges(), seed in any::<u64>()) {
        let with_gens = |gens: usize| {
            run(
                ranges.clone(),
                GaConfig {
                    pop_size: 10,
                    generations: gens,
                    threads: 1,
                    stagnation_limit: None,
                    seed,
                    ..GaConfig::default()
                },
                |g| g.iter().map(|&v| v as f64 * v as f64).sum(),
            )
        };
        let short = with_gens(3);
        let long = with_gens(12);
        prop_assert!(long.best_fitness <= short.best_fitness);
    }
}
