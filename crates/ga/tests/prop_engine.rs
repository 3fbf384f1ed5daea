//! Property tests for the GA engine: every genome the engine ever
//! evaluates is in range, runs are deterministic, and the engine actually
//! optimizes.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use std::sync::atomic::{AtomicUsize, Ordering};

use ga::{GaConfig, GaResult, GaState, Ranges};
use simrng::{cases, vec_of, Rng};

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

/// Two to seven genes, each `[a, a + span]` with `a < 100`, `span < 4000`.
fn arb_ranges(rng: &mut Rng) -> Ranges {
    Ranges::new(vec_of(rng, 2, 7, |r| {
        let a = r.range_i64(0, 99);
        (a, a + r.range_i64(0, 3999))
    }))
}

/// The engine never proposes an out-of-range genome to the fitness
/// function, no matter the configuration.
#[test]
fn every_evaluated_genome_is_in_range() {
    cases("every_evaluated_genome_is_in_range", |rng| {
        let ranges = arb_ranges(rng);
        let pop = rng.range_usize(2, 15);
        let violations = AtomicUsize::new(0);
        let result = run(
            ranges.clone(),
            GaConfig {
                pop_size: pop,
                generations: rng.range_usize(1, 11),
                mutation_prob: rng.f64(),
                crossover_prob: rng.f64(),
                elitism: 1.min(pop - 1),
                threads: 1,
                stagnation_limit: None,
                seed: rng.next_u64(),
                ..GaConfig::default()
            },
            |g| {
                if !ranges.contains(g) {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                g.iter().map(|&v| v as f64).sum()
            },
        );
        assert_eq!(violations.load(Ordering::Relaxed), 0);
        assert!(ranges.contains(&result.best_genome));
    });
}

/// Whole runs are pure functions of (ranges, config).
#[test]
fn runs_are_deterministic() {
    cases("runs_are_deterministic", |rng| {
        let ranges = arb_ranges(rng);
        let cfg = GaConfig {
            pop_size: 8,
            generations: 6,
            threads: 1,
            stagnation_limit: None,
            seed: rng.next_u64(),
            ..GaConfig::default()
        };
        let f = |g: &[i64]| g.iter().map(|&v| (v as f64).abs()).sum::<f64>();
        let a = run(ranges.clone(), cfg.clone(), f);
        let b = run(ranges, cfg, f);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.cache_hits, b.cache_hits);
    });
}

/// More generations never worsen the best (elitism + monotone best
/// tracking).
#[test]
fn longer_runs_are_no_worse() {
    cases("longer_runs_are_no_worse", |rng| {
        let ranges = arb_ranges(rng);
        let seed = rng.next_u64();
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
        assert!(long.best_fitness <= short.best_fitness);
    });
}
