//! Property tests: every search strategy respects its bounds, and a
//! snapshot/restore cycle replays exactly the batch an uninterrupted
//! run would ask next.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use ga::{GaConfig, LocalEvaluator, Ranges};
use simrng::{cases, vec_of, Rng};

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
fn arb_ranges(rng: &mut Rng) -> Ranges {
    Ranges::new(vec_of(rng, 2, 6, |r| {
        let lo = r.range_i64(1, 200);
        (lo, lo + r.range_i64(0, 400))
    }))
}

const SPECS: [&str; 7] = [
    "ga",
    "random",
    "hillclimb",
    "anneal",
    "grid",
    "race",
    "race:anneal+grid",
];

fn arb_spec(rng: &mut Rng) -> &'static str {
    *rng.choose(&SPECS)
}

fn cfg(seed: u64, pop: usize, gens: usize) -> GaConfig {
    GaConfig {
        pop_size: pop,
        generations: gens,
        // The default of 2 would leave a population of 2 no room to breed.
        elitism: 1,
        threads: 1,
        seed,
        stagnation_limit: None,
        ..GaConfig::default()
    }
}

#[test]
fn every_ask_stays_within_bounds() {
    cases("every_ask_stays_within_bounds", |rng| {
        let ranges = arb_ranges(rng);
        let spec = arb_spec(rng);
        let cfg = cfg(
            rng.next_u64(),
            rng.range_usize(2, 10),
            rng.range_usize(1, 8),
        );
        let mut s = search::build(spec, ranges.clone(), cfg).unwrap();
        let mut guard = 0;
        while !s.is_done() {
            let batch = s.ask();
            for g in &batch {
                assert!(
                    ranges.contains(g),
                    "{spec} proposed {g:?} outside {ranges:?}"
                );
            }
            let scores: Vec<f64> = batch.iter().map(|g| fitness(g)).collect();
            s.tell(&batch, &scores);
            guard += 1;
            assert!(guard < 2_000, "{spec} never terminated");
        }
        if let Some((g, _)) = s.best() {
            assert!(ranges.contains(&g));
        }
    });
}

#[test]
fn snapshot_restore_ask_equals_uninterrupted_ask() {
    cases("snapshot_restore_ask_equals_uninterrupted_ask", |rng| {
        let ranges = arb_ranges(rng);
        let spec = arb_spec(rng);
        let mut s = search::build(spec, ranges, cfg(rng.next_u64(), 6, 8)).unwrap();
        let backend = LocalEvaluator::new(fitness, 1);
        for _ in 0..rng.range_usize(0, 5) {
            if search::round(s.as_mut(), &backend, |_| {}) {
                break;
            }
        }
        let uninterrupted = s.ask();
        let mut resumed = search::restore(s.snapshot()).unwrap();
        assert_eq!(
            resumed.ask(),
            uninterrupted,
            "{spec} restore replayed a different batch"
        );
        assert_eq!(resumed.rounds(), s.rounds());
        assert_eq!(resumed.evaluations(), s.evaluations());
    });
}
