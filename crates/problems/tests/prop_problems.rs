//! Property tests for the Problem invariants: genetic operators keep
//! arbitrary kinded genomes inside their space, encode/decode
//! round-trips, and categorical genes are re-drawn rather than
//! interpolated.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use ga::ops::{mutate, one_point_crossover, two_point_crossover, uniform_crossover};
use ga::{GeneKind, Ranges};
use inliner::{InlineParams, ParamRanges};
use simrng::{cases, vec_of, Rng};

/// An arbitrary mixed-kind gene space plus one genome inside it.
fn arb_space_and_genome(rng: &mut Rng) -> (Ranges, Vec<i64>) {
    let genes = vec_of(rng, 1, 12, |r| {
        let kind = *r.choose(&[GeneKind::Int, GeneKind::Bool, GeneKind::Cat]);
        // Bools live on {0, 1}; others use the drawn bounds.
        let (lo, hi) = if kind == GeneKind::Bool {
            (0, 1)
        } else {
            let lo = r.range_i64(-40, 39);
            (lo, lo + r.range_i64(0, 39))
        };
        (kind, (lo, hi), r.range_i64(lo, hi))
    });
    let kinds = genes.iter().map(|g| g.0).collect();
    let bounds = genes.iter().map(|g| g.1).collect();
    let genome = genes.iter().map(|g| g.2).collect();
    (Ranges::with_kinds(bounds, kinds), genome)
}

/// Mutation never leaves the space, whatever the kinds, bounds,
/// per-gene probability or seed.
#[test]
fn mutation_stays_in_bounds() {
    cases("mutation_stays_in_bounds", |rng| {
        let (ranges, genome) = arb_space_and_genome(rng);
        // `f64()` is half-open; the closed end is its own case.
        let prob = if rng.chance(0.1) { 1.0 } else { rng.f64() };
        for _ in 0..8 {
            let mut g = genome.clone();
            mutate(&mut g, &ranges, prob, rng);
            assert!(ranges.contains(&g), "{g:?} left {ranges:?}");
        }
    });
}

/// Every crossover operator only recombines parental genes, so
/// children of in-space parents stay in space — and each child gene
/// literally equals one parent's gene at that locus (categoricals
/// are never blended into values neither parent held).
#[test]
fn crossover_children_stay_in_bounds_and_never_blend() {
    cases("crossover_children_stay_in_bounds_and_never_blend", |rng| {
        let (ranges, a) = arb_space_and_genome(rng);
        let b = ranges.random(rng);
        for op in [one_point_crossover, two_point_crossover, uniform_crossover] {
            let (c, d) = op(&a, &b, rng);
            for child in [&c, &d] {
                assert!(ranges.contains(child));
                for (i, &g) in child.iter().enumerate() {
                    assert!(g == a[i] || g == b[i], "blended gene {i}: {g}");
                }
            }
        }
    });
}

/// A mutated non-Int gene is a uniform *re-draw*: the outcome depends
/// only on the RNG stream, not on the starting value. Starting the
/// same seed from different categories lands on the same category —
/// the definition of "never interpolates".
#[test]
fn categorical_mutation_is_independent_of_the_current_value() {
    let ranges = Ranges::with_kinds(vec![(0, 6), (0, 1)], vec![GeneKind::Cat, GeneKind::Bool]);
    cases(
        "categorical_mutation_is_independent_of_the_current_value",
        |rng| {
            let mut a = vec![rng.range_i64(0, 6), 0];
            let mut b = vec![rng.range_i64(0, 6), 1];
            let seed = rng.next_u64();
            mutate(&mut a, &ranges, 1.0, &mut Rng::seed_from_u64(seed));
            mutate(&mut b, &ranges, 1.0, &mut Rng::seed_from_u64(seed));
            assert_eq!(a, b);
        },
    );
}

/// The inlining problem's genome codec round-trips across the paper's
/// Table 1 ranges.
#[test]
fn inline_params_round_trip_within_paper_ranges() {
    cases("inline_params_round_trip_within_paper_ranges", |rng| {
        let genes: Vec<i64> = [50, 30, 15, 4000, 400]
            .iter()
            .map(|&hi| rng.range_i64(1, hi))
            .collect();
        assert!(ParamRanges::paper().contains(&genes));
        let params = InlineParams::from_genes(&genes);
        assert_eq!(params.to_genes(), genes);
    });
}

/// The dss problem scores every genome in its space to a finite,
/// positive, deterministic fitness.
#[test]
fn dss_fitness_is_total_over_its_space() {
    use problems::Problem;
    let p = problems::DssProblem::new(
        tuner::TuningTask {
            name: "Opt:Tot".into(),
            scenario: jit::Scenario::Opt,
            goal: tuner::Goal::Total,
            arch: jit::ArchModel::pentium4(),
        },
        vec![workloads::benchmark_by_name("db").unwrap()],
    );
    cases("dss_fitness_is_total_over_its_space", |rng| {
        let genes: Vec<i64> = (0..8).map(|_| rng.range_i64(0, 4)).collect();
        assert!(p.space().contains(&genes));
        let f = p.fitness(&genes);
        assert!(f.is_finite() && f > 0.0, "{f}");
        assert_eq!(f.to_bits(), p.fitness(&genes).to_bits());
    });
}
