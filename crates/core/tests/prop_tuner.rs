//! Property-based tests of the tuning pipeline's fitness function.
//!
//! Seeded case loops (`simrng::cases`) over tuners built once per
//! property, so they run in plain `cargo test`.

use inliner::InlineParams;
use jit::{AdaptConfig, ArchModel, Scenario};
use simrng::cases;
use tuner::{Goal, Tuner, TuningTask};
use workloads::benchmark_by_name;

const SCENARIOS: [Scenario; 2] = [Scenario::Opt, Scenario::Adapt];
const GOALS: [Goal; 3] = [Goal::Running, Goal::Total, Goal::Balance];

fn tuner_for(scenario: Scenario, goal: Goal, arch: ArchModel) -> Tuner {
    Tuner::new(
        TuningTask {
            name: format!("{scenario}:{goal}"),
            scenario,
            goal,
            arch,
        },
        vec![
            benchmark_by_name("db").unwrap(),
            benchmark_by_name("compress").unwrap(),
        ],
        AdaptConfig::default(),
    )
}

/// One x86 tuner per (scenario, goal).
fn x86_tuners() -> Vec<Tuner> {
    let cells = SCENARIOS
        .iter()
        .flat_map(|s| GOALS.iter().map(move |g| (*s, *g)));
    cells
        .map(|(s, g)| tuner_for(s, g, ArchModel::pentium4()))
        .collect()
}

/// The default heuristic scores exactly 1 under every scenario, goal
/// and architecture (the fitness is normalized to it) — all twelve
/// cells, exhaustively.
#[test]
fn default_params_score_exactly_one() {
    let ppc = SCENARIOS
        .iter()
        .flat_map(|s| GOALS.iter().map(move |g| (*s, *g)))
        .map(|(s, g)| tuner_for(s, g, ArchModel::powerpc_g4()));
    for t in x86_tuners().into_iter().chain(ppc) {
        let f = t.fitness(&InlineParams::jikes_default());
        assert!((f - 1.0).abs() < 1e-12, "{}: fitness {f}", t.task().name);
    }
}

/// Fitness is finite and positive for arbitrary in-domain genomes — the
/// GA never sees NaN/∞ from a legitimate vector.
#[test]
fn fitness_is_finite_positive_across_the_search_space() {
    let tuners = x86_tuners();
    cases(
        "fitness_is_finite_positive_across_the_search_space",
        |rng| {
            let genes = [
                rng.range_i64(0, 60),
                rng.range_i64(0, 35),
                rng.range_i64(0, 16),
                rng.range_i64(0, 4200),
                rng.range_i64(0, 420),
            ];
            let f = rng
                .choose(&tuners)
                .fitness(&InlineParams::from_genes(&genes));
            assert!(f.is_finite() && f > 0.0, "fitness {f}");
            // No legitimate heuristic should be catastrophically far from the
            // default in this simulator (sanity bound, not a theorem).
            assert!(f < 10.0, "fitness {f} suspiciously bad");
        },
    );
}

/// Fitness is a pure function of the genome.
#[test]
fn fitness_is_pure() {
    let t = tuner_for(Scenario::Opt, Goal::Total, ArchModel::pentium4());
    cases("fitness_is_pure", |rng| {
        let genes = [rng.range_i64(1, 50), 11, 5, rng.range_i64(1, 4000), 135];
        let p = InlineParams::from_genes(&genes);
        assert_eq!(t.fitness(&p).to_bits(), t.fitness(&p).to_bits());
    });
}
