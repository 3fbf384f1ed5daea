//! Compiler-flag selection: *which* optimizations to run, not just how
//! aggressively to inline.
//!
//! The search space is the classic flag-tuning shape (cf. compiler-flag
//! phase-selection work such as FOGA): one categorical gene picking an
//! inlining preset plus boolean toggles over the optimizer's pass
//! pipeline and the compiler choice itself:
//!
//! | gene | kind | meaning |
//! |------|------|---------|
//! | 0 | Cat 0..=3  | inlining preset: off / conservative / default / aggressive |
//! | 1 | Bool | constant propagation on |
//! | 2 | Bool | dead-code elimination on |
//! | 3 | Bool | iterate prop→DCE to a fixpoint (off = single round) |
//! | 4 | Bool | use the optimizing compiler (off = baseline only) |
//!
//! A measurement is `jit`'s own. Gene 4 off prices the benchmark
//! baseline-compiled and never recompiled ([`jit::measure_baseline`]),
//! which no other gene changes, so it is computed once per program.
//! Gene 4 on measures through the program's [`jit::Prepared`] `Opt`
//! context with the preset's parameters, the optimizer running the pass
//! set genes 1–3 select ([`jit::PassSet`]): the round loop with each
//! pass behind its gate. The default configuration (`[2,1,1,1,1]`) is
//! [`jit::PassSet::FULL`], the optimizing compiler's pipeline, so it
//! reproduces `jit::measure` under `Opt` exactly and scores fitness 1.
//!
//! The task's *goal* and *arch* apply as usual; the task's scenario is
//! ignored — gene 4 **is** the scenario here.

use std::sync::Arc;

use ga::{GeneKind, Ranges};
use inliner::InlineParams;
use jit::{AdaptConfig, Measurement, PassSet, Prepared, Scenario};
use tuner::{geometric_mean, TuningTask};
use workloads::Benchmark;

use crate::Problem;

/// Number of genes in the flag space.
pub const N_GENES: usize = 5;

/// The default flag configuration: Jikes-default inlining, both passes
/// on, fixpoint iteration, optimizing compiler. Scores fitness 1.
pub const DEFAULT_GENES: [i64; N_GENES] = [2, 1, 1, 1, 1];

/// Names of the inlining presets gene 0 selects.
const PRESETS: [&str; 4] = ["off", "conservative", "default", "aggressive"];

fn preset_params(p: i64) -> InlineParams {
    match p {
        0 => InlineParams::disabled(),
        1 => InlineParams::from_genes(&[10, 5, 2, 1024, 135]),
        2 => InlineParams::jikes_default(),
        3 => InlineParams::from_genes(&[40, 25, 12, 4000, 135]),
        other => panic!("inline preset gene out of range: {other}"),
    }
}

/// A decoded flag genome.
#[derive(Debug, Clone, Copy)]
struct FlagConfig {
    preset: i64,
    passes: PassSet,
    opt: bool,
}

impl FlagConfig {
    fn decode(genes: &[i64]) -> Self {
        assert_eq!(
            genes.len(),
            N_GENES,
            "flag genome must have {N_GENES} genes"
        );
        FlagConfig {
            preset: genes[0],
            passes: PassSet {
                const_prop: genes[1] != 0,
                dce: genes[2] != 0,
                fixpoint: genes[3] != 0,
            },
            opt: genes[4] != 0,
        }
    }
}

/// One training program, ready to measure under any flag configuration.
struct Cell {
    bench: Benchmark,
    /// The program's `Opt` context, which gene 4 on measures through.
    prepared: Prepared,
    /// The measurement of every configuration with gene 4 off.
    baseline: Measurement,
}

impl Cell {
    fn new(bench: Benchmark, arch: &jit::ArchModel) -> Self {
        Self {
            prepared: Prepared::new(&bench.program, Scenario::Opt, arch, &AdaptConfig::default()),
            baseline: jit::measure_baseline(&bench.program, arch),
            bench,
        }
    }

    /// Measures the program under a flag configuration, in the shape of
    /// `jit::measure` so [`tuner::Goal::metric`] applies directly.
    fn measure(&self, cfg: FlagConfig) -> Measurement {
        if !cfg.opt {
            return self.baseline.clone();
        }
        let params = preset_params(cfg.preset);
        self.prepared
            .measure_passes(&self.bench.program, &params, cfg.passes)
    }
}

/// The compiler-flag selection problem.
pub struct FlagsProblem {
    task: TuningTask,
    cells: Vec<Cell>,
    space: Ranges,
    fingerprint: stored::Fingerprint,
    /// Per-benchmark measurement under [`DEFAULT_GENES`] — the fitness
    /// normalization constants and balance factors.
    defaults: Vec<Measurement>,
}

impl FlagsProblem {
    /// Builds the flag problem over a task's goal/arch and a suite.
    ///
    /// # Panics
    /// Panics if the training suite is empty.
    #[must_use]
    pub fn new(task: TuningTask, training: Vec<Benchmark>) -> Self {
        assert!(!training.is_empty(), "training suite must not be empty");
        let fingerprint = crate::tagged_fingerprint("flags", &task, &training);
        let cells: Vec<Cell> = training
            .into_iter()
            .map(|b| Cell::new(b, &task.arch))
            .collect();
        let default_cfg = FlagConfig::decode(&DEFAULT_GENES);
        let defaults = cells.iter().map(|c| c.measure(default_cfg)).collect();
        let space = Ranges::with_kinds(
            vec![(0, 3), (0, 1), (0, 1), (0, 1), (0, 1)],
            vec![
                GeneKind::Cat,
                GeneKind::Bool,
                GeneKind::Bool,
                GeneKind::Bool,
                GeneKind::Bool,
            ],
        );
        Self {
            task,
            cells,
            space,
            fingerprint,
            defaults,
        }
    }
}

impl Problem for FlagsProblem {
    fn id(&self) -> &'static str {
        "flags"
    }

    fn space(&self) -> &Ranges {
        &self.space
    }

    fn fitness(&self, genes: &[i64]) -> f64 {
        let cfg = FlagConfig::decode(genes);
        let mut ratios = Vec::with_capacity(self.cells.len());
        for (cell, default) in self.cells.iter().zip(&self.defaults) {
            let num = self.task.goal.metric(&cell.measure(cfg), default);
            let den = self.task.goal.metric(default, default);
            if den <= 0.0 {
                return f64::INFINITY;
            }
            ratios.push(num / den);
        }
        geometric_mean(&ratios)
    }

    fn fingerprint(&self) -> &stored::Fingerprint {
        &self.fingerprint
    }

    fn describe(&self, genes: &[i64]) -> String {
        let cfg = FlagConfig::decode(genes);
        let onoff = |b: bool| if b { "on" } else { "off" };
        format!(
            "[inline={}, const_prop={}, dce={}, fixpoint={}, compiler={}]",
            PRESETS[cfg.preset as usize],
            onoff(cfg.passes.const_prop),
            onoff(cfg.passes.dce),
            onoff(cfg.passes.fixpoint),
            if cfg.opt { "opt" } else { "baseline" },
        )
    }

    fn fresh(self: Arc<Self>) -> Arc<dyn Problem> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuner::Goal;
    use workloads::benchmark_by_name;

    fn problem() -> FlagsProblem {
        FlagsProblem::new(
            TuningTask {
                name: "Opt:Tot".into(),
                scenario: jit::Scenario::Opt,
                goal: Goal::Total,
                arch: jit::ArchModel::pentium4(),
            },
            vec![benchmark_by_name("db").unwrap()],
        )
    }

    #[test]
    fn default_flags_score_exactly_one() {
        let p = problem();
        let f = p.fitness(&DEFAULT_GENES);
        assert!((f - 1.0).abs() < 1e-12, "fitness {f}");
    }

    #[test]
    fn default_flags_reproduce_jit_measure_opt_bit_exactly() {
        // The gated pipeline with every flag on must be the standard
        // pipeline, not an approximation of it.
        let arch = jit::ArchModel::pentium4();
        for name in ["db", "jess", "javac"] {
            let b = benchmark_by_name(name).unwrap();
            let cell = Cell::new(b.clone(), &arch);
            let ours = cell.measure(FlagConfig::decode(&DEFAULT_GENES));
            let real = jit::measure(
                &b.program,
                jit::Scenario::Opt,
                &arch,
                &InlineParams::jikes_default(),
                &AdaptConfig::default(),
            );
            assert_eq!(ours, real, "{name}");
        }
    }

    #[test]
    fn the_space_is_mixed_categorical_boolean() {
        let p = problem();
        assert_eq!(p.space().len(), N_GENES);
        assert_eq!(p.space().kind(0), GeneKind::Cat);
        assert!((1..N_GENES).all(|i| p.space().kind(i) == GeneKind::Bool));
        assert!(p.space().contains(&DEFAULT_GENES));
        // 4 presets × 2^4 toggles = 64 configurations.
        assert_eq!(p.space().cardinality(), 64);
    }

    #[test]
    fn flags_actually_move_the_metric() {
        let p = problem();
        let default = p.fitness(&DEFAULT_GENES);
        let baseline_only = p.fitness(&[2, 1, 1, 1, 0]);
        let no_inline = p.fitness(&[0, 1, 1, 1, 1]);
        assert_ne!(default.to_bits(), baseline_only.to_bits());
        assert_ne!(default.to_bits(), no_inline.to_bits());
        // The baseline compiler's code runs slower and the default here
        // includes compile time, so baseline-only total time differs
        // measurably (and every configuration stays finite).
        for genes in [[2, 1, 1, 1, 0], [0, 0, 0, 0, 1], [3, 1, 0, 1, 1]] {
            assert!(p.fitness(&genes).is_finite());
        }
    }

    #[test]
    fn fitness_is_deterministic() {
        let p = problem();
        let genes = [3, 1, 0, 0, 1];
        assert_eq!(p.fitness(&genes).to_bits(), p.fitness(&genes).to_bits());
    }

    #[test]
    fn describe_decodes_every_flag() {
        let p = problem();
        let d = p.describe(&[1, 1, 0, 1, 1]);
        assert!(d.contains("conservative"), "{d}");
        assert!(d.contains("dce=off"), "{d}");
        assert!(d.contains("compiler=opt"), "{d}");
        assert!(p.describe(&[0, 0, 0, 0, 0]).contains("baseline"));
    }
}
