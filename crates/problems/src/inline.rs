//! The paper's inlining-heuristic problem behind the [`Problem`] seam.
//!
//! A thin wrapper over [`tuner::Tuner`]: the space is the task's Table 1
//! ranges (all-[`ga::GeneKind::Int`], exactly what `TuningTask::ranges`
//! returns), fitness decodes the genome into [`inliner::InlineParams`]
//! and delegates, and the fingerprint is the tuner's own legacy
//! fingerprint. The wrapper adds no RNG draws and no float operations,
//! so searching through it is bit-identical to the direct tuner path —
//! `inline_problem_is_bit_identical_to_the_tuner` enforces that.

use std::sync::Arc;

use ga::Ranges;
use inliner::InlineParams;
use jit::AdaptConfig;
use tuner::{Cell, Tuner, TuningTask};
use workloads::Benchmark;

use crate::Problem;

/// The inlining-heuristic tuning problem (Cavazos & O'Boyle, SC 2005).
pub struct InlineProblem {
    tuner: Tuner,
    space: Ranges,
}

impl InlineProblem {
    /// Wraps a tuner over the task's Table 1 ranges.
    ///
    /// # Panics
    /// Panics if the training suite is empty (same as [`Tuner::new`]).
    #[must_use]
    pub fn new(task: TuningTask, training: Vec<Benchmark>, adapt: AdaptConfig) -> Self {
        Self::over(Arc::new(Cell::new(task, training, adapt)))
    }

    fn over(cell: Arc<Cell>) -> Self {
        let tuner = Tuner::over(cell);
        let space = tuner.task().ranges();
        Self { tuner, space }
    }
}

impl Problem for InlineProblem {
    fn id(&self) -> &'static str {
        "inline"
    }

    fn space(&self) -> &Ranges {
        &self.space
    }

    fn fitness(&self, genes: &[i64]) -> f64 {
        self.tuner.fitness(&InlineParams::from_genes(genes))
    }

    fn fingerprint(&self) -> &stored::Fingerprint {
        self.tuner.cell().fingerprint()
    }

    fn describe(&self, genes: &[i64]) -> String {
        InlineParams::from_genes(genes).to_string()
    }

    fn fresh(self: Arc<Self>) -> Arc<dyn Problem> {
        Arc::new(Self::over(Arc::clone(self.tuner.cell())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::{GaConfig, GaState, GeneKind};
    use tuner::Goal;
    use workloads::benchmark_by_name;

    fn task() -> TuningTask {
        TuningTask {
            name: "Opt:Tot".into(),
            scenario: jit::Scenario::Opt,
            goal: Goal::Total,
            arch: jit::ArchModel::pentium4(),
        }
    }

    fn training() -> Vec<Benchmark> {
        vec![benchmark_by_name("db").unwrap()]
    }

    fn cfg() -> GaConfig {
        GaConfig {
            pop_size: 8,
            generations: 5,
            threads: 1,
            stagnation_limit: None,
            seed: 77,
            ..GaConfig::default()
        }
    }

    #[test]
    fn inline_problem_is_bit_identical_to_the_tuner() {
        // The acceptance bar of the problems refactor: porting inlining
        // onto the Problem trait must not change a single bit of a
        // tuning run — same best genome, same fitness bits, same
        // generation history.
        let t = Tuner::new(task(), training(), AdaptConfig::default());
        let plain = t.tune(cfg());

        let p = crate::build("inline", &task(), &training(), AdaptConfig::default()).unwrap();
        let mut state = GaState::new(p.space().clone(), cfg());
        while !state.step(|genes| p.fitness(genes)) {}
        let ga = state.result();

        assert_eq!(ga.best_genome, plain.params.to_genes());
        assert_eq!(ga.best_fitness.to_bits(), plain.fitness.to_bits());
        assert_eq!(ga.evaluations, plain.ga.evaluations);
        assert_eq!(ga.history, plain.ga.history);
    }

    #[test]
    fn space_matches_the_tasks_table1_ranges() {
        let p = InlineProblem::new(task(), training(), AdaptConfig::default());
        assert_eq!(p.space(), &task().ranges());
        // All thresholds: every gene is an ordered integer magnitude.
        assert!(p.space().kinds().iter().all(|&k| k == GeneKind::Int));
        // Opt pins the hot gene (no profile exists).
        assert_eq!(p.space().gene(4), (135, 135));
    }

    #[test]
    fn describe_decodes_the_genome() {
        let p = InlineProblem::new(task(), training(), AdaptConfig::default());
        let d = p.describe(&InlineParams::jikes_default().to_genes());
        assert!(d.contains("callee_max=23"), "{d}");
    }
}
