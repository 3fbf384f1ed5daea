//! §6.5: tuning the heuristic for each program individually, targeting
//! pure running time (Figure 10).
//!
//! For occasionally long-running programs where compilation is
//! insignificant, the paper tunes a *separate* heuristic per benchmark
//! with fitness = that benchmark's running time. This module reproduces
//! that experiment: one GA run per program.

use ga::{GaConfig, LocalEvaluator};
use inliner::InlineParams;
use jit::{AdaptConfig, ArchModel, Prepared, Scenario};
use workloads::Benchmark;

use crate::tuner::TuningTask;
use crate::Goal;

/// The per-program tuning result for one benchmark.
#[derive(Debug, Clone)]
pub struct PerProgramOutcome {
    /// Benchmark name.
    pub name: &'static str,
    /// The program-specialized parameters.
    pub params: InlineParams,
    /// Running time relative to the default heuristic (< 1 = faster).
    pub running_ratio: f64,
    /// Distinct simulator evaluations spent.
    pub evaluations: usize,
}

/// Tunes the heuristic for the running time of each benchmark in turn
/// (the paper does this under the `Opt` scenario on x86).
///
/// `seed_base` varies the GA seed per benchmark so runs are independent.
#[must_use]
pub fn tune_per_program(
    suite: &[Benchmark],
    arch: &ArchModel,
    ga_config: &GaConfig,
    seed_base: u64,
) -> Vec<PerProgramOutcome> {
    let adapt_cfg = AdaptConfig::default();
    let scenario = Scenario::Opt;
    suite
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let ctx = Prepared::new(&b.program, scenario, arch, &adapt_cfg);
            let memo = ctx.new_memo();
            let default = ctx.measure(&b.program, &InlineParams::jikes_default());
            let task = TuningTask {
                name: format!("PerProgram({})", b.name()),
                scenario,
                goal: Goal::Running,
                arch: arch.clone(),
            };
            let mut strategy = search::Ga::new(
                task.ranges(),
                GaConfig {
                    seed: simrng::child_seed(seed_base, b.name()) ^ i as u64,
                    ..ga_config.clone()
                },
            );
            let backend = LocalEvaluator::new(
                |genes: &[i64]| {
                    let params = InlineParams::from_genes(genes);
                    let m = ctx.measure_memo(&b.program, &params, &memo);
                    m.running_cycles / default.running_cycles
                },
                ga_config.threads,
            );
            search::drive(&mut strategy, &backend);
            let ga = strategy.state().result();
            PerProgramOutcome {
                name: b.name(),
                params: InlineParams::from_genes(&ga.best_genome),
                running_ratio: ga.best_fitness,
                evaluations: ga.evaluations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark_by_name;

    #[test]
    fn per_program_tuning_never_loses_to_default() {
        let suite = vec![benchmark_by_name("db").unwrap()];
        let out = tune_per_program(
            &suite,
            &ArchModel::pentium4(),
            &GaConfig {
                pop_size: 10,
                generations: 6,
                threads: 1,
                stagnation_limit: None,
                ..GaConfig::default()
            },
            7,
        );
        assert_eq!(out.len(), 1);
        // Running-ratio fitness: anything the GA returns is the best seen;
        // with a handful of generations it should at least approach 1.0.
        assert!(out[0].running_ratio <= 1.02, "{}", out[0].running_ratio);
        assert!(out[0].evaluations > 0);
    }
}
