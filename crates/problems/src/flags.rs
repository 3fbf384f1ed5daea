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
//! The evaluation reuses the real compilers: gene 4 off prices the
//! benchmark under `compile_all_baseline`; gene 4 on runs the inliner
//! with the preset's parameters and a *gated* pass pipeline per
//! reachable method. The gated pipeline is the round-based schedule:
//! `const_prop` then `dce` every round, each behind its flag. With every
//! flag at its default (`[2,1,1,1,1]`) it is the round loop that
//! `optimize_method` is held to: the same bodies and the same
//! `PassStats`, though `optimize_method` computes that result without
//! running the rounds on single-assignment methods. So the default
//! configuration reproduces `jit::measure` under `Opt` exactly and
//! scores fitness 1.
//!
//! The task's *goal* and *arch* apply as usual; the task's scenario is
//! ignored — gene 4 **is** the scenario here.

use std::collections::BTreeMap;
use std::sync::Arc;

use ga::{GeneKind, Ranges};
use inliner::{inline_method, HotSites, InlineParams};
use ir::size::method_size;
use jit::compile::{compile_all_baseline, CompileLevel, CompiledMethod, VmState};
use jit::exec::exec_cycles;
use jit::passes::{const_prop, dce, PassStats};
use jit::Measurement;
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
    prop: bool,
    dce: bool,
    fixpoint: bool,
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
            prop: genes[1] != 0,
            dce: genes[2] != 0,
            fixpoint: genes[3] != 0,
            opt: genes[4] != 0,
        }
    }
}

/// The gated pass pipeline: the round-based schedule with each pass
/// behind its flag. All flags on is the reference round loop, which
/// `optimize_method` equals in body and `PassStats` (same 64-round
/// backstop, same stop condition) without running its rounds.
fn run_gated_passes(method: &mut ir::Method, cfg: FlagConfig) -> PassStats {
    let mut stats = PassStats::default();
    let max_rounds = if cfg.fixpoint { 64 } else { 1 };
    for round in 1..=max_rounds {
        stats.rounds = round;
        let folded = if cfg.prop { const_prop(method) } else { 0 };
        let removed = if cfg.dce { dce(method) } else { 0 };
        stats.folded += folded;
        stats.removed += removed;
        if folded == 0 && removed == 0 {
            break;
        }
    }
    stats
}

/// Measures one benchmark program under a flag configuration, in the
/// shape of `jit::measure` so [`tuner::Goal::metric`] applies directly.
fn measure_flags(program: &ir::Program, arch: &jit::ArchModel, cfg: FlagConfig) -> Measurement {
    let state = if cfg.opt {
        let params = preset_params(cfg.preset);
        let hot = HotSites::new();
        let mut state = VmState {
            program: program.clone(),
            compiled: BTreeMap::new(),
        };
        for id in program.reachable() {
            let (mut method, inline_stats) = inline_method(program, id, &params, &hot);
            let opt_stats = run_gated_passes(&mut method, cfg);
            let compile_cycles = arch.opt_compile_cycles(inline_stats.final_size);
            let code_size = method_size(&method);
            state.program.methods[id.index()] = method;
            state.compiled.insert(
                id,
                CompiledMethod {
                    level: CompileLevel::Opt,
                    code_size,
                    original_size: method_size(program.method(id)),
                    inline_stats,
                    opt_stats,
                    compile_cycles,
                },
            );
        }
        state
    } else {
        compile_all_baseline(program, arch)
    };

    let steady = exec_cycles(&state, arch);
    let compile = state.total_compile_cycles();
    let n_opt = state
        .compiled
        .values()
        .filter(|c| c.level == CompileLevel::Opt)
        .count();
    let n_base = state.compiled.len() - n_opt;
    Measurement {
        total_cycles: compile + steady.total_cycles,
        running_cycles: steady.total_cycles,
        compile_cycles: compile,
        baseline_compile_cycles: if cfg.opt { 0.0 } else { compile },
        opt_compile_cycles: if cfg.opt { compile } else { 0.0 },
        first_iter_exec_cycles: steady.total_cycles,
        steady,
        code_size: state.total_code_size(),
        inline_stats: state.aggregate_inline_stats(),
        n_opt_methods: n_opt,
        n_baseline_methods: n_base,
    }
}

/// The compiler-flag selection problem.
pub struct FlagsProblem {
    task: TuningTask,
    training: Vec<Benchmark>,
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
        let default_cfg = FlagConfig::decode(&DEFAULT_GENES);
        let defaults = training
            .iter()
            .map(|b| measure_flags(&b.program, &task.arch, default_cfg))
            .collect();
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
            training,
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
        let mut ratios = Vec::with_capacity(self.training.len());
        for (b, default) in self.training.iter().zip(&self.defaults) {
            let m = measure_flags(&b.program, &self.task.arch, cfg);
            let num = self.task.goal.metric(&m, default);
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
            onoff(cfg.prop),
            onoff(cfg.dce),
            onoff(cfg.fixpoint),
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
    use jit::AdaptConfig;
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
            let ours = measure_flags(&b.program, &arch, FlagConfig::decode(&DEFAULT_GENES));
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
