//! Compilation scenarios and the paper's measurement methodology.
//!
//! Two scenarios (§3.3 of the paper):
//!
//! * **`Opt`** — every dynamically reached method is compiled by the
//!   optimizing compiler up front;
//! * **`Adapt`** — everything starts at the baseline level; the adaptive
//!   system ([`crate::adaptive`]) recompiles the profitable subset with the
//!   optimizing compiler, and hot call sites in recompiled methods use the
//!   Fig. 4 heuristic.
//!
//! Measurement follows §5 exactly:
//!
//! * **total time** — the first benchmark iteration: all compilation plus
//!   that iteration's execution (under `Adapt`, partly at baseline speed
//!   while the profile warms up);
//! * **running time** — the best of the remaining iterations: steady-state
//!   execution with all recompilation already done and no compile cycles.

use inliner::{InlineParams, InlineStats};

use crate::adaptive::AdaptConfig;
use crate::arch::ArchModel;
use crate::exec::ExecBreakdown;
use crate::prepared::Prepared;

use ir::program::Program;

/// The compilation scenario (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Optimizing: compile everything with the optimizing compiler.
    Opt,
    /// Adaptive: baseline first, hot-spot recompilation.
    Adapt,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scenario::Opt => "Opt",
            Scenario::Adapt => "Adapt",
        })
    }
}

/// A §5-style measurement of one benchmark under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// First iteration including all compilation (cycles).
    pub total_cycles: f64,
    /// Steady-state cycles per iteration (no compilation).
    pub running_cycles: f64,
    /// All compile cycles (baseline + opt).
    pub compile_cycles: f64,
    /// Baseline-compiler share of `compile_cycles`.
    pub baseline_compile_cycles: f64,
    /// Optimizing-compiler share of `compile_cycles`.
    pub opt_compile_cycles: f64,
    /// Execution cycles of the first iteration (excluding compilation).
    pub first_iter_exec_cycles: f64,
    /// Steady-state execution breakdown.
    pub steady: ExecBreakdown,
    /// Total compiled code size (size units).
    pub code_size: u64,
    /// Aggregated inlining statistics.
    pub inline_stats: InlineStats,
    /// Methods at the optimizing level in the final state.
    pub n_opt_methods: usize,
    /// Methods still at the baseline level in the final state.
    pub n_baseline_methods: usize,
}

impl Measurement {
    /// Total time in seconds on the given machine.
    #[must_use]
    pub fn total_seconds(&self, arch: &ArchModel) -> f64 {
        arch.cycles_to_seconds(self.total_cycles)
    }

    /// Running time in seconds on the given machine.
    #[must_use]
    pub fn running_seconds(&self, arch: &ArchModel) -> f64 {
        arch.cycles_to_seconds(self.running_cycles)
    }
}

/// Measures a benchmark program under a scenario, architecture and
/// inlining-parameter vector: [`Prepared::new`], then one
/// [`Prepared::measure`]. Measure a program under many parameter vectors
/// through one `Prepared` instead.
///
/// `adapt_cfg` is only consulted under [`Scenario::Adapt`]; pass
/// `AdaptConfig::default()` otherwise.
#[must_use]
pub fn measure(
    program: &Program,
    scenario: Scenario,
    arch: &ArchModel,
    params: &InlineParams,
    adapt_cfg: &AdaptConfig,
) -> Measurement {
    Prepared::new(program, scenario, arch, adapt_cfg).measure(program, params)
}

/// Measures `program` baseline-compiled and never recompiled: `Adapt`
/// with no warm-up and no horizon, over which no recompilation pays.
#[must_use]
pub fn measure_baseline(program: &Program, arch: &ArchModel) -> Measurement {
    let never = AdaptConfig {
        warmup_fraction: 0.0,
        horizon_iters: 0.0,
        ..AdaptConfig::default()
    };
    let params = InlineParams::disabled();
    measure(program, Scenario::Adapt, arch, &params, &never)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{demo_program, MethodBuilder, ProgramBuilder};
    use ir::op::OpKind;

    /// A long-running program: hot kernel invoked many times.
    fn long_program() -> Program {
        let mut pb = ProgramBuilder::new("long");
        let mut kernel = MethodBuilder::new("kernel", 1);
        let mut acc = kernel.param(0);
        kernel.begin_loop(2000);
        acc = kernel.op(OpKind::FMul, acc, 5i64);
        kernel.end();
        kernel.ret(acc);
        let kid = pb.add(kernel);
        let mut main = MethodBuilder::new("main", 0);
        let seed = main.op(OpKind::Mov, 3i64, 0i64);
        main.begin_loop(300);
        let s = pb.fresh_site();
        main.call(s, kid, vec![seed.into()], false);
        main.end();
        main.ret(seed);
        let id = pb.add(main);
        pb.entry(id);
        pb.build().unwrap()
    }

    #[test]
    fn opt_total_includes_compile_time() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let m = measure(
            &p,
            Scenario::Opt,
            &arch,
            &InlineParams::jikes_default(),
            &AdaptConfig::default(),
        );
        assert!(m.total_cycles > m.running_cycles);
        assert!((m.total_cycles - m.compile_cycles - m.running_cycles).abs() < 1e-6);
        assert_eq!(m.baseline_compile_cycles, 0.0);
        assert_eq!(m.n_baseline_methods, 0);
    }

    #[test]
    fn adapt_recompiles_hot_kernel() {
        let p = long_program();
        let arch = ArchModel::pentium4();
        let m = measure(
            &p,
            Scenario::Adapt,
            &arch,
            &InlineParams::jikes_default(),
            &AdaptConfig::default(),
        );
        assert!(m.n_opt_methods >= 1, "kernel must be recompiled");
        assert!(m.baseline_compile_cycles > 0.0);
        assert!(m.opt_compile_cycles > 0.0);
        // Steady state is faster than the first iteration's mixed execution.
        assert!(m.running_cycles < m.first_iter_exec_cycles);
    }

    #[test]
    fn adapt_compiles_less_than_opt_for_mostly_cold_code() {
        // Many cold methods, one hot kernel: Adapt should spend much less
        // on compilation than Opt.
        let mut pb = ProgramBuilder::new("coldheavy");
        let mut cold_ids = Vec::new();
        for i in 0..30 {
            let mut mb = MethodBuilder::new(format!("cold{i}"), 1);
            let mut v = mb.param(0);
            for _ in 0..40 {
                v = mb.op(OpKind::Add, v, 1i64);
            }
            mb.ret(v);
            cold_ids.push(pb.add(mb));
        }
        let mut kernel = MethodBuilder::new("kernel", 1);
        let mut acc = kernel.param(0);
        kernel.begin_loop(5000);
        acc = kernel.op(OpKind::FMul, acc, 5i64);
        kernel.end();
        kernel.ret(acc);
        let kid = pb.add(kernel);
        let mut main = MethodBuilder::new("main", 0);
        let seed = main.op(OpKind::Mov, 3i64, 0i64);
        for &c in &cold_ids {
            let s = pb.fresh_site();
            main.call(s, c, vec![seed.into()], false);
        }
        main.begin_loop(200);
        let s = pb.fresh_site();
        main.call(s, kid, vec![seed.into()], false);
        main.end();
        main.ret(seed);
        let id = pb.add(main);
        pb.entry(id);
        let p = pb.build().unwrap();

        let arch = ArchModel::pentium4();
        let params = InlineParams::jikes_default();
        let cfg = AdaptConfig::default();
        let adapt = measure(&p, Scenario::Adapt, &arch, &params, &cfg);
        let opt = measure(&p, Scenario::Opt, &arch, &params, &cfg);
        assert!(
            adapt.compile_cycles < opt.compile_cycles / 2.0,
            "adapt {} vs opt {}",
            adapt.compile_cycles,
            opt.compile_cycles
        );
        // But Opt's steady running time is at least as good.
        assert!(opt.running_cycles <= adapt.running_cycles * 1.001);
    }

    #[test]
    fn inlining_beats_no_inlining_on_running_time_under_opt() {
        let p = long_program();
        let arch = ArchModel::pentium4();
        let cfg = AdaptConfig::default();
        let with = measure(
            &p,
            Scenario::Opt,
            &arch,
            &InlineParams::jikes_default(),
            &cfg,
        );
        let without = measure(&p, Scenario::Opt, &arch, &InlineParams::disabled(), &cfg);
        assert!(with.running_cycles < without.running_cycles);
    }

    #[test]
    fn measurements_are_deterministic() {
        let p = long_program();
        let arch = ArchModel::powerpc_g4();
        let cfg = AdaptConfig::default();
        let a = measure(
            &p,
            Scenario::Adapt,
            &arch,
            &InlineParams::jikes_default(),
            &cfg,
        );
        let b = measure(
            &p,
            Scenario::Adapt,
            &arch,
            &InlineParams::jikes_default(),
            &cfg,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn the_baseline_measurement_recompiles_nothing() {
        let p = long_program();
        let arch = ArchModel::pentium4();
        let m = measure_baseline(&p, &arch);
        assert_eq!((m.n_opt_methods, m.n_baseline_methods), (0, 2));
        assert_eq!(m.opt_compile_cycles, 0.0);
        assert_eq!(m.compile_cycles, m.baseline_compile_cycles);
        assert_eq!(m.first_iter_exec_cycles, m.running_cycles);
        assert_eq!(m.total_cycles, m.compile_cycles + m.running_cycles);
        // The default controller does recompile the hot kernel.
        let cfg = AdaptConfig::default();
        let adapt = measure(&p, Scenario::Adapt, &arch, &InlineParams::disabled(), &cfg);
        assert!(adapt.n_opt_methods > 0);
        assert_eq!(adapt.baseline_compile_cycles, m.baseline_compile_cycles);
    }

    #[test]
    fn seconds_conversions_consistent() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let m = measure(
            &p,
            Scenario::Opt,
            &arch,
            &InlineParams::jikes_default(),
            &AdaptConfig::default(),
        );
        assert!((m.total_seconds(&arch) * arch.clock_hz - m.total_cycles).abs() < 1e-6);
    }
}
