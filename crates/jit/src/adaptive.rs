//! The adaptive optimization system: profiling and the cost/benefit
//! recompilation policy.
//!
//! Models the Jikes RVM adaptive system of Arnold et al. (OOPSLA 2000),
//! which the paper's `Adapt` scenario uses: all methods start baseline-
//! compiled; an online profile identifies where baseline time is going;
//! a method is recompiled at the optimizing level when the *estimated
//! future savings* exceed the *estimated compile cost*.
//!
//! The profile also classifies call sites as hot (edge counts above a
//! threshold); hot sites in recompiled methods are decided by the paper's
//! Fig. 4 single-threshold heuristic instead of the Fig. 3 cascade.
//!
//! The plan deliberately does **not** depend on the inlining parameters:
//! the controller decides *what* to recompile from the baseline profile
//! before the optimizing compiler (and its heuristic) ever runs — exactly
//! the information structure of the real system. That is why
//! [`crate::prepared::Prepared`] computes the plan once per program and
//! every parameter vector a search evaluates is measured against it.

use inliner::HotSites;
use ir::freq::{analyze, FreqAnalysis};
use ir::method::MethodId;
use ir::program::Program;
use ir::size::method_size;

use crate::arch::ArchModel;

/// Tunables of the adaptive controller (not part of the searched genome —
/// these model the VM, not the heuristic being tuned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Fraction of the first iteration executed at baseline speed before
    /// hot methods are recompiled (sampling + compilation latency). Hot
    /// spots of a full benchmark run surface early, so this is small.
    pub warmup_fraction: f64,
    /// Expected future iterations the controller assumes when weighing
    /// recompilation (the "program will run as long again" heuristic).
    pub horizon_iters: f64,
    /// A call site is *hot* when its executions exceed this fraction of
    /// all dynamic calls (an edge-profile share, like the Jikes sampler's
    /// relative threshold) — so only the genuinely dominant edges get the
    /// Fig. 4 treatment.
    pub hot_site_fraction: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            warmup_fraction: 0.12,
            horizon_iters: 6.0,
            hot_site_fraction: 0.01,
        }
    }
}

/// The controller's output: what to recompile and which sites are hot.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePlan {
    /// Methods selected for optimizing recompilation, hottest first.
    pub hot_methods: Vec<MethodId>,
    /// Call sites whose execution count crossed the hot threshold.
    pub hot_sites: HotSites,
    /// Per-iteration baseline op cycles attributed to each selected method
    /// (parallel to `hot_methods`; used by reports).
    pub method_cycles: Vec<f64>,
}

impl AdaptivePlan {
    /// Whether the plan recompiles anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hot_methods.is_empty()
    }
}

/// Runs the profile-driven cost/benefit analysis on the original program.
#[must_use]
pub fn plan(program: &Program, arch: &ArchModel, cfg: &AdaptConfig) -> AdaptivePlan {
    plan_from(&analyze(program, 1.0), program, arch, cfg)
}

/// [`plan`] over an already computed profile `fa` of `program`.
pub(crate) fn plan_from(
    fa: &FreqAnalysis,
    program: &Program,
    arch: &ArchModel,
    cfg: &AdaptConfig,
) -> AdaptivePlan {
    // Savings factor: recompiling converts baseline-speed op cycles into
    // opt-speed ones.
    let saving_ratio = 1.0 - 1.0 / arch.baseline_slowdown;

    let mut candidates: Vec<(MethodId, f64)> = Vec::new();
    for (mi, local) in fa.locals.iter().enumerate() {
        let entries = fa.entries[mi];
        if entries <= 0.0 {
            continue;
        }
        let per_entry: f64 = local
            .ops_per_entry
            .iter()
            .zip(&arch.class_cycles)
            .map(|(units, cost)| units * cost)
            .sum();
        let baseline_cycles = entries * per_entry * arch.baseline_slowdown;
        let id = program.methods[mi].id;
        let compile_cost = arch.opt_compile_cycles(method_size(program.method(id)));
        let expected_saving = baseline_cycles * saving_ratio * cfg.horizon_iters;
        if expected_saving > compile_cost {
            candidates.push((id, baseline_cycles));
        }
    }
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let total_calls: f64 = fa.site_counts.values().sum();
    let hot_cutoff = cfg.hot_site_fraction * total_calls;
    let hot_sites: HotSites = fa
        .site_counts
        .iter()
        .filter(|&(_, &count)| count >= hot_cutoff && count > 0.0)
        .map(|(&site, _)| site)
        .collect();

    let (hot_methods, method_cycles) = candidates.into_iter().unzip();
    AdaptivePlan {
        hot_methods,
        hot_sites,
        method_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{MethodBuilder, ProgramBuilder};
    use ir::op::OpKind;

    /// A program with one hot compute kernel and one cold helper.
    fn skewed_program(kernel_trips: u32) -> Program {
        let mut pb = ProgramBuilder::new("skewed");

        let mut kernel = MethodBuilder::new("kernel", 1);
        let mut acc = kernel.param(0);
        kernel.begin_loop(1000);
        acc = kernel.op(OpKind::FMul, acc, 3i64);
        kernel.end();
        kernel.ret(acc);
        let kernel_id = pb.add(kernel);

        let mut cold = MethodBuilder::new("cold", 1);
        let v = cold.op(OpKind::Add, cold.param(0), 1i64);
        cold.ret(v);
        let cold_id = pb.add(cold);

        let mut main = MethodBuilder::new("main", 0);
        let seed = main.op(OpKind::Mov, 7i64, 0i64);
        main.begin_loop(kernel_trips);
        let s1 = pb.fresh_site();
        main.call(s1, kernel_id, vec![seed.into()], false);
        main.end();
        let s2 = pb.fresh_site();
        main.call(s2, cold_id, vec![seed.into()], false);
        main.ret(seed);
        let main_id = pb.add(main);
        pb.entry(main_id);
        pb.build().unwrap()
    }

    #[test]
    fn hot_kernel_is_selected_cold_helper_is_not() {
        let p = skewed_program(500);
        let plan = plan(&p, &ArchModel::pentium4(), &AdaptConfig::default());
        let kernel = p.methods.iter().find(|m| m.name == "kernel").unwrap().id;
        let cold = p.methods.iter().find(|m| m.name == "cold").unwrap().id;
        assert!(plan.hot_methods.contains(&kernel));
        assert!(!plan.hot_methods.contains(&cold));
    }

    #[test]
    fn short_running_program_recompiles_nothing() {
        // One kernel invocation: savings cannot amortize the compile cost.
        let mut pb = ProgramBuilder::new("short");
        let mut m = MethodBuilder::new("main", 0);
        let v = m.op(OpKind::Add, 1i64, 2i64);
        m.ret(v);
        let id = pb.add(m);
        pb.entry(id);
        let p = pb.build().unwrap();
        let plan = plan(&p, &ArchModel::pentium4(), &AdaptConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn hot_methods_sorted_hottest_first() {
        let p = skewed_program(800);
        let plan = plan(&p, &ArchModel::pentium4(), &AdaptConfig::default());
        for w in plan.method_cycles.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn hot_sites_require_execution_share() {
        let p = skewed_program(500);
        let cfg = AdaptConfig::default();
        let plan = plan(&p, &ArchModel::pentium4(), &cfg);
        // The kernel call site carries ~500/501 of all calls → hot; the
        // cold site carries ~0.2% → not hot.
        assert_eq!(plan.hot_sites.len(), 1);
    }

    #[test]
    fn larger_horizon_recompiles_no_fewer_methods() {
        let p = skewed_program(40);
        let arch = ArchModel::pentium4();
        let small = plan(
            &p,
            &arch,
            &AdaptConfig {
                horizon_iters: 0.5,
                ..AdaptConfig::default()
            },
        );
        let large = plan(
            &p,
            &arch,
            &AdaptConfig {
                horizon_iters: 8.0,
                ..AdaptConfig::default()
            },
        );
        assert!(large.hot_methods.len() >= small.hot_methods.len());
    }
}
