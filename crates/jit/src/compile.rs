//! The two compilers and the VM state they produce.
//!
//! A [`VmState`] is a snapshot of "what code the VM is currently running":
//! for every reachable method, which compiler produced its current code
//! (baseline or opt) and — for opt methods — the post-inlining body. The
//! execution model in [`crate::exec`] prices a state; the scenario driver
//! in [`crate::scenario`] sequences states (baseline-everything →
//! selectively recompiled) and accounts for the compile cycles spent on
//! each transition.

use std::collections::BTreeMap;

use inliner::{inline_method_region, DecisionRegion, HotSites, InlineParams, InlineStats};
use ir::method::{Method, MethodId};
use ir::program::Program;
use ir::size::method_size;

use crate::arch::ArchModel;
use crate::passes::{PassSet, PassStats};

/// Which compiler produced a method's current code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileLevel {
    /// Fast non-optimizing compiler: original body, no inlining, code runs
    /// `baseline_slowdown`× slower.
    Baseline,
    /// Optimizing compiler: inlined body, full-speed code.
    Opt,
}

/// Per-method compilation record inside a [`VmState`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMethod {
    /// Compiler level of the current code.
    pub level: CompileLevel,
    /// Estimated machine-code size of the current code (post-inlining for
    /// opt methods).
    pub code_size: u32,
    /// Original (bytecode) size of the method.
    pub original_size: u32,
    /// Inlining statistics (zeroed for baseline-compiled methods).
    pub inline_stats: InlineStats,
    /// Post-inlining optimizer statistics (zeroed for baseline methods).
    pub opt_stats: PassStats,
    /// Cycles the compiler spent producing this code.
    pub compile_cycles: f64,
}

/// A snapshot of the VM's compiled code.
#[derive(Debug, Clone, PartialEq)]
pub struct VmState {
    /// The *executable* program: opt methods carry their inlined bodies,
    /// baseline methods their original bodies. Running `ir::freq` on this
    /// program yields the true post-inlining execution frequencies.
    pub program: Program,
    /// Compilation records for every reachable (hence compiled) method.
    /// Ordered by method id so that every float aggregation over it is
    /// bit-deterministic (a `HashMap`'s per-instance iteration order would
    /// perturb sums by ULPs between otherwise identical runs).
    pub compiled: BTreeMap<MethodId, CompiledMethod>,
}

impl VmState {
    /// Total compile cycles invested in this state.
    #[must_use]
    pub fn total_compile_cycles(&self) -> f64 {
        self.compiled.values().map(|c| c.compile_cycles).sum()
    }

    /// Total compiled code size (size units) across all methods.
    #[must_use]
    pub fn total_code_size(&self) -> u64 {
        self.compiled.values().map(|c| u64::from(c.code_size)).sum()
    }

    /// Aggregated inlining statistics over all methods.
    #[must_use]
    pub fn aggregate_inline_stats(&self) -> InlineStats {
        let mut total = InlineStats::default();
        for c in self.compiled.values() {
            total.merge(&c.inline_stats);
        }
        total
    }

    /// The compile level of a method (None if never compiled, i.e.
    /// unreachable).
    #[must_use]
    pub fn level(&self, m: MethodId) -> Option<CompileLevel> {
        self.compiled.get(&m).map(|c| c.level)
    }
}

/// The baseline compiler's record for a method of `size` units: the code
/// is the original body (the baseline compiler does not inline — the paper
/// notes it performs "no optimizations, not even inlining").
pub(crate) fn baseline_record(size: u32, arch: &ArchModel) -> CompiledMethod {
    CompiledMethod {
        level: CompileLevel::Baseline,
        code_size: size,
        original_size: size,
        inline_stats: InlineStats::default(),
        opt_stats: PassStats::default(),
        compile_cycles: arch.baseline_compile_cycles(size),
    }
}

/// Compiles every reachable method with the baseline compiler.
///
/// This is the initial state of the `Adapt` scenario: bodies are
/// untouched.
#[must_use]
pub fn compile_all_baseline(program: &Program, arch: &ArchModel) -> VmState {
    let compiled = program
        .reachable()
        .into_iter()
        .map(|id| (id, baseline_record(method_size(program.method(id)), arch)))
        .collect();
    VmState {
        program: program.clone(),
        compiled,
    }
}

/// Compiles every reachable method with the optimizing compiler under the
/// given inlining parameters.
///
/// This is the whole `Opt` scenario state. `hot` is empty under `Opt`
/// (there is no profile); the adaptive driver passes the profiled hot-site
/// set when it recompiles.
#[must_use]
pub fn compile_all_opt(
    program: &Program,
    arch: &ArchModel,
    params: &InlineParams,
    hot: &HotSites,
) -> VmState {
    let mut state = VmState {
        program: program.clone(),
        compiled: BTreeMap::new(),
    };
    for id in program.reachable() {
        opt_compile_into(&mut state, program, id, arch, params, hot);
    }
    state
}

/// Opt-compiles one method, the optimizer running `passes`: the compiled
/// body, its record, and the [`DecisionRegion`] of parameter vectors that
/// would have compiled it to exactly this body and record.
///
/// Inlining decisions read the *original* program (bytecode sizes), exactly
/// like a JIT inlining from bytecode, so the result depends on nothing but
/// the arguments: compilation order is irrelevant.
#[must_use]
pub fn opt_compile_method(
    original: &Program,
    id: MethodId,
    arch: &ArchModel,
    params: &InlineParams,
    hot: &HotSites,
    passes: PassSet,
) -> (Method, CompiledMethod, DecisionRegion) {
    let (mut method, stats, region) = inline_method_region(original, id, params, hot);
    // Post-inlining optimization: constant propagation through the spliced
    // argument moves, then dead-code elimination of what the constants
    // killed. Compile time is charged for the *pre-optimization* size (the
    // optimizer has to chew through everything the inliner produced).
    let opt_stats = passes.run(&mut method);
    let record = CompiledMethod {
        level: CompileLevel::Opt,
        code_size: method_size(&method),
        original_size: method_size(original.method(id)),
        inline_stats: stats,
        opt_stats,
        compile_cycles: arch.opt_compile_cycles(stats.final_size),
    };
    (method, record, region)
}

/// Opt-compiles (or recompiles) one method into an existing state,
/// replacing its body and compile record. Returns the compile cycles spent.
pub fn opt_compile_into(
    state: &mut VmState,
    original: &Program,
    id: MethodId,
    arch: &ArchModel,
    params: &InlineParams,
    hot: &HotSites,
) -> f64 {
    let (method, record, _) = opt_compile_method(original, id, arch, params, hot, PassSet::FULL);
    let compile_cycles = record.compile_cycles;
    state.program.methods[id.index()] = method;
    state.compiled.insert(id, record);
    compile_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::demo_program;

    #[test]
    fn baseline_state_copies_program_and_prices_methods() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let s = compile_all_baseline(&p, &arch);
        assert_eq!(s.program, p);
        assert_eq!(s.compiled.len(), 2);
        for c in s.compiled.values() {
            assert_eq!(c.level, CompileLevel::Baseline);
            assert_eq!(c.code_size, c.original_size);
            assert!(c.compile_cycles > 0.0);
        }
    }

    #[test]
    fn opt_state_inlines_and_costs_more() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let base = compile_all_baseline(&p, &arch);
        let opt = compile_all_opt(&p, &arch, &InlineParams::jikes_default(), &HotSites::new());
        assert!(opt.total_compile_cycles() > base.total_compile_cycles());
        // `inc` was inlined into `main`: main's call sites disappear.
        let main = opt.program.method(p.entry);
        assert_eq!(main.call_site_count(), 0);
        assert!(opt.aggregate_inline_stats().inlined >= 1);
    }

    #[test]
    fn opt_with_disabled_params_still_optimizes_bodies() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let opt = compile_all_opt(&p, &arch, &InlineParams::disabled(), &HotSites::new());
        assert_eq!(opt.aggregate_inline_stats().inlined, 0);
        // No inlining, but the optimizer still runs (and must preserve
        // semantics).
        let before = ir::interp::run(&p, &[], &ir::interp::InterpLimits::default()).unwrap();
        let after =
            ir::interp::run(&opt.program, &[], &ir::interp::InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(before.heap_digest, after.heap_digest);
    }

    #[test]
    fn recompile_replaces_level() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let mut s = compile_all_baseline(&p, &arch);
        let cycles = opt_compile_into(
            &mut s,
            &p,
            p.entry,
            &arch,
            &InlineParams::jikes_default(),
            &HotSites::new(),
        );
        assert!(cycles > 0.0);
        assert_eq!(s.level(p.entry), Some(CompileLevel::Opt));
        // The other method is still baseline.
        let other = p.methods.iter().find(|m| m.id != p.entry).unwrap().id;
        assert_eq!(s.level(other), Some(CompileLevel::Baseline));
    }

    #[test]
    fn unreachable_methods_are_never_compiled() {
        let mut p = demo_program();
        // Add a dead method.
        p.methods.push(ir::Method {
            id: MethodId(2),
            name: "dead".into(),
            n_params: 0,
            n_regs: 1,
            body: vec![],
            ret: 0i64.into(),
        });
        let s = compile_all_baseline(&p, &ArchModel::pentium4());
        assert_eq!(s.level(MethodId(2)), None);
    }
}
