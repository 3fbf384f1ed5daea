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

use inliner::{
    inline_method_into, inline_method_region, DecisionRegion, HotSites, InlineParams, InlineStats,
};
use ir::freq::MethodLocal;
use ir::method::{Method, MethodId};
use ir::program::Program;
use ir::size::method_size;

use crate::arch::ArchModel;
use crate::passes::{optimize_emitted, PassSet, PassStats};

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
///
/// This builds the inlined method as a tree, which the `VmState`
/// functions keep. A [`crate::Prepared`] measurement needs only the
/// record and the body's local profile, and under [`PassSet::FULL`] gets
/// both without the tree (`opt_compile_flat`); it falls back to this
/// function where that path declines.
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
    let record = opt_record(original, id, arch, stats, opt_stats, method_size(&method));
    (method, record, region)
}

/// [`opt_compile_method`] under [`PassSet::FULL`] without building the
/// inlined body: the inliner streams it into the DCE index
/// (`passes::optimize_emitted`), and the record's sizes and the compiled
/// body's local profile are read off the statements that survive. `None`
/// where the index declines (a body that reuses a register or gives
/// `const_prop` a constant source, which no benchmark program produces);
/// [`opt_compile_method`] then does it on the tree. Otherwise the record,
/// profile and region equal that function's, with
/// [`ir::freq::local_profile`] of its body.
pub(crate) fn opt_compile_flat(
    original: &Program,
    id: MethodId,
    arch: &ArchModel,
    params: &InlineParams,
    hot: &HotSites,
) -> Option<(CompiledMethod, MethodLocal, DecisionRegion)> {
    let ((mut stats, region), out) = optimize_emitted(original.method(id), |sink| {
        inline_method_into(original, id, params, hot, sink)
    })?;
    stats.final_size = out.emitted_size;
    let record = opt_record(original, id, arch, stats, out.stats, out.code_size);
    Some((record, out.local, region))
}

/// The record of an opt-compiled method whose inlined body the passes
/// left at `code_size`.
fn opt_record(
    original: &Program,
    id: MethodId,
    arch: &ArchModel,
    stats: InlineStats,
    opt_stats: PassStats,
    code_size: u32,
) -> CompiledMethod {
    CompiledMethod {
        level: CompileLevel::Opt,
        code_size,
        original_size: method_size(original.method(id)),
        inline_stats: stats,
        opt_stats,
        compile_cycles: arch.opt_compile_cycles(stats.final_size),
    }
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
    use ir::freq::local_profile;
    use ir::op::{OpKind, Operand};
    use ir::stmt::Stmt;

    /// Folds every register of every method into `0..k`, so most
    /// methods write some register twice.
    fn reuse_registers(program: &mut Program, k: u16) {
        let fold = |o: &mut Operand| {
            if let Operand::Reg(r) = o {
                r.0 %= k;
            }
        };
        for m in &mut program.methods {
            for stmt in &mut m.body {
                stmt.visit_mut(&mut |s| match s {
                    Stmt::Op(o) => {
                        o.dst.0 %= k;
                        fold(&mut o.a);
                        fold(&mut o.b);
                    }
                    Stmt::Call(c) => {
                        c.args.iter_mut().for_each(fold);
                        if let Some(d) = &mut c.dst {
                            d.0 %= k;
                        }
                    }
                    Stmt::If { cond, .. } => fold(cond),
                    Stmt::Loop { .. } => {}
                });
            }
        }
    }

    /// Turns every constant source a method can hold or hand the
    /// inliner into a non-constant: a `Mov` of an immediate and a pure op
    /// on two become loads, and an immediate argument, return value or
    /// branch condition reads register 0.
    fn strip_constants(program: &mut Program) {
        for m in &mut program.methods {
            if m.n_regs == 0 {
                continue;
            }
            let reg0 = |o: &mut Operand| {
                if let Operand::Imm(_) = o {
                    *o = Operand::Reg(ir::op::Reg(0));
                }
            };
            reg0(&mut m.ret);
            for stmt in &mut m.body {
                stmt.visit_mut(&mut |s| match s {
                    Stmt::Op(o) => {
                        let imm = |x: Operand| matches!(x, Operand::Imm(_));
                        let constant = match o.op {
                            OpKind::Mov => imm(o.a),
                            OpKind::Load | OpKind::Store => false,
                            _ => imm(o.a) && imm(o.b),
                        };
                        if constant {
                            o.op = OpKind::Load;
                        }
                    }
                    Stmt::Call(c) => c.args.iter_mut().for_each(reg0),
                    Stmt::If { cond, .. } => reg0(cond),
                    Stmt::Loop { .. } => {}
                });
            }
        }
    }

    /// Whether `method` writes a parameter or some register twice, and
    /// whether it gives `const_prop` a constant to start from.
    fn reuse_and_source(method: &Method) -> (bool, bool) {
        let mut writes = vec![0u32; usize::from(method.n_regs)];
        writes[..usize::from(method.n_params)].fill(1);
        let (mut source, imm) = (false, |o: &Operand| matches!(o, Operand::Imm(_)));
        ir::stmt::visit_body(&method.body, &mut |s| match s {
            Stmt::Op(o) => {
                if o.op.writes_dst() {
                    writes[usize::from(o.dst.0)] += 1;
                }
                source |= match o.op {
                    OpKind::Mov => imm(&o.a),
                    OpKind::Load | OpKind::Store => false,
                    _ => imm(&o.a) && imm(&o.b),
                };
            }
            Stmt::Call(c) => {
                if let Some(d) = c.dst {
                    writes[usize::from(d.0)] += 1;
                }
            }
            Stmt::If { cond, .. } => source |= imm(cond),
            Stmt::Loop { .. } => {}
        });
        (writes.iter().any(|&w| w > 1), source)
    }

    /// On random programs, some with their registers folded together, a
    /// unit compiles without its body exactly when the inlined method is
    /// single-assignment and has no constant source, and then equals the
    /// unit of the tree path: record, profile (bit for bit) and region.
    /// Each of the three cases occurs.
    #[test]
    fn a_unit_compiles_flat_or_declines_to_the_tree_and_equals_it() {
        let arch = ArchModel::pentium4();
        let (mut flat, mut source, mut reuse) = (0, 0, 0);
        simrng::cases("a_unit_compiles_flat_or_declines_to_the_tree", |rng| {
            let mut program = ir::testgen::random_program(rng, &ir::testgen::GenConfig::default());
            match rng.below(3) {
                0 => {}
                1 => strip_constants(&mut program),
                _ => reuse_registers(&mut program, 4),
            }
            let genes: Vec<i64> = inliner::ParamRanges::paper()
                .bounds
                .iter()
                .map(|&(lo, hi)| rng.range_i64(lo, hi))
                .collect();
            let params = InlineParams::from_genes(&genes);
            let hot: HotSites = program
                .methods
                .iter()
                .flat_map(|m| ir::stmt::call_sites(&m.body))
                .map(|c| c.site)
                .filter(|_| rng.chance(0.3))
                .collect();
            for m in &program.methods {
                let (method, record, region) =
                    opt_compile_method(&program, m.id, &arch, &params, &hot, PassSet::FULL);
                let tree = (record, local_profile(&method.body), region);
                let (inlined, _) = inliner::inline_method(&program, m.id, &params, &hot);
                let (reuses, sources) = reuse_and_source(&inlined);
                match opt_compile_flat(&program, m.id, &arch, &params, &hot) {
                    Some(got) => {
                        assert!(!reuses && !sources, "{}", m.name);
                        assert_eq!(got, tree, "{}", m.name);
                        assert_eq!(format!("{got:?}"), format!("{tree:?}"), "{}", m.name);
                        flat += 1;
                    }
                    None if reuses => reuse += 1,
                    None => {
                        assert!(sources, "{} declined", m.name);
                        source += 1;
                    }
                }
            }
        });
        assert!(
            flat > 100 && source > 100 && reuse > 100,
            "{flat} {source} {reuse}"
        );
    }

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
