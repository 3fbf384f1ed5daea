//! The inlining transformation: body splicing under the heuristic's
//! control.
//!
//! For each call site the transformer consults the decision procedures of
//! [`crate::decision`]; on YES it replaces the call with
//!
//! 1. one `Mov` per parameter (argument → renamed callee parameter
//!    register),
//! 2. the callee's body with every register shifted into a freshly
//!    reserved block of the caller's frame,
//! 3. one `Mov` for the return value (if the call's result is used),
//!
//! and then recursively considers the *callee's* call sites at
//! `depth + 1` — so `MAX_INLINE_DEPTH` bounds transitive inlining exactly as
//! in Jikes RVM. The running caller-size estimate grows with each decision,
//! which is what gives `CALLER_MAX_SIZE` its cumulative-code-growth meaning.
//!
//! Guards beyond the paper's pseudo-code (both present in Jikes RVM's
//! implementation): an **inline stack** rejects direct or mutual recursion,
//! and a **frame limit** rejects splices that would overflow the `u16`
//! register file.

use std::collections::{HashMap, HashSet};

use ir::method::{Method, MethodId};
use ir::op::{OpKind, Operand, Reg};
use ir::program::Program;
use ir::size::{body_size, method_size};
use ir::stmt::{CallSiteId, CallStmt, OpStmt, Stmt};

use crate::decision::{
    hot_decision_in, static_decision_in, DecisionRegion, InlineDecision, RejectReason,
};
use crate::params::InlineParams;

/// One record of the `-verbose:inline`-style decision trace: what the
/// heuristic saw and what it chose, at one (possibly spliced) call site.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The call site (stable under splicing — copies share the id).
    pub site: CallSiteId,
    /// The callee under consideration.
    pub callee: MethodId,
    /// Inline depth at the decision (0 = original body).
    pub depth: u32,
    /// The callee's estimated (bytecode) size.
    pub callee_size: u32,
    /// The caller's running size estimate at decision time.
    pub caller_size: u32,
    /// Whether the site was profiled hot (Fig. 4 applied).
    pub hot: bool,
    /// The verdict.
    pub decision: InlineDecision,
}

/// The set of call sites the adaptive system's profile marked hot.
///
/// Hot sites are decided by the Fig. 4 single-threshold test instead of the
/// Fig. 3 cascade. Pass an empty set under the optimizing scenario.
pub type HotSites = HashSet<CallSiteId>;

/// Per-method inlining statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InlineStats {
    /// Call sites examined (including sites inside spliced bodies).
    pub considered: u32,
    /// Sites inlined (all kinds).
    pub inlined: u32,
    /// Sites inlined by the always-inline test.
    pub always_inlined: u32,
    /// Hot sites examined with the Fig. 4 test.
    pub hot_considered: u32,
    /// Hot sites inlined.
    pub hot_inlined: u32,
    /// Rejections: callee exceeded `CALLEE_MAX_SIZE`.
    pub rej_callee_size: u32,
    /// Rejections: depth exceeded `MAX_INLINE_DEPTH`.
    pub rej_depth: u32,
    /// Rejections: caller exceeded `CALLER_MAX_SIZE`.
    pub rej_caller_size: u32,
    /// Rejections: hot callee exceeded `HOT_CALLEE_MAX_SIZE`.
    pub rej_hot_size: u32,
    /// Rejections: recursion guard.
    pub rej_recursive: u32,
    /// Rejections: register-frame limit.
    pub rej_frame: u32,
    /// Estimated size of the method after inlining (the `S` the compile-time
    /// model charges for).
    pub final_size: u32,
    /// Deepest inline depth actually spliced.
    pub max_depth_spliced: u32,
}

impl InlineStats {
    /// Accumulates another method's stats into this one.
    pub fn merge(&mut self, o: &InlineStats) {
        self.considered += o.considered;
        self.inlined += o.inlined;
        self.always_inlined += o.always_inlined;
        self.hot_considered += o.hot_considered;
        self.hot_inlined += o.hot_inlined;
        self.rej_callee_size += o.rej_callee_size;
        self.rej_depth += o.rej_depth;
        self.rej_caller_size += o.rej_caller_size;
        self.rej_hot_size += o.rej_hot_size;
        self.rej_recursive += o.rej_recursive;
        self.rej_frame += o.rej_frame;
        self.final_size += o.final_size;
        self.max_depth_spliced = self.max_depth_spliced.max(o.max_depth_spliced);
    }

    fn record_reject(&mut self, r: RejectReason) {
        match r {
            RejectReason::CalleeTooBig => self.rej_callee_size += 1,
            RejectReason::TooDeep => self.rej_depth += 1,
            RejectReason::CallerTooBig => self.rej_caller_size += 1,
            RejectReason::HotCalleeTooBig => self.rej_hot_size += 1,
            RejectReason::Recursive => self.rej_recursive += 1,
            RejectReason::FrameLimit => self.rej_frame += 1,
        }
    }
}

struct Inliner<'a> {
    program: &'a Program,
    params: &'a InlineParams,
    hot: &'a HotSites,
    stats: InlineStats,
    /// Next free register in the caller frame (u32 to detect u16 overflow).
    next_reg: u32,
    /// Running caller size estimate (Fig. 3's `callerSize`).
    caller_size: u32,
    /// Methods on the current inline chain (recursion guard).
    stack: Vec<MethodId>,
    /// The parameter vectors that would have decided every site so far
    /// the same way.
    region: DecisionRegion,
    /// Optional `-verbose:inline` trace sink.
    trace: Option<Vec<DecisionRecord>>,
}

impl Inliner<'_> {
    fn remap(o: Operand, offset: u16) -> Operand {
        match o {
            Operand::Reg(r) => Operand::Reg(Reg(r.0 + offset)),
            imm @ Operand::Imm(_) => imm,
        }
    }

    fn decide(&mut self, call: &CallStmt, depth: u32) -> InlineDecision {
        let callee = self.program.method(call.callee);
        let callee_size = method_size(callee);
        self.stats.considered += 1;

        let is_hot = self.hot.contains(&call.site);
        let decision = if self.stack.contains(&call.callee) {
            InlineDecision::No(RejectReason::Recursive)
        } else {
            let d = if is_hot {
                self.stats.hot_considered += 1;
                hot_decision_in(callee_size, self.params, &mut self.region)
            } else {
                static_decision_in(
                    callee_size,
                    depth,
                    self.caller_size,
                    self.params,
                    &mut self.region,
                )
            };
            if d.is_inline() && self.next_reg + u32::from(callee.n_regs) > u32::from(u16::MAX) {
                InlineDecision::No(RejectReason::FrameLimit)
            } else {
                d
            }
        };
        if let Some(trace) = &mut self.trace {
            trace.push(DecisionRecord {
                site: call.site,
                callee: call.callee,
                depth,
                callee_size,
                caller_size: self.caller_size,
                hot: is_hot,
                decision,
            });
        }
        decision
    }

    fn expand_body(&mut self, body: &[Stmt], offset: u16, depth: u32, out: &mut Vec<Stmt>) {
        for stmt in body {
            match stmt {
                Stmt::Op(o) => out.push(Stmt::Op(OpStmt {
                    op: o.op,
                    dst: Reg(o.dst.0 + offset),
                    a: Self::remap(o.a, offset),
                    b: Self::remap(o.b, offset),
                })),
                Stmt::Loop { trips, body } => {
                    let mut inner = Vec::with_capacity(body.len());
                    self.expand_body(body, offset, depth, &mut inner);
                    out.push(Stmt::Loop {
                        trips: *trips,
                        body: inner,
                    });
                }
                Stmt::If {
                    cond,
                    prob_true,
                    then_b,
                    else_b,
                } => {
                    let mut t = Vec::with_capacity(then_b.len());
                    let mut e = Vec::with_capacity(else_b.len());
                    self.expand_body(then_b, offset, depth, &mut t);
                    self.expand_body(else_b, offset, depth, &mut e);
                    out.push(Stmt::If {
                        cond: Self::remap(*cond, offset),
                        prob_true: *prob_true,
                        then_b: t,
                        else_b: e,
                    });
                }
                Stmt::Call(c) => {
                    let remapped = CallStmt {
                        site: c.site,
                        callee: c.callee,
                        args: c.args.iter().map(|a| Self::remap(*a, offset)).collect(),
                        dst: c.dst.map(|d| Reg(d.0 + offset)),
                    };
                    let decision = self.decide(&remapped, depth);
                    let was_hot = self.hot.contains(&remapped.site);
                    match decision {
                        InlineDecision::Yes | InlineDecision::YesAlways => {
                            self.stats.inlined += 1;
                            if decision == InlineDecision::YesAlways {
                                self.stats.always_inlined += 1;
                            }
                            if was_hot {
                                self.stats.hot_inlined += 1;
                            }
                            self.splice(&remapped, depth, out);
                        }
                        InlineDecision::No(reason) => {
                            self.stats.record_reject(reason);
                            out.push(Stmt::Call(remapped));
                        }
                    }
                }
            }
        }
    }

    /// Splices the callee body for an already-approved call.
    fn splice(&mut self, call: &CallStmt, depth: u32, out: &mut Vec<Stmt>) {
        let callee = self.program.method(call.callee);
        let new_offset = self.next_reg as u16;
        self.next_reg += u32::from(callee.n_regs);
        // Jikes-style size bookkeeping: the caller estimate grows by the
        // callee body it just absorbed.
        self.caller_size = self.caller_size.saturating_add(body_size(&callee.body));
        self.stats.max_depth_spliced = self.stats.max_depth_spliced.max(depth + 1);

        // 1. Argument plumbing.
        for (i, arg) in call.args.iter().enumerate() {
            out.push(Stmt::Op(OpStmt {
                op: OpKind::Mov,
                dst: Reg(new_offset + i as u16),
                a: *arg, // already remapped by the caller
                b: Operand::Imm(0),
            }));
        }
        // 2. Body, with nested call sites considered at depth + 1.
        self.stack.push(call.callee);
        self.expand_body(&callee.body, new_offset, depth + 1, out);
        self.stack.pop();
        // 3. Return-value plumbing.
        if let Some(dst) = call.dst {
            out.push(Stmt::Op(OpStmt {
                op: OpKind::Mov,
                dst,
                a: Self::remap(callee.ret, new_offset),
                b: Operand::Imm(0),
            }));
        }
    }
}

/// Applies the inlining heuristic to one method, returning the transformed
/// method and the decision statistics.
///
/// Decisions are made against the *original* program (callee sizes are
/// bytecode sizes, as in a JIT that inlines from bytecode), so transforming
/// methods in any order yields the same result.
#[must_use]
pub fn inline_method(
    program: &Program,
    id: MethodId,
    params: &InlineParams,
    hot: &HotSites,
) -> (Method, InlineStats) {
    let (m, stats, _) = inline_method_region(program, id, params, hot);
    (m, stats)
}

/// Like [`inline_method`], but also returns the [`DecisionRegion`] of this
/// run: every parameter vector inside it makes the same decisions at the
/// same sites, so it yields this very method and these very statistics.
#[must_use]
pub fn inline_method_region(
    program: &Program,
    id: MethodId,
    params: &InlineParams,
    hot: &HotSites,
) -> (Method, InlineStats, DecisionRegion) {
    let (m, stats, region, _) = inline_method_impl(program, id, params, hot, false);
    (m, stats, region)
}

/// Like [`inline_method`], but also returns the full decision trace — the
/// `-verbose:inline` log a compiler engineer would read to understand why
/// a site was or wasn't inlined. Records appear in decision order,
/// including decisions inside spliced bodies (recognizable by `depth > 0`).
#[must_use]
pub fn inline_method_traced(
    program: &Program,
    id: MethodId,
    params: &InlineParams,
    hot: &HotSites,
) -> (Method, InlineStats, Vec<DecisionRecord>) {
    let (m, stats, _, trace) = inline_method_impl(program, id, params, hot, true);
    (m, stats, trace)
}

fn inline_method_impl(
    program: &Program,
    id: MethodId,
    params: &InlineParams,
    hot: &HotSites,
    traced: bool,
) -> (Method, InlineStats, DecisionRegion, Vec<DecisionRecord>) {
    let m = program.method(id);
    let mut inliner = Inliner {
        program,
        params,
        hot,
        stats: InlineStats::default(),
        next_reg: u32::from(m.n_regs),
        caller_size: method_size(m),
        stack: vec![id],
        region: DecisionRegion::all(),
        trace: if traced { Some(Vec::new()) } else { None },
    };
    let mut body = Vec::with_capacity(m.body.len());
    inliner.expand_body(&m.body, 0, 0, &mut body);

    let n_regs = inliner.next_reg as u16;
    let mut out = Method {
        id: m.id,
        name: m.name.clone(),
        n_params: m.n_params,
        n_regs,
        body,
        ret: m.ret,
    };
    // The achieved size (may differ from the running estimate because the
    // estimate never subtracts the replaced call instructions).
    inliner.stats.final_size = method_size(&out);
    // Frames never shrink below the original.
    out.n_regs = out.n_regs.max(m.n_regs);
    (
        out,
        inliner.stats,
        inliner.region,
        inliner.trace.unwrap_or_default(),
    )
}

/// Applies [`inline_method`] to every listed method, producing a new
/// program (unlisted methods are copied verbatim) plus per-method stats.
#[must_use]
pub fn inline_program(
    program: &Program,
    params: &InlineParams,
    hot: &HotSites,
    targets: &[MethodId],
) -> (Program, HashMap<MethodId, InlineStats>) {
    let target_set: HashSet<MethodId> = targets.iter().copied().collect();
    let mut stats = HashMap::with_capacity(target_set.len());
    let methods = program
        .methods
        .iter()
        .map(|m| {
            if target_set.contains(&m.id) {
                let (nm, st) = inline_method(program, m.id, params, hot);
                stats.insert(m.id, st);
                nm
            } else {
                m.clone()
            }
        })
        .collect();
    (
        Program {
            name: program.name.clone(),
            methods,
            entry: program.entry,
            heap_size: program.heap_size,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{demo_program, MethodBuilder, ProgramBuilder};
    use ir::interp::{run, InterpLimits};
    use ir::validate::validate;

    use ir::op::OpKind;

    fn all_ids(p: &Program) -> Vec<MethodId> {
        p.methods.iter().map(|m| m.id).collect()
    }

    #[test]
    fn demo_inlines_and_preserves_semantics() {
        let p = demo_program();
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let (q, stats) = inline_program(
            &p,
            &InlineParams::jikes_default(),
            &HotSites::new(),
            &all_ids(&p),
        );
        assert!(validate(&q).is_empty());
        let after = run(&q, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(before.heap_digest, after.heap_digest);
        assert_eq!(before.fuel_used, after.fuel_used);
        // `inc` (size ~5) is below ALWAYS_INLINE_SIZE=11 → inlined.
        let main_stats = stats
            .values()
            .find(|s| s.inlined > 0)
            .expect("some inlining");
        assert_eq!(main_stats.always_inlined, main_stats.inlined);
        // The 10 dynamic calls disappear.
        assert_eq!(after.calls_executed, 0);
        assert_eq!(before.calls_executed, 10);
    }

    #[test]
    fn disabled_params_leave_program_unchanged() {
        let p = demo_program();
        let (q, stats) = inline_program(
            &p,
            &InlineParams::disabled(),
            &HotSites::new(),
            &all_ids(&p),
        );
        assert_eq!(p, q);
        assert!(stats.values().all(|s| s.inlined == 0));
    }

    /// Builds main -> a -> b -> c chain where every method is tiny.
    fn chain(depths: u32) -> Program {
        let mut pb = ProgramBuilder::new("chain");
        let mut prev: Option<MethodId> = None;
        for i in 0..depths {
            let mut mb = MethodBuilder::new(format!("c{i}"), 1);
            let v = mb.op(OpKind::Add, mb.param(0), 1i64);
            if let Some(callee) = prev {
                let site = pb.fresh_site();
                let r = mb.call(site, callee, vec![v.into()], true).unwrap();
                mb.ret(r);
            } else {
                mb.ret(v);
            }
            prev = Some(pb.add(mb));
        }
        let mut main = MethodBuilder::new("main", 0);
        let site = pb.fresh_site();
        let r = main
            .call(site, prev.unwrap(), vec![0i64.into()], true)
            .unwrap();
        main.ret(r);
        let id = pb.add(main);
        pb.entry(id);
        pb.build().unwrap()
    }

    #[test]
    fn depth_limit_bounds_transitive_inlining() {
        let p = chain(10);
        // Tiny methods are always-inlined regardless of depth, so use
        // params where the chain methods pass via the general tests only.
        let params = InlineParams {
            callee_max_size: 50,
            always_inline_size: 1, // nothing is "tiny"
            max_inline_depth: 3,
            caller_max_size: 4000,
            hot_callee_max_size: 0,
        };
        let (m, stats) = inline_method(&p, p.entry, &params, &HotSites::new());
        // Depth 0,1,2,3 inline (4 splices); the 5th call site is at depth 4.
        assert_eq!(stats.max_depth_spliced, 4);
        assert!(stats.rej_depth >= 1);
        // The transformed method still calls the rest of the chain.
        assert!(m.call_site_count() >= 1);
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let (q, _) = inline_program(&p, &params, &HotSites::new(), &all_ids(&p));
        let after = run(&q, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
    }

    #[test]
    fn always_inline_overrides_depth() {
        let p = chain(10);
        let params = InlineParams {
            callee_max_size: 50,
            always_inline_size: 30, // every chain method is "tiny"
            max_inline_depth: 1,
            caller_max_size: 4000,
            hot_callee_max_size: 0,
        };
        let (m, stats) = inline_method(&p, p.entry, &params, &HotSites::new());
        assert_eq!(stats.inlined, 10, "entire chain absorbed");
        assert_eq!(m.call_site_count(), 0);
    }

    #[test]
    fn recursion_is_never_inlined() {
        let mut pb = ProgramBuilder::new("rec");
        let rec_id = pb.declare();
        let mut rec = MethodBuilder::new("rec", 1);
        let arg = rec.param(0);
        let dec = rec.op(OpKind::Sub, arg, 1i64);
        rec.begin_if(arg, 0.4);
        let site = pb.fresh_site();
        rec.call(site, rec_id, vec![dec.into()], false);
        rec.end();
        rec.ret(dec);
        pb.define(rec_id, rec);
        let mut main = MethodBuilder::new("main", 0);
        let s = pb.fresh_site();
        let r = main.call(s, rec_id, vec![9i64.into()], true).unwrap();
        main.ret(r);
        let main_id = pb.add(main);
        pb.entry(main_id);
        let p = pb.build().unwrap();

        let generous = InlineParams {
            callee_max_size: 4000,
            always_inline_size: 4000,
            max_inline_depth: 15,
            caller_max_size: 100_000,
            hot_callee_max_size: 400,
        };
        // Inlining rec into main: the outer call inlines, the inner
        // self-call must be rejected as recursive.
        let (m, stats) = inline_method(&p, main_id, &generous, &HotSites::new());
        assert_eq!(stats.rej_recursive, 1);
        assert_eq!(m.call_site_count(), 1);
        // And rec's own body never absorbs itself.
        let (_, rec_stats) = inline_method(&p, rec_id, &generous, &HotSites::new());
        assert_eq!(rec_stats.rej_recursive, 1);
        assert_eq!(rec_stats.inlined, 0);
        // Semantics hold.
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let (q, _) = inline_program(&p, &generous, &HotSites::new(), &all_ids(&p));
        let after = run(&q, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(before.heap_digest, after.heap_digest);
    }

    #[test]
    fn caller_growth_blocks_later_sites() {
        // main calls mid twice; mid is big enough that after the first
        // splice the caller exceeds CALLER_MAX_SIZE.
        let mut pb = ProgramBuilder::new("grow");
        let mut mid = MethodBuilder::new("mid", 1);
        let mut acc = mid.param(0);
        for _ in 0..20 {
            acc = mid.op(OpKind::Add, acc, 1i64);
        }
        mid.ret(acc);
        let mid_id = pb.add(mid);
        let mut main = MethodBuilder::new("main", 0);
        let s1 = pb.fresh_site();
        let r1 = main.call(s1, mid_id, vec![1i64.into()], true).unwrap();
        let s2 = pb.fresh_site();
        let r2 = main.call(s2, mid_id, vec![r1.into()], true).unwrap();
        main.ret(r2);
        let main_id = pb.add(main);
        pb.entry(main_id);
        let p = pb.build().unwrap();

        // mid size = 2 overhead + 20 adds = 22; main size ≈ 2 + 2*8 = 18.
        // caller_max 25: first splice ok (18 ≤ 25), then caller ≈ 38 > 25.
        let params = InlineParams {
            callee_max_size: 30,
            always_inline_size: 1,
            max_inline_depth: 5,
            caller_max_size: 25,
            hot_callee_max_size: 0,
        };
        let (m, stats) = inline_method(&p, main_id, &params, &HotSites::new());
        assert_eq!(stats.inlined, 1);
        assert_eq!(stats.rej_caller_size, 1);
        assert_eq!(m.call_site_count(), 1);
    }

    #[test]
    fn hot_sites_use_fig4_test() {
        // Callee too big for the static cascade but below the hot limit.
        let mut pb = ProgramBuilder::new("hot");
        let mut big = MethodBuilder::new("big", 1);
        let mut acc = big.param(0);
        for _ in 0..60 {
            acc = big.op(OpKind::Add, acc, 1i64);
        }
        big.ret(acc);
        let big_id = pb.add(big);
        let mut main = MethodBuilder::new("main", 0);
        let hot_site = pb.fresh_site();
        let cold_site = pb.fresh_site();
        let a = main
            .call(hot_site, big_id, vec![1i64.into()], true)
            .unwrap();
        let b = main.call(cold_site, big_id, vec![a.into()], true).unwrap();
        main.ret(b);
        let main_id = pb.add(main);
        pb.entry(main_id);
        let p = pb.build().unwrap();

        let params = InlineParams::jikes_default(); // callee_max 23 < 62
        let hot: HotSites = [hot_site].into_iter().collect();
        let (m, stats) = inline_method(&p, main_id, &params, &hot);
        assert_eq!(stats.hot_considered, 1);
        assert_eq!(stats.hot_inlined, 1);
        assert_eq!(stats.rej_callee_size, 1); // the cold site
        assert_eq!(m.call_site_count(), 1);
        // Semantics preserved.
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let (q, _) = inline_program(&p, &params, &hot, &all_ids(&p));
        let after = run(&q, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
    }

    #[test]
    fn trace_records_every_decision_in_order() {
        let p = chain(4);
        let params = InlineParams {
            callee_max_size: 50,
            always_inline_size: 1,
            max_inline_depth: 2,
            caller_max_size: 4000,
            hot_callee_max_size: 0,
        };
        let (method, stats, trace) = inline_method_traced(&p, p.entry, &params, &HotSites::new());
        assert_eq!(trace.len() as u32, stats.considered);
        // Depths increase along the splice chain: 0, 1, 2, then reject.
        let depths: Vec<u32> = trace.iter().map(|r| r.depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 3]);
        assert!(trace[..3].iter().all(|r| r.decision.is_inline()));
        assert_eq!(trace[3].decision, InlineDecision::No(RejectReason::TooDeep));
        // Caller size grows monotonically along the trace.
        assert!(trace
            .windows(2)
            .all(|w| w[1].caller_size >= w[0].caller_size));
        // Untraced and traced runs agree.
        let (m2, s2) = inline_method(&p, p.entry, &params, &HotSites::new());
        assert_eq!(method, m2);
        assert_eq!(stats, s2);
    }

    #[test]
    fn trace_marks_hot_sites() {
        let p = chain(2);
        let site = ir::stmt::call_sites(&p.method(p.entry).body)[0].site;
        let hot: HotSites = [site].into_iter().collect();
        let (_, _, trace) = inline_method_traced(&p, p.entry, &InlineParams::jikes_default(), &hot);
        assert!(trace.iter().any(|r| r.hot && r.site == site));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = InlineStats {
            considered: 2,
            inlined: 1,
            max_depth_spliced: 3,
            ..InlineStats::default()
        };
        let b = InlineStats {
            considered: 5,
            rej_depth: 2,
            max_depth_spliced: 1,
            ..InlineStats::default()
        };
        a.merge(&b);
        assert_eq!(a.considered, 7);
        assert_eq!(a.rej_depth, 2);
        assert_eq!(a.max_depth_spliced, 3);
    }

    #[test]
    fn transformed_program_validates() {
        let p = chain(6);
        let (q, _) = inline_program(
            &p,
            &InlineParams::jikes_default(),
            &HotSites::new(),
            &all_ids(&p),
        );
        assert!(validate(&q).is_empty(), "{:?}", validate(&q));
    }
}
