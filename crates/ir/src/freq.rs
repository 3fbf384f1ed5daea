//! Analytic execution-frequency analysis.
//!
//! This module computes, without interpreting a single instruction:
//!
//! * **local** profiles: for each method, the expected number of executions
//!   of each statement *per entry to the method* (products of enclosing loop
//!   trip counts and branch probabilities), broken down into dynamic op
//!   counts per [`CostClass`] and per-call-site frequencies;
//! * **global** profiles: absolute per-method entry counts and absolute
//!   per-call-site execution counts for one invocation of the program entry
//!   point, obtained by solving the linear system
//!   `entries = e0 + Fᵀ·entries` with damped fixed-point iteration
//!   (recursive programs converge because recursive calls sit under
//!   probability-< 1 branches; a divergence guard reports failure instead of
//!   looping forever).
//!
//! The JIT cost model runs the local analysis on *post-inlining* bodies and
//! the global analysis on whatever program state it is costing; the adaptive
//! system's hot-call-site test uses the global site counts of the original
//! program, exactly like an edge profile in Jikes RVM.

use std::collections::BTreeMap;

use crate::method::MethodId;
use crate::op::{CostClass, OpKind};
use crate::program::Program;
use crate::stmt::{CallSiteId, Stmt};

/// Number of cost classes (indexable via [`class_index`]).
pub const N_COST_CLASSES: usize = 4;

/// Maps a [`CostClass`] to a dense index.
#[must_use]
pub fn class_index(c: CostClass) -> usize {
    match c {
        CostClass::IntAlu => 0,
        CostClass::IntMul => 1,
        CostClass::Mem => 2,
        CostClass::Float => 3,
    }
}

/// A call site as seen by the local analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSite {
    /// The site's stable id.
    pub site: CallSiteId,
    /// The called method.
    pub callee: MethodId,
    /// Number of arguments at the site.
    pub n_args: usize,
    /// Expected executions of this site per entry to the enclosing method.
    pub freq_per_entry: f64,
}

/// Per-method local dynamic profile (per single entry to the method).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MethodLocal {
    /// Dynamic op-unit counts per entry, by cost class. Loop headers and
    /// branch tests contribute to the `IntAlu` class (one unit per dynamic
    /// evaluation).
    pub ops_per_entry: [f64; N_COST_CLASSES],
    /// Call sites with their per-entry frequencies.
    pub sites: Vec<LocalSite>,
    /// Total dynamic calls per entry (sum of site frequencies).
    pub calls_per_entry: f64,
}

/// The profile formula, one statement at a time. A walk calls these in
/// pre-order with each statement's multiplier (its executions per entry:
/// 1 at the top level), then [`MethodLocal::finish`]; walks that call
/// them in the same order get the same profile, bit for bit.
impl MethodLocal {
    /// An op run `mult` times per entry.
    pub fn add_op(&mut self, op: OpKind, mult: f64) {
        self.ops_per_entry[class_index(op.cost_class())] += mult;
    }

    /// A call site, with `n_args` arguments, run `mult` times per entry.
    pub fn add_call(&mut self, site: CallSiteId, callee: MethodId, n_args: usize, mult: f64) {
        self.sites.push(LocalSite {
            site,
            callee,
            n_args,
            freq_per_entry: mult,
        });
    }

    /// A loop of `trips` iterations reached `mult` times per entry: its
    /// header is evaluated once per iteration plus loop setup. Returns the
    /// multiplier of its body.
    pub fn add_loop(&mut self, trips: u32, mult: f64) -> f64 {
        self.ops_per_entry[class_index(CostClass::IntAlu)] += mult * (1.0 + f64::from(trips));
        mult * f64::from(trips)
    }

    /// A branch test reached `mult` times per entry. Returns the
    /// multipliers of its then and else arms.
    pub fn add_if(&mut self, prob_true: f64, mult: f64) -> (f64, f64) {
        let p = prob_true.clamp(0.0, 1.0);
        self.ops_per_entry[class_index(CostClass::IntAlu)] += mult;
        (mult * p, mult * (1.0 - p))
    }

    /// Sums the site frequencies, after the last statement.
    pub fn finish(&mut self) {
        self.calls_per_entry = self.sites.iter().map(|s| s.freq_per_entry).sum();
    }
}

/// Computes the local profile of a statement list.
#[must_use]
pub fn local_profile(body: &[Stmt]) -> MethodLocal {
    let mut out = MethodLocal::default();
    walk(body, 1.0, &mut out);
    out.finish();
    out
}

fn walk(body: &[Stmt], mult: f64, out: &mut MethodLocal) {
    for stmt in body {
        match stmt {
            Stmt::Op(o) => out.add_op(o.op, mult),
            Stmt::Call(c) => out.add_call(c.site, c.callee, c.args.len(), mult),
            Stmt::Loop { trips, body } => {
                let inner = out.add_loop(*trips, mult);
                walk(body, inner, out);
            }
            Stmt::If {
                prob_true,
                then_b,
                else_b,
                ..
            } => {
                let (t, e) = out.add_if(*prob_true, mult);
                walk(then_b, t, out);
                walk(else_b, e, out);
            }
        }
    }
}

/// Result of the global frequency analysis.
#[derive(Debug, Clone)]
pub struct FreqAnalysis {
    /// Absolute entry count per method (indexed by `MethodId`) for one
    /// invocation of the program entry.
    pub entries: Vec<f64>,
    /// Absolute execution count per call site. Ordered by site id so that
    /// summations over it are bit-deterministic.
    pub site_counts: BTreeMap<CallSiteId, f64>,
    /// Whether the fixed-point iteration converged (false means the program
    /// has effectively unbounded recursion under the profile annotations;
    /// counts were capped).
    pub converged: bool,
    /// Per-method local profiles (indexed by `MethodId`).
    pub locals: Vec<MethodLocal>,
}

impl FreqAnalysis {
    /// Entry count of a method.
    #[must_use]
    pub fn entry_count(&self, m: MethodId) -> f64 {
        self.entries[m.index()]
    }

    /// Absolute execution count of a site (0 if never executed).
    #[must_use]
    pub fn site_count(&self, s: CallSiteId) -> f64 {
        self.site_counts.get(&s).copied().unwrap_or(0.0)
    }

    /// Total dynamic (non-inlined) calls executed across the program.
    #[must_use]
    pub fn total_dynamic_calls(&self) -> f64 {
        self.site_counts.values().sum()
    }
}

/// Iteration cap for the global fixed point.
const MAX_ITERS: usize = 1000;
/// Convergence threshold on the max relative change of any entry count.
const EPS: f64 = 1e-10;
/// Entry counts are capped here to keep divergent inputs finite.
const ENTRY_CAP: f64 = 1e18;

/// Solves `entries = e0 + Fᵀ·entries` for the absolute entry count of
/// every method, given one local profile per method (indexed by
/// `MethodId`). Returns the counts and whether the iteration converged.
///
/// The profiles need not all come from one `Program`: the JIT cost model
/// overlays the profiles of recompiled bodies on those of the original
/// methods and propagates through the mix.
#[must_use]
pub fn entry_counts<L: std::borrow::Borrow<MethodLocal>>(
    locals: &[L],
    entry: MethodId,
    entry_weight: f64,
) -> (Vec<f64>, bool) {
    let n = locals.len();
    let mut entries = vec![0.0f64; n];
    if entry.index() >= n {
        return (entries, true);
    }
    // Jacobi iteration: each pass applies the call matrix to the previous
    // iterate. A call chain of depth d settles in d passes; damped
    // recursion (spectral radius < 1) converges geometrically thereafter.
    entries[entry.index()] = entry_weight;
    let mut next = vec![0.0f64; n];
    for _ in 0..MAX_ITERS {
        next.fill(0.0);
        next[entry.index()] = entry_weight;
        for (mi, local) in locals.iter().enumerate() {
            let em = entries[mi];
            if em == 0.0 {
                continue;
            }
            for site in &local.borrow().sites {
                if site.callee.index() < n {
                    next[site.callee.index()] =
                        (next[site.callee.index()] + em * site.freq_per_entry).min(ENTRY_CAP);
                }
            }
        }
        let max_rel = entries
            .iter()
            .zip(&next)
            .map(|(a, b)| {
                let denom = a.abs().max(b.abs()).max(1e-300);
                (a - b).abs() / denom
            })
            .fold(0.0f64, f64::max);
        std::mem::swap(&mut entries, &mut next);
        if max_rel < EPS {
            return (entries, true);
        }
    }
    (entries, false)
}

/// Runs the global frequency analysis on a program.
///
/// `entry_weight` is the number of times the entry method is invoked (one
/// benchmark "iteration" is `entry_weight = 1`).
#[must_use]
pub fn analyze(program: &Program, entry_weight: f64) -> FreqAnalysis {
    let locals: Vec<MethodLocal> = program
        .methods
        .iter()
        .map(|m| local_profile(&m.body))
        .collect();
    let (entries, converged) = entry_counts(&locals, program.entry, entry_weight);

    let mut site_counts = BTreeMap::new();
    for (mi, local) in locals.iter().enumerate() {
        let em = entries[mi];
        for site in &local.sites {
            *site_counts.entry(site.site).or_insert(0.0) += em * site.freq_per_entry;
        }
    }

    FreqAnalysis {
        entries,
        site_counts,
        converged,
        locals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use crate::op::Reg;

    fn method(id: u32, body: Vec<Stmt>) -> Method {
        let max_reg = body.iter().filter_map(Stmt::max_reg).max().unwrap_or(0);
        Method {
            id: MethodId(id),
            name: format!("m{id}"),
            n_params: 0,
            n_regs: max_reg + 1,
            body,
            ret: 0i64.into(),
        }
    }

    fn program(methods: Vec<Method>) -> Program {
        Program {
            name: "t".into(),
            methods,
            entry: MethodId(0),
            heap_size: 8,
        }
    }

    #[test]
    fn local_profile_multiplies_loops() {
        let body = vec![Stmt::Loop {
            trips: 10,
            body: vec![
                Stmt::op(OpKind::Add, Reg(0), Reg(0), 1i64),
                Stmt::Loop {
                    trips: 4,
                    body: vec![Stmt::op(OpKind::Mul, Reg(1), Reg(0), 3i64)],
                },
            ],
        }];
        let p = local_profile(&body);
        assert_eq!(p.ops_per_entry[class_index(CostClass::IntMul)], 40.0);
        // Adds: 10 body adds + loop-header units (outer 11, inner 10*(1+4)=50).
        assert_eq!(
            p.ops_per_entry[class_index(CostClass::IntAlu)],
            10.0 + 11.0 + 50.0
        );
    }

    #[test]
    fn local_profile_weights_branches() {
        let body = vec![Stmt::If {
            cond: Reg(0).into(),
            prob_true: 0.25,
            then_b: vec![Stmt::call(CallSiteId(7), MethodId(1), vec![], None)],
            else_b: vec![Stmt::op(OpKind::Add, Reg(0), Reg(0), 1i64)],
        }];
        let p = local_profile(&body);
        assert_eq!(p.sites.len(), 1);
        assert!((p.sites[0].freq_per_entry - 0.25).abs() < 1e-12);
        assert!((p.ops_per_entry[class_index(CostClass::IntAlu)] - (1.0 + 0.75)).abs() < 1e-12);
        assert!((p.calls_per_entry - 0.25).abs() < 1e-12);
    }

    #[test]
    fn global_counts_chain() {
        // main calls a 3x in a loop; a calls b once.
        let main = method(
            0,
            vec![Stmt::Loop {
                trips: 3,
                body: vec![Stmt::call(CallSiteId(0), MethodId(1), vec![], None)],
            }],
        );
        let a = method(
            1,
            vec![Stmt::call(CallSiteId(1), MethodId(2), vec![], None)],
        );
        let b = method(2, vec![Stmt::op(OpKind::Add, Reg(0), Reg(0), 1i64)]);
        let fa = analyze(&program(vec![main, a, b]), 1.0);
        assert!(fa.converged);
        assert!((fa.entry_count(MethodId(1)) - 3.0).abs() < 1e-9);
        assert!((fa.entry_count(MethodId(2)) - 3.0).abs() < 1e-9);
        assert!((fa.site_count(CallSiteId(1)) - 3.0).abs() < 1e-9);
        assert!((fa.total_dynamic_calls() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn entry_weight_scales_everything() {
        let main = method(
            0,
            vec![Stmt::call(CallSiteId(0), MethodId(1), vec![], None)],
        );
        let a = method(1, vec![]);
        let p = program(vec![main, a]);
        let f1 = analyze(&p, 1.0);
        let f5 = analyze(&p, 5.0);
        assert!((f5.entry_count(MethodId(1)) - 5.0 * f1.entry_count(MethodId(1))).abs() < 1e-9);
    }

    #[test]
    fn damped_recursion_converges() {
        // m1 calls itself with probability 0.5: expected entries = 2.
        let main = method(
            0,
            vec![Stmt::call(CallSiteId(0), MethodId(1), vec![], None)],
        );
        let rec = method(
            1,
            vec![Stmt::If {
                cond: Reg(0).into(),
                prob_true: 0.5,
                then_b: vec![Stmt::call(CallSiteId(1), MethodId(1), vec![], None)],
                else_b: vec![],
            }],
        );
        let fa = analyze(&program(vec![main, rec]), 1.0);
        assert!(fa.converged);
        assert!((fa.entry_count(MethodId(1)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn undamped_recursion_reports_divergence() {
        // m1 always calls itself: counts blow up; we must not hang and must
        // flag non-convergence.
        let main = method(
            0,
            vec![Stmt::call(CallSiteId(0), MethodId(1), vec![], None)],
        );
        let rec = method(
            1,
            vec![Stmt::call(CallSiteId(1), MethodId(1), vec![], None)],
        );
        let fa = analyze(&program(vec![main, rec]), 1.0);
        assert!(!fa.converged);
        assert!(fa.entry_count(MethodId(1)).is_finite());
    }

    #[test]
    fn unreachable_methods_have_zero_entries() {
        let main = method(0, vec![]);
        let dead = method(1, vec![Stmt::op(OpKind::Add, Reg(0), Reg(0), 1i64)]);
        let fa = analyze(&program(vec![main, dead]), 1.0);
        assert_eq!(fa.entry_count(MethodId(1)), 0.0);
    }
}
