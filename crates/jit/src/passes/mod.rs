//! The optimizing compiler's post-inlining passes.
//!
//! The paper's abstract motivates inlining with "increasing the
//! opportunities for compiler optimization". This module implements that
//! mechanism rather than assuming it: after the inliner splices a callee,
//! the argument `Mov`s feed [`const_prop()`] (sparse conditional constant
//! propagation over the structured IR), whose folds feed [`dce()`]
//! (liveness-based dead-code elimination) — so a call like `f(#3)` whose
//! body branches on its parameter shrinks, in both static size (cheaper
//! to compile, less I-cache) and dynamic op count (faster to run).
//!
//! On the fourteen benchmark programs, though, `const_prop` folds
//! nothing: their generator loads every value from the heap, so no
//! argument is ever a known constant. There the optimizer's effect is
//! DCE alone: code an inlined callee computes and its caller never
//! reads. Folds happen on hand-built and randomly generated programs
//! (`ir::testgen`).
//!
//! The pipeline iterates prop → DCE to a fixpoint, bounded at 64 rounds
//! (see [`optimize_method`]). Both passes are semantics-preserving with
//! respect to the interpreter's observable outcome (return value and
//! heap); dynamic *step counts* may of course decrease — that is the
//! point. Property tests in `tests/prop_opt.rs` verify this on thousands
//! of random programs.

pub mod const_prop;
pub mod dce;

use ir::method::Method;
use ir::stmt::Stmt;

pub use const_prop::const_prop;
pub use dce::dce;
use dce::Dce;

/// Combined statistics of one optimization pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Operations rewritten to constants (folds + copy propagations).
    pub folded: u32,
    /// Statements removed as dead.
    pub removed: u32,
    /// prop→DCE rounds (≥ 1), counted as the round-based pipeline counts
    /// them: a round whose passes were skipped as no-ops still counts.
    pub rounds: u32,
}

impl PassStats {
    /// Accumulates another run's stats.
    pub fn merge(&mut self, o: &PassStats) {
        self.folded += o.folded;
        self.removed += o.removed;
        self.rounds = self.rounds.max(o.rounds);
    }
}

/// Backstop on prop→DCE rounds. Every productive round consumes rewrite
/// opportunities that cannot recur (an operand is substituted at most
/// once, a fold turns an op into a `Mov` forever, DCE strictly shrinks
/// the body), so the loop terminates on its own — but it is reached.
/// DCE frees a dead chain inside a loop one statement per round (see
/// [`dce()`]), and real methods hold longer chains: under the Jikes
/// default the SPECjvm98 and DaCapo+JBB methods need 13–49 rounds at
/// most, `ipsixql` reaches 64 under `[40,25,12,4000,400]`, and such
/// methods keep the head of their dead chains. Finishing those chains
/// would change compiled code the tuner's results rest on, so the
/// backstop stays (DESIGN §4.2b).
const MAX_ROUNDS: u32 = 64;

/// Runs the full pipeline on a method, in place.
///
/// The result is the round-based pipeline's: rounds of `const_prop` then
/// `dce`, stopping after the first round that changes nothing, or after
/// 64 rounds (a backstop real methods reach). A pass is skipped, and
/// counted as changing nothing, whenever it provably cannot change
/// anything:
///
/// - `dce` is deterministic, so it runs only if the body changed since
///   the last `dce`.
/// - `const_prop` runs once if the method is *single-assignment* (every
///   register written by at most one statement, parameters by none), as
///   the workload generator, `ir::testgen` and the inliner over their
///   output produce. There `const_prop` is idempotent, and no DCE
///   removal hands it a constant: a removed write was its register's
///   only one and no kept statement reads it, and a removed loop only
///   un-kills registers nothing else writes. A method that reuses
///   registers gets `const_prop` every round: a branch it flattens
///   inside a loop leaves that loop's kill set stale until the next pass.
///
/// On the paper's suites this leaves one `const_prop` per method and a
/// `dce` per round. The body and `PassStats` (`rounds` included) are
/// those of the full round-based loop, which the root `tests/optimizer.rs`
/// keeps as the reference.
pub fn optimize_method(method: &mut Method) -> PassStats {
    let refold = !single_assignment(method);
    let mut dce = Dce::default();
    let mut stats = PassStats::default();
    let (mut prop_may_fold, mut dce_may_remove) = (true, true);
    for round in 1..=MAX_ROUNDS {
        stats.rounds = round;
        let folded = if prop_may_fold { const_prop(method) } else { 0 };
        let removed = if dce_may_remove || folded > 0 {
            dce.run(method)
        } else {
            0
        };
        stats.folded += folded;
        stats.removed += removed;
        if folded == 0 && removed == 0 {
            break;
        }
        prop_may_fold = refold;
        dce_may_remove = removed > 0;
    }
    stats
}

/// Whether every register of `method` is written by at most one
/// statement and no parameter is written at all.
fn single_assignment(method: &Method) -> bool {
    let mut written = vec![false; method.n_regs as usize];
    written[..method.n_params as usize].fill(true);
    let mut once = true;
    ir::stmt::visit_body(&method.body, &mut |s| {
        let dst = match s {
            Stmt::Op(o) if o.op.writes_dst() => Some(o.dst),
            Stmt::Call(c) => c.dst,
            _ => None,
        };
        if let Some(r) = dst {
            once &= !std::mem::replace(&mut written[r.0 as usize], true);
        }
    });
    once
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{MethodBuilder, ProgramBuilder};
    use ir::interp::{run, InterpLimits};
    use ir::op::OpKind;
    use ir::size::method_size;

    /// A method whose body collapses entirely once its constant argument
    /// is known: the "inlining enables optimization" showcase.
    #[test]
    fn pipeline_collapses_constant_computation() {
        let mut pb = ProgramBuilder::new("t");
        let mut m = MethodBuilder::new("main", 0);
        let a = m.op(OpKind::Mov, 6i64, 0i64);
        let b = m.op(OpKind::Mul, a, 7i64);
        let c = m.op(OpKind::Add, b, 0i64);
        let dead = m.op(OpKind::Xor, c, 123i64);
        let _ = dead; // never used
        m.ret(c);
        let id = pb.add(m);
        pb.entry(id);
        let mut p = pb.build().unwrap();

        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let size_before = method_size(p.method(id));
        let stats = optimize_method(p.method_mut(id));
        let after = run(&p, &[], &InterpLimits::default()).unwrap();

        assert_eq!(before.value, after.value);
        assert_eq!(after.value, 42);
        assert!(stats.folded >= 2, "{stats:?}");
        assert!(stats.removed >= 1, "dead xor must go: {stats:?}");
        assert!(method_size(p.method(id)) <= size_before);
        // The whole chain folds: nothing burns fuel anymore.
        assert!(after.fuel_used < before.fuel_used);
    }

    /// A dead chain inside a loop loses one statement per round, so a
    /// chain longer than the backstop keeps its head: the pipeline stops
    /// at round 64 with the first six links still there.
    #[test]
    fn the_round_backstop_truncates_a_long_dead_chain_in_a_loop() {
        let mut pb = ProgramBuilder::new("t");
        let mut m = MethodBuilder::new("main", 0);
        m.begin_loop(3);
        let mut x = m.op(OpKind::Load, 1i64, 0i64);
        for _ in 1..70 {
            x = m.op(OpKind::Add, x, 1i64);
        }
        m.end();
        m.ret(0i64);
        let id = pb.add(m);
        pb.entry(id);
        let mut p = pb.build().unwrap();

        let stats = optimize_method(p.method_mut(id));
        assert_eq!(
            stats,
            PassStats {
                folded: 0,
                removed: 64,
                rounds: MAX_ROUNDS,
            }
        );
        let body = &p.method(id).body;
        assert_eq!(body.len(), 1, "the loop stays");
        let Stmt::Loop { body: chain, .. } = &body[0] else {
            panic!("expected the loop, got {:?}", body[0]);
        };
        assert_eq!(chain.len(), 6, "the chain's head survives");
    }

    #[test]
    fn pipeline_is_idempotent() {
        let mut pb = ProgramBuilder::new("t");
        let mut m = MethodBuilder::new("main", 0);
        let a = m.op(OpKind::Mov, 5i64, 0i64);
        let b = m.op(OpKind::Add, a, a);
        m.ret(b);
        let id = pb.add(m);
        pb.entry(id);
        let mut p = pb.build().unwrap();
        let _ = optimize_method(p.method_mut(id));
        let snapshot = p.method(id).clone();
        let stats2 = optimize_method(p.method_mut(id));
        assert_eq!(p.method(id), &snapshot, "second run must be a no-op");
        assert_eq!(stats2.folded, 0);
        assert_eq!(stats2.removed, 0);
    }
}
