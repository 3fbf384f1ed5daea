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
//! The pipeline iterates prop → DCE to a fixpoint, bounded at 64 rounds.
//! A [`PassSet`] gates each pass and the iteration; [`PassSet::FULL`] is
//! the optimizing compiler's pipeline, the rest serve `problems::flags`.
//! [`optimize_method`] computes `FULL`'s round loop without running it on
//! single-assignment methods: `const_prop` at most once, and DCE as one
//! sweep that removes every statement whose *death round* (the round the
//! loop would remove it in) is within the backstop. The root
//! `tests/optimizer.rs` holds it to the loop, body and `PassStats` alike.
//! Both passes are semantics-preserving with
//! respect to the interpreter's observable outcome (return value and
//! heap); dynamic *step counts* may of course decrease — that is the
//! point. Property tests in `tests/prop_opt.rs` verify this on thousands
//! of random programs.

pub mod const_prop;
pub mod dce;
mod dead;

use ir::method::Method;

pub use const_prop::const_prop;
pub use dce::dce;

/// Combined statistics of one optimization pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStats {
    /// Operations rewritten to constants (folds + copy propagations).
    pub folded: u32,
    /// Statements removed as dead.
    pub removed: u32,
    /// prop→DCE rounds (≥ 1) the round-based pipeline runs, also where
    /// [`optimize_method`] computes its result without running them.
    pub rounds: u32,
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
/// 64 rounds (a backstop real methods reach). The root
/// `tests/optimizer.rs` keeps that loop as the reference, and holds this
/// function to its body and `PassStats` (`rounds` included).
///
/// A *single-assignment* method (every register written by at most one
/// statement, parameters by none), which the workload generator,
/// `ir::testgen` and the inliner over their output all produce, runs no
/// rounds:
///
/// - `const_prop` runs once, and only if the method has a constant
///   source (a `Mov` of an immediate, a pure op on two immediates, or an
///   `If` on an immediate); without one it is exactly a no-op. On
///   single-assignment code it is idempotent, and no DCE removal hands it
///   a constant: a removed write was its register's only one and no kept
///   statement reads it, and a removed loop only un-kills registers
///   nothing else writes.
/// - DCE is computed, not iterated: each statement's *death round*, the
///   round in which the loop would remove it, follows from the def-use
///   edges and the statement tree, and every statement dying within the
///   backstop goes in one sweep (the `dead` module). `removed` is their
///   count, and `rounds` is one past the last death round, at least 2
///   when `const_prop` folded, at most 64.
///
/// A method that reuses registers, which no product path produces, gets
/// the round loop itself: there a branch `const_prop` flattens inside a
/// loop leaves that loop's kill set stale until the next pass.
pub fn optimize_method(method: &mut Method) -> PassStats {
    PassSet::FULL.run(method)
}

/// Which passes each round runs, and whether rounds repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSet {
    /// Constant propagation on.
    pub const_prop: bool,
    /// Dead-code elimination on.
    pub dce: bool,
    /// Rounds repeat to a fixpoint (or the backstop); off, one round.
    pub fixpoint: bool,
}

impl PassSet {
    /// The optimizing compiler's pipeline: both passes, to a fixpoint.
    pub const FULL: PassSet = PassSet {
        const_prop: true,
        dce: true,
        fixpoint: true,
    };

    /// Runs the pass set on a method, in place: the round loop, which
    /// `FULL` computes where [`optimize_method`] says it can.
    pub fn run(self, method: &mut Method) -> PassStats {
        let computed = (self == Self::FULL).then(|| dead::optimize(method));
        computed.flatten().unwrap_or_else(|| self.rounds(method))
    }

    /// The round loop, each pass behind its gate.
    fn rounds(self, method: &mut Method) -> PassStats {
        let mut stats = PassStats::default();
        for round in 1..=if self.fixpoint { MAX_ROUNDS } else { 1 } {
            stats.rounds = round;
            let folded = if self.const_prop {
                const_prop(method)
            } else {
                0
            };
            let removed = if self.dce { dce(method) } else { 0 };
            stats.folded += folded;
            stats.removed += removed;
            if folded == 0 && removed == 0 {
                break;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{MethodBuilder, ProgramBuilder};
    use ir::interp::{run, InterpLimits};
    use ir::op::OpKind;
    use ir::size::method_size;
    use ir::stmt::Stmt;

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

    /// Optimizes `m` both with every round at once and with the round
    /// loop; asserts they agree and returns the stats.
    fn both_ways(m: MethodBuilder) -> PassStats {
        let mut pb = ProgramBuilder::new("t");
        let id = pb.add(m);
        pb.entry(id);
        let p = pb.build().unwrap();
        let mut at_once = p.method(id).clone();
        let mut looped = at_once.clone();
        let stats = optimize_method(&mut at_once);
        assert_eq!(stats, PassSet::FULL.rounds(&mut looped));
        assert_eq!(at_once, looped);
        stats
    }

    /// `x = load`, then a loop whose only statement reads `x` and is
    /// dead. With `branch` that loop is the then arm of an `If` on a
    /// loaded `c`, whose else arm is empty or one store of immediates.
    fn loop_reading_a_def(branch: bool, store_in_else: bool) -> MethodBuilder {
        let mut m = MethodBuilder::new("main", 0);
        let c = branch.then(|| m.op(OpKind::Load, 0i64, 0i64));
        let x = m.op(OpKind::Load, 1i64, 0i64);
        if let Some(c) = c {
            m.begin_if(c, 0.5);
        }
        m.begin_loop(3);
        let _dead = m.op(OpKind::Add, x, 1i64);
        m.end();
        if branch {
            m.begin_else();
            if store_in_else {
                m.op_into(OpKind::Store, x, 0i64, 1i64);
            }
            m.end();
        }
        m.ret(0i64);
        m
    }

    /// The loop empties in round 1, but its read-set mark on `x` stays:
    /// `x` goes in round 2 and round 3 finds nothing.
    #[test]
    fn an_emptied_loop_keeps_its_reads_live_for_the_round() {
        let stats = both_ways(loop_reading_a_def(false, false));
        let want = PassStats {
            folded: 0,
            removed: 3,
            rounds: 3,
        };
        assert_eq!(stats, want);
    }

    /// The `If` around the loop empties in round 1 as well, and removing
    /// it discards its arms' marks: `x` and the condition's `c` go in
    /// round 1 too.
    #[test]
    fn a_removed_branch_discards_the_marks_made_in_its_arms() {
        let stats = both_ways(loop_reading_a_def(true, false));
        let want = PassStats {
            folded: 0,
            removed: 5,
            rounds: 2,
        };
        assert_eq!(stats, want);
    }

    /// A store keeps the `If`, so the then arm's marks join: `x` lives
    /// through round 1 and goes in round 2.
    #[test]
    fn a_kept_branch_joins_the_marks_made_in_its_arms() {
        let stats = both_ways(loop_reading_a_def(true, true));
        let want = PassStats {
            folded: 0,
            removed: 3,
            rounds: 3,
        };
        assert_eq!(stats, want);
    }

    /// Without `fixpoint` one round runs; without `dce` nothing goes, and
    /// the first round, changing nothing, is the last.
    #[test]
    fn a_pass_set_gates_each_pass_and_the_iteration() {
        let run = |passes: PassSet| {
            let mut pb = ProgramBuilder::new("t");
            let id = pb.add(loop_reading_a_def(false, false));
            pb.entry(id);
            passes.run(pb.build().unwrap().method_mut(id))
        };
        let stats = |removed, rounds| PassStats {
            folded: 0,
            removed,
            rounds,
        };
        assert_eq!(run(PassSet::FULL), stats(3, 3));
        let once = PassSet {
            fixpoint: false,
            ..PassSet::FULL
        };
        assert_eq!(run(once), stats(2, 1));
        let no_dce = PassSet {
            dce: false,
            ..PassSet::FULL
        };
        assert_eq!(run(no_dce), stats(0, 1));
    }

    /// A round that folds always has a successor, even when nothing
    /// is ever removed: flattening a branch on an immediate takes two
    /// rounds.
    #[test]
    fn a_fold_alone_takes_a_second_round() {
        let mut m = MethodBuilder::new("main", 0);
        m.begin_if(1i64, 0.5);
        m.op_into(OpKind::Store, ir::op::Reg(0), 0i64, 1i64);
        m.end();
        m.ret(0i64);
        let want = PassStats {
            folded: 1,
            removed: 0,
            rounds: 2,
        };
        assert_eq!(both_ways(m), want);
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
