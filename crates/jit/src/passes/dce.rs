//! Liveness-based dead-code elimination over the structured IR.
//!
//! A backward pass: a pure statement whose destination is never read
//! afterwards is removed. `Store` and `Call` statements are always kept
//! (heap side effects); `Load` is pure in this IR (no traps) and may be
//! removed. Zero-trip loops, loops whose bodies emptied out, and branches
//! with two empty arms are removed whole.
//!
//! Loop bodies use a conservative liveness approximation: every register
//! *read anywhere in the body* is treated as live throughout the body
//! (loop-carried dependences need no fixpoint that way). The price is
//! that one pass frees only the tail of a dead chain inside a loop: a
//! chain of `n` dead statements in a loop body takes `n` passes, one
//! statement each. [`super::optimize_method`] repeats the pass, but at
//! most 64 times, so longer chains keep their head (see its docs).
//!
//! The pass works in place: each statement list is walked backward once,
//! its keep/drop verdicts recorded in a mask, then `retain`ed. The
//! pipeline keeps that mask and the branch-arm live sets from one pass to
//! the next, so repeated passes over a method allocate nothing new.

use ir::method::Method;
use ir::op::{OpKind, Operand};
use ir::stmt::{stmt_count, Stmt};

/// Live-register set.
type Live = Vec<bool>;

/// Reusable scratch for DCE passes.
#[derive(Debug, Default)]
pub(crate) struct Dce {
    /// Keep verdicts of the statement lists being walked, innermost last.
    keep: Vec<bool>,
    /// Spare live sets for branch arms.
    pool: Vec<Live>,
    /// Statements removed by the pass in progress.
    removed: u32,
}

/// Runs DCE on a method, in place. Returns the number of statements
/// removed (counting every statement inside removed subtrees).
pub fn dce(method: &mut Method) -> u32 {
    Dce::default().run(method)
}

fn mark(o: Operand, live: &mut Live) {
    if let Operand::Reg(r) = o {
        live[r.0 as usize] = true;
    }
}

/// Registers read anywhere in a statement list (for the conservative loop
/// approximation).
fn read_regs(body: &[Stmt], live: &mut Live) {
    ir::stmt::visit_body(body, &mut |s| match s {
        Stmt::Op(o) => {
            mark(o.a, live);
            if o.op != OpKind::Mov {
                mark(o.b, live);
            }
        }
        Stmt::Call(c) => {
            for a in &c.args {
                mark(*a, live);
            }
        }
        Stmt::If { cond, .. } => mark(*cond, live),
        Stmt::Loop { .. } => {}
    });
}

impl Dce {
    /// Runs one DCE pass on a method, in place; the same as [`dce()`].
    pub(crate) fn run(&mut self, method: &mut Method) -> u32 {
        self.removed = 0;
        let mut live = self.pool.pop().unwrap_or_default();
        live.clear();
        live.resize(method.n_regs as usize, false);
        if let Operand::Reg(r) = method.ret {
            live[r.0 as usize] = true;
        }
        self.stmts(&mut method.body, &mut live);
        self.pool.push(live);
        self.removed
    }

    /// A pooled live set holding a copy of `live`.
    fn live_copy(&mut self, live: &[bool]) -> Live {
        let mut copy = self.pool.pop().unwrap_or_default();
        copy.clear();
        copy.extend_from_slice(live);
        copy
    }

    /// Walks `body` backward from the live set after it, leaving in
    /// `live` the set before it, and drops the dead statements.
    fn stmts(&mut self, body: &mut Vec<Stmt>, live: &mut Live) {
        let base = self.keep.len();
        for stmt in body.iter_mut().rev() {
            let keep = self.stmt(stmt, live);
            self.keep.push(keep);
        }
        let verdicts = &self.keep[base..];
        if verdicts.contains(&false) {
            // Verdicts were pushed last statement first.
            let mut keep = verdicts.iter().rev();
            body.retain(|_| *keep.next().expect("one verdict per statement"));
        }
        self.keep.truncate(base);
    }

    /// Updates `live` across one statement; `false` if it goes.
    fn stmt(&mut self, stmt: &mut Stmt, live: &mut Live) -> bool {
        match stmt {
            Stmt::Op(o) => {
                let is_store = o.op == OpKind::Store;
                if !is_store {
                    if !live[o.dst.0 as usize] {
                        self.removed += 1;
                        return false;
                    }
                    live[o.dst.0 as usize] = false;
                }
                mark(o.a, live);
                if o.op != OpKind::Mov {
                    mark(o.b, live);
                }
                true
            }
            Stmt::Call(c) => {
                // Calls may store to the heap: always kept.
                if let Some(d) = c.dst {
                    live[d.0 as usize] = false;
                }
                for a in &c.args {
                    mark(*a, live);
                }
                true
            }
            Stmt::Loop { trips, body } => {
                if *trips == 0 {
                    self.removed += 1 + stmt_count(body) as u32;
                    return false;
                }
                // Conservative: body-read registers live throughout.
                read_regs(body, live);
                self.stmts(body, live);
                if body.is_empty() {
                    self.removed += 1;
                    return false;
                }
                true
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
                ..
            } => {
                let mut live_then = self.live_copy(live);
                let mut live_else = self.live_copy(live);
                self.stmts(then_b, &mut live_then);
                self.stmts(else_b, &mut live_else);
                let keep = !(then_b.is_empty() && else_b.is_empty());
                if keep {
                    for ((slot, a), b) in live.iter_mut().zip(&live_then).zip(&live_else) {
                        *slot = *a || *b;
                    }
                    mark(*cond, live);
                } else {
                    self.removed += 1;
                }
                self.pool.push(live_then);
                self.pool.push(live_else);
                keep
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{MethodBuilder, ProgramBuilder};
    use ir::interp::{run, InterpLimits};
    use ir::op::Reg;
    use ir::program::Program;

    fn build(f: impl FnOnce(&mut ProgramBuilder, &mut MethodBuilder)) -> Program {
        let mut pb = ProgramBuilder::new("t");
        let mut mb = MethodBuilder::new("main", 0);
        f(&mut pb, &mut mb);
        let id = pb.add(mb);
        pb.entry(id);
        pb.build().unwrap()
    }

    #[test]
    fn removes_unused_pure_ops_keeps_result_chain() {
        let mut p = build(|_, m| {
            let a = m.op(OpKind::Mov, 1i64, 0i64);
            let _dead = m.op(OpKind::Mul, a, 99i64);
            let b = m.op(OpKind::Add, a, 41i64);
            m.ret(b);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let n = dce(p.method_mut(p.entry));
        assert_eq!(n, 1);
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(p.method(p.entry).body.len(), 2);
    }

    #[test]
    fn keeps_stores_and_their_inputs() {
        let mut p = build(|_, m| {
            let addr = m.op(OpKind::Mov, 5i64, 0i64);
            let val = m.op(OpKind::Mov, 7i64, 0i64);
            m.op_into(OpKind::Store, Reg(0), addr, val);
            m.ret(0i64);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let n = dce(p.method_mut(p.entry));
        assert_eq!(n, 0, "store chain must survive");
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.heap_digest, after.heap_digest);
    }

    #[test]
    fn removes_unread_loads() {
        let mut p = build(|_, m| {
            let _dead_load = m.op(OpKind::Load, 3i64, 0i64);
            m.ret(9i64);
        });
        let n = dce(p.method_mut(p.entry));
        assert_eq!(n, 1);
        assert!(p.method(p.entry).body.is_empty());
    }

    #[test]
    fn removes_zero_trip_and_emptied_loops() {
        let mut p = build(|_, m| {
            m.begin_loop(0);
            let x = m.op(OpKind::Mov, 1i64, 0i64);
            m.op_into(OpKind::Add, x, x, 1i64);
            m.end();
            m.begin_loop(5);
            let _dead = m.op(OpKind::Xor, 1i64, 2i64);
            m.end();
            m.ret(4i64);
        });
        let n = dce(p.method_mut(p.entry));
        assert!(n >= 3, "{n}");
        assert!(p.method(p.entry).body.is_empty());
    }

    #[test]
    fn keeps_loop_carried_accumulators() {
        let mut p = build(|_, m| {
            let acc = m.op(OpKind::Mov, 0i64, 0i64);
            m.begin_loop(10);
            m.op_into(OpKind::Add, acc, acc, 2i64);
            m.end();
            m.ret(acc);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let n = dce(p.method_mut(p.entry));
        assert_eq!(n, 0);
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(after.value, 20);
    }

    #[test]
    fn removes_branches_with_two_dead_arms() {
        let mut p = build(|_, m| {
            let c = m.op(OpKind::Mov, 1i64, 0i64);
            m.begin_if(c, 0.5);
            let _d1 = m.op(OpKind::Add, 1i64, 2i64);
            m.begin_else();
            let _d2 = m.op(OpKind::Mul, 3i64, 4i64);
            m.end();
            m.ret(5i64);
        });
        let n = dce(p.method_mut(p.entry));
        // Both arm ops dead → arms empty → If removed → c's Mov dead too.
        assert!(n >= 3, "{n}");
        assert!(p.method(p.entry).body.is_empty());
    }

    #[test]
    fn calls_survive_even_with_unused_results() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = MethodBuilder::new("f", 1);
        // The callee stores to the heap: removing the call would be wrong.
        f.op_into(OpKind::Store, Reg(0), f.param(0), 1i64);
        f.ret(0i64);
        let fid = pb.add(f);
        let mut m = MethodBuilder::new("main", 0);
        let site = pb.fresh_site();
        let _unused = m.call(site, fid, vec![Operand::Imm(3)], true);
        m.ret(8i64);
        let id = pb.add(m);
        pb.entry(id);
        let mut p = pb.build().unwrap();
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let _ = dce(p.method_mut(id));
        assert_eq!(p.method(id).call_site_count(), 1, "call kept");
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.heap_digest, after.heap_digest);
    }
}
