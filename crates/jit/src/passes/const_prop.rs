//! Conditional constant propagation over the structured IR.
//!
//! A forward pass tracking which registers hold known constants:
//!
//! * operands reading known registers are rewritten to immediates;
//! * pure ops with two immediate operands fold to `Mov dst, #result`;
//! * branches on known-constant conditions are resolved and flattened to
//!   the taken arm;
//! * loops kill every register their body writes (conservative), and a
//!   zero-trip loop leaves the environment untouched for the code after
//!   it.
//!
//! Only a *constant source* starts a rewrite: a `Mov` of an immediate, a
//! pure op on two immediates, or a branch on an immediate. A method with
//! none is left exactly as it was. On a single-assignment method (every
//! register written once) the pass is idempotent: re-running it finds
//! nothing. So [`super::optimize_method`] runs it at most once there, and
//! not at all without a source, where the round-based pipeline runs it
//! every round. A method that reuses registers can need another pass: a
//! loop's kills are taken from its body before a branch inside it is
//! flattened, so a register only the dropped arm wrote stays unknown
//! after the loop until the next pass.

use ir::method::Method;
use ir::op::{OpKind, Operand, Reg};
use ir::stmt::{OpStmt, Stmt};

/// Register → known-constant environment (`None` = unknown).
type Env = Vec<Option<i64>>;

/// Runs constant propagation on a method, in place. Returns the number of
/// rewrites performed.
pub fn const_prop(method: &mut Method) -> u32 {
    let mut env: Env = vec![None; method.n_regs as usize];
    let mut folded = 0;
    let body = std::mem::take(&mut method.body);
    method.body = prop_stmts(body, &mut env, &mut folded);
    // Fold the return operand through the final environment.
    if let Operand::Reg(r) = method.ret {
        if let Some(c) = env[r.0 as usize] {
            method.ret = Operand::Imm(c);
            folded += 1;
        }
    }
    folded
}

/// Substitutes an operand through the environment; counts a rewrite when
/// a register read becomes an immediate.
fn subst(o: Operand, env: &Env, folded: &mut u32) -> Operand {
    if let Operand::Reg(r) = o {
        if let Some(c) = env[r.0 as usize] {
            *folded += 1;
            return Operand::Imm(c);
        }
    }
    o
}

/// Registers written anywhere in a statement list (for loop kills).
fn written_regs(body: &[Stmt], out: &mut Vec<Reg>) {
    ir::stmt::visit_body(body, &mut |s| match s {
        Stmt::Op(o) => {
            if o.op.writes_dst() {
                out.push(o.dst);
            }
        }
        Stmt::Call(c) => {
            if let Some(d) = c.dst {
                out.push(d);
            }
        }
        Stmt::Loop { .. } | Stmt::If { .. } => {}
    });
}

fn prop_stmts(body: Vec<Stmt>, env: &mut Env, folded: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(body.len());
    for stmt in body {
        match stmt {
            Stmt::Op(mut o) => {
                o.a = subst(o.a, env, folded);
                if o.op != OpKind::Mov {
                    o.b = subst(o.b, env, folded);
                }
                match o.op {
                    OpKind::Mov => {
                        env[o.dst.0 as usize] = match o.a {
                            Operand::Imm(v) => Some(v),
                            Operand::Reg(_) => None,
                        };
                        out.push(Stmt::Op(o));
                    }
                    OpKind::Load => {
                        env[o.dst.0 as usize] = None;
                        out.push(Stmt::Op(o));
                    }
                    OpKind::Store => {
                        out.push(Stmt::Op(o));
                    }
                    op => {
                        if let (Operand::Imm(a), Operand::Imm(b)) = (o.a, o.b) {
                            // Fold the whole op to a constant move.
                            let v = op.eval_pure(a, b);
                            env[o.dst.0 as usize] = Some(v);
                            *folded += 1;
                            out.push(Stmt::Op(OpStmt {
                                op: OpKind::Mov,
                                dst: o.dst,
                                a: Operand::Imm(v),
                                b: Operand::Imm(0),
                            }));
                        } else {
                            env[o.dst.0 as usize] = None;
                            out.push(Stmt::Op(o));
                        }
                    }
                }
            }
            Stmt::Call(mut c) => {
                for a in &mut c.args {
                    *a = subst(*a, env, folded);
                }
                if let Some(d) = c.dst {
                    env[d.0 as usize] = None;
                }
                out.push(Stmt::Call(c));
            }
            Stmt::Loop { trips, body } => {
                // Everything the body writes is unknown at entry (the
                // previous iteration may have run) and at exit.
                let mut killed = Vec::new();
                written_regs(&body, &mut killed);
                for r in &killed {
                    env[r.0 as usize] = None;
                }
                if trips == 0 {
                    // Body never runs: keep it for DCE to drop; the
                    // environment is already conservative.
                    out.push(Stmt::Loop { trips, body });
                } else {
                    let new_body = prop_stmts(body, env, folded);
                    // `env` now reflects "after one iteration from a
                    // conservative start", which holds after every
                    // iteration, hence after the last.
                    out.push(Stmt::Loop {
                        trips,
                        body: new_body,
                    });
                }
            }
            Stmt::If {
                cond,
                prob_true,
                then_b,
                else_b,
            } => {
                let cond = subst(cond, env, folded);
                if let Operand::Imm(c) = cond {
                    // Branch decided at compile time: flatten to the
                    // taken arm (interpreter semantics: taken iff odd).
                    *folded += 1;
                    let arm = if c & 1 != 0 { then_b } else { else_b };
                    let mut flattened = prop_stmts(arm, env, folded);
                    out.append(&mut flattened);
                } else {
                    let mut env_then = env.clone();
                    let mut env_else = env.clone();
                    let t = prop_stmts(then_b, &mut env_then, folded);
                    let e = prop_stmts(else_b, &mut env_else, folded);
                    // Join: a constant survives only if both arms agree.
                    for (slot, (a, b)) in env.iter_mut().zip(env_then.iter().zip(&env_else)) {
                        *slot = if a == b { *a } else { None };
                    }
                    out.push(Stmt::If {
                        cond,
                        prob_true,
                        then_b: t,
                        else_b: e,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::builder::{MethodBuilder, ProgramBuilder};
    use ir::interp::{run, InterpLimits};
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
    fn folds_arithmetic_chains() {
        let mut p = build(|_, m| {
            let a = m.op(OpKind::Mov, 10i64, 0i64);
            let b = m.op(OpKind::Add, a, 32i64);
            m.ret(b);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let n = const_prop(p.method_mut(p.entry));
        assert!(n >= 2, "{n}");
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        // The return operand is now a literal.
        assert_eq!(p.method(p.entry).ret, Operand::Imm(42));
    }

    #[test]
    fn resolves_constant_branches() {
        let mut p = build(|_, m| {
            let c = m.op(OpKind::Mov, 3i64, 0i64); // odd → then
            let out = m.op(OpKind::Mov, 0i64, 0i64);
            m.begin_if(c, 0.5);
            m.op_into(OpKind::Mov, out, 111i64, 0i64);
            m.begin_else();
            m.op_into(OpKind::Mov, out, 222i64, 0i64);
            m.end();
            m.ret(out);
        });
        let _ = const_prop(p.method_mut(p.entry));
        // The If is gone; the method returns a constant.
        assert!(!p
            .method(p.entry)
            .body
            .iter()
            .any(|s| matches!(s, Stmt::If { .. })));
        let out = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(out.value, 111);
    }

    #[test]
    fn loops_kill_written_registers() {
        let mut p = build(|_, m| {
            let acc = m.op(OpKind::Mov, 0i64, 0i64);
            m.begin_loop(3);
            m.op_into(OpKind::Add, acc, acc, 5i64);
            m.end();
            m.ret(acc);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let _ = const_prop(p.method_mut(p.entry));
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        assert_eq!(after.value, 15);
        // acc must NOT have been folded to a constant return.
        assert_eq!(p.method(p.entry).ret, Operand::Reg(Reg(0)));
    }

    #[test]
    fn constants_defined_inside_nonzero_loops_propagate_after() {
        let mut p = build(|_, m| {
            let r = m.op(OpKind::Mov, 1i64, 0i64);
            m.begin_loop(4);
            m.op_into(OpKind::Mov, r, 9i64, 0i64);
            m.end();
            let s = m.op(OpKind::Add, r, 1i64);
            m.ret(s);
        });
        let _ = const_prop(p.method_mut(p.entry));
        assert_eq!(p.method(p.entry).ret, Operand::Imm(10));
        let out = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(out.value, 10);
    }

    #[test]
    fn zero_trip_loops_do_not_leak_body_constants() {
        let mut p = build(|_, m| {
            let r = m.op(OpKind::Mov, 1i64, 0i64);
            m.begin_loop(0);
            m.op_into(OpKind::Mov, r, 9i64, 0i64);
            m.end();
            m.ret(r);
        });
        let _ = const_prop(p.method_mut(p.entry));
        let out = run(&p, &[], &InterpLimits::default()).unwrap();
        // r stays 1: the loop never ran, so its body constant must not
        // have been believed. (The conservative kill also forbids folding
        // the return to 1 — correctness over precision.)
        assert_eq!(out.value, 1);
        assert_eq!(p.method(p.entry).ret, Operand::Reg(Reg(0)));
    }

    #[test]
    fn unknown_branch_joins_conservatively() {
        let mut p = build(|_, m| {
            let unknown = m.op(OpKind::Load, 0i64, 0i64); // heap value
            let r = m.op(OpKind::Mov, 0i64, 0i64);
            m.begin_if(unknown, 0.5);
            m.op_into(OpKind::Mov, r, 7i64, 0i64);
            m.begin_else();
            m.op_into(OpKind::Mov, r, 8i64, 0i64);
            m.end();
            m.ret(r);
        });
        let before = run(&p, &[], &InterpLimits::default()).unwrap();
        let _ = const_prop(p.method_mut(p.entry));
        let after = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(before.value, after.value);
        // r differs across arms: must not be folded.
        assert_eq!(p.method(p.entry).ret, Operand::Reg(Reg(1)));
    }

    #[test]
    fn agreeing_branch_arms_do_fold() {
        let mut p = build(|_, m| {
            let unknown = m.op(OpKind::Load, 0i64, 0i64);
            let r = m.op(OpKind::Mov, 0i64, 0i64);
            m.begin_if(unknown, 0.5);
            m.op_into(OpKind::Mov, r, 7i64, 0i64);
            m.begin_else();
            m.op_into(OpKind::Mov, r, 7i64, 0i64);
            m.end();
            let s = m.op(OpKind::Add, r, 1i64);
            m.ret(s);
        });
        let _ = const_prop(p.method_mut(p.entry));
        assert_eq!(p.method(p.entry).ret, Operand::Imm(8));
    }

    #[test]
    fn call_arguments_get_constant_operands() {
        let mut pb = ProgramBuilder::new("t");
        let mut callee = MethodBuilder::new("f", 1);
        let v = callee.op(OpKind::Add, callee.param(0), 1i64);
        callee.ret(v);
        let f = pb.add(callee);
        let mut m = MethodBuilder::new("main", 0);
        let a = m.op(OpKind::Mov, 41i64, 0i64);
        let site = pb.fresh_site();
        let r = m.call(site, f, vec![a.into()], true).unwrap();
        m.ret(r);
        let id = pb.add(m);
        pb.entry(id);
        let mut p = pb.build().unwrap();
        let _ = const_prop(p.method_mut(id));
        let calls = ir::stmt::call_sites(&p.method(id).body);
        assert_eq!(calls[0].args[0], Operand::Imm(41));
        let out = run(&p, &[], &InterpLimits::default()).unwrap();
        assert_eq!(out.value, 42);
    }
}
