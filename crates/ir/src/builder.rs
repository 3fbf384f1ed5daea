//! Fluent builders for programs and methods.
//!
//! The builders centralize the fiddly invariants — call-site id uniqueness,
//! register-frame sizing, argument-count checking — so workload generators
//! and tests can construct valid programs tersely. `ProgramBuilder::build`
//! runs full validation and fails loudly on any inconsistency.

use crate::method::{Method, MethodId};
use crate::op::{OpKind, Operand, Reg};
use crate::program::Program;
use crate::stmt::{CallSiteId, Stmt};
use crate::validate::{check_unique_sites, validate, ValidationError};

/// Builds a [`Program`] method by method.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    methods: Vec<Method>,
    entry: Option<MethodId>,
    heap_size: u32,
    next_site: u32,
}

impl ProgramBuilder {
    /// Starts a program with the given name and default heap size (64Ki
    /// slots).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            methods: Vec::new(),
            entry: None,
            heap_size: 1 << 16,
            next_site: 0,
        }
    }

    /// Sets the heap size in slots.
    #[must_use]
    pub fn heap_size(mut self, slots: u32) -> Self {
        self.heap_size = slots;
        self
    }

    /// Reserves the next method id without building it yet (useful for
    /// (mutually) recursive programs where a method must be referenced
    /// before it is defined).
    pub fn declare(&mut self) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(Method {
            id,
            name: format!("declared{}", id.0),
            n_params: 0,
            n_regs: 1,
            body: Vec::new(),
            ret: Operand::Imm(0),
        });
        id
    }

    /// Returns a fresh, program-unique call-site id.
    pub fn fresh_site(&mut self) -> CallSiteId {
        let s = CallSiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// Adds a finished method, assigning it the next id. Returns the id.
    pub fn add(&mut self, mb: MethodBuilder) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(mb.finish(id));
        id
    }

    /// Replaces a previously [`declare`](Self::declare)d method's definition.
    pub fn define(&mut self, id: MethodId, mb: MethodBuilder) {
        self.methods[id.index()] = mb.finish(id);
    }

    /// Marks the entry method.
    pub fn entry(&mut self, id: MethodId) {
        self.entry = Some(id);
    }

    /// Finishes and validates the program.
    ///
    /// # Errors
    /// Returns every structural inconsistency found (bad callee ids,
    /// register overflows, arity mismatches, duplicate call sites, missing
    /// entry, …).
    pub fn build(self) -> Result<Program, Vec<ValidationError>> {
        let entry = match self.entry {
            Some(e) => e,
            None => {
                return Err(vec![ValidationError::NoEntry]);
            }
        };
        let program = Program {
            name: self.name,
            methods: self.methods,
            entry,
            heap_size: self.heap_size.max(1),
        };
        let mut errors = validate(&program);
        errors.extend(check_unique_sites(&program));
        if errors.is_empty() {
            Ok(program)
        } else {
            Err(errors)
        }
    }
}

/// Builds one method's body with automatic register-frame sizing.
#[derive(Debug, Clone)]
pub struct MethodBuilder {
    name: String,
    n_params: u16,
    body: Vec<Stmt>,
    ret: Operand,
    // Statement stack for nested loop/if construction.
    nesting: Vec<Vec<Stmt>>,
    pending: Vec<PendingBlock>,
    next_reg: u16,
}

#[derive(Debug, Clone)]
enum PendingBlock {
    Loop {
        trips: u32,
    },
    IfThen {
        cond: Operand,
        prob_true: f64,
    },
    IfElse {
        cond: Operand,
        prob_true: f64,
        then_b: Vec<Stmt>,
    },
}

impl MethodBuilder {
    /// Starts a method with `n_params` parameters (arriving in registers
    /// `0..n_params`).
    #[must_use]
    pub fn new(name: impl Into<String>, n_params: u16) -> Self {
        Self {
            name: name.into(),
            n_params,
            body: Vec::new(),
            ret: Operand::Imm(0),
            nesting: Vec::new(),
            pending: Vec::new(),
            next_reg: n_params,
        }
    }

    /// Allocates a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("register frame overflow");
        r
    }

    /// Whether the register frame is full: [`MethodBuilder::reg`] would
    /// panic, and so would every statement that writes a fresh register.
    #[must_use]
    pub fn frame_full(&self) -> bool {
        self.next_reg == u16::MAX
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    /// Panics if `i >= n_params`.
    #[must_use]
    pub fn param(&self, i: u16) -> Reg {
        assert!(i < self.n_params, "param {i} out of range");
        Reg(i)
    }

    fn push(&mut self, s: Stmt) {
        match self.nesting.last_mut() {
            Some(block) => block.push(s),
            None => self.body.push(s),
        }
    }

    /// Emits `dst = op(a, b)` into a fresh register and returns it.
    pub fn op(&mut self, op: OpKind, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Stmt::op(op, dst, a, b));
        dst
    }

    /// Emits `dst = op(a, b)` into an existing register.
    pub fn op_into(&mut self, op: OpKind, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Stmt::op(op, dst, a, b));
    }

    /// Emits a call; the result (if `want_result`) lands in a fresh register.
    pub fn call(
        &mut self,
        site: CallSiteId,
        callee: MethodId,
        args: Vec<Operand>,
        want_result: bool,
    ) -> Option<Reg> {
        let dst = if want_result { Some(self.reg()) } else { None };
        self.push(Stmt::call(site, callee, args, dst));
        dst
    }

    /// Opens a counted loop; statements emitted until [`end`](Self::end) go
    /// into its body.
    pub fn begin_loop(&mut self, trips: u32) {
        self.pending.push(PendingBlock::Loop { trips });
        self.nesting.push(Vec::new());
    }

    /// Opens the `then` arm of a branch.
    pub fn begin_if(&mut self, cond: impl Into<Operand>, prob_true: f64) {
        self.pending.push(PendingBlock::IfThen {
            cond: cond.into(),
            prob_true,
        });
        self.nesting.push(Vec::new());
    }

    /// Switches from the `then` arm to the `else` arm.
    ///
    /// # Panics
    /// Panics if no `if` is open.
    pub fn begin_else(&mut self) {
        let then_b = self.nesting.pop().expect("begin_else with no open block");
        match self.pending.pop() {
            Some(PendingBlock::IfThen { cond, prob_true }) => {
                self.pending.push(PendingBlock::IfElse {
                    cond,
                    prob_true,
                    then_b,
                });
                self.nesting.push(Vec::new());
            }
            other => panic!("begin_else after {other:?}"),
        }
    }

    /// Closes the innermost open loop or branch.
    ///
    /// # Panics
    /// Panics if nothing is open.
    pub fn end(&mut self) {
        let block = self.nesting.pop().expect("end with no open block");
        let stmt = match self.pending.pop().expect("end with no pending block") {
            PendingBlock::Loop { trips } => Stmt::Loop { trips, body: block },
            PendingBlock::IfThen { cond, prob_true } => Stmt::If {
                cond,
                prob_true,
                then_b: block,
                else_b: Vec::new(),
            },
            PendingBlock::IfElse {
                cond,
                prob_true,
                then_b,
            } => Stmt::If {
                cond,
                prob_true,
                then_b,
                else_b: block,
            },
        };
        self.push(stmt);
    }

    /// Sets the method's return operand.
    pub fn ret(&mut self, v: impl Into<Operand>) {
        self.ret = v.into();
    }

    fn finish(self, id: MethodId) -> Method {
        assert!(
            self.nesting.is_empty() && self.pending.is_empty(),
            "method {} finished with unclosed blocks",
            self.name
        );
        let mut n_regs = self.next_reg.max(self.n_params).max(1);
        // Cover any register mentioned directly (tests may hand-place regs).
        let body_max = self.body.iter().filter_map(Stmt::max_reg).max();
        if let Some(m) = body_max {
            n_regs = n_regs.max(m + 1);
        }
        if let Some(r) = self.ret.reg() {
            n_regs = n_regs.max(r.0 + 1);
        }
        Method {
            id,
            name: self.name,
            n_params: self.n_params,
            n_regs,
            body: self.body,
            ret: self.ret,
        }
    }
}

/// Builds the smallest interesting program: `main` loops calling `inc`.
///
/// Used by doc examples, benches and smoke tests.
#[must_use]
pub fn demo_program() -> Program {
    let mut pb = ProgramBuilder::new("demo");
    let mut inc = MethodBuilder::new("inc", 1);
    let r = inc.op(OpKind::Add, inc.param(0), 1i64);
    inc.ret(r);
    let inc_id = pb.add(inc);

    let mut main = MethodBuilder::new("main", 0);
    let acc = main.op(OpKind::Mov, 0i64, 0i64);
    main.begin_loop(10);
    let site = pb.fresh_site();
    let v = main.call(site, inc_id, vec![acc.into()], true).unwrap();
    main.op_into(OpKind::Mov, acc, v, 0i64);
    main.end();
    main.ret(acc);
    let main_id = pb.add(main);
    pb.entry(main_id);
    pb.build().expect("demo program must validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, InterpLimits};

    #[test]
    fn demo_program_builds_and_runs() {
        let p = demo_program();
        let out = run(&p, &[], &InterpLimits::default()).expect("runs");
        assert_eq!(out.value, 10);
    }

    #[test]
    fn builder_assigns_unique_site_ids() {
        let mut pb = ProgramBuilder::new("x");
        let a = pb.fresh_site();
        let b = pb.fresh_site();
        assert_ne!(a, b);
    }

    #[test]
    fn nested_blocks_close_properly() {
        let mut mb = MethodBuilder::new("nest", 0);
        let c = mb.op(OpKind::Mov, 3i64, 0i64);
        mb.begin_loop(2);
        mb.begin_if(c, 0.5);
        mb.op(OpKind::Add, c, 1i64);
        mb.begin_else();
        mb.op(OpKind::Sub, c, 1i64);
        mb.end(); // if
        mb.end(); // loop
        mb.ret(c);
        let m = mb.finish(MethodId(0));
        assert_eq!(m.body.len(), 2);
        match &m.body[1] {
            Stmt::Loop { body, .. } => match &body[0] {
                Stmt::If { then_b, else_b, .. } => {
                    assert_eq!(then_b.len(), 1);
                    assert_eq!(else_b.len(), 1);
                }
                other => panic!("expected if, got {other:?}"),
            },
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unclosed blocks")]
    fn unclosed_block_panics() {
        let mut mb = MethodBuilder::new("bad", 0);
        mb.begin_loop(2);
        let _ = mb.finish(MethodId(0));
    }

    #[test]
    fn build_requires_entry() {
        let pb = ProgramBuilder::new("noentry");
        let err = pb.build().unwrap_err();
        assert!(matches!(err[0], ValidationError::NoEntry));
    }

    #[test]
    fn declare_then_define_supports_recursion() {
        let mut pb = ProgramBuilder::new("rec");
        let rec_id = pb.declare();
        let mut rec = MethodBuilder::new("rec", 1);
        // if (p0 odd-ish) recurse(p0 >> 1)
        let arg = rec.param(0);
        rec.begin_if(arg, 0.5);
        let half = rec.op(OpKind::Shr, arg, 1i64);
        let site = pb.fresh_site();
        rec.call(site, rec_id, vec![half.into()], false);
        rec.end();
        rec.ret(arg);
        pb.define(rec_id, rec);

        let mut main = MethodBuilder::new("main", 0);
        let s2 = pb.fresh_site();
        let v = main.call(s2, rec_id, vec![Operand::Imm(5)], true).unwrap();
        main.ret(v);
        let main_id = pb.add(main);
        pb.entry(main_id);
        let p = pb.build().expect("recursive program validates");
        assert_eq!(p.method_count(), 2);
    }
}
