//! Every DCE round at once, on a single-assignment method.
//!
//! The pipeline runs [`super::dce()`] round after round, and a dead chain
//! inside a loop loses one statement per round. On a method where every
//! register is written by at most one statement and no parameter is
//! written, the round in which that loop would remove a statement, its
//! *death round* `D`, follows from the def-use edges and the statement
//! tree alone. This module computes `D` for every statement and removes
//! those with `D ≤ 64` in one sweep: body and `PassStats` are the round
//! loop's, backstop truncation included.
//!
//! The rule is `dce.rs`'s liveness restated per statement. A `Store`, a
//! call and the definition of the return register never die (`D = ∞`);
//! everything in a zero-trip loop dies in round 1; a loop or `If` dies in
//! the round its contents finish dying (`D = max(1, D over contents)`).
//! A pure op `s` dies one round after the last round any reader `r` of
//! its destination keeps it live:
//!
//! - a walked loop (trips > 0, not inside a zero-trip loop) holds both:
//!   `r` keeps `s` through `D(r)`, since the loop's read set counts `r`
//!   while `r` is there;
//! - `r` is downstream of `s` (later in program order and not in the
//!   other arm of an `If` they share): through `D(r) − 1`, when `r` last
//!   marks it. If `r` sits in a walked loop `L` that does not hold `s`,
//!   through `D(r)`, because an emptied loop's read-set marks stay —
//!   unless an `If` between `L` and `s` is removed in round `D(r)` too:
//!   that discards its arms' marks;
//! - any other reader keeps `s` live in no round.
//!
//! When every read follows its definition in pre-order, one reverse
//! pre-order sweep sees each reader, and each `If` an exception can name,
//! before the statement that needs it. A read before its definition
//! (possible only through a loop-carried register) needs the least
//! fixpoint: the sweep repeats until nothing changes. `D` only rises, and
//! is capped at 65, "survives the backstop".

use std::cell::RefCell;

use ir::method::Method;
use ir::op::{OpKind, Operand, Reg};
use ir::stmt::Stmt;

use super::{const_prop, PassStats, MAX_ROUNDS};

/// The death round of a statement the round loop never removes.
const NEVER: u8 = MAX_ROUNDS as u8 + 1;

/// No node: the method body's parent, the end of a read list.
const NONE: u32 = u32::MAX;

/// What a statement is, to the death-round rule.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A pure op (`Load` included): dies when its destination does.
    Pure { dst: u16 },
    /// A `Store` or a call: never dies.
    Effect,
    /// A counted loop.
    Loop { trips: u32 },
    /// A branch whose else arm starts at node `else_at`.
    If { else_at: u32 },
}

/// One statement of the flattened body.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// One past the last node of this node's subtree.
    end: u32,
    parent: u32,
    /// The outermost loop holding this node.
    outer: u32,
    /// Whether this node is inside a zero-trip loop.
    zero: bool,
    death: u8,
}

/// The statement tree flattened in pre-order, with its def-use edges and
/// death rounds. One per thread, reused across methods.
#[derive(Debug, Default)]
pub(super) struct Dead {
    node: Vec<Node>,
    /// Whether each register is written: parameters on entry, the rest
    /// by the statements indexed so far.
    written: Vec<bool>,
    /// Each register's reads, as a list through `next_read`.
    first_read: Vec<u32>,
    next_read: Vec<u32>,
    /// The node of each read.
    reader: Vec<u32>,
    /// Some register is read before its definition.
    early: bool,
    /// Some statement gives `const_prop` a constant.
    source: bool,
}

thread_local! {
    static DEAD: RefCell<Dead> = RefCell::default();
}

/// Runs the pipeline on a single-assignment method with every DCE round
/// at once; `None`, with the method untouched, if it reuses registers.
pub(super) fn optimize(method: &mut Method) -> Option<PassStats> {
    DEAD.with(|dead| dead.borrow_mut().optimize(method))
}

impl Dead {
    fn optimize(&mut self, method: &mut Method) -> Option<PassStats> {
        let source = self.index(method)?;
        // Without a constant source `const_prop` is exactly a no-op. With
        // one it runs once: on single-assignment code it is idempotent and
        // no removal hands it a new constant (see `optimize_method`).
        let folded = if source { const_prop(method) } else { 0 };
        if folded > 0 {
            self.index(method)
                .expect("const_prop only drops writes, so the method stays single-assignment");
        }
        let ret = method.ret.reg().map(|r| r.0);
        // One sweep, unless a read comes before its write: then sweeps
        // until no death round rises.
        while self.sweep(ret) && self.early {}
        let (mut removed, mut last) = (0, 0);
        for n in self.node.iter().filter(|n| n.death < NEVER) {
            removed += 1;
            last = last.max(u32::from(n.death));
        }
        if removed > 0 {
            self.prune(&mut method.body, &mut 0);
        }
        Some(PassStats {
            folded,
            removed,
            rounds: (last + 1).max(1 + u32::from(folded > 0)).min(MAX_ROUNDS),
        })
    }

    /// Flattens `method`'s body; `Some(has a constant source)` if it is
    /// single-assignment.
    fn index(&mut self, method: &Method) -> Option<bool> {
        self.node.clear();
        self.next_read.clear();
        self.reader.clear();
        let n_regs = method.n_regs as usize;
        self.written.clear();
        self.written.resize(n_regs, false);
        self.written[..method.n_params as usize].fill(true);
        self.first_read.clear();
        self.first_read.resize(n_regs, NONE);
        self.early = false;
        self.source = false;
        self.walk(&method.body, NONE, NONE, false)?;
        Some(self.source)
    }

    /// Indexes one statement list; `None` on a second write.
    fn walk(&mut self, body: &[Stmt], parent: u32, outer: u32, zero: bool) -> Option<()> {
        for stmt in body {
            let at = self.node.len() as u32;
            self.node.push(Node {
                kind: Kind::Effect,
                end: 0,
                parent,
                outer,
                zero,
                death: 1,
            });
            let kind = match stmt {
                Stmt::Op(o) => {
                    self.read(o.a, at);
                    if o.op != OpKind::Mov {
                        self.read(o.b, at);
                    }
                    let imm = |x: Operand| matches!(x, Operand::Imm(_));
                    self.source |= match o.op {
                        OpKind::Mov => imm(o.a),
                        OpKind::Load | OpKind::Store => false,
                        _ => imm(o.a) && imm(o.b),
                    };
                    if o.op.writes_dst() {
                        self.write(o.dst)?;
                        Kind::Pure { dst: o.dst.0 }
                    } else {
                        Kind::Effect
                    }
                }
                Stmt::Call(c) => {
                    for a in &c.args {
                        self.read(*a, at);
                    }
                    if let Some(d) = c.dst {
                        self.write(d)?;
                    }
                    Kind::Effect
                }
                Stmt::Loop { trips, body } => {
                    let outer = if outer == NONE { at } else { outer };
                    self.walk(body, at, outer, zero || *trips == 0)?;
                    Kind::Loop { trips: *trips }
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    self.read(*cond, at);
                    self.source |= matches!(cond, Operand::Imm(_));
                    self.walk(then_b, at, outer, zero)?;
                    let else_at = self.node.len() as u32;
                    self.walk(else_b, at, outer, zero)?;
                    Kind::If { else_at }
                }
            };
            let end = self.node.len() as u32;
            let node = &mut self.node[at as usize];
            node.kind = kind;
            node.end = end;
        }
        Some(())
    }

    fn read(&mut self, o: Operand, at: u32) {
        if let Operand::Reg(r) = o {
            let r = r.0 as usize;
            self.next_read.push(self.first_read[r]);
            self.first_read[r] = self.reader.len() as u32;
            self.reader.push(at);
        }
    }

    /// Records a write of `r`; `None` if it is not the first.
    fn write(&mut self, r: Reg) -> Option<()> {
        let r = r.0 as usize;
        if std::mem::replace(&mut self.written[r], true) {
            return None;
        }
        self.early |= self.first_read[r] != NONE;
        Some(())
    }

    /// One reverse pre-order pass over the death rounds; whether any rose.
    fn sweep(&mut self, ret: Option<u16>) -> bool {
        let mut changed = false;
        for i in (0..self.node.len()).rev() {
            let n = self.node[i];
            let d = match n.kind {
                _ if n.zero => 1,
                Kind::Effect => NEVER,
                Kind::Pure { dst } if Some(dst) == ret => NEVER,
                Kind::Pure { dst } => self.pure_death(i, dst),
                // Already the maximum over its contents.
                Kind::Loop { .. } | Kind::If { .. } => n.death,
            };
            changed |= d != n.death;
            self.node[i].death = d;
            if let Some(p) = self.node.get_mut(n.parent as usize) {
                if p.death < d {
                    p.death = d;
                    changed = true;
                }
            }
        }
        changed
    }

    /// The death round of pure op `s` writing `dst`.
    fn pure_death(&self, s: usize, dst: u16) -> u8 {
        let mut keep = 0;
        let mut read = self.first_read[dst as usize];
        while read != NONE {
            keep = keep.max(self.keeps(s, self.reader[read as usize] as usize));
            read = self.next_read[read as usize];
        }
        (keep + 1).min(NEVER)
    }

    /// The last round in which reader `r` keeps `s`'s destination live
    /// right after `s` (0: none). `s` is not in a zero-trip loop.
    fn keeps(&self, s: usize, r: usize) -> u8 {
        let holds = |n: u32, at: usize| n as usize <= at && at < self.node[n as usize].end as usize;
        let dr = self.node[r].death;
        let lo = self.node[s].outer;
        if lo != NONE && holds(lo, r) {
            return dr;
        }
        if r <= s {
            return 0;
        }
        // Climb from `r` to the innermost node holding `s`, noting the
        // outermost loop on the way and the innermost `If` above it.
        let (mut at, mut out, mut branch) = (r as u32, NONE, NONE);
        loop {
            match self.node[at as usize].kind {
                Kind::Loop { .. } => (out, branch) = (at, NONE),
                Kind::If { .. } if out != NONE && branch == NONE => branch = at,
                _ => {}
            }
            let p = self.node[at as usize].parent;
            if p == NONE {
                break;
            }
            if holds(p, s) {
                if let Kind::If { else_at } = self.node[p as usize].kind {
                    if s < else_at as usize && else_at as usize <= r {
                        return 0; // the other arm
                    }
                }
                break;
            }
            at = p;
        }
        let marks_stay = out != NONE
            && !matches!(self.node[out as usize].kind, Kind::Loop { trips: 0 })
            && (branch == NONE || self.node[branch as usize].death != dr);
        if marks_stay {
            dr
        } else {
            dr - 1
        }
    }

    /// Drops every statement that dies within the backstop, in one sweep.
    fn prune(&self, body: &mut Vec<Stmt>, at: &mut usize) {
        body.retain_mut(|stmt| {
            let n = self.node[*at];
            if n.death < NEVER {
                *at = n.end as usize;
                return false;
            }
            *at += 1;
            match stmt {
                Stmt::Op(_) | Stmt::Call(_) => {}
                Stmt::Loop { body, .. } => self.prune(body, at),
                Stmt::If { then_b, else_b, .. } => {
                    self.prune(then_b, at);
                    self.prune(else_b, at);
                }
            }
            true
        });
    }
}
