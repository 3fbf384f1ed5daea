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
//!
//! The index is an [`ir::emit::Sink`], so it is built from a statement
//! stream, not only from a tree. [`optimize`] replays a method's body
//! into it and prunes the tree in place. [`optimize_emitted`] has the
//! inliner emit into it directly: no inlined method is ever built, and
//! the pipeline's result is read off the nodes — the emitted size is the
//! sum of every node's own size weight, the compiled size that sum over
//! the survivors, and the local profile one pre-order pass over the
//! survivors through `ir::freq`'s per-statement formula, in
//! [`ir::freq::local_profile`]'s order, so every float comes out bit for
//! bit. That path declines a body that reuses a register or has a
//! constant source: `const_prop` needs the tree.

use std::cell::RefCell;

use ir::emit::{replay, Sink};
use ir::freq::MethodLocal;
use ir::method::{Method, MethodId};
use ir::op::{OpKind, Operand, Reg};
use ir::size::{call_stmt_size, IF_WEIGHT, LOOP_WEIGHT, METHOD_OVERHEAD};
use ir::stmt::{CallSiteId, OpStmt, Stmt};

use super::{const_prop, PassStats, MAX_ROUNDS};

/// The death round of a statement the round loop never removes.
const NEVER: u8 = MAX_ROUNDS as u8 + 1;

/// No node: the method body's parent, the end of a read list.
const NONE: u32 = u32::MAX;

/// What a statement is, to the death-round rule and to the size and
/// profile read off the survivors.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A pure op (`Load` included): dies when its destination does.
    Pure { op: OpKind, dst: u16 },
    /// A `Store`: never dies.
    Store,
    /// A call: never dies.
    Call {
        site: CallSiteId,
        callee: MethodId,
        n_args: u32,
        has_dst: bool,
    },
    /// A counted loop.
    Loop { trips: u32 },
    /// A branch whose else arm starts at node `else_at`.
    If { else_at: u32, prob_true: f64 },
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

impl Kind {
    /// The statement's own size weight, not counting what it holds.
    fn weight(self) -> u32 {
        match self {
            Kind::Pure { op, .. } => op.size_weight(),
            Kind::Store => OpKind::Store.size_weight(),
            Kind::Call {
                n_args, has_dst, ..
            } => call_stmt_size(n_args as usize, has_dst),
            Kind::Loop { .. } => LOOP_WEIGHT,
            Kind::If { .. } => IF_WEIGHT,
        }
    }
}

/// One register read.
#[derive(Debug, Clone, Copy)]
struct Read {
    node: u32,
    /// The same register's next read (`NONE`: the last).
    next: u32,
}

/// A loop or branch whose contents are still being indexed.
#[derive(Debug, Clone, Copy)]
struct Open {
    at: u32,
    /// `outer` and `zero` of the nodes inside it.
    outer: u32,
    zero: bool,
}

/// The statement tree flattened in pre-order, with its def-use edges and
/// death rounds. One per thread, reused across methods. It is built as a
/// [`Sink`]: straight from the inliner's stream, or by replaying a
/// method's body.
#[derive(Debug, Default)]
pub(crate) struct Dead {
    node: Vec<Node>,
    /// The loops and branches open at the current node, innermost last.
    open: Vec<Open>,
    /// Whether each register is written: parameters on entry, the rest
    /// by the statements indexed so far.
    written: Vec<bool>,
    /// Each register's reads, as a list through `reads`.
    first_read: Vec<u32>,
    /// Each read: its node, and the register's next read.
    reads: Vec<Read>,
    /// The weights of the nodes so far, summed.
    size: u32,
    /// Some register is written twice, or a parameter once.
    reused: bool,
    /// Some register is read before its definition.
    early: bool,
    /// Some statement gives `const_prop` a constant.
    source: bool,
    /// The survivor walk's open loops and arms: (end, multiplier).
    arms: Vec<(u32, f64)>,
}

/// What [`optimize_emitted`] reads off the surviving nodes.
#[derive(Debug)]
pub(crate) struct Emitted {
    /// The pipeline's statistics.
    pub(crate) stats: PassStats,
    /// Size of the method as emitted (`method_size` before the passes).
    pub(crate) emitted_size: u32,
    /// Size of the method the passes leave.
    pub(crate) code_size: u32,
    /// Local profile of the method the passes leave.
    pub(crate) local: MethodLocal,
}

thread_local! {
    static DEAD: RefCell<Dead> = RefCell::default();
}

/// Runs the pipeline on a single-assignment method with every DCE round
/// at once; `None`, with the method untouched, if it reuses registers.
pub(super) fn optimize(method: &mut Method) -> Option<PassStats> {
    DEAD.with(|dead| dead.borrow_mut().optimize(method))
}

/// Runs the pipeline on the body `emit` streams into the index, as if
/// that body replaced `root`'s, without ever building it. `None` if the
/// body reuses a register or gives `const_prop` a constant source: those
/// take the tree path.
pub(crate) fn optimize_emitted<R>(
    root: &Method,
    emit: impl FnOnce(&mut Dead) -> R,
) -> Option<(R, Emitted)> {
    DEAD.with(|dead| {
        let dead = &mut *dead.borrow_mut();
        dead.begin(root);
        let out = emit(dead);
        if dead.reused || dead.source {
            return None;
        }
        let stats = dead.rounds(root, 0);
        let (code_size, local) = dead.survivors();
        Some((
            out,
            Emitted {
                stats,
                emitted_size: METHOD_OVERHEAD + dead.size,
                code_size,
                local,
            },
        ))
    })
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
        let stats = self.rounds(method, folded);
        if stats.removed > 0 {
            self.prune(&mut method.body, &mut 0);
        }
        Some(stats)
    }

    /// Indexes `method`'s body; `Some(has a constant source)` if it is
    /// single-assignment.
    fn index(&mut self, method: &Method) -> Option<bool> {
        self.begin(method);
        replay(&method.body, self);
        (!self.reused).then_some(self.source)
    }

    /// Empties the index for a body of `method`'s frame.
    fn begin(&mut self, method: &Method) {
        self.node.clear();
        self.open.clear();
        self.reads.clear();
        let n_regs = method.n_regs as usize;
        self.written.clear();
        self.written.resize(n_regs, false);
        self.written[..method.n_params as usize].fill(true);
        self.first_read.clear();
        self.first_read.resize(n_regs, NONE);
        self.size = 0;
        self.reused = false;
        self.early = false;
        self.source = false;
    }

    /// Sweeps the indexed body's death rounds; the pipeline's statistics
    /// with `folded` folds.
    fn rounds(&mut self, method: &Method, folded: u32) -> PassStats {
        let ret = method.ret.reg().map(|r| r.0);
        // One sweep, unless a read comes before its write: then sweeps
        // until no death round rises.
        while self.sweep(ret) && self.early {}
        let (mut removed, mut last) = (0, 0);
        for n in self.node.iter().filter(|n| n.death < NEVER) {
            removed += 1;
            last = last.max(u32::from(n.death));
        }
        PassStats {
            folded,
            removed,
            rounds: (last + 1).max(1 + u32::from(folded > 0)).min(MAX_ROUNDS),
        }
    }

    /// Appends a node for the next statement, inside the innermost open
    /// loop or branch.
    fn push(&mut self, kind: Kind) -> u32 {
        let at = self.node.len() as u32;
        self.size += kind.weight();
        let (parent, outer, zero) = self
            .open
            .last()
            .map_or((NONE, NONE, false), |o| (o.at, o.outer, o.zero));
        self.node.push(Node {
            kind,
            end: at + 1,
            parent,
            outer,
            zero,
            death: 1,
        });
        at
    }

    /// Grows the register tables to hold `r`: a streamed body's frame
    /// grows with every splice.
    fn reg(&mut self, r: Reg) -> usize {
        let r = r.0 as usize;
        if r >= self.written.len() {
            let n = (r + 1).max(2 * self.written.len());
            self.written.resize(n, false);
            self.first_read.resize(n, NONE);
        }
        r
    }

    fn read(&mut self, o: Operand, at: u32) {
        if let Operand::Reg(r) = o {
            let r = self.reg(r);
            self.reads.push(Read {
                node: at,
                next: self.first_read[r],
            });
            self.first_read[r] = self.reads.len() as u32 - 1;
        }
    }

    /// Records a write of `r`, noting it if it is not the first.
    fn write(&mut self, r: Reg) {
        let r = self.reg(r);
        if std::mem::replace(&mut self.written[r], true) {
            self.reused = true;
        } else {
            self.early |= self.first_read[r] != NONE;
        }
    }

    /// One reverse pre-order pass over the death rounds; whether any rose.
    fn sweep(&mut self, ret: Option<u16>) -> bool {
        let mut changed = false;
        for i in (0..self.node.len()).rev() {
            let n = self.node[i];
            let d = match n.kind {
                _ if n.zero => 1,
                Kind::Store | Kind::Call { .. } => NEVER,
                Kind::Pure { dst, .. } if Some(dst) == ret => NEVER,
                Kind::Pure { dst, .. } => self.pure_death(i, dst),
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
            let Read { node, next } = self.reads[read as usize];
            keep = keep.max(self.keeps(s, node as usize));
            read = next;
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
                if let Kind::If { else_at, .. } = self.node[p as usize].kind {
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

    /// The size and local profile of the nodes no round removes: one
    /// pre-order pass, in `ir::freq::local_profile`'s order.
    fn survivors(&mut self) -> (u32, MethodLocal) {
        let mut size = METHOD_OVERHEAD;
        let mut local = MethodLocal::default();
        self.arms.clear();
        let mut i = 0;
        while i < self.node.len() {
            let n = self.node[i];
            if n.death < NEVER {
                i = n.end as usize;
                continue;
            }
            while self.arms.last().is_some_and(|&(end, _)| end as usize <= i) {
                self.arms.pop();
            }
            let mult = self.arms.last().map_or(1.0, |&(_, m)| m);
            size += n.kind.weight();
            match n.kind {
                Kind::Pure { op, .. } => local.add_op(op, mult),
                Kind::Store => local.add_op(OpKind::Store, mult),
                Kind::Call {
                    site,
                    callee,
                    n_args,
                    ..
                } => local.add_call(site, callee, n_args as usize, mult),
                Kind::Loop { trips } => {
                    let body = local.add_loop(trips, mult);
                    self.arms.push((n.end, body));
                }
                Kind::If { else_at, prob_true } => {
                    let (then_m, else_m) = local.add_if(prob_true, mult);
                    self.arms.push((n.end, else_m));
                    self.arms.push((else_at, then_m));
                }
            }
            i += 1;
        }
        local.finish();
        (size, local)
    }
}

impl Sink for Dead {
    fn op(&mut self, o: OpStmt) {
        let kind = if o.op.writes_dst() {
            Kind::Pure {
                op: o.op,
                dst: o.dst.0,
            }
        } else {
            Kind::Store
        };
        let at = self.push(kind);
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
            self.write(o.dst);
        }
    }

    fn call(
        &mut self,
        site: CallSiteId,
        callee: MethodId,
        args: impl ExactSizeIterator<Item = Operand>,
        dst: Option<Reg>,
    ) {
        let at = self.push(Kind::Call {
            site,
            callee,
            n_args: args.len() as u32,
            has_dst: dst.is_some(),
        });
        for a in args {
            self.read(a, at);
        }
        if let Some(d) = dst {
            self.write(d);
        }
    }

    fn open_loop(&mut self, trips: u32) {
        let at = self.push(Kind::Loop { trips });
        let n = self.node[at as usize];
        self.open.push(Open {
            at,
            outer: if n.outer == NONE { at } else { n.outer },
            zero: n.zero || trips == 0,
        });
    }

    fn open_if(&mut self, cond: Operand, prob_true: f64) {
        let at = self.push(Kind::If {
            else_at: NONE,
            prob_true,
        });
        self.read(cond, at);
        self.source |= matches!(cond, Operand::Imm(_));
        let n = self.node[at as usize];
        self.open.push(Open {
            at,
            outer: n.outer,
            zero: n.zero,
        });
    }

    fn else_arm(&mut self) {
        let next = self.node.len() as u32;
        let at = self.open.last().expect("else_arm inside a branch").at;
        if let Kind::If { else_at, .. } = &mut self.node[at as usize].kind {
            *else_at = next;
        }
    }

    fn close(&mut self) {
        let open = self.open.pop().expect("close inside a loop or branch");
        self.node[open.at as usize].end = self.node.len() as u32;
    }
}
