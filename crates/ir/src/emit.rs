//! A body as a stream: the statements a pre-order walk meets, one call
//! per statement, written into a [`Sink`].
//!
//! The inliner produces its output this way, so what it produces is up
//! to the sink: [`Tree`] builds the statement tree, and the optimizer's
//! dead-code index (in `inlinetune-jit`) builds its flat node array
//! straight from the stream, with no tree in between. [`replay`] streams
//! an existing body into any sink.

use crate::method::MethodId;
use crate::op::{Operand, Reg};
use crate::stmt::{CallSiteId, CallStmt, OpStmt, Stmt};

/// Receives a body in pre-order. Each `open_loop` is closed by one
/// `close`; each `open_if` is followed by its then arm, one `else_arm`,
/// its else arm and one `close`.
pub trait Sink {
    /// An op statement.
    fn op(&mut self, op: OpStmt);
    /// A call statement.
    fn call(
        &mut self,
        site: CallSiteId,
        callee: MethodId,
        args: impl ExactSizeIterator<Item = Operand>,
        dst: Option<Reg>,
    );
    /// The start of a loop; its body follows.
    fn open_loop(&mut self, trips: u32);
    /// The start of a branch; its then arm follows.
    fn open_if(&mut self, cond: Operand, prob_true: f64);
    /// The end of the open branch's then arm; its else arm follows.
    fn else_arm(&mut self);
    /// The end of the innermost open loop or branch.
    fn close(&mut self);
}

/// Streams `body` into `sink`.
pub fn replay(body: &[Stmt], sink: &mut impl Sink) {
    for stmt in body {
        match stmt {
            Stmt::Op(o) => sink.op(o.clone()),
            Stmt::Call(c) => sink.call(c.site, c.callee, c.args.iter().copied(), c.dst),
            Stmt::Loop { trips, body } => {
                sink.open_loop(*trips);
                replay(body, sink);
                sink.close();
            }
            Stmt::If {
                cond,
                prob_true,
                then_b,
                else_b,
            } => {
                sink.open_if(*cond, *prob_true);
                replay(then_b, sink);
                sink.else_arm();
                replay(else_b, sink);
                sink.close();
            }
        }
    }
}

/// The sink that builds the statement tree.
#[derive(Debug, Default)]
pub struct Tree {
    /// The statement list being filled.
    body: Vec<Stmt>,
    /// Each open loop or branch, with the list it joins when closed.
    open: Vec<(Stmt, Vec<Stmt>)>,
}

impl Tree {
    /// The body streamed so far.
    ///
    /// # Panics
    /// If a loop or branch is still open.
    #[must_use]
    pub fn finish(self) -> Vec<Stmt> {
        assert!(self.open.is_empty(), "a loop or branch was never closed");
        self.body
    }

    fn open(&mut self, stmt: Stmt) {
        let outer = std::mem::take(&mut self.body);
        self.open.push((stmt, outer));
    }
}

impl Sink for Tree {
    fn op(&mut self, op: OpStmt) {
        self.body.push(Stmt::Op(op));
    }

    fn call(
        &mut self,
        site: CallSiteId,
        callee: MethodId,
        args: impl ExactSizeIterator<Item = Operand>,
        dst: Option<Reg>,
    ) {
        self.body.push(Stmt::Call(CallStmt {
            site,
            callee,
            args: args.collect(),
            dst,
        }));
    }

    fn open_loop(&mut self, trips: u32) {
        self.open(Stmt::Loop {
            trips,
            body: Vec::new(),
        });
    }

    fn open_if(&mut self, cond: Operand, prob_true: f64) {
        self.open(Stmt::If {
            cond,
            prob_true,
            then_b: Vec::new(),
            else_b: Vec::new(),
        });
    }

    fn else_arm(&mut self) {
        match self.open.last_mut() {
            Some((Stmt::If { then_b, .. }, _)) => *then_b = std::mem::take(&mut self.body),
            _ => panic!("else_arm outside a branch"),
        }
    }

    fn close(&mut self) {
        let (mut stmt, outer) = self.open.pop().expect("close without an open statement");
        let inner = std::mem::replace(&mut self.body, outer);
        match &mut stmt {
            Stmt::Loop { body, .. } => *body = inner,
            Stmt::If { else_b, .. } => *else_b = inner,
            Stmt::Op(_) | Stmt::Call(_) => unreachable!("only loops and branches open"),
        }
        self.body.push(stmt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{random_program, GenConfig};

    /// Replaying a body into a [`Tree`] builds the body again.
    #[test]
    fn a_replayed_body_rebuilds_itself() {
        simrng::cases("a_replayed_body_rebuilds_itself", |rng| {
            let program = random_program(rng, &GenConfig::default());
            for m in &program.methods {
                let mut tree = Tree::default();
                replay(&m.body, &mut tree);
                assert_eq!(tree.finish(), m.body, "{}", m.name);
            }
        });
    }
}
