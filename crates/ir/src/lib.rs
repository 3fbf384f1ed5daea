//! A bytecode-like intermediate representation for the `inlinetune` JIT
//! simulator.
//!
//! This crate is the substrate that stands in for Java bytecode / the Jikes
//! RVM HIR in the reproduction of *Automatic Tuning of Inlining Heuristics*
//! (Cavazos & O'Boyle, SC 2005). It provides:
//!
//! * a structured IR ([`Stmt`], [`Method`], [`Program`]) — straight-line
//!   integer/fixed-point operations, fixed-trip loops, profile-annotated
//!   branches, and call sites;
//! * a register-machine **interpreter** ([`interp`]) giving the IR real
//!   semantics, so that the inlining transformation can be *proven*
//!   semantics-preserving by testing;
//! * **size estimation** ([`size`]) mirroring Jikes RVM's "estimated machine
//!   instructions" — the quantity all heuristic thresholds compare against;
//! * **frequency analysis** ([`freq`]) — analytic per-method entry counts and
//!   per-call-site execution counts, the profile data the adaptive system and
//!   the cost model consume;
//! * **call-graph** utilities ([`callgraph`]) including Tarjan SCCs for
//!   recursion detection;
//! * a fluent [`builder`] used by the synthetic workload generators and
//!   tests, plus a [`pretty`] printer and a structural [`validate`] pass;
//! * a body as a pre-order statement stream ([`emit`]): the inliner writes
//!   its output through an [`emit::Sink`], which builds a tree or any
//!   other form of the body.
//!
//! Methods use a flat register file: parameters arrive in registers
//! `0..n_params`, the body is a statement tree (no early returns — the
//! method's value is the `ret` operand evaluated after the body), and all
//! operations are total (no traps), which keeps inlining a pure tree splice.

pub mod builder;
pub mod callgraph;
pub mod emit;
pub mod freq;
pub mod interp;
pub mod method;
pub mod op;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod size;
pub mod stats;
pub mod stmt;
pub mod testgen;
pub mod validate;

pub use builder::{MethodBuilder, ProgramBuilder};
pub use method::{Method, MethodId};
pub use op::{CostClass, OpKind, Operand, Reg};
pub use program::Program;
pub use stmt::{CallSiteId, CallStmt, OpStmt, Stmt};
