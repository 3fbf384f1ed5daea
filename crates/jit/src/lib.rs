//! The JIT/VM simulator: the Jikes-RVM stand-in of the `inlinetune`
//! reproduction.
//!
//! This crate models everything about a Java virtual machine that matters
//! to the tuning problem of *Automatic Tuning of Inlining Heuristics*
//! (Cavazos & O'Boyle, SC 2005):
//!
//! * [`arch`] — architecture models (a Pentium-4-class x86 and a PowerPC
//!   G4-class machine): per-op-class cycle costs, call overhead, I-cache
//!   capacity and miss penalty, compile-speed constants, clock rate;
//! * [`compile`] — the two compilers: a **baseline** compiler (cheap to
//!   run, slow code, no inlining — Jikes' bytecode-to-machine-code
//!   baseline) and an **optimizing** compiler that performs inlining via
//!   `inlinetune-inline`, then runs real post-inlining [`passes`]
//!   (constant propagation + dead-code elimination — the "opportunities
//!   for compiler optimization" inlining creates), and whose compile time
//!   grows superlinearly with the post-inlining method size;
//! * [`exec`] — the analytic execution-cost model: per-iteration cycles of
//!   a mixed baseline/opt VM state, with call overhead, inlining synergy
//!   and an I-cache footprint penalty;
//! * [`adaptive`] — the adaptive optimization system: a profile-driven
//!   cost/benefit recompilation policy (Arnold et al. style) plus
//!   hot-call-site identification for the Fig. 4 heuristic;
//! * [`scenario`] — the two compilation scenarios of the paper (`Opt` and
//!   `Adapt`) and the §5 measurement methodology: *total time* (first
//!   iteration including compilation) and *running time* (steady state);
//! * [`prepared`] — measuring one program under many parameter vectors:
//!   the parameter-independent half of a measurement done once, and an
//!   exact per-method memo of what each region of parameter space compiles
//!   a method to.
//!
//! Everything is deterministic and analytic. A one-shot [`measure`] of one
//! of the suites' programs (hundreds to 1,500 methods) costs 2–4 ms at the
//! median and 8–16 ms for the largest; measured through a [`Prepared`]
//! context and a [`UnitMemo`], as a search does, a whole seven-program
//! fitness call costs 12–23 ms — nearly all of it the optimizer's passes
//! over the methods the memo did not hold. That, not interpretation, is
//! the budget a genetic search spends.

pub mod adaptive;
pub mod arch;
pub mod compile;
pub mod exec;
pub mod passes;
pub mod prepared;
pub mod scenario;

pub use adaptive::{AdaptConfig, AdaptivePlan};
pub use arch::ArchModel;
pub use compile::{CompileLevel, VmState};
pub use exec::ExecBreakdown;
pub use passes::{optimize_method, PassStats};
pub use prepared::{MemoStats, Prepared, UnitMemo};
pub use scenario::{measure, Measurement, Scenario};
