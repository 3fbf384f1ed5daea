//! The paper's contribution: **off-line genetic-algorithm tuning of a
//! dynamic compiler's inlining heuristic**, specialized per compilation
//! scenario, optimization goal and target architecture.
//!
//! This crate ties the substrates together:
//!
//! * [`goal`] — the three optimization goals of §3.3 (*running time*,
//!   *total time*, and *balance* — `factor × Running(s) + Total(s)` with
//!   `factor = Total(s_def)/Running(s_def)`);
//! * [`fitness`] — the §3.1 fitness function: the geometric mean of the
//!   goal metric over the training suite, normalized to the default
//!   heuristic (normalization leaves the argmin unchanged and makes
//!   fitness a dimensionless "relative cost");
//! * [`tuner`] — the off-line tuning driver: a [`Cell`] binds a training
//!   suite, a [`jit::Scenario`]/[`jit::ArchModel`] pair and a goal to
//!   everything no genome changes; a [`Tuner`] turns one cell into a GA
//!   fitness function and runs `inlinetune-ga` over the paper's Table 1
//!   parameter ranges. Includes the five paper tuning tasks of Table 4;
//! * [`eval`] — the §5 evaluation methodology: measure a parameter vector
//!   on a (train or unseen test) suite and report per-benchmark and
//!   average running/total ratios versus the Jikes default heuristic —
//!   the numbers behind Figures 5–9 and Table 5;
//! * [`per_program`] — §6.5: tuning the heuristic for the *running time of
//!   each benchmark individually* (Figure 10).
//!
//! Like the paper, all tuning happens off-line: the output is a plain
//! [`inliner::InlineParams`] you bake into the "shipped" compiler; there
//! is no runtime overhead.

pub mod eval;
pub mod fingerprint;
pub mod fitness;
pub mod goal;
pub mod multi_seed;
pub mod per_program;
pub mod tuner;

pub use eval::{evaluate_suite, BenchEval, SuiteEval};
pub use fingerprint::cell_fingerprint;
pub use fitness::geometric_mean;
pub use goal::Goal;
pub use multi_seed::tune_multi_seed;
pub use per_program::{tune_per_program, PerProgramOutcome};
pub use tuner::{paper_tasks, Cell, TuneOutcome, Tuner, TuningTask};
