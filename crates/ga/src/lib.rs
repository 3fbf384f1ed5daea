//! A genetic-algorithm engine for integer-vector genomes — the stand-in
//! for the ECJ library ([Luke, 2004]) the paper uses to tune the Jikes RVM
//! inlining heuristic.
//!
//! Scope mirrors what the paper needs from ECJ:
//!
//! * fixed-length integer genomes with per-gene inclusive ranges
//!   ([`genome`]);
//! * tournament selection, one-point and uniform crossover,
//!   range-respecting mutation (uniform reset and geometric step), elitism
//!   ([`ops`]);
//! * a generational [`engine`] with **fitness memoization** (converged
//!   populations re-propose the same genomes constantly; the simulator
//!   evaluation is the expensive part) and optional **parallel
//!   evaluation** across worker threads, plus per-generation history for
//!   convergence analysis and early stopping on stagnation;
//! * a two-phase engine and a pluggable [`eval`] backend seam:
//!   [`GaState::ask`] hands the driver a generation's memo misses, the
//!   driver scores them on any [`Evaluator`] — the built-in
//!   [`LocalEvaluator`] thread pool or a remote worker fleet (see the
//!   `served` dispatch layer) — and [`GaState::tell`] commits them, with
//!   bit-identical results either way.
//!
//! Fitness is *minimized* (the paper minimizes time metrics). Everything
//! is deterministic given the seed: parallel evaluation never consumes
//! randomness, only the sequential breeding loop does.
//!
//! [Luke, 2004]: https://cs.gmu.edu/~eclab/projects/ecj/

pub mod engine;
pub mod eval;
pub mod genome;
pub mod ops;

pub use engine::{CrossoverKind, GaConfig, GaResult, GaSnapshot, GaState, GenTiming, Generation};
pub use eval::{Evaluator, LocalEvaluator, PendingScores, ReadyScores};
pub use genome::{GeneKind, Genome, Ranges};
