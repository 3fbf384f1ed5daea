//! Synthetic benchmark suites: the SPECjvm98 (training) and DaCapo+JBB
//! (test) stand-ins of the reproduction.
//!
//! The paper tunes on SPECjvm98 and evaluates the tuned heuristic on an
//! unseen suite (five DaCapo programs plus `ipsixql` and `pseudojbb`). We
//! cannot run the Java originals, so each benchmark is modeled as a seeded
//! synthetic program whose *distributional shape* matches what the paper's
//! results depend on:
//!
//! * **SPECjvm98-like** programs are small-to-medium method populations
//!   dominated by long-running compute kernels — running time rules, and
//!   the Jikes default heuristic (hand-tuned on exactly this suite,
//!   as the paper observes in §6.2) is near-optimal for them;
//! * **DaCapo-like** programs have many more and larger methods (generated
//!   parsers, formatters, interpreters) and far shorter run phases —
//!   under `Opt`, optimizing-compile time is a large share of total time,
//!   which is where the paper's 26–37% total-time wins come from.
//!
//! Every program is generated deterministically from
//! `child_seed(SUITE_SEED, name)`; two calls with the same name are
//! bit-identical. See [`spec::BenchmarkSpec`] for the knobs and
//! [`suites`] for the 14 calibrated instances.

pub mod drift;
pub mod generate;
pub mod spec;
pub mod suites;

pub use drift::{DriftKind, DriftPos, DriftSchedule};
pub use generate::generate;
pub use spec::{BenchmarkSpec, OpMix, Suite};
pub use suites::{
    all_benchmarks, benchmark_by_name, dacapo_jbb, spec_by_name, specjvm98, Benchmark,
};
