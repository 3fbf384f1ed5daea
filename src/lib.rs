//! # inlinetune
//!
//! A from-scratch Rust reproduction of **“Automatic Tuning of Inlining
//! Heuristics”** (John Cavazos & Michael F.P. O'Boyle, SC 2005): off-line
//! genetic-algorithm tuning of a dynamic compiler's inlining heuristic,
//! specialized per compilation scenario, optimization goal and target
//! architecture.
//!
//! This crate is a facade re-exporting the workspace's sub-crates:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`simrng`] | `inlinetune-simrng` | deterministic PRNG + distributions |
//! | [`ir`] | `inlinetune-ir` | bytecode-like IR, interpreter, size/frequency analysis |
//! | [`inliner`] | `inlinetune-inline` | the Fig. 3/4 heuristics and the inlining transformation |
//! | [`jit`] | `inlinetune-jit` | the VM simulator: compilers, adaptive system, scenarios |
//! | [`workloads`] | `inlinetune-workloads` | synthetic SPECjvm98 / DaCapo+JBB suites |
//! | [`ga`] | `inlinetune-ga` | the genetic-algorithm engine (ECJ analog) |
//! | [`search`] | `inlinetune-search` | pluggable search strategies + the racing portfolio |
//! | [`tuner`] | `inlinetune-core` | the paper's contribution: the off-line tuning pipeline |
//! | [`problems`] | `inlinetune-problems` | the problem-generic seam: inlining, compiler flags, data-structure selection |
//! | [`served`] | `inlinetune-served` | the `tuned` daemon: job queue, checkpoint/resume, wire protocol, remote dispatch |
//! | [`evald`] | `inlinetune-evald` | the remote fitness-evaluation worker: eval RPCs, heartbeats, chaos injection |
//! | [`obs`] | `inlinetune-obs` | observability: spans, latency histograms, counters, Prometheus exposition |
//! | [`stored`] | `inlinetune-stored` | persistent fitness store: crash-safe segments, warm-start seeds |
//!
//! ## Quickstart
//!
//! ```
//! use inlinetune::prelude::*;
//!
//! // Measure a benchmark under the Jikes default heuristic…
//! let bench = workloads::benchmark_by_name("db").expect("known benchmark");
//! let arch = ArchModel::pentium4();
//! let cfg = AdaptConfig::default();
//! let default = measure(&bench.program, Scenario::Opt, &arch,
//!                       &InlineParams::jikes_default(), &cfg);
//!
//! // …and with inlining disabled: inlining should help running time.
//! let off = measure(&bench.program, Scenario::Opt, &arch,
//!                   &InlineParams::disabled(), &cfg);
//! assert!(default.running_cycles < off.running_cycles);
//! ```
//!
//! See the `examples/` directory for tuning runs and the `experiments`
//! binary for the full paper reproduction.

pub use evald;
pub use ga;
pub use inliner;
pub use ir;
pub use jit;
pub use obs;
pub use problems;
pub use search;
pub use served;
pub use simrng;
pub use stored;
pub use tuner;
pub use workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use ga::{GaConfig, LocalEvaluator, Ranges};
    pub use inliner::{InlineParams, ParamRanges};
    pub use ir::{Method, MethodId, Program};
    pub use jit::{measure, AdaptConfig, ArchModel, Measurement, Scenario};
    pub use tuner::{evaluate_suite, paper_tasks, Goal, Tuner, TuningTask};
    pub use workloads::{
        self, all_benchmarks, benchmark_by_name, dacapo_jbb, specjvm98, Benchmark,
    };
}
