//! The Jikes-RVM-style inlining subsystem: the tunable heuristic of the
//! paper (*Automatic Tuning of Inlining Heuristics*, Cavazos & O'Boyle,
//! SC 2005) and the inlining transformation it controls.
//!
//! Three pieces:
//!
//! * [`params::InlineParams`] — the five tunable thresholds of the paper's
//!   Table 1, with the Jikes RVM default values (Table 4, column 1) and the
//!   genetic-algorithm search ranges;
//! * [`decision`] — the decision procedures, transcribed from the paper's
//!   Fig. 3 (optimizing heuristic: a cascade of four size/depth tests) and
//!   Fig. 4 (adaptive hot-call-site heuristic: a single size test);
//! * [`transform`] — the inliner itself: a bottom-up body-splicing pass that
//!   renames the callee's registers into the caller's (grown) frame, wires
//!   arguments and return values through `Mov`s, tracks the growing caller
//!   size estimate (so `CALLER_MAX_SIZE` bounds cumulative expansion),
//!   guards against recursion via an inline stack, and records per-decision
//!   statistics.
//!
//! The transformation is semantics-preserving; `tests/` in this crate prove
//! it with property-based testing against the IR interpreter.

pub mod decision;
pub mod params;
pub mod transform;

pub use decision::{hot_decision, static_decision, DecisionRegion, InlineDecision, RejectReason};
pub use params::{InlineParams, ParamRanges, PARAM_NAMES};
pub use transform::{
    inline_method, inline_method_region, inline_method_traced, inline_program, DecisionRecord,
    HotSites, InlineStats,
};
