//! Online adaptive re-tuning under workload drift.
//!
//! The paper tunes inlining heuristics *offline* against a fixed suite.
//! This crate adds the missing operating mode: the workload drifts
//! (phased hotness/call-graph shifts from [`workloads::drift`]), a
//! [`DriftDetector`] watches the incumbent genome's fitness for
//! sustained regression, and each detection triggers a *warm retune*
//! through the existing `search`/`stored` stack — a `warmstart`
//! strategy seeded from the incumbent plus nearest-fingerprint store
//! cells — installing a new incumbent for the shifted workload.
//!
//! Structure:
//!
//! * [`detect`] — the windowed median-regression detector (plain-data
//!   snapshots, trigger guarantees pinned by `tests/prop_detect.rs`);
//! * [`state`] — [`OnlineState`], the whole policy as one pure state
//!   machine shared by the daemon and the reference runner;
//! * [`runner`] — [`OnlineJob`], the in-process reference execution
//!   plus the frozen-incumbent control and the per-phase oracle, and
//!   [`epoch_strategy`], the per-epoch strategy it and the daemon share;
//! * [`report`] — per-epoch rows, regret-vs-oracle, and the
//!   bounded-regret invariants the sim sweep asserts per seed.

pub mod detect;
pub mod report;
pub mod runner;
pub mod state;

pub use detect::{DetectorConfig, DetectorSnapshot, DriftDetector};
pub use report::{EpochRow, OnlineReport};
pub use runner::{epoch_strategy, OnlineJob};
pub use state::{OnlineConfig, OnlineSnapshot, OnlineState};
