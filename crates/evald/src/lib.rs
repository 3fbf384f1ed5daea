//! `evald` — the stateless remote fitness-evaluation worker.
//!
//! The paper's GA spends its hours in fitness measurement (§4: repeated
//! SPECjvm98 runs per tuning cell). `evald` is the horizontal tier for
//! that cost: a process that answers `eval_batch` RPCs by running the
//! exact pure `Problem::fitness` path the in-process tuner runs, so a
//! `tuned` daemon can fan a generation's cache misses out over N workers
//! and still produce **bit-identical** results (fitness is a pure
//! function of the genome; results merge into the GA memo table keyed by
//! genome).
//!
//! * [`server`] — the eval RPC server: per-connection `task` handshake,
//!   then `eval_batch` requests, the same defensive line-delimited JSON
//!   framing as `tuned`;
//! * [`cache`] — a per-process [`problems::Problem`] cache keyed by the
//!   task-relevant part of the job spec, so repeated connections for the
//!   same job reuse the default-heuristic measurements;
//! * [`register`] — the registrar thread: announces the worker to a
//!   `tuned` daemon and heartbeats so the dispatcher's health checks see
//!   it (re-registering automatically after a daemon restart);
//! * [`chaos`] — fault injection for integration tests
//!   (`--chaos drop:0.1,delay:50ms`): probabilistically drop connections
//!   mid-request and delay responses, driven by a seeded RNG so test
//!   runs are reproducible.
//!
//! Like the rest of the workspace: plain `std`, no external crates.

pub mod cache;
pub mod chaos;
pub mod register;
pub mod server;

pub use cache::ProblemCache;
pub use chaos::{Chaos, ChaosConfig};
pub use register::spawn_registrar;
pub use server::EvalWorker;
