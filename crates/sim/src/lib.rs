//! # sim — deterministic simulation of the whole tuning cluster
//!
//! Runs the `tuned` daemon, its protocol server, and a fleet of `evald`
//! workers **in one process on a simulated network with a virtual
//! clock**, then turns every kind of distributed-systems weather on
//! them: dropped frames, duplicates, delays and reorders, one-way
//! partitions (half-open connections), full partitions, worker crashes
//! and restarts. Everything is derived from one `u64` seed, so a CI
//! sweep covers hundreds of fault schedules in seconds and any failure
//! replays with `simtest <scenario> --seed N --trace`.
//!
//! The approach is FoundationDB-style simulation testing, scaled to
//! this repo: the production code under test is the *real* dispatch,
//! server, and worker code — the [`served::Transport`] seam swaps only
//! the sockets and the clock. What the sweep asserts after every
//! scenario:
//!
//! * **No lost jobs.** Every submitted job terminates inside a virtual
//!   deadline.
//! * **Checkpoints stay loadable.** Every checkpoint written under
//!   faults restores through `search::restore`.
//! * **Bit-identical results.** The faulty run's best genome and
//!   fitness bits equal a fault-free in-process tune of the same spec —
//!   faults may cost retries and failovers, never correctness.
//!
//! A note on what "deterministic" means here: *outcomes* are
//! deterministic, not thread schedules. Fault verdicts are pure
//! functions of `(seed, link, connection, frame)`, so a seed always
//! injects the same faults; and because fitness is a pure function of
//! the genome and results merge keyed by genome, the final answer is
//! bit-stable no matter how the OS interleaves the threads in between.
//!
//! Layout:
//! * [`net`] — [`SimNet`]/`SimTransport`: the simulated network and
//!   virtual clock behind the [`served::Transport`] trait.
//! * [`cluster`] — [`Cluster`]: boot a deployment, crash / partition /
//!   heal / advance, check invariants.
//! * [`scenario`] — what a seeded sweep *is*: the [`Scenario`] trait,
//!   the one [`sweep`](scenario::sweep)/[`replay`](scenario::replay)
//!   loop, the one [`SeedReport`]/[`SweepReport`] pair and replay
//!   recipe, the fault timeline, the ground-truth cache and the
//!   Cluster-backed body most scenarios share (`simtest` is a thin CLI
//!   over this). Its seven implementations:
//! * [`sweep`] — `fault` (one inlining job under seeded weather),
//!   `mixed` (one `inline`, one `flags` and one `dss` job queued on a
//!   single daemon, proving a heterogeneous backlog loses no job under
//!   the same weather) and `store` (kill a store mid-append under
//!   seeded torn-tail schedules and prove no acknowledged record is
//!   lost or corrupted).
//! * [`online`] — `online`: drifting workloads, the drift detector, and
//!   warm retunes running inside the simulated cluster, asserted
//!   bit-identical — per-epoch rows included — against the in-process
//!   reference runner, with bounded regret after every detection.
//! * [`shard_soak`] — `shard`, the multi-tenant soak: a thousand
//!   virtual clients over a shared hundred-worker fleet against the
//!   sharded control plane (admission, quotas, DRR fairness,
//!   bit-identity); and `queue`, one backlog drained at 1 shard and at
//!   S shards.
//! * [`scale`] — `scale`: one large job fanned out over a 2–16-worker
//!   fleet, lossless and bit-identical under lossy links, a crash or a
//!   partition, checked by the daemon's own counts.

pub mod cluster;
pub mod net;
pub mod online;
pub mod scale;
pub mod scenario;
pub mod shard_soak;
pub mod sweep;

pub use cluster::{Cluster, ClusterConfig, Outcome, DAEMON_ADDR};
pub use net::{FaultPlan, SimNet, TraceEvent, GRACE};
pub use online::OnlineScenario;
pub use scale::ScaleScenario;
pub use scenario::{
    Counters, Failure, FailureKind, FaultCounts, FaultKind, Scale, Scenario, SeedReport,
    SweepReport, TimedFault,
};
pub use shard_soak::{
    QueueScenario, ShardScale, ShardScenario, CAPPED_TENANT, SOAK_DEADLINE, TENANTS,
};
pub use sweep::{FaultScenario, MixedScenario, StoreScenario, MIXED_PROBLEMS};
