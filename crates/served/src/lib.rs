//! `served` — the persistent tuning service behind the `tuned` binary.
//!
//! The paper tunes inlining heuristics with a genetic algorithm whose
//! fitness function executes whole benchmarks (§3.1) — searches are
//! hours-to-days long in the real system. This crate wraps the
//! workspace's [`tuner::Tuner`] in the operational shell such a search
//! needs:
//!
//! * [`daemon`] — a bounded job queue and a worker pool that drive each
//!   search **one round at a time** via `search::round`, with per-job
//!   cancellation and graceful shutdown;
//! * [`mod@cells`] — the tuning cells the process has built: every job over
//!   one cell shares its training suite, prepared contexts and default
//!   measurements, and gets a search state of its own;
//! * [`checkpoint`] — an atomic (temp-file + rename) checkpoint of the
//!   complete search state after every generation, and crash recovery
//!   that resumes incomplete jobs bit-identically after a `SIGKILL`;
//! * [`server`] / [`client`] / [`proto`] — a line-delimited JSON protocol
//!   over TCP (`submit`, `status`, `list`, `cancel`, `metrics`, `watch`,
//!   `shutdown`, plus `register` / `heartbeat` / `workers` for the
//!   remote-evaluator tier) with defensive framing;
//! * [`dispatch`] — the distributed-evaluation tier: a [`WorkerPool`] of
//!   `evald` processes and a [`RemoteEvaluator`] (a `ga::Evaluator`) that
//!   fans generation batches out with timeouts, capped-exponential-backoff
//!   retries, eviction of misbehaving workers, re-dispatch of orphaned
//!   work, and a local fallback — bit-identical to in-process runs;
//! * [`metrics`] — the names the daemon's counters carry in the `obs`
//!   registry (the only place a count is kept) and the typed reading
//!   the `metrics` verb serves: jobs by state, fitness evaluations,
//!   memo-table hit rate, generations per second;
//! * [`expo`] — a Prometheus-style text exposition of that registry,
//!   served over a tiny `GET /metrics` HTTP endpoint;
//! * [`json`] — the hand-rolled JSON layer (the workspace builds with no
//!   external crates; floats round-trip bit-exactly);
//! * `codec` — how every value is spelled in that JSON and what an
//!   absent key means; each persisted or wire format is one row list
//!   from which both directions derive;
//! * [`flags`] — the strict `--key value` command-line reader the
//!   `tuned` and `evald` binaries share;
//! * [`net`] — the transport seam: every socket and every sleep below
//!   this crate goes through [`net::Transport`], so the whole cluster
//!   runs identically on real TCP ([`net::TcpTransport`], the default)
//!   or on the deterministic simulated network in `crates/sim`.
//!
//! Everything is plain `std`: threads, `Mutex`/`Condvar`, `TcpListener`.

pub mod cells;
pub mod checkpoint;
pub mod client;
pub(crate) mod codec;
pub mod daemon;
pub mod dispatch;
pub mod expo;
pub mod fitstore;
pub mod flags;
pub mod job;
pub mod json;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod server;

pub use cells::{cells, Cells};
pub use checkpoint::RunDir;
pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, JobRecord, ShardSnapshot, SubmitError};
pub use dispatch::{DispatchConfig, RemoteEvaluator, Worker, WorkerPool, WorkerSnapshot};
pub use expo::MetricsExporter;
pub use flags::Flags;
pub use job::{JobSpec, JobState};
pub use metrics::{JobGauges, MetricsSnapshot};
pub use net::{NetListener, NetStream, TcpTransport, Transport};
pub use server::Server;

#[cfg(test)]
mod formats_doc {
    use crate::{checkpoint, job, proto};

    /// DESIGN.md §4.5's Formats table starts each row with the type,
    /// key, default and rule exactly as the row lists state them.
    #[test]
    fn design_md_formats_table_matches_the_row_lists() {
        let design = include_str!("../../../DESIGN.md");
        let mut table = String::new();
        for (name, optional_rows) in [
            job::JobSpecFmt::DOC,
            job::OnlineSpecFmt::DOC,
            job::GaConfigFmt::DOC,
            checkpoint::GaSnapshotFmt::DOC,
            checkpoint::CoreFmt::DOC,
            checkpoint::RaceFmt::DOC,
            checkpoint::OnlineSnapshotFmt::DOC,
            proto::EvalResultFmt::DOC,
        ] {
            for [key, default, rule] in optional_rows {
                let rule = match *rule {
                    "omit" => "; not written when equal to it",
                    "absent" => " when absent only (`null` is a value)",
                    _ => "",
                };
                table += &format!("| `{name}` | `{key}` | `{default}`{rule} |\n");
            }
        }
        for row in table.lines() {
            assert!(
                design.lines().any(|line| line.starts_with(row)),
                "DESIGN.md §4.5 Formats table lacks the row\n{row}\nexpected rows:\n{table}"
            );
        }
    }
}
