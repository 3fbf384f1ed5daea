//! # shard — the multi-tenant sharded control plane
//!
//! The pieces that turn `tuned` from one global job queue with per-job
//! worker leasing into N independent shards multiplexing thousands of
//! jobs from many tenants over one shared worker fleet:
//!
//! * [`route`] — the two placement functions. [`shard_of`] maps a job to
//!   its shard, a pure function of its id and the shard count, so
//!   recovery after a restart re-derives the same placement from the
//!   run directory alone. [`lease_of`] maps a worker to the shard it
//!   serves by rendezvous hashing of its address, so worker churn never
//!   moves the survivors. Dispatch applies it to the pool's live set; a
//!   shard with no live leaseholder borrows the whole live pool.
//! * [`drr`] — [`DrrScheduler`], a deficit-round-robin queue per shard.
//!   Each tenant gets its own FIFO and a deficit counter; jobs carry an
//!   eval-budget cost, so a tenant submitting huge jobs cannot crowd
//!   out a tenant submitting small ones. Work-conserving: a dequeue on
//!   a non-empty scheduler always returns a job.
//! * [`quota`] — [`QuotaAccountant`], per-tenant eval budgets. Admission
//!   reserves a job's estimated cost up front and rejects when the
//!   tenant's `used + reserved + estimate` would exceed its quota;
//!   actual evaluations are charged against the reservation as the job
//!   runs. Estimates are upper bounds, so `used` can never exceed the
//!   quota, and all arithmetic saturates — accounting never goes
//!   negative.
//!
//! The crate is deliberately free of I/O and of dependencies on the
//! rest of the workspace: `served` owns the sockets, threads, and
//! persistence and composes these pieces under its own locks.

pub mod drr;
pub mod quota;
pub mod route;

pub use drr::DrrScheduler;
pub use quota::{QuotaAccountant, TenantUsage};
pub use route::{lease_of, shard_of};

/// The tenant a spec without a `tenant` key belongs to.
pub const DEFAULT_TENANT: &str = "default";

/// Why admission turned a request away. Every kind maps to a structured
/// `busy` frame on the wire so clients can tell "try again later"
/// (queue or connection pressure) from "over budget" (quota).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The job's shard queue is at capacity; retry later.
    QueueFull,
    /// The tenant's eval budget cannot cover the job; retrying will not
    /// help until running jobs finish under their estimates or the
    /// quota is raised.
    Quota,
    /// The server is at its concurrent-connection cap; retry later.
    Connections,
}

impl RejectKind {
    /// Wire name for the `reason` field of a busy frame.
    pub fn reason(self) -> &'static str {
        match self {
            RejectKind::QueueFull => "queue_full",
            RejectKind::Quota => "quota",
            RejectKind::Connections => "connections",
        }
    }

    /// Whether the condition is transient (retry later) as opposed to a
    /// budget decision.
    pub fn retryable(self) -> bool {
        !matches!(self, RejectKind::Quota)
    }
}

/// A structured admission rejection: the kind plus a human-readable
/// message for the `error` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    pub kind: RejectKind,
    pub message: String,
}

impl Reject {
    pub fn new(kind: RejectKind, message: impl Into<String>) -> Self {
        Reject {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.kind.reason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_kinds_have_distinct_reasons() {
        let kinds = [
            RejectKind::QueueFull,
            RejectKind::Quota,
            RejectKind::Connections,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.reason(), b.reason());
            }
        }
        assert!(RejectKind::QueueFull.retryable());
        assert!(RejectKind::Connections.retryable());
        assert!(!RejectKind::Quota.retryable());
    }
}
