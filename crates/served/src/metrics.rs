//! The typed view of the daemon's counters that the `metrics` verb
//! serves.
//!
//! Counts live in exactly one place — the [`obs::Registry`] the daemon
//! and its worker pool record into (`DaemonConfig::obs`) — and each
//! event is recorded once, as a `tuned_*_total` counter, at the site
//! where it happens. The `metrics` verb, `watch` frames, the `obs` verb
//! and the `/metrics` scrape all read those counters;
//! [`MetricsSnapshot::read`] is the list of their names.

/// Point-in-time job counts by state, derived from the daemon's job table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobGauges {
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently on a worker.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that errored out.
    pub failed: u64,
    /// Jobs canceled by request.
    pub canceled: u64,
}

/// One reading of the daemon's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the daemon started, on the registry's clock.
    pub uptime_secs: f64,
    /// Job counts by state.
    pub jobs: JobGauges,
    /// Jobs accepted by `submit` since startup.
    pub jobs_submitted: u64,
    /// Jobs recovered from the run directory at startup.
    pub jobs_recovered: u64,
    /// GA generations completed.
    pub generations: u64,
    /// Generations per second of uptime.
    pub generations_per_sec: f64,
    /// Distinct fitness evaluations (strategy memo-table misses) across
    /// all jobs.
    pub evaluations: u64,
    /// Fitness lookups answered from strategy memo tables.
    pub cache_hits: u64,
    /// `cache_hits / (cache_hits + evaluations)`, 0 when nothing ran yet.
    pub cache_hit_rate: f64,
    /// Checkpoint files written.
    pub checkpoints_written: u64,
    /// Protocol connections accepted.
    pub connections: u64,
    /// Malformed / oversized / unparseable frames answered with an error.
    pub protocol_errors: u64,
    /// Eval requests written to remote workers (including re-sends).
    pub remote_dispatched: u64,
    /// `eval_batch` frames written to remote workers (each carries one or
    /// more eval requests).
    pub remote_batches: u64,
    /// Eval responses received from remote workers.
    pub remote_completed: u64,
    /// Eval requests re-dispatched after a worker failure (the sum of
    /// the per-worker `dispatch_retries{worker=…}` series).
    pub remote_retries: u64,
    /// Eval response waits that hit the request timeout (the sum of
    /// `dispatch_timeouts{worker=…}`).
    pub remote_timeouts: u64,
    /// Workers evicted from the pool — stale heartbeat, repeated
    /// failures, or protocol violations (the sum of
    /// `dispatch_evictions{worker=…}`).
    pub remote_evictions: u64,
    /// Evaluations that fell back to the local path because no live
    /// worker answered (also published as `dispatch_fallback_evals`).
    pub remote_fallback_evals: u64,
    /// Submissions and connections turned away with a structured `busy`
    /// frame (full shard queue or connection cap).
    pub busy_rejects: u64,
    /// Submissions rejected because a tenant's eval-budget quota could
    /// not cover the job's estimate.
    pub quota_rejects: u64,
    /// `watch` consumers disconnected because their frame backlog
    /// exceeded the bound.
    pub slow_watch_disconnects: u64,
}

impl MetricsSnapshot {
    /// Reads the daemon's counters out of `reg`, name by name (not via
    /// a registry-wide snapshot, which would also copy every histogram
    /// and the span ring); `jobs` and `uptime_micros` come from the
    /// daemon, which owns the job table and knows when it started. A
    /// counter nothing has bumped yet is created at zero by the read:
    /// the reading `Daemon::start` takes is what puts every
    /// `tuned_*_total` series in the first scrape.
    #[must_use]
    pub fn read(reg: &obs::Registry, jobs: JobGauges, uptime_micros: u64) -> Self {
        let count = |name: &str| reg.counter(name).get();
        let ratio = |num: u64, den: f64| if den > 0.0 { num as f64 / den } else { 0.0 };
        let uptime_secs = uptime_micros as f64 / 1e6;
        let generations = count("tuned_generations_total");
        let evaluations = count("tuned_evaluations_total");
        let cache_hits = count("tuned_cache_hits_total");
        Self {
            uptime_secs,
            jobs,
            jobs_submitted: count("tuned_jobs_submitted_total"),
            jobs_recovered: count("tuned_jobs_recovered_total"),
            generations,
            generations_per_sec: ratio(generations, uptime_secs),
            evaluations,
            cache_hits,
            cache_hit_rate: ratio(cache_hits, (evaluations + cache_hits) as f64),
            checkpoints_written: count("tuned_checkpoints_written_total"),
            connections: count("tuned_connections_total"),
            protocol_errors: count("tuned_protocol_errors_total"),
            remote_dispatched: count("tuned_remote_dispatched_total"),
            remote_batches: count("tuned_remote_batches_total"),
            remote_completed: count("tuned_remote_completed_total"),
            remote_retries: count("tuned_remote_retries_total"),
            remote_timeouts: count("tuned_remote_timeouts_total"),
            remote_evictions: count("tuned_remote_evictions_total"),
            remote_fallback_evals: count("tuned_remote_fallback_evals_total"),
            busy_rejects: count("tuned_busy_rejects_total"),
            quota_rejects: count("tuned_quota_rejects_total"),
            slow_watch_disconnects: count("tuned_slow_watch_disconnects_total"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_rates_derive() {
        let reg = obs::Registry::new();
        reg.counter("tuned_evaluations_total").add(30);
        reg.counter("tuned_cache_hits_total").add(10);
        reg.counter("tuned_generations_total").add(2);
        let jobs = JobGauges {
            queued: 1,
            running: 2,
            ..JobGauges::default()
        };
        let s = MetricsSnapshot::read(&reg, jobs, 4_000_000);
        assert_eq!(s.evaluations, 30);
        assert_eq!(s.cache_hits, 10);
        assert!((s.cache_hit_rate - 0.25).abs() < 1e-12);
        assert_eq!(s.generations, 2);
        assert_eq!(s.jobs, jobs);
        assert_eq!(s.uptime_secs, 4.0);
        assert_eq!(s.generations_per_sec, 0.5);
    }

    #[test]
    fn empty_metrics_have_zero_rates_and_publish_every_series() {
        let reg = obs::Registry::new();
        let s = MetricsSnapshot::read(&reg, JobGauges::default(), 0);
        assert_eq!((s.cache_hit_rate, s.generations_per_sec), (0.0, 0.0));
        assert_eq!(s.evaluations, 0);
        assert_eq!(reg.snapshot().counters.len(), 18, "one series per counter");
    }
}
