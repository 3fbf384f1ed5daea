//! The daemon core: a bounded job queue, a worker pool driving
//! [`tuner::Tuner`] generation-by-generation, per-generation checkpoints,
//! cancellation, graceful shutdown, and crash recovery.
//!
//! This is the paper's §3.1 GA search recast as a long-running service:
//! each job is one (scenario, goal, architecture) tuning cell, and a
//! worker advances it one generation at a time so the daemon can
//! checkpoint, cancel, or shut down between generations without losing
//! more than one generation of work.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ga::{GenTiming, LocalEvaluator};
use online::OnlineState;
use problems::Problem;
use search::{Standing, Strategy};
use shard::{shard_of, DrrScheduler, QuotaAccountant, Reject, RejectKind, TenantUsage};
use workloads::DriftPos;

use crate::checkpoint::RunDir;
use crate::dispatch::{DispatchConfig, RemoteEvaluator, WorkerPool};
use crate::fitstore::StoreTier;
use crate::job::{JobSpec, JobState};
use crate::metrics::{JobGauges, MetricsSnapshot};
use crate::net::{TcpTransport, Transport};

/// Daemon tunables.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads (concurrent jobs). The daemon always spawns at
    /// least one runner per shard (`max(workers, shards)`), so shards
    /// are never idle merely because the runner count is low.
    pub workers: usize,
    /// Maximum queued-but-not-running jobs **per shard**; admission
    /// rejects beyond this with a structured `busy` frame. (With one
    /// shard — the default — this is exactly the old global bound.)
    pub queue_capacity: usize,
    /// Independent job shards. Each job is routed by
    /// `shard::shard_of(id, shards)` and its GA state, checkpoints, and
    /// store writes are owned by that shard's runners for its lifetime.
    pub shards: usize,
    /// Per-tenant evaluation-budget quotas (tenant name → max evals
    /// committed across that tenant's jobs). Tenants not listed are
    /// unlimited.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Deficit-round-robin quantum in eval-budget units (see
    /// `shard::drr`).
    pub drr_quantum: u64,
    /// Cap on concurrent protocol connections; the server answers a
    /// structured `busy` frame and disconnects beyond it.
    pub max_connections: usize,
    /// Total **local** evaluation threads shared by every concurrently
    /// running job. Without this cap, W concurrent jobs each defaulting
    /// to `available_parallelism()` GA threads oversubscribe the machine
    /// W-fold; with it, each job leases a slice of the budget for its
    /// lifetime (never less than one thread).
    pub eval_threads: usize,
    /// Statically configured `evald` worker addresses. Workers may also
    /// join at runtime via the `register` verb.
    pub eval_workers: Vec<String>,
    /// Remote-dispatch tunables.
    pub dispatch: DispatchConfig,
    /// The observability registry the daemon, its jobs and the dispatch
    /// layer record into — the one store behind the `metrics` verb, the
    /// `obs` verb and the `/metrics` scrape. Defaults to the shared
    /// process registry (wall clock), which every default-configured
    /// daemon in the process adds into; to read totals from zero, inject
    /// a fresh one (tests build theirs on an `obs::ManualClock`).
    pub obs: Arc<obs::Registry>,
    /// The network + clock the dispatch tier runs on. Defaults to real
    /// TCP; the simulation harness injects a `sim::SimTransport`.
    pub transport: Arc<dyn Transport>,
    /// The cluster-wide persistent fitness store (`--store-path`).
    /// When set, every job reads evaluations through it, writes fresh
    /// scores behind it, and warm-starts seedable strategies from the
    /// best genomes of prior jobs on similar workloads. `None` (the
    /// default) disables persistence entirely.
    pub store: Option<Arc<stored::Store>>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            shards: 1,
            tenant_quotas: Vec::new(),
            drr_quantum: shard::drr::DEFAULT_QUANTUM,
            max_connections: 256,
            eval_threads: std::thread::available_parallelism().map_or(1, usize::from),
            eval_workers: Vec::new(),
            dispatch: DispatchConfig::default(),
            obs: Arc::clone(obs::global()),
            transport: TcpTransport::shared(),
            store: None,
        }
    }
}

/// The shared cap on local evaluation threads (see
/// [`DaemonConfig::eval_threads`]). Leases are clamped, not queued: a job
/// that arrives with the budget exhausted still gets one thread, so the
/// worst case is `workers - 1` extra threads — not `workers × cores`.
struct ThreadBudget {
    total: usize,
    used: Mutex<usize>,
}

/// A job's slice of the thread budget; returned to the pool on drop.
struct ThreadLease<'a> {
    budget: &'a ThreadBudget,
    granted: usize,
}

impl ThreadBudget {
    fn new(total: usize) -> Self {
        Self {
            total: total.max(1),
            used: Mutex::new(0),
        }
    }

    fn lease(&self, want: usize) -> ThreadLease<'_> {
        let mut used = self.used.lock().expect("thread budget poisoned");
        let granted = want.max(1).min(self.total.saturating_sub(*used)).max(1);
        *used += granted;
        ThreadLease {
            budget: self,
            granted,
        }
    }
}

impl Drop for ThreadLease<'_> {
    fn drop(&mut self) {
        let mut used = self.budget.used.lock().expect("thread budget poisoned");
        *used = used.saturating_sub(self.granted);
    }
}

/// A job's externally visible record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job id (assigned at submit, stable across restarts).
    pub id: u64,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Generations completed so far.
    pub generation: usize,
    /// Best fitness so far (`None` until a generation completes).
    pub best_fitness: Option<f64>,
    /// The tuned genome and its fitness, once `Done`. Decode it with the
    /// job's problem (`problems::build(&spec.problem, …).describe(…)`);
    /// for inlining jobs it is an `InlineParams` genome.
    pub result: Option<(Vec<i64>, f64)>,
    /// Failure message, if `Failed`.
    pub error: Option<String>,
    /// The latest generation's timing breakdown (`None` until a
    /// generation completes; not persisted across restarts).
    pub timing: Option<GenTiming>,
    /// Per-contender progress: one entry for a lone strategy, one per
    /// member for a racing portfolio (not persisted across restarts;
    /// repopulated once the resumed job completes a round).
    pub standings: Vec<Standing>,
    /// The shard that owns this job (`shard::shard_of(id, shards)`;
    /// stable across restarts because it depends only on the id).
    pub shard: usize,
    /// Online-mode progress, per committed epoch (`None` for offline
    /// jobs and until the first epoch commits; not persisted across
    /// restarts — repopulated when the resumed job commits an epoch).
    pub online: Option<OnlineProgress>,
}

/// One online job's live progress, surfaced on `status`/`watch` frames.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineProgress {
    /// Committed epochs (epoch 0 is the initial tune).
    pub epoch: u64,
    /// Retunes committed so far.
    pub retunes: u64,
    /// The incumbent's probe regression over its baseline at the last
    /// committed epoch, percent — the daemon's live regret proxy.
    pub regret_pct: f64,
    /// Workload phase of the last committed epoch.
    pub phase: u32,
}

struct JobEntry {
    record: JobRecord,
    cancel: Arc<AtomicBool>,
    /// Micros (daemon clock) when the job was last enqueued, for the
    /// scheduling-delay histogram.
    enqueued_at: u64,
    /// The unspent part of the job's quota reservation; settled back to
    /// the tenant when the job leaves the system.
    reserved: u64,
}

impl JobEntry {
    /// A `Queued` job that has not run yet.
    fn queued(id: u64, spec: JobSpec, shard: usize, enqueued_at: u64, reserved: u64) -> Self {
        let record = JobRecord {
            id,
            spec,
            state: JobState::Queued,
            generation: 0,
            best_fitness: None,
            result: None,
            error: None,
            timing: None,
            standings: Vec::new(),
            shard,
            online: None,
        };
        Self {
            record,
            cancel: Arc::new(AtomicBool::new(false)),
            enqueued_at,
            reserved,
        }
    }
}

struct JobTable {
    jobs: HashMap<u64, JobEntry>,
    /// One deficit-round-robin queue per shard.
    queues: Vec<DrrScheduler>,
    accountant: QuotaAccountant,
    next_id: u64,
}

/// A point-in-time view of one shard (for the `metrics` verb).
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    pub shard: usize,
    pub queued: usize,
    pub running: usize,
    pub done: usize,
    pub failed: usize,
    pub canceled: usize,
}

/// A failed `submit_admit`: either a structured admission rejection
/// (map it to a `busy` frame) or an internal error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    Rejected(Reject),
    Internal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(r) => write!(f, "{r}"),
            SubmitError::Internal(e) => write!(f, "{e}"),
        }
    }
}

struct Inner {
    config: DaemonConfig,
    run_dir: RunDir,
    jobs: Mutex<JobTable>,
    queue_cv: Condvar,
    /// The registry clock's reading at `Daemon::start`; uptime is the
    /// same clock's distance from it.
    started_micros: u64,
    shutdown: AtomicBool,
    budget: ThreadBudget,
    pool: Arc<WorkerPool>,
}

impl Inner {
    fn now_micros(&self) -> u64 {
        self.config.transport.now_micros()
    }

    /// Adds `n` to the registry counter `name`.
    fn count(&self, name: &str, n: u64) {
        self.config.obs.counter(name).add(n);
    }

    /// Sets the registry gauge `family{key="value"}` to `v` (clamped
    /// into the gauge's signed range).
    fn set_gauge(&self, family: &str, key: &str, value: &str, v: u64) {
        self.config
            .obs
            .gauge(&obs::labeled(family, &[(key, value)]))
            .set(v.min(i64::MAX as u64) as i64);
    }

    fn set_depth_gauge(&self, shard: usize, depth: usize) {
        let s = shard.to_string();
        self.set_gauge("shard_queue_depth", "shard", &s, depth as u64);
    }

    /// Per-tenant budget gauges — the obs mirror of the accountant's
    /// books, refreshed wherever a tenant's used/reserved totals move
    /// (admit, per-round charge, settle).
    fn set_tenant_gauges(&self, table: &JobTable, tenant: &str) {
        let Some(u) = table.accountant.usage_of(tenant) else {
            return;
        };
        self.set_gauge("tenant_evals_used", "tenant", tenant, u.used);
        self.set_gauge("tenant_evals_reserved", "tenant", tenant, u.reserved);
    }
}

/// The tuning daemon. Cheap to clone (an `Arc` around the shared state);
/// the protocol server holds one clone per connection thread.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Starts the daemon: opens the run directory, recovers any
    /// incomplete jobs from a previous process, and spawns the worker
    /// pool.
    ///
    /// # Errors
    /// Propagates run-directory I/O errors.
    pub fn start(config: DaemonConfig, run_dir: RunDir) -> Result<Self, String> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.shards >= 1, "need at least one shard");
        let inner = Arc::new(Inner {
            run_dir,
            jobs: Mutex::new(JobTable {
                jobs: HashMap::new(),
                queues: (0..config.shards)
                    .map(|_| DrrScheduler::new(config.drr_quantum))
                    .collect(),
                accountant: QuotaAccountant::with_quotas(&config.tenant_quotas),
                next_id: 1,
            }),
            queue_cv: Condvar::new(),
            started_micros: config.obs.now_micros(),
            shutdown: AtomicBool::new(false),
            budget: ThreadBudget::new(config.eval_threads),
            pool: {
                let mut pool =
                    WorkerPool::with_workers(config.dispatch.clone(), &config.eval_workers);
                pool.set_obs(Arc::clone(&config.obs));
                pool.set_transport(Arc::clone(&config.transport));
                Arc::new(pool)
            },
            config,
        });
        let daemon = Self {
            inner,
            workers: Arc::new(Mutex::new(Vec::new())),
        };
        daemon.recover()?;
        // The first reading creates every daemon counter and job gauge,
        // so a scrape lists them all from the start, zeros included.
        let _ = daemon.metrics_snapshot();
        // At least one runner per shard: shards are the unit of job
        // concurrency, so a 16-shard daemon runs 16 jobs even when
        // `workers` is lower.
        let runners = daemon.inner.config.workers.max(daemon.inner.config.shards);
        let shards = daemon.inner.config.shards;
        let mut pool = daemon.workers.lock().expect("worker pool poisoned");
        for i in 0..runners {
            let inner = Arc::clone(&daemon.inner);
            let home = i % shards;
            pool.push(
                std::thread::Builder::new()
                    .name(format!("tuned-worker-{i}"))
                    .spawn(move || worker_loop(&inner, home))
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        drop(pool);
        Ok(daemon)
    }

    /// Replays the run directory: finished and canceled jobs become
    /// terminal records; anything else is requeued (resuming from its
    /// checkpoint when one exists).
    fn recover(&self) -> Result<(), String> {
        let inner = &self.inner;
        let ids = inner.run_dir.job_ids();
        let now = inner.now_micros();
        let mut table = inner.jobs.lock().expect("job table poisoned");
        for id in ids {
            let Some(spec) = inner.run_dir.load_spec(id) else {
                continue; // a job dir with no spec: nothing to resume
            };
            let spec = spec.map_err(|e| format!("job {id}: corrupt spec: {e}"))?;
            // An online job's visible progress is its committed epoch
            // count (from the epoch-boundary snapshot), an offline
            // job's is its strategy checkpoint's round count.
            let generation = if spec.online.is_some() {
                inner
                    .run_dir
                    .load_online(id)
                    .and_then(Result::ok)
                    .map_or(0, |s| usize::try_from(s.epoch).unwrap_or(usize::MAX))
            } else {
                inner
                    .run_dir
                    .load_checkpoint(id)
                    .and_then(Result::ok)
                    .map_or(0, |s| s.rounds())
            };
            let (state, result, requeue) = if let Some(res) = inner.run_dir.load_result(id) {
                let (genes, fitness, _) =
                    res.map_err(|e| format!("job {id}: corrupt result: {e}"))?;
                (JobState::Done, Some((genes, fitness)), false)
            } else if inner.run_dir.is_canceled(id) {
                (JobState::Canceled, None, false)
            } else {
                (JobState::Queued, None, true)
            };
            let best_fitness = result.as_ref().map(|(_, f)| *f);
            // Re-derive the job's shard from its id: the same placement
            // the pre-restart daemon used (provided the shard count is
            // unchanged; a re-sharded daemon simply re-routes).
            let home = shard_of(id, inner.config.shards);
            let cost = spec.eval_estimate();
            let tenant = spec.tenant.clone();
            // Re-reserve the recovered job's budget. A quota rejection
            // is ignored: the job was admitted once, and dropping it on
            // restart would lose work — the invariant that matters here
            // is no lost jobs, so it runs unreserved.
            let reserved = if requeue {
                match table.accountant.admit(&tenant, cost) {
                    Ok(()) => cost,
                    Err(_) => 0,
                }
            } else {
                0
            };
            let mut entry = JobEntry::queued(id, spec, home, now, reserved);
            entry.record.state = state;
            entry.record.generation = generation;
            entry.record.best_fitness = best_fitness;
            entry.record.result = result;
            table.jobs.insert(id, entry);
            if requeue {
                table.queues[home].enqueue(&tenant, id, cost);
                inner.set_depth_gauge(home, table.queues[home].len());
                inner.set_tenant_gauges(&table, &tenant);
                inner.count("tuned_jobs_recovered_total", 1);
            }
            table.next_id = table.next_id.max(id + 1);
        }
        drop(table);
        self.inner.queue_cv.notify_all();
        Ok(())
    }

    /// Accepts a job: persists the spec, enqueues it, and returns its id.
    ///
    /// # Errors
    /// Queue full, over quota, shutdown in progress, or run-directory
    /// I/O failure — all flattened to strings. Protocol callers use
    /// [`Daemon::submit_admit`] to keep the structured rejection.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        self.submit_admit(spec).map_err(|e| e.to_string())
    }

    /// The admission path: routes the job to its shard, checks the
    /// shard's queue depth and the tenant's quota, persists the spec,
    /// and enqueues under deficit-round-robin.
    ///
    /// # Errors
    /// [`SubmitError::Rejected`] carries the structured admission
    /// decision (`queue_full` or `quota`) for the wire's `busy` frame.
    pub fn submit_admit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::Rejected(Reject::new(
                RejectKind::QueueFull,
                "daemon is shutting down",
            )));
        }
        let mut table = inner.jobs.lock().expect("job table poisoned");
        // The id is routed before it is consumed: placement must match
        // what recovery will later derive from the id alone.
        let home = shard_of(table.next_id, inner.config.shards);
        if table.queues[home].len() >= inner.config.queue_capacity {
            inner.count("tuned_busy_rejects_total", 1);
            return Err(SubmitError::Rejected(Reject::new(
                RejectKind::QueueFull,
                format!(
                    "shard {home} queue full ({} jobs waiting)",
                    inner.config.queue_capacity
                ),
            )));
        }
        let cost = spec.eval_estimate();
        let tenant = spec.tenant.clone();
        if let Err(reject) = table.accountant.admit(&tenant, cost) {
            inner.count("tuned_quota_rejects_total", 1);
            return Err(SubmitError::Rejected(reject));
        }
        let id = table.next_id;
        table.next_id += 1;
        if let Err(e) = inner.run_dir.save_spec(id, &spec) {
            // Undo the reservation: the job never entered the system.
            table.accountant.settle(&tenant, cost);
            return Err(SubmitError::Internal(e));
        }
        let entry = JobEntry::queued(id, spec, home, inner.now_micros(), cost);
        table.jobs.insert(id, entry);
        table.queues[home].enqueue(&tenant, id, cost);
        inner.set_depth_gauge(home, table.queues[home].len());
        inner.set_tenant_gauges(&table, &tenant);
        drop(table);
        inner.count("tuned_jobs_submitted_total", 1);
        inner.queue_cv.notify_one();
        Ok(id)
    }

    /// One job's record.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobRecord> {
        let table = self.inner.jobs.lock().expect("job table poisoned");
        table.jobs.get(&id).map(|e| e.record.clone())
    }

    /// Every job's record, ascending by id.
    #[must_use]
    pub fn list(&self) -> Vec<JobRecord> {
        let table = self.inner.jobs.lock().expect("job table poisoned");
        let mut records: Vec<JobRecord> = table.jobs.values().map(|e| e.record.clone()).collect();
        records.sort_by_key(|r| r.id);
        records
    }

    /// Cancels a job. Queued jobs die immediately; running jobs stop at
    /// the next generation boundary. Returns the state the job was in.
    ///
    /// # Errors
    /// Unknown id, or tombstone I/O failure.
    pub fn cancel(&self, id: u64) -> Result<JobState, String> {
        let inner = &self.inner;
        let mut table = inner.jobs.lock().expect("job table poisoned");
        let entry = table
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no job {id}"))?;
        let was = entry.record.state;
        match was {
            JobState::Queued => {
                entry.record.state = JobState::Canceled;
                entry.cancel.store(true, Ordering::SeqCst);
                let home = entry.record.shard;
                let tenant = entry.record.spec.tenant.clone();
                let unspent = std::mem::take(&mut entry.reserved);
                table.queues[home].remove(id);
                table.accountant.settle(&tenant, unspent);
                inner.set_depth_gauge(home, table.queues[home].len());
                inner.set_tenant_gauges(&table, &tenant);
                inner.run_dir.mark_canceled(id)?;
            }
            JobState::Running => {
                // The worker notices at the generation boundary and
                // writes the tombstone itself.
                entry.cancel.store(true, Ordering::SeqCst);
            }
            _ => {} // already terminal: cancel is a no-op
        }
        Ok(was)
    }

    /// Job counts by state, from the job table — and, as a side effect,
    /// published as the `tuned_jobs{state=…}` registry gauges, so every
    /// reader of the registry sees the counts this reader saw.
    fn job_gauges(&self) -> JobGauges {
        let mut gauges = JobGauges::default();
        {
            let table = self.inner.jobs.lock().expect("job table poisoned");
            for e in table.jobs.values() {
                match e.record.state {
                    JobState::Queued => gauges.queued += 1,
                    JobState::Running => gauges.running += 1,
                    JobState::Done => gauges.done += 1,
                    JobState::Failed => gauges.failed += 1,
                    JobState::Canceled => gauges.canceled += 1,
                }
            }
        }
        for (state, n) in [
            ("queued", gauges.queued),
            ("running", gauges.running),
            ("done", gauges.done),
            ("failed", gauges.failed),
            ("canceled", gauges.canceled),
        ] {
            self.inner.set_gauge("tuned_jobs", "state", state, n);
        }
        gauges
    }

    /// A point-in-time metrics reading: the daemon's counters as the
    /// registry holds them, the job-table gauges, and uptime on the
    /// registry's clock.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let reg = self.obs();
        let uptime = reg.now_micros().saturating_sub(self.inner.started_micros);
        MetricsSnapshot::read(reg, self.job_gauges(), uptime)
    }

    /// The observability registry: where the daemon, its jobs and its
    /// worker pool record, and where the protocol layer counts
    /// connections and protocol errors.
    #[must_use]
    pub fn obs(&self) -> &Arc<obs::Registry> {
        &self.inner.config.obs
    }

    /// A copy of the whole registry with the job-table gauges brought
    /// up to date first (the body of the `obs` verb and of the
    /// `/metrics` scrape).
    #[must_use]
    pub fn obs_snapshot(&self) -> obs::RegistrySnapshot {
        self.job_gauges();
        self.obs().snapshot()
    }

    /// The remote-evaluator worker pool (for the `register` / `heartbeat`
    /// / `workers` verbs and metrics reporting). Sweeps stale heartbeats
    /// before returning so callers always see current health.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        self.inner.pool.sweep_stale();
        self.inner.pool.as_ref()
    }

    /// The persistent fitness store, when one is configured (for the
    /// `store` protocol verbs).
    #[must_use]
    pub fn store(&self) -> Option<&Arc<stored::Store>> {
        self.inner.config.store.as_ref()
    }

    /// How many shards this daemon runs.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.config.shards
    }

    /// The server-side connection cap (structured `busy` reject above it).
    #[must_use]
    pub fn max_connections(&self) -> usize {
        self.inner.config.max_connections
    }

    /// Per-shard queue/terminal-state gauges, one row per shard, for the
    /// `metrics` verb and the Prometheus endpoint.
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let table = self.inner.jobs.lock().expect("job table poisoned");
        let mut rows: Vec<ShardSnapshot> = (0..self.inner.config.shards)
            .map(|shard| ShardSnapshot {
                shard,
                ..ShardSnapshot::default()
            })
            .collect();
        for e in table.jobs.values() {
            let row = &mut rows[e.record.shard];
            match e.record.state {
                JobState::Queued => row.queued += 1,
                JobState::Running => row.running += 1,
                JobState::Done => row.done += 1,
                JobState::Failed => row.failed += 1,
                JobState::Canceled => row.canceled += 1,
            }
        }
        rows
    }

    /// Every tenant's quota accounting (admissions, rejections, reserved
    /// and consumed evaluation budget), sorted by tenant name.
    #[must_use]
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        let table = self.inner.jobs.lock().expect("job table poisoned");
        table.accountant.usage()
    }

    /// Graceful shutdown: stops accepting work, lets every running job
    /// checkpoint at its current generation boundary, and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        let mut pool = self.workers.lock().expect("worker pool poisoned");
        for handle in pool.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A claimed job on its runner thread: what every step of running it
/// needs to know.
struct Run<'a> {
    inner: &'a Inner,
    id: u64,
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
    shard: usize,
}

/// How a tune left its runner. [`worker_loop`] alone turns this (or an
/// `Err`) into the job's on-disk terminal marker, its [`JobState`] and
/// its quota settlement; nothing below it writes a job's `state`.
enum Exit {
    /// The search finished: its best genome after `rounds` rounds.
    Done {
        genes: Vec<i64>,
        fitness: f64,
        rounds: usize,
    },
    /// The job's cancel flag was raised.
    Canceled,
    /// The daemon is shutting down: what is on disk is the resume point
    /// and the job — with its budget — stays alive for the next process.
    Parked,
}

/// Claims the next queued job, blocking on the queue condvar. Runners
/// scan shards starting from their home shard (affinity) and rotate
/// through the rest (work conservation: no runner idles while any shard
/// has queued jobs). Returns `None` when the daemon is shutting down.
fn claim_next(inner: &Inner, home: usize) -> Option<Run<'_>> {
    let shards = inner.config.shards;
    let reg = &inner.config.obs;
    let mut table = inner.jobs.lock().expect("job table poisoned");
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        for shard in (0..shards).map(|k| (home + k) % shards) {
            while let Some((id, _tenant)) = table.queues[shard].dequeue() {
                inner.set_depth_gauge(shard, table.queues[shard].len());
                let entry = table.jobs.get_mut(&id).expect("queued job has an entry");
                if entry.record.state != JobState::Queued {
                    continue; // canceled while queued
                }
                entry.record.state = JobState::Running;
                let delay = inner.now_micros().saturating_sub(entry.enqueued_at);
                let label =
                    obs::labeled("shard_sched_delay_micros", &[("shard", &shard.to_string())]);
                reg.histogram(&label).record(delay);
                reg.histogram("sched_delay_micros").record(delay);
                return Some(Run {
                    inner,
                    id,
                    spec: entry.record.spec.clone(),
                    cancel: Arc::clone(&entry.cancel),
                    shard,
                });
            }
        }
        table = inner.queue_cv.wait(table).expect("job table poisoned");
    }
}

/// The worker loop: claim a job, run it, and write how it ended — the
/// tombstone or `result.json` first, then the record, then the tenant's
/// unspent reservation (kept only by a job parked for shutdown).
fn worker_loop(inner: &Inner, home: usize) {
    while let Some(run) = claim_next(inner, home) {
        let id = run.id;
        let exit = run.job().and_then(|exit| {
            match &exit {
                Exit::Done {
                    genes,
                    fitness,
                    rounds,
                } => inner.run_dir.save_result(id, genes, *fitness, *rounds)?,
                Exit::Canceled => inner.run_dir.mark_canceled(id)?,
                Exit::Parked => {}
            }
            Ok(exit)
        });
        let mut table = inner.jobs.lock().expect("job table poisoned");
        let Some(e) = table.jobs.get_mut(&id) else {
            continue;
        };
        match exit {
            Ok(Exit::Parked) => {
                e.record.state = JobState::Queued;
                continue;
            }
            Ok(Exit::Done { genes, fitness, .. }) => {
                e.record.state = JobState::Done;
                e.record.result = Some((genes, fitness));
                e.record.best_fitness = Some(fitness);
            }
            Ok(Exit::Canceled) => e.record.state = JobState::Canceled,
            Err(msg) => {
                e.record.state = JobState::Failed;
                e.record.error = Some(msg);
            }
        }
        let unspent = std::mem::take(&mut e.reserved);
        table.accountant.settle(&run.spec.tenant, unspent);
        inner.set_tenant_gauges(&table, &run.spec.tenant);
    }
}

impl Run<'_> {
    /// The one round loop every tune in the daemon runs on: until the
    /// strategy is done, the job is canceled or the daemon shuts down,
    /// run a round with `persist` as its in-flight hook, then report the
    /// committed round to `committed`. `persist` is also called once on
    /// the way out at `Done` / `Parked`, so what it writes is current
    /// then.
    ///
    /// Where a round was scored never shows in its result (strategies
    /// are deterministic in their seed and fitness is pure), so the loop
    /// knows no backend but `backend`.
    fn rounds(
        &self,
        strategy: &mut dyn Strategy,
        backend: &dyn ga::Evaluator,
        mut persist: impl FnMut(&dyn Strategy) -> Result<(), String>,
        mut committed: impl FnMut(&dyn Strategy),
    ) -> Result<Exit, String> {
        loop {
            if self.cancel.load(Ordering::SeqCst) {
                return Ok(Exit::Canceled);
            }
            if self.inner.shutdown.load(Ordering::SeqCst) {
                persist(strategy)?;
                return Ok(Exit::Parked);
            }
            let mut persisted = Ok(());
            let done = search::round(strategy, backend, |s| persisted = persist(s));
            persisted?;
            committed(strategy);
            if done {
                persist(strategy)?;
                let (genes, fitness) = search::finish(strategy)?;
                let rounds = strategy.rounds();
                return Ok(Exit::Done {
                    genes,
                    fitness,
                    rounds,
                });
            }
        }
    }

    /// Runs the claimed job until it is done, canceled or parked.
    fn job(&self) -> Result<Exit, String> {
        let (inner, id, spec) = (self.inner, self.id, &self.spec);
        if spec.online.is_some() {
            return self.online_job();
        }
        // Everything below this line is problem-generic: the strategy
        // searches the problem's gene space, evaluators call the
        // problem's fitness, and the store keys by the problem's tagged
        // fingerprint. One daemon therefore tunes heterogeneous problems
        // over one pool. The problem is this job's own over the
        // process's shared cell: the suite is built once per process, the
        // search state dies with the job.
        let problem = spec.build_problem()?;

        // Resume from the checkpoint when one exists and is consistent
        // with the spec; otherwise start fresh under the submitted
        // strategy — warm-started from the store's best prior genomes
        // when both a store and a seedable strategy are configured.
        // Resumed jobs never re-seed: the seeded population is already
        // inside their checkpoint.
        let mut strategy: Box<dyn Strategy> = match inner.run_dir.load_checkpoint(id) {
            Some(Ok(snap)) => {
                search::restore(snap).map_err(|e| format!("checkpoint rejected: {e}"))?
            }
            Some(Err(e)) => return Err(format!("corrupt checkpoint: {e}")),
            None => {
                let mut fresh =
                    search::build(&spec.strategy, problem.space().clone(), spec.ga.clone())?;
                if let Some(store) = &inner.config.store {
                    // warm_seeds only returns same-problem cells, so a
                    // dss job never inherits an inlining genome.
                    let seeds = store.warm_seeds(problem.fingerprint(), fresh.config().pop_size);
                    let planted = fresh.seed_population(&seeds);
                    if planted > 0 {
                        inner.count("store_warm_seeds", planted as u64);
                    }
                }
                fresh
            }
        };
        strategy.set_obs(Arc::clone(&inner.config.obs));

        let lease = inner.budget.lease(strategy.config().threads);
        let backend = self.evaluator(spec, &*problem, lease.granted);

        // The one checkpoint rule: a committed round that is not on disk
        // yet is written while the next round's evaluations are in
        // flight (the workers never wait on local disk I/O, nor this
        // thread on them) and once more on the way out — a job of N
        // rounds writes N checkpoints. The file lagging the strategy by
        // a round is crash-safe: recovery replays the missing round
        // deterministically to the same bits.
        let mut on_disk = strategy.rounds();
        let persist = |s: &dyn Strategy| {
            if s.rounds() > on_disk {
                inner.run_dir.save_checkpoint(id, &s.snapshot())?;
                inner.count("tuned_checkpoints_written_total", 1);
                on_disk = s.rounds();
            }
            Ok(())
        };
        let mut booked = (strategy.evaluations(), strategy.cache_hits());
        let committed = |s: &dyn Strategy| {
            let now = (s.evaluations(), s.cache_hits());
            self.book_round((now.0 - booked.0) as u64, (now.1 - booked.1) as u64);
            booked = now;
            let mut table = inner.jobs.lock().expect("job table poisoned");
            if let Some(e) = table.jobs.get_mut(&id) {
                e.record.generation = s.rounds();
                e.record.best_fitness = s.best().map(|(_, f)| f);
                e.record.timing = s.last_timing();
                e.record.standings = s.standings();
            }
        };
        self.rounds(strategy.as_mut(), &backend, persist, committed)
    }

    /// Books one committed round — an offline job's search round, an
    /// online job's epoch — into the daemon's counters and the tenant's
    /// budget: the one place a job's work is counted. `evals` are fresh
    /// evaluations, `cache_hits` the lookups the strategy's memo
    /// answered instead.
    ///
    /// Fresh evaluations are drawn down from the tenant's reservation.
    /// Cache hits stay free — they consume no worker time — which is why
    /// `used` can finish under the admission estimate and the leftover
    /// gets settled back at job end.
    fn book_round(&self, evals: u64, cache_hits: u64) {
        let (inner, id, spec) = (self.inner, self.id, &self.spec);
        inner.count("tuned_generations_total", 1);
        inner.count("tuned_evaluations_total", evals);
        inner.count("tuned_cache_hits_total", cache_hits);
        if evals == 0 {
            return;
        }
        {
            let mut table = inner.jobs.lock().expect("job table poisoned");
            table.accountant.charge(&spec.tenant, evals);
            if let Some(e) = table.jobs.get_mut(&id) {
                e.reserved = e.reserved.saturating_sub(evals);
            }
            inner.set_tenant_gauges(&table, &spec.tenant);
        }
        let s = self.shard.to_string();
        inner.count(&obs::labeled("shard_evals", &[("shard", &s)]), evals);
    }

    /// Drives one online job: the [`OnlineState`] policy from
    /// `crates/online`, with the daemon's mechanics — problems built
    /// from phase-pinned specs (so eval workers and store fingerprints
    /// see the morphed workload), each tune on [`Run::rounds`] over the
    /// job's evaluator, and an epoch-boundary `online.json` checkpoint.
    /// Online jobs checkpoint per *epoch*, not per generation: an
    /// interrupted epoch is dropped and replays deterministically from
    /// the last boundary (every replay input — workload, incumbent,
    /// retune seed — is a pure function of the restored state), so the
    /// snapshot on disk is always the resume point.
    ///
    /// The policy is the same state machine `online::OnlineJob::run`
    /// drives in-process, so a store-free daemon run is bit-identical to
    /// the reference runner — the equivalence the sim's `simtest
    /// online:N` sweep asserts under fault weather.
    fn online_job(&self) -> Result<Exit, String> {
        let (inner, id, spec) = (self.inner, self.id, &self.spec);
        let online_spec = spec
            .online
            .as_ref()
            .expect("online job without an online spec");
        let mut st = match inner.run_dir.load_online(id) {
            Some(Ok(snap)) => OnlineState::restore(online_spec.config(), snap)
                .map_err(|e| format!("online checkpoint rejected: {e}"))?,
            Some(Err(e)) => return Err(format!("corrupt online checkpoint: {e}")),
            None => OnlineState::new(online_spec.config())?,
        };

        let mut problems_by_pos: HashMap<DriftPos, Arc<dyn Problem>> = HashMap::new();
        loop {
            if self.cancel.load(Ordering::SeqCst) {
                return Ok(Exit::Canceled);
            }
            if inner.shutdown.load(Ordering::SeqCst) {
                return Ok(Exit::Parked);
            }
            if st.is_done() {
                let report = st.into_report();
                return Ok(Exit::Done {
                    genes: report.genes,
                    fitness: report.fitness,
                    rounds: report.rows.len(),
                });
            }

            let pos = st.pos();
            let phase_spec = spec.at_pos(pos);
            let problem: &dyn Problem = match problems_by_pos.entry(pos) {
                Entry::Occupied(built) => &**built.into_mut(),
                Entry::Vacant(slot) => &**slot.insert(phase_spec.build_problem()?),
            };

            let evals_before = st.evals();
            let mut cache_hits = 0;
            let mut regret_pct = 0.0;
            // A tune interrupted by cancellation or shutdown drops the
            // open epoch: the restore replays it from the last boundary.
            if st.needs_initial_tune() {
                let (exit, evals, hits) =
                    self.online_tune(&phase_spec, problem, None, spec.ga.seed)?;
                let Exit::Done { genes, fitness, .. } = exit else {
                    return Ok(exit);
                };
                st.note_evals(evals);
                cache_hits += hits;
                st.install(genes, fitness);
            } else {
                let incumbent: Vec<i64> = st
                    .incumbent()
                    .map(|(g, _)| g.to_vec())
                    .expect("incumbent exists");
                let probe = {
                    // A probe is real local compute, like local evaluation.
                    let _busy = crate::net::busy(&*inner.config.transport);
                    problem.fitness(&incumbent)
                };
                let triggered = st.observe_probe(probe);
                regret_pct = st.regression_pct();
                if triggered {
                    let seed = st.retune_seed(spec.ga.seed);
                    let (exit, evals, hits) =
                        self.online_tune(&phase_spec, problem, Some(&incumbent), seed)?;
                    let Exit::Done { genes, fitness, .. } = exit else {
                        return Ok(exit);
                    };
                    st.note_evals(evals);
                    cache_hits += hits;
                    st.commit(Some((genes, fitness)));
                    inner.count("online_retunes", 1);
                    if let Some(latency) = st.detect_latencies().last() {
                        let hist = inner.config.obs.histogram("drift_detect_latency");
                        hist.record(*latency);
                    }
                } else {
                    st.commit(None);
                }
            }

            // Epoch committed: book its evaluations, checkpoint, and
            // publish progress (the record's `generation` is the
            // committed epoch, so `watch` emits one frame per epoch).
            self.book_round(st.evals() - evals_before, cache_hits);
            inner.run_dir.save_online(id, &st.snapshot())?;
            inner.count("tuned_checkpoints_written_total", 1);
            let regret = inner.config.obs.gauge("online_regret_pct");
            regret.set(regret_pct.round() as i64);
            let mut table = inner.jobs.lock().expect("job table poisoned");
            if let Some(e) = table.jobs.get_mut(&id) {
                e.record.generation = usize::try_from(st.epoch()).unwrap_or(usize::MAX);
                e.record.best_fitness = st.incumbent().map(|(_, f)| f);
                e.record.online = Some(OnlineProgress {
                    epoch: st.epoch(),
                    retunes: st.retunes(),
                    regret_pct,
                    phase: pos.phase,
                });
            }
        }
    }

    /// Builds the one evaluator a tune in the daemon runs on, over
    /// `problem`'s fitness: the store tier (a pass-through when no store
    /// is configured; reads answer from disk bit-exactly and fresh
    /// scores are appended, so it never changes results) over the remote
    /// evaluator, whose fallback is the job's `threads` of the shared
    /// local-eval budget. While the pool has no worker the fallback is
    /// all there is; once it has, each round's memo misses fan out over
    /// it and the fallback takes only what no live worker answers.
    /// Thread count affects wall-clock only, never results, so a clamped
    /// lease is safe — and so is re-planning after a restore. Workers
    /// look the cell up from `spec` (phase-pinned for an online epoch,
    /// so each phase is a cell of its own). Dispatch is scoped to
    /// the live workers leasing this job's shard (the whole live pool
    /// when none does), so thousands of jobs multiplex the shared pool
    /// without all stampeding the same workers.
    fn evaluator<'p>(
        &'p self,
        spec: &JobSpec,
        problem: &'p dyn Problem,
        threads: usize,
    ) -> StoreTier<RemoteEvaluator<'p>> {
        let (inner, shard) = (self.inner, self.shard);
        let store_cell = inner.config.store.as_ref().map(|s| {
            let name = obs::labeled("shard_store_writes", &[("shard", &shard.to_string())]);
            let writes = inner.config.obs.counter(&name);
            (Arc::clone(s), problem.fingerprint().clone(), writes)
        });
        let local = LocalEvaluator::new(move |genes: &[i64]| problem.fitness(genes), threads);
        let mut remote = RemoteEvaluator::new(&inner.pool, spec.to_json(), local);
        remote.set_shard(shard, inner.config.shards);
        StoreTier::new(store_cell, remote)
    }

    /// One tune to completion inside an online epoch: the strategy
    /// `online::epoch_strategy` defines (shared with the reference
    /// runner), on [`Run::rounds`] with nothing to persist or report —
    /// the epoch is the unit of both. Returns how the tune left the loop
    /// and the `(fresh evaluations, memo hits)` it cost.
    fn online_tune(
        &self,
        phase_spec: &JobSpec,
        problem: &dyn Problem,
        incumbent: Option<&[i64]>,
        seed: u64,
    ) -> Result<(Exit, u64, u64), String> {
        let inner = self.inner;
        let (mut strategy, planted) = online::epoch_strategy(
            &phase_spec.strategy,
            &phase_spec.ga,
            seed,
            problem,
            incumbent,
            inner.config.store.as_deref(),
        )?;
        let from_store = planted.saturating_sub(incumbent.iter().len());
        if from_store > 0 {
            inner.count("store_warm_seeds", from_store as u64);
        }
        strategy.set_obs(Arc::clone(&inner.config.obs));
        let lease = inner.budget.lease(strategy.config().threads);
        let backend = self.evaluator(phase_spec, problem, lease.granted);
        let exit = self.rounds(strategy.as_mut(), &backend, |_| Ok(()), |_| {})?;
        let (evals, hits) = (strategy.evaluations(), strategy.cache_hits());
        Ok((exit, evals as u64, hits as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::GaConfig;
    use jit::Scenario;
    use std::path::PathBuf;
    use tuner::{Goal, Tuner};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("served-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: "x86-p4".into(),
            problem: "inline".into(),
            suite: vec!["db".into()],
            ga: GaConfig {
                pop_size: 6,
                generations: 3,
                threads: 1,
                seed,
                stagnation_limit: None,
                ..GaConfig::default()
            },
            strategy: "ga".into(),
            tenant: "default".into(),
            online: None,
            drift_pos: None,
        }
    }

    fn online_spec(seed: u64) -> JobSpec {
        let mut spec = tiny_spec(seed);
        spec.name = "online".into();
        spec.online = Some(crate::job::OnlineSpec {
            epochs: 5,
            kind: workloads::DriftKind::Step,
            period: 2,
            phases: 2,
            drift_seed: 11,
            window: 1,
            threshold_pct: 2.0,
        });
        spec
    }

    /// The in-process reference run this spec must bit-match (the spec
    /// carries no `drift_pos`, so `training()` is the unmorphed base).
    fn reference_run(spec: &JobSpec) -> online::OnlineReport {
        online::OnlineJob {
            problem: spec.problem.clone(),
            task: spec.task().unwrap(),
            base: spec.training().unwrap(),
            adapt: spec.adapt_cfg(),
            ga: spec.ga.clone(),
            strategy: spec.strategy.clone(),
            online: spec.online.as_ref().unwrap().config(),
        }
        .run(None)
        .unwrap()
    }

    fn wait_terminal(d: &Daemon, id: u64) -> JobRecord {
        for _ in 0..600 {
            let r = d.status(id).expect("job exists");
            if r.state.is_terminal() {
                return r;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn thread_budget_clamps_and_releases() {
        let b = ThreadBudget::new(4);
        let l1 = b.lease(3);
        assert_eq!(l1.granted, 3);
        let l2 = b.lease(3);
        assert_eq!(l2.granted, 1, "clamped to the remaining budget");
        let l3 = b.lease(5);
        assert_eq!(l3.granted, 1, "an exhausted budget still grants one");
        drop(l1);
        let l4 = b.lease(5);
        assert_eq!(l4.granted, 2, "released threads are reusable");
        drop(l2);
        drop(l3);
        drop(l4);
        assert_eq!(b.lease(99).granted, 4);
    }

    #[test]
    fn runs_a_job_to_completion() {
        let dir = tmp_dir("complete");
        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d.submit(tiny_spec(1)).unwrap();
        let r = wait_terminal(&d, id);
        assert_eq!(r.state, JobState::Done);
        assert_eq!(r.generation, 3);
        let (genes, fitness) = r.result.unwrap();
        assert!(fitness.is_finite());
        assert_eq!(genes.len(), 5);
        let snap = d.metrics_snapshot();
        assert_eq!(snap.jobs.done, 1);
        assert!(snap.generations >= 3);
        assert!(snap.checkpoints_written >= 3);
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_result_matches_inprocess_tuner() {
        let dir = tmp_dir("match");
        let spec = tiny_spec(77);
        let expected = Tuner::new(
            spec.task().unwrap(),
            spec.training().unwrap(),
            spec.adapt_cfg(),
        )
        .tune(spec.ga.clone());

        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d.submit(spec).unwrap();
        let r = wait_terminal(&d, id);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.params.to_genes());
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits());
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runs_a_race_job_with_standings() {
        let dir = tmp_dir("race");
        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let spec = JobSpec {
            strategy: "race:ga+random+grid".into(),
            ..tiny_spec(11)
        };
        let id = d.submit(spec).unwrap();
        let r = wait_terminal(&d, id);
        assert_eq!(r.state, JobState::Done);
        let (genes, fitness) = r.result.unwrap();
        assert!(fitness.is_finite());
        assert_eq!(genes.len(), 5);
        assert_eq!(r.standings.len(), 3, "one standing per race member");
        assert!(r.standings.iter().any(|s| s.name == "random"));
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_strategy_job_matches_inprocess_search() {
        let dir = tmp_dir("strategy-match");
        let spec = JobSpec {
            strategy: "hillclimb".into(),
            ..tiny_spec(23)
        };
        let t = Tuner::new(
            spec.task().unwrap(),
            spec.training().unwrap(),
            spec.adapt_cfg(),
        );
        let mut expected =
            search::build(&spec.strategy, t.task().ranges(), spec.ga.clone()).unwrap();
        search::drive(expected.as_mut(), &t.evaluator(1));
        let (eg, ef) = expected.best().unwrap();

        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d.submit(spec).unwrap();
        let r = wait_terminal(&d, id);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, eg);
        assert_eq!(fitness.to_bits(), ef.to_bits());
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_tier_preserves_results_and_feeds_warmstart() {
        let dir = tmp_dir("store");
        let store_dir = dir.join("store");

        // Reference: the same job without any store.
        let expected = {
            let spec = tiny_spec(55);
            Tuner::new(
                spec.task().unwrap(),
                spec.training().unwrap(),
                spec.adapt_cfg(),
            )
            .tune(spec.ga.clone())
        };

        let obs = Arc::new(obs::Registry::new());
        let store = stored::Store::open_with(
            &store_dir,
            stored::StoreOptions {
                obs: Arc::clone(&obs),
                ..stored::StoreOptions::default()
            },
        )
        .unwrap();
        let d = Daemon::start(
            DaemonConfig {
                store: Some(Arc::new(store)),
                obs: Arc::clone(&obs),
                ..DaemonConfig::default()
            },
            RunDir::open(dir.join("run1")).unwrap(),
        )
        .unwrap();

        // First run populates the store and must match the store-free
        // result bit for bit.
        let id = d.submit(tiny_spec(55)).unwrap();
        let r = wait_terminal(&d, id);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.params.to_genes());
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits());

        // A second identical job is answered largely from the store.
        let misses_before = obs.snapshot().counter("store_misses");
        let id2 = d.submit(tiny_spec(55)).unwrap();
        let r2 = wait_terminal(&d, id2);
        let (genes2, fitness2) = r2.result.unwrap();
        assert_eq!(genes2, expected.params.to_genes());
        assert_eq!(fitness2.to_bits(), expected.fitness.to_bits());
        let snap = obs.snapshot();
        assert!(snap.counter("store_hits") > 0, "rerun must hit the store");
        assert_eq!(
            snap.counter("store_misses"),
            misses_before,
            "an identical rerun should be fully store-served"
        );

        // A warmstart job on the same cell is seeded from the store.
        let id3 = d
            .submit(JobSpec {
                strategy: "warmstart".into(),
                ..tiny_spec(56)
            })
            .unwrap();
        let r3 = wait_terminal(&d, id3);
        assert_eq!(r3.state, JobState::Done);
        assert!(
            obs.snapshot().counter("store_warm_seeds") > 0,
            "the warmstart job must be seeded from prior records"
        );
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_daemon_tunes_heterogeneous_problems() {
        // The tentpole scenario: inlining, flags and dss jobs in one
        // queue, one worker pool — and each daemon result bit-matches an
        // in-process search over the same problem.
        let dir = tmp_dir("hetero");
        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let mut ids = Vec::new();
        for problem in problems::KNOWN {
            let spec = JobSpec {
                problem: (*problem).to_string(),
                ..tiny_spec(91)
            };
            ids.push((problem, d.submit(spec).unwrap()));
        }
        for (problem, id) in ids {
            let r = wait_terminal(&d, id);
            assert_eq!(r.state, JobState::Done, "{problem}: {:?}", r.error);
            let (genes, fitness) = r.result.unwrap();
            assert!(fitness.is_finite());

            let spec = JobSpec {
                problem: (*problem).to_string(),
                ..tiny_spec(91)
            };
            let p = spec.build_problem().unwrap();
            assert_eq!(genes.len(), p.space().len(), "{problem} genome arity");
            assert!(p.space().contains(&genes), "{problem} result out of space");
            let mut expected =
                search::build(&spec.strategy, p.space().clone(), spec.ga.clone()).unwrap();
            let backend = LocalEvaluator::new(|g: &[i64]| p.fitness(g), 1);
            search::drive(expected.as_mut(), &backend);
            let (eg, ef) = expected.best().unwrap();
            assert_eq!(genes, eg, "{problem} drifted from in-process search");
            assert_eq!(fitness.to_bits(), ef.to_bits(), "{problem} fitness bits");
        }
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let dir = tmp_dir("cancel");
        // One worker busy with a long job keeps the second job queued.
        let d = Daemon::start(
            DaemonConfig {
                workers: 1,
                queue_capacity: 8,
                ..DaemonConfig::default()
            },
            RunDir::open(&dir).unwrap(),
        )
        .unwrap();
        let long = JobSpec {
            ga: GaConfig {
                generations: 60,
                ..tiny_spec(5).ga
            },
            ..tiny_spec(5)
        };
        let a = d.submit(long).unwrap();
        let b = d.submit(tiny_spec(6)).unwrap();
        let was = d.cancel(b).unwrap();
        assert_eq!(was, JobState::Queued);
        assert_eq!(d.status(b).unwrap().state, JobState::Canceled);
        let _ = d.cancel(a); // running or queued; stop it for the join
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_capacity_rejects_excess() {
        let dir = tmp_dir("capacity");
        let d = Daemon::start(
            DaemonConfig {
                workers: 1,
                queue_capacity: 1,
                ..DaemonConfig::default()
            },
            RunDir::open(&dir).unwrap(),
        )
        .unwrap();
        // Fill: one running + one queued, the next must bounce. Submit
        // fast enough that the worker can't drain — use long jobs.
        let long = || JobSpec {
            ga: GaConfig {
                generations: 100,
                ..tiny_spec(9).ga
            },
            ..tiny_spec(9)
        };
        let mut rejected = false;
        for _ in 0..4 {
            if d.submit(long()).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "queue never filled");
        for r in d.list() {
            let _ = d.cancel(r.id);
        }
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_checkpoints_and_restart_resumes() {
        let dir = tmp_dir("restart");
        let spec = tiny_spec(31);
        let expected = Tuner::new(
            spec.task().unwrap(),
            spec.training().unwrap(),
            spec.adapt_cfg(),
        )
        .tune(spec.ga.clone());

        // First daemon: submit and shut down almost immediately — the job
        // parks at whatever generation it reached.
        let d1 = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d1.submit(spec).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        d1.shutdown();

        // Second daemon: recovery requeues and finishes the job.
        let d2 = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let r = wait_terminal(&d2, id);
        assert_eq!(r.state, JobState::Done);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.params.to_genes());
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits());
        d2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn online_job_matches_reference_runner() {
        let dir = tmp_dir("online");
        let spec = online_spec(7);
        let expected = reference_run(&spec);
        let d = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d.submit(spec).unwrap();
        let r = wait_terminal(&d, id);
        assert_eq!(r.state, JobState::Done);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.genes);
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits());
        assert_eq!(r.generation, 5, "one frame per committed epoch");
        let o = r.online.expect("online progress populated");
        assert_eq!(o.epoch, 5);
        assert_eq!(o.retunes, expected.retunes);
        // The epoch-boundary snapshot on disk is the finished run's.
        let snap = RunDir::open(&dir)
            .unwrap()
            .load_online(id)
            .unwrap()
            .unwrap();
        assert_eq!(snap.epoch, 5);
        assert_eq!(snap.rows.len(), 5);
        assert_eq!(snap.retunes, expected.retunes);
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn online_shutdown_and_restart_resumes_bit_identically() {
        let dir = tmp_dir("online-restart");
        let spec = online_spec(13);
        let expected = reference_run(&spec);

        // First daemon: park the online job mid-run (whatever epoch it
        // reached — possibly none).
        let d1 = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let id = d1.submit(spec).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        d1.shutdown();

        // Second daemon: recovery replays the interrupted epoch from
        // the last boundary and finishes to the reference bits.
        let d2 = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let r = wait_terminal(&d2, id);
        assert_eq!(r.state, JobState::Done);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.genes);
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits());
        d2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_done_and_canceled_jobs() {
        let dir = tmp_dir("skip");
        let d1 = Daemon::start(DaemonConfig::default(), RunDir::open(&dir).unwrap()).unwrap();
        let done_id = d1.submit(tiny_spec(2)).unwrap();
        wait_terminal(&d1, done_id);
        let canceled_id = d1.submit(tiny_spec(3)).unwrap();
        let _ = d1.cancel(canceled_id);
        // Wait for the cancel (or a photo-finish completion) to land so
        // the job is terminal on disk before the restart.
        wait_terminal(&d1, canceled_id);
        d1.shutdown();

        // A registry of its own, so `jobs_recovered` below counts this
        // daemon's recoveries and not those of restart tests running
        // beside it on the global one.
        let fresh = DaemonConfig {
            obs: Arc::new(obs::Registry::new()),
            ..DaemonConfig::default()
        };
        let d2 = Daemon::start(fresh, RunDir::open(&dir).unwrap()).unwrap();
        assert_eq!(d2.status(done_id).unwrap().state, JobState::Done);
        let st = d2.status(canceled_id).unwrap().state;
        assert!(
            st == JobState::Canceled || st == JobState::Done,
            "canceled job must stay terminal after restart, got {st:?}"
        );
        assert_eq!(d2.metrics_snapshot().jobs_recovered, 0);
        d2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
