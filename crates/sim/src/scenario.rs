//! What a seeded sweep *is*: derive a scenario from a seed, run it,
//! judge it, total it, say how to replay it. Every sweep in this crate
//! — `fault`, `mixed`, `store` ([`crate::sweep`]), `online`
//! ([`crate::online`]) and `shard` ([`crate::shard_soak`]) — is one
//! implementation of [`Scenario`] behind the one [`sweep`]/[`replay`]
//! pair, reporting through the one [`SeedReport`]/[`SweepReport`] pair.
//!
//! A scenario is *derived from its seed* (and the [`Scale`] it ran at),
//! never stored, so re-running a failing seed replays the identical
//! schedule; [`SeedReport::replay_line`] — the only place a replay
//! recipe is rendered — carries every argument the derivation read.

use std::collections::HashMap;
use std::time::Duration;

use served::JobSpec;
use simrng::Rng;

use crate::cluster::{Cluster, ClusterConfig, Outcome};
use crate::net::{FaultPlan, TraceEvent};
use crate::shard_soak::ShardScale;

/// Virtual-time budget per job before it counts as hung. Far beyond
/// anything a healthy run needs (worst observed healthy runs finish in
/// well under ten virtual seconds even through crash + partition
/// schedules).
pub const SCENARIO_DEADLINE: Duration = Duration::from_secs(60);

/// Everything besides the seed that a derivation or a run may read.
/// Whatever a scenario does read, its [`Scenario::replay_args`] prints.
#[derive(Debug, Clone, Default)]
pub struct Scale {
    /// The shard soak's fleet and backlog size.
    pub shard: ShardScale,
    /// Run the intentionally-broken daemon (re-dispatch off): the
    /// `fault` sweep's self-test, which must get *caught*.
    pub broken: bool,
}

/// One kind of seeded scenario. Implementations are plain data derived
/// from `(seed, scale)`; the runner ([`replay`], [`sweep`]) is generic
/// over them and `simtest` picks one by [`Scenario::NAME`].
pub trait Scenario: Sized {
    /// The name `simtest <scenario>` and every report use.
    const NAME: &'static str;
    /// The fault-free ground-truth cache a sweep shares across seeds.
    type Truth: Default;

    /// Derives the scenario a seed denotes. Pure: same seed and scale,
    /// same scenario, on every machine and every run.
    fn derive(seed: u64, scale: &Scale) -> Self;

    /// The `simtest` arguments, beyond the name and `--seed`, needed to
    /// derive this exact scenario again (leading space included).
    fn replay_args(&self) -> String {
        String::new()
    }

    /// Runs the scenario and books every broken invariant, counter and
    /// trace line into `report`.
    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport);

    /// Whether a sweep's totals show it had teeth (injected a fault,
    /// tore a wal, committed a retune, …), else what it never did — a
    /// green sweep of inert schedules proves nothing.
    fn exercised(sweep: &SweepReport) -> Result<(), &'static str>;
}

/// How an invariant broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Work never reached a terminal state inside the virtual deadline.
    Hang,
    /// A result diverged from the fault-free ground truth (the
    /// bit-identity invariant broke).
    Mismatch,
    /// Anything else: a job ended `failed`/`canceled`, a checkpoint
    /// would not load, the books do not balance, the scenario could
    /// not even start.
    Broken,
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Which family of invariant broke.
    pub kind: FailureKind,
    /// What was observed.
    pub detail: String,
}

impl Failure {
    /// A short machine-friendly tag.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self.kind {
            FailureKind::Hang => "hang",
            FailureKind::Mismatch => "mismatch",
            FailureKind::Broken => "broken",
        }
    }
}

/// Frame-level faults the simulated network injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delayed (and so possibly reordered).
    pub delayed: u64,
    /// Frames swallowed by a partition.
    pub blackholed: u64,
}

/// One scenario's full report. Green iff `failures` is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeedReport {
    /// The [`Scenario::NAME`] that ran.
    pub scenario: &'static str,
    /// The scenario seed.
    pub seed: u64,
    /// The scenario's [`Scenario::replay_args`].
    pub replay_args: String,
    /// Broken invariants, in the order they were caught.
    pub failures: Vec<Failure>,
    /// Virtual ms from first submission to the last terminal state (or
    /// to giving up); zero for scenarios off the virtual clock.
    pub virtual_ms: u64,
    /// Frame faults injected during the run.
    pub faults: FaultCounts,
    /// Scenario-specific evidence (`jobs_done`, `records`, `retunes`, …).
    pub counters: Counters,
    /// Fault-trace lines (drops, dups, delays, blackholes, crash
    /// marks). A sweep keeps them for failing seeds only.
    pub trace: Vec<String>,
}

impl SeedReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Books one broken invariant.
    pub fn fail(&mut self, kind: FailureKind, detail: impl Into<String>) {
        self.failures.push(Failure {
            kind,
            detail: detail.into(),
        });
    }

    /// Books one [`FailureKind::Broken`] invariant.
    pub fn broken(&mut self, detail: impl Into<String>) {
        self.fail(FailureKind::Broken, detail);
    }

    /// The one-command reproduction recipe for this seed.
    #[must_use]
    pub fn replay_line(&self) -> String {
        format!(
            "replay: simtest {} --seed {}{}",
            self.scenario, self.seed, self.replay_args
        )
    }
}

/// Named evidence counters, in first-booked order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    /// Adds `n` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.0.push((name, n)),
        }
    }

    /// The named counter's value (zero if never booked).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        let found = self.0.iter().find(|(k, _)| *k == name);
        found.map_or(0, |(_, v)| *v)
    }
}

/// A whole sweep's summary.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// The [`Scenario::NAME`] swept.
    pub scenario: &'static str,
    /// First seed swept.
    pub base_seed: u64,
    /// Seeds swept (`base_seed..base_seed + seeds`).
    pub seeds: u64,
    /// Seeds on which every invariant held.
    pub passed: u64,
    /// Failing reports, traces included (empty on a green sweep).
    pub failures: Vec<SeedReport>,
    /// Accumulated virtual milliseconds simulated.
    pub virtual_ms: u64,
    /// The seed of the slowest single scenario.
    pub worst_seed: u64,
    /// That scenario's virtual ms — the sweep's worst-case distance
    /// from the hang cutoff.
    pub worst_virtual_ms: u64,
    /// Frame faults injected across the sweep — evidence the schedules
    /// actually exercised faults.
    pub faults: FaultCounts,
    /// Every seed's counters, summed by name (so a per-seed figure like
    /// `sched_delay_p95_micros` totals here; divide by `seeds`).
    pub counters: Counters,
}

/// Derives and runs one seed of scenario `S` at `scale`. `truth` caches
/// fault-free ground truths across calls.
#[must_use]
pub fn replay<S: Scenario>(seed: u64, scale: &Scale, truth: &mut S::Truth) -> SeedReport {
    let scenario = S::derive(seed, scale);
    let mut report = SeedReport {
        scenario: S::NAME,
        seed,
        replay_args: scenario.replay_args(),
        ..SeedReport::default()
    };
    scenario.run(truth, &mut report);
    report
}

/// Sweeps `seeds` consecutive seeds of scenario `S` starting at
/// `base_seed`, sharing one ground-truth cache.
#[must_use]
pub fn sweep<S: Scenario>(base_seed: u64, seeds: u64, scale: &Scale) -> SweepReport {
    let mut truth = S::Truth::default();
    let mut total = SweepReport {
        scenario: S::NAME,
        base_seed,
        seeds,
        worst_seed: base_seed,
        ..SweepReport::default()
    };
    for seed in base_seed..base_seed + seeds {
        let r = replay::<S>(seed, scale, &mut truth);
        total.faults.dropped += r.faults.dropped;
        total.faults.duplicated += r.faults.duplicated;
        total.faults.delayed += r.faults.delayed;
        total.faults.blackholed += r.faults.blackholed;
        total.virtual_ms += r.virtual_ms;
        if r.virtual_ms > total.worst_virtual_ms {
            total.worst_virtual_ms = r.virtual_ms;
            total.worst_seed = seed;
        }
        for (name, n) in &r.counters.0 {
            total.counters.add(name, *n);
        }
        if r.is_ok() {
            total.passed += 1;
        } else {
            total.failures.push(r);
        }
    }
    total
}

/// What a [`TimedFault`] does to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the worker (listener dies, in-flight frames are lost).
    Crash,
    /// Restart the crashed worker on the same address.
    Restart,
    /// Partition the worker from the daemon.
    Partition,
    /// Heal the partition.
    Heal,
}

/// One timed fault against one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// Virtual ms after the scenario's first submission.
    pub at_ms: u64,
    /// Index of the worker it hits.
    pub worker: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

impl TimedFault {
    /// `kind` hitting `worker` at `at_ms`.
    #[must_use]
    pub fn new(at_ms: u64, worker: usize, kind: FaultKind) -> Self {
        Self {
            at_ms,
            worker,
            kind,
        }
    }
}

/// Fires, and removes from `pending` (ascending by time), every fault
/// that `elapsed_ms` of scenario time has passed.
pub fn fire_due(cluster: &Cluster, elapsed_ms: u64, pending: &mut Vec<TimedFault>) {
    while pending.first().is_some_and(|f| elapsed_ms >= f.at_ms) {
        let fault = pending.remove(0);
        match fault.kind {
            FaultKind::Crash => cluster.crash_worker(fault.worker),
            FaultKind::Restart => {
                let _ = cluster.restart_worker(fault.worker);
            }
            FaultKind::Partition => cluster.partition_worker(fault.worker),
            FaultKind::Heal => cluster.heal_worker(fault.worker),
        }
    }
}

/// The weather a scenario runs under: frame-level faults on every
/// daemon↔worker link plus the timed crash/partition faults.
#[derive(Debug, Clone, PartialEq)]
pub struct Weather {
    /// Workers in the cluster.
    pub workers: usize,
    /// Frame-level faults on every daemon↔worker link.
    pub plan: FaultPlan,
    /// Timed crash/partition faults, ascending by time.
    pub timeline: Vec<TimedFault>,
}

impl Weather {
    /// The weather `fault`, `mixed` and `online` scenarios share, drawn
    /// from the caller's own stream (so each keeps its seed → scenario
    /// mapping): two workers, frame-fault probabilities, an optional
    /// mid-run crash + restart of worker 0, and an optional temporary
    /// partition of the *last* worker — so crash and partition
    /// schedules compose without stepping on each other.
    pub fn draw(rng: &mut Rng) -> Self {
        let workers = 2;
        let plan = FaultPlan {
            drop_p: rng.f64() * 0.12,
            dup_p: rng.f64() * 0.04,
            delay_p: rng.f64() * 0.35,
            delay_max_micros: 1_000 + rng.below(25_000),
        };
        let mut timeline = Vec::new();
        let mut at = |at_ms, worker, kind| timeline.push(TimedFault::new(at_ms, worker, kind));
        if rng.chance(0.5) {
            let crash_at = 40 + rng.below(220);
            at(crash_at, 0, FaultKind::Crash);
            at(crash_at + 40 + rng.below(180), 0, FaultKind::Restart);
        }
        if rng.chance(0.35) {
            let cut_at = 20 + rng.below(260);
            at(cut_at, workers - 1, FaultKind::Partition);
            at(cut_at + 30 + rng.below(200), workers - 1, FaultKind::Heal);
        }
        timeline.sort_by_key(|f| f.at_ms);
        Self {
            workers,
            plan,
            timeline,
        }
    }
}

/// A fault-free ground-truth cache shared across a sweep: scenarios
/// draw their job identity from small pools, so a 200-seed sweep pays
/// for only a handful of in-process reference runs.
pub type Truth<V> = HashMap<String, V>;

/// The value cached under `key`, computing (and caching) it on first
/// use.
///
/// # Errors
/// `compute`'s error (nothing is cached then).
pub fn cached<V: Clone>(
    truth: &mut Truth<V>,
    key: String,
    compute: impl FnOnce() -> Result<V, String>,
) -> Result<V, String> {
    if !truth.contains_key(&key) {
        truth.insert(key.clone(), compute()?);
    }
    Ok(truth[&key].clone())
}

/// An offline job's ground truth: best genome and fitness *bits*.
pub type Tuned = (Vec<i64>, u64);

/// The fault-free result of `spec` ([`Cluster::expected`]), cached per
/// `(problem, GA seed)` — each such cell has its own trajectory.
///
/// # Errors
/// Invalid spec.
pub fn tuned(truth: &mut Truth<Tuned>, spec: &JobSpec) -> Result<Tuned, String> {
    cached(truth, format!("{}/{}", spec.problem, spec.ga.seed), || {
        Cluster::expected(spec).map(|(genes, fitness)| (genes, fitness.to_bits()))
    })
}

/// The body `fault`, `mixed` and `online` share: boot a cluster, submit
/// every job *before any of them completes*, wait each to a terminal
/// state while the timed faults fire, compare each result to its ground
/// truth, run the scenario's own `after` check (only on an otherwise
/// green run), audit the checkpoints, and tear down.
pub(crate) fn drain(
    config: &ClusterConfig,
    jobs: &[(JobSpec, Tuned)],
    faults: &[TimedFault],
    report: &mut SeedReport,
    after: impl FnOnce(&Cluster, &[u64], &mut SeedReport),
) {
    report.counters.add("jobs_done", 0);
    let cluster = match Cluster::boot(config) {
        Ok(c) => c,
        Err(e) => return report.broken(format!("boot: {e}")),
    };
    let started_ms = cluster.now_ms();
    let mut pending = faults.to_vec();

    // Submit the whole backlog up front: with one job runner, the
    // daemon holds the later jobs queued while tuning the first —
    // exactly the mixed-queue shape the no-lost-jobs invariant is about.
    let mut ids = Vec::with_capacity(jobs.len());
    for (spec, _) in jobs {
        match cluster.submit(spec) {
            Ok(id) => ids.push(id),
            Err(e) => {
                cluster.abandon();
                return report.broken(format!("submit: {e}"));
            }
        }
    }

    // Drain job by job; timed faults land during whichever job is
    // running — the schedule does not care which problem it interrupts.
    let mut hung = false;
    for ((spec, (want_genes, want_bits)), id) in jobs.iter().zip(&ids) {
        let job = &spec.problem;
        let on_tick =
            |now_ms: u64| fire_due(&cluster, now_ms.saturating_sub(started_ms), &mut pending);
        match cluster.wait(*id, SCENARIO_DEADLINE, on_tick) {
            Outcome::Hang { waited_ms } => {
                report.fail(
                    FailureKind::Hang,
                    format!("{job}: no terminal state after {waited_ms} virtual ms"),
                );
                // Later jobs sit behind the hung one: nothing to wait for.
                hung = true;
                break;
            }
            Outcome::Failed(msg) => report.broken(format!("{job}: {msg}")),
            Outcome::Done { genes, fitness, .. }
                if genes != *want_genes || fitness.to_bits() != *want_bits =>
            {
                report.fail(
                    FailureKind::Mismatch,
                    format!(
                        "{job}: got {genes:?} @ {fitness}, fault-free tune gives \
                         {want_genes:?} @ {}",
                        f64::from_bits(*want_bits)
                    ),
                );
            }
            Outcome::Done { .. } => report.counters.add("jobs_done", 1),
        }
    }
    report.virtual_ms = cluster.now_ms() - started_ms;
    if !hung {
        if report.is_ok() {
            after(&cluster, &ids, report);
        }
        if let Err(e) = cluster.checkpoints_loadable() {
            report.broken(format!("checkpoints: {e}"));
        }
    }
    close(cluster, hung, report);
}

/// Ends a Cluster-backed run: books the fault counts and the trace,
/// then shuts the cluster down — or, when work hung, abandons it (a
/// hung cluster cannot be joined).
pub(crate) fn close(cluster: Cluster, hung: bool, report: &mut SeedReport) {
    let trace = cluster.net().trace();
    report.faults = count_faults(&trace);
    report.trace = trace_lines(&trace);
    if hung {
        cluster.abandon();
    } else {
        cluster.shutdown();
    }
}

fn trace_lines(trace: &[TraceEvent]) -> Vec<String> {
    trace.iter().map(ToString::to_string).collect()
}

fn count_faults(trace: &[TraceEvent]) -> FaultCounts {
    let mut c = FaultCounts::default();
    for e in trace {
        match e {
            TraceEvent::Drop { .. } => c.dropped += 1,
            TraceEvent::Dup { .. } => c.duplicated += 1,
            TraceEvent::Delay { .. } => c.delayed += 1,
            TraceEvent::Partitioned { .. } => c.blackholed += 1,
            TraceEvent::Note { .. } => {}
        }
    }
    c
}
