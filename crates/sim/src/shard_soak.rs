//! The multi-tenant shard soak: thousands of virtual clients, a shared
//! worker fleet, and the full crash/partition/restart weather — against
//! the sharded control plane's four invariants:
//!
//! 1. **No lost jobs.** Every *admitted* job reaches `done` inside the
//!    virtual deadline. Admission rejects are legal (that is what the
//!    admission controller is for) but must be structured: a retryable
//!    `queue_full` that eventually admits, or a terminal `quota`.
//! 2. **Quotas respected.** The capped tenant's charged evaluations
//!    never exceed its budget, every reservation is settled by the end,
//!    and the accountant's admit/reject books match the client's.
//! 3. **No tenant starvation.** Every tenant with admitted work drains
//!    it completely — the deficit-round-robin scheduler may not park a
//!    runnable tenant behind a noisy one.
//! 4. **Bit-identical results.** Each job's genome and fitness bits
//!    equal a fault-free single-shard in-process run of the same spec
//!    ([`Cluster::expected`]) — sharding and faults may change timing,
//!    never answers.
//!
//! The headline scale (1000 clients, 100 workers) is tractable because
//! clients draw their GA seed from a small pool and every simulated
//! deployment runs with the persistent fitness store on: the first job
//! per trajectory pays real evaluations, the rest are store hits. The
//! soak is therefore a *control-plane* stress test — admission, DRR
//! scheduling, quota accounting, shard routing, settle — not a fitness
//! recomputation burner.
//!
//! [`run_shard_bench`] is the companion throughput probe: the same
//! cluster at 1, 4 and 16 shards, 16 concurrent distinct-trajectory
//! jobs, measuring submit-to-done throughput and p95 scheduling delay.
//! One shard means one shard executor — the single-queue baseline this
//! PR replaces — so the gate `sharded ≥ single-queue` is the whole
//! point of the subsystem in one number.

use std::time::Duration;

use served::checkpoint::f64_to_json;
use served::json::Json;
use served::{Client, JobSpec, JobState};
use simrng::child_rng;

use crate::cluster::{Cluster, ClusterConfig};
use crate::net::FaultPlan;
use crate::scenario::{
    close, fire_due, tuned, FailureKind, FaultKind, Scale, Scenario, SeedReport, SweepReport,
    TimedFault, Truth, Tuned, Weather,
};

/// Virtual-time budget for a whole soak scenario (submission through
/// the last job's terminal state). Generous: the backlog is long but
/// store-hit jobs finish in virtual microseconds.
pub const SOAK_DEADLINE: Duration = Duration::from_secs(1200);

/// GA seeds soak clients draw from (small on purpose: ground truths and
/// store cells are shared across the sweep).
const GA_SEEDS: [u64; 4] = [1, 7, 23, 77];

/// The tenant roster every soak scenario uses. `capped` carries an
/// eval-budget quota sized so that some of its submissions *must* be
/// rejected — a soak that never exercises the quota path proves
/// nothing about it.
pub const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "capped"];

/// The quota-capped member of [`TENANTS`].
pub const CAPPED_TENANT: &str = "capped";

/// Scale knobs for one soak scenario.
#[derive(Debug, Clone)]
pub struct ShardScale {
    /// Virtual clients; each submits one job (retrying structured
    /// `queue_full` rejects until admitted or terminally rejected).
    pub clients: usize,
    /// `evald` workers in the shared fleet.
    pub workers: usize,
    /// Daemon shards.
    pub shards: usize,
    /// Daemon job-runner threads.
    pub runners: usize,
}

impl Default for ShardScale {
    fn default() -> Self {
        Self {
            clients: 1000,
            workers: 100,
            shards: 8,
            runners: 16,
        }
    }
}

/// A fully derived soak scenario: the weather, and which tenant and GA
/// seed every client submits under.
#[derive(Debug, Clone)]
pub struct ShardScenario {
    /// The root seed.
    pub seed: u64,
    /// The scale it was derived at — the timeline aims at seeded
    /// *worker indices*, so the same seed at another scale is another
    /// scenario.
    pub scale: ShardScale,
    /// The fault plan and crash/partition timeline.
    pub weather: Weather,
    /// Each client's `(tenant, GA seed)`, in submission order.
    pub clients: Vec<(&'static str, u64)>,
}

/// Derives the fault schedule a soak seed denotes: frame-level faults
/// on every daemon↔worker link plus one or two crash/restart pairs and
/// an optional partition/heal pair, each aimed at a seeded worker
/// index.
fn derive_faults(seed: u64, workers: usize) -> Weather {
    let mut rng = child_rng(seed, "sim/shard");
    let plan = FaultPlan {
        drop_p: rng.f64() * 0.08,
        dup_p: rng.f64() * 0.03,
        delay_p: rng.f64() * 0.30,
        delay_max_micros: 1_000 + rng.below(15_000),
    };
    let mut timeline = Vec::new();
    let mut push = |at_ms, worker, kind| timeline.push(TimedFault::new(at_ms, worker, kind));
    for _ in 0..=rng.below(2) {
        let worker = rng.below(workers as u64) as usize;
        let crash_at = 40 + rng.below(400);
        push(crash_at, worker, FaultKind::Crash);
        push(crash_at + 40 + rng.below(300), worker, FaultKind::Restart);
    }
    if rng.chance(0.6) {
        let worker = rng.below(workers as u64) as usize;
        let cut_at = 20 + rng.below(400);
        push(cut_at, worker, FaultKind::Partition);
        push(cut_at + 30 + rng.below(250), worker, FaultKind::Heal);
    }
    timeline.sort_by_key(|f| f.at_ms);
    Weather {
        workers,
        plan,
        timeline,
    }
}

/// What one submission attempt came back with.
enum Admission {
    Admitted(u64),
    QueueFull,
    Quota,
    Broken(String),
}

fn try_submit(client: &mut Client, spec: &JobSpec) -> Admission {
    let frame = Json::obj(vec![
        ("cmd", Json::Str("submit".into())),
        ("job", spec.to_json()),
    ]);
    let resp = match client.request(&frame) {
        Ok(r) => r,
        Err(e) => return Admission::Broken(format!("submit transport: {e}")),
    };
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        return match resp.get("id").and_then(Json::as_u64) {
            Some(id) => Admission::Admitted(id),
            None => Admission::Broken("submit ok frame without an id".into()),
        };
    }
    if resp.get("busy").and_then(Json::as_bool) != Some(true) {
        return Admission::Broken(format!("unstructured reject: {}", resp.to_text()));
    }
    let retryable = resp.get("retryable").and_then(Json::as_bool) == Some(true);
    match resp.get("reason").and_then(Json::as_str) {
        Some("queue_full") if retryable => Admission::QueueFull,
        Some("quota") if !retryable => Admission::Quota,
        other => Admission::Broken(format!(
            "busy frame with reason {other:?} retryable {retryable}"
        )),
    }
}

impl Scenario for ShardScenario {
    const NAME: &'static str = "shard";
    type Truth = Truth<Tuned>;

    fn derive(seed: u64, scale: &Scale) -> Self {
        let scale = scale.shard.clone();
        let weather = derive_faults(seed, scale.workers);
        let mut rng = child_rng(seed, "sim/shard/clients");
        let clients = (0..scale.clients)
            .map(|c| (TENANTS[c % TENANTS.len()], *rng.choose(&GA_SEEDS)))
            .collect();
        Self {
            seed,
            scale,
            weather,
            clients,
        }
    }

    fn replay_args(&self) -> String {
        format!(
            " --clients {} --workers {}",
            self.scale.clients, self.scale.workers
        )
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        let (seed, scale) = (self.seed, &self.scale);
        for name in ["jobs_done", "queue_full_rejects"] {
            report.counters.add(name, 0);
        }

        // Ground truths up front (outside the cluster's virtual clock).
        for ga_seed in GA_SEEDS {
            if let Err(e) = tuned(truth, &Cluster::spec(ga_seed)) {
                return report.broken(format!("reference tune: {e}"));
            }
        }

        // Size the capped tenant's budget so roughly a quarter of its
        // clients can admit by estimate — the rest must see `quota`.
        let per_job = Cluster::spec(1).eval_estimate();
        let capped_clients = scale.clients.div_ceil(TENANTS.len());
        let quota = per_job * (capped_clients as u64 / 4).max(1);

        let cluster = match Cluster::boot(&ClusterConfig {
            seed,
            workers: scale.workers,
            plan: self.weather.plan,
            redispatch: true,
            shards: scale.shards,
            runners: scale.runners,
            // Deliberately smaller than the backlog: the soak must ride
            // through structured queue_full rejects, not sidestep them.
            queue_capacity: (scale.clients / (16 * scale.shards.max(1))).max(4),
            tenant_quotas: vec![(CAPPED_TENANT.to_string(), quota)],
            store: true,
        }) {
            Ok(c) => c,
            Err(e) => return report.broken(format!("boot: {e}")),
        };
        let mut client = match cluster.client() {
            Ok(c) => c,
            Err(e) => {
                cluster.abandon();
                return report.broken(format!("connect: {e}"));
            }
        };

        let started_ms = cluster.now_ms();
        let give_up_ms = started_ms + SOAK_DEADLINE.as_millis() as u64;
        let mut pending = self.weather.timeline.clone();
        let mut admitted: Vec<(u64, u64, &str)> = Vec::new(); // (id, ga_seed, tenant)
        let mut quota_rejects = 0u64;

        // Submission phase: every client submits one job, riding through
        // retryable rejects while the runners drain the backlog underneath.
        'clients: for (c, &(tenant, ga_seed)) in self.clients.iter().enumerate() {
            let spec = JobSpec {
                name: format!("soak-{seed}-{c}"),
                tenant: tenant.to_string(),
                ..Cluster::spec(ga_seed)
            };
            loop {
                fire_due(&cluster, cluster.now_ms() - started_ms, &mut pending);
                match try_submit(&mut client, &spec) {
                    Admission::Admitted(id) => {
                        admitted.push((id, ga_seed, tenant));
                        break;
                    }
                    Admission::QueueFull => {
                        report.counters.add("queue_full_rejects", 1);
                        if cluster.now_ms() >= give_up_ms {
                            report.fail(
                                FailureKind::Hang,
                                format!("client {c}: still queue_full at the soak deadline"),
                            );
                            break 'clients;
                        }
                        cluster.advance(Duration::from_millis(20));
                    }
                    Admission::Quota => {
                        quota_rejects += 1;
                        if tenant != CAPPED_TENANT {
                            report.broken(format!(
                                "client {c}: quota reject for uncapped '{tenant}'"
                            ));
                        }
                        break;
                    }
                    Admission::Broken(detail) => {
                        report.broken(format!("client {c}: {detail}"));
                        // The control link is fault-free; try a reconnect
                        // once rather than abandoning the whole scenario.
                        match cluster.client() {
                            Ok(fresh) => client = fresh,
                            Err(e) => {
                                report.broken(format!("reconnect: {e}"));
                                break 'clients;
                            }
                        }
                        break;
                    }
                }
            }
        }
        report.counters.add("admitted", admitted.len() as u64);
        report.counters.add("quota_rejects", quota_rejects);

        // Drain phase: poll every admitted job to a terminal state through
        // the protocol, firing the remaining timed faults as the virtual
        // clock passes them, then check results against the authoritative
        // daemon record (exact bits, not JSON round-trips).
        let mut hung = false;
        for &(id, ga_seed, tenant) in &admitted {
            loop {
                fire_due(&cluster, cluster.now_ms() - started_ms, &mut pending);
                let state = match client.status(id) {
                    Ok(job) => job
                        .get("state")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .unwrap_or_default(),
                    Err(_) => match cluster.client() {
                        Ok(fresh) => {
                            client = fresh;
                            continue;
                        }
                        Err(e) => {
                            report.broken(format!("job {id}: reconnect: {e}"));
                            hung = true;
                            break;
                        }
                    },
                };
                if matches!(state.as_str(), "done" | "failed" | "canceled") {
                    break;
                }
                if cluster.now_ms() >= give_up_ms {
                    report.fail(
                        FailureKind::Hang,
                        format!(
                            "job {id} (tenant {tenant}): still '{state}' at the soak deadline — \
                             lost work"
                        ),
                    );
                    hung = true;
                    break;
                }
                cluster.advance(Duration::from_millis(20));
            }
            if hung {
                break;
            }
            let Some(record) = cluster.daemon().status(id) else {
                report.broken(format!("job {id}: vanished from the daemon"));
                continue;
            };
            if record.state != JobState::Done {
                report.broken(format!(
                    "job {id} (tenant {tenant}): terminal '{:?}': {}",
                    record.state,
                    record.error.unwrap_or_default()
                ));
                continue;
            }
            let (want_genes, want_bits) = match tuned(truth, &record.spec) {
                Ok(want) => want,
                Err(e) => {
                    report.broken(format!("job {id}: no ground truth: {e}"));
                    continue;
                }
            };
            match record.result {
                Some((ref genes, fitness))
                    if *genes == want_genes && fitness.to_bits() == want_bits =>
                {
                    report.counters.add("jobs_done", 1);
                }
                Some((genes, fitness)) => report.fail(
                    FailureKind::Mismatch,
                    format!(
                        "job {id} (ga seed {ga_seed}): got {genes:?} @ {fitness}, fault-free \
                         single-shard gives {want_genes:?} @ {}",
                        f64::from_bits(want_bits)
                    ),
                ),
                None => report.broken(format!("job {id}: done without a result")),
            }
        }
        report.virtual_ms = cluster.now_ms() - started_ms;

        // Book-keeping invariants, straight from the daemon. A job's state
        // flips terminal *before* its runner settles the quota reservation,
        // so give the runners a moment of wall clock to finish their books
        // — the settle lag is scheduling, not an invariant breach.
        if !hung {
            for _ in 0..500 {
                let usage = cluster.daemon().tenant_usage();
                let settled: u64 = usage.iter().map(|u| u.settled).sum();
                if usage.iter().all(|u| u.reserved == 0) && settled >= admitted.len() as u64 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            audit_books(&cluster, &admitted, quota_rejects, scale, report);
            if let Err(e) = cluster.checkpoints_loadable() {
                report.broken(format!("checkpoint audit: {e}"));
            }
        }
        report
            .counters
            .add("sched_delay_p95_micros", sched_delay_p95(&cluster));
        close(cluster, hung, report);
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        (sweep.counters.get("queue_full_rejects") > 0)
            .then_some(())
            .ok_or("no client rode a queue_full reject — admission was never full")
    }
}

/// p95 scheduling delay (enqueue → claim) so far, virtual microseconds.
fn sched_delay_p95(cluster: &Cluster) -> u64 {
    let delays = cluster.daemon().obs().histogram("sched_delay_micros");
    delays.snapshot().p95()
}

/// Quota, starvation and shard-routing invariants over the daemon's own
/// books once the backlog has drained.
fn audit_books(
    cluster: &Cluster,
    admitted: &[(u64, u64, &str)],
    quota_rejects: u64,
    scale: &ShardScale,
    report: &mut SeedReport,
) {
    let usage = cluster.daemon().tenant_usage();
    let mut admitted_by_tenant = std::collections::HashMap::new();
    for (_, _, tenant) in admitted {
        *admitted_by_tenant.entry(*tenant).or_insert(0u64) += 1;
    }
    for tenant in TENANTS {
        let Some(row) = usage.iter().find(|u| u.tenant == tenant) else {
            report.broken(format!("tenant '{tenant}' missing from the accountant"));
            continue;
        };
        let client_admits = admitted_by_tenant.get(tenant).copied().unwrap_or(0);
        // Starvation: a tenant whose work was admitted must have had all
        // of it scheduled, run and settled — DRR may not park anyone.
        if row.settled < client_admits {
            report.broken(format!(
                "tenant '{tenant}': {} settled of {client_admits} admitted — starved work",
                row.settled
            ));
        }
        if row.reserved != 0 {
            report.broken(format!(
                "tenant '{tenant}': {} evals still reserved after the drain",
                row.reserved
            ));
        }
        if row.admitted < client_admits {
            report.broken(format!(
                "tenant '{tenant}': accountant admitted {} but clients saw {client_admits}",
                row.admitted
            ));
        }
        if scale.clients >= 2 * TENANTS.len() && client_admits == 0 && tenant != CAPPED_TENANT {
            report.broken(format!("tenant '{tenant}': nothing admitted at soak scale"));
        }
        if tenant == CAPPED_TENANT {
            if let Some(cap) = row.quota {
                if row.used > cap {
                    report.broken(format!(
                        "capped tenant charged {} evals over its {cap} quota",
                        row.used
                    ));
                }
            } else {
                report.broken("capped tenant lost its quota");
            }
            if row.rejected < quota_rejects {
                report.broken(format!(
                    "accountant counted {} quota rejects, clients saw {quota_rejects}",
                    row.rejected
                ));
            }
        }
    }
    // Shard routing: the backlog must actually spread, and every shard
    // must end drained.
    let snaps = cluster.daemon().shard_snapshots();
    let busy_shards = snaps.iter().filter(|s| s.done > 0).count();
    if scale.shards > 1 && admitted.len() >= 4 * scale.shards && busy_shards < 2 {
        report.broken(format!(
            "{} jobs all landed in one of {} shards — routing is not spreading",
            admitted.len(),
            scale.shards
        ));
    }
    for s in &snaps {
        if s.queued != 0 || s.running != 0 {
            report.broken(format!(
                "shard {}: {} queued / {} running after the drain",
                s.shard, s.queued, s.running
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Shard throughput bench
// ---------------------------------------------------------------------

/// Shard counts the bench sweeps. One shard is the single-queue
/// baseline this PR replaces.
pub const BENCH_SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// One bench point: the cluster at one shard count.
#[derive(Debug, Clone)]
pub struct ShardBenchPoint {
    /// Shards (and shard executors) in this configuration.
    pub shards: usize,
    /// Concurrent jobs submitted.
    pub jobs: usize,
    /// Virtual ms from first submit to the last job's terminal state.
    pub virtual_ms: u64,
    /// Submit-to-done throughput, jobs per virtual second.
    pub jobs_per_vsec: f64,
    /// p95 scheduling delay (enqueue → claim), virtual microseconds.
    pub sched_delay_p95_micros: u64,
    /// Whether every job finished `done` with a result.
    pub all_done: bool,
}

/// The bench report across [`BENCH_SHARD_COUNTS`].
#[derive(Debug, Clone)]
pub struct ShardBenchReport {
    /// The sim seed.
    pub seed: u64,
    /// Concurrent jobs per point.
    pub jobs: usize,
    /// One point per shard count, ascending.
    pub points: Vec<ShardBenchPoint>,
}

impl ShardBenchReport {
    /// The acceptance gate: the most-sharded configuration's throughput
    /// is at least the single-queue baseline's.
    #[must_use]
    pub fn sharded_beats_single(&self) -> bool {
        match (self.points.first(), self.points.last()) {
            (Some(single), Some(sharded)) if self.points.len() >= 2 => {
                sharded.jobs_per_vsec >= single.jobs_per_vsec
            }
            _ => false,
        }
    }

    /// Gate plus completeness: every point drove every job to `done`.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.sharded_beats_single() && self.points.iter().all(|p| p.all_done)
    }

    /// The `BENCH_shard.json` summary (`simtest shard-bench` appends
    /// `wall_secs`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let int = |n: u64| Json::Int(n as i64);
        let points = self.points.iter().map(|p| {
            Json::obj(vec![
                ("shards", int(p.shards as u64)),
                ("virtual_ms", int(p.virtual_ms)),
                ("jobs_per_vsec", f64_to_json(p.jobs_per_vsec)),
                ("sched_delay_p95_micros", int(p.sched_delay_p95_micros)),
                ("all_done", Json::Bool(p.all_done)),
            ])
        });
        let beats = Json::Bool(self.sharded_beats_single());
        Json::obj(vec![
            ("bench", Json::Str("shard".into())),
            ("clock", Json::Str("virtual".into())),
            ("seed", int(self.seed)),
            ("jobs", int(self.jobs as u64)),
            ("points", Json::Arr(points.collect())),
            ("sharded_beats_single", beats),
            ("shard_bench_ok", Json::Bool(self.is_ok())),
        ])
    }
}

/// Runs the shard bench: for each shard count, boots a fault-free
/// cluster (network latency only — evaluations need a nonzero virtual
/// cost for throughput to mean anything), submits `jobs` concurrent
/// jobs with distinct GA trajectories, and measures submit-to-done
/// throughput and p95 scheduling delay. Runner threads equal the shard
/// count, so one shard *is* the serial single-queue daemon.
#[must_use]
pub fn run_shard_bench(
    seed: u64,
    jobs: usize,
    workers: usize,
    shard_counts: &[usize],
) -> ShardBenchReport {
    let mut points = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        points.push(bench_point(seed, jobs, workers, shards));
    }
    ShardBenchReport { seed, jobs, points }
}

fn bench_point(seed: u64, jobs: usize, workers: usize, shards: usize) -> ShardBenchPoint {
    let broken = |virtual_ms| ShardBenchPoint {
        shards,
        jobs,
        virtual_ms,
        jobs_per_vsec: 0.0,
        sched_delay_p95_micros: 0,
        all_done: false,
    };
    let cluster = match Cluster::boot(&ClusterConfig {
        seed,
        workers,
        // Latency-only weather: every frame takes time, none are lost,
        // so the point is deterministic-by-outcome and evals cost
        // virtual time.
        plan: FaultPlan {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 1.0,
            delay_max_micros: 4_000,
        },
        redispatch: true,
        shards,
        runners: shards,
        queue_capacity: jobs.max(8),
        tenant_quotas: Vec::new(),
        store: true,
    }) {
        Ok(c) => c,
        Err(_) => return broken(0),
    };
    let Ok(mut client) = cluster.client() else {
        cluster.abandon();
        return broken(0);
    };

    let started_ms = cluster.now_ms();
    let mut ids = Vec::with_capacity(jobs);
    for c in 0..jobs {
        // Distinct trajectories: no cross-job store hits, every job
        // pays its own evaluations.
        let spec = JobSpec {
            name: format!("bench-{shards}-{c}"),
            ..Cluster::spec(1000 + c as u64)
        };
        match client.submit(&spec) {
            Ok(id) => ids.push(id),
            Err(_) => {
                let waited = cluster.now_ms() - started_ms;
                cluster.abandon();
                return broken(waited);
            }
        }
    }
    let mut all_done = true;
    for id in &ids {
        match cluster.wait(*id, SOAK_DEADLINE, |_| {}) {
            crate::cluster::Outcome::Done { .. } => {}
            _ => all_done = false,
        }
    }
    let virtual_ms = (cluster.now_ms() - started_ms).max(1);
    let sched_delay_p95_micros = sched_delay_p95(&cluster);
    cluster.shutdown();
    #[allow(clippy::cast_precision_loss)]
    ShardBenchPoint {
        shards,
        jobs,
        virtual_ms,
        jobs_per_vsec: jobs as f64 / (virtual_ms as f64 / 1000.0),
        sched_delay_p95_micros,
        all_done,
    }
}
