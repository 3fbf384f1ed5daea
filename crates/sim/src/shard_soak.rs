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
//! [`QueueScenario`] (`queue`) is the companion: one backlog of
//! concurrent jobs drained by the single-queue daemon and again by the
//! sharded one, held to the same answers at both.

use std::time::Duration;

use served::json::Json;
use served::{Client, JobSpec, JobState};
use simrng::child_rng;

use crate::cluster::{Cluster, ClusterConfig};
use crate::net::FaultPlan;
use crate::scenario::{
    close, drain, fire_due, tuned, FailureKind, FaultKind, Scale, Scenario, SeedReport,
    SweepReport, TimedFault, Truth, Tuned, Weather,
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
// Queue drain: one backlog at 1 shard and at S
// ---------------------------------------------------------------------

/// GA seeds of the `queue` backlog, one job each: every seed submits
/// the whole pool, so ground truths are shared across the sweep.
const QUEUE_GA_SEEDS: std::ops::Range<u64> = 1000..1016;

/// Workers in the `queue` fleet.
const QUEUE_WORKERS: usize = 16;

/// Latency-only weather: every frame takes time, none is lost, so
/// dispatch costs virtual time and the outcome is still exact.
const LATENCY: FaultPlan = FaultPlan {
    drop_p: 0.0,
    dup_p: 0.0,
    delay_p: 1.0,
    delay_max_micros: 4_000,
};

/// A fully derived `queue` scenario: one backlog of concurrent jobs,
/// drained once by the single-queue daemon (1 shard, 1 runner) and once
/// at `shards` shards (as many runners). Every job must end `done` and
/// bit-identical at both; the sharded drain must take fewer virtual ms
/// and spread over at least two shards. Both drain times are booked as
/// counters — reported, not a speed claim.
#[derive(Debug, Clone)]
pub struct QueueScenario {
    /// The root seed.
    pub seed: u64,
    /// Shards (and runners) of the sharded drain.
    pub shards: usize,
    /// The backlog's GA seeds, in submission order.
    pub ga_seeds: Vec<u64>,
}

impl QueueScenario {
    /// Drains `jobs` at `shards` shards: its virtual ms, and how many
    /// shards finished a job.
    fn drain_at(
        &self,
        shards: usize,
        jobs: &[(JobSpec, Tuned)],
        report: &mut SeedReport,
    ) -> (u64, u64) {
        let config = ClusterConfig {
            seed: self.seed,
            workers: QUEUE_WORKERS,
            plan: LATENCY,
            shards,
            runners: shards,
            queue_capacity: jobs.len(),
            ..ClusterConfig::default()
        };
        let (before, mut busy) = (report.virtual_ms, 0);
        drain(&config, jobs, &[], report, |cluster, _, _| {
            let snaps = cluster.daemon().shard_snapshots();
            busy = snaps.iter().filter(|s| s.done > 0).count() as u64;
        });
        (report.virtual_ms - before, busy)
    }
}

impl Scenario for QueueScenario {
    const NAME: &'static str = "queue";
    type Truth = Truth<Tuned>;

    fn derive(seed: u64, _: &Scale) -> Self {
        let mut rng = child_rng(seed, "sim/queue");
        let shards = *rng.choose(&[4, 16]);
        let mut ga_seeds: Vec<u64> = QUEUE_GA_SEEDS.collect();
        rng.shuffle(&mut ga_seeds);
        Self {
            seed,
            shards,
            ga_seeds,
        }
    }

    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        let mut jobs = Vec::with_capacity(self.ga_seeds.len());
        for &ga_seed in &self.ga_seeds {
            let spec = Cluster::spec(ga_seed);
            match tuned(truth, &spec) {
                Ok(want) => jobs.push((spec, want)),
                Err(e) => return report.broken(format!("reference tune: {e}")),
            }
        }
        let (single_ms, _) = self.drain_at(1, &jobs, report);
        if !report.is_ok() {
            return;
        }
        let (sharded_ms, busy) = self.drain_at(self.shards, &jobs, report);
        report.counters.add("single_queue_ms", single_ms);
        report.counters.add("sharded_ms", sharded_ms);
        if !report.is_ok() {
            return;
        }
        if sharded_ms >= single_ms {
            report.broken(format!(
                "{} shards drained in {sharded_ms} virtual ms, one in {single_ms}",
                self.shards
            ));
        }
        if busy < 2 {
            report.broken(format!("{busy} of {} shards finished a job", self.shards));
        }
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        (sweep.faults.delayed > 0)
            .then_some(())
            .ok_or("no frame was delayed — the drains cost no virtual time")
    }
}
