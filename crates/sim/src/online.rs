//! The online-drift sweep: seeded fault scenarios over **online**
//! jobs — a drifting workload, the drift detector, and warm retunes
//! all running inside the simulated cluster — checked against the
//! in-process reference runner ([`online::OnlineJob`]) epoch by epoch.
//!
//! A scenario derives everything from its seed, exactly like
//! [`crate::sweep::FaultScenario`] — the same weather
//! ([`crate::scenario::weather`]) on its own stream — plus the job's
//! identity — drift kind, GA seed, drift seed — drawn from small
//! pools so a 50-seed sweep pays for only a handful of reference runs.
//! What the sweep asserts per seed, on top of the usual no-lost-jobs /
//! checkpoints-loadable invariants:
//!
//! * **Bit-identical outcomes.** The daemon's final incumbent genome
//!   and fitness bits equal `OnlineJob::run(None)` for the same spec,
//!   and so does every per-epoch row (probe fitness, retune decision,
//!   post-epoch fitness), the retune count, the detection latencies
//!   and the evaluation count — the whole trajectory, not just the
//!   endpoint.
//! * **Bounded regret after detection.** The reconstructed
//!   [`online::OnlineReport`] passes
//!   [`online::OnlineReport::violations`] — retunes never worsen the
//!   incumbent, detection latency stays inside the window/period
//!   bound, probes hold steady inside a constant workload phase.
//!
//! Replay a failure with `simtest online --seed N`.

use simrng::child_rng;
use workloads::DriftKind;

use crate::cluster::{Cluster, ClusterConfig};
use crate::scenario::{
    cached, drain, FailureKind, Scale, Scenario, SeedReport, SweepReport, Truth, Weather,
};

use online::{OnlineJob, OnlineReport};
use served::job::{JobSpec, OnlineSpec};

/// GA seeds online scenarios draw from (small on purpose: reference
/// runs are cached per (kind, GA seed, drift seed) cell).
const GA_SEEDS: [u64; 2] = [1, 23];

/// Drift-morph seeds scenarios draw from.
const DRIFT_SEEDS: [u64; 2] = [11, 29];

/// Epochs per online scenario. Six epochs over a period-2, two-phase
/// schedule crosses at least two boundaries — every seed exercises
/// detection, not just the initial tune.
const EPOCHS: u64 = 6;

/// A fully derived online scenario.
#[derive(Debug, Clone)]
pub struct OnlineScenario {
    /// The root seed.
    pub seed: u64,
    /// The fault plan and crash/partition timeline.
    pub weather: Weather,
    /// The drift schedule's shape.
    pub kind: DriftKind,
    /// The job's GA seed (picks search trajectories).
    pub ga_seed: u64,
    /// The workload morph seed (picks how phases differ).
    pub drift_seed: u64,
}

impl OnlineScenario {
    /// The job spec this scenario submits: [`Cluster::spec`] plus an
    /// online section tight enough that drift detection fires within
    /// the sweep (one-probe window, 2 % threshold).
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        let mut spec = Cluster::spec(self.ga_seed);
        spec.name = format!("sim-online-{}-{}", self.kind.name(), self.ga_seed);
        spec.online = Some(OnlineSpec {
            epochs: EPOCHS,
            kind: self.kind,
            period: 2,
            phases: 2,
            drift_seed: self.drift_seed,
            window: 1,
            threshold_pct: 2.0,
        });
        spec
    }
}

/// The fault-free ground truth for an online spec: the in-process
/// reference runner over the same schedule, store-free — exactly what
/// the daemon must bit-match.
///
/// # Errors
/// Invalid spec.
pub fn online_reference(spec: &JobSpec) -> Result<OnlineReport, String> {
    let online = spec
        .online
        .as_ref()
        .ok_or_else(|| "spec has no online section".to_string())?;
    OnlineJob {
        problem: spec.problem.clone(),
        task: spec.task()?,
        base: spec.training()?,
        adapt: spec.adapt_cfg(),
        ga: spec.ga.clone(),
        strategy: spec.strategy.clone(),
        online: online.config(),
    }
    .run(None)
}

impl Scenario for OnlineScenario {
    const NAME: &'static str = "online";
    /// Reference runs, cached per `(kind, GA seed, drift seed)` — the
    /// three values that fully determine an online trajectory (faults
    /// must not change it).
    type Truth = Truth<OnlineReport>;

    fn derive(seed: u64, _: &Scale) -> Self {
        let mut rng = child_rng(seed, "sim/online-scenario");
        Self {
            seed,
            weather: Weather::draw(&mut rng),
            kind: *rng.choose(&DriftKind::ALL),
            ga_seed: *rng.choose(&GA_SEEDS),
            drift_seed: *rng.choose(&DRIFT_SEEDS),
        }
    }

    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        let spec = self.spec();
        let key = format!("{}/{}/{}", self.kind.name(), self.ga_seed, self.drift_seed);
        let want = match cached(truth, key, || online_reference(&spec)) {
            Ok(want) => want,
            Err(e) => return report.broken(format!("reference run: {e}")),
        };
        let config = ClusterConfig {
            seed: self.seed,
            workers: self.weather.workers,
            plan: self.weather.plan,
            // Store-free on purpose: warm-start transfer reseeds retunes
            // from store cells, which is a deliberate trajectory change —
            // the bit-identity reference is the store-free runner.
            store: false,
            ..ClusterConfig::default()
        };
        report.counters.add("retunes", 0);
        let jobs = [(spec.clone(), (want.genes.clone(), want.fitness.to_bits()))];
        let after = |cluster: &Cluster, ids: &[u64], report: &mut SeedReport| {
            check_trajectory(cluster, ids[0], &want, &spec, report);
        };
        drain(&config, &jobs, &self.weather.timeline, report, after);
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        (sweep.counters.get("retunes") > 0)
            .then_some(())
            .ok_or("no scenario committed a retune — drift detection never fired")
    }
}

/// The online check past the final incumbent (which the shared drain
/// already compared): the whole persisted trajectory (rows, retunes,
/// latencies, evals) against the reference, then the bounded-regret
/// invariants. Books the retune count on success.
fn check_trajectory(
    cluster: &Cluster,
    id: u64,
    want: &OnlineReport,
    spec: &JobSpec,
    report: &mut SeedReport,
) {
    let snap = match cluster.online_snapshot(id) {
        Ok(snap) => snap,
        Err(e) => return report.broken(e),
    };
    let got = OnlineReport {
        rows: snap.rows,
        retunes: snap.retunes,
        detect_latencies: snap.detect_latencies,
        evals: snap.evals,
        genes: want.genes.clone(),
        fitness: want.fitness,
    };
    if got != *want {
        let detail = format!(
            "trajectory diverged: daemon rows/retunes/latencies/evals \
             {:?}/{}/{:?}/{} vs reference {:?}/{}/{:?}/{}",
            got.rows,
            got.retunes,
            got.detect_latencies,
            got.evals,
            want.rows,
            want.retunes,
            want.detect_latencies,
            want.evals,
        );
        return report.fail(FailureKind::Mismatch, detail);
    }
    let cfg = spec.online.as_ref().expect("online scenario spec").config();
    let violations = got.violations(&cfg);
    if !violations.is_empty() {
        let violations = violations.join("; ");
        return report.broken(format!("regret invariants violated: {violations}"));
    }
    report.counters.add("retunes", got.retunes);
}
