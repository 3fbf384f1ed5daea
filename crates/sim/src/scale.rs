//! `scale`: one large inline job fanned out over a W-worker fleet of
//! real `evald` workers, on the real daemon ([`crate::cluster`]).
//!
//! A seed picks the fleet size (`[2, 4, 8, 16][seed % 4]`), one fault
//! kind — none, lossy links, `w0` crashed and never restarted, or `w1`
//! partitioned from the start and never healed — and a GA seed. On top
//! of **no lost jobs** and **bit-identical results** (the shared
//! `drain`), every check is a count read from the daemon's own books
//! ([`served::Daemon::metrics_snapshot`] and the worker pool's
//! per-worker snapshots), never a virtual-time figure:
//!
//! * **Lossless.** `remote_completed + remote_fallback_evals ==
//!   evaluations`: every genome scored exactly once. A seed has a fresh
//!   store and one job, so nothing is a store hit.
//! * **Batched, remote.** A fault-free fleet falls back on nothing and
//!   sends fewer `eval_batch` frames than `evaluations + W`.
//! * **Fanned out.** Without a crash or partition, every worker of a
//!   fleet of at most 4 carries work, and at least half of a larger one
//!   does (`workers_used`).
//! * **Routed around.** A crashed or partitioned worker leaves the rest
//!   of the fleet still completing work remotely.

use simrng::child_rng;

use crate::cluster::{Cluster, ClusterConfig};
use crate::net::FaultPlan;
use crate::scenario::{
    drain, tuned, FaultKind, Scale, Scenario, SeedReport, SweepReport, TimedFault, Truth, Tuned,
    Weather,
};
use served::JobSpec;

/// Fleet sizes, picked by `seed % 4`.
const FLEETS: [usize; 4] = [2, 4, 8, 16];

/// GA seeds scale scenarios draw from (small on purpose: ground truths
/// are cached per GA seed).
const GA_SEEDS: [u64; 3] = [11, 12, 13];

/// The lossy-link plan on every daemon↔worker link.
const LOSSY: FaultPlan = FaultPlan {
    drop_p: 0.05,
    dup_p: 0.05,
    delay_p: 0.25,
    delay_max_micros: 20_000,
};

/// Virtual ms into the run at which a crash seed kills `w0`.
const CRASH_AT_MS: u64 = 40;

/// A fully derived `scale` scenario.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    /// The root seed.
    pub seed: u64,
    /// The fleet, and its one fault: a lossy-link plan, or a timeline of
    /// one crash or one partition that is never undone.
    pub weather: Weather,
    /// The job's GA seed.
    pub ga_seed: u64,
}

impl ScaleScenario {
    /// The job: [`Cluster::spec`] at population 64 × 4 generations, a
    /// generation wide enough to spread over the largest fleet.
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        let mut spec = Cluster::spec(self.ga_seed);
        (spec.ga.pop_size, spec.ga.generations) = (64, 4);
        spec
    }

    /// The fleet checks, on a run that already finished bit-identical.
    fn check_fleet(&self, cluster: &Cluster, report: &mut SeedReport) {
        let m = cluster.daemon().metrics_snapshot();
        let workers = cluster.daemon().pool().snapshots();
        let used = workers.iter().filter(|w| w.completed > 0).count();
        for (name, n) in [
            ("evaluations", m.evaluations),
            ("remote_completed", m.remote_completed),
            ("remote_fallback_evals", m.remote_fallback_evals),
            ("remote_batches", m.remote_batches),
            ("workers_used", used as u64),
        ] {
            report.counters.add(name, n);
        }
        let fleet = self.weather.workers;
        if m.remote_completed + m.remote_fallback_evals != m.evaluations {
            report.broken(format!(
                "{} remote + {} fallback evaluations for {} evaluations",
                m.remote_completed, m.remote_fallback_evals, m.evaluations
            ));
        }
        if !self.weather.timeline.is_empty() {
            if m.remote_completed == 0 {
                report.broken("the reachable workers completed nothing");
            }
            return;
        }
        let want = if fleet <= 4 { fleet } else { fleet / 2 };
        if used < want {
            report.broken(format!(
                "{used} of {fleet} workers carried work, want {want}"
            ));
        }
        if !self.weather.plan.is_active()
            && (m.remote_fallback_evals != 0 || m.remote_batches >= m.evaluations + fleet as u64)
        {
            report.broken(format!(
                "fault-free fleet: {} fallback evaluations, {} batches for {} evaluations",
                m.remote_fallback_evals, m.remote_batches, m.evaluations
            ));
        }
    }
}

impl Scenario for ScaleScenario {
    const NAME: &'static str = "scale";
    type Truth = Truth<Tuned>;

    fn derive(seed: u64, _: &Scale) -> Self {
        let mut rng = child_rng(seed, "sim/scale");
        let mut weather = Weather {
            workers: FLEETS[(seed % 4) as usize],
            plan: FaultPlan::default(),
            timeline: Vec::new(),
        };
        match rng.below(4) {
            1 => weather.plan = LOSSY,
            2 => weather.timeline = vec![TimedFault::new(CRASH_AT_MS, 0, FaultKind::Crash)],
            3 => weather.timeline = vec![TimedFault::new(0, 1, FaultKind::Partition)],
            _ => {}
        }
        Self {
            seed,
            weather,
            ga_seed: *rng.choose(&GA_SEEDS),
        }
    }

    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        let spec = self.spec();
        let want = match tuned(truth, &spec) {
            Ok(want) => want,
            Err(e) => return report.broken(format!("reference tune: {e}")),
        };
        let config = ClusterConfig {
            seed: self.seed,
            workers: self.weather.workers,
            plan: self.weather.plan,
            ..ClusterConfig::default()
        };
        let after = |cluster: &Cluster, _: &[u64], report: &mut SeedReport| {
            self.check_fleet(cluster, report);
        };
        drain(
            &config,
            &[(spec, want)],
            &self.weather.timeline,
            report,
            after,
        );
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        let f = &sweep.faults;
        (f.dropped + f.duplicated + f.delayed > 0)
            .then_some(())
            .ok_or("no lossy-link seed ran — the fan-out never rode a fault")
    }
}
