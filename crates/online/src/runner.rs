//! The in-process reference runner: one thread, local evaluation.
//!
//! [`OnlineJob::run`] is the executable definition of what an online
//! job computes. The daemon's online job runner drives the exact same
//! [`OnlineState`] policy through its evaluator tiers (store, remote
//! workers), so a store-free daemon run must produce bit-identical
//! results to [`OnlineJob::run`] with no store — that equivalence is
//! what the sim's `simtest online:N` sweep asserts under fault weather.
//!
//! [`OnlineJob::run_frozen`] (tune once, never retune) and
//! [`OnlineJob::oracle`] (offline tune against every distinct workload
//! position, budget-matched) bracket the online mode from below and
//! above for the regret study in `experiments online`.

use std::collections::HashMap;
use std::sync::Arc;

use ga::{GaConfig, LocalEvaluator};
use jit::AdaptConfig;
use problems::Problem;
use search::Strategy;
use stored::Store;
use tuner::TuningTask;
use workloads::{Benchmark, DriftPos};

use crate::report::OnlineReport;
use crate::state::{OnlineConfig, OnlineState};

/// A fully-specified online tuning job.
#[derive(Clone)]
pub struct OnlineJob {
    /// Problem id (`"inline"`, `"flags"`, `"dss"`).
    pub problem: String,
    /// The (scenario, goal, arch) tuning cell.
    pub task: TuningTask,
    /// The base (phase-0) training suite the schedule morphs.
    pub base: Vec<Benchmark>,
    /// Adaptive-VM model configuration.
    pub adapt: AdaptConfig,
    /// GA budget; `pop_size * generations` per tune, seed the root of
    /// every tuning stream.
    pub ga: GaConfig,
    /// Strategy of the *initial* tune (retunes always use `warmstart`).
    pub strategy: String,
    /// Epoch horizon, drift schedule, detector knobs.
    pub online: OnlineConfig,
}

impl OnlineJob {
    /// Builds the problem as the workload looks at `pos`.
    ///
    /// # Errors
    /// Unknown problem id or an empty suite.
    pub fn problem_at(&self, pos: &DriftPos) -> Result<Arc<dyn Problem>, String> {
        let suite = self.online.schedule.suite_for(&self.base, pos);
        problems::build(&self.problem, &self.task, &suite, self.adapt.clone())
    }

    /// Runs the online policy to completion with local evaluation,
    /// optionally warm-seeding every tune from `store`.
    ///
    /// # Errors
    /// Problem construction or strategy errors.
    pub fn run(&self, store: Option<&Store>) -> Result<OnlineReport, String> {
        let st = self.drive(OnlineState::new(self.online.clone())?, store, None)?;
        Ok(st.into_report())
    }

    /// Resumes a run from a restored state (the daemon's recovery
    /// path, and the replay tests' way of proving it bit-identical).
    ///
    /// # Errors
    /// Problem construction or strategy errors.
    pub fn resume(
        &self,
        state: OnlineState,
        store: Option<&Store>,
    ) -> Result<OnlineReport, String> {
        let st = self.drive(state, store, None)?;
        Ok(st.into_report())
    }

    /// Runs up to (but not into) `epoch` and returns the checkpoint
    /// snapshot a daemon would persist there.
    ///
    /// # Errors
    /// Problem construction or strategy errors.
    pub fn snapshot_at(
        &self,
        epoch: u64,
        store: Option<&Store>,
    ) -> Result<crate::state::OnlineSnapshot, String> {
        let st = self.drive(OnlineState::new(self.online.clone())?, store, Some(epoch))?;
        Ok(st.snapshot())
    }

    /// The frozen-incumbent control: tunes once at epoch 0 and then
    /// only probes — what the regret study compares online against.
    ///
    /// # Errors
    /// Problem construction or strategy errors.
    pub fn run_frozen(&self) -> Result<OnlineReport, String> {
        let mut cfg = self.online.clone();
        cfg.detector.threshold_pct = f64::INFINITY;
        let frozen = Self {
            online: cfg.clone(),
            ..self.clone()
        };
        let st = frozen.drive(OnlineState::new(cfg)?, None, None)?;
        Ok(st.into_report())
    }

    /// The per-epoch oracle: a budget-matched offline tune against each
    /// distinct workload position, evaluated lazily and cached.
    ///
    /// # Errors
    /// Problem construction or strategy errors.
    pub fn oracle(&self) -> Result<Vec<f64>, String> {
        let mut best: HashMap<DriftPos, f64> = HashMap::new();
        let mut out = Vec::with_capacity(usize::try_from(self.online.epochs).unwrap_or(0));
        for epoch in 0..self.online.epochs {
            let pos = self.online.schedule.pos_at(epoch);
            let fitness = match best.get(&pos) {
                Some(f) => *f,
                None => {
                    let problem = self.problem_at(&pos)?;
                    let (_, f, _) = self.tune(&problem, None, None, self.ga.seed)?;
                    best.insert(pos, f);
                    f
                }
            };
            out.push(fitness);
        }
        Ok(out)
    }

    fn drive(
        &self,
        mut st: OnlineState,
        store: Option<&Store>,
        stop_at: Option<u64>,
    ) -> Result<OnlineState, String> {
        let mut problems_by_pos: HashMap<DriftPos, Arc<dyn Problem>> = HashMap::new();
        while !st.is_done() {
            if stop_at.is_some_and(|e| st.epoch() >= e) {
                break;
            }
            let pos = st.pos();
            let problem = match problems_by_pos.get(&pos) {
                Some(p) => Arc::clone(p),
                None => {
                    let p = self.problem_at(&pos)?;
                    problems_by_pos.insert(pos, Arc::clone(&p));
                    p
                }
            };
            if st.needs_initial_tune() {
                let (genes, fitness, evals) = self.tune(&problem, None, store, self.ga.seed)?;
                st.note_evals(evals);
                st.install(genes, fitness);
                continue;
            }
            let incumbent: Vec<i64> = st
                .incumbent()
                .map(|(g, _)| g.to_vec())
                .expect("incumbent exists");
            let probe = problem.fitness(&incumbent);
            if st.observe_probe(probe) {
                let seed = st.retune_seed(self.ga.seed);
                let (genes, fitness, evals) = self.tune(&problem, Some(&incumbent), store, seed)?;
                st.note_evals(evals);
                st.commit(Some((genes, fitness)));
            } else {
                st.commit(None);
            }
        }
        Ok(st)
    }

    /// One tune to completion on a single local thread.
    fn tune(
        &self,
        problem: &Arc<dyn Problem>,
        incumbent: Option<&[i64]>,
        store: Option<&Store>,
        seed: u64,
    ) -> Result<(Vec<i64>, f64, u64), String> {
        let (mut strategy, _) =
            epoch_strategy(&self.strategy, &self.ga, seed, &**problem, incumbent, store)?;
        let eval = LocalEvaluator::new(|genes: &[i64]| problem.fitness(genes), 1);
        search::drive(strategy.as_mut(), &eval);
        let (genes, fitness) = search::finish(strategy.as_ref())?;
        Ok((genes, fitness, strategy.evaluations() as u64))
    }
}

/// The strategy one tune inside an online epoch searches with — the
/// single definition the reference runner and the daemon's online jobs
/// share, which is what makes their results equal by construction.
///
/// The initial tune (`incumbent` is `None`) uses the job's submitted
/// `initial_kind`; a retune always uses `warmstart`. Either searches
/// under `ga` re-seeded with `seed`, planted with the incumbent first
/// and then the store's nearest-fingerprint best genomes up to the
/// population size. Returns the strategy and how many seeds it planted.
///
/// # Errors
/// An unknown strategy kind.
pub fn epoch_strategy(
    initial_kind: &str,
    ga: &GaConfig,
    seed: u64,
    problem: &dyn Problem,
    incumbent: Option<&[i64]>,
    store: Option<&Store>,
) -> Result<(Box<dyn Strategy>, usize), String> {
    let kind = if incumbent.is_some() {
        "warmstart"
    } else {
        initial_kind
    };
    let cfg = GaConfig { seed, ..ga.clone() };
    let mut strategy = search::build(kind, problem.space().clone(), cfg)?;
    let mut seeds: Vec<Vec<i64>> = incumbent.map(<[i64]>::to_vec).into_iter().collect();
    if let Some(store) = store {
        let want = ga.pop_size.saturating_sub(seeds.len());
        seeds.extend(store.warm_seeds(problem.fingerprint(), want));
    }
    let planted = if seeds.is_empty() {
        0
    } else {
        strategy.seed_population(&seeds)
    };
    Ok((strategy, planted))
}
