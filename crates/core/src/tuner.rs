//! The off-line tuning driver.
//!
//! A [`TuningTask`] names a (scenario, goal, architecture) cell of the
//! paper's Table 4; a [`Tuner`] binds it to a training suite and exposes
//! the GA fitness function; [`Tuner::tune`] runs the genetic algorithm and
//! returns the tuned [`InlineParams`].

use std::sync::Arc;

use ga::{GaConfig, GaResult, LocalEvaluator, Ranges};
use inliner::{InlineParams, ParamRanges};
use jit::{AdaptConfig, ArchModel, Measurement, MemoStats, Prepared, Scenario, UnitMemo};
use workloads::Benchmark;

use crate::defaults::default_measurement_in;
use crate::fitness::geometric_mean;
use crate::goal::Goal;

/// One tuning configuration — a column of the paper's Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTask {
    /// Display name, e.g. `"Opt:Bal"` or `"Adapt (PPC)"`.
    pub name: String,
    /// Compilation scenario.
    pub scenario: Scenario,
    /// Optimization goal.
    pub goal: Goal,
    /// Target machine.
    pub arch: ArchModel,
}

impl TuningTask {
    /// Genome ranges for this task: the full Table 1 ranges under `Adapt`;
    /// under `Opt` the `HOT_CALLEE_MAX_SIZE` gene is pinned (the paper
    /// reports "NA" for it — no profile exists, so the gene is inert).
    #[must_use]
    pub fn ranges(&self) -> Ranges {
        let pr = match self.scenario {
            Scenario::Adapt => ParamRanges::paper(),
            Scenario::Opt => ParamRanges::paper_opt_only(),
        };
        Ranges::new(pr.bounds.to_vec())
    }
}

/// The five tuning tasks of the paper's Table 4 (excluding the Default
/// column).
#[must_use]
pub fn paper_tasks() -> Vec<TuningTask> {
    vec![
        TuningTask {
            name: "Adapt".into(),
            scenario: Scenario::Adapt,
            goal: Goal::Balance,
            arch: ArchModel::pentium4(),
        },
        TuningTask {
            name: "Opt:Bal".into(),
            scenario: Scenario::Opt,
            goal: Goal::Balance,
            arch: ArchModel::pentium4(),
        },
        TuningTask {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: ArchModel::pentium4(),
        },
        TuningTask {
            name: "Adapt (PPC)".into(),
            scenario: Scenario::Adapt,
            goal: Goal::Balance,
            arch: ArchModel::powerpc_g4(),
        },
        TuningTask {
            name: "Opt:Bal (PPC)".into(),
            scenario: Scenario::Opt,
            goal: Goal::Balance,
            arch: ArchModel::powerpc_g4(),
        },
    ]
}

/// The tuning result: the parameters plus the GA's search record.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The task that was tuned.
    pub task: TuningTask,
    /// The tuned parameter vector (the deliverable baked into the
    /// "shipped" compiler).
    pub params: InlineParams,
    /// Fitness of the tuned parameters (relative cost vs. the default
    /// heuristic; < 1 means the GA beat the default on the training
    /// suite).
    pub fitness: f64,
    /// The GA's full result (history, evaluation counts).
    pub ga: GaResult,
}

/// Binds a task to a training suite and evaluates/tunes parameter
/// vectors.
pub struct Tuner {
    task: TuningTask,
    training: Vec<Benchmark>,
    /// Per benchmark: everything a measurement needs that no parameter
    /// vector changes, and the per-method units this tuner's own fitness
    /// calls have compiled so far. The memo is never shared: a search is
    /// exactly as fast as its own trajectory makes it.
    contexts: Vec<(Prepared, UnitMemo)>,
    /// Per-benchmark measurement under the Jikes default heuristic — the
    /// normalization constants of the fitness function and the balance
    /// factors. Shared with every other consumer of the same cell through
    /// the process-wide [`crate::defaults`] cache.
    defaults: Vec<Arc<Measurement>>,
    /// The cell's store fingerprint, computed on first use (only store
    /// traffic needs it).
    fingerprint: std::sync::OnceLock<stored::Fingerprint>,
}

impl Tuner {
    /// Creates a tuner over a training suite (the paper trains on
    /// SPECjvm98: pass [`workloads::specjvm98()`]).
    ///
    /// Prepares one measurement context per benchmark. The
    /// default-heuristic measurements are fetched through the
    /// process-wide [`crate::defaults`] cache (a miss is measured through
    /// that context), so constructing many tuners over the same suite (or
    /// evaluating the suite afterwards) measures the defaults only once.
    ///
    /// # Panics
    /// Panics if the suite is empty.
    #[must_use]
    pub fn new(task: TuningTask, training: Vec<Benchmark>, adapt_cfg: AdaptConfig) -> Self {
        assert!(!training.is_empty(), "training suite must not be empty");
        let mut contexts = Vec::with_capacity(training.len());
        let mut defaults = Vec::with_capacity(training.len());
        for b in &training {
            let ctx = Prepared::new(&b.program, task.scenario, &task.arch, &adapt_cfg);
            defaults.push(default_measurement_in(
                b,
                task.scenario,
                &task.arch,
                &adapt_cfg,
                Some(&ctx),
            ));
            let memo = ctx.new_memo();
            contexts.push((ctx, memo));
        }
        Self {
            task,
            training,
            contexts,
            defaults,
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// The cell's fingerprint for the fitness store: exact identity
    /// plus the workload-shape features warm-start transfer ranks by.
    /// Computed once per tuner, on first use.
    #[must_use]
    pub fn fingerprint(&self) -> &stored::Fingerprint {
        self.fingerprint
            .get_or_init(|| crate::fingerprint::cell_fingerprint(&self.task, &self.training))
    }

    /// The task being tuned.
    #[must_use]
    pub fn task(&self) -> &TuningTask {
        &self.task
    }

    /// The default-heuristic measurements of the training suite (parallel
    /// to the suite order).
    #[must_use]
    pub fn defaults(&self) -> &[Arc<Measurement>] {
        &self.defaults
    }

    /// How many per-method units this tuner's fitness calls found already
    /// compiled, had to compile, and dropped, summed over the suite.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        let mut total = MemoStats::default();
        for (_, memo) in &self.contexts {
            let s = memo.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Fitness of a parameter vector: geometric mean over the training
    /// suite of `goal_metric(params) / goal_metric(default)` (§3.1,
    /// normalized). Lower is better; the default heuristic scores exactly
    /// 1.
    #[must_use]
    pub fn fitness(&self, params: &InlineParams) -> f64 {
        let mut ratios = Vec::with_capacity(self.training.len());
        for ((b, (ctx, memo)), default) in
            self.training.iter().zip(&self.contexts).zip(&self.defaults)
        {
            let m = ctx.measure_memo(&b.program, params, memo);
            let num = self.task.goal.metric(&m, default);
            let den = self.task.goal.metric(default, default);
            if den <= 0.0 {
                return f64::INFINITY;
            }
            ratios.push(num / den);
        }
        geometric_mean(&ratios)
    }

    /// The fitness function as an evaluation backend over `threads`
    /// local threads — what any `search` strategy over
    /// [`TuningTask::ranges`] is driven with.
    #[must_use]
    pub fn evaluator(&self, threads: usize) -> LocalEvaluator<impl Fn(&[i64]) -> f64 + Sync + '_> {
        LocalEvaluator::new(
            |genes: &[i64]| self.fitness(&InlineParams::from_genes(genes)),
            threads,
        )
    }

    /// Runs the genetic algorithm (§3.1) to completion and returns the
    /// tuned heuristic: the `"ga"` strategy driven by [`search::drive`]
    /// on local threads, the same loop the daemon runs round by round.
    ///
    /// # Panics
    /// Panics on a zero-generation config (there is no best genome to
    /// report).
    #[must_use]
    pub fn tune(&self, ga_config: GaConfig) -> TuneOutcome {
        let backend = self.evaluator(ga_config.threads);
        let mut strategy = search::Ga::new(self.task.ranges(), ga_config);
        search::drive(&mut strategy, &backend);
        let (genome, fitness) = search::finish(&strategy).expect("no generation completed");
        TuneOutcome {
            task: self.task.clone(),
            params: InlineParams::from_genes(&genome),
            fitness,
            ga: strategy.state().result(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark_by_name;

    fn small_training() -> Vec<Benchmark> {
        vec![
            benchmark_by_name("db").unwrap(),
            benchmark_by_name("jess").unwrap(),
        ]
    }

    fn task() -> TuningTask {
        TuningTask {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: ArchModel::pentium4(),
        }
    }

    #[test]
    fn default_params_score_one() {
        let t = Tuner::new(task(), small_training(), AdaptConfig::default());
        let f = t.fitness(&InlineParams::jikes_default());
        assert!((f - 1.0).abs() < 1e-9, "fitness {f}");
    }

    #[test]
    fn fitness_is_the_one_shot_formula_bit_for_bit() {
        // What `fitness` computed before it measured through prepared
        // contexts and a unit memo: a one-shot `jit::measure` per
        // benchmark, the goal-metric ratio, the geometric mean.
        let training = vec![
            benchmark_by_name("compress").unwrap(),
            benchmark_by_name("db").unwrap(),
        ];
        let cfg = AdaptConfig::default();
        for task in paper_tasks() {
            let t = Tuner::new(task.clone(), training.clone(), cfg);
            let ranges = task.ranges();
            let mut rng = simrng::child_rng(16, &task.name);
            for _ in 0..16 {
                let genes: Vec<i64> = (0..ranges.len())
                    .map(|i| {
                        let (lo, hi) = ranges.gene(i);
                        rng.range_i64(lo, hi)
                    })
                    .collect();
                let params = InlineParams::from_genes(&genes);
                let ratios: Vec<f64> = training
                    .iter()
                    .zip(t.defaults())
                    .map(|(b, default)| {
                        let m = jit::measure(&b.program, task.scenario, &task.arch, &params, &cfg);
                        task.goal.metric(&m, default) / task.goal.metric(default, default)
                    })
                    .collect();
                let want = geometric_mean(&ratios);
                assert_eq!(
                    t.fitness(&params).to_bits(),
                    want.to_bits(),
                    "{} {params}",
                    task.name
                );
            }
        }
    }

    #[test]
    fn paper_tasks_cover_table4() {
        let tasks = paper_tasks();
        assert_eq!(tasks.len(), 5);
        assert_eq!(tasks[0].name, "Adapt");
        assert_eq!(tasks[2].goal, Goal::Total);
        assert_eq!(tasks[3].arch.name, "ppc-g4");
    }

    #[test]
    fn opt_tasks_pin_hot_gene() {
        let t = task();
        let r = t.ranges();
        assert_eq!(r.gene(4), (135, 135));
    }

    #[test]
    fn short_tune_beats_or_matches_default() {
        let t = Tuner::new(task(), small_training(), AdaptConfig::default());
        let outcome = t.tune(GaConfig {
            pop_size: 10,
            generations: 8,
            threads: 1,
            stagnation_limit: None,
            seed: 42,
            ..GaConfig::default()
        });
        // The default genome may not be in the random population, but with
        // 80 evaluations the GA should find something at least as good.
        assert!(outcome.fitness <= 1.05, "fitness {}", outcome.fitness);
        assert!(t.task().ranges().contains(&outcome.params.to_genes()));
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_tune() {
        let t = Tuner::new(task(), small_training(), AdaptConfig::default());
        let cfg = GaConfig {
            pop_size: 8,
            generations: 8,
            threads: 1,
            stagnation_limit: None,
            seed: 1234,
            ..GaConfig::default()
        };
        let uninterrupted = t.tune(cfg.clone());

        // Run three generations, snapshot (as the daemon checkpoints),
        // "restart" from the snapshot and run to completion.
        let backend = t.evaluator(1);
        let mut strategy = search::build("ga", t.task().ranges(), cfg).unwrap();
        for _ in 0..3 {
            assert!(!search::round(strategy.as_mut(), &backend, |_| {}));
        }
        let mut resumed = search::restore(strategy.snapshot()).expect("valid snapshot");
        search::drive(resumed.as_mut(), &backend);
        let (genome, fitness) = search::finish(resumed.as_ref()).unwrap();
        assert_eq!(InlineParams::from_genes(&genome), uninterrupted.params);
        assert_eq!(fitness.to_bits(), uninterrupted.fitness.to_bits());
        assert_eq!(resumed.evaluations(), uninterrupted.ga.evaluations);
        let search::StrategySnapshot::Ga(snap) = resumed.snapshot() else {
            panic!("ga snapshots as Ga");
        };
        assert_eq!(snap.history, uninterrupted.ga.history);
    }

    #[test]
    fn fitness_distinguishes_heuristics() {
        let t = Tuner::new(task(), small_training(), AdaptConfig::default());
        let disabled = t.fitness(&InlineParams::disabled());
        let default = t.fitness(&InlineParams::jikes_default());
        assert_ne!(disabled, default);
    }

    #[test]
    fn race_strategy_runs_on_the_real_fitness() {
        let t = Tuner::new(
            task(),
            vec![benchmark_by_name("db").unwrap()],
            AdaptConfig::default(),
        );
        let cfg = GaConfig {
            pop_size: 6,
            generations: 4,
            threads: 1,
            stagnation_limit: None,
            seed: 5,
            ..GaConfig::default()
        };
        let mut strategy = search::build("race:random+grid", t.task().ranges(), cfg).unwrap();
        search::drive(strategy.as_mut(), &t.evaluator(1));
        let (genome, fitness) = search::finish(strategy.as_ref()).expect("searched");
        assert!(t.task().ranges().contains(&genome));
        assert!(fitness.is_finite());
        let standings = strategy.standings();
        assert_eq!(standings.len(), 2);
        assert!(standings.iter().all(|s| s.best_fitness.is_some()));
    }
}
