//! Warm-start transfer study: does remembering other cells' evaluations
//! make tuning a new cell cheaper?
//!
//! The paper tunes each of its five scenario/metric cells from scratch
//! (§3.1: hundreds of benchmark runs per cell). The `stored` +
//! `warmstart` stack claims those runs transfer: a new cell seeds its
//! initial population with the best genomes of fingerprint-nearest
//! prior cells. This experiment measures the claim with
//! budget-matched, leave-one-out runs on the paper's five cells:
//!
//! 1. **Cold**: plain GA per cell, logging every distinct simulator
//!    evaluation; record the best fitness reached (the *target*) and
//!    how many evaluations it took to first reach it.
//! 2. **Store**: for each cell, build a fitness store from the *other
//!    four* cells' complete evaluation logs — the target cell
//!    contributes nothing.
//! 3. **Warm**: the `warmstart` strategy over the same budget and GA
//!    seed, seeded from the store; count evaluations until the cold
//!    target is matched or beaten.
//!
//! A cell is a *win* when warm start needs strictly fewer evaluations
//! than cold start. The win count is reported, not gated:
//! `results/warmstart.csv` has 2 of 5 at the committed seed.

use std::sync::Mutex;

use ga::{Evaluator, Genome};
use inliner::InlineParams;
use search::Strategy;
use stored::{Record, Store};
use tuner::{cell_fingerprint, paper_tasks, Tuner};

use crate::table::Table;
use crate::Context;

/// One cell's cold-vs-warm outcome.
#[derive(Debug, Clone)]
pub struct WarmstartCell {
    /// Tuning task name, e.g. `"Opt:Tot"`.
    pub task: String,
    /// Cold start's best fitness — the bar warm start must reach.
    pub target: f64,
    /// Evaluations the cold run spent to first reach `target`.
    pub cold_evals: usize,
    /// Evaluations the cold run spent in total.
    pub cold_total: usize,
    /// Warm seeds planted from the store (0 = nothing transferred).
    pub seeds: usize,
    /// Evaluations the warm run spent to reach `target`, or `None` if
    /// it never did within the budget.
    pub warm_evals: Option<usize>,
}

impl WarmstartCell {
    /// Whether warm start reached the cold target in strictly fewer
    /// evaluations.
    #[must_use]
    pub fn warm_won(&self) -> bool {
        self.warm_evals.is_some_and(|w| w < self.cold_evals)
    }
}

/// A completed search, with every simulator evaluation logged.
struct LoggedRun {
    /// Every `(genome, fitness)` the backend actually evaluated.
    log: Vec<(Vec<i64>, f64)>,
    /// Best fitness reached.
    best: f64,
    /// Evaluations spent when `best` was first reached.
    evals_to_best: usize,
    /// Evaluations spent in total.
    total_evals: usize,
}

/// The tuner's fitness, logging every genome it actually evaluates.
struct Logging<'a> {
    tuner: &'a Tuner,
    log: Mutex<Vec<(Vec<i64>, f64)>>,
}

impl Evaluator for Logging<'_> {
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        let scores: Vec<f64> = genomes
            .iter()
            .map(|g| self.tuner.fitness(&InlineParams::from_genes(g)))
            .collect();
        self.log
            .lock()
            .expect("log poisoned")
            .extend(genomes.iter().cloned().zip(scores.iter().copied()));
        scores
    }
}

/// Runs a strategy on a logging backend. `stop_at` ends the run early
/// once the best fitness reaches the bar (warm runs); `None` runs the
/// budget out (cold runs).
fn logged_run(tuner: &Tuner, strategy: &mut dyn Strategy, stop_at: Option<f64>) -> LoggedRun {
    let backend = Logging {
        tuner,
        log: Mutex::new(Vec::new()),
    };
    let mut best = f64::INFINITY;
    let mut evals_to_best = 0;
    loop {
        let done = search::round(strategy, &backend, |_| {});
        if let Some((_, f)) = strategy.best() {
            if f < best {
                best = f;
                evals_to_best = strategy.evaluations();
            }
        }
        if stop_at.is_some_and(|bar| best <= bar) || done {
            return LoggedRun {
                log: backend.log.into_inner().expect("log poisoned"),
                best,
                evals_to_best,
                total_evals: strategy.evaluations(),
            };
        }
    }
}

/// Runs the full leave-one-out study over the paper's five cells.
///
/// # Panics
/// Panics on scratch-store I/O failures — this is a harness, not a
/// service.
#[must_use]
pub fn run(ctx: &Context) -> Vec<WarmstartCell> {
    let tasks = paper_tasks();
    let tuners: Vec<Tuner> = tasks
        .iter()
        .map(|t| Tuner::new(t.clone(), ctx.training.clone(), ctx.adapt_cfg))
        .collect();

    // Phase 1: cold runs, one per cell, full logs kept.
    let colds: Vec<LoggedRun> = tuners
        .iter()
        .map(|tuner| {
            let mut s = search::build("ga", tuner.task().ranges(), ctx.ga.clone())
                .expect("ga is a known strategy");
            logged_run(tuner, s.as_mut(), None)
        })
        .collect();

    // Phases 2+3 per cell: store from the other cells, then warm run.
    let scratch = std::env::temp_dir().join(format!("warmstart-exp-{}", std::process::id()));
    let cells = tasks
        .iter()
        .zip(&tuners)
        .zip(&colds)
        .enumerate()
        .map(|(i, ((task, tuner), cold))| {
            let dir = scratch.join(i.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir).expect("scratch store opens");
            for (j, other) in colds.iter().enumerate() {
                if j == i {
                    continue; // leave-one-out: the target cell knows nothing
                }
                let fp = cell_fingerprint(&tasks[j], &ctx.training);
                for (genome, fitness) in &other.log {
                    store
                        .append(&Record {
                            fingerprint: fp.clone(),
                            genome: genome.clone(),
                            fitness: *fitness,
                        })
                        .expect("scratch store append");
                }
            }

            let mut warm = search::build("warmstart", tuner.task().ranges(), ctx.ga.clone())
                .expect("warmstart is a known strategy");
            let seeds = warm.seed_population(
                &store.warm_seeds(&cell_fingerprint(task, &ctx.training), ctx.ga.pop_size),
            );
            let run = logged_run(tuner, warm.as_mut(), Some(cold.best));
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);

            WarmstartCell {
                task: task.name.clone(),
                target: cold.best,
                cold_evals: cold.evals_to_best,
                cold_total: cold.total_evals,
                seeds,
                warm_evals: (run.best <= cold.best).then_some(run.evals_to_best),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    cells
}

/// How many cells warm start won.
#[must_use]
pub fn wins(cells: &[WarmstartCell]) -> usize {
    cells.iter().filter(|c| c.warm_won()).count()
}

/// Renders the study.
#[must_use]
pub fn to_table(cells: &[WarmstartCell]) -> Table {
    let mut t = Table::new(&[
        "task",
        "target",
        "cold_evals",
        "cold_total",
        "seeds",
        "warm_evals",
        "warm_won",
    ]);
    for c in cells {
        t.row(vec![
            c.task.clone(),
            format!("{:.4}", c.target),
            c.cold_evals.to_string(),
            c.cold_total.to_string(),
            c.seeds.to_string(),
            c.warm_evals.map_or_else(|| "-".into(), |w| w.to_string()),
            if c.warm_won() { "1" } else { "0" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::GaConfig;

    fn tiny_ctx() -> Context {
        let mut ctx = Context::new(
            std::env::temp_dir().join("warmstart-test"),
            GaConfig {
                pop_size: 6,
                generations: 4,
                seed: 7,
                threads: 1,
                stagnation_limit: None,
                ..GaConfig::default()
            },
        );
        ctx.training.truncate(1);
        ctx
    }

    #[test]
    fn study_produces_one_cell_per_task_with_transferred_seeds() {
        let cells = run(&tiny_ctx());
        assert_eq!(cells.len(), paper_tasks().len());
        for c in &cells {
            assert!(c.target.is_finite(), "{}: target {}", c.task, c.target);
            assert!(c.cold_evals > 0, "{}: cold run never improved", c.task);
            assert!(c.cold_evals <= c.cold_total);
            assert!(
                c.seeds > 0,
                "{}: nothing transferred from four sibling cells",
                c.task
            );
            if let Some(w) = c.warm_evals {
                assert!(w > 0);
            }
        }
    }

    #[test]
    fn table_has_one_row_per_cell_and_counts_wins() {
        let cells = run(&tiny_ctx());
        assert_eq!(to_table(&cells).len(), cells.len());
        assert!(wins(&cells) <= cells.len());
    }
}
