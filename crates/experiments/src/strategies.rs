//! Strategy study: how do the pluggable search strategies compare under
//! the paper's budget?
//!
//! The paper commits to a GA (§3) without comparing it against simpler
//! optimizers. This extension runs every [`search`] strategy — plus the
//! default racing portfolio — over the paper's five scenario/metric
//! cells with the same proposal budget, and reports the best fitness
//! reached against the distinct simulator evaluations actually spent.
//! Random search and the GA burn the whole budget; hill climbing and
//! the race's shared memo spend far fewer evaluations for comparable
//! fitness — the evidence behind EXPERIMENTS.md's strategy notes.

use tuner::{paper_tasks, Tuner, TuningTask};

use crate::table::Table;
use crate::Context;

/// The strategy specs compared by [`run`]: every single strategy plus
/// the default racing portfolio.
pub const SPECS: &[&str] = &["ga", "random", "hillclimb", "anneal", "grid", "race"];

/// One (task, strategy) cell's outcome.
#[derive(Debug, Clone)]
pub struct StrategyCell {
    /// Tuning task name, e.g. `"Opt:Tot"`.
    pub task: String,
    /// Strategy spec, e.g. `"hillclimb"` or `"race"`.
    pub strategy: String,
    /// Best fitness reached (1.0 = the default heuristic).
    pub fitness: f64,
    /// Distinct simulator evaluations spent.
    pub evaluations: usize,
    /// Proposals answered from the memo instead of the simulator.
    pub cache_hits: usize,
    /// Search rounds (GA generations, climber steps, race rounds).
    pub rounds: usize,
}

/// Runs every strategy in [`SPECS`] on one task under `ctx`'s GA budget.
///
/// # Panics
/// Panics if a spec in [`SPECS`] fails to validate — that would be a bug
/// in this module, not an input error.
#[must_use]
pub fn run_task(ctx: &Context, task: &TuningTask) -> Vec<StrategyCell> {
    let tuner = Tuner::new(task.clone(), ctx.training.clone(), ctx.adapt_cfg);
    let backend = tuner.evaluator(ctx.ga.threads);
    SPECS
        .iter()
        .map(|spec| {
            let mut s =
                search::build(spec, task.ranges(), ctx.ga.clone()).expect("SPECS are all valid");
            search::drive(s.as_mut(), &backend);
            let (_, fitness) = search::finish(s.as_ref()).expect("SPECS budgets are nonzero");
            StrategyCell {
                task: task.name.clone(),
                strategy: (*spec).to_string(),
                fitness,
                evaluations: s.evaluations(),
                cache_hits: s.cache_hits(),
                rounds: s.rounds(),
            }
        })
        .collect()
}

/// Runs the full study: all of [`SPECS`] on each of the paper's five
/// tuning tasks.
#[must_use]
pub fn run(ctx: &Context) -> Vec<StrategyCell> {
    paper_tasks()
        .iter()
        .flat_map(|task| run_task(ctx, task))
        .collect()
}

/// Renders the study.
#[must_use]
pub fn to_table(cells: &[StrategyCell]) -> Table {
    let mut t = Table::new(&[
        "task",
        "strategy",
        "fitness",
        "evaluations",
        "cache_hits",
        "rounds",
    ]);
    for c in cells {
        t.row(vec![
            c.task.clone(),
            c.strategy.clone(),
            format!("{:.4}", c.fitness),
            c.evaluations.to_string(),
            c.cache_hits.to_string(),
            c.rounds.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::GaConfig;
    use jit::{ArchModel, Scenario};
    use tuner::Goal;

    fn tiny_ctx() -> Context {
        let mut ctx = Context::new(
            std::env::temp_dir().join("strategies-test"),
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

    fn task() -> TuningTask {
        TuningTask {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: ArchModel::pentium4(),
        }
    }

    #[test]
    fn every_strategy_produces_a_finite_cell() {
        let cells = run_task(&tiny_ctx(), &task());
        assert_eq!(cells.len(), SPECS.len());
        for c in &cells {
            assert!(
                c.fitness.is_finite(),
                "{}: fitness {}",
                c.strategy,
                c.fitness
            );
            assert!(c.evaluations > 0, "{} never evaluated", c.strategy);
            assert!(c.rounds > 0, "{} never stepped", c.strategy);
        }
        // The strategies genuinely differ: they must not all spend the
        // same number of evaluations (hillclimb stops early, the race's
        // shared memo dedups).
        let evals: Vec<usize> = cells.iter().map(|c| c.evaluations).collect();
        assert!(
            evals.iter().any(|e| *e != evals[0]),
            "all strategies spent identical budgets: {evals:?}"
        );
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let cells = run_task(&tiny_ctx(), &task());
        let t = to_table(&cells);
        assert_eq!(t.len(), cells.len());
        let rendered = t.render();
        for spec in SPECS {
            assert!(rendered.contains(spec), "missing {spec} row");
        }
    }
}
