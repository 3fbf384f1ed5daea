//! Problems study: the problem-generic tuning stack on the two new
//! optimization domains.
//!
//! The paper tunes one thing — the inliner's five thresholds. The
//! `problems` crate generalizes the stack to any [`problems::Problem`],
//! and this study is the evidence that the generalization earns its
//! keep: the same strategies, budget and evaluator drive compiler-flag
//! selection (`flags`, a mixed categorical/boolean space) and
//! data-structure selection (`dss`, a purely categorical space) with no
//! domain-specific search code at all. Fitness is normalized so 1.0 is
//! each domain's default configuration; anything below 1.0 is
//! improvement the search found.

use std::sync::Arc;

use crate::table::Table;
use crate::{figs, Context};

/// The new domains the study tunes (inlining already has the whole rest
/// of the harness; see `strategies` for its strategy comparison).
pub const DOMAINS: &[&str] = &["flags", "dss"];

/// The strategy specs compared per domain.
pub const SPECS: &[&str] = &["ga", "hillclimb", "anneal", "race"];

/// One (problem, strategy) cell's outcome.
#[derive(Debug, Clone)]
pub struct ProblemCell {
    /// Problem id, e.g. `"flags"`.
    pub problem: String,
    /// Strategy spec, e.g. `"anneal"`.
    pub strategy: String,
    /// Best fitness reached (1.0 = the domain's default configuration).
    pub fitness: f64,
    /// Distinct evaluations spent.
    pub evaluations: usize,
    /// Proposals answered from the memo instead of evaluation.
    pub cache_hits: usize,
    /// Search rounds.
    pub rounds: usize,
    /// The winning configuration, decoded by the problem itself.
    pub best: String,
}

/// Runs every strategy in [`SPECS`] over one problem domain.
///
/// # Panics
/// Panics if `domain` or a spec in [`SPECS`] fails to validate — both
/// are compiled-in constants, so that would be a bug here, not an input
/// error.
#[must_use]
pub fn run_domain(ctx: &Context, domain: &str) -> Vec<ProblemCell> {
    let task = figs::task_for_figure(7).expect("Opt:Tot task exists");
    let problem: Arc<dyn problems::Problem> =
        problems::build(domain, &task, &ctx.training, ctx.adapt_cfg)
            .expect("DOMAINS are all known problems");
    let backend = ga::LocalEvaluator::new(
        |genes: &[i64]| problem.fitness(genes),
        ctx.ga.threads.max(1),
    );
    SPECS
        .iter()
        .map(|spec| {
            let mut s = search::build(spec, problem.space().clone(), ctx.ga.clone())
                .expect("SPECS are all valid");
            search::drive(s.as_mut(), &backend);
            let (genes, fitness) = search::finish(s.as_ref()).expect("SPECS budgets are nonzero");
            ProblemCell {
                problem: domain.to_string(),
                strategy: (*spec).to_string(),
                fitness,
                evaluations: s.evaluations(),
                cache_hits: s.cache_hits(),
                rounds: s.rounds(),
                best: problem.describe(&genes),
            }
        })
        .collect()
}

/// Runs the full study: all of [`SPECS`] on each of [`DOMAINS`].
#[must_use]
pub fn run(ctx: &Context) -> Vec<ProblemCell> {
    DOMAINS
        .iter()
        .flat_map(|domain| run_domain(ctx, domain))
        .collect()
}

/// Renders the study. The `best` column is the problem's own
/// [`problems::Problem::describe`] output (commas stripped so the CSV
/// stays one cell per column).
#[must_use]
pub fn to_table(cells: &[ProblemCell]) -> Table {
    let mut t = Table::new(&[
        "problem",
        "strategy",
        "fitness",
        "evaluations",
        "cache_hits",
        "rounds",
        "best",
    ]);
    for c in cells {
        t.row(vec![
            c.problem.clone(),
            c.strategy.clone(),
            format!("{:.4}", c.fitness),
            c.evaluations.to_string(),
            c.cache_hits.to_string(),
            c.rounds.to_string(),
            c.best.replace(',', ";"),
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
            std::env::temp_dir().join("problems-study-test"),
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
    fn both_domains_tune_under_every_strategy() {
        let cells = run(&tiny_ctx());
        assert_eq!(cells.len(), DOMAINS.len() * SPECS.len());
        for c in &cells {
            assert!(
                c.fitness.is_finite() && c.fitness > 0.0,
                "{}/{}: fitness {}",
                c.problem,
                c.strategy,
                c.fitness
            );
            assert!(
                c.evaluations > 0,
                "{}/{} never evaluated",
                c.problem,
                c.strategy
            );
            assert!(
                !c.best.is_empty(),
                "{}/{} has no decode",
                c.problem,
                c.strategy
            );
        }
        // Search must actually find improvement somewhere: the flags
        // default is deliberately not optimal for every suite, and dss
        // has genuine wins over all-vec on hash-heavy profiles.
        assert!(
            cells.iter().any(|c| c.fitness < 1.0),
            "no strategy beat any domain's default configuration: {cells:?}"
        );
    }

    #[test]
    fn table_has_one_row_per_cell_and_sane_csv() {
        let cells = run_domain(&tiny_ctx(), "dss");
        let t = to_table(&cells);
        assert_eq!(t.len(), cells.len());
        let rendered = t.render();
        for spec in SPECS {
            assert!(rendered.contains(spec), "missing {spec} row");
        }
    }
}
