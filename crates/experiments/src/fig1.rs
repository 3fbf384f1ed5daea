//! Figure 1: relative time reduction with inlining (paper §2).
//!
//! Runs every SPECjvm98 benchmark under `Opt` (Fig. 1a) and `Adapt`
//! (Fig. 1b) on the x86 model, with the Jikes default heuristic versus
//! inlining disabled. Values are *normalized to no inlining*: bars below 1
//! mean inlining helps.

use inliner::InlineParams;
use jit::{ArchModel, Prepared, Scenario};

use crate::table::{ratio, Table};
use crate::Context;

/// One sub-figure's data.
pub struct Fig1 {
    /// `"Opt"` or `"Adapt"`.
    pub scenario: Scenario,
    /// Per-benchmark `(name, running_ratio, total_ratio)`.
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl Fig1 {
    /// Mean running ratio across benchmarks.
    #[must_use]
    pub fn mean_running(&self) -> f64 {
        self.rows.iter().map(|r| r.1).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean total ratio across benchmarks.
    #[must_use]
    pub fn mean_total(&self) -> f64 {
        self.rows.iter().map(|r| r.2).sum::<f64>() / self.rows.len() as f64
    }

    /// Renders the sub-figure as a table (with the average row the paper
    /// plots as the rightmost bar group).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(&["benchmark", "running", "total"]);
        for (name, r, tt) in &self.rows {
            t.row(vec![(*name).to_string(), ratio(*r), ratio(*tt)]);
        }
        t.row(vec![
            "average".into(),
            ratio(self.mean_running()),
            ratio(self.mean_total()),
        ]);
        t
    }
}

/// Computes both sub-figures.
#[must_use]
pub fn run(ctx: &Context) -> Vec<Fig1> {
    let arch = ArchModel::pentium4();
    let on = InlineParams::jikes_default();
    let off = InlineParams::disabled();
    [Scenario::Opt, Scenario::Adapt]
        .into_iter()
        .map(|scenario| {
            let rows = ctx
                .training
                .iter()
                .map(|b| {
                    let prepared = Prepared::new(&b.program, scenario, &arch, &ctx.adapt_cfg);
                    let with = prepared.measure(&b.program, &on);
                    let without = prepared.measure(&b.program, &off);
                    (
                        b.name(),
                        with.running_cycles / without.running_cycles,
                        with.total_cycles / without.total_cycles,
                    )
                })
                .collect();
            Fig1 { scenario, rows }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Context {
        let mut ctx = Context::new(
            std::env::temp_dir().join("fig1-test"),
            Context::default_ga(),
        );
        ctx.training.truncate(2);
        ctx
    }

    #[test]
    fn inlining_improves_opt_running_time_on_training_suite() {
        let figs = run(&tiny_ctx());
        assert_eq!(figs.len(), 2);
        let opt = &figs[0];
        assert_eq!(opt.scenario, Scenario::Opt);
        assert!(
            opt.mean_running() < 1.0,
            "inlining must reduce Opt running time: {}",
            opt.mean_running()
        );
    }

    #[test]
    fn tables_have_average_row() {
        let figs = run(&tiny_ctx());
        for f in &figs {
            let t = f.to_table();
            assert_eq!(t.len(), f.rows.len() + 1);
            assert!(t.render().contains("average"));
        }
    }
}
