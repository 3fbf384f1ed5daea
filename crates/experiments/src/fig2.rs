//! Figure 2: execution time versus `MAX_INLINE_DEPTH` for `compress` and
//! `jess` under both compilation scenarios (paper §2, "Parameter
//! Sensitivity").
//!
//! The paper's point — reproduced here — is that the best depth is
//! program- *and* scenario-dependent, and the Jikes default (5) is not the
//! optimum for either program.

use inliner::InlineParams;
use jit::{ArchModel, Prepared, Scenario};

use crate::table::{secs, Table};
use crate::Context;

/// Depth range swept (the paper varies 0..=10).
pub const DEPTHS: std::ops::RangeInclusive<u32> = 0..=10;

/// One benchmark's sweep.
pub struct Fig2 {
    /// `compress` or `jess`.
    pub benchmark: &'static str,
    /// `(scenario, per-depth total seconds)` series.
    pub series: Vec<(Scenario, Vec<f64>)>,
}

impl Fig2 {
    /// The depth with minimum total time for a scenario.
    #[must_use]
    pub fn best_depth(&self, scenario: Scenario) -> Option<u32> {
        let (_, ys) = self.series.iter().find(|(s, _)| *s == scenario)?;
        let (i, _) = ys.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1))?;
        Some(i as u32)
    }

    /// Renders the sweep as a table: one row per depth.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut header = vec!["depth".to_string()];
        for (s, _) in &self.series {
            header.push(format!("{s} total(s)"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        for d in DEPTHS {
            let mut row = vec![d.to_string()];
            for (_, ys) in &self.series {
                row.push(secs(ys[d as usize]));
            }
            t.row(row);
        }
        t
    }
}

/// Runs the sweep for the paper's two benchmarks on x86.
#[must_use]
pub fn run(ctx: &Context) -> Vec<Fig2> {
    run_for(ctx, &["compress", "jess"])
}

/// Runs the sweep for arbitrary benchmarks (used by the ablation bench).
#[must_use]
pub fn run_for(ctx: &Context, names: &[&str]) -> Vec<Fig2> {
    let arch = ArchModel::pentium4();
    names
        .iter()
        .filter_map(|name| {
            let b = ctx
                .training
                .iter()
                .chain(&ctx.test)
                .find(|b| b.name() == *name)?;
            let series = [Scenario::Opt, Scenario::Adapt]
                .into_iter()
                .map(|scenario| {
                    let prepared = Prepared::new(&b.program, scenario, &arch, &ctx.adapt_cfg);
                    let ys = DEPTHS
                        .map(|depth| {
                            let params = InlineParams {
                                max_inline_depth: depth,
                                ..InlineParams::jikes_default()
                            };
                            prepared.measure(&b.program, &params).total_seconds(&arch)
                        })
                        .collect();
                    (scenario, ys)
                })
                .collect();
            Some(Fig2 {
                benchmark: b.name(),
                series,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_both_scenarios_and_all_depths() {
        let ctx = Context::new(
            std::env::temp_dir().join("fig2-test"),
            Context::default_ga(),
        );
        let figs = run_for(&ctx, &["jess"]);
        assert_eq!(figs.len(), 1);
        let f = &figs[0];
        assert_eq!(f.series.len(), 2);
        for (_, ys) in &f.series {
            assert_eq!(ys.len(), 11);
            assert!(ys.iter().all(|&y| y > 0.0));
        }
        assert!(f.best_depth(Scenario::Opt).is_some());
        let t = f.to_table();
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn depth_matters_for_jess_under_opt() {
        // The motivating claim: the sweep is not flat.
        let ctx = Context::new(
            std::env::temp_dir().join("fig2-test2"),
            Context::default_ga(),
        );
        let figs = run_for(&ctx, &["jess"]);
        let (_, ys) = &figs[0].series[0];
        let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ys.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.02, "sweep too flat: {min}..{max}");
    }

    #[test]
    fn unknown_benchmark_is_skipped() {
        let ctx = Context::new(
            std::env::temp_dir().join("fig2-test3"),
            Context::default_ga(),
        );
        assert!(run_for(&ctx, &["nope"]).is_empty());
    }
}
