//! Per-parameter sensitivity sweeps — the generalization of the paper's
//! Figure 2 (which sweeps only `MAX_INLINE_DEPTH`) to all five
//! parameters.
//!
//! For each parameter, every other parameter is held at the Jikes default
//! while the swept one walks a log-ish grid over its Table 1 range; the
//! output is total (and running) time per benchmark. This is the
//! "parameter sensitivity" evidence of §2, produced for every knob.

use inliner::{InlineParams, ParamRanges, PARAM_NAMES};
use jit::{ArchModel, Prepared, Scenario};

use crate::table::{ratio, Table};
use crate::Context;

/// Grid points for one parameter: range endpoints plus a geometric ladder.
#[must_use]
pub fn grid(lo: i64, hi: i64, points: usize) -> Vec<i64> {
    assert!(lo >= 0 && hi >= lo && points >= 2);
    let mut out = vec![lo];
    let (flo, fhi) = (lo.max(1) as f64, hi as f64);
    for k in 1..points - 1 {
        let t = k as f64 / (points - 1) as f64;
        let v = (flo * (fhi / flo).powf(t)).round() as i64;
        out.push(v.clamp(lo, hi));
    }
    out.push(hi);
    out.dedup();
    out
}

/// One parameter's sweep on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Parameter index (into [`PARAM_NAMES`]).
    pub param: usize,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// `(value, running_ratio, total_ratio)` relative to the default
    /// vector.
    pub points: Vec<(i64, f64, f64)>,
}

impl Sweep {
    /// The swept value minimizing total time.
    #[must_use]
    pub fn best_total(&self) -> i64 {
        self.points
            .iter()
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map_or(0, |p| p.0)
    }
}

/// Sweeps one parameter over a benchmark under a scenario.
#[must_use]
pub fn sweep_param(
    ctx: &Context,
    benchmark: &str,
    param: usize,
    scenario: Scenario,
    points: usize,
) -> Option<Sweep> {
    let b = ctx
        .training
        .iter()
        .chain(&ctx.test)
        .find(|b| b.name() == benchmark)?;
    let arch = ArchModel::pentium4();
    let prepared = Prepared::new(&b.program, scenario, &arch, &ctx.adapt_cfg);
    let default = prepared.measure(&b.program, &InlineParams::jikes_default());
    let (lo, hi) = ParamRanges::paper().bounds[param];
    let pts = grid(lo, hi, points)
        .into_iter()
        .map(|v| {
            let mut genes = InlineParams::jikes_default().to_genes();
            genes[param] = v;
            let m = prepared.measure(&b.program, &InlineParams::from_genes(&genes));
            (
                v,
                m.running_cycles / default.running_cycles,
                m.total_cycles / default.total_cycles,
            )
        })
        .collect();
    Some(Sweep {
        param,
        benchmark: b.name(),
        points: pts,
    })
}

/// Renders a set of sweeps of the same parameter (one row per value, one
/// column pair per benchmark).
#[must_use]
pub fn to_table(sweeps: &[Sweep]) -> Table {
    assert!(!sweeps.is_empty());
    let mut header = vec![PARAM_NAMES[sweeps[0].param].to_string()];
    for s in sweeps {
        header.push(format!("{} run", s.benchmark));
        header.push(format!("{} tot", s.benchmark));
    }
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&refs);
    for i in 0..sweeps[0].points.len() {
        let mut row = vec![sweeps[0].points[i].0.to_string()];
        for s in sweeps {
            row.push(ratio(s.points[i].1));
            row.push(ratio(s.points[i].2));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_endpoints_geometrically() {
        let g = grid(1, 4000, 8);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 4000);
        assert!(g.windows(2).all(|w| w[0] < w[1]), "{g:?}");
        // Geometric: early gaps small, late gaps big.
        assert!(g[1] - g[0] < g[g.len() - 1] - g[g.len() - 2]);
    }

    #[test]
    fn sweep_produces_ratios_relative_to_default() {
        let ctx = Context::new(
            std::env::temp_dir().join("sweep-test"),
            Context::default_ga(),
        );
        let s = sweep_param(&ctx, "db", 0, Scenario::Opt, 6).unwrap();
        assert_eq!(s.param, 0);
        assert!(s.points.len() >= 5);
        // The default value (23) is inside the range, so the best total
        // can't be much worse than 1.
        let best = s.points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
        assert!(best <= 1.01, "best total ratio {best}");
        assert!(to_table(&[s]).render().contains("CALLEE_MAX_SIZE"));
    }

    #[test]
    fn unknown_benchmark_returns_none() {
        let ctx = Context::new(
            std::env::temp_dir().join("sweep-test2"),
            Context::default_ga(),
        );
        assert!(sweep_param(&ctx, "nope", 0, Scenario::Opt, 4).is_none());
    }
}
