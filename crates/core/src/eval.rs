//! The §5 evaluation methodology: measuring a tuned heuristic against the
//! default on a suite.
//!
//! Produces exactly what the paper's Figures 5–9 plot — per-benchmark
//! *running* and *total* time normalized to the Jikes default heuristic
//! (bars below 1 = improvement) — plus the suite averages Table 5 reports.

use inliner::InlineParams;
use jit::{AdaptConfig, ArchModel, Measurement, Prepared, Scenario};
use workloads::Benchmark;

/// One benchmark's result: the height of its two bars in Figures 5–9.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEval {
    /// Benchmark name.
    pub name: &'static str,
    /// Running time relative to the default heuristic (< 1 = faster).
    pub running_ratio: f64,
    /// Total time relative to the default heuristic.
    pub total_ratio: f64,
    /// Absolute measurement under the evaluated parameters.
    pub tuned: Measurement,
    /// Absolute measurement under the default heuristic.
    pub default: Measurement,
}

/// A whole suite's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEval {
    /// Per-benchmark rows.
    pub benches: Vec<BenchEval>,
}

impl SuiteEval {
    /// Arithmetic mean of the running-time ratios (the paper's "average
    /// reduction in running time" is `1 −` this).
    #[must_use]
    pub fn mean_running_ratio(&self) -> f64 {
        mean(self.benches.iter().map(|b| b.running_ratio))
    }

    /// Arithmetic mean of the total-time ratios.
    #[must_use]
    pub fn mean_total_ratio(&self) -> f64 {
        mean(self.benches.iter().map(|b| b.total_ratio))
    }

    /// Average percentage reduction in running time (positive =
    /// improvement), as quoted in the paper's Table 5.
    #[must_use]
    pub fn running_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.mean_running_ratio())
    }

    /// Average percentage reduction in total time.
    #[must_use]
    pub fn total_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.mean_total_ratio())
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Measures `params` against the default heuristic on every benchmark of a
/// suite. Each benchmark is prepared once for both of its measurements.
#[must_use]
pub fn evaluate_suite(
    suite: &[Benchmark],
    scenario: Scenario,
    arch: &ArchModel,
    params: &InlineParams,
    adapt_cfg: &AdaptConfig,
) -> SuiteEval {
    let benches = suite
        .iter()
        .map(|b| {
            let ctx = Prepared::new(&b.program, scenario, arch, adapt_cfg);
            let tuned = ctx.measure(&b.program, params);
            let default = ctx.measure(&b.program, &InlineParams::jikes_default());
            BenchEval {
                name: b.name(),
                running_ratio: tuned.running_cycles / default.running_cycles,
                total_ratio: tuned.total_cycles / default.total_cycles,
                tuned,
                default,
            }
        })
        .collect();
    SuiteEval { benches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark_by_name;

    fn suite() -> Vec<Benchmark> {
        vec![
            benchmark_by_name("db").unwrap(),
            benchmark_by_name("compress").unwrap(),
        ]
    }

    #[test]
    fn default_against_itself_is_all_ones() {
        let e = evaluate_suite(
            &suite(),
            Scenario::Opt,
            &ArchModel::pentium4(),
            &InlineParams::jikes_default(),
            &AdaptConfig::default(),
        );
        for b in &e.benches {
            assert!((b.running_ratio - 1.0).abs() < 1e-12, "{}", b.name);
            assert!((b.total_ratio - 1.0).abs() < 1e-12, "{}", b.name);
        }
        assert!((e.mean_running_ratio() - 1.0).abs() < 1e-12);
        assert!(e.running_reduction_pct().abs() < 1e-9);
    }

    #[test]
    fn disabling_inlining_slows_running_time() {
        let e = evaluate_suite(
            &suite(),
            Scenario::Opt,
            &ArchModel::pentium4(),
            &InlineParams::disabled(),
            &AdaptConfig::default(),
        );
        assert!(e.mean_running_ratio() > 1.0, "{}", e.mean_running_ratio());
        assert!(e.total_reduction_pct() < 50.0);
    }

    #[test]
    fn rows_carry_absolute_measurements() {
        let e = evaluate_suite(
            &suite(),
            Scenario::Adapt,
            &ArchModel::powerpc_g4(),
            &InlineParams::jikes_default(),
            &AdaptConfig::default(),
        );
        for b in &e.benches {
            assert!(b.tuned.total_cycles > 0.0);
            assert!(b.default.running_cycles > 0.0);
        }
    }
}
