//! The §5 evaluation methodology: measuring a tuned heuristic against the
//! default on a suite.
//!
//! Produces exactly what the paper's Figures 5–9 plot — per-benchmark
//! *running* and *total* time normalized to the Jikes default heuristic
//! (bars below 1 = improvement) — plus the suite averages Table 5 reports.

use inliner::InlineParams;
use jit::{measure, AdaptConfig, ArchModel, Measurement, Prepared, Scenario};
use workloads::Benchmark;

use crate::defaults::default_measurement_in;

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
/// suite.
///
/// The default-heuristic measurements come from the process-wide
/// [`crate::defaults`] cache: evaluating many parameter vectors on the
/// same suite (or evaluating after a [`crate::Tuner`] already measured the
/// defaults) measures the default exactly once per benchmark. A benchmark
/// whose default is not cached yet is prepared once for both of its
/// measurements.
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
            let default = default_measurement_in(b, scenario, arch, adapt_cfg, Some(&ctx));
            bench_eval(b, ctx.measure(&b.program, params), &default)
        })
        .collect();
    SuiteEval { benches }
}

/// Like [`evaluate_suite`], but against caller-provided default
/// measurements (parallel to the suite order) — for callers that already
/// hold them, e.g. via `Tuner::defaults`.
///
/// # Panics
/// Panics if `defaults` is not parallel to `suite`.
#[must_use]
pub fn evaluate_suite_with_defaults(
    suite: &[Benchmark],
    defaults: &[Measurement],
    scenario: Scenario,
    arch: &ArchModel,
    params: &InlineParams,
    adapt_cfg: &AdaptConfig,
) -> SuiteEval {
    assert_eq!(
        suite.len(),
        defaults.len(),
        "defaults must be parallel to the suite"
    );
    let benches = suite
        .iter()
        .zip(defaults)
        .map(|(b, default)| {
            let tuned = measure(&b.program, scenario, arch, params, adapt_cfg);
            bench_eval(b, tuned, default)
        })
        .collect();
    SuiteEval { benches }
}

fn bench_eval(b: &Benchmark, tuned: Measurement, default: &Measurement) -> BenchEval {
    BenchEval {
        name: b.name(),
        running_ratio: tuned.running_cycles / default.running_cycles,
        total_ratio: tuned.total_cycles / default.total_cycles,
        tuned,
        default: default.clone(),
    }
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
