//! Calibration stability: the per-machine kernel time the benchmark
//! divides by must itself be a repeatable measurement.
//!
//! The stability test is `#[ignore]`d so `cargo test` stays robust on
//! arbitrarily-loaded developer machines; CI runs it explicitly
//! (`scripts/ci.sh` stage "calibration stability") where the runner is
//! expected to be quiet enough to hold a 20% CV.

use obs::calib::calibrate;

/// Five independent calibration runs must each be low-noise (CV < 20%)
/// and agree with each other (medians within 30%).
#[test]
#[ignore = "timing-sensitive; run explicitly via scripts/ci.sh"]
fn calibration_stability() {
    let runs: Vec<_> = (0..5).map(|_| calibrate(10)).collect();
    for (i, c) in runs.iter().enumerate() {
        assert!(
            c.cv_percent < 20.0,
            "run {i}: CV {:.1}% >= 20% (median {:.3}ms) — machine too noisy to measure on",
            c.cv_percent,
            c.median_ms
        );
    }
    let lo = runs
        .iter()
        .map(|c| c.median_ms)
        .fold(f64::INFINITY, f64::min);
    let hi = runs.iter().map(|c| c.median_ms).fold(0.0, f64::max);
    assert!(
        hi <= lo * 1.3,
        "medians spread {:.3}ms..{:.3}ms exceeds 30% — calibration not stable",
        lo,
        hi
    );
}

/// The cheap always-on smoke check: a calibration is positive, finite
/// and reports the iterations it was asked for.
#[test]
fn calibration_smoke() {
    let c = calibrate(10);
    assert!(c.median_ms > 0.0 && c.median_ms.is_finite());
    assert_eq!(c.iteration_count, 10);
    assert!(c.cv_percent >= 0.0 && c.cv_percent.is_finite());
}
