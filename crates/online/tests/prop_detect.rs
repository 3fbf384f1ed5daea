//! Property tests for the drift detector: no false triggers on
//! stationary fitness streams, guaranteed trigger within one window of
//! a sustained step, and bit-exact snapshot/restore round-trips.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use online::{DetectorConfig, DriftDetector};
use simrng::{cases, vec_of, Rng};

fn arb_cfg(rng: &mut Rng) -> DetectorConfig {
    DetectorConfig {
        window: rng.range_usize(1, 8),
        threshold_pct: rng.f64_range(1.0, 50.0),
    }
}

fn arb_baseline(rng: &mut Rng) -> f64 {
    rng.f64_range(1e-3, 1e6)
}

/// A stream that stays strictly inside the threshold band around the
/// baseline never triggers, no matter its length or noise pattern.
#[test]
fn stationary_stream_never_triggers() {
    cases("stationary_stream_never_triggers", |rng| {
        let cfg = arb_cfg(rng);
        let baseline = arb_baseline(rng);
        let noise = vec_of(rng, 1, 119, |r| r.f64_range(-0.99, 0.99));
        let mut d = DriftDetector::new(cfg, baseline);
        for (i, n) in noise.iter().enumerate() {
            // Scale noise to strictly under the threshold.
            let probe = baseline * (1.0 + n * cfg.threshold_pct / 100.0);
            assert!(!d.observe(probe), "false trigger at probe {i}");
        }
    });
}

/// A sustained step strictly past the threshold triggers within
/// `window` probes of the step, regardless of the stationary prefix.
#[test]
fn step_triggers_within_window() {
    cases("step_triggers_within_window", |rng| {
        let cfg = arb_cfg(rng);
        let baseline = arb_baseline(rng);
        let mut d = DriftDetector::new(cfg, baseline);
        for _ in 0..rng.range_usize(0, 39) {
            assert!(!d.observe(baseline));
        }
        let overshoot = rng.f64_range(0.01, 2.0);
        let stepped = baseline * (1.0 + (1.0 + overshoot) * cfg.threshold_pct / 100.0);
        let fired = (1..=cfg.window).any(|_| d.observe(stepped));
        assert!(
            fired,
            "no trigger within {} probes of a {:.1}% step (threshold {:.1}%)",
            cfg.window,
            (stepped / baseline - 1.0) * 100.0,
            cfg.threshold_pct
        );
    });
}

/// Snapshot/restore round-trips the detector bit-exactly: the restored
/// twin makes identical decisions and reports identical regression on
/// any shared suffix.
#[test]
fn snapshot_restore_round_trips() {
    cases("snapshot_restore_round_trips", |rng| {
        let cfg = arb_cfg(rng);
        let baseline = arb_baseline(rng);
        let prefix = vec_of(rng, 0, 19, |r| r.f64_range(0.5, 2.0));
        let suffix = vec_of(rng, 1, 19, |r| r.f64_range(0.5, 2.0));
        let mut a = DriftDetector::new(cfg, baseline);
        for m in &prefix {
            let _ = a.observe(baseline * m);
        }
        let snap = a.snapshot();
        let mut b = DriftDetector::restore(cfg, snap.clone()).unwrap();
        assert_eq!(b.snapshot(), snap);
        for m in &suffix {
            let probe = baseline * m;
            assert_eq!(a.observe(probe), b.observe(probe));
            assert_eq!(a.regression_pct().to_bits(), b.regression_pct().to_bits());
        }
    });
}
