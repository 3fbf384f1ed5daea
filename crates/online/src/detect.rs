//! Windowed drift detection over the incumbent genome's fitness.
//!
//! The detector watches the incumbent's probe fitness (lower is better)
//! against a baseline set when the incumbent was installed. It holds a
//! rolling window of the last `window` probes and triggers when the
//! *median* of that window regresses more than `threshold_pct` percent
//! over the baseline. Using the median (not the latest probe) makes a
//! single noisy probe harmless while guaranteeing a sustained step is
//! caught within `window` probes — the two properties
//! `tests/prop_detect.rs` pins down.
//!
//! The detector is plain data: [`DriftDetector::snapshot`] /
//! [`DriftDetector::restore`] round-trip its entire state bit-exactly,
//! so an online job checkpointed at an epoch boundary resumes with the
//! same trigger decisions it would have made uninterrupted.

/// Detector tuning knobs (part of the online job spec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Rolling probe window (≥ 1). A sustained regression triggers
    /// within this many probes; anything shorter can be absorbed.
    pub window: usize,
    /// Relative regression (percent over baseline) that counts as
    /// drift. `INFINITY` disables the detector (frozen incumbent).
    pub threshold_pct: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            window: 3,
            threshold_pct: 5.0,
        }
    }
}

/// Plain-data detector state for checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSnapshot {
    /// Baseline fitness (the incumbent's score when installed).
    pub baseline: f64,
    /// The rolling probe window, oldest first (≤ `window` entries).
    pub recent: Vec<f64>,
}

/// Windowed median-regression drift detector.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DetectorConfig,
    baseline: f64,
    recent: Vec<f64>,
}

impl DriftDetector {
    /// A detector with `baseline` as the incumbent's reference fitness.
    #[must_use]
    pub fn new(cfg: DetectorConfig, baseline: f64) -> Self {
        Self {
            cfg,
            baseline,
            recent: Vec::new(),
        }
    }

    /// Re-baselines after a retune: the new incumbent's fitness becomes
    /// the reference and the probe window is cleared.
    pub fn reset(&mut self, baseline: f64) {
        self.baseline = baseline;
        self.recent.clear();
    }

    /// Feeds one probe. Returns `true` when the window median has
    /// regressed more than the threshold over the baseline — time to
    /// retune.
    pub fn observe(&mut self, probe: f64) -> bool {
        self.recent.push(probe);
        let w = self.cfg.window.max(1);
        if self.recent.len() > w {
            self.recent.drain(..self.recent.len() - w);
        }
        self.regression_pct() > self.cfg.threshold_pct
    }

    /// Current regression of the window median over the baseline, in
    /// percent (0 when the window is empty or the median is at or below
    /// baseline; fitness is minimized, so bigger probe = worse).
    #[must_use]
    pub fn regression_pct(&self) -> f64 {
        if self.recent.is_empty() || self.baseline <= 0.0 {
            return 0.0;
        }
        let m = median(&self.recent);
        ((m / self.baseline) - 1.0).max(0.0) * 100.0
    }

    /// The baseline fitness currently in force.
    #[must_use]
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Plain-data state; feed to [`DriftDetector::restore`].
    #[must_use]
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            baseline: self.baseline,
            recent: self.recent.clone(),
        }
    }

    /// Rebuilds a detector from a snapshot, bit-identically.
    ///
    /// # Errors
    /// Snapshot window longer than the configured window.
    pub fn restore(cfg: DetectorConfig, snap: DetectorSnapshot) -> Result<Self, String> {
        if snap.recent.len() > cfg.window.max(1) {
            return Err(format!(
                "detector snapshot has {} probes but the window is {}",
                snap.recent.len(),
                cfg.window
            ));
        }
        Ok(Self {
            cfg,
            baseline: snap.baseline,
            recent: snap.recent,
        })
    }
}

/// Median of a non-empty slice (average of the middle two for even
/// lengths). Total order over the finite probes we feed it; non-finite
/// probes sort last so a poisoned window reads as regressed.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, pct: f64) -> DetectorConfig {
        DetectorConfig {
            window,
            threshold_pct: pct,
        }
    }

    #[test]
    fn stationary_stream_never_triggers() {
        let mut d = DriftDetector::new(cfg(3, 5.0), 1.0);
        for i in 0..100 {
            // ±2% noise, below the 5% threshold.
            let probe = 1.0 + 0.02 * f64::from(i % 3 - 1);
            assert!(!d.observe(probe), "false trigger at probe {i}");
        }
    }

    #[test]
    fn step_triggers_within_window() {
        let mut d = DriftDetector::new(cfg(3, 5.0), 1.0);
        for _ in 0..10 {
            assert!(!d.observe(1.0));
        }
        let mut fired_at = None;
        for k in 1..=3 {
            if d.observe(1.5) {
                fired_at = Some(k);
                break;
            }
        }
        let k = fired_at.expect("a 50% step must trigger within the window");
        assert!(k <= 3, "triggered after {k} probes");
    }

    #[test]
    fn single_spike_is_absorbed_by_median() {
        let mut d = DriftDetector::new(cfg(3, 5.0), 1.0);
        assert!(!d.observe(1.0));
        assert!(!d.observe(1.0));
        // One bad probe out of three: median still 1.0.
        assert!(!d.observe(5.0));
        assert!(!d.observe(1.0));
    }

    #[test]
    fn reset_rebaselines_and_clears_window() {
        let mut d = DriftDetector::new(cfg(2, 5.0), 1.0);
        assert!(d.observe(2.0) || d.observe(2.0));
        d.reset(2.0);
        assert!((d.baseline() - 2.0).abs() < 1e-12);
        assert!(
            !d.observe(2.0),
            "post-reset baseline must absorb the new level"
        );
        assert!((d.regression_pct()).abs() < 1e-12);
    }

    #[test]
    fn improvement_reads_as_zero_regression() {
        let mut d = DriftDetector::new(cfg(3, 5.0), 1.0);
        d.observe(0.5);
        assert!((d.regression_pct()).abs() < 1e-12);
    }

    #[test]
    fn infinite_threshold_never_triggers() {
        let mut d = DriftDetector::new(cfg(1, f64::INFINITY), 1.0);
        for _ in 0..10 {
            assert!(!d.observe(1e12));
        }
    }

    #[test]
    fn snapshot_restore_round_trips_decisions() {
        let mut d = DriftDetector::new(cfg(3, 10.0), 1.0);
        d.observe(1.0);
        d.observe(1.05);
        let snap = d.snapshot();
        let mut r = DriftDetector::restore(cfg(3, 10.0), snap.clone()).unwrap();
        assert_eq!(r.snapshot(), snap);
        for probe in [1.2, 1.2, 1.2, 0.9] {
            assert_eq!(d.observe(probe), r.observe(probe));
            assert_eq!(d.regression_pct().to_bits(), r.regression_pct().to_bits());
        }
    }

    #[test]
    fn restore_rejects_oversized_window() {
        let snap = DetectorSnapshot {
            baseline: 1.0,
            recent: vec![1.0; 5],
        };
        assert!(DriftDetector::restore(cfg(3, 5.0), snap).is_err());
    }
}
