//! Machine-speed calibration for the benchmark ledger.
//!
//! Hard-coded wall-clock numbers rot: a time recorded on a laptop means
//! nothing on a loaded CI runner. Instead, `benchmark/` reports every
//! timing as a multiple of how long *this machine* takes to run a
//! fixed, dependency-free reference kernel ([`calibrate`]), with a
//! coefficient-of-variation so a noisy measurement is visible rather
//! than silently baked into the multiples.
//!
//! The reference kernel is a pure integer-mixing loop (the SplitMix64
//! finalizer, the same mix `simrng` seeds with): no allocation, no I/O,
//! no FP — so its runtime tracks the scalar core speed that dominates
//! the tuner's own hot paths (genome evaluation, store lookups,
//! dispatch bookkeeping).
//!
//! This module deliberately uses the real wall clock, not the
//! injectable [`crate::clock::Clock`]: calibration *is* a measurement
//! of the physical machine.

use std::time::Instant;

/// Inner rounds of one calibration iteration, sized so an iteration
/// lands in the low-milliseconds band on current hardware (long enough
/// to dwarf timer quantization, short enough that `5 × calibrate(10)`
/// stays under a second in the stability test).
const KERNEL_ROUNDS: u64 = 600_000;

/// One per-machine calibration measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBaseline {
    /// Median wall-clock time of one kernel iteration, milliseconds.
    pub median_ms: f64,
    /// Iterations measured.
    pub iteration_count: usize,
    /// Coefficient of variation across iterations, percent — the
    /// noise level of the measurement itself.
    pub cv_percent: f64,
}

/// The fixed reference kernel: `rounds` SplitMix64 finalizer steps.
/// Returns the running checksum so the optimizer cannot delete the
/// loop.
#[must_use]
pub fn kernel(rounds: u64) -> u64 {
    let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..rounds {
        let mut z = acc.wrapping_add(i).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Runs `iterations` timed kernel iterations and summarizes them.
///
/// # Panics
/// Zero iterations.
#[must_use]
pub fn calibrate(iterations: usize) -> CalibrationBaseline {
    assert!(iterations > 0, "calibrate() needs at least one iteration");
    // One warm-up iteration absorbs first-touch effects (frequency
    // ramp-up, instruction cache) that would otherwise inflate the CV.
    std::hint::black_box(kernel(KERNEL_ROUNDS));
    let mut times_ms = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        // Each iteration is the best of five timings: scheduler
        // preemption and host contention only ever *add* time, so the
        // minimum is the least-noisy estimate of the kernel's true
        // cost — this keeps the CV meaningful on shared CI runners.
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(kernel(KERNEL_ROUNDS));
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        times_ms.push(best);
    }
    let mut sorted = times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ms = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    let mean = times_ms.iter().sum::<f64>() / times_ms.len() as f64;
    let var = times_ms.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times_ms.len() as f64;
    let cv_percent = if mean > 0.0 {
        var.sqrt() / mean * 100.0
    } else {
        0.0
    };
    CalibrationBaseline {
        median_ms,
        iteration_count: iterations,
        cv_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_nonzero() {
        assert_eq!(kernel(1000), kernel(1000));
        assert_ne!(kernel(1000), kernel(1001));
        assert_ne!(kernel(1000), 0);
    }

    #[test]
    fn calibrate_produces_sane_baseline() {
        let c = calibrate(3);
        assert_eq!(c.iteration_count, 3);
        assert!(c.median_ms > 0.0 && c.median_ms < 10_000.0);
        assert!(c.cv_percent >= 0.0);
    }
}
