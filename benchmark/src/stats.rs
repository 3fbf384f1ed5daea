//! Summaries, the interleaved calibration, and the process counters
//! (`/proc/self`) the end-to-end metrics read.

use std::time::Instant;

/// A sorted copy of a non-empty, NaN-free sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// Median of a sample (mean of the middle pair for even sizes).
///
/// # Panics
/// Empty sample or a NaN in it — both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99/p95/p90 that still has at least ten samples
/// beyond it, with its value; `None` for samples too small to have one.
pub fn high_percentile(values: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| values.len() * (100 - *p as usize) >= 1000)
        .map(|p| (p, quantile(values, f64::from(p) / 100.0)))
}

/// A timing sample summarized the way every timing is reported: median,
/// the highest percentile with ≥10 samples beyond it, the count.
pub struct Summary {
    pub median: f64,
    pub high: Option<(u32, f64)>,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        high: high_percentile(values),
        n: values.len(),
    }
}

/// Times one call, in seconds.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `iters` back-to-back calls and returns the mean cost of one,
/// in seconds — for operations too short for a single clock read.
pub fn time_mean_s(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The `obs::calib` kernel, sampled between repetitions so the number
/// every timing is divided by was taken under the same machine weather
/// as the timing itself.
#[derive(Default)]
pub struct Calib {
    medians_ms: Vec<f64>,
}

/// Calibration noise beyond this marks the whole run unstable
/// (SNIPPETS.md §1: CV < 20%).
pub const MAX_CALIB_CV_PCT: f64 = 20.0;

impl Calib {
    /// One interleaved sample: three kernel iterations (each already the
    /// best of five inside `obs::calib`), ~30 ms.
    pub fn sample(&mut self) {
        self.medians_ms.push(obs::calib::calibrate(3).median_ms);
    }

    /// Median kernel time over all interleaved samples, milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.medians_ms)
    }

    /// Coefficient of variation across the interleaved samples, percent.
    pub fn cv_pct(&self) -> f64 {
        let n = self.medians_ms.len() as f64;
        let mean = self.medians_ms.iter().sum::<f64>() / n;
        let var = self
            .medians_ms
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / n;
        if mean > 0.0 {
            var.sqrt() / mean * 100.0
        } else {
            0.0
        }
    }

    pub fn sample_ms(&self) -> &[f64] {
        &self.medians_ms
    }

    pub fn samples(&self) -> usize {
        self.medians_ms.len()
    }

    pub fn stable(&self) -> bool {
        self.cv_pct() <= MAX_CALIB_CV_PCT
    }

    /// A duration in kernel multiples.
    pub fn multiples(&self, seconds: f64) -> f64 {
        seconds * 1e3 / self.kernel_ms()
    }
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`. Clock ticks are 1/100 s on every Linux this runs
/// on (`USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may itself
    // contain spaces: utime and stime are the 12th and 13th of those.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(high_percentile(&v), Some((90, 90.0)));
        assert_eq!(high_percentile(&v[..50]), None);
    }

    #[test]
    fn proc_counters_read() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
