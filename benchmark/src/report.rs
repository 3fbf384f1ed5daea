//! What one run reports: named metrics with units, timing summaries in
//! seconds and kernel multiples, the check tally — as a table for
//! people, one JSON document for tools, and the one-line result the
//! benchmark contract asks for.

use served::json::Json;

use crate::stats::{Calib, Summary};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A timing reported in full: median, highest supported percentile,
/// sample count.
pub struct Timing {
    pub name: String,
    pub summary: Summary,
}

/// Passed and failed output checks. An operation is a job that must end
/// `done` with the reference's bits, a golden comparison, an evaluation
/// count, an interpreter comparison.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub timings: Vec<Timing>,
    pub tally: Tally,
    pub calib: Calib,
    /// Free-form facts about the run (repetitions, reference time, ...).
    pub info: Vec<(String, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed() == 0
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.tally.attempted.max(1) as i64)),
            ("failed", Json::Int(self.tally.failed() as i64)),
            ("metrics", self.metrics_json()),
        ])
        .to_text()
    }

    /// The full document `run` writes under `out/`.
    pub fn to_json(&self) -> Json {
        let timings = Json::Obj(
            self.timings
                .iter()
                .map(|t| {
                    let mut fields = vec![
                        ("median_s", Json::Num(t.summary.median)),
                        (
                            "median_kernels",
                            Json::Num(self.calib.multiples(t.summary.median)),
                        ),
                        ("n", Json::Int(t.summary.n as i64)),
                    ];
                    if let Some((p, v)) = t.summary.high {
                        fields.push(("high_pct", Json::Int(i64::from(p))));
                        fields.push(("high_s", Json::Num(v)));
                        fields.push(("high_kernels", Json::Num(self.calib.multiples(v))));
                    }
                    (t.name.clone(), Json::obj(fields))
                })
                .collect(),
        );
        let attempted = self.tally.attempted.max(1);
        Json::obj(vec![
            ("schema", Json::Int(1)),
            ("workload", Json::Str(self.workload.into())),
            ("seed", served::json::u64_to_json(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            ("traced", Json::Bool(self.traced)),
            ("nproc", Json::Int(crate::stats::nproc() as i64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(self.tally.failed() as i64)),
            (
                "fail_ratio",
                Json::Num(self.tally.failed() as f64 / attempted as f64),
            ),
            (
                "failures",
                Json::Arr(self.tally.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("unstable", Json::Bool(!self.calib.stable())),
            (
                "calibration",
                Json::obj(vec![
                    ("kernel_ms", Json::Num(self.calib.kernel_ms())),
                    ("cv_pct", Json::Num(self.calib.cv_pct())),
                    ("samples", Json::Int(self.calib.samples() as i64)),
                    (
                        "sample_ms",
                        Json::Arr(
                            self.calib
                                .sample_ms()
                                .iter()
                                .map(|&x| Json::Num(x))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("metrics", self.metrics_json()),
            ("timings", timings),
            ("info", Json::Obj(self.info.clone())),
        ])
    }

    /// The table for people; the result line follows it.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  {}  nproc {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            crate::stats::nproc()
        );
        println!(
            "calibration: kernel {:.3} ms, cv {:.1}% over {} samples{}",
            self.calib.kernel_ms(),
            self.calib.cv_pct(),
            self.calib.samples(),
            if self.calib.stable() {
                ""
            } else {
                "  ** UNSTABLE **"
            }
        );
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for t in &self.timings {
            let high = t.summary.high.map_or(String::new(), |(p, v)| {
                format!("  p{p} {v:.4} s ({:.0} k)", self.calib.multiples(v))
            });
            println!(
                "  timing {:<22} median {:.4} s ({:.0} kernels){high}  n={}",
                t.name,
                t.summary.median,
                self.calib.multiples(t.summary.median),
                t.summary.n
            );
        }
        println!(
            "checks: {} attempted, {} failed",
            self.tally.attempted,
            self.tally.failed()
        );
        for f in &self.tally.failures {
            println!("  FAILED: {f}");
        }
    }
}
