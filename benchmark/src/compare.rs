//! Sets of runs and what to make of two of them: `run --workload all`,
//! `compare`, `selfcheck`, and the `--record` trajectory.
//!
//! A *set* holds, per workload, the documents of `--runs` runs, each
//! made by a child process with its own `--seed`. `compare` applies the
//! bounds `BENCHMARK.json` fixes: a metric whose run-to-run spread
//! (interquartile range over the median, the driver's measure) exceeds
//! its bound is `unresolved`, never `unchanged`.

use std::path::Path;
use std::process::{Command, Stdio};

use served::json::{parse, u64_to_json, Json};

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, sorted};
use crate::Args;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `git rev-parse` of the checkout, or `unknown` outside one.
fn commit(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload `a.runs` times, each run a child process of this
/// executable (one process per run keeps `peak_rss_mb` honest), seeds
/// `a.seed`, `a.seed + 1`, ...
pub fn run_set(a: &Args, root: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = root.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..a.runs {
            let doc = out.join(format!("set-{}-{i}.json", w.name));
            let mut cmd = Command::new(&exe);
            cmd.env("CARGO_MANIFEST_DIR", root)
                .args(["run", "--strict", "--workload", w.name])
                .args(["--seed", &(a.seed + i as u64).to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .arg("--out")
                .arg(&doc)
                .stdout(Stdio::null());
            if a.quick {
                cmd.arg("--quick");
            }
            eprintln!("== {} run {}/{}", w.name, i + 1, a.runs);
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} run {i} exited with {status}", w.name));
            }
            runs.push(read_json(&doc)?);
            let _ = std::fs::remove_file(&doc);
        }
        workloads.push((
            w.name.to_string(),
            Json::obj(vec![("runs", Json::Arr(runs))]),
        ));
    }
    Ok(Json::obj(vec![
        ("schema", Json::Int(1)),
        ("commit", Json::Str(commit(root))),
        ("seed", u64_to_json(a.seed)),
        ("nproc", Json::Int(crate::stats::nproc() as i64)),
        ("seconds", Json::Num(a.seconds)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// The run documents a set holds for one workload.
fn runs_of<'a>(set: &'a Json, workload: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// Every value of one end-to-end metric over a workload's runs.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(set, workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Appends one line to the committed trajectory: commit, seed, machine,
/// calibration, and the median of every end-to-end metric per workload.
pub fn record(set: &Json, root: &Path) -> Result<(), String> {
    let mut kernel_ms = Vec::new();
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        kernel_ms.extend(
            runs_of(set, w.name)
                .iter()
                .filter_map(|r| r.get("calibration")?.get("kernel_ms")?.as_f64()),
        );
        let metrics: Vec<(&str, Json)> = END_TO_END
            .iter()
            .filter_map(|&(name, _)| {
                let v = values(set, w.name, name);
                (!v.is_empty()).then(|| (name, Json::Num(median(&v))))
            })
            .collect();
        workloads.push((w.name.to_string(), Json::obj(metrics)));
    }
    let line = Json::obj(vec![
        ("commit", set.get("commit").cloned().unwrap_or(Json::Null)),
        ("seed", set.get("seed").cloned().unwrap_or(Json::Null)),
        ("nproc", set.get("nproc").cloned().unwrap_or(Json::Null)),
        ("seconds", set.get("seconds").cloned().unwrap_or(Json::Null)),
        (
            "kernel_ms",
            if kernel_ms.is_empty() {
                Json::Null
            } else {
                Json::Num(median(&kernel_ms))
            },
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = root.join("history.jsonl");
    let mut text = std::fs::read_to_string(&path).unwrap_or_default();
    text.push_str(&line.to_text());
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the driver's spread measure.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let cut = |i: usize| {
        let (j, delta) = (i * (n + 1) / 4, i * (n + 1) % 4);
        let j = j.clamp(1, n - 1);
        (sorted[j - 1] * (4 - delta) as f64 + sorted[j] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median; the whole range for samples too
/// small to have quartiles.
fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = if v.len() >= 4 {
        quartiles(&v)
    } else {
        (v[0], v[v.len() - 1])
    };
    (q3 - q1) / m.abs()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// The rule of the choosing-metrics guide, §6.5: within the bound is
/// `unchanged` only when the spread is within it too; beyond the bound
/// is a verdict only when the spread allows one, or when every new run
/// beats every old one.
pub fn verdict(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (mo, mn) = (median(old), median(new));
    let worse_by = if mo == 0.0 {
        0.0
    } else if lower_is_better {
        (mn - mo) / mo.abs()
    } else {
        (mo - mn) / mo.abs()
    };
    let noisy = spread(old).max(spread(new)) > bound;
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    if worse_by > bound {
        if noisy {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if all_better && -worse_by > bound {
        Verdict::Improved
    } else if noisy {
        Verdict::Unresolved
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(name, lower_is_better, bound)` of every end-to-end metric, from
/// the repository's `BENCHMARK.json`.
fn bounds(root: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let path = root.join("..").join("BENCHMARK.json");
    let doc = read_json(&path)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            Ok((
                m.get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                m.get("better").and_then(Json::as_str) == Some("lower"),
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

/// Prints one row per workload (a verdict per metric) and the detail of
/// every metric that is not `unchanged`. Returns (regressed, unresolved).
fn compare_sets(old: &Json, new: &Json, root: &Path) -> Result<(usize, usize), String> {
    let bounds = bounds(root)?;
    let mut regressed = 0;
    let mut unresolved = 0;
    for w in WORKLOADS {
        let mut row = Vec::new();
        let mut detail = Vec::new();
        for (name, lower, bound) in &bounds {
            let (o, n) = (values(old, w.name, name), values(new, w.name, name));
            if o.is_empty() || n.is_empty() {
                row.push(format!("{name}=missing"));
                unresolved += 1;
                continue;
            }
            let v = verdict(&o, &n, *lower, *bound);
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            row.push(format!("{name}={}", format!("{v:?}").to_lowercase()));
            if v != Verdict::Unchanged {
                detail.push(format!(
                    "    {name}: median {:.6} -> {:.6} ({:+.2}%), spread {:.2}% / {:.2}%, bound {:.2}%, n={}/{}",
                    median(&o),
                    median(&n),
                    (median(&n) - median(&o)) / median(&o).abs() * 100.0,
                    spread(&o) * 100.0,
                    spread(&n) * 100.0,
                    bound * 100.0,
                    o.len(),
                    n.len()
                ));
            }
        }
        println!("{:<14} {}", w.name, row.join(" "));
        for d in detail {
            println!("{d}");
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

/// `benchmark compare a.json b.json`: true when nothing regressed.
pub fn compare_files(old: &Path, new: &Path, root: &Path) -> Result<bool, String> {
    let (regressed, _) = compare_sets(&read_json(old)?, &read_json(new)?, root)?;
    Ok(regressed == 0)
}

/// Two full sets on the same code must agree: nothing regressed in
/// either direction and nothing too noisy to tell. `--record` appends
/// the first set to the trajectory.
pub fn selfcheck(a: &Args, root: &Path) -> Result<bool, String> {
    let first = run_set(a, root)?;
    let second = run_set(a, root)?;
    let out = root.join("out");
    crate::write_json(&out.join("selfcheck-a.json"), &first)?;
    crate::write_json(&out.join("selfcheck-b.json"), &second)?;
    if a.record {
        record(&first, root)?;
    }
    let (forward, unresolved) = compare_sets(&first, &second, root)?;
    let (backward, _) = compare_sets(&second, &first, root)?;
    Ok(forward + backward + unresolved == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let noisy = [8.0, 12.5, 10.0, 14.0, 9.0];
        assert_eq!(verdict(&steady, &steady, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&steady, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&slower, &steady, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&steady, &noisy, true, 0.1), Verdict::Unresolved);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(&steady, &slower, false, 0.1), Verdict::Improved);
    }
}
