//! `BENCHMARK.json` and the tool must name the same things: every
//! workload runs (`--quick`: tiny budgets), untraced and traced, and
//! emits exactly the metrics the file lists, each with its unit.

use std::path::Path;
use std::process::Command;

use served::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &Json, list: &str) -> Vec<(String, Option<String>)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|item| {
            (
                item.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                item.get("unit").and_then(Json::as_str).map(String::from),
            )
        })
        .collect()
}

/// Runs one quick run and returns the parsed result line.
fn quick_run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .env("CARGO_MANIFEST_DIR", env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quick", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "1", "--trace", trace])
        .arg("--out")
        .arg(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("smoke-{workload}-{trace}.json")),
        )
        .output()
        .expect("spawn benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn check(workload: &str, trace: &str, expected: &[(String, Option<String>)]) {
    let result = quick_run(workload, trace);
    let Json::Obj(fields) = &result else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let got: Vec<(String, Option<String>)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{workload}: {name} has no numeric value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).map(String::from),
            )
        })
        .collect();
    assert_eq!(got, expected, "{workload} --trace {trace}");
}

#[test]
fn names_are_well_formed() {
    let doc = benchmark_json();
    let all = names(&doc, "workloads")
        .into_iter()
        .chain(names(&doc, "end_to_end"))
        .chain(names(&doc, "per_layer"));
    let mut seen = std::collections::HashSet::new();
    for (name, _) in all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name '{name}'"
        );
        assert!(seen.insert(name.clone()), "'{name}' is used twice");
    }
    assert!(
        names(&doc, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u.as_deref() == Some("s")),
        "setup_s [s] must be an end-to-end metric"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let doc = benchmark_json();
    let expected = names(&doc, "end_to_end");
    for (workload, _) in names(&doc, "workloads") {
        check(&workload, "0", &expected);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let doc = benchmark_json();
    let expected = names(&doc, "per_layer");
    for (workload, _) in names(&doc, "workloads") {
        check(&workload, "1", &expected);
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "nope"])
        .output()
        .expect("spawn benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
}
