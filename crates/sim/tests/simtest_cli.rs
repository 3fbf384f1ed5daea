//! `simtest` at the binary level: exit codes, the no-silently-ignored-
//! argument rule, and the `BENCH_sim.json` shape.

use std::process::{Command, Output};

fn simtest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simtest"))
        .args(args)
        .output()
        .expect("simtest runs")
}

fn code(args: &[&str]) -> i32 {
    simtest(args).status.code().expect("simtest exits")
}

#[test]
fn replays_and_self_test_exit_zero() {
    assert_eq!(code(&["store", "--seed", "5"]), 0);
    let traced = simtest(&["mixed", "--seed", "2", "--trace"]);
    assert_eq!(traced.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&traced.stdout).contains("us]"),
        "--trace on a green Cluster-backed seed must print its fault trace"
    );
    // Under --broken the expectation flips: >= 1 seed must be caught.
    assert_eq!(code(&["fault:4", "--base-seed", "9", "--broken"]), 0);
}

#[test]
fn contradictory_or_unknown_arguments_exit_two_with_one_line() {
    for args in [
        &["nope:3"][..],
        &["mixed:2", "--broken"],
        &["fault", "--seed", "3", "--out", "x.json"],
        &["fault:3", "--seed", "3"],
        &["fault"],
        &["store", "--seed", "5", "--trace"],
        &["store:2", "--clients", "60"],
        &["fault:2", "--shard-shards", "4"],
        &["scale", "fault:2"],
        &[],
    ] {
        let out = simtest(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let message = String::from_utf8_lossy(&out.stderr);
        assert_eq!(message.lines().count(), 1, "{args:?}: {message}");
    }
}

#[test]
fn a_sweep_writes_one_uniform_summary() {
    let path = std::env::temp_dir().join(format!("simtest-cli-{}.json", std::process::id()));
    let out = path.to_str().expect("utf-8 temp path");
    assert_eq!(code(&["fault:2", "store:2", "--out", out]), 0);
    let text = std::fs::read_to_string(&path).expect("summary written");
    let _ = std::fs::remove_file(&path);
    let json = served::json::parse(&text).expect("summary is JSON");
    assert!(text.contains("\"failed_total\":0"), "{text}");
    // A correctness artefact on the virtual clock, and it says so.
    assert_eq!(json.get("clock").and_then(|c| c.as_str()), Some("virtual"));
    let scenarios = json.get("scenarios").and_then(|s| s.as_arr());
    let names: Vec<_> = scenarios
        .expect("scenarios array")
        .iter()
        .map(|s| s.get("scenario").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names, [Some("fault"), Some("store")]);
}
