//! The `tuned` command line refuses what it does not know: a mistyped
//! flag must stop the command, not run it with the default.

use std::process::Command;

#[test]
fn known_flags_are_read_and_the_last_value_wins() {
    let words = "--bench db --online --pop -4 --bench jess";
    let args: Vec<String> = words.split_whitespace().map(str::to_string).collect();
    let f = served::Flags::new(&args, "--bench --pop --gens", "--online").unwrap();
    assert_eq!(f.get_all("--bench"), ["db", "jess"]);
    assert_eq!(f.get("--bench"), Some("jess"));
    assert_eq!(f.parse::<i64>("--pop"), Ok(Some(-4)));
    assert_eq!(f.parse::<u64>("--gens"), Ok(None));
    assert!(f.parse::<u64>("--pop").unwrap_err().contains("--pop"));
    assert!(f.has("--online"));
}

/// Runs `tuned` and returns what it wrote to stderr on a non-zero exit.
fn refusal(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tuned"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn tuned");
    assert!(!out.status.success(), "tuned {args}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_mistyped_flag_is_refused_by_name_before_anything_is_sent() {
    // No daemon listens on port 1: were `--gen` (for `--gens`) merely
    // ignored, the error would be the failed connection — as it is for
    // the same command line spelled right.
    let submit = "submit --addr 127.0.0.1:1 --scenario opt --goal tot --online";
    let stderr = refusal(&format!("{submit} --gen 5"));
    assert!(stderr.contains("unknown flag '--gen'"), "{stderr}");
    let stderr = refusal(&format!("{submit} --gens 5"));
    assert!(stderr.contains("cannot connect"), "{stderr}");
    let stderr = refusal(&format!("{submit} --gens"));
    assert!(stderr.contains("--gens needs a value"), "{stderr}");
    let stderr = refusal("store --addr 127.0.0.1:1 put");
    assert!(stderr.contains("unexpected argument 'put'"), "{stderr}");
}
