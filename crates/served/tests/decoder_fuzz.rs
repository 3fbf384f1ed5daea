//! Decoders never panic: every golden fixture's JSON tree is mutated
//! a few thousand seeded ways and each decoder must answer `Ok` or
//! `Err` — for checkpoints, all the way through `search::restore` and
//! one `ask`/`tell` round, the path a recovering daemon takes.
//!
//! Each case draws from `child_rng(SEED, "<fixture>/<case>")`, so a
//! failure names a case that replays alone, and prints the mutated
//! document that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use served::checkpoint::{
    online_snapshot_from_json, online_snapshot_to_json, result_from_json,
    strategy_snapshot_from_json, strategy_snapshot_to_json,
};
use served::json::{parse, Json};
use served::proto::{
    parse_eval_batch_request, parse_eval_batch_response, registry_from_json, registry_to_json,
};
use simrng::Rng;

const SEED: u64 = 0x5eed_c0de;
const CASES_PER_FIXTURE: usize = 2_000;

/// Largest population or tournament the checkpoint stage will actually
/// step: a huge but well-formed one is a resource request (the round
/// would draw that many genomes), not a decoder bug.
const MAX_STEPPED_DRAWS: i64 = 4_096;

fn node_count(v: &Json) -> usize {
    1 + match v {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(pairs) => pairs.iter().map(|(_, x)| node_count(x)).sum(),
        _ => 0,
    }
}

/// The `k`-th node of the tree in pre-order.
fn node_mut<'a>(v: &'a mut Json, k: &mut usize) -> Option<&'a mut Json> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    match v {
        Json::Arr(items) => items.iter_mut().find_map(|x| node_mut(x, k)),
        Json::Obj(pairs) => pairs.iter_mut().find_map(|(_, x)| node_mut(x, k)),
        _ => None,
    }
}

/// One structural mutation at a random node: drop a key, truncate an
/// array, or swap the value for a boundary or wrong-typed one.
fn mutate(rng: &mut Rng, doc: &mut Json) {
    let mut k = rng.range_usize(0, node_count(doc) - 1);
    let node = node_mut(doc, &mut k).expect("index is within the tree");
    match node {
        Json::Obj(pairs) if !pairs.is_empty() && rng.chance(0.5) => {
            pairs.remove(rng.range_usize(0, pairs.len() - 1));
        }
        Json::Arr(items) if !items.is_empty() && rng.chance(0.5) => {
            items.truncate(rng.range_usize(0, items.len() - 1));
        }
        _ => {
            *node = match rng.below(9) {
                0 => Json::Null,
                1 => Json::Int(-1),
                2 => Json::Int(i64::MAX),
                3 => Json::Int(0),
                4 => Json::Str(String::new()),
                5 => Json::Arr(vec![]),
                6 => Json::Obj(vec![]),
                7 => Json::Bool(true),
                _ => Json::Num(0.5),
            }
        }
    }
}

fn largest(v: &Json, key: &str) -> i64 {
    match v {
        Json::Arr(items) => items.iter().map(|x| largest(x, key)).max().unwrap_or(0),
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, x)| match x.as_i64() {
                Some(n) if k == key => n,
                _ => largest(x, key),
            })
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

/// Runs the decoder the fixture's file name selects, as far as the
/// daemon would take the bytes.
fn decode(name: &str, doc: &Json) {
    if name.ends_with("_checkpoint.json") {
        let Ok(snapshot) = strategy_snapshot_from_json(doc) else {
            return;
        };
        let _ = strategy_snapshot_to_json(&snapshot).to_text();
        let Ok(mut strategy) = search::restore(snapshot) else {
            return;
        };
        if largest(doc, "pop_size").max(largest(doc, "tournament_size")) > MAX_STEPPED_DRAWS {
            return;
        }
        let batch = strategy.ask();
        let scores: Vec<f64> = batch.iter().map(|g| g.iter().sum::<i64>() as f64).collect();
        strategy.tell(&batch, &scores);
        let _ = strategy_snapshot_to_json(&strategy.snapshot()).to_text();
    } else if name.ends_with("_job_spec.json") {
        if let Ok(spec) = served::JobSpec::from_json(doc) {
            let _ = spec.eval_estimate();
            let _ = spec.to_json().to_text();
        }
    } else if name.starts_with("online_") {
        if let Ok(snapshot) = online_snapshot_from_json(doc) {
            let _ = online_snapshot_to_json(&snapshot).to_text();
        }
    } else if name.starts_with("result_") {
        let _ = result_from_json(doc);
    } else if name == "eval_batch_request.json" {
        let _ = parse_eval_batch_request(doc);
    } else if name == "eval_batch_response.json" {
        let _ = parse_eval_batch_response(doc);
    } else if name == "obs_registry.json" {
        if let Ok(snapshot) = registry_from_json(doc) {
            let _ = registry_to_json(&snapshot).to_text();
        }
    } else {
        panic!("fixture {name} has no decoder in this test — add one");
    }
}

#[test]
fn mutated_fixtures_never_panic_a_decoder() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.len() >= 14, "fixtures went missing: {names:?}");

    // Panics are the failure being hunted; keep their backtraces out of
    // the log and report the offending document instead.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();
    for name in &names {
        let original = parse(&std::fs::read_to_string(dir.join(name)).unwrap()).unwrap();
        decode(name, &original);
        for case in 0..CASES_PER_FIXTURE {
            let mut rng = simrng::child_rng(SEED, &format!("{name}/{case}"));
            let mut doc = original.clone();
            for _ in 0..rng.range_usize(1, 3) {
                mutate(&mut rng, &mut doc);
            }
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| decode(name, &doc))) {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                failures.push(format!("{name} case {case}: {msg}\n  {}", doc.to_text()));
            }
        }
    }
    std::panic::set_hook(hook);
    assert!(
        failures.is_empty(),
        "{} decoder panics (first 5):\n{}",
        failures.len(),
        failures[..failures.len().min(5)].join("\n")
    );
}
