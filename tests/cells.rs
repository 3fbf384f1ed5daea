//! One cell per process, one memo per job: a second job over a cell
//! reuses the cell's suite, prepared contexts and default measurements,
//! and compiles exactly what the first job compiled — on an eval worker
//! and in a daemon evaluating locally alike.
//!
//! One test, because it reads process-global counters
//! (`jit_unit_memo_misses_total`, [`served::cells`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use inlinetune::evald::{Chaos, EvalWorker};
use inlinetune::obs;
use inlinetune::served::checkpoint::f64_from_json;
use inlinetune::served::json::Json;
use inlinetune::served::{self, Client, Daemon, DaemonConfig, JobSpec, RunDir, Server};
use inlinetune::tuner::Tuner;

fn spec(suite: &str) -> JobSpec {
    JobSpec::from_text(&format!(
        r#"{{"name":"cells","scenario":"opt","goal":"tot","arch":"x86-p4","suite":["{suite}"],
            "ga":{{"pop_size":6,"generations":3,"threads":1,"seed":29,"stagnation_limit":null}}}}"#
    ))
    .unwrap()
}

fn memo_misses() -> u64 {
    obs::global().counter_value("jit_unit_memo_misses_total")
}

/// Runs `spec` twice, one job after the other, on a daemon evaluating on
/// `eval_workers` (locally when empty). Both jobs must bit-match the
/// in-process reference and miss the unit memo equally often: the second
/// job's memo starts as empty as the first's.
fn run_twice(tag: &str, eval_workers: Vec<String>, spec: &JobSpec) {
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let tuned = tuner.tune(spec.ga.clone());
    let want = (tuned.params.to_genes(), tuned.fitness.to_bits());

    let dir = format!("inlinetune-cells-{tag}-{}", std::process::id());
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let config = DaemonConfig {
        workers: 1,
        eval_workers,
        obs: Arc::new(obs::Registry::new()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, RunDir::open(&dir).unwrap()).unwrap();
    let server = Server::bind("127.0.0.1:0", daemon.clone()).unwrap();
    let addr = server.local_addr();
    let stop = server.stop_flag();
    let serving = std::thread::spawn(move || server.serve().unwrap());
    let misses: Vec<u64> = (0..2)
        .map(|_| {
            let before = memo_misses();
            let mut client = Client::connect(&addr).unwrap();
            let id = client.submit(spec).unwrap();
            let last = client.watch(id, |_| {}).unwrap();
            assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
            let result = last.get("result").unwrap();
            let genes = result.get("params").and_then(|p| p.get("genes"));
            let genes = genes.and_then(Json::as_arr).unwrap();
            let genes: Vec<i64> = genes.iter().map(|g| g.as_i64().unwrap()).collect();
            let fitness = result.get("fitness").and_then(f64_from_json).unwrap();
            assert_eq!((genes, fitness.to_bits()), want, "{tag}: vs the reference");
            memo_misses() - before
        })
        .collect();
    stop.store(true, Ordering::SeqCst);
    daemon.shutdown();
    serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(misses[0] > 0);
    assert_eq!(
        misses[1], misses[0],
        "{tag}: the second job's memo starts empty"
    );
}

#[test]
fn two_jobs_over_one_cell_share_the_cell_and_not_the_memo() {
    // On a worker: the cell is built on the first `task`, once.
    let worker_obs = Arc::new(obs::Registry::new());
    let worker =
        EvalWorker::bind_with_obs("127.0.0.1:0", Chaos::inert(), Arc::clone(&worker_obs)).unwrap();
    let worker_addr = worker.local_addr();
    let worker_stop = worker.stop_flag();
    let working = std::thread::spawn(move || worker.serve().unwrap());
    run_twice("remote", vec![worker_addr], &spec("db"));
    worker_stop.store(true, Ordering::SeqCst);
    working.join().unwrap();
    assert_eq!(worker_obs.counter_value("evald_task_cache_misses"), 1);

    // In a daemon evaluating locally: one new cell for both jobs.
    let cells_before = served::cells().len();
    run_twice("local", Vec::new(), &spec("jess"));
    assert_eq!(served::cells().len(), cells_before + 1);
}
