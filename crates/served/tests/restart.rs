//! Kill-and-restart: SIGKILL the daemon mid-search, restart it over the
//! same run directory, and require the finished job's tuned parameters
//! to be bit-identical to an uninterrupted in-process run — for the
//! plain GA job and for a racing portfolio evaluated on remote `evald`
//! workers.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use evald::{Chaos, EvalWorker};
use ga::GaConfig;
use jit::Scenario;
use served::job::JobSpec;
use served::json::Json;
use served::Client;
use tuner::{Goal, Tuner};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tuned-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The wall-clock unit every deadline in this suite is a multiple of.
/// This suite drives real child processes, so its bounds cannot ride the
/// simulated clock (`crates/sim`) — but they *can* scale: set
/// `SIM_TIMEOUT_MS` (default 1000) to stretch every bound on slow or
/// heavily loaded CI machines instead of editing hard-coded sleeps.
fn timeout_unit() -> Duration {
    let ms = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    Duration::from_millis(ms)
}

fn bound(units: u32) -> Duration {
    timeout_unit() * units
}

fn spawn_daemon(dir: &Path) -> Child {
    spawn_daemon_with_workers(dir, &[])
}

/// Spawns `tuned serve`, optionally pointed at remote `evald` workers.
fn spawn_daemon_with_workers(dir: &Path, eval_workers: &[String]) -> Child {
    let mut args = vec![
        "serve".to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--dir".into(),
        dir.to_str().unwrap().into(),
        "--workers".into(),
        "1".into(),
    ];
    for w in eval_workers {
        args.push("--worker".into());
        args.push(w.clone());
    }
    Command::new(env!("CARGO_BIN_EXE_tuned"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tuned")
}

/// An in-process `evald` worker. It lives in the *test* process, so a
/// SIGKILL of the daemon leaves it running — exactly the distributed
/// picture: the coordinator dies, the farm survives.
struct TestEvalWorker {
    addr: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestEvalWorker {
    fn start() -> Self {
        let worker = EvalWorker::bind("127.0.0.1:0", Chaos::inert()).unwrap();
        let addr = worker.local_addr().to_string();
        let stop = worker.stop_flag();
        let handle = std::thread::spawn(move || worker.serve().unwrap());
        Self {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for TestEvalWorker {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Waits for the daemon to publish its (fresh) listening address.
fn wait_addr(dir: &Path) -> String {
    let path = dir.join("addr");
    let deadline = Instant::now() + bound(30);
    while Instant::now() < deadline {
        if let Ok(addr) = std::fs::read_to_string(&path) {
            if !addr.is_empty() {
                return addr;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon never wrote {}", path.display());
}

fn connect(addr: &str) -> Client {
    let deadline = Instant::now() + bound(10);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) if Instant::now() >= deadline => panic!("cannot connect: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        name: "Opt:Tot".into(),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into(), "jess".into()],
        ga: GaConfig {
            pop_size: 8,
            generations: 10,
            threads: 1,
            seed: 20_260_807,
            stagnation_limit: None,
            ..GaConfig::default()
        },
        strategy: "ga".into(),
        problem: "inline".into(),
        tenant: "default".into(),
        online: None,
        drift_pos: None,
    }
}

fn state_of(job: &Json) -> String {
    job.get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .into()
}

fn generation_of(job: &Json) -> i64 {
    job.get("generation").and_then(Json::as_i64).unwrap_or(0)
}

#[test]
fn sigkill_and_restart_produce_bit_identical_params() {
    let dir = tmp_dir("bitident");
    let spec = job_spec();

    // The ground truth: the same job run uninterrupted, in-process.
    let expected = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    )
    .tune(spec.ga.clone());
    let expected_genes = expected.params.to_genes();

    // Daemon #1: submit, let it checkpoint a few generations, SIGKILL.
    let mut child = spawn_daemon(&dir);
    let addr = wait_addr(&dir);
    let mut client = connect(&addr);
    let id = client.submit(&spec).expect("submit");
    let deadline = Instant::now() + bound(120);
    loop {
        let job = client.status(id).expect("status");
        if generation_of(&job) >= 2 {
            break;
        }
        assert_ne!(
            state_of(&job),
            "done",
            "job finished before we could kill the daemon; slow the job down"
        );
        assert!(Instant::now() < deadline, "job never reached generation 2");
        std::thread::sleep(Duration::from_millis(30));
    }
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();

    // Daemon #2 over the same run dir: recovery must resume the job from
    // its checkpoint and finish it.
    std::fs::remove_file(dir.join("addr")).expect("drop stale addr file");
    let mut child2 = spawn_daemon(&dir);
    let addr2 = wait_addr(&dir);
    let mut client2 = connect(&addr2);
    let deadline = Instant::now() + bound(300);
    let finished = loop {
        let job = client2.status(id).expect("status after restart");
        match state_of(&job).as_str() {
            "done" => break job,
            "failed" | "canceled" => panic!("job ended {:?}", job.to_text()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(50));
    };

    let result = finished.get("result").expect("done job has a result");
    let genes: Vec<i64> = result
        .get("params")
        .and_then(|p| p.get("genes"))
        .and_then(Json::as_arr)
        .expect("result carries genes")
        .iter()
        .map(|g| g.as_i64().unwrap())
        .collect();
    assert_eq!(
        genes, expected_genes,
        "kill-and-restart must not change the tuned parameters"
    );
    let fitness = result
        .get("fitness")
        .and_then(Json::as_f64)
        .expect("result carries fitness");
    assert_eq!(
        fitness.to_bits(),
        expected.fitness.to_bits(),
        "kill-and-restart must not change the fitness bits"
    );

    // The restart actually recovered (rather than silently restarting
    // from scratch): the metrics say so.
    let metrics = client2.metrics().expect("metrics");
    assert_eq!(
        metrics.get("jobs_recovered").and_then(Json::as_i64),
        Some(1),
        "daemon #2 must have recovered the incomplete job"
    );

    let _ = client2.shutdown();
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn race_job_on_remote_workers_survives_sigkill_bit_identically() {
    let dir = tmp_dir("race");
    let spec = JobSpec {
        strategy: "race:ga+random+hillclimb".into(),
        ..job_spec()
    };

    // The ground truth: the same race run uninterrupted, in-process.
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let mut expected = search::build(&spec.strategy, tuner.task().ranges(), spec.ga.clone())
        .expect("valid race spec");
    search::drive(expected.as_mut(), &tuner.evaluator(spec.ga.threads));
    let (expected_genes, expected_fitness) =
        search::finish(expected.as_ref()).expect("race found a best");

    // The evaluation farm outlives the daemon: both workers live in this
    // process and are handed to both daemon incarnations via --worker.
    let workers = [TestEvalWorker::start(), TestEvalWorker::start()];
    let worker_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();

    // Daemon #1: submit the race, let it checkpoint a few rounds, SIGKILL.
    let mut child = spawn_daemon_with_workers(&dir, &worker_addrs);
    let addr = wait_addr(&dir);
    let mut client = connect(&addr);
    let id = client.submit(&spec).expect("submit race");
    let deadline = Instant::now() + bound(120);
    loop {
        let job = client.status(id).expect("status");
        if generation_of(&job) >= 2 {
            // Watch frames report per-strategy best-so-far standings.
            let standings = job
                .get("strategies")
                .and_then(Json::as_arr)
                .expect("a racing job reports per-strategy standings");
            assert_eq!(standings.len(), 3, "one standing per race member");
            for s in standings {
                assert!(s.get("name").and_then(Json::as_str).is_some());
                assert!(s.get("evaluations").and_then(Json::as_i64).is_some());
            }
            break;
        }
        assert_ne!(
            state_of(&job),
            "done",
            "race finished before we could kill the daemon; slow the job down"
        );
        assert!(Instant::now() < deadline, "race never reached round 2");
        std::thread::sleep(Duration::from_millis(30));
    }
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();

    // Daemon #2 over the same run dir and the same (still-running)
    // worker farm: recovery resumes the race from its checkpoint.
    std::fs::remove_file(dir.join("addr")).expect("drop stale addr file");
    let mut child2 = spawn_daemon_with_workers(&dir, &worker_addrs);
    let addr2 = wait_addr(&dir);
    let mut client2 = connect(&addr2);
    let deadline = Instant::now() + bound(300);
    let finished = loop {
        let job = client2.status(id).expect("status after restart");
        match state_of(&job).as_str() {
            "done" => break job,
            "failed" | "canceled" => panic!("race ended {:?}", job.to_text()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "resumed race never finished");
        std::thread::sleep(Duration::from_millis(50));
    };

    let result = finished.get("result").expect("done job has a result");
    let genes: Vec<i64> = result
        .get("params")
        .and_then(|p| p.get("genes"))
        .and_then(Json::as_arr)
        .expect("result carries genes")
        .iter()
        .map(|g| g.as_i64().unwrap())
        .collect();
    assert_eq!(
        genes, expected_genes,
        "kill-and-restart must not change the race's winning parameters"
    );
    let fitness = result
        .get("fitness")
        .and_then(Json::as_f64)
        .expect("result carries fitness");
    assert_eq!(
        fitness.to_bits(),
        expected_fitness.to_bits(),
        "kill-and-restart must not change the race's fitness bits"
    );
    assert_eq!(
        finished.get("strategy").and_then(Json::as_str),
        Some("race:ga+random+hillclimb"),
        "status frames carry the job's strategy spec"
    );

    let metrics = client2.metrics().expect("metrics");
    assert_eq!(
        metrics.get("jobs_recovered").and_then(Json::as_i64),
        Some(1),
        "daemon #2 must have recovered the incomplete race"
    );
    // The farm actually took load: remote dispatch happened on daemon #2.
    let dispatched = metrics
        .get("remote")
        .and_then(|r| r.get("completed"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(
        dispatched > 0,
        "the resumed race must evaluate on the remote workers"
    );

    let _ = client2.shutdown();
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
