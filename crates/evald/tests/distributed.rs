//! End-to-end distributed tuning: real `evald` worker *processes* spawned
//! from the built binary, an in-process `tuned` daemon dispatching to
//! them, and the faults the dispatcher must shrug off — a worker
//! SIGKILLed mid-generation, chaos-mode connection drops, and dynamic
//! registration over the wire.
//!
//! The contract: distributed runs are **bit-identical** to local runs of
//! the same seed. Fitness is a pure function of the genome, so worker
//! count, retries, failover and fallback can only change timing, never
//! the tuned parameters.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ga::GaConfig;
use jit::Scenario;
use served::daemon::{Daemon, DaemonConfig, JobRecord};
use served::dispatch::DispatchConfig;
use served::json::Json;
use served::{Client, JobSpec, RunDir, Server};
use tuner::{Goal, Tuner};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("evald-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The wall-clock unit every deadline in this suite is a multiple of.
/// This suite spawns real `evald` processes, so its bounds cannot ride
/// the simulated clock (`crates/sim`) — but they *can* scale: set
/// `SIM_TIMEOUT_MS` (default 1000) to stretch every bound on slow or
/// heavily loaded CI machines instead of editing hard-coded counts.
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

fn tiny_spec(seed: u64) -> JobSpec {
    JobSpec {
        name: "Opt:Tot".into(),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into()],
        ga: GaConfig {
            pop_size: 6,
            generations: 3,
            threads: 1,
            seed,
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

/// Dispatch tunables tight enough that evictions and retries resolve
/// within a test run, not within production-scale minutes.
fn fast_dispatch() -> DispatchConfig {
    DispatchConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(800),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        max_inflight: 2,
        ..DispatchConfig::default()
    }
}

/// A spawned `evald` process plus the address it bound.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// Spawns the real `evald` binary with `extra` flags, binding an
    /// OS-assigned port, and waits for the address file to appear.
    fn spawn(tag: &str, extra: &[&str]) -> Self {
        let addr_file = std::env::temp_dir().join(format!(
            "evald-addr-{tag}-{}-{}",
            std::process::id(),
            extra.len()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_evald"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn evald");
        let addr = wait_for_file(&addr_file);
        let _ = std::fs::remove_file(&addr_file);
        Self { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill(); // SIGKILL on unix
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn wait_for_file(path: &std::path::Path) -> String {
    let deadline = Instant::now() + bound(5);
    while Instant::now() < deadline {
        if let Ok(s) = std::fs::read_to_string(path) {
            if s.contains(':') {
                return s.trim().to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("evald never wrote its address to {}", path.display());
}

fn wait_terminal(d: &Daemon, id: u64) -> JobRecord {
    let deadline = Instant::now() + bound(60);
    while Instant::now() < deadline {
        let r = d.status(id).expect("job exists");
        if r.state.is_terminal() {
            return r;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never reached a terminal state");
}

/// The reference result: the same spec tuned entirely in-process.
fn local_result(spec: &JobSpec) -> (Vec<i64>, f64) {
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let outcome = tuner.tune(spec.ga.clone());
    (outcome.params.to_genes(), outcome.fitness)
}

fn assert_matches_local(record: &JobRecord, spec: &JobSpec) {
    let (genes, fitness) = record
        .result
        .as_ref()
        .unwrap_or_else(|| panic!("job should be Done, got {:?}", record.error));
    let (local_genes, local_fitness) = local_result(spec);
    assert_eq!(genes, &local_genes, "tuned genes must match");
    assert_eq!(
        fitness.to_bits(),
        local_fitness.to_bits(),
        "fitness must be bit-identical"
    );
}

#[test]
fn two_worker_job_is_bit_identical_to_single_process() {
    let w1 = WorkerProc::spawn("bitident-1", &[]);
    let w2 = WorkerProc::spawn("bitident-2", &[]);
    let dir = tmp_dir("bitident");
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            eval_workers: vec![w1.addr.clone(), w2.addr.clone()],
            dispatch: fast_dispatch(),
            // The exact totals below are this daemon's alone only on a
            // registry of its own; the default is shared process-wide
            // with the chaos and kill tests' daemons.
            obs: std::sync::Arc::new(obs::Registry::new()),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();

    let spec = tiny_spec(2001);
    let id = daemon.submit(spec.clone()).unwrap();
    let record = wait_terminal(&daemon, id);
    assert_matches_local(&record, &spec);

    let m = daemon.metrics_snapshot();
    assert!(
        m.remote_completed > 0,
        "evaluations must have gone through the workers"
    );
    assert_eq!(
        m.remote_fallback_evals, 0,
        "no fallback with healthy workers"
    );
    // Per-worker counters must account for every completed evaluation.
    // (Which worker gets how many is a scheduling artifact — on a busy
    // single-core host one worker may legitimately answer everything.)
    let snaps = daemon.pool().snapshots();
    assert_eq!(snaps.len(), 2);
    let per_worker: u64 = snaps.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker, m.remote_completed, "snapshots: {snaps:?}");
    assert!(snaps.iter().any(|w| w.completed > 0));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_worker_mid_generation_does_not_lose_the_job() {
    // Delay every eval so work is reliably in flight when the kill lands.
    let mut doomed = WorkerProc::spawn("kill-doomed", &["--chaos", "delay:50ms"]);
    let survivor = WorkerProc::spawn("kill-survivor", &["--chaos", "delay:50ms"]);
    let dir = tmp_dir("kill");
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            eval_workers: vec![doomed.addr.clone(), survivor.addr.clone()],
            dispatch: fast_dispatch(),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();

    let spec = tiny_spec(2002);
    let id = daemon.submit(spec.clone()).unwrap();

    // Wait until evaluations are actually being dispatched, then SIGKILL
    // one worker mid-generation.
    let deadline = Instant::now() + bound(4);
    while Instant::now() < deadline {
        if daemon.metrics_snapshot().remote_dispatched > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    doomed.kill();

    let record = wait_terminal(&daemon, id);
    assert_matches_local(&record, &spec);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_drop_worker_still_produces_identical_results() {
    // One worker drops ~30% of replies (closing the connection without
    // answering); the dispatcher must retry/re-dispatch around it.
    let flaky = WorkerProc::spawn("chaos-flaky", &["--chaos", "drop:0.3", "--chaos-seed", "7"]);
    let steady = WorkerProc::spawn("chaos-steady", &[]);
    let dir = tmp_dir("chaos");
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            eval_workers: vec![flaky.addr.clone(), steady.addr.clone()],
            dispatch: fast_dispatch(),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();

    let spec = tiny_spec(2003);
    let id = daemon.submit(spec.clone()).unwrap();
    let record = wait_terminal(&daemon, id);
    assert_matches_local(&record, &spec);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_registers_over_the_wire_and_metrics_report_it() {
    let dir = tmp_dir("register");
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            dispatch: fast_dispatch(),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", daemon.clone()).unwrap();
    let daemon_addr = server.local_addr().to_string();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    // The worker self-registers via the protocol — no static config.
    let worker = WorkerProc::spawn(
        "register-w",
        &["--register", &daemon_addr, "--heartbeat-ms", "100"],
    );
    let deadline = Instant::now() + bound(5);
    while Instant::now() < deadline {
        if !daemon.pool().snapshots().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let snaps = daemon.pool().snapshots();
    assert_eq!(snaps.len(), 1, "worker must have registered itself");
    assert_eq!(snaps[0].addr, worker.addr);
    assert!(
        snaps[0].registered,
        "joined via the wire, not static config"
    );

    let spec = tiny_spec(2004);
    let id = daemon.submit(spec.clone()).unwrap();
    let record = wait_terminal(&daemon, id);
    assert_matches_local(&record, &spec);

    // The `metrics` verb must expose per-worker counters.
    let mut client = Client::connect(&daemon_addr).unwrap();
    let metrics = client.metrics().unwrap();
    let workers = metrics
        .get("workers")
        .and_then(Json::as_arr)
        .expect("metrics carry a workers array");
    assert_eq!(workers.len(), 1);
    let w = &workers[0];
    assert_eq!(
        w.get("addr").and_then(Json::as_str),
        Some(worker.addr.as_str())
    );
    assert!(w.get("completed").and_then(Json::as_u64).unwrap() > 0);
    assert!(w.get("dispatched").and_then(Json::as_u64).unwrap() > 0);

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = handle.join();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--store` went with the worker-side store client; a worker started
/// with it (or with any other flag `evald` does not know) must say so
/// and exit, not run without the thing the operator asked for.
#[test]
fn an_unknown_flag_is_refused_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_evald"))
        .args(["--addr", "127.0.0.1:0", "--store", "127.0.0.1:1"])
        .output()
        .expect("spawn evald");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--store'"), "{stderr}");
}
