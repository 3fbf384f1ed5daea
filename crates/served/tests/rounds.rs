//! One round loop, one evaluator, one checkpoint rule: what a job leaves
//! behind — how many checkpoints, which bits after a park and resume —
//! does not depend on whether its rounds were scored on the job's local
//! threads or on eval workers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evald::{Chaos, EvalWorker};
use ga::GaConfig;
use jit::Scenario;
use served::daemon::{Daemon, DaemonConfig, JobRecord};
use served::{JobSpec, JobState, RunDir};
use tuner::{Goal, Tuner};

fn spec(seed: u64, generations: usize) -> JobSpec {
    JobSpec {
        name: "Opt:Tot".into(),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into()],
        ga: GaConfig {
            pop_size: 6,
            generations,
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

fn manual_registry() -> Arc<obs::Registry> {
    Arc::new(obs::Registry::with_clock(Arc::new(obs::ManualClock::new())))
}

/// An in-process eval worker, stopped on drop.
struct TestWorker {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestWorker {
    fn start() -> Self {
        let worker =
            EvalWorker::bind_with_obs("127.0.0.1:0", Chaos::inert(), manual_registry()).unwrap();
        let addr = worker.local_addr().to_string();
        let stop = worker.stop_flag();
        let handle = Some(std::thread::spawn(move || worker.serve().unwrap()));
        Self { addr, stop, handle }
    }
}

impl Drop for TestWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A one-runner daemon over `dir` counting into `reg`, evaluating on
/// `workers` (none: the job's own threads).
fn daemon(dir: &std::path::Path, reg: &Arc<obs::Registry>, workers: &[TestWorker]) -> Daemon {
    let config = DaemonConfig {
        workers: 1,
        eval_workers: workers.iter().map(|w| w.addr.clone()).collect(),
        obs: Arc::clone(reg),
        ..DaemonConfig::default()
    };
    Daemon::start(config, RunDir::open(dir).unwrap()).unwrap()
}

fn wait_until(d: &Daemon, id: u64, what: &str, ready: impl Fn(&JobRecord) -> bool) -> JobRecord {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = d.status(id).expect("job exists");
        if ready(&r) {
            return r;
        }
        assert!(Instant::now() < deadline, "job {id} never {what}: {r:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("served-rounds-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Both paths, by name: no eval worker, and one.
fn paths() -> [(&'static str, Vec<TestWorker>); 2] {
    [("local", vec![]), ("remote", vec![TestWorker::start()])]
}

#[test]
fn a_job_of_n_rounds_writes_n_checkpoints_on_either_path() {
    const ROUNDS: usize = 5;
    for (path, workers) in paths() {
        let dir = tmp_dir(&format!("count-{path}"));
        let reg = manual_registry();
        let d = daemon(&dir, &reg, &workers);
        let id = d.submit(spec(4101, ROUNDS)).unwrap();
        let r = wait_until(&d, id, "finished", |r| r.state.is_terminal());
        assert_eq!(r.state, JobState::Done, "{path}: {:?}", r.error);
        assert_eq!(r.generation, ROUNDS, "{path}");
        let count = |name: &str| reg.counter_value(name);
        assert_eq!(
            count("tuned_checkpoints_written_total"),
            ROUNDS as u64,
            "{path}: one checkpoint per round, none twice"
        );
        let on_disk = RunDir::open(&dir).unwrap().load_checkpoint(id).unwrap();
        assert_eq!(on_disk.unwrap().rounds(), ROUNDS, "{path}: the last one");
        // The rounds really ran where the path says — and scoring on the
        // job's own threads because no worker exists is not a fallback.
        assert_eq!(
            count("tuned_remote_completed_total") > 0,
            path == "remote",
            "{path}"
        );
        assert_eq!(count("tuned_remote_fallback_evals_total"), 0, "{path}");
        d.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_job_parked_by_shutdown_resumes_to_the_uninterrupted_bits_on_either_path() {
    const ROUNDS: usize = 16;
    let job = spec(4102, ROUNDS);
    let expected = Tuner::new(
        job.task().unwrap(),
        job.training().unwrap(),
        job.adapt_cfg(),
    )
    .tune(job.ga.clone());
    for (path, workers) in paths() {
        let dir = tmp_dir(&format!("park-{path}"));
        let reg = manual_registry();

        // First daemon: shut down mid-run; the job parks on a checkpoint
        // of exactly the rounds it committed.
        let d1 = daemon(&dir, &reg, &workers);
        let id = d1.submit(job.clone()).unwrap();
        wait_until(&d1, id, "reached round 2", |r| r.generation >= 2);
        d1.shutdown();
        let parked = d1.status(id).unwrap();
        assert_eq!(parked.state, JobState::Queued, "{path}: parked, not ended");
        assert!(parked.generation < ROUNDS, "{path}: parked mid-run");
        let on_disk = RunDir::open(&dir).unwrap().load_checkpoint(id).unwrap();
        assert_eq!(on_disk.unwrap().rounds(), parked.generation, "{path}");

        // Second daemon: resumes from that checkpoint to the same bits,
        // and the two together wrote each round's checkpoint once.
        let d2 = daemon(&dir, &reg, &workers);
        let r = wait_until(&d2, id, "finished", |r| r.state.is_terminal());
        assert_eq!(r.state, JobState::Done, "{path}: {:?}", r.error);
        let (genes, fitness) = r.result.unwrap();
        assert_eq!(genes, expected.params.to_genes(), "{path}");
        assert_eq!(fitness.to_bits(), expected.fitness.to_bits(), "{path}");
        assert_eq!(
            reg.counter_value("tuned_checkpoints_written_total"),
            ROUNDS as u64,
            "{path}"
        );
        d2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
