//! The system under test, started the way a user runs it: a
//! `served::Daemon` behind a `served::Server` on loopback TCP, optional
//! in-process `evald::EvalWorker`s as its remote tier, and
//! `served::Client` connections doing `submit` + `watch`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use evald::{Chaos, EvalWorker};
use served::checkpoint::f64_from_json;
use served::daemon::{Daemon, DaemonConfig};
use served::job::JobSpec;
use served::json::Json;
use served::{Client, RunDir, Server};

use crate::spec::Workload;

/// A running daemon + server (+ workers, + store) over one directory.
pub struct Stack {
    pub addr: String,
    pub daemon: Daemon,
    pub store: Option<Arc<stored::Store>>,
    pub worker_addrs: Vec<String>,
    stops: Vec<Arc<AtomicBool>>,
    threads: Vec<JoinHandle<()>>,
}

impl Stack {
    /// Starts everything `w` needs under `dir` (created fresh).
    pub fn start(w: &Workload, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // A registry of its own per stack: counters read back after a
        // repetition then describe that repetition alone.
        let registry = Arc::new(obs::Registry::new());
        let mut stops = Vec::new();
        let mut threads = Vec::new();
        let mut worker_addrs = Vec::new();
        for _ in 0..w.eval_workers {
            let worker =
                EvalWorker::bind_with_obs("127.0.0.1:0", Chaos::inert(), Arc::clone(&registry))?;
            worker_addrs.push(worker.local_addr());
            stops.push(worker.stop_flag());
            threads.push(spawn("bench-evald", move || {
                worker.serve().expect("eval worker serve loop");
            }));
        }
        let store = if w.store {
            Some(Arc::new(stored::Store::open_with(
                dir.join("store"),
                stored::StoreOptions {
                    obs: Arc::clone(&registry),
                    ..stored::StoreOptions::default()
                },
            )?))
        } else {
            None
        };
        let daemon = Daemon::start(
            DaemonConfig {
                workers: w.daemon_workers,
                shards: w.shards,
                // One evaluation thread per runner: never more busy
                // threads than the jobs ask for.
                eval_threads: w.daemon_workers,
                eval_workers: worker_addrs.clone(),
                obs: registry,
                store: store.clone(),
                ..DaemonConfig::default()
            },
            RunDir::open(dir.join("run"))?,
        )?;
        let server = Server::bind("127.0.0.1:0", daemon.clone())?;
        let addr = server.local_addr();
        stops.push(server.stop_flag());
        threads.push(spawn("bench-server", move || {
            server.serve().expect("server accept loop");
        }));
        Ok(Self {
            addr,
            daemon,
            store,
            worker_addrs,
            stops,
            threads,
        })
    }

    /// Stops the server and workers, lets the daemon finish, joins every
    /// thread this stack spawned.
    pub fn stop(self) {
        for stop in &self.stops {
            stop.store(true, Ordering::SeqCst);
        }
        self.daemon.shutdown();
        for t in self.threads {
            t.join().expect("stack thread panicked");
        }
    }
}

fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .expect("spawn stack thread")
}

/// One `watch` frame as the client saw it.
pub struct Frame {
    /// Seconds since the `submit` frame was sent.
    pub at_s: f64,
    pub state: String,
    pub best: Option<f64>,
}

/// One job as measured from the client side.
pub struct JobRun {
    /// `submit` frame sent → id acknowledged.
    pub submit_s: f64,
    /// `submit` frame sent → terminal `watch` frame received.
    pub wall_s: f64,
    pub frames: Vec<Frame>,
    pub state: String,
    pub genes: Option<Vec<i64>>,
    pub fitness: Option<f64>,
}

impl JobRun {
    /// Seconds from `submit` to the first frame whose best fitness is at
    /// or below `target`.
    pub fn time_to(&self, target: f64) -> Option<f64> {
        self.frames
            .iter()
            .find(|f| f.best.is_some_and(|b| b <= target))
            .map(|f| f.at_s)
    }

    /// Seconds from the submit acknowledgement to the first frame that
    /// shows the job off the queue.
    pub fn sched_delay_s(&self) -> Option<f64> {
        self.frames
            .iter()
            .find(|f| f.state != "queued")
            .map(|f| (f.at_s - self.submit_s).max(0.0))
    }
}

/// Submits `spec` on a fresh connection and watches it to its terminal
/// frame — what `tuned submit` followed by `tuned watch` does.
pub fn run_job(addr: &str, spec: &JobSpec) -> Result<JobRun, String> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let id = client.submit(spec)?;
    let submit_s = start.elapsed().as_secs_f64();
    let mut frames = Vec::new();
    let last = client.watch(id, |job| {
        frames.push(Frame {
            at_s: start.elapsed().as_secs_f64(),
            state: job
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            best: job.get("best_fitness").and_then(f64_from_json),
        });
    })?;
    let wall_s = frames.last().map_or(submit_s, |f| f.at_s);
    let result = last.get("result");
    Ok(JobRun {
        submit_s,
        wall_s,
        frames,
        state: last
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        genes: result
            .and_then(|r| r.get("params"))
            .and_then(|p| p.get("genes"))
            .and_then(Json::as_arr)
            .and_then(|g| g.iter().map(Json::as_i64).collect()),
        fitness: result
            .and_then(|r| r.get("fitness"))
            .and_then(f64_from_json),
    })
}

/// Connects to an eval worker and binds the connection to `spec`'s cell
/// with the `task` handshake, as the daemon's dispatcher does.
pub fn connect_worker(addr: &str, spec: &JobSpec) -> Result<Client, String> {
    let mut client = Client::connect(addr)?;
    client.call(&Json::obj(vec![
        ("cmd", Json::Str("task".into())),
        ("job", spec.to_json()),
    ]))?;
    Ok(client)
}

/// A scratch directory under the benchmark's own `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out: &Path, tag: &str) -> Result<Self, String> {
        let dir = out.join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
