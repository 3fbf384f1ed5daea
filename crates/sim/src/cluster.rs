//! The cluster harness: boots a **whole tuning deployment** — one
//! `tuned` daemon, its protocol server, and N `evald` workers — in a
//! single process on one [`SimNet`], and exposes the fault levers
//! (crash, restart, partition, heal, advance) plus the invariants the
//! sweep checks after every scenario:
//!
//! 1. **No lost jobs** — every submitted job reaches a terminal state
//!    before the (virtual) deadline, or the seed is flagged as a hang.
//! 2. **Checkpoints stay loadable** — whatever the fault schedule did,
//!    every checkpoint on disk restores through [`search::restore`].
//! 3. **Bit-identical results** — the faulty run's best genome and
//!    fitness bits equal a fault-free in-process run of the same
//!    strategy over the same [`problems::Problem`]. Faults may change
//!    *timing* (retries, failovers, fallbacks) but never *results*; any
//!    divergence is a real bug.
//!
//! A hung cluster is **abandoned, not joined**: [`Cluster::abandon`]
//! raises every stop flag and shuts the net down (simulated sleeps
//! degrade to short real naps), then drops the thread handles. Stuck
//! threads idle harmlessly until process exit — the sweep moves on to
//! the next seed instead of deadlocking the test run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use evald::{Chaos, EvalWorker};
use ga::GaConfig;
use jit::Scenario;
use served::checkpoint::RunDir;
use served::dispatch::DispatchConfig;
use served::{Client, Daemon, DaemonConfig, JobSpec, Server};
use tuner::Goal;

use crate::net::{unique_suffix, FaultPlan, SimNet};

/// The daemon's protocol address inside the simulation.
pub const DAEMON_ADDR: &str = "daemon:6000";

/// How one job ended (or failed to end).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Terminal `done`: the tuned genome and its fitness.
    Done {
        /// The best genome the search converged to.
        genes: Vec<i64>,
        /// Its fitness (compare with `to_bits` for exactness).
        fitness: f64,
        /// Generations the daemon reported.
        generations: u64,
    },
    /// Terminal `failed` or `canceled`, with the state/error message.
    Failed(String),
    /// The job never reached a terminal state before the virtual
    /// deadline — lost work, a stuck retry loop, or a real deadlock.
    Hang {
        /// Virtual milliseconds waited before giving up.
        waited_ms: u64,
    },
}

impl Outcome {
    /// Whether the job completed successfully.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }
}

/// Knobs for [`Cluster::boot`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Root seed of the simulated universe (fault schedules derive from
    /// it).
    pub seed: u64,
    /// Number of `evald` workers ("w0", "w1", …).
    pub workers: usize,
    /// The fault plan installed on every daemon↔worker link. Control
    /// links (the test's own client) are always fault-free.
    pub plan: FaultPlan,
    /// The [`DispatchConfig::redispatch`] test hook. `false` builds the
    /// intentionally-broken daemon the sweep must catch.
    pub redispatch: bool,
    /// Shard count for the daemon's sharded executor.
    pub shards: usize,
    /// Daemon job-runner threads (`DaemonConfig::workers`; the daemon
    /// itself raises this to at least `shards`).
    pub runners: usize,
    /// Per-shard queue capacity.
    pub queue_capacity: usize,
    /// Per-tenant eval-budget quotas, `(tenant, max_evals)`.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Whether the daemon gets the persistent fitness store. On by
    /// default (the offline sweep proves the store tier never perturbs
    /// a trajectory); the online sweep turns it off, because
    /// warm-start transfer *intentionally* reseeds retunes from store
    /// cells — a store-backed online run is valid but diverges from
    /// the store-free in-process reference the sweep bit-compares
    /// against.
    pub store: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            workers: 2,
            plan: FaultPlan::default(),
            redispatch: true,
            shards: 1,
            runners: 1,
            queue_capacity: 16,
            tenant_quotas: Vec::new(),
            store: true,
        }
    }
}

struct WorkerSlot {
    node: String,
    addr: String,
    stop: Arc<AtomicBool>,
}

/// A whole tuned+evald deployment on one simulated network.
pub struct Cluster {
    net: Arc<SimNet>,
    daemon: Daemon,
    server_stop: Arc<AtomicBool>,
    workers: Mutex<Vec<WorkerSlot>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    run_root: PathBuf,
    ctl: Arc<dyn served::Transport>,
    abandoned: bool,
}

impl Cluster {
    /// Boots the deployment: N workers, one daemon (1 job worker, 1
    /// local eval thread, short virtual-time dispatch timeouts), one
    /// protocol server — all on a fresh [`SimNet`] seeded from
    /// `config.seed`.
    ///
    /// # Errors
    /// Bind or run-directory failures.
    pub fn boot(config: &ClusterConfig) -> Result<Self, String> {
        let net = SimNet::new(config.seed);
        let run_root = std::env::temp_dir().join(format!(
            "simtest-{}-{}-{}",
            std::process::id(),
            config.seed,
            unique_suffix()
        ));
        let _ = std::fs::remove_dir_all(&run_root);

        let mut workers = Vec::new();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..config.workers.max(1) {
            let node = format!("w{i}");
            let addr = format!("{node}:7000");
            net.set_plan("daemon", &node, config.plan);
            net.set_plan(&node, "daemon", config.plan);
            let (stop, handle) = start_worker(&net, &node, &addr)?;
            workers.push(WorkerSlot {
                node,
                addr: addr.clone(),
                stop,
            });
            handles.push(handle);
            addrs.push(addr);
        }

        let daemon = Daemon::start(
            DaemonConfig {
                workers: config.runners,
                queue_capacity: config.queue_capacity,
                eval_threads: 1,
                eval_workers: addrs,
                shards: config.shards,
                tenant_quotas: config.tenant_quotas.clone(),
                drr_quantum: shard::drr::DEFAULT_QUANTUM,
                max_connections: 4096,
                dispatch: DispatchConfig {
                    connect_timeout: Duration::from_millis(50),
                    request_timeout: Duration::from_millis(200),
                    backoff_base: Duration::from_millis(10),
                    backoff_cap: Duration::from_millis(80),
                    max_consecutive_failures: 3,
                    // Idle dispatch threads poll on the virtual clock;
                    // a coarser tick keeps idle-advance hops cheap.
                    idle_poll: Duration::from_millis(20),
                    redispatch: config.redispatch,
                    ..DispatchConfig::default()
                },
                obs: Arc::new(obs::Registry::new()),
                transport: net.transport("daemon"),
                // Simulated deployments run with the persistent
                // fitness store enabled by default: invariant 3
                // (bit-identical results under faults) then also proves
                // the store tier never perturbs a distributed
                // trajectory. See [`ClusterConfig::store`] for why the
                // online sweep opts out.
                store: if config.store {
                    Some(Arc::new(
                        stored::Store::open(run_root.join("store"))
                            .map_err(|e| format!("store: {e}"))?,
                    ))
                } else {
                    None
                },
            },
            RunDir::open(&run_root).map_err(|e| format!("run dir: {e}"))?,
        )?;

        let server = Server::bind_on(net.transport("daemon"), DAEMON_ADDR, daemon.clone())?;
        let server_stop = server.stop_flag();
        handles.push(
            std::thread::Builder::new()
                .name("sim-tuned-server".into())
                .spawn(move || {
                    let _ = server.serve();
                })
                .map_err(|e| format!("spawn server: {e}"))?,
        );

        Ok(Self {
            ctl: net.transport("ctl"),
            net,
            daemon,
            server_stop,
            workers: Mutex::new(workers),
            handles: Mutex::new(handles),
            run_root,
            abandoned: false,
        })
    }

    /// The simulated universe (for installing extra plans or reading
    /// the fault trace).
    #[must_use]
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// The daemon handle itself — soak invariants read the authoritative
    /// state (tenant accounting, shard snapshots, exact result bits)
    /// straight from it rather than through JSON round-trips.
    #[must_use]
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// A fresh protocol client on the fault-free control link. The soak
    /// reuses one connection for thousands of submits instead of paying
    /// a connect (and a server conn thread) per job.
    ///
    /// # Errors
    /// Connection failures.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect_on(&self.ctl, DAEMON_ADDR)
    }

    /// Current virtual time, milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.net.now_micros() / 1000
    }

    /// A tiny deterministic job spec every sim test tunes: the paper's
    /// Opt scenario, total-time goal, one benchmark, population 6 × 3
    /// generations. `ga_seed` picks the search trajectory.
    #[must_use]
    pub fn spec(ga_seed: u64) -> JobSpec {
        Self::spec_for("inline", ga_seed)
    }

    /// Like [`Cluster::spec`], but tuning an arbitrary problem — mixed
    /// sweeps submit `inline`, `flags` and `dss` jobs to one daemon.
    #[must_use]
    pub fn spec_for(problem: &str, ga_seed: u64) -> JobSpec {
        JobSpec {
            name: format!("sim-{problem}-{ga_seed}"),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: "x86-p4".into(),
            suite: vec!["db".into()],
            ga: GaConfig {
                pop_size: 6,
                generations: 3,
                threads: 1,
                seed: ga_seed,
                stagnation_limit: None,
                ..GaConfig::default()
            },
            strategy: "ga".into(),
            problem: problem.into(),
            tenant: "default".into(),
            online: None,
            drift_pos: None,
        }
    }

    /// The fault-free ground truth for a spec: an in-process run of the
    /// same strategy over the same problem (what the daemon's result
    /// must bit-match, faults or no faults). For `inline` specs this is
    /// exactly [`Tuner::tune`]'s trajectory — the problem wrapper is
    /// bit-identical to the direct tuner path (test-enforced in the
    /// `problems` crate).
    ///
    /// # Errors
    /// Invalid spec.
    pub fn expected(spec: &JobSpec) -> Result<(Vec<i64>, f64), String> {
        let problem = spec.build_problem()?;
        let mut strategy = search::build(&spec.strategy, problem.space().clone(), spec.ga.clone())?;
        let backend = ga::LocalEvaluator::new(|genes: &[i64]| problem.fitness(genes), 1);
        search::drive(strategy.as_mut(), &backend);
        search::finish(strategy.as_ref())
    }

    /// Submits a job through the protocol (a control-node client over
    /// the simulated net).
    ///
    /// # Errors
    /// Connection or daemon-side rejection.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, String> {
        Client::connect_on(&self.ctl, DAEMON_ADDR)?.submit(spec)
    }

    /// Polls a job to a terminal state, driving `on_tick(now_ms)` once
    /// per poll so scenario drivers can fire timed fault events. Gives
    /// up — returning [`Outcome::Hang`] — once `deadline` of *virtual*
    /// time has elapsed since the call.
    pub fn wait(&self, id: u64, deadline: Duration, mut on_tick: impl FnMut(u64)) -> Outcome {
        let started = self.net.now_micros();
        let give_up = started + deadline.as_micros() as u64;
        let mut client = None;
        loop {
            on_tick(self.net.now_micros() / 1000);
            // (Re)connect lazily: the control link is fault-free, but a
            // server-side idle timeout may still close an old session.
            if client.is_none() {
                client = Client::connect_on(&self.ctl, DAEMON_ADDR).ok();
            }
            let state = client.as_mut().and_then(|c| match c.status(id) {
                Ok(job) => job
                    .get("state")
                    .and_then(served::json::Json::as_str)
                    .map(String::from),
                Err(_) => None,
            });
            match state {
                Some(s) if matches!(s.as_str(), "done" | "failed" | "canceled") => {
                    return self.outcome_of(id, &s);
                }
                Some(_) => {}
                None => client = None, // reconnect next tick
            }
            if self.net.now_micros() >= give_up {
                return Outcome::Hang {
                    waited_ms: (self.net.now_micros() - started) / 1000,
                };
            }
            self.ctl.sleep(Duration::from_millis(20));
        }
    }

    /// The authoritative record, straight from the daemon handle (the
    /// protocol round-trips floats through JSON; the handle keeps the
    /// exact bits the assertion needs).
    fn outcome_of(&self, id: u64, state: &str) -> Outcome {
        let Some(record) = self.daemon.status(id) else {
            return Outcome::Failed(format!("job {id} vanished from the daemon"));
        };
        if state == "done" {
            if let Some((genes, fitness)) = record.result {
                return Outcome::Done {
                    genes,
                    fitness,
                    generations: record.generation as u64,
                };
            }
        }
        Outcome::Failed(
            record
                .error
                .unwrap_or_else(|| format!("terminal state '{state}' without a result")),
        )
    }

    /// Crashes a worker: its listener dies, every stream touching it
    /// closes, in-flight frames are lost.
    pub fn crash_worker(&self, i: usize) {
        let workers = self.workers.lock().expect("workers poisoned");
        if let Some(w) = workers.get(i) {
            w.stop.store(true, Ordering::SeqCst);
            self.net.crash(&w.node);
        }
    }

    /// Restarts a crashed worker on the same address: a fresh `evald`
    /// process in the same simulated node. The daemon's `probe_dead`
    /// ping revives it in the pool on the next generation.
    ///
    /// # Errors
    /// Bind failures (e.g. the node was never crashed).
    pub fn restart_worker(&self, i: usize) -> Result<(), String> {
        let mut workers = self.workers.lock().expect("workers poisoned");
        let Some(w) = workers.get_mut(i) else {
            return Err(format!("no worker {i}"));
        };
        self.net.revive(&w.node);
        let (stop, handle) = start_worker(&self.net, &w.node, &w.addr)?;
        w.stop = stop;
        self.handles.lock().expect("handles poisoned").push(handle);
        Ok(())
    }

    /// Symmetric partition between the daemon and one worker.
    pub fn partition_worker(&self, i: usize) {
        let workers = self.workers.lock().expect("workers poisoned");
        if let Some(w) = workers.get(i) {
            self.net.partition("daemon", &w.node);
        }
    }

    /// Heals the daemon↔worker partition.
    pub fn heal_worker(&self, i: usize) {
        let workers = self.workers.lock().expect("workers poisoned");
        if let Some(w) = workers.get(i) {
            self.net.heal("daemon", &w.node);
        }
    }

    /// Jumps the virtual clock forward (blocked threads advance it on
    /// their own; this is for tests that want an explicit fast-forward).
    pub fn advance(&self, d: Duration) {
        self.net.advance(d);
    }

    /// Invariant: every checkpoint the daemon wrote restores cleanly —
    /// strategy checkpoints through [`search::restore`], online
    /// epoch-boundary snapshots through [`online::OnlineState::restore`]
    /// against the job's own spec.
    ///
    /// # Errors
    /// The first unloadable checkpoint.
    pub fn checkpoints_loadable(&self) -> Result<usize, String> {
        let dir = RunDir::open(&self.run_root).map_err(|e| format!("reopen run dir: {e}"))?;
        let mut loaded = 0;
        for id in dir.job_ids() {
            match dir.load_checkpoint(id) {
                None => {}
                Some(Err(e)) => return Err(format!("job {id}: corrupt checkpoint: {e}")),
                Some(Ok(snap)) => {
                    search::restore(snap)
                        .map_err(|e| format!("job {id}: checkpoint rejected: {e}"))?;
                    loaded += 1;
                }
            }
            match dir.load_online(id) {
                None => {}
                Some(Err(e)) => return Err(format!("job {id}: corrupt online snapshot: {e}")),
                Some(Ok(snap)) => {
                    let cfg = Self::online_config(&dir, id)?;
                    online::OnlineState::restore(cfg, snap)
                        .map_err(|e| format!("job {id}: online snapshot rejected: {e}"))?;
                    loaded += 1;
                }
            }
        }
        Ok(loaded)
    }

    /// The final online snapshot a job wrote, validated through
    /// [`online::OnlineState::restore`] before it is returned — the
    /// sweep compares its rows against the in-process reference run.
    ///
    /// # Errors
    /// Missing, corrupt, or unrestorable snapshot (or a job that was
    /// never online).
    pub fn online_snapshot(&self, id: u64) -> Result<online::OnlineSnapshot, String> {
        let dir = RunDir::open(&self.run_root).map_err(|e| format!("reopen run dir: {e}"))?;
        let snap = dir
            .load_online(id)
            .ok_or_else(|| format!("job {id}: no online snapshot on disk"))?
            .map_err(|e| format!("job {id}: corrupt online snapshot: {e}"))?;
        let cfg = Self::online_config(&dir, id)?;
        online::OnlineState::restore(cfg, snap.clone())
            .map_err(|e| format!("job {id}: online snapshot rejected: {e}"))?;
        Ok(snap)
    }

    /// The online config a job's persisted spec denotes.
    fn online_config(dir: &RunDir, id: u64) -> Result<online::OnlineConfig, String> {
        let spec = dir
            .load_spec(id)
            .ok_or_else(|| format!("job {id}: online snapshot without a spec"))?
            .map_err(|e| format!("job {id}: corrupt spec: {e}"))?;
        spec.online
            .as_ref()
            .map(served::job::OnlineSpec::config)
            .ok_or_else(|| format!("job {id}: online snapshot but an offline spec"))
    }

    /// Graceful teardown: stops the server and workers, drains the
    /// daemon, shuts the net down, joins every thread, and removes the
    /// run directory. Call only when no job is hung (use
    /// [`Cluster::abandon`] otherwise).
    pub fn shutdown(mut self) {
        self.abandoned = false;
        self.teardown(true);
    }

    /// Abandons a hung cluster: raises every stop flag and shuts the
    /// net down, but joins nothing — stuck threads degrade to slow real
    /// naps and die with the process. The run directory is left on disk
    /// (leaked threads may still touch it).
    pub fn abandon(mut self) {
        self.abandoned = true;
        self.teardown(false);
    }

    fn teardown(&mut self, join: bool) {
        self.server_stop.store(true, Ordering::SeqCst);
        for w in self.workers.lock().expect("workers poisoned").iter() {
            w.stop.store(true, Ordering::SeqCst);
        }
        if join {
            // Drain the daemon first (its workers park on a real
            // condvar, not the sim clock), then error out every blocked
            // simulated I/O so serve loops observe their stop flags.
            self.daemon.shutdown();
            self.net.shutdown();
            for h in self.handles.lock().expect("handles poisoned").drain(..) {
                let _ = h.join();
            }
            let _ = std::fs::remove_dir_all(&self.run_root);
        } else {
            self.net.shutdown();
            // Dropping the handles detaches the threads.
            self.handles.lock().expect("handles poisoned").clear();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Safety net for early returns in tests: tear down without
        // joining (shutdown()/abandon() already emptied the handle list
        // when they ran).
        if !self.handles.lock().expect("handles poisoned").is_empty() {
            self.teardown(false);
        }
    }
}

fn start_worker(
    net: &Arc<SimNet>,
    node: &str,
    addr: &str,
) -> Result<(Arc<AtomicBool>, JoinHandle<()>), String> {
    let worker = EvalWorker::bind_on(
        net.transport(node),
        addr,
        Chaos::inert(),
        Arc::new(obs::Registry::new()),
    )?;
    let stop = worker.stop_flag();
    let handle = std::thread::Builder::new()
        .name(format!("sim-evald-{node}"))
        .spawn(move || {
            let _ = worker.serve();
        })
        .map_err(|e| format!("spawn worker: {e}"))?;
    Ok((stop, handle))
}
