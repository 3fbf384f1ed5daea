//! Deterministic observability: in-process `evald` workers with fault
//! injection, every registry on an [`obs::ManualClock`], and **exact**
//! assertions on counters and histogram buckets.
//!
//! Two properties make exactness possible where most metrics tests
//! settle for `> 0`:
//!
//! * the dispatcher's failure handling is deterministic given a worker
//!   that *always* fails — `max_consecutive_failures` failures of
//!   `max_inflight` claims each produce a fixed number of retries,
//!   backoffs and exactly one eviction;
//! * a frozen manual clock makes every duration sample exactly zero, so
//!   every histogram sample lands in bucket 0 and `sum == max == 0` no
//!   matter how threads interleave.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use evald::{Chaos, ChaosConfig, EvalWorker};
use ga::{Evaluator, GaConfig};
use inliner::InlineParams;
use jit::Scenario;
use served::daemon::{Daemon, DaemonConfig};
use served::dispatch::{DispatchConfig, RemoteEvaluator, Worker, WorkerPool};
use served::json::{u64_from_json, Json};
use served::proto::{registry_from_json, registry_to_json};
use served::{Client, JobSpec, RunDir, Server};
use tuner::{Goal, Tuner};

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

fn fast_dispatch(max_inflight: usize) -> DispatchConfig {
    DispatchConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(800),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(10),
        max_consecutive_failures: 3,
        max_inflight,
        ..DispatchConfig::default()
    }
}

fn manual_registry() -> Arc<obs::Registry> {
    Arc::new(obs::Registry::with_clock(Arc::new(obs::ManualClock::new())))
}

/// An in-process worker recording into its own manual-clock registry.
struct TestWorker {
    addr: String,
    reg: Arc<obs::Registry>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestWorker {
    fn start(chaos: Chaos) -> Self {
        let reg = manual_registry();
        let worker = EvalWorker::bind_with_obs("127.0.0.1:0", chaos, Arc::clone(&reg)).unwrap();
        let addr = worker.local_addr().to_string();
        let stop = worker.stop_flag();
        let handle = std::thread::spawn(move || worker.serve().unwrap());
        Self {
            addr,
            reg,
            stop,
            handle: Some(handle),
        }
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

/// A pool over the given workers, recording — daemon-wide totals
/// included — into its own manual-clock registry.
fn manual_pool(cfg: DispatchConfig, addrs: &[String]) -> (Arc<WorkerPool>, Arc<obs::Registry>) {
    let reg = manual_registry();
    let mut pool = WorkerPool::with_workers(cfg, addrs);
    pool.set_obs(Arc::clone(&reg));
    (Arc::new(pool), reg)
}

/// Every **duration** histogram in the snapshot must have recorded all
/// its samples as exactly zero (frozen clock): all in bucket 0, zero
/// sum, zero max. Count-valued histograms (batch sizes) are exempt —
/// their samples are sizes, not clock reads.
fn assert_all_samples_zero(snap: &obs::RegistrySnapshot) {
    for (name, h) in &snap.histograms {
        if !name.contains("_micros") {
            continue;
        }
        assert_eq!(h.counts[0], h.total, "{name}: all samples in bucket 0");
        assert_eq!(h.sum, 0, "{name}: frozen clock records zero durations");
        assert_eq!(h.max, 0, "{name}: frozen clock records zero max");
    }
}

/// A worker with `drop:1.0` chaos answers its `task` handshake but kills
/// every connection at the first `eval`. The dispatcher's reaction is
/// fully deterministic, so every counter asserts an exact value:
///
/// * 3 connection attempts (`max_consecutive_failures`), each claiming
///   all 4 genomes → `retries == 3 * 4 == 12`;
/// * backoff after failures 1 and 2; the third failure evicts instead
///   → `backoffs == 2`, `evictions == 1`;
/// * nothing ever completes → `completed == 0`, the RPC latency
///   histogram exists but is empty, and all 4 genomes fall back to the
///   local path → `fallback_evals == 4`;
/// * worker side: one tuner build (`misses == 1`) then two cache hits,
///   and one chaos drop per connection → `drops == 3`.
#[test]
fn dead_dropping_worker_evicts_with_exact_counters() {
    let chaos = Chaos::new(ChaosConfig::parse("drop:1.0").unwrap(), 1);
    let worker = TestWorker::start(chaos);
    let (pool, reg) = manual_pool(fast_dispatch(4), &[worker.addr.clone()]);

    let spec = tiny_spec(3001);
    let genomes: Vec<Vec<i64>> = vec![InlineParams::jikes_default().to_genes(); 4];
    let eval = RemoteEvaluator::new(
        &pool,
        spec.to_json(),
        ga::LocalEvaluator::new(|g: &[i64]| g[0] as f64, 1),
    );
    let scores = eval.evaluate(&genomes);
    assert_eq!(scores.len(), 4, "every genome resolves via the fallback");

    let label = |base: &str| obs::labeled(base, &[("worker", &worker.addr)]);
    let snap = reg.snapshot();
    assert_eq!(snap.counter(&label("dispatch_retries")), 12);
    assert_eq!(snap.counter(&label("dispatch_evictions")), 1);
    assert_eq!(snap.counter(&label("dispatch_backoffs")), 2);
    assert_eq!(snap.counter(&label("dispatch_timeouts")), 0);
    assert_eq!(snap.counter("dispatch_fallback_evals"), 4);
    let rpc = snap
        .histogram(&label("rpc_latency_micros"))
        .expect("the latency histogram is created when dispatch starts");
    assert_eq!(rpc.total, 0, "nothing ever completed");

    assert_eq!(snap.counter("tuned_remote_completed_total"), 0);

    // Each event was counted once, so the other grain of every series
    // above — the daemon-wide total and the per-worker `workers[]` row
    // — reads the same value rather than keeping a count of its own.
    for (total, per_worker) in [
        ("tuned_remote_retries_total", "dispatch_retries"),
        ("tuned_remote_evictions_total", "dispatch_evictions"),
        ("tuned_remote_timeouts_total", "dispatch_timeouts"),
    ] {
        assert_eq!(snap.counter(total), snap.counter(&label(per_worker)));
    }
    assert_eq!(
        snap.counter("tuned_remote_fallback_evals_total"),
        snap.counter("dispatch_fallback_evals")
    );
    let row = &pool.snapshots()[0];
    assert_eq!(row.completed, 0);
    assert_eq!(row.retries, snap.counter(&label("dispatch_retries")));
    assert_eq!(row.evictions, snap.counter(&label("dispatch_evictions")));
    assert_eq!(row.timeouts, snap.counter(&label("dispatch_timeouts")));

    let wsnap = worker.reg.snapshot();
    assert_eq!(wsnap.counter("evald_connections"), 3);
    assert_eq!(wsnap.counter("evald_task_cache_misses"), 1);
    assert_eq!(wsnap.counter("evald_task_cache_hits"), 2);
    assert_eq!(wsnap.counter("evald_chaos_drops"), 3);
    assert_eq!(wsnap.counter("evald_evals"), 0);
}

/// A healthy worker under manual clocks: the full GA run stays
/// bit-identical to the local reference, every remote evaluation shows
/// up in both sides' instruments, and every latency histogram asserts
/// exact bucket contents.
#[test]
fn healthy_worker_run_is_bit_identical_with_exact_histograms() {
    let worker = TestWorker::start(Chaos::inert());
    let (pool, reg) = manual_pool(fast_dispatch(8), &[worker.addr.clone()]);
    let ga_reg = manual_registry();

    let spec = tiny_spec(3002);
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let mut state = search::build("ga", tuner.task().ranges(), spec.ga.clone()).unwrap();
    state.set_obs(Arc::clone(&ga_reg));
    let remote = RemoteEvaluator::new(&pool, spec.to_json(), tuner.evaluator(1));
    search::drive(state.as_mut(), &remote);
    let (genes, fitness) = search::finish(state.as_ref()).unwrap();

    // Bit-identity against the all-local reference run.
    let local = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    )
    .tune(spec.ga.clone());
    assert_eq!(genes, local.params.to_genes());
    assert_eq!(fitness.to_bits(), local.fitness.to_bits());

    // Every distinct evaluation went remote, none fell back, and the
    // worker answered each exactly once.
    let completed = reg.counter_value("tuned_remote_completed_total");
    assert_eq!(completed, state.evaluations() as u64);
    assert_eq!(reg.counter_value("tuned_remote_fallback_evals_total"), 0);
    assert_eq!(reg.counter_value("tuned_remote_retries_total"), 0);
    assert_eq!(reg.counter_value("tuned_remote_evictions_total"), 0);
    let stats = pool.all()[0].stats.read();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rtt_micros, 0, "frozen clock: zero RTT");

    // Dispatcher side: one latency sample per *batch* round-trip (not
    // per eval — batching is the point), and the batch-size histogram
    // accounts for every completed eval exactly once.
    let snap = reg.snapshot();
    let rpc = snap
        .histogram(&obs::labeled(
            "rpc_latency_micros",
            &[("worker", &worker.addr)],
        ))
        .unwrap();
    let batches = snap.counter("tuned_remote_batches_total");
    assert!(batches > 0, "a distributed run must send batches");
    assert_eq!(rpc.total, batches, "one latency sample per batch");
    assert!(
        rpc.total <= completed,
        "batching can only reduce round-trips"
    );
    let sizes = snap
        .histogram(&obs::labeled(
            "dispatch_batch_size",
            &[("worker", &worker.addr)],
        ))
        .unwrap();
    assert_eq!(sizes.sum, completed, "batch sizes sum to completed evals");
    assert_eq!(sizes.total, rpc.total, "one size sample per batch");
    assert_all_samples_zero(&snap);

    // Worker side: one timed eval per completed request, no drops.
    let wsnap = worker.reg.snapshot();
    assert_eq!(wsnap.counter("evald_evals"), completed);
    assert_eq!(wsnap.counter("evald_chaos_drops"), 0);
    let weval = wsnap.histogram("evald_eval_micros").unwrap();
    assert_eq!(weval.total, completed);
    assert_all_samples_zero(&wsnap);

    // GA side: one generation span and per-phase histogram sample per
    // step, all exactly zero under the manual clock.
    let gsnap = ga_reg.snapshot();
    let gens = spec.ga.generations as u64;
    assert_eq!(gsnap.counter("ga_generations"), gens);
    assert_eq!(gsnap.histogram("ga_eval_micros").unwrap().total, gens);
    assert_all_samples_zero(&gsnap);
    assert_eq!(
        gsnap
            .spans
            .iter()
            .filter(|s| s.path == "generation")
            .count() as u64,
        gens
    );
}

/// A job run *through the daemon* on a remote worker reports, in its
/// `watch` frames, the time its evaluations really took. The worker's
/// chaos delays every evaluation by a fixed sleep, so any round that
/// evaluated a genome spent at least that long between the strategy's
/// `ask` and `tell` — a lower bound no scheduler can undercut — and the
/// frame's `timing.eval_micros` must show it. (Timing the commit instead
/// of the evaluation reads tens of microseconds here.)
#[test]
fn daemon_watch_frames_time_the_evaluation_not_the_commit() {
    const DELAY_MS: u64 = 20;
    let chaos = Chaos::new(
        ChaosConfig::parse(&format!("delay:{DELAY_MS}ms")).unwrap(),
        1,
    );
    let worker = TestWorker::start(chaos);
    let dir = std::env::temp_dir().join(format!("served-obs-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = Arc::new(obs::Registry::new());
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            eval_workers: vec![worker.addr.clone()],
            obs: Arc::clone(&reg),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", daemon.clone()).unwrap();
    let addr = server.local_addr().to_string();
    let stop = server.stop_flag();
    let serving = std::thread::spawn(move || server.serve().expect("serve"));

    let spec = tiny_spec(3004);
    let id = Client::connect(&addr).unwrap().submit(&spec).unwrap();
    let mut watcher = Client::connect(&addr).unwrap();
    watcher.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut timed_rounds = 0;
    let mut check = |job: &Json| {
        let Some(t) = job.get("timing") else { return };
        let evaluations = t.get("evaluations").and_then(Json::as_i64).unwrap();
        let eval_micros = t.get("eval_micros").and_then(u64_from_json).unwrap();
        if evaluations > 0 {
            assert!(
                eval_micros >= DELAY_MS * 1000,
                "a round of {evaluations} delayed evaluations reported {eval_micros}us"
            );
            timed_rounds += 1;
        }
    };
    let last = watcher.watch(id, &mut check).unwrap();
    check(&last);
    assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
    assert!(timed_rounds > 0, "no frame carried a timed round");

    // The same number feeds the histogram: every generation's sample is
    // there, and together they cover every delayed evaluation's round.
    let snap = reg.snapshot();
    let hist = snap.histogram("ga_eval_micros").unwrap();
    assert_eq!(hist.total, spec.ga.generations as u64);
    assert!(hist.max >= DELAY_MS * 1000);

    daemon.shutdown();
    stop.store(true, Ordering::SeqCst);
    serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every daemon counter: its path in the `metrics` verb's body and the
/// registry name that is its one store.
const DAEMON_COUNTERS: [(&str, &str); 18] = [
    ("jobs_submitted", "tuned_jobs_submitted_total"),
    ("jobs_recovered", "tuned_jobs_recovered_total"),
    ("generations", "tuned_generations_total"),
    ("evaluations", "tuned_evaluations_total"),
    ("cache_hits", "tuned_cache_hits_total"),
    ("checkpoints_written", "tuned_checkpoints_written_total"),
    ("connections", "tuned_connections_total"),
    ("protocol_errors", "tuned_protocol_errors_total"),
    ("busy_rejects", "tuned_busy_rejects_total"),
    ("quota_rejects", "tuned_quota_rejects_total"),
    (
        "slow_watch_disconnects",
        "tuned_slow_watch_disconnects_total",
    ),
    ("remote.dispatched", "tuned_remote_dispatched_total"),
    ("remote.batches", "tuned_remote_batches_total"),
    ("remote.completed", "tuned_remote_completed_total"),
    ("remote.retries", "tuned_remote_retries_total"),
    ("remote.timeouts", "tuned_remote_timeouts_total"),
    ("remote.evictions", "tuned_remote_evictions_total"),
    ("remote.fallback_evals", "tuned_remote_fallback_evals_total"),
];

/// Three read paths, one source: after one distributed job — one of its
/// two workers flaky, so the failure counters move too — the `metrics`
/// verb, the `obs` verb and the `/metrics` scrape report the same value
/// for every daemon counter and job gauge, a `watch` frame's `remote`
/// object is the `metrics` verb's, and the daemon-wide retry total is
/// the sum of the per-worker rows.
#[test]
fn metrics_verb_obs_verb_and_scrape_read_one_store() {
    let flaky = TestWorker::start(Chaos::new(ChaosConfig::parse("drop:0.3").unwrap(), 7));
    let steady = TestWorker::start(Chaos::inert());
    let dir = std::env::temp_dir().join(format!("served-obs-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(
        DaemonConfig {
            workers: 1,
            eval_workers: vec![flaky.addr.clone(), steady.addr.clone()],
            dispatch: fast_dispatch(2),
            obs: manual_registry(),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", daemon.clone()).unwrap();
    let addr = server.local_addr().to_string();
    let stop = server.stop_flag();
    let serving = std::thread::spawn(move || server.serve().expect("serve"));

    // Run the job to its end on one connection, keeping the raw frames.
    let mut watcher = Client::connect(&addr).unwrap();
    watcher.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let id = watcher.submit(&tiny_spec(3005)).unwrap();
    let watch = Json::obj(vec![
        ("cmd", Json::Str("watch".into())),
        ("id", Json::Int(id as i64)),
    ]);
    let mut frame = watcher.request(&watch).unwrap();
    while frame.get("job").and_then(|j| j.get("state")) != Some(&Json::Str("done".into())) {
        frame = watcher.read_response().unwrap();
    }

    // The daemon is idle now; read it three ways. One client carries
    // both verbs so `connections` does not move between the reads.
    let mut client = Client::connect(&addr).unwrap();
    let verb = client.metrics().unwrap();
    let registry = registry_from_json(&client.obs().unwrap()).unwrap();
    let scrape = format!("\n{}", served::expo::render_scrape(&daemon));
    let verb_field = |path: &str| {
        let leaf = path.split('.').try_fold(&verb, |v, key| v.get(key));
        leaf.and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics verb lacks {path}"))
    };
    for (path, name) in DAEMON_COUNTERS {
        let v = verb_field(path);
        assert_eq!(registry.counter(name), v, "obs verb vs metrics.{path}");
        assert!(
            scrape.contains(&format!("\n# TYPE {name} counter\n{name} {v}\n")),
            "scrape vs metrics.{path} = {v}:\n{scrape}"
        );
    }
    for state in ["queued", "running", "done", "failed", "canceled"] {
        let v = verb_field(&format!("jobs.{state}"));
        let gauge = obs::labeled("tuned_jobs", &[("state", state)]);
        assert!(registry.gauges.contains(&(gauge.clone(), v as i64)));
        assert!(scrape.contains(&format!("\n{gauge} {v}\n")), "{scrape}");
    }
    assert_eq!(verb_field("jobs.done"), 1);
    assert_eq!(verb_field("generations"), 3);
    assert!(verb_field("remote.completed") > 0);
    assert!(
        scrape.contains("\ntuned_uptime_seconds 0.000\n"),
        "{scrape}"
    );

    assert_eq!(frame.get("remote"), verb.get("remote"), "watch vs metrics");
    let rows = verb.get("workers").and_then(Json::as_arr).unwrap();
    let row_sum = |key: &str| -> u64 {
        rows.iter()
            .map(|w| w.get(key).unwrap().as_u64().unwrap())
            .sum()
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(verb_field("remote.retries"), row_sum("retries"));
    assert_eq!(verb_field("remote.timeouts"), row_sum("timeouts"));
    assert_eq!(verb_field("remote.evictions"), row_sum("evictions"));
    assert_eq!(verb_field("remote.completed"), row_sum("completed"));

    daemon.shutdown();
    stop.store(true, Ordering::SeqCst);
    serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two workers — one dropping 30% of connections — still converge to the
/// bit-identical result, per-worker completions add up to the batch
/// totals, and the frozen clocks keep every histogram exact even though
/// retry scheduling is nondeterministic.
#[test]
fn chaos_and_healthy_worker_pair_keeps_exact_accounting() {
    let flaky = TestWorker::start(Chaos::new(ChaosConfig::parse("drop:0.3").unwrap(), 7));
    let steady = TestWorker::start(Chaos::inert());
    let (pool, reg) = manual_pool(fast_dispatch(2), &[flaky.addr.clone(), steady.addr.clone()]);

    let spec = tiny_spec(3003);
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let mut state = search::build("ga", tuner.task().ranges(), spec.ga.clone()).unwrap();
    state.set_obs(manual_registry());
    let remote = RemoteEvaluator::new(&pool, spec.to_json(), tuner.evaluator(1));
    search::drive(state.as_mut(), &remote);
    let (genes, fitness) = search::finish(state.as_ref()).unwrap();

    let local = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    )
    .tune(spec.ga.clone());
    assert_eq!(genes, local.params.to_genes());
    assert_eq!(fitness.to_bits(), local.fitness.to_bits());

    // Remote completions plus local fallbacks cover every distinct
    // evaluation exactly once (results merge by genome, so a retried
    // request that eventually lands still counts once per response).
    let completed = reg.counter_value("tuned_remote_completed_total");
    let per_worker: u64 = pool.all().iter().map(|w| w.stats.read().completed).sum();
    assert_eq!(
        per_worker, completed,
        "worker counters account for every response"
    );
    assert_eq!(
        completed + reg.counter_value("tuned_remote_fallback_evals_total"),
        state.evaluations() as u64
    );

    // Exactness survives chaos: every completed eval is accounted for by
    // exactly one batch-size sample's worth of size, every successful
    // batch left exactly one latency sample, and whatever durations got
    // recorded are all-zero.
    let snap = reg.snapshot();
    let rpc_total: u64 = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("rpc_latency_micros"))
        .map(|(_, h)| h.total)
        .sum();
    let (size_samples, size_sum) = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("dispatch_batch_size"))
        .fold((0u64, 0u64), |(t, s), (_, h)| (t + h.total, s + h.sum));
    assert_eq!(size_sum, completed, "batch sizes sum to completed evals");
    assert_eq!(
        size_samples, rpc_total,
        "one size sample per answered batch"
    );
    assert!(
        rpc_total <= snap.counter("tuned_remote_batches_total"),
        "chaos-killed batches send but never produce a latency sample"
    );
    assert_all_samples_zero(&snap);
    assert_all_samples_zero(&flaky.reg.snapshot());
    assert_all_samples_zero(&steady.reg.snapshot());
}

/// Polls `daemon` until job `id` is terminal.
fn wait_terminal(daemon: &Daemon, id: u64) -> served::JobRecord {
    for _ in 0..2400 {
        let r = daemon.status(id).expect("job exists");
        if r.state.is_terminal() {
            return r;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} never reached a terminal state");
}

/// `shard_store_writes`, summed over the shards.
fn store_writes(reg: &obs::Registry) -> u64 {
    let counters = reg.snapshot().counters;
    let writes = counters
        .iter()
        .filter(|(name, _)| name.starts_with("shard_store_writes{"));
    writes.map(|(_, n)| n).sum()
}

/// An online job's memo hits and store writes reach the daemon's
/// counters like an offline job's do: the `metrics` verb and the GA's
/// own registry counter give one answer to "evaluations spent vs
/// saved", and every record the store took is one shard store write.
#[test]
fn online_job_books_cache_hits_and_store_writes() {
    let dir = std::env::temp_dir().join(format!("served-obs-online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = Arc::new(obs::Registry::new());
    let store = stored::Store::open_with(
        dir.join("store"),
        stored::StoreOptions {
            obs: Arc::clone(&reg),
            ..stored::StoreOptions::default()
        },
    )
    .unwrap();
    let daemon = Daemon::start(
        DaemonConfig {
            store: Some(Arc::new(store)),
            obs: Arc::clone(&reg),
            ..DaemonConfig::default()
        },
        RunDir::open(dir.join("run")).unwrap(),
    )
    .unwrap();
    let spec = JobSpec {
        online: Some(served::job::OnlineSpec {
            epochs: 5,
            kind: workloads::DriftKind::Step,
            period: 2,
            phases: 2,
            drift_seed: 11,
            window: 1,
            threshold_pct: 2.0,
        }),
        ..tiny_spec(7)
    };
    let id = daemon.submit(spec).unwrap();
    assert_eq!(wait_terminal(&daemon, id).state.name(), "done");

    let m = daemon.metrics_snapshot();
    assert!(m.cache_hits > 0, "a GA tune revisits genomes");
    assert_eq!(m.cache_hits, reg.counter_value("ga_cache_hits"));
    // Epochs 1..=4 each probe the incumbent once, outside any GA.
    assert_eq!(m.evaluations, reg.counter_value("ga_evaluations") + 4);
    // Those probes never go near the store, so it took fewer records
    // than the job spent evaluations.
    let appends = daemon.store().unwrap().stats().appends;
    assert_eq!(store_writes(&reg), appends);
    assert!(appends < m.evaluations, "{appends} vs {}", m.evaluations);
    assert_eq!(m.generations, 5, "one booked round per epoch");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store sits in front of the dispatcher: a genome any job measured
/// is answered by the daemon and never reaches a worker again — which is
/// why a worker has no store client of its own. And a store read-hit is
/// not a store write, on whichever shard the job ran.
#[test]
fn a_repeat_job_is_served_from_the_store_and_reaches_no_worker() {
    let dir = std::env::temp_dir().join(format!("served-obs-repeat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workers = [
        TestWorker::start(Chaos::inert()),
        TestWorker::start(Chaos::inert()),
    ];
    let measured = || -> u64 {
        let regs = workers.iter().map(|w| &w.reg);
        regs.map(|r| r.counter_value("evald_evals")).sum()
    };
    let reg = Arc::new(obs::Registry::new());
    let store = Arc::new(stored::Store::open(dir.join("store")).unwrap());
    let daemon = Daemon::start(
        DaemonConfig {
            shards: 2,
            eval_workers: workers.iter().map(|w| w.addr.clone()).collect(),
            store: Some(Arc::clone(&store)),
            obs: Arc::clone(&reg),
            ..DaemonConfig::default()
        },
        RunDir::open(dir.join("run")).unwrap(),
    )
    .unwrap();

    let first = wait_terminal(&daemon, daemon.submit(tiny_spec(7)).unwrap());
    let m = daemon.metrics_snapshot();
    let (before, on_workers) = (store.stats(), measured());
    assert!(m.remote_dispatched > 0 && on_workers > 0);
    assert_eq!(before.appends, m.evaluations, "a fresh store takes it all");
    assert_eq!(store_writes(&reg), before.appends);

    let second = wait_terminal(&daemon, daemon.submit(tiny_spec(7)).unwrap());
    let (a, b) = (first.result.unwrap(), second.result.unwrap());
    assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "bit-identical");
    let after = store.stats();
    assert_eq!(after.hits, before.hits + m.evaluations, "all of it a hit");
    assert_eq!(after.appends, before.appends, "nothing new to remember");
    assert_eq!(store_writes(&reg), before.appends, "a hit is not a write");
    assert_eq!(
        daemon.metrics_snapshot().remote_dispatched,
        m.remote_dispatched
    );
    assert_eq!(measured(), on_workers, "no worker saw the repeat job");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Uptime and the rate derived from it run on the registry's clock, so
/// a manual clock pins both exactly.
#[test]
fn uptime_and_generation_rate_follow_the_registry_clock() {
    let dir = std::env::temp_dir().join(format!("served-obs-uptime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(obs::ManualClock::new());
    clock.set(7_000_000); // the daemon starts part-way through the clock's life
    let daemon = Daemon::start(
        DaemonConfig {
            obs: Arc::new(obs::Registry::with_clock(Arc::clone(&clock) as _)),
            ..DaemonConfig::default()
        },
        RunDir::open(&dir).unwrap(),
    )
    .unwrap();
    let idle = daemon.metrics_snapshot();
    assert_eq!((idle.uptime_secs, idle.generations_per_sec), (0.0, 0.0));

    let mut spec = tiny_spec(4);
    spec.ga.generations = 4;
    let id = daemon.submit(spec).unwrap();
    assert_eq!(wait_terminal(&daemon, id).generation, 4);
    clock.advance(2_000_000);
    let m = daemon.metrics_snapshot();
    assert_eq!(m.generations, 4);
    assert_eq!(m.uptime_secs, 2.0);
    assert_eq!(m.generations_per_sec, 2.0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hammers one worker's stats from many threads while a poller takes
/// snapshots: because `completed` and `rtt_micros` move under one lock,
/// every observed mean RTT must be *exactly* 1 ms — a torn read (the old
/// per-field atomics) surfaces as a fractional mean.
#[test]
fn worker_stats_snapshot_is_internally_consistent_under_load() {
    let w = Arc::new(Worker::new("x:1".into(), true));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writers: Vec<_> = (0..4)
        .map(|_| {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    w.stats.update(|s| {
                        s.completed += 1;
                        s.rtt_micros += 1000;
                    });
                }
            })
        })
        .collect();

    let poller = {
        let w = Arc::clone(&w);
        let reg = obs::Registry::new();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let s = w.snapshot(&reg);
                if s.completed > 0 {
                    assert_eq!(
                        s.mean_rtt_ms, 1.0,
                        "snapshot mixed counters from different instants: {s:?}"
                    );
                    observed += 1;
                }
            }
            observed
        })
    };

    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    assert!(
        poller.join().unwrap() > 0,
        "the poller must observe snapshots"
    );
    let s = w.stats.read();
    assert_eq!(s.completed, 80_000);
    assert_eq!(s.rtt_micros, 80_000_000);
}

/// The `obs` verb round-trips the registry through the wire JSON
/// losslessly, including u64 values beyond the f64-safe integer range.
#[test]
fn obs_json_roundtrips_exactly() {
    let reg = manual_registry();
    reg.counter("big").add(u64::MAX - 3);
    reg.counter(&obs::labeled("evals", &[("worker", "a:1")]))
        .inc();
    reg.gauge("temp").set(-42);
    let h = reg.histogram("lat");
    h.record(0);
    h.record(150);
    h.record(u64::MAX);
    drop(obs::span!(reg, "phase", idx = 3));

    let snap = reg.snapshot();
    let json = registry_to_json(&snap);
    // Through text, like the wire does it.
    let text = json.to_text();
    let parsed = served::json::parse(&text).unwrap();
    let back = registry_from_json(&parsed).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.counter("big"), u64::MAX - 3);
    assert_eq!(back.histogram("lat").unwrap().max, u64::MAX);
}
