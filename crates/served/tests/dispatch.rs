//! Fault-injection tests for the remote dispatch layer, using in-test
//! fake workers: an honest one that computes real fitness, plus workers
//! that reply with garbage, oversized frames, or nothing at all.
//!
//! The fakes live on `sim`'s simulated network: no real sockets, and —
//! crucially — no real sleeps. The silent-worker scenario used to cost
//! wall-clock request timeouts per generation; on the virtual clock the
//! same timeouts resolve the instant the cluster goes idle.
//!
//! The standing invariant under test: no matter how workers misbehave,
//! a generation completes and the run is **bit-identical** to the same
//! seed evaluated locally — fitness is pure and the memo merge is keyed
//! by genome, so delivery faults can only cost time, never correctness.

use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ga::{GaConfig, LocalEvaluator};
use jit::Scenario;
use served::dispatch::{DispatchConfig, RemoteEvaluator, WorkerPool};
use served::proto::{
    err, eval_batch_response, ok_with, parse_eval_batch_request, parse_request, read_frame,
    write_frame, EvalOutcome, Frame,
};
use served::{JobSpec, NetStream, Transport};
use sim::SimNet;
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

fn fast_cfg() -> DispatchConfig {
    DispatchConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(400),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        ..DispatchConfig::default()
    }
}

/// A pool dialing out of the simulated daemon node.
/// A pool on the simulated network, counting into a registry of its
/// own so each test reads its totals from zero.
fn sim_pool(net: &Arc<SimNet>, addrs: &[String]) -> Arc<WorkerPool> {
    let mut pool = WorkerPool::with_workers(fast_cfg(), addrs);
    pool.set_transport(net.transport("daemon"));
    pool.set_obs(Arc::new(obs::Registry::new()));
    Arc::new(pool)
}

/// How a fake worker treats `eval_batch` requests.
#[derive(Clone, Copy, PartialEq)]
enum Behavior {
    /// Computes real fitness through a [`Tuner`].
    Honest,
    /// Replies with a line that is not JSON.
    Malformed,
    /// Replies with a line longer than the 1 MiB frame cap.
    Oversized,
    /// Reads requests and never replies.
    Silent,
}

/// Starts a fake worker on simulated node `node`; returns its address
/// and a stop flag.
fn fake_worker(
    net: &Arc<SimNet>,
    node: &str,
    behavior: Behavior,
    spec: &JobSpec,
) -> (String, Arc<AtomicBool>) {
    let transport = net.transport(node);
    let listener = transport
        .bind(&format!("{node}:7000"))
        .expect("bind fake worker");
    let addr = listener.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let tuner = (behavior == Behavior::Honest).then(|| {
        Tuner::new(
            spec.task().unwrap(),
            spec.training().unwrap(),
            spec.adapt_cfg(),
        )
    });
    std::thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            match listener.accept(Duration::from_millis(50)) {
                Ok(Some(stream)) => {
                    handle_conn(stream, behavior, tuner.as_ref(), &flag, &*transport);
                }
                Ok(None) => {}
                Err(_) => return,
            }
        }
    });
    (addr, stop)
}

fn handle_conn(
    stream: Box<dyn NetStream>,
    behavior: Behavior,
    tuner: Option<&Tuner>,
    stop: &AtomicBool,
    transport: &dyn Transport,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_frame(&mut reader) {
            Frame::Line(line) => line,
            Frame::Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle poll so the stop flag stays live
            }
            _ => return,
        };
        let Ok((cmd, body)) = parse_request(&line) else {
            return;
        };
        let ok = match cmd.as_str() {
            "task" | "ping" => write_frame(&mut writer, &ok_with(vec![])).is_ok(),
            "eval_batch" => match behavior {
                Behavior::Honest => {
                    let (batch_id, evals) = parse_eval_batch_request(&body).unwrap();
                    // Real compute: hold the busy bracket so the virtual
                    // clock cannot fire request deadlines while we work.
                    let results: Vec<(usize, EvalOutcome)> = {
                        let _busy = served::net::busy(transport);
                        let t = tuner.expect("honest worker has a tuner");
                        evals
                            .iter()
                            .map(|e| {
                                let fitness =
                                    t.fitness(&inliner::InlineParams::from_genes(&e.genes));
                                (e.id, EvalOutcome::Fitness(fitness))
                            })
                            .collect()
                    };
                    write_frame(&mut writer, &eval_batch_response(batch_id, &results)).is_ok()
                }
                Behavior::Malformed => {
                    writer.write_all(b"%%% not json %%%\n").is_ok() && writer.flush().is_ok()
                }
                Behavior::Oversized => {
                    let mut big = vec![b'x'; 2 << 20];
                    big.push(b'\n');
                    writer.write_all(&big).is_ok() && writer.flush().is_ok()
                }
                Behavior::Silent => true, // say nothing, keep the socket open
            },
            _ => write_frame(&mut writer, &err("unexpected verb")).is_ok(),
        };
        if !ok {
            return;
        }
    }
}

/// Runs a full GA search through a [`RemoteEvaluator`] over `pool`.
fn run_distributed(spec: &JobSpec, pool: &Arc<WorkerPool>) -> (Vec<i64>, f64) {
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let remote = RemoteEvaluator::new(pool, spec.to_json(), tuner.evaluator(1));
    let mut strategy = search::build("ga", tuner.task().ranges(), spec.ga.clone()).unwrap();
    search::drive(strategy.as_mut(), &remote);
    search::finish(strategy.as_ref()).unwrap()
}

/// The same search, entirely local.
fn run_local(spec: &JobSpec) -> (Vec<i64>, f64) {
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let outcome = tuner.tune(spec.ga.clone());
    (outcome.params.to_genes(), outcome.fitness)
}

#[test]
fn distributed_run_is_bit_identical_to_local() {
    let net = SimNet::new(11);
    let spec = tiny_spec(1701);
    let (w1, s1) = fake_worker(&net, "w0", Behavior::Honest, &spec);
    let (w2, s2) = fake_worker(&net, "w1", Behavior::Honest, &spec);
    let pool = sim_pool(&net, &[w1, w2]);

    let (genes, fitness) = run_distributed(&spec, &pool);
    let (local_genes, local_fitness) = run_local(&spec);
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(
        pool.obs().counter_value("tuned_remote_completed_total") > 0,
        "evaluations must actually have gone over the wire"
    );
    assert_eq!(
        pool.obs()
            .counter_value("tuned_remote_fallback_evals_total"),
        0,
        "healthy workers should answer everything"
    );
    s1.store(true, Ordering::SeqCst);
    s2.store(true, Ordering::SeqCst);
    net.shutdown();
}

#[test]
fn malformed_responses_evict_the_worker_without_wedging_the_run() {
    let net = SimNet::new(12);
    let spec = tiny_spec(42);
    let (bad, sb) = fake_worker(&net, "w0", Behavior::Malformed, &spec);
    let (good, sg) = fake_worker(&net, "w1", Behavior::Honest, &spec);
    let pool = sim_pool(&net, &[bad, good]);

    let (genes, fitness) = run_distributed(&spec, &pool);
    let (local_genes, local_fitness) = run_local(&spec);
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(
        pool.obs().counter_value("tuned_remote_evictions_total") >= 1,
        "garbage must get the worker evicted"
    );
    sb.store(true, Ordering::SeqCst);
    sg.store(true, Ordering::SeqCst);
    net.shutdown();
}

#[test]
fn oversized_responses_evict_the_worker_without_wedging_the_run() {
    let net = SimNet::new(13);
    let spec = tiny_spec(43);
    let (bad, sb) = fake_worker(&net, "w0", Behavior::Oversized, &spec);
    let (good, sg) = fake_worker(&net, "w1", Behavior::Honest, &spec);
    let pool = sim_pool(&net, &[bad, good]);

    let (genes, fitness) = run_distributed(&spec, &pool);
    let (local_genes, local_fitness) = run_local(&spec);
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(pool.obs().counter_value("tuned_remote_evictions_total") >= 1);
    sb.store(true, Ordering::SeqCst);
    sg.store(true, Ordering::SeqCst);
    net.shutdown();
}

#[test]
fn silent_worker_times_out_and_work_is_redispatched() {
    // On real sockets this test paid for every 400 ms request timeout in
    // wall clock; on the virtual clock the timeouts fire the moment the
    // cluster idles, so the whole scenario runs at compute speed.
    let net = SimNet::new(14);
    let spec = tiny_spec(44);
    let (mute, sm) = fake_worker(&net, "w0", Behavior::Silent, &spec);
    let (good, sg) = fake_worker(&net, "w1", Behavior::Honest, &spec);
    let pool = sim_pool(&net, &[mute, good]);

    let (genes, fitness) = run_distributed(&spec, &pool);
    let (local_genes, local_fitness) = run_local(&spec);
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(
        pool.obs().counter_value("tuned_remote_timeouts_total") >= 1,
        "the silent worker must have timed out at least once"
    );
    assert!(
        pool.obs().counter_value("tuned_remote_retries_total") >= 1,
        "timed-out work must have been re-dispatched"
    );
    sm.store(true, Ordering::SeqCst);
    sg.store(true, Ordering::SeqCst);
    net.shutdown();
}

#[test]
fn dead_pool_falls_back_to_local_and_still_matches() {
    let net = SimNet::new(15);
    let spec = tiny_spec(45);
    // Nothing listens here: every connect fails, the worker is evicted,
    // and the whole generation lands on the fallback path.
    let pool = sim_pool(&net, &["ghost:7000".to_string()]);

    let (genes, fitness) = run_distributed(&spec, &pool);
    let (local_genes, local_fitness) = run_local(&spec);
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(
        pool.obs()
            .counter_value("tuned_remote_fallback_evals_total")
            > 0
    );

    // The unanswered generation reaches the fallback as one batch, so a
    // fallback with four threads scores it on more than one of them. The
    // first caller waits (bounded) for a second to arrive: concurrency
    // is then observed whenever it is possible at all.
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let (inside, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let fitness = |genes: &[i64]| {
        peak.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        let patience = Instant::now() + Duration::from_millis(250);
        while peak.load(Ordering::SeqCst) < 2 && Instant::now() < patience {
            std::thread::yield_now();
        }
        let f = tuner.fitness(&inliner::InlineParams::from_genes(genes));
        inside.fetch_sub(1, Ordering::SeqCst);
        f
    };
    let remote = RemoteEvaluator::new(&pool, spec.to_json(), LocalEvaluator::new(fitness, 4));
    let mut strategy = search::build("ga", tuner.task().ranges(), spec.ga.clone()).unwrap();
    search::drive(strategy.as_mut(), &remote);
    let (genes, fitness) = search::finish(strategy.as_ref()).unwrap();
    assert_eq!(genes, local_genes);
    assert_eq!(fitness.to_bits(), local_fitness.to_bits());
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "a 4-thread fallback scored a whole generation one genome at a time"
    );
    net.shutdown();
}

/// Where a shard's rounds go: to its live leaseholders while it has
/// any; to the whole live pool when it has none, whether it never had
/// one or its only one was evicted. Every case stays bit-identical.
#[test]
fn a_shard_dispatches_to_its_leaseholders_or_borrows_the_live_pool() {
    const SHARDS: usize = 2;
    let spec = tiny_spec(46);
    let (local_genes, local_fitness) = run_local(&spec);
    // Simulated node names whose worker address leases `shard`.
    let lessees = |shard: usize| -> Vec<String> {
        (0..)
            .map(|i| format!("w{i}"))
            .filter(|n| shard::lease_of(&format!("{n}:7000"), SHARDS) == shard)
            .take(2)
            .collect()
    };
    let (home, away) = (lessees(0), lessees(1));
    // (case, honest workers, a dead leaseholder evicted before the run,
    // whether the shard keeps to its own leaseholders)
    let cases = [
        ("leased", [&home[..], &away[..]].concat(), None, true),
        ("starving", away.clone(), None, false),
        ("evicted", away.clone(), Some(&home[0]), false),
    ];
    for (seed, (case, honest, dead, keeps_own)) in (21..).zip(cases) {
        let net = SimNet::new(seed);
        let mut addrs = Vec::new();
        let mut stops = Vec::new();
        for node in &honest {
            let (addr, stop) = fake_worker(&net, node, Behavior::Honest, &spec);
            addrs.push(addr);
            stops.push(stop);
        }
        // Nothing listens at the dead worker's address, so the pool's
        // probe never revives it.
        let dead = dead.map(|node| format!("{node}:7000"));
        addrs.extend(dead.clone());
        let pool = sim_pool(&net, &addrs);
        for w in pool.all() {
            if dead.as_ref() == Some(&w.addr) {
                w.evict(pool.obs());
            }
        }

        let tuner = Tuner::new(
            spec.task().unwrap(),
            spec.training().unwrap(),
            spec.adapt_cfg(),
        );
        let mut remote = RemoteEvaluator::new(&pool, spec.to_json(), tuner.evaluator(1));
        remote.set_shard(0, SHARDS);
        let mut strategy = search::build("ga", tuner.task().ranges(), spec.ga.clone()).unwrap();
        search::drive(strategy.as_mut(), &remote);
        let (genes, fitness) = search::finish(strategy.as_ref()).unwrap();
        assert_eq!(genes, local_genes, "{case}");
        assert_eq!(fitness.to_bits(), local_fitness.to_bits(), "{case}");

        let used: Vec<String> = pool
            .snapshots()
            .into_iter()
            .filter(|w| w.dispatched > 0)
            .map(|w| w.addr)
            .collect();
        let leases: Vec<usize> = used.iter().map(|a| shard::lease_of(a, SHARDS)).collect();
        if keeps_own {
            assert!(!used.is_empty(), "{case}: nothing went over the wire");
            assert!(leases.iter().all(|&s| s == 0), "{case}: {used:?}");
        } else {
            assert!(leases.contains(&1), "{case}: did not borrow: {used:?}");
        }
        assert_eq!(
            pool.obs()
                .counter_value("tuned_remote_fallback_evals_total"),
            0,
            "{case}: a live pool must answer everything"
        );
        for stop in stops {
            stop.store(true, Ordering::SeqCst);
        }
        net.shutdown();
    }
}
