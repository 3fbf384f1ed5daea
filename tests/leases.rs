//! A worker's shard lease outlives the liveness TTL: on a 2-shard daemon
//! whose static `eval_workers` never heartbeat, a job started after
//! `stale_after` still dispatches only to the workers leasing its shard,
//! and still bit-matches the in-process tuner.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inlinetune::evald::{Chaos, EvalWorker};
use inlinetune::obs;
use inlinetune::served::{Daemon, DaemonConfig, DispatchConfig, JobSpec, JobState, RunDir};
use inlinetune::tuner::Tuner;

const SHARDS: usize = 2;

#[test]
fn static_workers_keep_their_leases_past_the_liveness_ttl() {
    // Loopback ports are arbitrary, so leases are too: start workers
    // until both shards have a leaseholder.
    let mut addrs = Vec::new();
    let mut stops = Vec::new();
    let mut serving = Vec::new();
    while addrs.len() < 16 {
        let worker = EvalWorker::bind_with_obs(
            "127.0.0.1:0",
            Chaos::inert(),
            Arc::new(obs::Registry::new()),
        )
        .unwrap();
        addrs.push(worker.local_addr());
        stops.push(worker.stop_flag());
        serving.push(std::thread::spawn(move || worker.serve().unwrap()));
        if (0..SHARDS).all(|s| addrs.iter().any(|a| shard::lease_of(a, SHARDS) == s)) {
            break;
        }
    }

    let stale_after = Duration::from_millis(200);
    let dir = std::env::temp_dir().join(format!("inlinetune-leases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DaemonConfig {
        shards: SHARDS,
        eval_workers: addrs,
        dispatch: DispatchConfig {
            stale_after,
            max_inflight: 1,
            ..DispatchConfig::default()
        },
        obs: Arc::new(obs::Registry::new()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, RunDir::open(&dir).unwrap()).unwrap();
    std::thread::sleep(stale_after * 2);

    let spec = JobSpec::from_text(
        r#"{"name":"leases","scenario":"opt","goal":"tot","arch":"x86-p4","suite":["db"],
            "ga":{"pop_size":6,"generations":3,"threads":1,"seed":30,"stagnation_limit":null}}"#,
    )
    .unwrap();
    let tuner = Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    );
    let tuned = tuner.tune(spec.ga.clone());
    let id = daemon.submit(spec).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let record = loop {
        let record = daemon.status(id).unwrap();
        if record.state.is_terminal() {
            break record;
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(record.state, JobState::Done, "{:?}", record.error);
    let (genes, fitness) = record.result.unwrap();
    assert_eq!(genes, tuned.params.to_genes());
    assert_eq!(fitness.to_bits(), tuned.fitness.to_bits());

    let home = shard::shard_of(id, SHARDS);
    let used: Vec<String> = daemon
        .pool()
        .snapshots()
        .into_iter()
        .filter(|w| w.dispatched > 0)
        .map(|w| w.addr)
        .collect();
    assert!(!used.is_empty(), "nothing went over the wire");
    for addr in &used {
        assert_eq!(
            shard::lease_of(addr, SHARDS),
            home,
            "{addr} does not lease shard {home}, yet served job {id}"
        );
    }

    daemon.shutdown();
    for stop in &stops {
        stop.store(true, Ordering::SeqCst);
    }
    for s in serving {
        s.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
