//! End-to-end simulation tests: the acceptance gates of the harness.
//!
//! * Every scenario (`fault`, `mixed`, `store`, `online`, `shard`,
//!   `scale`, `queue`) sweeps green at small scale, demonstrably
//!   exercises its faults, and replays a seed to the same verdict and
//!   evidence.
//! * A seeded drop/partition/crash schedule that kills a worker
//!   mid-generation still converges to the exact fault-free genome.
//! * A daemon with re-dispatch disabled (lost work on retry) is caught
//!   by the sweep within a handful of seeds.
//! * Checkpoints written under faults stay loadable.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use sim::scenario::{replay, sweep};
use sim::{
    Cluster, ClusterConfig, FaultPlan, FaultScenario, MixedScenario, OnlineScenario, Outcome,
    QueueScenario, Scale, ScaleScenario, Scenario, ShardScale, ShardScenario, StoreScenario,
    SweepReport, MIXED_PROBLEMS,
};

/// One timeout unit. Deadlines scale off `SIM_TIMEOUT_MS` (default
/// 1000) so slow or loaded machines can stretch every bound with one
/// env var instead of editing constants — the same knob the served
/// integration suites honor. (Inside a sweep the bounds cap *virtual*
/// time; [`row`]'s watchdog caps a whole row's wall-clock time. Both
/// exist to catch real hangs, not to race the clock: the default leaves
/// an enormous margin over a healthy run.)
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

/// The checks of one [`row`]: a small sweep from `base` must be
/// green and have teeth, and `twice` — replayed twice over one truth
/// cache — must reach the same verdict and book the same `pure`
/// counters both times. (Thread interleaving may move retry counts,
/// virtual time and the trace between executions; the *outcome* and
/// the evidence derived from the seed alone may not. That purity is
/// what makes `simtest <scenario> --seed N` a complete recipe.)
fn row_checks<S: Scenario>(
    base: u64,
    seeds: u64,
    twice: u64,
    scale: &Scale,
    pure: &[&str],
) -> SweepReport {
    let report = sweep::<S>(base, seeds, scale);
    assert_eq!(
        report.passed,
        seeds,
        "{} sweep failed seeds: {:?}",
        S::NAME,
        report
            .failures
            .iter()
            .map(|f| (f.seed, &f.failures))
            .collect::<Vec<_>>()
    );
    assert_eq!(S::exercised(&report), Ok(()), "{} has no teeth", S::NAME);

    let mut truth = S::Truth::default();
    let a = replay::<S>(twice, scale, &mut truth);
    let b = replay::<S>(twice, scale, &mut truth);
    assert!(a.is_ok(), "{} seed {twice}: {:?}", S::NAME, a.failures);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.replay_line(), b.replay_line());
    for name in pure {
        assert_eq!(a.counters.get(name), b.counters.get(name), "{name}");
    }
    report
}

/// One row of the scenario table, run on its own thread under a
/// wall-clock watchdog of `bound(300)`: the virtual-time bounds inside a
/// sweep cannot fire while its threads wait on each other, so a hung row
/// fails here, naming its scenario and base seed, instead of hanging the
/// suite. A row's own assertion failure is re-raised as it is.
fn row<S: Scenario + 'static>(
    base: u64,
    seeds: u64,
    twice: u64,
    scale: &Scale,
    pure: &'static [&'static str],
) -> SweepReport {
    let (tx, rx) = mpsc::channel();
    let scale = scale.clone();
    let worker = thread::Builder::new()
        .name(format!("row-{}", S::NAME))
        .spawn(move || {
            let _ = tx.send(row_checks::<S>(base, seeds, twice, &scale, pure));
        })
        .expect("spawn a row thread");
    let limit = bound(300);
    match rx.recv_timeout(limit) {
        Ok(report) => report,
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("a row either reports or panics"),
        },
        Err(RecvTimeoutError::Timeout) => panic!(
            "{} sweep from base seed {base} still running after {limit:?}: hung",
            S::NAME
        ),
    }
}

#[test]
fn every_scenario_sweeps_green_with_teeth_and_replays_the_same() {
    let plain = Scale::default();

    // `fault`: the healthy daemon rides out every schedule, and the
    // schedules are not inert.
    let fault = row::<FaultScenario>(1, 6, 3, &plain, &["jobs_done"]);
    assert_eq!(fault.counters.get("jobs_done"), 6);

    // `mixed`: one daemon, three queued jobs — inline, flags, dss — per
    // seed; every submitted job must land, none dropped from the queue.
    let mixed = row::<MixedScenario>(1, 3, 2, &plain, &["jobs_done"]);
    assert_eq!(
        mixed.counters.get("jobs_done"),
        3 * MIXED_PROBLEMS.len() as u64
    );

    // `store`: no acknowledged record lost, and the kill actually tore
    // wal tails (the recovery path, not just clean restarts).
    let store = row::<StoreScenario>(1, 16, 5, &plain, &["records", "torn_bytes"]);
    assert!(store.counters.get("torn_scenarios") > 0);
    assert!(store.counters.get("records") > 0);

    // `online`: the daemon's whole epoch trajectory equals the
    // in-process reference runner, and drift detection fired.
    let online = row::<OnlineScenario>(1, 6, 2, &plain, &["retunes"]);
    assert!(online.counters.get("retunes") > 0);

    // `shard`: the soak at tier-1 scale — `simtest shard:50` runs the
    // headline 1000-client / 100-worker sweep in CI.
    let small = Scale {
        shard: ShardScale {
            clients: 32,
            workers: 6,
            shards: 4,
            runners: 4,
        },
        broken: false,
    };
    let shard = row::<ShardScenario>(11, 2, 11, &small, &[]);
    let admitted = shard.counters.get("admitted");
    assert!(admitted > 0, "the soak admitted nothing");
    assert_eq!(
        shard.counters.get("jobs_done"),
        admitted,
        "every admitted job must finish"
    );
    // The capped tenant's budget admits roughly a quarter of its
    // clients; the rest must have seen structured quota rejects.
    assert!(
        shard.counters.get("quota_rejects") > 0,
        "the soak never exercised the quota path"
    );
}

#[test]
fn the_fleet_scenarios_sweep_green_with_teeth_and_replay_the_same() {
    let plain = Scale::default();

    // `scale`: seeds 1..=4 are one per fleet size (2, 4, 8, 16 workers
    // by `seed % 4`) under a crash, no fault and lossy links; seed 11
    // partitions w1 of a 16-worker fleet. Each must be bit-identical and
    // lossless, the fault-free one all-remote and batched, and every
    // fleet without a crash or partition fanned out (the checks inside
    // the scenario); replaying one twice books the same evaluations.
    let scale = row::<ScaleScenario>(1, 4, 11, &plain, &["jobs_done", "evaluations"]);
    assert_eq!(scale.counters.get("jobs_done"), 4);
    assert_eq!(
        scale.counters.get("remote_completed") + scale.counters.get("remote_fallback_evals"),
        scale.counters.get("evaluations"),
        "a genome was lost or double-counted"
    );

    // `queue`: one backlog, every job done and bit-identical at 1 shard
    // and at S; the sharded drain is the shorter one.
    let queue = row::<QueueScenario>(1, 1, 3, &plain, &["jobs_done"]);
    assert_eq!(queue.counters.get("jobs_done"), 32);
    assert!(queue.counters.get("sharded_ms") < queue.counters.get("single_queue_ms"));
}

#[test]
fn crash_partition_and_frame_faults_converge_to_the_fault_free_result() {
    let cluster = Cluster::boot(&ClusterConfig {
        seed: 42,
        workers: 2,
        plan: FaultPlan {
            drop_p: 0.08,
            dup_p: 0.02,
            delay_p: 0.30,
            delay_max_micros: 15_000,
        },
        redispatch: true,
        ..ClusterConfig::default()
    })
    .expect("cluster boots");

    let spec = Cluster::spec(7);
    let (want_genes, want_fitness) = Cluster::expected(&spec).expect("reference tune");
    let id = cluster.submit(&spec).expect("submit");

    // Kill worker 0 mid-generation, cut worker 1 off for a window, then
    // let both come back — the job must ride it out on retries,
    // failover, and the local fallback.
    let mut fired = [false; 4];
    let outcome = cluster.wait(id, bound(60), |now_ms| {
        let mut fire = |slot: usize, at: u64| {
            let due = now_ms >= at && !fired[slot];
            if due {
                fired[slot] = true;
            }
            due
        };
        if fire(0, 60) {
            cluster.crash_worker(0);
        }
        if fire(1, 90) {
            cluster.partition_worker(1);
        }
        if fire(2, 180) {
            cluster.heal_worker(1);
        }
        if fire(3, 220) {
            cluster.restart_worker(0).expect("worker restarts");
        }
    });

    let Outcome::Done {
        genes,
        fitness,
        generations,
    } = outcome
    else {
        panic!("job did not finish under faults: {outcome:?}");
    };
    assert_eq!(genes, want_genes, "fault schedule changed the genome");
    assert_eq!(
        fitness.to_bits(),
        want_fitness.to_bits(),
        "fault schedule changed the fitness bits"
    );
    assert_eq!(generations, 3);
    let loaded = cluster.checkpoints_loadable().expect("checkpoints load");
    assert!(loaded >= 1, "expected at least one loadable checkpoint");
    assert!(
        fired.iter().all(|f| *f),
        "scenario too short to fire every fault event: {fired:?}"
    );
    cluster.shutdown();
}

#[test]
fn sweep_catches_a_daemon_that_loses_redispatched_work() {
    // The intentionally-broken build: DispatchConfig::redispatch = false
    // silently drops work claimed by a failing worker. With frame drops
    // in the schedule, some seed must hang on the lost genome.
    let broken = Scale {
        broken: true,
        ..Scale::default()
    };
    let report = sweep::<FaultScenario>(9, 4, &broken);
    assert!(
        !report.failures.is_empty(),
        "no seed caught the lost-work bug — the sweep has no teeth"
    );
    for f in &report.failures {
        assert!(
            !f.trace.is_empty(),
            "failing seed {} carries no fault trace to replay from",
            f.seed
        );
        assert!(
            f.replay_line()
                .ends_with(&format!("fault --seed {} --broken", f.seed)),
            "a seed caught under --broken must say so: {}",
            f.replay_line()
        );
    }
}
