//! Distributed fitness evaluation, wired up in one process: two `evald`
//! eval servers on background threads, a worker pool dispatching to
//! them, and a GA search whose cache-miss evaluations go over TCP —
//! then the proof that distribution changed nothing: the tuned
//! parameters are bit-identical to a plain local run of the same seed.
//!
//! ```sh
//! cargo run --release --example distributed_tuning
//! ```
//!
//! The same topology runs across machines with the real binaries:
//! `evald --addr HOST:PORT` per worker, then
//! `tuned serve --worker HOST:PORT --worker HOST:PORT ...`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use inlinetune::evald::{Chaos, EvalWorker};
use inlinetune::prelude::*;
use inlinetune::served::dispatch::{DispatchConfig, RemoteEvaluator, WorkerPool};
use inlinetune::served::job::JobSpec;
use inlinetune::{ga, jit, obs, search, tuner};

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        name: "Opt:Tot".into(),
        scenario: jit::Scenario::Opt,
        goal: tuner::Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into(), "compress".into()],
        ga: ga::GaConfig {
            pop_size: 12,
            generations: 6,
            threads: 1,
            seed,
            stagnation_limit: None,
            ..ga::GaConfig::default()
        },
        strategy: "ga".into(),
        problem: "inline".into(),
        tenant: "default".into(),
        online: None,
        drift_pos: None,
    }
}

fn main() {
    let spec = spec(2005);

    // Two eval workers, each on an OS-assigned port. In production these
    // are separate `evald` processes on separate machines; the protocol
    // is the same either way.
    let mut addrs = Vec::new();
    let mut stops = Vec::new();
    for _ in 0..2 {
        let worker = EvalWorker::bind("127.0.0.1:0", Chaos::inert()).expect("bind worker");
        addrs.push(worker.local_addr().to_string());
        stops.push(worker.stop_flag());
        std::thread::spawn(move || worker.serve().expect("serve"));
    }
    println!("workers: {addrs:?}");

    // The dispatch side: a pool over those addresses and a remote
    // evaluator for this job. The fallback is the local evaluator —
    // used only if every worker dies. The pool counts into a
    // registry of its own, so the totals read back below are this run's.
    let mut pool = WorkerPool::with_workers(DispatchConfig::default(), &addrs);
    pool.set_obs(Arc::new(obs::Registry::new()));
    let pool = Arc::new(pool);
    let tuning = Tuner::new(
        spec.task().expect("task"),
        spec.training().expect("training suite"),
        spec.adapt_cfg(),
    );
    let remote = RemoteEvaluator::new(&pool, spec.to_json(), tuning.evaluator(1));

    // Drive the search one round at a time through the remote
    // evaluator. Only memo-table misses travel over the wire. Each
    // generation's wall-time breakdown comes from the obs layer via
    // `last_timing` — the same numbers `tuned` forwards in watch frames;
    // `eval` is the whole ask-to-tell time, dispatch and RPC included.
    let mut strategy = search::build(&spec.strategy, tuning.task().ranges(), spec.ga.clone())
        .expect("the spec names a known strategy");
    loop {
        let done = search::round(strategy.as_mut(), &remote, |_| {});
        let best = strategy.best().map_or(f64::INFINITY, |(_, f)| f);
        let remote_evals = pool.obs().counter_value("tuned_remote_completed_total");
        let t = strategy
            .last_timing()
            .expect("the ga strategy times every round");
        println!(
            "generation {:>2}: best fitness {best:.4}  \
             eval {:>6}us ({} evals, {} cached)  breed {:>4}us  \
             (remote evals so far: {remote_evals})",
            t.generation, t.eval_micros, t.evaluations, t.cache_hits, t.breed_micros,
        );
        if done {
            break;
        }
    }
    let (genes, fitness) = search::finish(strategy.as_ref()).expect("six generations ran");
    let params = InlineParams::from_genes(&genes);

    // The invariant that makes all the retry/failover machinery safe:
    // fitness is a pure function of the genome, so the distributed
    // search equals the local search bit-for-bit.
    let local = tuning.tune(spec.ga.clone());
    assert_eq!(
        params, local.params,
        "distribution must not change the result"
    );
    assert_eq!(fitness.to_bits(), local.fitness.to_bits());

    println!("\ntuned params (distributed == local): {params:?}");
    println!("fitness {fitness:.4} vs default heuristic (lower is better)");
    for w in pool.snapshots() {
        println!(
            "worker {}: {} dispatched, {} completed, mean rtt {:.2} ms",
            w.addr, w.dispatched, w.completed, w.mean_rtt_ms
        );
    }

    for stop in stops {
        stop.store(true, Ordering::SeqCst);
    }
}
