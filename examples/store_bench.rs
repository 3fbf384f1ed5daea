//! Benchmarks the persistent fitness store (`crates/stored`).
//!
//! Two phases, one JSON object on stdout (consumed by `scripts/bench.sh`
//! into `BENCH_store.json`):
//!
//! 1. **Raw throughput** — append `RECORDS` synthetic records across
//!    three cells (every append flushes before acking, so this measures
//!    the durable path), then look every one of them up again.
//! 2. **Warm-start payoff** — tune one small cell cold (plain GA,
//!    logging every evaluation), rebuild a store from that log, and
//!    re-tune warm-started from the store under the identical budget.
//!    The store contains the cold run's own best genome, so the warm
//!    run must reach the cold target within its first generation —
//!    `warm_ok` asserts `warm_evals <= cold_evals`.
//!
//! ```sh
//! cargo run --release --example store_bench -- [RECORDS] [POP] [GENS] [SEED]
//! ```

use std::sync::Mutex;
use std::time::Instant;

use inlinetune::ga::Evaluator;
use inlinetune::prelude::*;
use inlinetune::search::{self, Strategy};
use inlinetune::stored::{digest_parts, Fingerprint, Record, Store, FEATURES};
use inlinetune::tuner::cell_fingerprint;

/// The tuner's fitness, logging every genome it actually evaluates.
struct Logging<'a> {
    tuner: &'a Tuner,
    log: Mutex<Vec<(Vec<i64>, f64)>>,
}

impl Evaluator for Logging<'_> {
    fn evaluate(&self, genomes: &[Vec<i64>]) -> Vec<f64> {
        let scores: Vec<f64> = genomes
            .iter()
            .map(|g| self.tuner.fitness(&InlineParams::from_genes(g)))
            .collect();
        self.log
            .lock()
            .expect("log poisoned")
            .extend(genomes.iter().cloned().zip(scores.iter().copied()));
        scores
    }
}

/// Runs a strategy against the tuner, logging every evaluation; stops
/// early once `stop_at` is reached (warm run) or the budget ends.
fn logged_run(
    tuner: &Tuner,
    strategy: &mut dyn Strategy,
    stop_at: Option<f64>,
) -> (Vec<(Vec<i64>, f64)>, f64, usize) {
    let backend = Logging {
        tuner,
        log: Mutex::new(Vec::new()),
    };
    let mut best = f64::INFINITY;
    let mut evals_to_best = 0;
    loop {
        let done = search::round(strategy, &backend, |_| {});
        if let Some((_, f)) = strategy.best() {
            if f < best {
                best = f;
                evals_to_best = strategy.evaluations();
            }
        }
        if stop_at.is_some_and(|bar| best <= bar) || done {
            let log = backend.log.into_inner().expect("log poisoned");
            return (log, best, evals_to_best);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut num =
        |default: usize| -> usize { args.next().and_then(|a| a.parse().ok()).unwrap_or(default) };
    let records = num(2000).max(10);
    let pop = num(8);
    let gens = num(4);
    let seed = num(7) as u64;

    let scratch = std::env::temp_dir().join(format!("store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Phase 1: durable append + lookup throughput over synthetic cells.
    let cells: Vec<Fingerprint> = (0..3)
        .map(|c| Fingerprint {
            cell_digest: digest_parts(&["store-bench", &c.to_string()]),
            arch: "x86-p4".into(),
            features: (0..FEATURES).map(|f| (c * FEATURES + f) as f64).collect(),
            problem: "inline".into(),
        })
        .collect();
    let plan: Vec<Record> = (0..records)
        .map(|i| Record {
            fingerprint: cells[i % cells.len()].clone(),
            genome: vec![i as i64, (i * 7) as i64, (i % 13) as i64, 1, 135],
            fitness: 1.0 - (i as f64) / (records as f64 * 2.0),
        })
        .collect();

    let throughput_dir = scratch.join("throughput");
    let store = Store::open(&throughput_dir).expect("bench store opens");
    let started = Instant::now();
    for rec in &plan {
        store.append(rec).expect("bench append");
    }
    let append_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for rec in &plan {
        let hit = store.get(rec.fingerprint.cell_digest, &rec.genome);
        assert_eq!(
            hit.map(f64::to_bits),
            Some(rec.fitness.to_bits()),
            "lookup lost or mangled an acked record"
        );
    }
    let lookup_secs = started.elapsed().as_secs_f64();
    drop(store);

    // Phase 2: cold vs warm-started tuning of one small cell.
    let task = TuningTask {
        name: "Opt:Tot".into(),
        scenario: jit::Scenario::Opt,
        goal: Goal::Total,
        arch: ArchModel::pentium4(),
    };
    let suite = vec![benchmark_by_name("db").expect("db exists").clone()];
    let tuner = Tuner::new(task.clone(), suite.clone(), AdaptConfig::default());
    let ga = GaConfig {
        pop_size: pop,
        generations: gens,
        threads: 1,
        seed,
        stagnation_limit: None,
        ..GaConfig::default()
    };

    let mut cold = search::build("ga", task.ranges(), ga.clone()).expect("ga builds");
    let (cold_log, target, cold_evals) = logged_run(&tuner, cold.as_mut(), None);

    let warm_dir = scratch.join("warm");
    let store = Store::open(&warm_dir).expect("warm store opens");
    let fp = cell_fingerprint(&task, &suite);
    for (genome, fitness) in &cold_log {
        store
            .append(&Record {
                fingerprint: fp.clone(),
                genome: genome.clone(),
                fitness: *fitness,
            })
            .expect("warm append");
    }
    let mut warm = search::build("warmstart", task.ranges(), ga).expect("warmstart builds");
    let planted = warm.seed_population(&store.warm_seeds(&fp, pop));
    let (_, warm_best, warm_evals) = logged_run(&tuner, warm.as_mut(), Some(target));
    drop(store);
    let _ = std::fs::remove_dir_all(&scratch);

    let warm_ok = warm_best <= target && warm_evals <= cold_evals;
    println!(
        "{{\"bench\":\"persistent fitness store\",\"records\":{records},\
         \"append_per_sec\":{:.0},\"lookup_per_sec\":{:.0},\
         \"pop\":{pop},\"gens\":{gens},\"seed\":{seed},\
         \"target\":{target:.6},\"cold_evals\":{cold_evals},\
         \"warm_evals\":{warm_evals},\"warm_seeds\":{planted},\
         \"warm_ok\":{warm_ok}}}",
        records as f64 / append_secs,
        records as f64 / lookup_secs,
    );
    assert!(warm_ok, "warm start needed more evaluations than cold");
}
