//! Per-layer numbers, each taken from outside: this file times calls
//! into the layers' public functions on the workload's own programs and
//! a seeded sample of the genomes its search evaluated. Nothing inside
//! the crates is instrumented.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use evald::{Chaos, EvalWorker, ProblemCache};
use inliner::{HotSites, InlineParams, InlineStats};
use ir::size::method_size;
use ir::MethodId;
use jit::compile::{compile_all_baseline, compile_all_opt, opt_compile_into};
use jit::exec::exec_cycles;
use jit::Scenario;
use problems::Problem;
use search::StrategySnapshot;
use served::checkpoint::strategy_snapshot_to_json;
use served::dispatch::BatchLedger;
use served::job::JobSpec;
use served::json;
use served::proto::{
    eval_batch_request, eval_batch_response, parse_eval_batch_response, EvalOutcome, EvalRequest,
};
use served::RunDir;

use crate::harness::connect_worker;
use crate::stats::{median, quantile, time_mean_s, time_s};
use crate::trace::Tracer;

/// Named values a layer measurement contributes to the report.
pub type Values = Vec<(&'static str, f64)>;

const MS: f64 = 1e3;
const US: f64 = 1e6;
const NS: f64 = 1e9;

/// `workloads`: regenerating the job's training programs, and how big
/// they are.
pub fn workloads_layer(spec: &JobSpec) -> Result<Values, String> {
    let training = spec.training()?;
    let (_, generate_s) = time_s(|| {
        for b in &training {
            std::hint::black_box(workloads::Benchmark::from_spec(b.spec.clone()));
        }
    });
    let nodes: u64 = training
        .iter()
        .flat_map(|b| &b.program.methods)
        .map(|m| u64::from(method_size(m)))
        .sum();
    Ok(vec![
        ("workloads.generate_ms", generate_s * MS),
        ("ir.size_nodes", nodes as f64),
    ])
}

/// What one genome's inlining did to one program, comparable across
/// genomes: the per-method decision statistics in method order.
type Decisions = Vec<(MethodId, InlineStats)>;

fn decisions(stats: HashMap<MethodId, InlineStats>) -> Decisions {
    let mut v: Decisions = stats.into_iter().collect();
    v.sort_by_key(|(m, _)| m.index());
    v
}

/// `inline`, `jit`, `problems`/`core`: splits `Problem::fitness` for
/// each sampled genome by re-issuing its work through the public
/// `inline`/`jit` functions under child spans: the whole call, then its
/// `measure` calls back to back as `fitness` makes them, then the pieces
/// of each `measure`. The remainder nobody claims is self time; a genome
/// whose pieces and `measure`s differ by more than 15% is flagged.
pub fn fitness_layers(
    spec: &JobSpec,
    problem: &dyn Problem,
    sample: &[Vec<i64>],
    kernel_ms: f64,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let training = spec.training()?;
    let arch = spec.arch_model()?;
    let adapt = spec.adapt_cfg();
    let no_hot = HotSites::new();
    let adaptive = spec.scenario == Scenario::Adapt;

    // Per genome, summed over the training programs.
    let mut fitness_s = Vec::new();
    let mut self_s = Vec::new();
    let mut inline_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut baseline_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut exec_s = Vec::new();
    let mut invariant_s = Vec::new();
    let mut sites = Vec::new();
    let mut size_after = Vec::new();
    // Per genome and program.
    let mut measure_s = Vec::new();
    let mut seen: Vec<Vec<Decisions>> = Vec::new();
    let mut duplicates = 0usize;
    let mut flagged = 0usize;
    for (g, genes) in sample.iter().enumerate() {
        let job = g as u32;
        let params = InlineParams::from_genes(genes);
        let genome = tracer.open("genome", job);
        let (_, whole) = tracer.timed("problems.fitness", job, || {
            std::hint::black_box(problem.fitness(genes))
        });
        let mut measures = 0.0;
        for b in &training {
            let (_, s) = tracer.timed("jit.measure", job, || {
                std::hint::black_box(jit::measure(
                    &b.program,
                    spec.scenario,
                    &arch,
                    &params,
                    &adapt,
                ))
            });
            measures += s;
            measure_s.push(s);
        }

        let split = tracer.open("jit.measure.split", job);
        let (mut inlines, mut compiles, mut baselines, mut plans) = (0.0, 0.0, 0.0, 0.0);
        let (mut base_execs, mut execs) = (0.0, 0.0);
        let (mut inlined_sites, mut final_size) = (0u64, 0u64);
        let mut signature = Vec::new();
        for b in &training {
            let program = &b.program;
            // What does not depend on the genome (and `measure` redoes
            // for every genome under Adapt).
            let (mut state, s) = tracer.timed("jit.compile_baseline", job, || {
                compile_all_baseline(program, &arch)
            });
            baselines += s;
            base_execs += tracer
                .timed("jit.exec", job, || {
                    std::hint::black_box(exec_cycles(&state, &arch))
                })
                .1;
            let (plan, s) = tracer.timed("jit.plan", job, || {
                jit::adaptive::plan(program, &arch, &adapt)
            });
            plans += s;
            // The inliner alone, over the methods `measure` inlines into.
            let (targets, hot) = if adaptive {
                (plan.hot_methods.clone(), &plan.hot_sites)
            } else {
                (program.reachable(), &no_hot)
            };
            let ((_, stats), s) = tracer.timed("inline.transform", job, || {
                inliner::inline_program(program, &params, hot, &targets)
            });
            inlines += s;
            inlined_sites += stats.values().map(|st| u64::from(st.inlined)).sum::<u64>();
            final_size += stats
                .values()
                .map(|st| u64::from(st.final_size))
                .sum::<u64>();
            signature.push(decisions(stats));
            // Opt compilation (inlining included), then the cost model.
            compiles += tracer
                .timed("jit.compile_opt", job, || {
                    if adaptive {
                        for &m in &plan.hot_methods {
                            opt_compile_into(&mut state, program, m, &arch, &params, hot);
                        }
                    } else {
                        state = compile_all_opt(program, &arch, &params, hot);
                    }
                })
                .1;
            execs += tracer
                .timed("jit.exec", job, || {
                    std::hint::black_box(exec_cycles(&state, &arch))
                })
                .1;
        }
        tracer.close(split);
        tracer.close(genome);

        let invariant = baselines + base_execs + plans;
        let pieces = if adaptive {
            invariant + compiles + execs
        } else {
            compiles + execs
        };
        if (pieces - measures).abs() > 0.15 * measures {
            flagged += 1;
        }
        if seen.contains(&signature) {
            duplicates += 1;
        } else {
            seen.push(signature);
        }
        fitness_s.push(whole);
        self_s.push(whole - measures);
        inline_s.push(inlines);
        compile_s.push(compiles);
        baseline_s.push(baselines);
        plan_s.push(plans);
        exec_s.push(execs);
        invariant_s.push(invariant);
        sites.push(inlined_sites as f64);
        size_after.push(final_size as f64);
    }

    // Share of an Adapt measurement that does not depend on the genome.
    let adapt_measure_s = if adaptive {
        measure_s.iter().sum::<f64>() / sample.len() as f64
    } else {
        let first = InlineParams::from_genes(&sample[0]);
        training
            .iter()
            .map(|b| {
                time_s(|| {
                    std::hint::black_box(jit::measure(
                        &b.program,
                        Scenario::Adapt,
                        &arch,
                        &first,
                        &adapt,
                    ))
                })
                .1
            })
            .sum()
    };

    let fitness_p50 = median(&fitness_s);
    Ok(vec![
        ("inline.transform_ms", median(&inline_s) * MS),
        ("inline.sites_inlined", median(&sites)),
        ("inline.size_after", median(&size_after)),
        (
            "inline.decision_dup_ratio",
            duplicates as f64 / sample.len() as f64,
        ),
        ("jit.compile_opt_ms", median(&compile_s) * MS),
        ("jit.compile_baseline_ms", median(&baseline_s) * MS),
        ("jit.plan_ms", median(&plan_s) * MS),
        ("jit.exec_ms", median(&exec_s) * MS),
        ("jit.measure_ms_p50", median(&measure_s) * MS),
        ("jit.measure_ms_p95", quantile(&measure_s, 0.95) * MS),
        (
            "jit.invariant_share",
            median(&invariant_s) / adapt_measure_s,
        ),
        ("problems.fitness_ms_p50", fitness_p50 * MS),
        ("problems.fitness_ms_p95", quantile(&fitness_s, 0.95) * MS),
        ("problems.fitness_calib", fitness_p50 * MS / kernel_ms),
        ("core.fitness_self_ms", median(&self_s) * MS),
        ("trace.split_flagged", flagged as f64),
    ])
}

/// A store record for the `i`-th synthetic genome of `fp`'s cell.
fn record(fp: &stored::Fingerprint, i: usize) -> stored::Record {
    stored::Record {
        fingerprint: fp.clone(),
        genome: vec![i as i64, (i * 7) as i64, 3, 1000, 100],
        fitness: 1.0 - i as f64 * 1e-6,
    }
}

/// `stored`: appends, lookups and a re-open (wal replay) of a scratch
/// store holding 512 records of the job's cell.
pub fn stored_layer(problem: &dyn Problem, dir: &Path) -> Result<Values, String> {
    const RECORDS: usize = 512;
    let fp = problem.fingerprint();
    let dir = dir.join("layer-store");
    let store = stored::Store::open(&dir)?;
    let mut appends = Vec::with_capacity(RECORDS);
    for i in 0..RECORDS {
        let rec = record(fp, i);
        let (fresh, s) = time_s(|| store.append(&rec));
        fresh?;
        appends.push(s);
    }
    let get_s = time_mean_s(RECORDS, |i| {
        std::hint::black_box(store.get(fp.cell_digest, &record(fp, i).genome));
    });
    drop(store);
    let (reopened, open_s) = time_s(|| stored::Store::open(&dir));
    drop(reopened?);
    Ok(vec![
        ("stored.append_us", median(&appends) * US),
        ("stored.get_us", get_s * US),
        ("stored.open_ms", open_s * MS),
    ])
}

/// A 16-genome `eval_batch` payload drawn (cyclically) from `genomes`.
fn batch_of_16(genomes: &[Vec<i64>]) -> Vec<EvalRequest> {
    genomes
        .iter()
        .cycle()
        .take(16)
        .enumerate()
        .map(|(id, genes)| EvalRequest {
            id,
            genes: genes.clone(),
        })
        .collect()
}

/// `served.json` / `served.proto`: one 16-genome `eval_batch` frame out,
/// its response back.
pub fn codec_layer(sample: &[Vec<i64>]) -> Values {
    const ITERS: usize = 200;
    let evals = batch_of_16(sample);
    let encode_s = time_mean_s(ITERS, |i| {
        std::hint::black_box(eval_batch_request(i as u64, &evals).to_text());
    });
    let request = eval_batch_request(1, &evals).to_text();
    let results: Vec<(usize, EvalOutcome)> = (0..evals.len())
        .map(|i| (i, EvalOutcome::Fitness(0.9 + i as f64 / 977.0)))
        .collect();
    let response = eval_batch_response(1, &results).to_text();
    let parse_s = time_mean_s(ITERS, |_| {
        let v = json::parse(&response).expect("own response parses");
        std::hint::black_box(parse_eval_batch_response(&v).expect("own response decodes"));
    });
    vec![
        ("served.json.encode_us", encode_s * US),
        ("served.json.parse_us", parse_s * US),
        ("served.proto.batch_bytes", request.len() as f64),
    ]
}

/// `served.dispatch`: the exactly-once ledger alone, and what one warm
/// 16-genome `eval_batch` round trip to an eval worker costs beyond
/// computing the batch locally. The batch is of a problem whose fitness
/// takes microseconds (`spec`, `genomes`): with millisecond fitness the
/// difference of the two timings is all noise.
pub fn dispatch_layer(
    spec: &JobSpec,
    problem: &dyn Problem,
    genomes: &[Vec<i64>],
) -> Result<Values, String> {
    const SLOTS: usize = 4096;
    let (_, ledger_s) = time_s(|| {
        let ledger = BatchLedger::new(SLOTS, 0);
        while ledger.remaining() > 0 {
            for idx in ledger.claim(8) {
                ledger.resolve(idx, 1.0);
            }
        }
        std::hint::black_box(ledger.into_results());
    });

    let worker = EvalWorker::bind_with_obs(
        "127.0.0.1:0",
        Chaos::inert(),
        Arc::new(obs::Registry::new()),
    )?;
    let addr = worker.local_addr();
    let stop = worker.stop_flag();
    let server = std::thread::spawn(move || worker.serve());
    let rpc = (|| {
        let mut client = connect_worker(&addr, spec)?;
        let evals = batch_of_16(genomes);
        // One batch to warm the connection, then alternate remote and
        // local so both see the same machine weather.
        client.call(&eval_batch_request(0, &evals))?;
        let mut overhead = Vec::new();
        for round in 1..=20u64 {
            let (resp, remote_s) = time_s(|| client.call(&eval_batch_request(round, &evals)));
            parse_eval_batch_response(&resp?)?;
            let (_, local_s) = time_s(|| {
                for e in &evals {
                    std::hint::black_box(problem.fitness(&e.genes));
                }
            });
            overhead.push(remote_s - local_s);
        }
        Ok::<f64, String>(median(&overhead))
    })();
    stop.store(true, Ordering::SeqCst);
    server
        .join()
        .expect("eval worker thread panicked")
        .map_err(|e| format!("eval worker: {e}"))?;
    Ok(vec![
        ("served.dispatch.ledger_us", ledger_s * US),
        ("served.dispatch.rpc_overhead_ms", rpc? * MS),
    ])
}

/// `served.checkpoint`: encoding, the atomic write (fsync + rename) and
/// the load of one real strategy snapshot.
pub fn checkpoint_layer(snapshot: &StrategySnapshot, dir: &Path) -> Result<Values, String> {
    let encode_s = time_mean_s(50, |_| {
        std::hint::black_box(strategy_snapshot_to_json(snapshot).to_text());
    });
    let bytes = strategy_snapshot_to_json(snapshot).to_text().len();
    let run_dir = RunDir::open(dir.join("layer-run"))?;
    let mut writes = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..20 {
        let (saved, s) = time_s(|| run_dir.save_checkpoint(1, snapshot));
        saved?;
        writes.push(s);
        let (loaded, s) = time_s(|| run_dir.load_checkpoint(1));
        loaded.ok_or("checkpoint just written is missing")??;
        loads.push(s);
    }
    Ok(vec![
        ("served.checkpoint.encode_us", encode_s * US),
        ("served.checkpoint.write_ms", median(&writes) * MS),
        ("served.checkpoint.load_ms", median(&loads) * MS),
        ("served.checkpoint.bytes", bytes as f64),
    ])
}

/// `shard`: one enqueue + dequeue through the DRR scheduler with four
/// tenants queued, and one admit + charge + settle through the quota
/// accountant.
pub fn shard_layer() -> Values {
    const OPS: usize = 20_000;
    let tenants = ["a", "b", "c", "d"];
    let mut drr = shard::DrrScheduler::new(shard::drr::DEFAULT_QUANTUM);
    for (i, t) in tenants.iter().enumerate() {
        drr.enqueue(t, i as u64, 256);
    }
    let drr_s = time_mean_s(OPS, |i| {
        drr.enqueue(tenants[i % 4], (i + 4) as u64, 256);
        std::hint::black_box(drr.dequeue());
    });
    let mut quota = shard::QuotaAccountant::with_quotas(&[("a".to_string(), u64::MAX)]);
    let quota_s = time_mean_s(OPS, |_| {
        quota.admit("a", 512).expect("unlimited quota admits");
        quota.charge("a", 400);
        quota.settle("a", 112);
    });
    vec![
        ("shard.drr_us", drr_s * US),
        ("shard.quota_us", quota_s * US),
    ]
}

/// `evald`: building a job's problem on a worker's first `task`
/// handshake, and finding it cached on the next.
pub fn evald_layer(spec: &JobSpec) -> Result<Values, String> {
    let cache = ProblemCache::new();
    let (first, miss_s) = time_s(|| cache.get(spec));
    first?;
    let hit_s = time_mean_s(1000, |_| {
        std::hint::black_box(cache.get(spec).expect("cached problem"));
    });
    Ok(vec![
        ("evald.cache_miss_ms", miss_s * MS),
        ("evald.cache_hit_us", hit_s * US),
    ])
}

/// `obs`: the cost of one record call of each kind — what the 2%
/// recording budget is spent in.
pub fn obs_layer() -> Values {
    let registry = Arc::new(obs::Registry::new());
    let counter = registry.counter("bench_counter");
    let counter_s = time_mean_s(1_000_000, |_| counter.inc());
    let hist = registry.histogram("bench_hist");
    let hist_s = time_mean_s(1_000_000, |i| hist.record(i as u64 & 0xffff));
    let span_s = time_mean_s(100_000, |_| drop(registry.span("bench_span")));
    vec![
        ("obs.counter_ns", counter_s * NS),
        ("obs.hist_record_ns", hist_s * NS),
        ("obs.span_ns", span_s * NS),
    ]
}
