//! The traced run: the per-layer ledger of one workload.
//!
//! Spans are opened by this file around calls into the layers — nothing
//! inside the crates is instrumented. The run (1) pushes one repetition
//! through the daemon for the numbers only the daemon has (submit,
//! scheduling delay, batches, store hits, the control-plane floor),
//! (2) replays the workload's searches from its own loop — `search::build`
//! → `ask` → `Problem::fitness` per miss (or `eval_batch` frames to two
//! eval workers) → `tell` → `snapshot` → `save_checkpoint` — with spans
//! off and with spans on, the two taking turns round by round, (3)
//! splits fitness calls of a seeded genome sample into their
//! `inline`/`jit` parts, and (4) times the remaining layers alone. Spans stay in memory and are written to
//! `out/trace-<workload>.jsonl` at the end.

use std::path::Path;
use std::time::Instant;

use problems::Problem;
use search::{Strategy, StrategySnapshot};
use served::job::JobSpec;
use served::json::Json;
use served::proto::{eval_batch_request, parse_eval_batch_response, EvalOutcome, EvalRequest};
use served::{Client, RunDir};

use crate::checks::{self, Reference};
use crate::harness::{connect_worker, run_job, Scratch, Stack};
use crate::layers::{self, Values};
use crate::report::{Metric, Report, Tally, Timing};
use crate::run::{build_problems, Options};
use crate::spec::{self, Workload};
use crate::stats::{median, summarize, time_s, Calib};

/// Genomes whose fitness call is split into its parts.
const SAMPLE: usize = 24;

pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The job (or sampled genome) every span of one request shares.
    pub job: u32,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// An in-memory span recorder. Switched off it records nothing, which
/// is how the untraced replay runs.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, job: u32) -> u32 {
        self.open_at(name, job, Instant::now())
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        self.close_at(id, Instant::now());
    }

    /// [`Tracer::open`] for a span that began at `start` — the client
    /// side of a job is only known once its frames are in.
    pub fn open_at(&mut self, name: &'static str, job: u32, start: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        let start_us = self.at_us(start);
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            job,
            name,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        id
    }

    /// [`Tracer::close`] for a span that ended at `end`.
    pub fn close_at(&mut self, id: u32, end: Instant) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_us = self.at_us(end);
    }

    /// Records a span measured elsewhere (another thread, the client
    /// side of a socket) under the innermost open one.
    pub fn add(&mut self, name: &'static str, job: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.open.last().copied(),
            job,
            name,
            start_us: self.at_us(start),
            end_us: self.at_us(end),
        });
    }

    /// Runs `f` inside a span; returns its result and its duration in
    /// seconds (measured either way, so callers can use it untraced).
    pub fn timed<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, job);
        let (out, s) = time_s(f);
        self.close(id);
        (out, s)
    }

    /// Durations in seconds of every span called `name` recorded at or
    /// after span number `from`.
    fn durations(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .collect()
    }

    /// One span per line: name, start, end, id, parent, job, and the
    /// self time (duration minus what child spans cover).
    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut covered = vec![0u64; self.spans.len()];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_us, s.end_us));
            }
        }
        for (i, intervals) in children.iter_mut().enumerate() {
            // Children of a parallel step overlap: count their union.
            intervals.sort_unstable();
            let mut reach = 0;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered[i] += end - from;
                    reach = end;
                }
            }
        }
        let mut text = String::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let line = Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                ("start_us", Json::Int(s.start_us as i64)),
                ("end_us", Json::Int(s.end_us as i64)),
                ("id", Json::Int(i64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                ),
                ("job", Json::Int(i64::from(s.job))),
                (
                    "self_us",
                    Json::Int((s.end_us - s.start_us).saturating_sub(covered) as i64),
                ),
            ]);
            text.push_str(&line.to_text());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// When one worker's `eval_batch` round trip began and ended.
type LinkSpan = (Instant, Instant);

/// Two warm connections to the eval workers, each bound to one job's
/// cell by the `task` handshake — the benchmark's own dispatcher.
struct Remote {
    links: Vec<Client>,
    next_batch: u64,
}

impl Remote {
    fn connect(addrs: &[String], spec: &JobSpec) -> Result<Self, String> {
        let links = addrs
            .iter()
            .map(|addr| connect_worker(addr, spec))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            links,
            next_batch: 1,
        })
    }

    /// Splits `batch` evenly over the workers, one `eval_batch` frame
    /// each, in parallel. Returns the scores and each link's (start,
    /// end) for the tracer.
    fn evaluate(&mut self, batch: &[Vec<i64>]) -> Result<(Vec<f64>, Vec<LinkSpan>), String> {
        let share = batch.len().div_ceil(self.links.len()).max(1);
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let replies: Vec<_> = std::thread::scope(|s| {
            let calls: Vec<_> = self
                .links
                .iter_mut()
                .zip(batch.chunks(share).enumerate())
                .map(|(link, (part, genomes))| {
                    s.spawn(move || call_link(link, batch_id, part * share, genomes))
                })
                .collect();
            calls
                .into_iter()
                .map(|c| c.join().expect("rpc thread panicked"))
                .collect()
        });
        let mut scores = vec![f64::NAN; batch.len()];
        let mut spans = Vec::new();
        for reply in replies {
            let (results, span) = reply?;
            spans.push(span);
            for (id, outcome) in results {
                match outcome {
                    EvalOutcome::Fitness(f) => scores[id] = f,
                    EvalOutcome::Error(e) => {
                        return Err(format!("worker refused genome {id}: {e}"))
                    }
                }
            }
        }
        if scores.iter().any(|s| s.is_nan()) {
            return Err("a worker left a genome unanswered".into());
        }
        Ok((scores, spans))
    }
}

/// One `eval_batch` round trip: `genomes` go out numbered from
/// `first_id`, the per-genome outcomes come back.
fn call_link(
    link: &mut Client,
    batch_id: u64,
    first_id: usize,
    genomes: &[Vec<i64>],
) -> Result<(Vec<(usize, EvalOutcome)>, LinkSpan), String> {
    let evals: Vec<EvalRequest> = genomes
        .iter()
        .enumerate()
        .map(|(i, genes)| EvalRequest {
            id: first_id + i,
            genes: genes.clone(),
        })
        .collect();
    let start = Instant::now();
    let resp = link.call(&eval_batch_request(batch_id, &evals))?;
    let (_, results) = parse_eval_batch_response(&resp)?;
    Ok((results, (start, Instant::now())))
}

/// What one replayed search leaves behind.
struct Replayed {
    genes: Vec<i64>,
    fitness: f64,
    rounds: usize,
    evaluations: usize,
    cache_hits: usize,
    snapshot: StrategySnapshot,
}

/// One job's search, driven from here a round at a time: the daemon's
/// `run_job` loop with a span at each layer boundary.
struct JobReplay<'a> {
    job: u32,
    problem: &'a dyn Problem,
    strategy: Box<dyn Strategy>,
    remote: Option<Remote>,
    run_dir: RunDir,
}

impl<'a> JobReplay<'a> {
    fn new(
        job: u32,
        spec: &JobSpec,
        problem: &'a dyn Problem,
        worker_addrs: &[String],
        dir: &Path,
    ) -> Result<Self, String> {
        Ok(Self {
            job,
            problem,
            strategy: search::build(&spec.strategy, problem.space().clone(), spec.ga.clone())?,
            remote: if worker_addrs.is_empty() {
                None
            } else {
                Some(Remote::connect(worker_addrs, spec)?)
            },
            run_dir: RunDir::open(dir)?,
        })
    }

    fn round(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let job = self.job;
        let round = tracer.open("round", job);
        let (batch, _) = tracer.timed("search.ask", job, || self.strategy.ask());
        let eval = tracer.open("eval", job);
        let scores = match &mut self.remote {
            _ if batch.is_empty() => Vec::new(),
            Some(remote) => {
                let (scores, links) = remote.evaluate(&batch)?;
                for (start, end) in links {
                    tracer.add("served.dispatch.rpc", job, start, end);
                }
                scores
            }
            None => batch
                .iter()
                .map(|genes| {
                    tracer
                        .timed("problems.fitness", job, || self.problem.fitness(genes))
                        .0
                })
                .collect(),
        };
        tracer.close(eval);
        tracer.timed("search.tell", job, || self.strategy.tell(&batch, &scores));
        let (snapshot, _) = tracer.timed("search.snapshot", job, || self.strategy.snapshot());
        let (saved, _) = tracer.timed("served.checkpoint", job, || {
            self.run_dir.save_checkpoint(u64::from(job) + 1, &snapshot)
        });
        tracer.close(round);
        saved
    }

    fn finish(self) -> Result<Replayed, String> {
        let (genes, fitness) = self
            .strategy
            .best()
            .ok_or("replayed search evaluated nothing")?;
        Ok(Replayed {
            genes,
            fitness,
            rounds: self.strategy.rounds(),
            evaluations: self.strategy.evaluations(),
            cache_hits: self.strategy.cache_hits(),
            snapshot: self.strategy.snapshot(),
        })
    }
}

/// One round's (untraced, traced) seconds.
type RoundPair = (f64, f64);

/// The whole workload replayed twice in lockstep, job after job: one
/// side with spans off, one with spans on, taking turns round by round
/// (and swapping who goes first) so both meet the same machine weather.
/// Returns the traced side's results and every round's (untraced,
/// traced) seconds.
fn replay(
    jobs: &[(&JobSpec, &dyn Problem)],
    worker_addrs: &[String],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Vec<Replayed>, Vec<RoundPair>), String> {
    let mut off = Tracer::new(false);
    let mut rounds = Vec::new();
    let mut out = Vec::new();
    for (i, (spec, problem)) in jobs.iter().enumerate() {
        let job = i as u32;
        let mut plain = JobReplay::new(job, spec, *problem, worker_addrs, &dir.join("untraced"))?;
        let mut traced = JobReplay::new(job, spec, *problem, worker_addrs, &dir.join("traced"))?;
        while !traced.strategy.is_done() {
            let (plain_round, traced_round);
            if rounds.len() % 2 == 0 {
                plain_round = time_s(|| plain.round(&mut off));
                traced_round = time_s(|| traced.round(tracer));
            } else {
                traced_round = time_s(|| traced.round(tracer));
                plain_round = time_s(|| plain.round(&mut off));
            }
            plain_round.0?;
            traced_round.0?;
            rounds.push((plain_round.1, traced_round.1));
        }
        let plain = plain.finish()?;
        let traced = traced.finish()?;
        if plain.genes != traced.genes || plain.fitness.to_bits() != traced.fitness.to_bits() {
            return Err(format!("tracing changed the result of '{}'", spec.name));
        }
        out.push(traced);
    }
    Ok((out, rounds))
}

/// The numbers only a running daemon has, from one repetition through
/// it, with the client-side spans of every job.
fn daemon_layer(
    w: &Workload,
    stack: &Stack,
    queues: &[Vec<JobSpec>],
    (floor, in_process): (&JobSpec, &Reference),
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut submit = Vec::new();
    let mut sched = Vec::new();
    let mut hit_ratio = 0.0;
    let mut job_no = 0u32;
    for pass in 0..w.passes() {
        let before = stack.store.as_ref().map(|s| s.stats());
        // Jobs run one at a time here: the ledger wants each job's own
        // latencies, not their interference.
        for spec in queues.iter().flatten() {
            let start = Instant::now();
            let run = run_job(&stack.addr, spec)?;
            tally.check(run.state == "done", || {
                format!("traced job '{}' ended '{}'", spec.name, run.state)
            });
            let at = |s: f64| start + std::time::Duration::from_secs_f64(s);
            let span = tracer.open_at("client.job", job_no, start);
            tracer.add("served.daemon.submit", job_no, start, at(run.submit_s));
            if let Some(delay) = run.sched_delay_s() {
                tracer.add(
                    "served.daemon.queued",
                    job_no,
                    at(run.submit_s),
                    at(run.submit_s + delay),
                );
                sched.push(delay);
            }
            tracer.add("client.watch", job_no, at(run.submit_s), at(run.wall_s));
            tracer.close_at(span, at(run.wall_s));
            submit.push(run.submit_s);
            job_no += 1;
        }
        if let (Some(before), Some(store)) = (before, &stack.store) {
            let after = store.stats();
            let hits = after.hits - before.hits;
            let lookups = hits + after.misses - before.misses;
            if pass == 1 && lookups > 0 {
                hit_ratio = hits as f64 / lookups as f64;
            }
        }
    }
    let m = stack.daemon.metrics_snapshot();
    let mean_batch = if m.remote_batches > 0 {
        m.remote_dispatched as f64 / m.remote_batches as f64
    } else {
        0.0
    };

    // The control-plane floor: a job whose fitness costs microseconds,
    // through the daemon and from this process's own loop.
    let through_daemon = run_job(&stack.addr, floor)?;
    tally.check(
        through_daemon.genes.as_deref() == Some(&in_process.genes[..]),
        || "floor job differs from its reference".into(),
    );

    Ok(vec![
        ("stored.hit_ratio", hit_ratio),
        ("served.dispatch.batches", m.remote_batches as f64),
        ("served.dispatch.mean_batch", mean_batch),
        ("served.daemon.submit_ms", median(&submit) * 1e3),
        (
            "served.daemon.sched_delay_ms",
            if sched.is_empty() {
                0.0
            } else {
                median(&sched) * 1e3
            },
        ),
        (
            "served.daemon.floor_ms",
            (through_daemon.wall_s - in_process.wall_s) * 1e3,
        ),
    ])
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let scratch = Scratch::new(&opts.out_dir, &format!("trace-{}", w.name))?;
    let mut calib = Calib::default();
    let mut tally = Tally::default();
    let mut values: Values = Vec::new();
    let mut tracer = Tracer::new(true);
    calib.sample();

    let queues = spec::queues(w, opts.seed, opts.quick);
    let specs: Vec<&JobSpec> = queues.iter().flatten().collect();
    let (problems, build_s) = time_s(|| build_problems(&queues));
    let problems: Vec<_> = problems?.into_iter().flatten().collect();
    values.push(("problems.build_ms", build_s * 1e3 / specs.len() as f64));
    let jobs: Vec<(&JobSpec, &dyn Problem)> = specs
        .iter()
        .zip(&problems)
        .map(|(s, p)| (*s, p.as_ref()))
        .collect();

    // (1) One repetition through the daemon.
    let floor = spec::floor_job();
    let floor_problem = floor.build_problem()?;
    let floor_ref = checks::reference(&floor, floor_problem.as_ref(), 1)?;
    let stack = Stack::start(w, &scratch.path().join("stack"))?;
    values.extend(daemon_layer(
        w,
        &stack,
        &queues,
        (&floor, &floor_ref),
        &mut tracer,
        &mut tally,
    )?);
    calib.sample();

    // (2) The replay, spans off and on in lockstep, against the same
    // eval workers.
    let replay_from = tracer.spans.len();
    let (replayed, round_pairs) = replay(
        &jobs,
        &stack.worker_addrs,
        &scratch.path().join("replay"),
        &mut tracer,
    )?;
    Stack::stop(stack);
    calib.sample();

    // The replay is a third implementation of the loop: it must agree
    // with the reference too.
    let threads = crate::stats::nproc();
    let references: Vec<Reference> = jobs
        .iter()
        .map(|(spec, problem)| checks::reference(spec, *problem, threads))
        .collect::<Result<_, _>>()?;
    for ((spec, _), (r, reference)) in jobs.iter().zip(replayed.iter().zip(&references)) {
        tally.check(
            r.genes == reference.genes && r.fitness.to_bits() == reference.fitness.to_bits(),
            || format!("replay of '{}' differs from its reference", spec.name),
        );
    }

    // What tracing cost the replay: the spans it recorded times the
    // cost of one, over the untraced side's time. The two sides'
    // measured difference is kept in the document, but on this host
    // identical rounds differ by tens of percent from one second to the
    // next, a thousand times the effect.
    let untraced_s: f64 = round_pairs.iter().map(|(p, _)| p).sum();
    let traced_s: f64 = round_pairs.iter().map(|(_, t)| t).sum();
    let span_cost_s = {
        let mut probe = Tracer::new(true);
        let one = crate::stats::time_mean_s(100_000, |i| {
            let id = probe.open("probe", i as u32);
            probe.close(id);
        });
        one * (tracer.spans.len() - replay_from) as f64
    };

    // Only the replay's spans feed the search numbers and the shares.
    let durations = |name: &str| tracer.durations(name, replay_from);
    let total = |name: &str| durations(name).iter().fold(0.0, |a, d| a + d);
    let us = |name: &str| {
        let d = durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * 1e6
        }
    };
    let job_total = total("round");
    let evaluations: usize = replayed.iter().map(|r| r.evaluations).sum();
    let cache_hits: usize = replayed.iter().map(|r| r.cache_hits).sum();
    values.extend([
        ("search.ask_us", us("search.ask")),
        ("search.tell_us", us("search.tell")),
        ("search.snapshot_us", us("search.snapshot")),
        (
            "search.rounds",
            replayed.iter().map(|r| r.rounds).sum::<usize>() as f64,
        ),
        (
            "search.memo_hit_ratio",
            cache_hits as f64 / (evaluations + cache_hits).max(1) as f64,
        ),
        ("trace.fitness_share", total("problems.fitness") / job_total),
        (
            "trace.search_share",
            (total("search.ask") + total("search.tell") + total("search.snapshot")) / job_total,
        ),
        (
            "trace.checkpoint_share",
            total("served.checkpoint") / job_total,
        ),
        (
            "trace.rpc_share",
            if w.eval_workers > 0 {
                total("eval") / job_total
            } else {
                0.0
            },
        ),
        ("trace.overhead_pct", span_cost_s / untraced_s * 100.0),
    ]);

    // (3) Fitness split on a seeded sample of the genomes the first
    // inlining job's search evaluated; (4) the other layers alone.
    let first_inline = jobs
        .iter()
        .position(|(s, _)| s.problem == "inline")
        .ok_or("workload has no inlining job")?;
    let (spec, problem) = jobs[first_inline];
    let mut sample = references[first_inline].evaluated.clone();
    simrng::child_rng(opts.seed, "trace-sample").shuffle(&mut sample);
    sample.truncate(if opts.quick { 4 } else { SAMPLE });
    values.extend(layers::workloads_layer(spec)?);
    values.extend(layers::fitness_layers(
        spec,
        problem,
        &sample,
        calib.kernel_ms(),
        &mut tracer,
    )?);
    calib.sample();
    values.extend(layers::stored_layer(problem, scratch.path())?);
    values.extend(layers::codec_layer(&sample));
    values.extend(layers::dispatch_layer(
        &floor,
        floor_problem.as_ref(),
        &floor_ref.evaluated,
    )?);
    values.extend(layers::checkpoint_layer(
        &replayed[first_inline].snapshot,
        scratch.path(),
    )?);
    values.extend(layers::shard_layer());
    values.extend(layers::evald_layer(spec)?);
    values.extend(layers::obs_layer());
    calib.sample();

    tracer.write_jsonl(&opts.out_dir.join(format!("trace-{}.jsonl", w.name)))?;

    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric '{name}' was not measured"))?;
            Ok(Metric { name, unit, value })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let timings = [
        "client.job",
        "round",
        "problems.fitness",
        "served.checkpoint",
    ]
    .into_iter()
    .filter_map(|name| {
        let d = tracer.durations(name, 0);
        (!d.is_empty()).then(|| Timing {
            name: name.into(),
            summary: summarize(&d),
        })
    })
    .collect();
    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        traced: true,
        metrics,
        timings,
        tally,
        calib,
        info: vec![
            ("untraced_replay_s".into(), Json::Num(untraced_s)),
            ("traced_replay_s".into(), Json::Num(traced_s)),
            (
                "replay_difference_pct".into(),
                Json::Num((traced_s - untraced_s) / untraced_s * 100.0),
            ),
            ("spans".into(), Json::Int(tracer.spans.len() as i64)),
            ("sample".into(), Json::Int(sample.len() as i64)),
        ],
    })
}
