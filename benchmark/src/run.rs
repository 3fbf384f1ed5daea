//! The measured run: one workload, tracing off, every end-to-end metric.
//!
//! A run is: time the set-up in fresh processes, set the stack up here,
//! work out what every job must produce (in-process, untimed), push the
//! canary through the daemon, then repeat the workload — a closed loop, each client
//! submitting its next job when the previous one's terminal frame has
//! arrived — until `--seconds` are spent, checking every result.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use problems::Problem;
use served::job::JobSpec;
use served::json::Json;

use crate::checks::{self, Goldens, Reference};
use crate::harness::{run_job, JobRun, Scratch, Stack};
use crate::report::{Metric, Report, Tally, Timing};
use crate::spec::{self, Workload, DEFAULT_SEED};
use crate::stats::{self, median, summarize, time_s, Calib};

/// How many fresh processes set the stack up for `setup_s`.
const SETUP_REPS: usize = 9;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Rewrite the workload's golden file from this run's references.
    pub bless: bool,
    pub out_dir: PathBuf,
    pub golden_dir: PathBuf,
}

/// A timed job and what it must produce.
struct Planned {
    spec: JobSpec,
    reference: Reference,
}

/// The problem of every job, queue by queue.
pub type Problems = Vec<Vec<Arc<dyn Problem>>>;

/// Builds the problem of every job: program generation plus the default
/// heuristic's measurements — what the daemon does again per job.
pub fn build_problems(queues: &[Vec<JobSpec>]) -> Result<Problems, String> {
    queues
        .iter()
        .map(|q| q.iter().map(JobSpec::build_problem).collect())
        .collect()
}

/// One set-up: problems built, stack started, a client connected and
/// answered.
fn set_up(
    w: &Workload,
    queues: &[Vec<JobSpec>],
    dir: &std::path::Path,
) -> Result<(Stack, Problems), String> {
    let problems = build_problems(queues)?;
    let stack = Stack::start(w, dir)?;
    let mut client = served::Client::connect(&stack.addr)?;
    client.call(&Json::obj(vec![("cmd", Json::Str("ping".into()))]))?;
    Ok((stack, problems))
}

/// `benchmark setup`: one set-up in this (fresh) process, timed from
/// process start to a connected, answered client. Prints the seconds.
pub fn setup_probe(opts: &Options, process_start: Instant) -> Result<(), String> {
    let scratch = Scratch::new(&opts.out_dir, &format!("setup-{}", opts.workload.name))?;
    let queues = spec::queues(opts.workload, opts.seed, opts.quick);
    let (stack, _) = set_up(opts.workload, &queues, scratch.path())?;
    let ready_s = process_start.elapsed().as_secs_f64();
    Stack::stop(stack);
    println!("{ready_s:?}");
    Ok(())
}

/// Runs [`setup_probe`] in a child process and returns what it printed.
fn cold_setup_s(opts: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(&exe);
    cmd.args(["setup", "--workload", opts.workload.name])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up probe printed no time: {e}"))
}

/// Whether a daemon result carries exactly the reference's bits.
fn same_result(run: &JobRun, reference: &Reference) -> bool {
    run.state == "done"
        && run.genes.as_deref() == Some(&reference.genes[..])
        && run.fitness.map(f64::to_bits) == Some(reference.fitness.to_bits())
}

/// Runs every client's queue concurrently, each client a closed loop.
fn run_pass(addr: &str, queues: &[Vec<Planned>]) -> Result<Vec<Vec<JobRun>>, String> {
    std::thread::scope(|s| {
        let clients: Vec<_> = queues
            .iter()
            .map(|queue| {
                s.spawn(move || {
                    queue
                        .iter()
                        .map(|job| run_job(addr, &job.spec))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let scratch = Scratch::new(&opts.out_dir, w.name)?;
    let mut calib = Calib::default();
    let mut tally = Tally::default();
    let mut info: Vec<(String, Json)> = Vec::new();
    calib.sample();

    let queues = spec::queues(w, opts.seed, opts.quick);
    let n_jobs: usize = queues.iter().map(Vec::len).sum();

    // Set-up, each time in a fresh process so none inherits the caches
    // of the one before (`core::defaults` memoizes for the life of a
    // process); the median is `setup_s`. Then once more here, for the
    // stack the measurement uses.
    let setup_s = (0..SETUP_REPS)
        .map(|_| cold_setup_s(opts))
        .collect::<Result<Vec<f64>, String>>()?;
    let (built, warm_s) = time_s(|| set_up(w, &queues, &scratch.path().join("stack")));
    let (mut stack, problems) = built?;
    info.push(("setup_warm_s".into(), Json::Num(warm_s)));

    // What every job must produce. Untimed, so it may use every core.
    let threads = stats::nproc();
    let (planned, reference_s) = time_s(|| {
        queues
            .iter()
            .zip(&problems)
            .map(|(queue, probs)| {
                queue
                    .iter()
                    .zip(probs)
                    .map(|(spec, problem)| {
                        Ok(Planned {
                            spec: spec.clone(),
                            reference: checks::reference(spec, problem.as_ref(), threads)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()
    });
    let planned = planned?;
    info.push(("reference_s".into(), Json::Num(reference_s)));

    // Goldens: every timed job always (their GA seeds are part of the
    // workload), the canary at the default seed.
    let canary = spec::canary(&queues[0][0], opts.seed);
    let canary_problem = canary.build_problem()?;
    let canary_ref = checks::reference(&canary, canary_problem.as_ref(), threads)?;
    if !opts.quick {
        let mut goldens = Goldens::load(&opts.golden_dir, w.name)?;
        let mut expected: Vec<(String, &Reference)> = planned
            .iter()
            .flatten()
            .map(|p| (p.spec.name.clone(), &p.reference))
            .collect();
        if opts.seed == DEFAULT_SEED {
            expected.push((format!("canary@{DEFAULT_SEED}"), &canary_ref));
        }
        for (key, r) in expected {
            if opts.bless {
                goldens.set(&key, &r.genes, r.fitness);
            } else {
                let hit = goldens.matches(&key, &r.genes, r.fitness);
                tally.check(hit == Some(true), || match hit {
                    None => format!("no golden recorded for '{key}'"),
                    _ => format!("'{key}' differs from its golden"),
                });
            }
        }
        if opts.bless {
            goldens.save()?;
        }
    }

    // The canary goes through the daemon and the workload's own
    // evaluation tier; it also warms that path before anything is timed.
    let canary_run = run_job(&stack.addr, &canary)?;
    tally.check(same_result(&canary_run, &canary_ref), || {
        format!("canary (GA seed {}) differs from its reference", opts.seed)
    });

    // Measure.
    let passes = w.passes();
    let mut job_wall = Vec::new();
    let mut to_target = Vec::new();
    let mut pass_wall: Vec<Vec<f64>> = vec![Vec::new(); passes];
    let mut rep_jobs_per_s = Vec::new();
    let mut rep_job_cpu = Vec::new();
    let mut evals_total = 0u64;
    let mut wall_total = 0.0;
    let mut reps = 0usize;
    let evals_per_pass: u64 = planned
        .iter()
        .flatten()
        .map(|p| p.reference.evaluations as u64)
        .sum();
    let measure = Instant::now();
    loop {
        calib.sample();
        if w.store && reps > 0 {
            // Pass 1 must meet an empty store: a fresh stack per
            // repetition, started and stopped off the clock.
            Stack::stop(stack);
            stack = Stack::start(w, &scratch.path().join(format!("rep{reps}")))?;
        }
        let mut rep_wall = 0.0;
        let mut rep_cpu = 0.0;
        for walls in &mut pass_wall {
            let evals_before = stack.daemon.metrics_snapshot().evaluations;
            let cpu_before = stats::process_cpu_s();
            let (runs, wall) = time_s(|| run_pass(&stack.addr, &planned));
            rep_cpu += stats::process_cpu_s() - cpu_before;
            rep_wall += wall;
            walls.push(wall);
            let computed = stack.daemon.metrics_snapshot().evaluations - evals_before;
            tally.check(computed == evals_per_pass, || {
                format!("daemon computed {computed} evaluations, reference {evals_per_pass}")
            });
            for (run, job) in runs?.iter().flatten().zip(planned.iter().flatten()) {
                tally.check(same_result(run, &job.reference), || {
                    format!(
                        "job '{}' ended '{}' with {:?} / {:?}, reference {:?} / {}",
                        job.spec.name,
                        run.state,
                        run.genes,
                        run.fitness,
                        job.reference.genes,
                        job.reference.fitness
                    )
                });
                job_wall.push(run.wall_s);
                let hit = run.time_to(job.reference.target);
                tally.check(hit.is_some(), || {
                    format!("job '{}' never showed its target fitness", job.spec.name)
                });
                to_target.push(hit.unwrap_or(run.wall_s));
            }
        }
        reps += 1;
        evals_total += evals_per_pass * passes as u64;
        wall_total += rep_wall;
        rep_jobs_per_s.push((n_jobs * passes) as f64 / rep_wall);
        rep_job_cpu.push(rep_cpu / (n_jobs * passes) as f64);
        // Another repetition only if at least half of it still fits.
        let elapsed = measure.elapsed().as_secs_f64();
        if opts.quick || elapsed + 0.5 * elapsed / reps as f64 >= opts.seconds {
            break;
        }
    }
    calib.sample();
    let peak_rss_mb = stats::peak_rss_mb();
    Stack::stop(stack);
    info.push(("repetitions".into(), Json::Int(reps as i64)));
    info.push(("jobs_per_pass".into(), Json::Int(n_jobs as i64)));
    info.push((
        "measured_s".into(),
        Json::Num(measure.elapsed().as_secs_f64()),
    ));
    // Every repetition's makespan, so a reader sees the spread inside
    // the run and not only its median.
    for (i, walls) in pass_wall.iter().enumerate() {
        info.push((
            format!("pass{}_makespans_s", i + 1),
            Json::Arr(walls.iter().map(|&s| Json::Num(s)).collect()),
        ));
    }

    // Checks that need no daemon, after the memory high-water mark is
    // read so their own allocations stay out of it.
    let mut by_name: Vec<&Planned> = planned.iter().flatten().collect();
    by_name.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
    let inline_jobs: Vec<&Planned> = by_name
        .iter()
        .copied()
        .filter(|p| p.spec.problem == "inline")
        .collect();
    let tuned: Vec<(&JobSpec, &[i64])> = inline_jobs
        .iter()
        .map(|p| (&p.spec, &p.reference.genes[..]))
        .collect();
    let (checked, mismatches) = checks::semantic_check(&tuned, threads)?;
    tally.attempted += checked as u64;
    for _ in 0..mismatches {
        tally
            .failures
            .push("a program inlined under a tuned genome computes something else".into());
    }
    info.push((
        "semantic_programs_checked".into(),
        Json::Int(checked as i64),
    ));
    let heldout: Vec<f64> = inline_jobs
        .iter()
        .map(|p| checks::heldout_total_ratio(&p.spec, &p.reference.genes))
        .collect::<Result<_, _>>()?;

    if heldout.is_empty() {
        return Err(format!(
            "workload '{}' has no inlining job to hold out",
            w.name
        ));
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let evals_to_target: Vec<f64> = by_name
        .iter()
        .map(|p| p.reference.evals_to_target as f64)
        .collect();
    let best: Vec<f64> = by_name.iter().map(|p| p.reference.fitness).collect();
    let metric = |name: &'static str, value: f64| {
        let &(name, unit) = spec::END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is listed in END_TO_END");
        Metric { name, unit, value }
    };
    let metrics = vec![
        metric("setup_s", median(&setup_s)),
        metric("job_wall_s", median(&job_wall)),
        metric("time_to_target_s", median(&to_target)),
        metric("evals_to_target", median(&evals_to_target)),
        metric("evals_per_s", evals_total as f64 / wall_total),
        metric("jobs_per_s", median(&rep_jobs_per_s)),
        metric("job_cpu_s", median(&rep_job_cpu)),
        metric("peak_rss_mb", peak_rss_mb),
        metric("best_fitness", mean(&best)),
        metric("heldout_total_ratio", mean(&heldout)),
    ];
    assert_eq!(metrics.len(), spec::END_TO_END.len());

    let timing = |name: String, samples: &[f64]| Timing {
        name,
        summary: summarize(samples),
    };
    let mut timings = vec![
        timing("setup".into(), &setup_s),
        timing("job_wall".into(), &job_wall),
        timing("time_to_target".into(), &to_target),
    ];
    for (i, walls) in pass_wall.iter().enumerate() {
        timings.push(timing(format!("pass{}_makespan", i + 1), walls));
    }

    Ok(Report {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
        traced: false,
        metrics,
        timings,
        tally,
        calib,
        info,
    })
}
