//! The throughput-scaling suite: a virtual N-worker cluster that proves
//! the batched, pipelined dispatch layer actually *scales* — and keeps
//! its exactly-once and bit-identity guarantees while doing so.
//!
//! Unlike [`cluster`](crate::cluster), which boots the whole daemon
//! stack, this suite drives [`served::dispatch::RemoteEvaluator`]
//! directly against a fleet of **synthetic workers**: tiny protocol
//! servers that answer `eval_batch` by sleeping a configurable virtual
//! duration per genome and returning a pure, closed-form fitness. That
//! makes throughput *measurable in virtual time*: with an eval cost of
//! `c` and `W` workers, a perfectly parallel dispatcher finishes `E`
//! evaluations in `E·c/W` virtual seconds, so
//!
//! ```text
//! efficiency = (E / elapsed) / (W / c)     ∈ (0, 1]
//! ```
//!
//! is an exact parallel-efficiency figure, deterministic from below:
//! the critical path of virtual sleeps is a hard floor on elapsed, and
//! the only nondeterminism — the host descheduling a runnable thread
//! past the grace window ([`crate::GRACE`]), which the advancement rule
//! then reads as idleness — strictly *adds* virtual time. Gated
//! measurements therefore retry ([`run_scale_to`]) and keep the best
//! attempt, which still never exceeds the true efficiency. The headline
//! assertions CI runs:
//!
//! * **2 workers beat serial.** Distributed throughput at `W = 2`
//!   strictly exceeds the analytic one-at-a-time baseline `1/c`.
//! * **≥ 70 % efficiency at 16 workers.** The batched claim loop keeps
//!   a 16-worker fleet at least [`MIN_EFFICIENCY_AT_16`] busy.
//! * **Bit-identity.** Every run — including the seeded fault variants
//!   (lossy/laggy links, a worker crash mid-run, a never-healed
//!   partition) — converges to the same best genome, fitness bits, and
//!   evaluation count as a serial in-process run of the same seed.
//! * **Exactly-once.** `remote_completed + fallback == evaluations`:
//!   no genome is scored twice and none is dropped, whatever the fault
//!   schedule did to the frames carrying it.
//!
//! Two details keep the numbers deterministic. The synthetic cost is
//! spent with `transport.sleep(..)` — *virtual* time — because a
//! `busy()` bracket blocks clock advancement without adding any; and
//! the worker pool's observability registry is rebuilt on the
//! simulation clock (see `TransportClock`), so the dispatcher's
//! adaptive RTT model sees virtual round-trips instead of wall-clock
//! scheduling noise.

use std::io::{BufReader, BufWriter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ga::{Evaluator, GaConfig, Genome, LocalEvaluator, PendingScores, Ranges};
use served::checkpoint::f64_to_json;
use served::dispatch::{DispatchConfig, RemoteEvaluator, WorkerPool};
use served::json::Json;
use served::proto::{
    err, eval_batch_response, ok_with, parse_eval_batch_request, parse_request, read_frame,
    write_frame, EvalOutcome, Frame,
};
use served::{NetStream, Transport};

use crate::net::{FaultPlan, SimNet};

/// Default virtual cost of one fitness evaluation. Large against every
/// per-frame overhead in the simulation, so throughput is eval-bound
/// the way a real simulator-backed fleet is.
pub const EVAL_COST: Duration = Duration::from_millis(30);

/// The parallel-efficiency floor asserted at 16 workers.
pub const MIN_EFFICIENCY_AT_16: f64 = 0.7;

/// Attempts a gated measurement gets before conceding its threshold.
/// One attempt is definitive on a quiet host; the retries exist for
/// saturated CI machines, where scheduler starvation inflates virtual
/// elapsed (see [`run_scale_to`] for why that bias is one-sided).
pub const MEASURE_ATTEMPTS: usize = 4;

/// Worker counts the default scaling sweep measures. 50 deliberately
/// over-provisions a 64-genome generation: its report shows saturation
/// (throughput flat, efficiency pop-bound), which is the honest answer,
/// so only the 16-worker point carries an efficiency assertion.
pub const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 50];

/// Gene ranges for the synthetic problem — the same 4-threshold shape
/// as the inlining problem, so batch sizes and memo behavior match the
/// real workload.
#[must_use]
pub fn ranges() -> Ranges {
    Ranges::new(vec![(1, 50), (1, 30), (1, 15), (1, 400)])
}

/// The pure synthetic fitness: normalized distance to (7, 11, 3, 120).
/// Closed-form and branch-free, so the worker, the dispatch fallback,
/// and the serial reference compute bit-identical values by
/// construction.
#[must_use]
pub fn synthetic_fitness(g: &[i64]) -> f64 {
    let target = [7.0, 11.0, 3.0, 120.0];
    g.iter()
        .zip(target)
        .map(|(&x, t)| {
            let d = (x as f64 - t) / t;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The analytic serial baseline: one evaluator computing back to back,
/// in evaluations per virtual second. This is the *most favorable*
/// local figure (zero overhead), so beating it is meaningful.
#[must_use]
pub fn serial_evals_per_sec(eval_cost: Duration) -> f64 {
    1e6 / u64::try_from(eval_cost.as_micros())
        .unwrap_or(u64::MAX)
        .max(1) as f64
}

/// Knobs for one [`run_scale`] measurement.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Seed for the simulated universe *and* the GA.
    pub seed: u64,
    /// Synthetic workers ("w0", "w1", …).
    pub workers: usize,
    /// GA population per generation (the dispatchable batch).
    pub pop_size: usize,
    /// GA generations.
    pub generations: usize,
    /// Virtual cost of one evaluation on a worker.
    pub eval_cost: Duration,
    /// Dispatcher backpressure bound / adaptive batch ceiling. The
    /// suite pins this to 1: on a zero-RTT virtual link the adaptive
    /// tuner's fixed point *is* one genome per claim (nothing to
    /// amortize), and larger unprimed claims make the efficiency
    /// measurement hostage to real-time thread-start races — under
    /// machine load the grace-window clock can advance mid-handshake,
    /// poisoning the RTT model and skewing claim sizes. Adaptive
    /// sizing itself is covered by the `served::dispatch` unit tests
    /// and, over real TCP, by the benchmark's `remote_2w` workload.
    pub max_inflight: usize,
    /// Fault plan installed on every daemon↔worker link (both
    /// directions). Control links stay clean.
    pub plan: FaultPlan,
    /// Crash "w0" this far into the run (virtual time), never reviving
    /// it. The fleet must absorb the loss.
    pub crash_w0_after: Option<Duration>,
    /// Partition "w1" from the daemon before the run starts, never
    /// healing it. The dispatcher must route around it.
    pub partition_w1: bool,
}

impl ScaleConfig {
    /// A fault-free measurement at `workers` workers.
    #[must_use]
    pub fn new(seed: u64, workers: usize) -> Self {
        Self {
            seed,
            workers,
            pop_size: 64,
            generations: 4,
            eval_cost: EVAL_COST,
            max_inflight: 1,
            plan: FaultPlan::default(),
            crash_w0_after: None,
            partition_w1: false,
        }
    }
}

/// What one [`run_scale`] measured and verified.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Workers the run was provisioned with.
    pub workers: usize,
    /// Backend evaluations the strategy requested (memo misses).
    pub evaluations: usize,
    /// Virtual microseconds the whole search took.
    pub elapsed_micros: u64,
    /// Evaluations per virtual second.
    pub evals_per_sec: f64,
    /// `evals_per_sec` over the ideal `workers / eval_cost` rate.
    pub efficiency: f64,
    /// Evaluations completed over the wire.
    pub remote_evals: u64,
    /// Evaluations the dispatcher fell back to computing locally.
    pub fallback_evals: u64,
    /// `eval_batch` frames sent (so `evaluations / batches` is the
    /// realized mean batch size).
    pub batches: u64,
    /// Whether best genome, fitness bits, and evaluation count all
    /// equal the serial reference run of the same seed.
    pub bit_identical: bool,
    /// Whether `remote_evals + fallback_evals == evaluations`: every
    /// genome scored exactly once, none lost, none double-counted.
    pub lossless: bool,
    /// The tuned genome.
    pub best_genes: Vec<i64>,
    /// Its fitness.
    pub best_fitness: f64,
}

impl ScaleReport {
    /// One `BENCH_scale.json` row.
    fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workers", Json::Int(self.workers as i64)),
            ("evaluations", Json::Int(self.evaluations as i64)),
            ("elapsed_virtual_us", Json::Int(self.elapsed_micros as i64)),
            ("evals_per_vsec", f64_to_json(self.evals_per_sec)),
            ("efficiency", f64_to_json(self.efficiency)),
            ("remote_evals", Json::Int(self.remote_evals as i64)),
            ("fallback_evals", Json::Int(self.fallback_evals as i64)),
            ("batches", Json::Int(self.batches as i64)),
            ("bit_identical", Json::Bool(self.bit_identical)),
            ("lossless", Json::Bool(self.lossless)),
        ]
    }
}

/// Routes the dispatcher's RTT measurements onto the simulation's
/// virtual clock. Without this the pool's registry reads wall time, and
/// the adaptive batch tuner would model real scheduling noise instead
/// of the (deterministic) virtual round-trips.
#[derive(Debug)]
struct TransportClock(Arc<dyn Transport>);

impl obs::Clock for TransportClock {
    fn now_micros(&self) -> u64 {
        self.0.now_micros()
    }
}

/// Starts a synthetic worker on simulated node `node`: a protocol
/// server whose `eval_batch` sleeps `cost` of virtual time per genome
/// and answers with [`synthetic_fitness`]. Returns its address and stop
/// flag.
fn synthetic_worker(net: &Arc<SimNet>, node: &str, cost: Duration) -> (String, Arc<AtomicBool>) {
    let transport = net.transport(node);
    let listener = transport
        .bind(&format!("{node}:7000"))
        .expect("bind synthetic worker");
    let addr = listener.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            match listener.accept(Duration::from_millis(50)) {
                Ok(Some(stream)) => serve_conn(stream, cost, &flag, &*transport),
                Ok(None) => {}
                Err(_) => return,
            }
        }
    });
    (addr, stop)
}

fn serve_conn(
    stream: Box<dyn NetStream>,
    cost: Duration,
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
                continue; // idle poll keeps the stop flag live
            }
            _ => return,
        };
        // Everything between reading a frame and finishing its reply is
        // worker compute: bracket it as busy so the virtual clock cannot
        // advance while this thread is runnable but starved by a loaded
        // host. The bracket is dropped around each virtual sleep — busy
        // blocks clock advancement outright, and the sleep *is* the
        // clock moving.
        let guard = served::net::busy(transport);
        let Ok((cmd, body)) = parse_request(&line) else {
            return;
        };
        let ok = match cmd.as_str() {
            "task" | "ping" => write_frame(&mut writer, &ok_with(vec![])).is_ok(),
            "eval_batch" => {
                let Ok((batch_id, evals)) = parse_eval_batch_request(&body) else {
                    return;
                };
                let results: Vec<(usize, EvalOutcome)> = evals
                    .iter()
                    .map(|e| {
                        // The synthetic cost is *slept*, not computed:
                        // only transport.sleep spends virtual time (a
                        // busy() bracket would block the clock without
                        // adding any).
                        transport.busy_end();
                        transport.sleep(cost);
                        transport.busy_begin();
                        (e.id, EvalOutcome::Fitness(synthetic_fitness(&e.genes)))
                    })
                    .collect();
                write_frame(&mut writer, &eval_batch_response(batch_id, &results)).is_ok()
            }
            _ => write_frame(&mut writer, &err("unexpected verb")).is_ok(),
        };
        drop(guard);
        if !ok {
            return;
        }
    }
}

/// Keeps the transport's busy bracket held while the *caller* computes
/// (GA propose/tell between generations) and releases it only across
/// the inner `wait()`, when the dispatch fan-out is the active party.
/// Without it, a loaded host can deschedule the main thread mid-propose
/// for longer than the simulation's grace window, and the virtual clock
/// advances spuriously — to a worker's accept-poll deadline, say —
/// inflating elapsed virtual time with real-world scheduling noise.
struct MainThreadBusy<'e> {
    inner: &'e RemoteEvaluator<'e>,
    transport: Arc<dyn Transport>,
}

struct BusyHandoff<'p> {
    inner: Box<dyn PendingScores + 'p>,
    transport: Arc<dyn Transport>,
}

impl PendingScores for BusyHandoff<'_> {
    fn wait(self: Box<Self>) -> Vec<f64> {
        self.transport.busy_end();
        let scores = self.inner.wait();
        self.transport.busy_begin();
        scores
    }
}

impl Evaluator for MainThreadBusy<'_> {
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        self.begin(genomes).wait()
    }

    fn begin<'s>(&'s self, genomes: &[Genome]) -> Box<dyn PendingScores + 's> {
        Box::new(BusyHandoff {
            inner: self.inner.begin(genomes),
            transport: Arc::clone(&self.transport),
        })
    }
}

/// One virtual universe at a time per process. A `cargo test` harness
/// runs `#[test]`s concurrently, and two simultaneous measurements
/// starve each other's grace windows — each universe's runnable threads
/// fight the other's for the same cores, and every starvation past
/// [`crate::GRACE`] is charged as spurious virtual time. Serializing
/// the measurement costs nothing on the machines that need it (the
/// work was going to timeshare anyway) and keeps the efficiency
/// figures honest.
static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Idle-grace slice for scale universes, 4× the sweep default
/// ([`crate::GRACE`]). Elapsed virtual time is the *graded quantity*
/// here, and every time the host starves a runnable thread past the
/// slice, the idle-advance rule charges the lull as spurious virtual
/// time — so the measurement buys scheduler-latency tolerance with
/// wall clock. Cheap in this suite: one universe runs at a time and
/// its virtual events are coarse (30 ms eval sleeps), so legitimate
/// idle hops are few.
const MEASURE_GRACE: Duration = Duration::from_millis(2);

/// Measures one configuration: boots the virtual fleet, runs the full
/// GA through the batched pipelined dispatcher, then re-runs the same
/// seed serially in-process and compares bit for bit.
#[must_use]
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let _one_universe = MEASURE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let net = SimNet::with_grace(cfg.seed, MEASURE_GRACE);
    let mut addrs = Vec::new();
    let mut stops = Vec::new();
    for i in 0..cfg.workers {
        let node = format!("w{i}");
        let (addr, stop) = synthetic_worker(&net, &node, cfg.eval_cost);
        if cfg.plan.is_active() {
            net.set_plan("daemon", &node, cfg.plan);
            net.set_plan(&node, "daemon", cfg.plan);
        }
        addrs.push(addr);
        stops.push(stop);
    }
    if cfg.partition_w1 && cfg.workers > 1 {
        net.partition("daemon", "w1");
    }
    if let Some(after) = cfg.crash_w0_after {
        let chaos_net = Arc::clone(&net);
        let chaos_clock = net.transport("chaos");
        std::thread::spawn(move || {
            chaos_clock.sleep(after);
            chaos_net.crash("w0");
        });
    }

    let dispatch = DispatchConfig {
        connect_timeout: Duration::from_millis(50),
        request_timeout: Duration::from_millis(250),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(80),
        max_inflight: cfg.max_inflight,
        idle_poll: Duration::from_millis(1),
        ..DispatchConfig::default()
    };
    let mut pool = WorkerPool::with_workers(dispatch, &addrs);
    pool.set_transport(net.transport("daemon"));
    pool.set_obs(Arc::new(obs::Registry::with_clock(Arc::new(
        TransportClock(net.transport("daemon")),
    ))));
    let pool = Arc::new(pool);
    let remote = RemoteEvaluator::new(
        &pool,
        Json::Null,
        LocalEvaluator::new(|g: &[i64]| synthetic_fitness(g), 1),
    );

    let ga = GaConfig {
        pop_size: cfg.pop_size,
        generations: cfg.generations,
        threads: 1,
        seed: cfg.seed,
        stagnation_limit: None,
        ..GaConfig::default()
    };
    let mut strategy = search::build("ga", ranges(), ga.clone()).expect("ga strategy builds");
    let clock = net.transport("daemon");
    let driver = MainThreadBusy {
        inner: &remote,
        transport: Arc::clone(&clock),
    };
    clock.busy_begin();
    let started = clock.now_micros();
    search::drive(strategy.as_mut(), &driver);
    let elapsed_micros = clock.now_micros().saturating_sub(started).max(1);
    clock.busy_end();

    // The serial reference: same seed, in-process backend, no virtual
    // cost. Distribution must change timing only, never these numbers.
    let mut reference = search::build("ga", ranges(), ga).expect("ga strategy builds");
    let local = LocalEvaluator::new(|g: &[i64]| synthetic_fitness(g), 1);
    search::drive(reference.as_mut(), &local);

    let (best_genes, best_fitness) = strategy.best().expect("scale run converged");
    let (ref_genes, ref_fitness) = reference.best().expect("reference converged");
    let bit_identical = best_genes == ref_genes
        && best_fitness.to_bits() == ref_fitness.to_bits()
        && strategy.evaluations() == reference.evaluations();

    for s in &stops {
        s.store(true, Ordering::SeqCst);
    }
    net.shutdown();

    let evaluations = strategy.evaluations();
    // The pool counts into the registry built for it above, so these
    // totals are this run's alone.
    let remote_evals = pool.obs().counter_value("tuned_remote_completed_total");
    let fallback_evals = pool
        .obs()
        .counter_value("tuned_remote_fallback_evals_total");
    let evals_per_sec = evaluations as f64 * 1e6 / elapsed_micros as f64;
    let efficiency =
        evals_per_sec / (cfg.workers.max(1) as f64 * serial_evals_per_sec(cfg.eval_cost));
    ScaleReport {
        workers: cfg.workers,
        evaluations,
        elapsed_micros,
        evals_per_sec,
        efficiency,
        remote_evals,
        fallback_evals,
        batches: pool.obs().counter_value("tuned_remote_batches_total"),
        bit_identical,
        lossless: remote_evals + fallback_evals == evaluations as u64,
        best_genes,
        best_fitness,
    }
}

/// Runs `cfg` up to `attempts` times and returns the most efficient
/// report, stopping early once one reaches `target` efficiency.
///
/// Sound because the measurement's noise is one-sided: virtual elapsed
/// can never undershoot the workload's critical path of virtual sleeps,
/// and the only nondeterminism — a loaded host descheduling a runnable
/// (but unbracketed) thread for longer than [`crate::GRACE`], which the
/// idle-advance rule then mistakes for quiescence — *adds* spurious
/// virtual time. So the best attempt is the faithful throughput figure
/// and still a lower bound on the true parallel efficiency.
///
/// Correctness flags are not measurements: a bit-identity or
/// losslessness failure is a real bug on any attempt, so the first
/// attempt that trips one is returned immediately, un-retried.
#[must_use]
pub fn run_scale_to(cfg: &ScaleConfig, target: f64, attempts: usize) -> ScaleReport {
    let mut best: Option<ScaleReport> = None;
    for _ in 0..attempts.max(1) {
        let report = run_scale(cfg);
        if !(report.bit_identical && report.lossless) {
            return report;
        }
        let reached = report.efficiency >= target;
        if best
            .as_ref()
            .is_none_or(|b| report.efficiency > b.efficiency)
        {
            best = Some(report);
        }
        if reached {
            break;
        }
    }
    best.expect("at least one attempt ran")
}

/// The efficiency a CI-gated worker count must reach: 2 workers must
/// beat the serial baseline (efficiency 1/2, taken with a margin) and
/// 16 must hold [`MIN_EFFICIENCY_AT_16`]. Ungated counts are reported
/// as measured, single-shot — nothing asserts on them.
fn gate_target(workers: usize) -> Option<f64> {
    match workers {
        2 => Some(0.55),
        16 => Some(MIN_EFFICIENCY_AT_16),
        _ => None,
    }
}

/// The full suite: the clean scaling sweep over `counts`, plus three
/// fault variants at 4 workers (lossy/laggy links, a mid-run crash of
/// "w0", a never-healed partition of "w1").
#[derive(Debug, Clone)]
pub struct ScaleSuite {
    /// Fault-free measurements, one per worker count.
    pub sweep: Vec<ScaleReport>,
    /// The fault variants, labeled.
    pub faulted: Vec<(String, ScaleReport)>,
}

impl ScaleSuite {
    /// The clean-sweep report at `workers`, if that count was measured.
    #[must_use]
    pub fn at(&self, workers: usize) -> Option<&ScaleReport> {
        self.sweep.iter().find(|r| r.workers == workers)
    }

    /// The composite verdict CI greps for: every run (clean and
    /// faulted) bit-identical and lossless, 2 workers strictly beating
    /// the serial baseline, and ≥ [`MIN_EFFICIENCY_AT_16`] efficiency
    /// at 16 workers — each threshold checked only when its worker
    /// count was part of the sweep.
    #[must_use]
    pub fn ok(&self) -> bool {
        let clean = self
            .sweep
            .iter()
            .chain(self.faulted.iter().map(|(_, r)| r))
            .all(|r| r.bit_identical && r.lossless);
        let beats_local = self
            .at(2)
            .is_none_or(|r| r.evals_per_sec > serial_evals_per_sec(EVAL_COST));
        let efficient = self
            .at(16)
            .is_none_or(|r| r.efficiency >= MIN_EFFICIENCY_AT_16);
        clean && beats_local && efficient
    }

    /// The `BENCH_scale.json` summary of a suite run with `seed`
    /// (`simtest scale` appends `wall_secs`).
    #[must_use]
    pub fn to_json(&self, seed: u64) -> Json {
        let sweep = self.sweep.iter().map(|r| Json::obj(r.to_json()));
        let faulted = self.faulted.iter().map(|(label, r)| {
            let mut row = vec![("fault", Json::Str(label.clone()))];
            row.extend(r.to_json());
            Json::obj(row)
        });
        let serial = f64_to_json(serial_evals_per_sec(EVAL_COST));
        Json::obj(vec![
            ("bench", Json::Str("sim_scale".into())),
            ("clock", Json::Str("virtual".into())),
            ("seed", Json::Int(seed as i64)),
            ("serial_evals_per_vsec", serial),
            ("sweep", Json::Arr(sweep.collect())),
            ("faulted", Json::Arr(faulted.collect())),
            ("scale_ok", Json::Bool(self.ok())),
        ])
    }
}

/// Runs the whole suite for one seed. `counts` is typically
/// [`WORKER_COUNTS`]; CI's fast profile passes a shorter list.
#[must_use]
pub fn run_scale_suite(seed: u64, counts: &[usize]) -> ScaleSuite {
    let sweep = counts
        .iter()
        .map(|&w| {
            let cfg = ScaleConfig::new(seed, w);
            match gate_target(w) {
                Some(target) => run_scale_to(&cfg, target, MEASURE_ATTEMPTS),
                None => run_scale(&cfg),
            }
        })
        .collect();
    let mut faulted = Vec::new();

    let mut lossy = ScaleConfig::new(seed.wrapping_add(1), 4);
    lossy.plan = FaultPlan {
        drop_p: 0.05,
        dup_p: 0.05,
        delay_p: 0.25,
        delay_max_micros: 20_000,
    };
    faulted.push(("lossy-links".to_string(), run_scale(&lossy)));

    let mut crash = ScaleConfig::new(seed.wrapping_add(2), 4);
    crash.crash_w0_after = Some(Duration::from_millis(500));
    faulted.push(("crash-w0".to_string(), run_scale(&crash)));

    let mut part = ScaleConfig::new(seed.wrapping_add(3), 4);
    part.partition_w1 = true;
    faulted.push(("partition-w1".to_string(), run_scale(&part)));

    ScaleSuite { sweep, faulted }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fitness_is_pure_and_minimized_at_the_target() {
        let at_target = synthetic_fitness(&[7, 11, 3, 120]);
        assert_eq!(at_target, 0.0);
        let off = synthetic_fitness(&[50, 30, 15, 400]);
        assert!(off > 0.0);
        assert_eq!(
            off.to_bits(),
            synthetic_fitness(&[50, 30, 15, 400]).to_bits()
        );
    }

    #[test]
    fn serial_baseline_matches_the_cost() {
        let rate = serial_evals_per_sec(Duration::from_millis(30));
        assert!((rate - 33.333).abs() < 0.01, "got {rate}");
    }
}
