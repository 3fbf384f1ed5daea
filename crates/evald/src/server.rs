//! The eval RPC server: the worker-side half of the dispatch protocol.
//!
//! One thread per connection, same defensive framing as `tuned`
//! (oversized frames kill the connection; malformed JSON gets an error
//! envelope and the connection survives). A connection speaks:
//!
//! ```text
//! → {"cmd":"task","job":{...JobSpec...}}    bind this connection to a cell
//! ← {"ok":true}
//! → {"cmd":"eval_batch","id":"1","evals":[{"id":0,"genes":[...]},...]}
//! ← {"ok":true,"id":"1","results":[{"id":0,"fitness":...},
//!        {"id":3,"error":"..."}]}           one frame per whole batch
//! ```
//!
//! plus `ping`, `metrics`, and `shutdown`. `eval_batch` carries a whole
//! generation's worth of genomes in one round-trip with per-item
//! results (partial-failure semantics: a bad genome yields an error
//! entry, not a failed envelope). Fitness goes through
//! [`problems::Problem::fitness`] — the identical pure measurement
//! path the in-process daemon runs — which is what makes distributed
//! runs bit-identical to local ones. The job spec names the problem, so
//! one worker serves `inline`, `flags` and `dss` evals side by side.

use std::io::{BufReader, BufWriter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use problems::Problem;
use served::json::Json;
use served::proto::{
    err, eval_batch_response, ok_with, parse_eval_batch_request, parse_request, read_frame,
    write_frame, EvalOutcome, Frame,
};
use served::{JobSpec, NetListener, NetStream, TcpTransport, Transport};

use crate::cache::ProblemCache;
use crate::chaos::Chaos;

/// How long a connection may sit idle before its thread is reclaimed.
/// The dispatcher keeps one warm connection per job and sends a batch
/// every round, so a connection idle this long most likely belongs to a
/// job that is gone (a live one just reconnects).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval of the accept loop.
const POLL: Duration = Duration::from_millis(50);

/// The eval worker server. Owns the listener; serves until `shutdown`
/// arrives or the stop flag is raised.
pub struct EvalWorker {
    transport: Arc<dyn Transport>,
    listener: Box<dyn NetListener>,
    cache: Arc<ProblemCache>,
    chaos: Arc<Chaos>,
    obs: Arc<obs::Registry>,
    stop: Arc<AtomicBool>,
}

impl EvalWorker {
    /// Binds to `addr` over real TCP (use port 0 for an OS-assigned
    /// port). Records into the process-wide [`obs::global`] registry —
    /// which is also what its `metrics` verb reads, so workers sharing a
    /// process share those totals.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind(addr: &str, chaos: Chaos) -> Result<Self, String> {
        Self::bind_with_obs(addr, chaos, Arc::clone(obs::global()))
    }

    /// Like [`EvalWorker::bind`], but records into `obs` — tests inject
    /// a private registry (often with an [`obs::ManualClock`]) so
    /// assertions are exact and unpolluted by other tests.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind_with_obs(
        addr: &str,
        chaos: Chaos,
        obs: Arc<obs::Registry>,
    ) -> Result<Self, String> {
        Self::bind_on(TcpTransport::shared(), addr, chaos, obs)
    }

    /// Binds to `addr` over `transport` (the simulation harness passes
    /// a `sim::SimTransport`).
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind_on(
        transport: Arc<dyn Transport>,
        addr: &str,
        chaos: Chaos,
        obs: Arc<obs::Registry>,
    ) -> Result<Self, String> {
        let listener = transport
            .bind(addr)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Self {
            transport,
            listener,
            cache: Arc::new(ProblemCache::new()),
            chaos: Arc::new(chaos),
            obs,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound `host:port` (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// A flag that makes [`EvalWorker::serve`] return when raised.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts and serves connections until stopped. Connection threads
    /// are detached and die with their sockets.
    ///
    /// # Errors
    /// Propagates listener failures.
    pub fn serve(&self) -> Result<(), String> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept(POLL) {
                Ok(Some(stream)) => {
                    self.obs.counter("evald_connections").inc();
                    let cache = Arc::clone(&self.cache);
                    let chaos = Arc::clone(&self.chaos);
                    let reg = Arc::clone(&self.obs);
                    let stop = Arc::clone(&self.stop);
                    let transport = Arc::clone(&self.transport);
                    let _ =
                        std::thread::Builder::new()
                            .name("evald-conn".into())
                            .spawn(move || {
                                serve_connection(stream, &cache, &chaos, &reg, &stop, &transport);
                            });
                }
                Ok(None) => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        Ok(())
    }
}

fn serve_connection(
    stream: Box<dyn NetStream>,
    cache: &ProblemCache,
    chaos: &Chaos,
    reg: &obs::Registry,
    stop: &AtomicBool,
    transport: &Arc<dyn Transport>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    // The cell this connection evaluates for, set by the `task` verb.
    let mut task: Option<Arc<dyn Problem>> = None;

    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_frame(&mut reader) {
            Frame::Line(line) => line,
            Frame::Eof => return,
            Frame::Oversized => {
                let _ = write_frame(
                    &mut writer,
                    &protocol_err(reg, "frame exceeds 1 MiB; closing"),
                );
                return;
            }
            Frame::Err(_) => return, // idle timeout or broken pipe
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Ok((cmd, body)) => match cmd.as_str() {
                "ping" => ok_with(vec![("pong", Json::Bool(true))]),
                "task" => match body.get("job") {
                    None => err("task needs a 'job' object"),
                    // Constructing a Problem on a cache miss is real CPU
                    // work: hold the busy bracket so a simulated clock
                    // cannot time the handshake out underneath it.
                    Some(job) => match {
                        let _busy = served::net::busy(&**transport);
                        JobSpec::from_json(job).and_then(|s| cache.get(&s))
                    } {
                        Ok((t, was_cached)) => {
                            reg.counter(if was_cached {
                                "evald_task_cache_hits"
                            } else {
                                "evald_task_cache_misses"
                            })
                            .inc();
                            task = Some(t);
                            ok_with(vec![])
                        }
                        Err(e) => err(e),
                    },
                },
                "eval_batch" => match eval_batch(&body, task.as_ref(), chaos, reg, &**transport) {
                    Ok(v) => v,
                    Err(Dropped) => return, // chaos: die mid-batch, no reply
                },
                "metrics" => {
                    // A view: each key reads the counter its events bump.
                    let count = |name: &str| Json::Int(reg.counter_value(name) as i64);
                    ok_with(vec![(
                        "metrics",
                        Json::obj(vec![
                            ("connections", count("evald_connections")),
                            ("evals", count("evald_evals")),
                            ("chaos_drops", count("evald_chaos_drops")),
                            ("protocol_errors", count("evald_protocol_errors")),
                        ]),
                    )])
                }
                "shutdown" => {
                    let _ = write_frame(&mut writer, &ok_with(vec![]));
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                other => protocol_err(reg, format!("unknown cmd '{other}'")),
            },
            Err(e) => protocol_err(reg, e),
        };
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// An error envelope for a frame the worker could not act on, counted
/// as a protocol error.
fn protocol_err(reg: &obs::Registry, message: impl Into<String>) -> Json {
    reg.counter("evald_protocol_errors").inc();
    err(message)
}

/// Marker: chaos decided this connection dies without a reply.
struct Dropped;

/// Handles one `eval_batch` request: every item goes through
/// [`measure`], and per-item failures come back as
/// `{"id":N,"error":...}` entries instead of failing the envelope —
/// partial-failure semantics at batch granularity. A chaos drop kills
/// the connection mid-batch without a reply, so the dispatcher
/// re-dispatches the whole unanswered remainder.
fn eval_batch(
    body: &Json,
    task: Option<&Arc<dyn Problem>>,
    chaos: &Chaos,
    reg: &obs::Registry,
    transport: &dyn Transport,
) -> Result<Json, Dropped> {
    let Some(problem) = task else {
        return Ok(protocol_err(
            reg,
            "no task set on this connection (send 'task' first)",
        ));
    };
    let (batch_id, evals) = match parse_eval_batch_request(body) {
        Ok(parsed) => parsed,
        Err(e) => {
            return Ok(protocol_err(reg, e));
        }
    };
    let mut results = Vec::with_capacity(evals.len());
    for req in &evals {
        let outcome = match measure(&req.genes, problem, chaos, reg, transport)? {
            Ok(fitness) => EvalOutcome::Fitness(fitness),
            Err(e) => EvalOutcome::Error(e),
        };
        results.push((req.id, outcome));
    }
    reg.histogram("evald_batch_size").record(evals.len() as u64);
    Ok(eval_batch_response(batch_id, &results))
}

/// Measures one genome: space validation, chaos injection and the
/// busy-bracketed fitness call. The genes are validated against the
/// problem's space *before* evaluating — a remote peer must never be
/// able to panic the worker (problem decoders may assert on arity), and
/// the daemon appends every score that comes back to the shared fitness
/// store, where an out-of-space genome's would be poison.
fn measure(
    genes: &[i64],
    problem: &Arc<dyn Problem>,
    chaos: &Chaos,
    reg: &obs::Registry,
    transport: &dyn Transport,
) -> Result<Result<f64, String>, Dropped> {
    if !problem.space().contains(genes) {
        reg.counter("evald_protocol_errors").inc();
        return Ok(Err(format!(
            "genes {genes:?} outside problem '{}'s space",
            problem.id()
        )));
    }
    if chaos.should_drop() {
        reg.counter("evald_chaos_drops").inc();
        return Err(Dropped);
    }
    chaos.delay();
    let started = reg.now_micros();
    // The measurement is real CPU work: hold the busy bracket so a
    // simulated clock cannot advance the dispatcher's request deadline
    // past us while we compute.
    let fitness = {
        let _busy = served::net::busy(transport);
        problem.fitness(genes)
    };
    reg.histogram("evald_eval_micros")
        .record(reg.now_micros().saturating_sub(started));
    reg.counter("evald_evals").inc();
    Ok(Ok(fitness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::GaConfig;
    use inliner::InlineParams;
    use jit::Scenario;
    use served::proto::{eval_batch_request, parse_eval_batch_response, EvalRequest};
    use std::io::Write;
    use std::net::TcpStream;
    use tuner::{Goal, Tuner};

    fn spec() -> JobSpec {
        JobSpec {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: "x86-p4".into(),
            suite: vec!["db".into()],
            ga: GaConfig {
                pop_size: 6,
                generations: 2,
                threads: 1,
                seed: 11,
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

    struct TestConn {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
    }

    impl TestConn {
        fn open(addr: &str) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let write_half = stream.try_clone().unwrap();
            Self {
                reader: BufReader::new(stream),
                writer: BufWriter::new(write_half),
            }
        }

        fn read(&mut self) -> Json {
            match read_frame(&mut self.reader) {
                Frame::Line(line) => served::json::parse(&line).unwrap(),
                other => panic!("expected a response line, got {other:?}"),
            }
        }

        fn roundtrip(&mut self, req: &Json) -> Json {
            write_frame(&mut self.writer, req).unwrap();
            self.read()
        }

        fn raw(&mut self, text: &str) -> Json {
            self.writer.write_all(text.as_bytes()).unwrap();
            self.writer.write_all(b"\n").unwrap();
            self.writer.flush().unwrap();
            self.read()
        }

        /// One `eval_batch` round trip; the outcomes in item order.
        fn batch(&mut self, batch_id: u64, genomes: &[Vec<i64>]) -> Vec<EvalOutcome> {
            let resp = self.roundtrip(&eval_batch_frame(batch_id, genomes));
            let (echoed, results) = parse_eval_batch_response(&resp).unwrap();
            assert_eq!(echoed, batch_id, "batch id must echo");
            let ids: Vec<usize> = results.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, (0..genomes.len()).collect::<Vec<_>>());
            results.into_iter().map(|(_, outcome)| outcome).collect()
        }

        fn ping(&mut self) {
            let pong = self.roundtrip(&Json::obj(vec![("cmd", Json::Str("ping".into()))]));
            assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        }
    }

    fn start_worker(chaos: Chaos) -> (String, Arc<AtomicBool>) {
        let worker = EvalWorker::bind("127.0.0.1:0", chaos).unwrap();
        let addr = worker.local_addr();
        let stop = worker.stop_flag();
        std::thread::spawn(move || worker.serve().unwrap());
        (addr, stop)
    }

    fn task_frame(s: &JobSpec) -> Json {
        Json::obj(vec![
            ("cmd", Json::Str("task".into())),
            ("job", s.to_json()),
        ])
    }

    /// The one request shape a worker is asked with: item `i` carries
    /// `genomes[i]`.
    fn eval_batch_frame(batch_id: u64, genomes: &[Vec<i64>]) -> Json {
        let evals: Vec<EvalRequest> = genomes
            .iter()
            .enumerate()
            .map(|(id, genes)| EvalRequest {
                id,
                genes: genes.clone(),
            })
            .collect();
        eval_batch_request(batch_id, &evals)
    }

    fn bits(outcome: &EvalOutcome) -> u64 {
        match outcome {
            EvalOutcome::Fitness(f) => f.to_bits(),
            EvalOutcome::Error(e) => panic!("expected a fitness, got error: {e}"),
        }
    }

    #[test]
    fn answers_evals_with_the_exact_local_fitness() {
        let (addr, stop) = start_worker(Chaos::inert());
        let mut conn = TestConn::open(&addr);
        let s = spec();
        assert_eq!(
            conn.roundtrip(&task_frame(&s)).get("ok"),
            Some(&Json::Bool(true))
        );

        // The direct tuner path, not the `Problem` wrapper the worker runs.
        let local = Tuner::new(s.task().unwrap(), s.training().unwrap(), s.adapt_cfg());
        let genes = InlineParams::jikes_default().to_genes();
        let expected = local.fitness(&InlineParams::from_genes(&genes));

        let got = conn.batch(3, &[genes]);
        assert_eq!(bits(&got[0]), expected.to_bits(), "bit-identical fitness");
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn one_worker_serves_every_problem_side_by_side() {
        let (addr, stop) = start_worker(Chaos::inert());
        for &problem in problems::KNOWN {
            let s = JobSpec {
                problem: problem.into(),
                ..spec()
            };
            let p = s.build_problem().unwrap();
            let genes = p.space().random(&mut simrng::Rng::seed_from_u64(7));
            let expected = p.fitness(&genes);

            let mut conn = TestConn::open(&addr);
            let bind = conn.roundtrip(&task_frame(&s));
            assert_eq!(bind.get("ok"), Some(&Json::Bool(true)), "{problem}");
            // A genome of the wrong arity for *this* problem bounces.
            let wrong = vec![0i64; genes.len() + 1];
            let got = conn.batch(1, &[genes, wrong]);
            assert_eq!(bits(&got[0]), expected.to_bits(), "{problem} fitness bits");
            assert!(matches!(got[1], EvalOutcome::Error(_)), "{problem}");
        }
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn eval_batch_answers_every_item_bit_identically_in_one_frame() {
        let (addr, stop) = start_worker(Chaos::inert());
        let mut conn = TestConn::open(&addr);
        let s = spec();
        conn.roundtrip(&task_frame(&s));

        let p = s.build_problem().unwrap();
        let mut rng = simrng::Rng::seed_from_u64(3);
        let genomes: Vec<Vec<i64>> = (0..5).map(|_| p.space().random(&mut rng)).collect();

        let got = conn.batch(42, &genomes);
        for (genome, outcome) in genomes.iter().zip(&got) {
            assert_eq!(bits(outcome), p.fitness(genome).to_bits(), "{genome:?}");
        }
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn eval_batch_reports_bad_items_without_failing_the_envelope() {
        let (addr, stop) = start_worker(Chaos::inert());
        let mut conn = TestConn::open(&addr);
        conn.roundtrip(&task_frame(&spec()));
        let good = InlineParams::jikes_default().to_genes();
        // Wrong length and wildly out-of-range values: both must come
        // back as error entries, not a failed envelope, and the good
        // items on either side must still be measured.
        let got = conn.batch(
            1,
            &[
                good.clone(),
                vec![1, 2],
                good.clone(),
                vec![-999; 5],
                good.clone(),
            ],
        );
        for (i, outcome) in got.iter().enumerate() {
            let is_error = matches!(outcome, EvalOutcome::Error(_));
            assert_eq!(is_error, i % 2 == 1, "item {i}: {outcome:?}");
        }
        // The connection survives a partial failure.
        conn.ping();
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn eval_batch_without_task_is_an_error_not_a_panic() {
        let (addr, stop) = start_worker(Chaos::inert());
        let mut conn = TestConn::open(&addr);
        let resp = conn.roundtrip(&eval_batch_frame(0, &[vec![1, 2, 3, 4, 5]]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        stop.store(true, Ordering::SeqCst);
    }

    /// A registry of its own: the tests below read exact totals, and the
    /// global one is shared with every other test's worker.
    fn start_private_worker() -> (String, Arc<obs::Registry>) {
        let reg = Arc::new(obs::Registry::new());
        let worker =
            EvalWorker::bind_with_obs("127.0.0.1:0", Chaos::inert(), Arc::clone(&reg)).unwrap();
        let addr = worker.local_addr();
        std::thread::spawn(move || worker.serve().unwrap());
        (addr, reg)
    }

    #[test]
    fn the_single_eval_verb_is_an_unknown_cmd() {
        let (addr, reg) = start_private_worker();
        let mut conn = TestConn::open(&addr);
        conn.roundtrip(&task_frame(&spec()));
        let resp = conn.raw(r#"{"cmd":"eval","id":0,"genes":[1,2,3,4,5]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("unknown cmd 'eval'"), "{error}");
        assert_eq!(reg.counter_value("evald_protocol_errors"), 1);
        assert_eq!(reg.counter_value("evald_evals"), 0);
        conn.roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]));
    }

    #[test]
    fn malformed_json_gets_an_error_and_the_connection_survives() {
        let (addr, stop) = start_worker(Chaos::inert());
        let mut conn = TestConn::open(&addr);
        let resp = conn.raw("this is not json");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        conn.ping();
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn chaos_drop_closes_the_connection_without_a_reply() {
        let cfg = crate::chaos::ChaosConfig::parse("drop:1.0").unwrap();
        let (addr, stop) = start_worker(Chaos::new(cfg, 1));
        let mut conn = TestConn::open(&addr);
        conn.roundtrip(&task_frame(&spec()));
        let genes = InlineParams::jikes_default().to_genes();
        write_frame(&mut conn.writer, &eval_batch_frame(0, &[genes])).unwrap();
        // The worker must close without replying: EOF, not a frame.
        match read_frame(&mut conn.reader) {
            Frame::Eof => {}
            other => panic!("expected EOF from a chaos drop, got {other:?}"),
        }
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn metrics_and_shutdown_verbs_work() {
        let (addr, _reg) = start_private_worker();
        let mut conn = TestConn::open(&addr);
        conn.roundtrip(&task_frame(&spec()));
        conn.batch(0, &[InlineParams::jikes_default().to_genes()]);
        let m = conn.roundtrip(&Json::obj(vec![("cmd", Json::Str("metrics".into()))]));
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)));
        let verb = m.get("metrics").unwrap();
        assert_eq!(verb.get("evals"), Some(&Json::Int(1)));
        assert_eq!(verb.get("connections"), Some(&Json::Int(1)));
        assert_eq!(verb.get("chaos_drops"), Some(&Json::Int(0)));
        assert_eq!(verb.get("protocol_errors"), Some(&Json::Int(0)));
        let down = conn.roundtrip(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]));
        assert_eq!(down.get("ok"), Some(&Json::Bool(true)));
        // The accept loop winds down; a new connect may linger in the
        // backlog, so just confirm the flag did its job via EOF here.
        assert!(matches!(read_frame(&mut conn.reader), Frame::Eof));
    }
}
