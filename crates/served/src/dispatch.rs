//! The remote-evaluation dispatch layer: a [`WorkerPool`] of `evald`
//! processes and a [`RemoteEvaluator`] that fans a GA generation's
//! cache-miss evaluations out over them.
//!
//! The paper's GA spends essentially all of its time in fitness
//! measurement (§4 — hours of repeated benchmark runs per tuning cell),
//! so this is the tier that scales horizontally. Design constraints:
//!
//! * **Bit-identical to local.** Fitness is a pure function of the genome
//!   and results merge into the GA memo table keyed by genome, so the
//!   assignment of genomes to workers — and any amount of retrying,
//!   failover, batching or local fallback — cannot change the search
//!   trajectory.
//! * **Production robustness.** Per-batch timeouts, capped exponential
//!   backoff on reconnects, eviction of workers that send garbage
//!   (malformed / oversized frames, unknown or duplicate ids, per-item
//!   errors) or keep failing health checks, re-dispatch of work orphaned
//!   by a dead worker at batch granularity, and bounded
//!   outstanding-work-per-worker backpressure
//!   ([`DispatchConfig::max_inflight`]).
//! * **One round-trip per batch.** All genomes claimed by a worker ride
//!   in a single `eval_batch` frame and come back in a single response
//!   frame with per-genome results, so the link RTT is paid once per
//!   batch instead of once per genome. Batch size adapts to the link: a
//!   per-worker RTT model ([`Worker::batch_target`]) claims small
//!   batches on fast links (better load balance across workers) and
//!   large batches when the round-trip dominates the per-eval cost.
//! * **Graceful degradation.** Genomes no live worker could answer go,
//!   as one batch, to the caller-supplied local evaluator, so a job
//!   finishes even if every worker dies mid-generation — and a pool
//!   nobody ever joined is that same local evaluator with nothing in
//!   front of it.
//!
//! Every socket, sleep, and clock read goes through the
//! [`crate::net::Transport`] seam, so the identical dispatch logic runs
//! on real TCP in production and on the simulated network (virtual
//! clock, seeded faults) under `crates/sim`.
//!
//! The wire conversation with one worker (line-delimited JSON, the same
//! framing as the `tuned` protocol):
//!
//! ```text
//! → {"cmd":"task","job":{...JobSpec...}}       once per connection
//! ← {"ok":true}
//! → {"cmd":"eval_batch","id":"1",
//!    "evals":[{"id":0,"genes":[23,...]},...]}  one frame per batch
//! ← {"ok":true,"id":"1",
//!    "results":[{"id":0,"fitness":0.94...},
//!               {"id":3,"error":"..."}]}       per-genome outcomes
//! ```
//!
//! Partial-failure semantics: delivered fitness entries are committed
//! (they are real measurements of a pure function); a per-item error,
//! an unknown or duplicate id, or a batch-id mismatch evicts the worker
//! and re-queues whatever it had not answered; a timeout or connection
//! death re-queues the whole unanswered remainder as a transient
//! failure. Either way no genome is lost and none is committed twice —
//! [`BatchLedger`] enforces exactly-once resolution.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ga::{Evaluator, Genome, PendingScores, ReadyScores};

use crate::json::Json;
use crate::net::{NetStream, TcpTransport, Transport};
use crate::proto::{
    eval_batch_request, parse_eval_batch_response, read_frame, write_frame, EvalOutcome,
    EvalRequest, Frame,
};

/// Dispatcher tunables.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Connect timeout per attempt.
    pub connect_timeout: Duration,
    /// How long to wait for one eval's worth of response before declaring
    /// a timeout; a batch of `n` gets `n ×` this as its read deadline.
    pub request_timeout: Duration,
    /// First retry backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive transient failures (connect errors, timeouts, dropped
    /// connections) before a worker is evicted from the pool.
    pub max_consecutive_failures: u32,
    /// Maximum genomes outstanding on one worker connection — the
    /// backpressure bound and the adaptive batch-size ceiling. Higher
    /// values amortize the round-trip better over slow links; lower
    /// values spread a small generation more evenly.
    pub max_inflight: usize,
    /// The fleet's one liveness TTL: a registered (heartbeating) worker
    /// whose last register or heartbeat frame is older than this is
    /// evicted from the pool, and so leaves every shard's lease set.
    /// Statically configured workers are exempt — they never heartbeat;
    /// failed requests evict them instead.
    pub stale_after: Duration,
    /// How long a dispatch thread with nothing left to claim dozes
    /// before re-checking the queue (work re-appears there when another
    /// worker times out and its claims are re-dispatched).
    pub idle_poll: Duration,
    /// **Test hook.** When `false`, work claimed by a failing worker is
    /// silently dropped instead of returned to the queue — the exact
    /// lost-work bug class the simulation sweep exists to catch. Never
    /// disable outside a harness proving the harness.
    pub redispatch: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_consecutive_failures: 3,
            max_inflight: 8,
            stale_after: Duration::from_secs(10),
            idle_poll: Duration::from_millis(2),
            redispatch: true,
        }
    }
}

/// The per-worker values that must be read together. A worker's
/// failure events (retries, timeouts, evictions) are not here: they
/// are `obs` registry counters labelled with its address.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Eval requests written to this worker (including re-sends).
    pub dispatched: u64,
    /// Eval results successfully received.
    pub completed: u64,
    /// Accumulated batch round-trip latency, microseconds. One batch
    /// contributes its RTT once, so `rtt_micros / completed` is the
    /// amortized per-eval latency.
    pub rtt_micros: u64,
}

/// Per-worker monotonic counters behind one lock, so related fields
/// (`completed` and `rtt_micros`) always move — and are read —
/// together. Independent atomics here once let a `metrics` reply observe
/// `completed` bumped but `rtt_micros` not yet, skewing the derived mean
/// RTT; a locked [`WorkerStats::update`] makes every snapshot a
/// consistent point in time.
#[derive(Debug, Default)]
pub struct WorkerStats {
    inner: Mutex<WorkerCounters>,
}

impl WorkerStats {
    /// Applies one atomic multi-field update.
    pub fn update(&self, f: impl FnOnce(&mut WorkerCounters)) {
        f(&mut self.inner.lock().expect("worker stats poisoned"));
    }

    /// A consistent point-in-time copy of every counter.
    #[must_use]
    pub fn read(&self) -> WorkerCounters {
        *self.inner.lock().expect("worker stats poisoned")
    }
}

/// The per-worker RTT model behind adaptive batch sizing. Two EWMAs:
/// the fixed per-round-trip overhead (estimated from the `task`
/// handshake, which does no evaluation work) and the per-item
/// evaluation cost (estimated from completed batches). The target batch
/// size is the smallest batch whose useful work amortizes the overhead
/// [`AMORTIZE`]-fold — so a localhost link with millisecond evals claims
/// one genome at a time (perfect load balance across workers), while a
/// high-latency link claims up to `max_inflight` (the round-trip is
/// paid once either way).
#[derive(Debug, Default)]
struct BatchTuner {
    /// EWMA of the fixed per-RPC overhead (micros); 0 until a handshake
    /// has been timed.
    overhead_micros: f64,
    /// EWMA of the per-item evaluation cost (micros).
    item_micros: f64,
    /// Whether any completed batch has primed `item_micros`. Unprimed,
    /// the target stays at `max_inflight` — the pre-adaptive behavior.
    primed: bool,
}

/// EWMA smoothing factor for the RTT model: new observations count 40%.
const EWMA_ALPHA: f64 = 0.4;

/// Target ratio of per-batch evaluation work to fixed RPC overhead: a
/// batch should carry at least this many overheads' worth of work.
const AMORTIZE: f64 = 8.0;

impl BatchTuner {
    fn note_handshake(&mut self, rtt_micros: u64) {
        let r = rtt_micros as f64;
        self.overhead_micros = if self.overhead_micros == 0.0 {
            r
        } else {
            EWMA_ALPHA * r + (1.0 - EWMA_ALPHA) * self.overhead_micros
        };
    }

    fn note_batch(&mut self, len: u64, rtt_micros: u64) {
        if len == 0 {
            return;
        }
        let per_item = ((rtt_micros as f64 - self.overhead_micros) / len as f64).max(1.0);
        self.item_micros = if self.primed {
            EWMA_ALPHA * per_item + (1.0 - EWMA_ALPHA) * self.item_micros
        } else {
            per_item
        };
        self.primed = true;
    }

    fn target(&self, max_inflight: usize) -> usize {
        let cap = max_inflight.max(1);
        if !self.primed {
            return cap;
        }
        let ideal = (AMORTIZE * self.overhead_micros / self.item_micros).ceil();
        if !ideal.is_finite() {
            return cap;
        }
        // f64→usize casts saturate, so huge ideals clamp to `cap`.
        (ideal as usize).clamp(1, cap)
    }
}

/// A worker failure event, counted at two grains by one
/// [`Worker::count`] call: `(per-worker series, daemon-wide total)` —
/// the series labelled `{worker="addr"}` that a `workers[]` row reads
/// back, and the total the `metrics` verb's `remote` object reports.
type WorkerEvent = (&'static str, &'static str);
/// A claimed request returned to the queue after a failure on a worker.
const RETRY: WorkerEvent = ("dispatch_retries", "tuned_remote_retries_total");
/// A batch wait that hit the read deadline.
const TIMEOUT: WorkerEvent = ("dispatch_timeouts", "tuned_remote_timeouts_total");
/// A worker's transition out of the live set.
const EVICTION: WorkerEvent = ("dispatch_evictions", "tuned_remote_evictions_total");

/// One worker endpoint and its health. Liveness timestamps are
/// transport-clock micros supplied by the pool, so a simulated run's
/// staleness sweeps follow the virtual clock.
#[derive(Debug)]
pub struct Worker {
    /// The `host:port` the worker's eval server listens on.
    pub addr: String,
    /// Whether the worker announced itself via `register` (and is
    /// therefore expected to heartbeat) or came from static config.
    pub registered: bool,
    /// Counters.
    pub stats: WorkerStats,
    alive: AtomicBool,
    last_seen: AtomicU64,
    tuner: Mutex<BatchTuner>,
}

impl Worker {
    /// A standalone worker handle (pools build their own via
    /// [`WorkerPool::add`]; tests exercise counter semantics directly).
    #[must_use]
    pub fn new(addr: String, registered: bool) -> Self {
        Self {
            addr,
            registered,
            stats: WorkerStats::default(),
            alive: AtomicBool::new(true),
            last_seen: AtomicU64::new(0),
            tuner: Mutex::new(BatchTuner::default()),
        }
    }

    /// Whether the worker is currently in the live set.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Records proof of life (heartbeat received, or a response arrived)
    /// at transport time `now` (micros).
    pub fn touch_at(&self, now: u64) {
        self.last_seen.fetch_max(now, Ordering::SeqCst);
    }

    fn seen_within(&self, now: u64, window: Duration) -> bool {
        let age = now.saturating_sub(self.last_seen.load(Ordering::SeqCst));
        age <= window.as_micros() as u64
    }

    /// The registry key of this worker's series in the `base` family.
    fn labelled(&self, base: &str) -> String {
        obs::labeled(base, &[("worker", &self.addr)])
    }

    /// Records `n` occurrences of `event` on this worker.
    fn count(&self, reg: &obs::Registry, (per_worker, total): WorkerEvent, n: u64) {
        reg.counter(&self.labelled(per_worker)).add(n);
        reg.counter(total).add(n);
    }

    /// Removes the worker from the live set, counting the eviction
    /// exactly once per transition.
    pub fn evict(&self, reg: &obs::Registry) {
        if self.alive.swap(false, Ordering::SeqCst) {
            self.count(reg, EVICTION, 1);
        }
    }

    fn revive_at(&self, now: u64) {
        self.touch_at(now);
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Feeds the RTT model a timed `task` handshake (a round-trip that
    /// does no evaluation work — the fixed per-RPC overhead).
    pub fn note_handshake_rtt(&self, rtt_micros: u64) {
        self.tuner
            .lock()
            .expect("batch tuner poisoned")
            .note_handshake(rtt_micros);
    }

    /// Feeds the RTT model one completed batch of `len` evals that took
    /// `rtt_micros` end to end.
    pub fn note_batch_rtt(&self, len: u64, rtt_micros: u64) {
        self.tuner
            .lock()
            .expect("batch tuner poisoned")
            .note_batch(len, rtt_micros);
    }

    /// The adaptive batch size for this worker: always within
    /// `[1, max_inflight]` (treating `max_inflight == 0` as 1), and
    /// exactly `max_inflight` until the first completed batch primes
    /// the RTT model.
    #[must_use]
    pub fn batch_target(&self, max_inflight: usize) -> usize {
        self.tuner
            .lock()
            .expect("batch tuner poisoned")
            .target(max_inflight)
    }

    /// A plain-data copy of the worker's state for the `metrics` verb.
    /// The [`WorkerStats`] fields come from **one** locked read, so
    /// derived values (mean RTT) can never mix fields from different
    /// instants; the failure-event counts are read back from this
    /// worker's labelled series in `reg`.
    #[must_use]
    pub fn snapshot(&self, reg: &obs::Registry) -> WorkerSnapshot {
        let s = self.stats.read();
        let counted = |event: WorkerEvent| reg.counter_value(&self.labelled(event.0));
        WorkerSnapshot {
            addr: self.addr.clone(),
            alive: self.is_alive(),
            registered: self.registered,
            dispatched: s.dispatched,
            completed: s.completed,
            retries: counted(RETRY),
            timeouts: counted(TIMEOUT),
            evictions: counted(EVICTION),
            mean_rtt_ms: if s.completed > 0 {
                s.rtt_micros as f64 / s.completed as f64 / 1000.0
            } else {
                0.0
            },
        }
    }
}

/// A point-in-time copy of one worker's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// Worker address.
    pub addr: String,
    /// Whether the worker is in the live set.
    pub alive: bool,
    /// Self-registered (heartbeating) vs. statically configured.
    pub registered: bool,
    /// Requests written to the worker.
    pub dispatched: u64,
    /// Results received.
    pub completed: u64,
    /// Requests re-dispatched after a failure here.
    pub retries: u64,
    /// Batch-timeout events.
    pub timeouts: u64,
    /// Eviction events.
    pub evictions: u64,
    /// Mean per-eval latency (batch RTT amortized over its evals),
    /// milliseconds.
    pub mean_rtt_ms: f64,
}

/// The shared registry of evaluator workers: static config entries plus
/// anything that `register`ed at runtime.
pub struct WorkerPool {
    config: DispatchConfig,
    workers: Mutex<Vec<Arc<Worker>>>,
    obs: Arc<obs::Registry>,
    transport: Arc<dyn Transport>,
}

impl WorkerPool {
    /// An empty pool recording into the process-wide obs registry,
    /// dialing over real TCP. A caller that reads totals back from zero
    /// gives the pool a registry of its own ([`WorkerPool::set_obs`]).
    #[must_use]
    pub fn new(config: DispatchConfig) -> Self {
        Self {
            config,
            workers: Mutex::new(Vec::new()),
            obs: Arc::clone(obs::global()),
            transport: TcpTransport::shared(),
        }
    }

    /// Redirects everything the pool records — the `tuned_remote_*`
    /// totals, the per-worker event counters and the latency histograms
    /// — to `registry` (tests inject one built on a `ManualClock`).
    pub fn set_obs(&mut self, registry: Arc<obs::Registry>) {
        self.obs = registry;
    }

    /// The registry this pool records into.
    #[must_use]
    pub fn obs(&self) -> &Arc<obs::Registry> {
        &self.obs
    }

    /// Redirects the pool's sockets, sleeps, and liveness clock to
    /// `transport` (the sim harness injects its simulated network).
    pub fn set_transport(&mut self, transport: Arc<dyn Transport>) {
        self.transport = transport;
    }

    /// The transport this pool dials over.
    #[must_use]
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// A pool pre-seeded with statically configured worker addresses.
    #[must_use]
    pub fn with_workers(config: DispatchConfig, addrs: &[String]) -> Self {
        let pool = Self::new(config);
        for a in addrs {
            pool.add(a, false);
        }
        pool
    }

    /// The dispatch tunables.
    #[must_use]
    pub fn config(&self) -> &DispatchConfig {
        &self.config
    }

    /// Adds (or revives) a worker. Returns `true` if the address was new.
    pub fn add(&self, addr: &str, registered: bool) -> bool {
        let now = self.transport.now_micros();
        let mut workers = self.workers.lock().expect("worker pool poisoned");
        if let Some(w) = workers.iter().find(|w| w.addr == addr) {
            w.revive_at(now);
            return false;
        }
        let w = Worker::new(addr.to_string(), registered);
        w.touch_at(now);
        workers.push(Arc::new(w));
        true
    }

    /// Handles a `register` announcement from a worker process.
    pub fn register(&self, addr: &str) -> bool {
        self.add(addr, true)
    }

    /// Handles a heartbeat: refreshes (auto-registering an address the
    /// pool has never seen, e.g. after a daemon restart).
    pub fn heartbeat(&self, addr: &str) {
        self.add(addr, true);
    }

    /// Whether the pool has no workers at all (live or dead).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers
            .lock()
            .expect("worker pool poisoned")
            .is_empty()
    }

    /// Every worker, in registration order.
    #[must_use]
    pub fn all(&self) -> Vec<Arc<Worker>> {
        self.workers.lock().expect("worker pool poisoned").clone()
    }

    /// The live workers.
    #[must_use]
    pub fn live(&self) -> Vec<Arc<Worker>> {
        self.all().into_iter().filter(|w| w.is_alive()).collect()
    }

    /// Point-in-time counters for every worker.
    #[must_use]
    pub fn snapshots(&self) -> Vec<WorkerSnapshot> {
        self.all().iter().map(|w| w.snapshot(&self.obs)).collect()
    }

    /// Health check: evicts registered workers whose heartbeat went
    /// stale. Static workers are exempt (they never heartbeat; request
    /// failures evict them instead).
    pub fn sweep_stale(&self) {
        let now = self.transport.now_micros();
        for w in self.all() {
            if w.registered && w.is_alive() && !w.seen_within(now, self.config.stale_after) {
                w.evict(&self.obs);
            }
        }
    }

    /// Health check: pings evicted workers and revives any that answer —
    /// a worker that restarts on the same address rejoins the pool
    /// without re-registering.
    pub fn probe_dead(&self) {
        for w in self.all() {
            if !w.is_alive() && ping(&w.addr, &self.config, &*self.transport) {
                w.revive_at(self.transport.now_micros());
            }
        }
    }
}

/// A quick liveness probe: connect and exchange a `ping`.
fn ping(addr: &str, cfg: &DispatchConfig, transport: &dyn Transport) -> bool {
    let Ok(stream) = transport.connect(addr, cfg.connect_timeout) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(cfg.connect_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return false;
    };
    let mut writer = BufWriter::new(stream);
    if write_frame(
        &mut writer,
        &Json::obj(vec![("cmd", Json::Str("ping".into()))]),
    )
    .is_err()
    {
        return false;
    }
    drop(writer);
    let mut reader = BufReader::new(read_half);
    matches!(read_frame(&mut reader), Frame::Line(line) if says_ok(&line))
}

/// Whether a response line is an `{"ok":true,…}` envelope.
fn says_ok(line: &str) -> bool {
    let ok = crate::json::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool));
    ok == Some(true)
}

/// What one attempt to read an `eval_batch` response produced.
enum RecvBatch {
    /// A parsed response: `(batch id, per-item outcomes)`.
    Ok(u64, Vec<(usize, EvalOutcome)>),
    /// The read hit the batch deadline; outstanding work should be
    /// re-dispatched.
    Timeout,
    /// The connection died (EOF or I/O error) — worker crash or restart.
    Closed,
    /// The worker sent garbage (malformed JSON, an oversized frame, an
    /// error envelope): grounds for immediate eviction.
    Violation,
}

/// One connection to a worker's eval server.
struct Conn {
    reader: BufReader<Box<dyn NetStream>>,
    writer: BufWriter<Box<dyn NetStream>>,
    /// Batch ids already used on this connection. Monotonic over the
    /// connection's whole life — which, with the warm per-job cache,
    /// spans generations — so a duplicated response to an old batch
    /// still sitting in the stream is recognizably stale (id below the
    /// current batch) instead of colliding with a fresh batch's id.
    seq: u64,
}

impl Conn {
    /// Connects and performs the `task` handshake.
    fn open(
        addr: &str,
        task: &Json,
        cfg: &DispatchConfig,
        transport: &dyn Transport,
    ) -> Result<Self, String> {
        let stream = transport
            .connect(addr, cfg.connect_timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(cfg.request_timeout))
            .map_err(|e| format!("set timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut conn = Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            seq: 0,
        };
        let hello = Json::obj(vec![
            ("cmd", Json::Str("task".into())),
            ("job", task.clone()),
        ]);
        write_frame(&mut conn.writer, &hello).map_err(|e| format!("task send: {e}"))?;
        match read_frame(&mut conn.reader) {
            Frame::Line(line) if says_ok(&line) => Ok(conn),
            Frame::Line(_) => Err("task handshake rejected".into()),
            Frame::Eof => Err("connection closed during handshake".into()),
            Frame::Oversized => Err("oversized handshake response".into()),
            Frame::Err(e) => Err(format!("handshake read: {e}")),
        }
    }

    /// Stretches the read deadline to cover a whole batch: `n` evals get
    /// `n ×` the single-request timeout.
    fn set_batch_deadline(&self, cfg: &DispatchConfig, n: usize) {
        let deadline = cfg.request_timeout.saturating_mul(n.max(1) as u32);
        let _ = self.reader.get_ref().set_read_timeout(Some(deadline));
    }

    /// Writes one `eval_batch` request frame under the connection's next
    /// batch id, and returns that id for matching the response.
    fn send_batch(&mut self, evals: &[EvalRequest]) -> std::io::Result<u64> {
        self.seq += 1;
        write_frame(&mut self.writer, &eval_batch_request(self.seq, evals))?;
        Ok(self.seq)
    }

    /// Reads one `eval_batch` response frame. `transport` brackets the
    /// parse as busy (a no-op on TCP): the blocking read itself must
    /// stay unbracketed — it is what virtual time advances *through* —
    /// but once the frame is in hand, decoding it is dispatcher compute
    /// a simulated clock must not jump over.
    fn recv_batch(&mut self, transport: &dyn Transport) -> RecvBatch {
        match read_frame(&mut self.reader) {
            Frame::Line(line) => {
                let _busy = crate::net::busy(transport);
                let Ok(v) = crate::json::parse(&line) else {
                    return RecvBatch::Violation;
                };
                match parse_eval_batch_response(&v) {
                    Ok((id, results)) => RecvBatch::Ok(id, results),
                    Err(_) => RecvBatch::Violation,
                }
            }
            Frame::Eof => RecvBatch::Closed,
            Frame::Oversized => RecvBatch::Violation,
            Frame::Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                RecvBatch::Timeout
            }
            Frame::Err(_) => RecvBatch::Closed,
        }
    }
}

/// The exactly-once bookkeeping for one generation's worth of
/// evaluations: a queue of genome indices awaiting dispatch, a result
/// slot per genome, and the unresolved count. Public so the dispatch
/// property suite can drive arbitrary claim / re-queue / resolve
/// interleavings against the no-loss / no-double-commit invariants the
/// worker threads rely on.
pub struct BatchLedger {
    /// Indices awaiting dispatch (re-dispatched work returns here).
    queue: Mutex<VecDeque<usize>>,
    /// `results[i]` is the fitness of genome `i` once known.
    results: Mutex<Vec<Option<f64>>>,
    /// Unresolved genome count; worker threads exit when it hits zero.
    remaining: AtomicUsize,
    /// Transport-clock micros when the generation was enqueued (feeds
    /// the batch fill-time histogram).
    enqueued_at: u64,
}

impl BatchLedger {
    /// A ledger for `n` genomes, all awaiting dispatch.
    #[must_use]
    pub fn new(n: usize, enqueued_at: u64) -> Self {
        Self {
            queue: Mutex::new((0..n).collect()),
            results: Mutex::new(vec![None; n]),
            remaining: AtomicUsize::new(n),
            enqueued_at,
        }
    }

    /// Claims up to `max` queued indices for one batch RPC.
    #[must_use]
    pub fn claim(&self, max: usize) -> Vec<usize> {
        let mut q = self.queue.lock().expect("batch queue poisoned");
        let take = max.min(q.len());
        q.drain(..take).collect()
    }

    /// Returns indices to the queue for another worker to claim.
    pub fn requeue(&self, idxs: &[usize]) {
        let mut q = self.queue.lock().expect("batch queue poisoned");
        for &i in idxs {
            q.push_back(i);
        }
    }

    /// Commits one result. Returns `false` — and changes nothing — if
    /// the slot was already resolved, so a duplicated or re-dispatched
    /// answer can never double-commit or double-decrement.
    pub fn resolve(&self, idx: usize, fitness: f64) -> bool {
        let mut r = self.results.lock().expect("batch results poisoned");
        if r[idx].is_some() {
            return false;
        }
        r[idx] = Some(fitness);
        self.remaining.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Unresolved genome count.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::SeqCst)
    }

    /// When the generation was enqueued (transport micros).
    #[must_use]
    pub fn enqueued_at(&self) -> u64 {
        self.enqueued_at
    }

    /// Consumes the ledger; `results[i]` is `None` for any genome no
    /// worker answered (the caller falls back to local evaluation).
    #[must_use]
    pub fn into_results(self) -> Vec<Option<f64>> {
        self.results.into_inner().expect("batch results poisoned")
    }
}

/// A [`ga::Evaluator`] that fans batches out over a [`WorkerPool`]'s
/// live workers leasing its job's shard (the whole live pool when none
/// does), handing anything the pool could not answer — everything,
/// while the pool has no worker at all — to a local fallback
/// evaluator. `begin`
/// runs the dispatch fan-out on a coordinator thread so the caller can
/// overlap its own work (writing a checkpoint) with the in-flight
/// round-trips.
pub struct RemoteEvaluator<'a> {
    pool: Arc<WorkerPool>,
    task: Arc<Json>,
    fallback: Box<dyn Evaluator + 'a>,
    /// Warm connections carried across generations, keyed by worker
    /// address. A fresh connect plus `task` handshake per generation
    /// once dominated small-generation round-trips (the listener's
    /// accept poll alone added tens of milliseconds); reusing the
    /// task-bound connection makes the steady-state dispatch cost one
    /// batch round-trip. Scoped per evaluator — and therefore per job —
    /// so a connection's task binding always matches the batches sent
    /// on it. Dropped (closing the sockets) with the evaluator.
    conns: Arc<Mutex<HashMap<String, Conn>>>,
    /// The shard this evaluator's job runs on and the daemon's shard
    /// count. Each round dispatches to the live workers leasing `shard`
    /// ([`shard::lease_of`]), or to the whole live pool when none does.
    shard: (usize, usize),
}

impl<'a> RemoteEvaluator<'a> {
    /// Builds an evaluator for one job on a 1-shard daemon, where every
    /// worker leases shard 0. `task` is the job-spec JSON sent to each
    /// worker in the per-connection `task` handshake; `fallback` is the
    /// local evaluator (must compute the same pure function the workers
    /// do), given whole batches, so its threads are used.
    pub fn new(pool: &Arc<WorkerPool>, task: Json, fallback: impl Evaluator + 'a) -> Self {
        Self {
            pool: Arc::clone(pool),
            task: Arc::new(task),
            fallback: Box::new(fallback),
            conns: Arc::new(Mutex::new(HashMap::new())),
            shard: (0, 1),
        }
    }

    /// Scopes dispatch to the workers leasing `shard` of `shards`.
    pub fn set_shard(&mut self, shard: usize, shards: usize) {
        self.shard = (shard, shards);
    }
}

/// Runs one generation's dispatch fan-out to completion: one scoped
/// worker thread per live worker leasing `shard` (every live worker if
/// none does), all claiming from one [`BatchLedger`]. Returns the
/// per-genome results (`None` where no worker answered).
fn dispatch_generation(
    pool: &WorkerPool,
    task: &Json,
    genomes: &[Genome],
    conns: &Mutex<HashMap<String, Conn>>,
    (shard, shards): (usize, usize),
) -> Vec<Option<f64>> {
    pool.sweep_stale();
    pool.probe_dead();
    let live = pool.live();
    let leased: Vec<_> = live
        .iter()
        .filter(|w| shard::lease_of(&w.addr, shards) == shard)
        .cloned()
        .collect();
    // A shard with no live leaseholder borrows the whole live pool, so
    // no round is stranded on the local fallback while any worker lives.
    let workers = if leased.is_empty() { live } else { leased };
    let ledger = BatchLedger::new(genomes.len(), pool.transport().now_micros());
    if !workers.is_empty() {
        std::thread::scope(|scope| {
            for w in &workers {
                let ledger = &ledger;
                // Each worker's warm connection (if last generation kept
                // one) rides into its driver and back out on healthy exit.
                let cached = conns.lock().expect("conn cache poisoned").remove(&w.addr);
                scope.spawn(move || {
                    let kept = drive_worker(w, ledger, genomes, task, pool, cached);
                    if let Some(c) = kept {
                        conns
                            .lock()
                            .expect("conn cache poisoned")
                            .insert(w.addr.clone(), c);
                    }
                });
            }
        });
    }
    ledger.into_results()
}

/// The handle for one in-flight generation: joins the coordinator
/// thread, then hands every unanswered genome to the local fallback as
/// one batch.
struct PendingRemote<'e, 'a> {
    eval: &'e RemoteEvaluator<'a>,
    genomes: Arc<Vec<Genome>>,
    handle: std::thread::JoinHandle<Vec<Option<f64>>>,
}

impl PendingScores for PendingRemote<'_, '_> {
    fn wait(self: Box<Self>) -> Vec<f64> {
        let results = match self.handle.join() {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let unanswered: Vec<Genome> = results
            .iter()
            .zip(self.genomes.iter())
            .filter(|(r, _)| r.is_none())
            .map(|(_, g)| g.clone())
            .collect();
        let mut local = Vec::new();
        if !unanswered.is_empty() {
            // One event, published under two names that predate each
            // other; dashboards exist on both, so both stay.
            let reg = self.eval.pool.obs();
            let n = unanswered.len() as u64;
            reg.counter("dispatch_fallback_evals").add(n);
            reg.counter("tuned_remote_fallback_evals_total").add(n);
            local = self.eval.local(&unanswered);
        }
        let mut local = local.into_iter();
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| local.next().expect("a local score per unanswered genome"))
            })
            .collect()
    }
}

impl RemoteEvaluator<'_> {
    /// Scores `genomes` on the fallback evaluator. It is real compute:
    /// the busy bracket keeps a simulated clock from advancing past
    /// request deadlines elsewhere while it runs.
    fn local(&self, genomes: &[Genome]) -> Vec<f64> {
        let _busy = crate::net::busy(&**self.pool.transport());
        self.fallback.evaluate(genomes)
    }
}

impl Evaluator for RemoteEvaluator<'_> {
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        self.begin(genomes).wait()
    }

    fn begin<'s>(&'s self, genomes: &[Genome]) -> Box<dyn PendingScores + 's> {
        if genomes.is_empty() {
            return Box::new(ReadyScores(Vec::new()));
        }
        // Checked every round, so a worker registering mid-job takes
        // load from the next round on. Until one exists there is nobody
        // to fan out to — and nothing the pool failed to answer.
        if self.pool.is_empty() {
            return Box::new(ReadyScores(self.local(genomes)));
        }
        let genomes = Arc::new(genomes.to_vec());
        let pool = Arc::clone(&self.pool);
        let task = Arc::clone(&self.task);
        let conns = Arc::clone(&self.conns);
        let shard = self.shard;
        let thread_genomes = Arc::clone(&genomes);
        let handle = std::thread::Builder::new()
            .name("dispatch-coordinator".into())
            .spawn(move || dispatch_generation(&pool, &task, &thread_genomes, &conns, shard))
            .expect("spawn dispatch coordinator");
        Box::new(PendingRemote {
            eval: self,
            genomes,
            handle,
        })
    }
}

/// Returns claimed-but-unresolved indices to the queue and counts them as
/// retries against this worker. With the [`DispatchConfig::redispatch`]
/// test hook off, the work is dropped on the floor instead — the lost-work
/// bug the simulation sweep must be able to catch.
fn requeue(
    ledger: &BatchLedger,
    idxs: &[usize],
    worker: &Worker,
    cfg: &DispatchConfig,
    reg: &obs::Registry,
) {
    if idxs.is_empty() {
        return;
    }
    worker.count(reg, RETRY, idxs.len() as u64);
    if !cfg.redispatch {
        return;
    }
    ledger.requeue(idxs);
}

/// One worker's dispatch loop for one generation: claim up to the
/// adaptive batch target, send the whole claim as one `eval_batch`
/// frame, commit the per-genome results from the single response; on
/// transient failure (timeout, dead connection) back off exponentially
/// (capped) and re-dispatch; on protocol violation (garbage, batch-id
/// mismatch, unknown/duplicate ids, per-item errors) evict and exit.
/// Every exit path returns outstanding work to the queue first, and
/// records the worker's pipeline occupancy (percent of wall time spent
/// with a batch on the wire) on the way out.
///
/// `cached` is the worker's warm connection from the previous
/// generation, if any; a healthy exit hands the live connection back
/// for the next one. Failure and eviction paths return `None` — the
/// socket is dropped and the next generation reconnects.
fn drive_worker(
    worker: &Worker,
    ledger: &BatchLedger,
    genomes: &[Genome],
    task: &Json,
    pool: &WorkerPool,
    cached: Option<Conn>,
) -> Option<Conn> {
    let reg = pool.obs();
    let started_at = reg.now_micros();
    let mut busy_micros: u64 = 0;
    let kept = drive_worker_inner(
        worker,
        ledger,
        genomes,
        task,
        pool,
        cached,
        &mut busy_micros,
    );
    // Pipeline occupancy: the share of this worker's wall time spent
    // with a batch actually on the wire. Low occupancy means the worker
    // idled — e.g. one greedy peer drained the queue. Skipped when a
    // frozen test clock makes the window zero-width.
    let elapsed = reg.now_micros().saturating_sub(started_at);
    if elapsed > 0 {
        reg.histogram(&worker.labelled("dispatch_pipeline_occupancy_pct"))
            .record(busy_micros.saturating_mul(100) / elapsed);
    }
    kept
}

#[allow(clippy::too_many_lines)]
fn drive_worker_inner(
    worker: &Worker,
    ledger: &BatchLedger,
    genomes: &[Genome],
    task: &Json,
    pool: &WorkerPool,
    cached: Option<Conn>,
    busy_micros: &mut u64,
) -> Option<Conn> {
    let (cfg, reg, transport) = (pool.config(), pool.obs(), pool.transport());
    // Everything recorded per batch or per eval resolves its handle
    // once here; the loop below then pays an atomic add, not a lookup.
    let rpc_latency = reg.histogram(&worker.labelled("rpc_latency_micros"));
    let batch_sizes = reg.histogram(&worker.labelled("dispatch_batch_size"));
    let batch_fill = reg.histogram(&worker.labelled("dispatch_batch_fill_micros"));
    let backoffs = reg.counter(&worker.labelled("dispatch_backoffs"));
    let stale_batches = reg.counter(&worker.labelled("dispatch_stale_batches"));
    let dispatched = reg.counter("tuned_remote_dispatched_total");
    let batches = reg.counter("tuned_remote_batches_total");
    let completed = reg.counter("tuned_remote_completed_total");
    let mut conn: Option<Conn> = cached;
    let mut consecutive: u32 = 0;
    let mut backoff = cfg.backoff_base;
    loop {
        if ledger.remaining() == 0 {
            return conn;
        }
        // Claim up to the adaptive batch target (≤ max_inflight, the
        // backpressure bound).
        let claimed = ledger.claim(worker.batch_target(cfg.max_inflight));
        if claimed.is_empty() {
            // Everything is in flight on other workers; wait for either
            // completion or a timeout re-dispatch.
            transport.sleep(cfg.idle_poll);
            continue;
        }
        // How long this work sat queued before a worker picked it up.
        batch_fill.record(reg.now_micros().saturating_sub(ledger.enqueued_at()));

        // Transient-failure bookkeeping, shared by every retry path.
        let mut transient = |conn: &mut Option<Conn>, pending: &[usize]| -> bool {
            *conn = None;
            requeue(ledger, pending, worker, cfg, reg);
            consecutive += 1;
            if consecutive >= cfg.max_consecutive_failures {
                worker.evict(reg);
                return true; // exit the loop
            }
            backoffs.inc();
            transport.sleep(backoff);
            backoff = (backoff * 2).min(cfg.backoff_cap);
            false
        };

        // Ensure a connection (with the task handshake done). The timed
        // handshake doubles as the RTT model's overhead probe.
        if conn.is_none() {
            let handshake_started = reg.now_micros();
            match Conn::open(&worker.addr, task, cfg, &**transport) {
                Ok(c) => {
                    worker.note_handshake_rtt(reg.now_micros().saturating_sub(handshake_started));
                    conn = Some(c);
                }
                Err(_) => {
                    if transient(&mut conn, &claimed) {
                        return None;
                    }
                    continue;
                }
            }
        }

        // One frame out, one frame back, for the whole claim. RTT reads
        // the registry clock so deterministic tests (ManualClock) see
        // exact latencies.
        let started;
        let sent = {
            // Serializing and writing the frame is dispatcher compute:
            // hold the transport's busy bracket (a no-op on TCP) so a
            // simulated clock cannot advance while this thread is
            // runnable but descheduled by a loaded host.
            let _busy = crate::net::busy(&**transport);
            let evals: Vec<EvalRequest> = claimed
                .iter()
                .map(|&i| EvalRequest {
                    id: i,
                    genes: genomes[i].clone(),
                })
                .collect();
            worker
                .stats
                .update(|s| s.dispatched += claimed.len() as u64);
            dispatched.add(claimed.len() as u64);
            batches.inc();
            started = reg.now_micros();
            conn.as_mut().expect("connection exists").send_batch(&evals)
        };
        let expected = match sent {
            Ok(id) => id,
            Err(_) => {
                if transient(&mut conn, &claimed) {
                    return None;
                }
                continue;
            }
        };

        let live = conn.as_mut().expect("connection exists");
        live.set_batch_deadline(cfg, claimed.len());
        let mut pending = claimed;
        // A warm connection can carry a straggler: a link-level
        // duplicate of a response to an *earlier* batch, delivered after
        // that batch already committed. Its id is below `expected`
        // (ids are monotonic per connection), so discard it and keep
        // reading for the current batch — it is the network's fault,
        // not the worker's.
        let received = loop {
            let r = live.recv_batch(&**transport);
            if let RecvBatch::Ok(id, _) = &r {
                if *id < expected {
                    stale_batches.inc();
                    continue;
                }
            }
            break r;
        };
        match received {
            RecvBatch::Ok(batch_id, results) => {
                // Committing results is compute too: same bracket, so
                // the commit-to-next-claim stretch adds no virtual time.
                let _busy = crate::net::busy(&**transport);
                let rtt = reg.now_micros().saturating_sub(started);
                *busy_micros += rtt;
                // Commit delivered fitnesses first — they are real
                // measurements of a pure function and stand regardless
                // of what else the response got wrong.
                let mut violation = batch_id != expected;
                let mut delivered: u64 = 0;
                if !violation {
                    for (id, outcome) in results {
                        let Some(pos) = pending.iter().position(|&i| i == id) else {
                            // An id we never sent (or already answered
                            // in this batch): protocol violation.
                            violation = true;
                            break;
                        };
                        match outcome {
                            EvalOutcome::Fitness(fitness) => {
                                pending.swap_remove(pos);
                                if ledger.resolve(id, fitness) {
                                    delivered += 1;
                                }
                            }
                            EvalOutcome::Error(_) => {
                                // The worker could not evaluate a genome
                                // every healthy worker can: evict, and
                                // leave the item pending for re-dispatch.
                                violation = true;
                                break;
                            }
                        }
                    }
                }
                if delivered > 0 {
                    rpc_latency.record(rtt);
                    batch_sizes.record(delivered);
                    completed.add(delivered);
                    worker.stats.update(|s| {
                        s.completed += delivered;
                        s.rtt_micros += rtt;
                    });
                    worker.note_batch_rtt(delivered, rtt);
                    worker.touch_at(transport.now_micros());
                }
                if violation || !pending.is_empty() {
                    // A batch-id mismatch, a bogus id, a per-item error,
                    // or silently omitted answers: this worker cannot be
                    // trusted with re-sends.
                    worker.evict(reg);
                    requeue(ledger, &pending, worker, cfg, reg);
                    return None;
                }
                consecutive = 0;
                backoff = cfg.backoff_base;
            }
            RecvBatch::Timeout => {
                worker.count(reg, TIMEOUT, 1);
                if transient(&mut conn, &pending) {
                    return None;
                }
            }
            RecvBatch::Closed => {
                if transient(&mut conn, &pending) {
                    return None;
                }
            }
            RecvBatch::Violation => {
                worker.evict(reg);
                requeue(ledger, &pending, worker, cfg, reg);
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::LocalEvaluator;

    fn fast_cfg() -> DispatchConfig {
        DispatchConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(300),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            stale_after: Duration::from_millis(100),
            ..DispatchConfig::default()
        }
    }

    /// A pool counting into a registry of its own, so totals read back
    /// from zero whatever other tests do to the global one.
    fn private_pool(addrs: &[String]) -> WorkerPool {
        let mut pool = WorkerPool::with_workers(fast_cfg(), addrs);
        pool.set_obs(Arc::new(obs::Registry::new()));
        pool
    }

    #[test]
    fn pool_add_register_heartbeat() {
        let pool = WorkerPool::new(fast_cfg());
        assert!(pool.is_empty());
        assert!(pool.register("127.0.0.1:9"));
        assert!(!pool.register("127.0.0.1:9"), "re-register is a refresh");
        pool.heartbeat("127.0.0.1:10");
        assert_eq!(pool.all().len(), 2);
        assert_eq!(pool.live().len(), 2);
        assert!(pool.all().iter().all(|w| w.registered));
    }

    #[test]
    fn static_workers_are_not_swept() {
        let pool = WorkerPool::with_workers(fast_cfg(), &["127.0.0.1:9".into()]);
        std::thread::sleep(Duration::from_millis(150));
        pool.sweep_stale();
        assert_eq!(pool.live().len(), 1);
    }

    #[test]
    fn stale_registered_worker_is_evicted_and_heartbeat_revives() {
        let pool = private_pool(&[]);
        pool.register("127.0.0.1:9");
        std::thread::sleep(Duration::from_millis(150));
        pool.sweep_stale();
        assert!(pool.live().is_empty());
        assert_eq!(pool.obs().counter_value("tuned_remote_evictions_total"), 1);
        pool.heartbeat("127.0.0.1:9");
        assert_eq!(pool.live().len(), 1);
        assert_eq!(pool.all().len(), 1, "revival must not duplicate");
    }

    #[test]
    fn eviction_counts_once_per_transition() {
        let reg = obs::Registry::new();
        let w = Worker::new("x:1".into(), false);
        w.evict(&reg);
        w.evict(&reg);
        assert_eq!(w.snapshot(&reg).evictions, 1);
        assert_eq!(reg.counter_value("dispatch_evictions{worker=\"x:1\"}"), 1);
        assert_eq!(reg.counter_value("tuned_remote_evictions_total"), 1);
        assert!(!w.is_alive());
    }

    #[test]
    fn worker_liveness_follows_the_supplied_clock() {
        let w = Worker::new("x:1".into(), true);
        w.touch_at(1_000_000);
        assert!(w.seen_within(1_050_000, Duration::from_millis(100)));
        assert!(!w.seen_within(1_200_001, Duration::from_millis(100)));
        // touch_at never moves the clock backwards.
        w.touch_at(500_000);
        assert!(w.seen_within(1_050_000, Duration::from_millis(100)));
    }

    #[test]
    fn worker_snapshot_derives_mean_rtt() {
        let w = Worker::new("x:1".into(), true);
        w.stats.update(|s| {
            s.completed += 4;
            s.rtt_micros += 8000;
        });
        let s = w.snapshot(&obs::Registry::new());
        assert_eq!(s.addr, "x:1");
        assert!(s.registered);
        assert!((s.mean_rtt_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unprimed_batch_target_is_max_inflight() {
        let w = Worker::new("x:1".into(), false);
        assert_eq!(w.batch_target(8), 8);
        assert_eq!(w.batch_target(1), 1);
        assert_eq!(w.batch_target(0), 1, "zero max_inflight clamps to one");
    }

    #[test]
    fn fast_link_with_slow_evals_shrinks_batches_to_one() {
        // Localhost-shaped: ~100µs round-trip overhead, ~30ms per eval.
        // One eval amortizes the overhead 300-fold already, so the
        // target drops to 1 and the queue load-balances per genome.
        let w = Worker::new("x:1".into(), false);
        w.note_handshake_rtt(100);
        w.note_batch_rtt(8, 100 + 8 * 30_000);
        assert_eq!(w.batch_target(8), 1);
    }

    #[test]
    fn slow_link_with_fast_evals_grows_batches_to_the_cap() {
        // WAN-shaped: 200ms round trips, microsecond evals. The
        // overhead dominates, so batches grow to max_inflight.
        let w = Worker::new("x:1".into(), false);
        w.note_handshake_rtt(200_000);
        w.note_batch_rtt(8, 200_000 + 8 * 50);
        assert_eq!(w.batch_target(8), 8);
        assert_eq!(w.batch_target(64), 64);
    }

    #[test]
    fn batch_target_stays_within_bounds_as_the_model_moves() {
        let w = Worker::new("x:1".into(), false);
        for (hs, len, rtt) in [
            (0u64, 1u64, 0u64),
            (u64::MAX, 1, u64::MAX),
            (50, 8, 40),
            (1_000_000, 4, 3),
            (3, 64, 9_000_000),
        ] {
            w.note_handshake_rtt(hs);
            w.note_batch_rtt(len, rtt);
            for max_inflight in [0usize, 1, 2, 8, 1024] {
                let t = w.batch_target(max_inflight);
                assert!(t >= 1, "target {t} below 1");
                assert!(
                    t <= max_inflight.max(1),
                    "target {t} above cap {max_inflight}"
                );
            }
        }
    }

    #[test]
    fn ledger_resolve_is_exactly_once() {
        let ledger = BatchLedger::new(3, 0);
        assert_eq!(ledger.remaining(), 3);
        assert!(ledger.resolve(1, 0.5));
        assert!(!ledger.resolve(1, 9.9), "double-commit must be refused");
        assert_eq!(ledger.remaining(), 2);
        let claimed = ledger.claim(8);
        assert_eq!(claimed, vec![0, 1, 2]);
        ledger.requeue(&[0, 2]);
        assert_eq!(ledger.claim(1), vec![0]);
        assert!(ledger.resolve(0, 1.0));
        assert!(ledger.resolve(2, 2.0));
        assert_eq!(ledger.remaining(), 0);
        let results = ledger.into_results();
        assert_eq!(results[0], Some(1.0));
        assert_eq!(results[1], Some(0.5), "first commit wins");
        assert_eq!(results[2], Some(2.0));
    }

    #[test]
    fn unreachable_pool_falls_back_to_local() {
        // A port nothing listens on: connect fails fast, worker evicts,
        // and every genome lands on the fallback path.
        let pool = Arc::new(private_pool(&["127.0.0.1:1".into()]));
        let eval = RemoteEvaluator::new(
            &pool,
            Json::Null,
            LocalEvaluator::new(|g: &[i64]| g[0] as f64 * 2.0, 1),
        );
        let scores = eval.evaluate(&[vec![3], vec![5]]);
        assert_eq!(scores, vec![6.0, 10.0]);
        let reg = pool.obs();
        assert_eq!(reg.counter_value("tuned_remote_fallback_evals_total"), 2);
        assert_eq!(reg.counter_value("dispatch_fallback_evals"), 2);
        assert_eq!(reg.counter_value("tuned_remote_evictions_total"), 1);
        assert!(pool.live().is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = Arc::new(WorkerPool::new(fast_cfg()));
        let eval = RemoteEvaluator::new(&pool, Json::Null, LocalEvaluator::new(|_: &[i64]| 0.0, 1));
        assert!(eval.evaluate(&[]).is_empty());
        assert!(eval.begin(&[]).wait().is_empty());
    }
}
