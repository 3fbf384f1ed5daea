//! The simulated network: an in-process implementation of
//! [`served::Transport`] with a **virtual clock** and **seeded fault
//! schedules**, in the style of FoundationDB's deterministic simulation.
//!
//! One [`SimNet`] is one universe: a set of named nodes ("daemon",
//! "w0", …), each holding a [`SimTransport`] handle onto the shared
//! state. Streams are pairs of in-memory pipes; the clock is a plain
//! `u64` of microseconds that **only moves when every thread is
//! blocked** — so a fault-free request/response cycle runs at condvar
//! speed (no real sleeping anywhere), while timeouts, backoffs, and
//! poll intervals resolve instantly the moment the cluster goes
//! quiet. A 30-virtual-second run of timeout recovery costs
//! milliseconds of wall clock.
//!
//! # How time advances
//!
//! Every blocking wait (sleep, read-with-deadline, accept poll)
//! registers its absolute virtual deadline and parks on one shared
//! condvar in short real-time slices ([`GRACE`]). When a slice elapses
//! with nothing happening — no messages delivered, nothing computing —
//! the parked thread *advances the clock* to the earliest registered
//! deadline or in-flight message delivery, and wakes everyone.
//! [`served::Transport::busy_begin`] brackets (held around fitness
//! measurements and other real CPU work) block advancement entirely:
//! virtual time cannot jump over a request deadline while a worker is
//! legitimately computing the answer.
//!
//! # Faults
//!
//! Each `write()` call below a `BufWriter` flush is one protocol frame,
//! and each frame on a faulted link draws a verdict — deliver, drop,
//! duplicate, or delay — from a **pure function** of
//! `(net seed, link, connection index, frame index)`. Thread
//! interleaving therefore cannot change which frame gets which fault:
//! re-running a seed reproduces the same fault schedule, and the final
//! tuning result is bit-identical because fitness is a pure function of
//! the genome and the dispatch layer merges results by genome.
//! Partitions are directed send-time blackholes (a one-way partition is
//! exactly a half-open connection: sends "succeed", nothing arrives),
//! and [`SimNet::crash`] closes every stream touching a node — readers
//! see EOF after draining what was already delivered, writers see
//! `BrokenPipe`, in-flight frames are lost, and the node's listeners
//! start failing their accepts.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use served::{NetListener, NetStream, Transport};
use simrng::{child_seed, Rng};

/// Real-time slice a blocked thread waits before concluding the
/// universe is idle and advancing the virtual clock. Large enough that
/// ordinary unbracketed compute (JSON parsing, checkpoint writes)
/// finishes inside one slice; small enough that idle virtual hops are
/// cheap.
pub const GRACE: Duration = Duration::from_micros(500);

/// Per-link fault probabilities. Applied per frame, at send time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub drop_p: f64,
    /// Probability a frame is delivered twice.
    pub dup_p: f64,
    /// Probability a frame is delayed (which also reorders it past any
    /// frame sent soon after with a smaller delay).
    pub delay_p: f64,
    /// Upper bound of the uniform delay, microseconds.
    pub delay_max_micros: u64,
}

impl FaultPlan {
    /// Whether the plan can ever perturb a frame.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || (self.delay_p > 0.0 && self.delay_max_micros > 0)
    }
}

/// What the fault schedule did to one frame (or what the harness did to
/// the universe). The `(link, conn, seq)` triple identifies a frame
/// independently of thread interleaving.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A frame was dropped on `link` (connection `conn`, frame `seq`).
    Drop {
        at: u64,
        link: String,
        conn: u64,
        seq: u64,
    },
    /// A frame was delivered twice.
    Dup {
        at: u64,
        link: String,
        conn: u64,
        seq: u64,
    },
    /// A frame was delayed by `micros`.
    Delay {
        at: u64,
        link: String,
        conn: u64,
        seq: u64,
        micros: u64,
    },
    /// A frame was blackholed by an active partition.
    Partitioned {
        at: u64,
        link: String,
        conn: u64,
        seq: u64,
    },
    /// A harness action: crash, restart, partition, heal, …
    Note { at: u64, what: String },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Drop {
                at,
                link,
                conn,
                seq,
            } => {
                write!(f, "[{:>9}us] drop      {link} conn={conn} frame={seq}", at)
            }
            TraceEvent::Dup {
                at,
                link,
                conn,
                seq,
            } => {
                write!(f, "[{:>9}us] dup       {link} conn={conn} frame={seq}", at)
            }
            TraceEvent::Delay {
                at,
                link,
                conn,
                seq,
                micros,
            } => write!(
                f,
                "[{:>9}us] delay+{micros}us {link} conn={conn} frame={seq}",
                at
            ),
            TraceEvent::Partitioned {
                at,
                link,
                conn,
                seq,
            } => {
                write!(f, "[{:>9}us] blackhole {link} conn={conn} frame={seq}", at)
            }
            TraceEvent::Note { at, what } => write!(f, "[{:>9}us] {what}", at),
        }
    }
}

/// One queued-but-undelivered frame.
struct Segment {
    deliver_at: u64,
    order: u64,
    data: Vec<u8>,
}

/// One direction of one connection.
struct Pipe {
    from: String,
    to: String,
    /// Bytes delivered and readable now.
    ready: VecDeque<u8>,
    /// Frames in flight (matured into `ready` when the clock reaches
    /// their `deliver_at`).
    inflight: Vec<Segment>,
    /// No more data will ever arrive (writer dropped, or a crash).
    closed: bool,
    /// Frames written so far (indexes the fault schedule).
    seq: u64,
    /// Connection index within the link (indexes the fault schedule).
    conn: u64,
    /// Tie-break for same-instant delivery: enqueue order.
    next_order: u64,
}

struct ListenerState {
    node: String,
    backlog: VecDeque<(u64, u64)>, // (read pipe id, write pipe id) for the server side
    open: bool,
}

struct State {
    now: u64,
    busy: usize,
    shutdown: bool,
    crashed: HashSet<String>,
    /// Directed blocked pairs: `(from, to)` present ⇒ frames from→to
    /// are blackholed and new connections involving the pair fail.
    partitions: HashSet<(String, String)>,
    plans: HashMap<(String, String), FaultPlan>,
    listeners: HashMap<String, ListenerState>,
    pipes: HashMap<u64, Pipe>,
    /// Per-link connection counter (indexes the fault schedule).
    conn_count: HashMap<(String, String), u64>,
    /// Registered absolute deadlines of parked threads.
    sleepers: HashMap<u64, u64>,
    trace: Vec<TraceEvent>,
    next_id: u64,
    next_port: u32,
}

impl State {
    /// Moves every matured in-flight frame into its pipe's ready bytes,
    /// in `(deliver_at, enqueue order)` order.
    fn mature(&mut self) {
        let now = self.now;
        for pipe in self.pipes.values_mut() {
            if pipe.inflight.iter().any(|s| s.deliver_at <= now) {
                pipe.inflight.sort_by_key(|s| (s.deliver_at, s.order));
                while pipe.inflight.first().is_some_and(|s| s.deliver_at <= now) {
                    let seg = pipe.inflight.remove(0);
                    pipe.ready.extend(seg.data);
                }
            }
        }
    }

    /// The earliest instant at which anything scheduled happens.
    fn next_event(&self) -> Option<u64> {
        let sleeper = self.sleepers.values().copied().min();
        let delivery = self
            .pipes
            .values()
            .filter(|p| !p.closed)
            .flat_map(|p| p.inflight.iter().map(|s| s.deliver_at))
            .min();
        match (sleeper, delivery) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Idle-advance: jump the clock to the next scheduled event. Only
    /// legal when nothing is computing (`busy == 0`).
    fn try_advance(&mut self) -> bool {
        if self.busy > 0 || self.shutdown {
            return false;
        }
        match self.next_event() {
            Some(t) if t > self.now => {
                self.now = t;
                self.mature();
                true
            }
            _ => false,
        }
    }
}

/// The shared simulated universe. Create one per test or sweep seed;
/// hand each node its own transport via [`SimNet::transport`].
pub struct SimNet {
    seed: u64,
    state: Mutex<State>,
    cv: Condvar,
}

impl SimNet {
    /// A fresh universe. `seed` roots every fault schedule in it.
    #[must_use]
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            seed,
            state: Mutex::new(State {
                now: 0,
                busy: 0,
                shutdown: false,
                crashed: HashSet::new(),
                partitions: HashSet::new(),
                plans: HashMap::new(),
                listeners: HashMap::new(),
                pipes: HashMap::new(),
                conn_count: HashMap::new(),
                sleepers: HashMap::new(),
                trace: Vec::new(),
                next_id: 1,
                next_port: 40_000,
            }),
            cv: Condvar::new(),
        })
    }

    /// A transport handle for the named node. Every socket opened
    /// through it belongs to `node` for fault/partition/crash purposes.
    #[must_use]
    pub fn transport(self: &Arc<Self>, node: &str) -> Arc<dyn Transport> {
        Arc::new(SimTransport {
            net: Arc::clone(self),
            node: node.to_string(),
        })
    }

    /// Installs a fault plan on the directed link `from → to`.
    pub fn set_plan(&self, from: &str, to: &str, plan: FaultPlan) {
        let mut st = self.lock();
        st.plans.insert((from.into(), to.into()), plan);
    }

    /// The current virtual time, microseconds.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.lock().now
    }

    /// Manually advances the virtual clock (matures deliveries, wakes
    /// every parked thread). Blocked threads advance the clock on their
    /// own; this is for tests that want to jump ahead explicitly.
    pub fn advance(&self, d: Duration) {
        let mut st = self.lock();
        st.now += d.as_micros() as u64;
        st.mature();
        drop(st);
        self.cv.notify_all();
    }

    /// Crashes a node: every stream touching it closes (peers see EOF
    /// after draining delivered bytes, writers see `BrokenPipe`),
    /// in-flight frames are lost, and its listeners start erroring.
    pub fn crash(&self, node: &str) {
        let mut st = self.lock();
        st.crashed.insert(node.to_string());
        for pipe in st.pipes.values_mut() {
            if pipe.from == node || pipe.to == node {
                pipe.closed = true;
                pipe.inflight.clear();
                if pipe.to == node {
                    // The crashed reader will never drain these.
                    pipe.ready.clear();
                }
            }
        }
        for l in st.listeners.values_mut() {
            if l.node == node {
                l.open = false;
                l.backlog.clear();
            }
        }
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: format!("crash     {node}"),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Revives a crashed node so it can bind again (the harness then
    /// boots a fresh server on the same address).
    pub fn revive(&self, node: &str) {
        let mut st = self.lock();
        st.crashed.remove(node);
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: format!("revive    {node}"),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Installs a symmetric partition between two nodes: frames in both
    /// directions blackhole, new connections fail.
    pub fn partition(&self, a: &str, b: &str) {
        let mut st = self.lock();
        st.partitions.insert((a.into(), b.into()));
        st.partitions.insert((b.into(), a.into()));
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: format!("partition {a} <-> {b}"),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Installs a one-way partition `from → to`: sends from `from`
    /// "succeed" but never arrive — a half-open link.
    pub fn partition_oneway(&self, from: &str, to: &str) {
        let mut st = self.lock();
        st.partitions.insert((from.into(), to.into()));
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: format!("half-open {from} -> {to}"),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Removes any partition between two nodes (both directions).
    pub fn heal(&self, a: &str, b: &str) {
        let mut st = self.lock();
        st.partitions.remove(&(a.to_string(), b.to_string()));
        st.partitions.remove(&(b.to_string(), a.to_string()));
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: format!("heal      {a} <-> {b}"),
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Appends a harness note to the fault trace.
    pub fn note(&self, what: &str) {
        let mut st = self.lock();
        let at = st.now;
        st.trace.push(TraceEvent::Note {
            at,
            what: what.to_string(),
        });
    }

    /// A copy of the fault trace so far.
    #[must_use]
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.lock().trace.clone()
    }

    /// Tears the universe down: every blocked operation errors out,
    /// sleeps become short real naps (so an abandoned, hung cluster's
    /// threads idle harmlessly until process exit instead of spinning).
    pub fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        for pipe in st.pipes.values_mut() {
            pipe.closed = true;
            pipe.inflight.clear();
        }
        for l in st.listeners.values_mut() {
            l.open = false;
        }
        drop(st);
        self.cv.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("sim state poisoned")
    }

    fn next_id(st: &mut State) -> u64 {
        st.next_id += 1;
        st.next_id
    }

    /// Parks on the condvar for one grace slice; on a quiet slice,
    /// idle-advances the clock. Returns the reacquired guard.
    fn park<'a>(&self, st: std::sync::MutexGuard<'a, State>) -> std::sync::MutexGuard<'a, State> {
        let (mut st, timeout) = self.cv.wait_timeout(st, GRACE).expect("sim state poisoned");
        if timeout.timed_out() && st.try_advance() {
            self.cv.notify_all();
        }
        st
    }

    /// The fault verdict for one frame — a pure function of
    /// `(seed, link, conn, seq)`, independent of thread interleaving.
    fn verdict(&self, plan: &FaultPlan, link: &(String, String), conn: u64, seq: u64) -> Verdict {
        let label = format!("fault/{}->{}/{conn}/{seq}", link.0, link.1);
        let mut rng = Rng::seed_from_u64(child_seed(self.seed, &label));
        if rng.chance(plan.drop_p) {
            return Verdict::Drop;
        }
        let copies = if rng.chance(plan.dup_p) { 2 } else { 1 };
        let delay = if plan.delay_max_micros > 0 && rng.chance(plan.delay_p) {
            rng.below(plan.delay_max_micros + 1)
        } else {
            0
        };
        Verdict::Deliver { copies, delay }
    }
}

enum Verdict {
    Drop,
    Deliver { copies: u32, delay: u64 },
}

/// A node's handle onto the simulated universe.
pub struct SimTransport {
    net: Arc<SimNet>,
    node: String,
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimTransport({})", self.node)
    }
}

fn host_of(addr: &str) -> &str {
    addr.rsplit_once(':').map_or(addr, |(h, _)| h)
}

impl Transport for SimTransport {
    fn connect(&self, addr: &str, _timeout: Duration) -> io::Result<Box<dyn NetStream>> {
        let peer = host_of(addr).to_string();
        let mut st = self.net.lock();
        if st.shutdown || st.crashed.contains(&self.node) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "node is down"));
        }
        // A TCP handshake needs both directions; either one partitioned
        // fails the connect (immediately — virtual time is free, and the
        // dispatcher treats any connect error the same way).
        if st.partitions.contains(&(self.node.clone(), peer.clone()))
            || st.partitions.contains(&(peer.clone(), self.node.clone()))
        {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("partitioned from {peer}"),
            ));
        }
        let open = st
            .listeners
            .get(addr)
            .is_some_and(|l| l.open && !st.crashed.contains(&l.node));
        if !open {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("nothing listens on {addr}"),
            ));
        }
        // Two pipes: client→server and server→client.
        let c2s = SimNet::next_id(&mut st);
        let s2c = SimNet::next_id(&mut st);
        let fwd_link = (self.node.clone(), peer.clone());
        let rev_link = (peer.clone(), self.node.clone());
        let conn = {
            let c = st.conn_count.entry(fwd_link.clone()).or_insert(0);
            *c += 1;
            *c
        };
        st.pipes.insert(
            c2s,
            Pipe {
                from: fwd_link.0.clone(),
                to: fwd_link.1.clone(),
                ready: VecDeque::new(),
                inflight: Vec::new(),
                closed: false,
                seq: 0,
                conn,
                next_order: 0,
            },
        );
        st.pipes.insert(
            s2c,
            Pipe {
                from: rev_link.0.clone(),
                to: rev_link.1.clone(),
                ready: VecDeque::new(),
                inflight: Vec::new(),
                closed: false,
                seq: 0,
                conn,
                next_order: 0,
            },
        );
        st.listeners
            .get_mut(addr)
            .expect("listener checked above")
            .backlog
            .push_back((c2s, s2c));
        drop(st);
        self.net.cv.notify_all();
        Ok(Box::new(SimStream {
            net: Arc::clone(&self.net),
            node: self.node.clone(),
            read_pipe: s2c,
            write_pipe: c2s,
            read_timeout: Arc::new(Mutex::new(None)),
        }))
    }

    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>> {
        let mut st = self.net.lock();
        if st.shutdown || st.crashed.contains(&self.node) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "node is down"));
        }
        let full = if addr.ends_with(":0") {
            st.next_port += 1;
            format!("{}:{}", host_of(addr), st.next_port)
        } else {
            addr.to_string()
        };
        if st.listeners.get(&full).is_some_and(|l| l.open) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{full} already bound"),
            ));
        }
        st.listeners.insert(
            full.clone(),
            ListenerState {
                node: self.node.clone(),
                backlog: VecDeque::new(),
                open: true,
            },
        );
        drop(st);
        Ok(Box::new(SimListener {
            net: Arc::clone(&self.net),
            node: self.node.clone(),
            addr: full,
        }))
    }

    fn sleep(&self, d: Duration) {
        let mut st = self.net.lock();
        if st.shutdown {
            drop(st);
            // Abandoned-cluster threads nap for real so they neither
            // spin nor block process exit.
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
        let id = SimNet::next_id(&mut st);
        let deadline = st.now + d.as_micros() as u64;
        st.sleepers.insert(id, deadline);
        while st.now < deadline && !st.shutdown {
            st = self.net.park(st);
        }
        st.sleepers.remove(&id);
        drop(st);
        self.net.cv.notify_all();
    }

    fn now_micros(&self) -> u64 {
        self.net.lock().now
    }

    fn busy_begin(&self) {
        self.net.lock().busy += 1;
    }

    fn busy_end(&self) {
        let mut st = self.net.lock();
        st.busy = st.busy.saturating_sub(1);
        drop(st);
        self.net.cv.notify_all();
    }
}

struct SimListener {
    net: Arc<SimNet>,
    node: String,
    addr: String,
}

impl NetListener for SimListener {
    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn accept(&self, poll: Duration) -> io::Result<Option<Box<dyn NetStream>>> {
        let mut st = self.net.lock();
        let id = SimNet::next_id(&mut st);
        let deadline = st.now + poll.as_micros() as u64;
        st.sleepers.insert(id, deadline);
        let result = loop {
            if st.shutdown {
                break Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "simulation shut down",
                ));
            }
            match st.listeners.get_mut(&self.addr) {
                Some(l) if l.open => {
                    if let Some((srv_read, srv_write)) = l.backlog.pop_front() {
                        break Ok(Some(Box::new(SimStream {
                            net: Arc::clone(&self.net),
                            node: self.node.clone(),
                            read_pipe: srv_read,
                            write_pipe: srv_write,
                            read_timeout: Arc::new(Mutex::new(None)),
                        }) as Box<dyn NetStream>));
                    }
                }
                _ => {
                    break Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "listener is down (node crashed?)",
                    ));
                }
            }
            if st.now >= deadline {
                break Ok(None);
            }
            st = self.net.park(st);
        };
        st.sleepers.remove(&id);
        drop(st);
        self.net.cv.notify_all();
        result
    }
}

struct SimStream {
    net: Arc<SimNet>,
    node: String,
    read_pipe: u64,
    write_pipe: u64,
    /// Shared across [`NetStream::try_clone`] halves, like a real
    /// socket's option.
    read_timeout: Arc<Mutex<Option<Duration>>>,
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let timeout = *self.read_timeout.lock().expect("timeout poisoned");
        let mut st = self.net.lock();
        let id = SimNet::next_id(&mut st);
        let deadline = timeout.map(|t| st.now + t.as_micros() as u64);
        if let Some(d) = deadline {
            st.sleepers.insert(id, d);
        }
        let result = loop {
            if st.shutdown || st.crashed.contains(&self.node) {
                break Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "node is down",
                ));
            }
            let Some(pipe) = st.pipes.get_mut(&self.read_pipe) else {
                break Ok(0);
            };
            if !pipe.ready.is_empty() {
                let n = buf.len().min(pipe.ready.len());
                for b in buf.iter_mut().take(n) {
                    *b = pipe.ready.pop_front().expect("len checked");
                }
                break Ok(n);
            }
            if pipe.closed {
                break Ok(0); // EOF: delivered bytes drained, writer gone
            }
            if let Some(d) = deadline {
                if st.now >= d {
                    break Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "simulated read timeout",
                    ));
                }
            }
            st = self.net.park(st);
        };
        st.sleepers.remove(&id);
        drop(st);
        self.net.cv.notify_all();
        result
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.net.lock();
        if st.shutdown || st.crashed.contains(&self.node) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "node is down"));
        }
        let now = st.now;
        let Some(pipe) = st.pipes.get_mut(&self.write_pipe) else {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe gone"));
        };
        if pipe.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        pipe.seq += 1;
        let link = (pipe.from.clone(), pipe.to.clone());
        let (conn, seq) = (pipe.conn, pipe.seq);
        // Send-time partition check: a one-way partition blackholes the
        // frame but reports success — exactly a half-open connection.
        if st.partitions.contains(&link) {
            let at = st.now;
            st.trace.push(TraceEvent::Partitioned {
                at,
                link: format!("{}->{}", link.0, link.1),
                conn,
                seq,
            });
            return Ok(buf.len());
        }
        let verdict = match st.plans.get(&link) {
            Some(plan) if plan.is_active() => self.net.verdict(plan, &link, conn, seq),
            _ => Verdict::Deliver {
                copies: 1,
                delay: 0,
            },
        };
        let link_label = format!("{}->{}", link.0, link.1);
        match verdict {
            Verdict::Drop => {
                let at = st.now;
                st.trace.push(TraceEvent::Drop {
                    at,
                    link: link_label,
                    conn,
                    seq,
                });
            }
            Verdict::Deliver { copies, delay } => {
                if copies > 1 {
                    let at = st.now;
                    st.trace.push(TraceEvent::Dup {
                        at,
                        link: link_label.clone(),
                        conn,
                        seq,
                    });
                }
                if delay > 0 {
                    let at = st.now;
                    st.trace.push(TraceEvent::Delay {
                        at,
                        link: link_label,
                        conn,
                        seq,
                        micros: delay,
                    });
                }
                let pipe = st.pipes.get_mut(&self.write_pipe).expect("pipe exists");
                for _ in 0..copies {
                    if delay == 0 {
                        pipe.ready.extend(buf.iter().copied());
                    } else {
                        let order = pipe.next_order;
                        pipe.next_order += 1;
                        pipe.inflight.push(Segment {
                            deliver_at: now + delay,
                            order,
                            data: buf.to_vec(),
                        });
                    }
                }
            }
        }
        drop(st);
        self.net.cv.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        // Only the last handle onto the pair closes it; clones share the
        // timeout Arc, so its count tracks outstanding handles.
        if Arc::strong_count(&self.read_timeout) > 1 {
            return;
        }
        let mut st = self.net.lock();
        if let Some(p) = st.pipes.get_mut(&self.write_pipe) {
            p.closed = true; // peer reads EOF after draining
        }
        if let Some(p) = st.pipes.get_mut(&self.read_pipe) {
            if p.closed {
                // Both directions down: reclaim.
                st.pipes.remove(&self.read_pipe);
                st.pipes.remove(&self.write_pipe);
            }
        }
        drop(st);
        self.net.cv.notify_all();
    }
}

impl NetStream for SimStream {
    fn try_clone(&self) -> io::Result<Box<dyn NetStream>> {
        Ok(Box::new(SimStream {
            net: Arc::clone(&self.net),
            node: self.node.clone(),
            read_pipe: self.read_pipe,
            write_pipe: self.write_pipe,
            read_timeout: Arc::clone(&self.read_timeout),
        }))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self.read_timeout.lock().expect("timeout poisoned") = timeout;
        Ok(())
    }
}

/// Process-unique suffix for simulation scratch directories.
pub(crate) fn unique_suffix() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    fn echo_server(net: &Arc<SimNet>, node: &str, addr: &str) -> std::thread::JoinHandle<()> {
        let t = net.transport(node);
        let listener = t.bind(addr).expect("bind");
        std::thread::spawn(move || {
            while let Ok(accepted) = listener.accept(Duration::from_millis(50)) {
                let Some(stream) = accepted else { continue };
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).map_or(false, |n| n > 0) {
                    if writer.write_all(line.as_bytes()).is_err() {
                        return;
                    }
                    line.clear();
                }
            }
        })
    }

    #[test]
    fn virtual_sleep_outruns_the_wall_clock() {
        let net = SimNet::new(1);
        let t = net.transport("n");
        let wall = Instant::now();
        t.sleep(Duration::from_secs(30));
        assert!(
            wall.elapsed() < Duration::from_secs(2),
            "a 30s virtual sleep took {:?} of wall clock",
            wall.elapsed()
        );
        assert!(t.now_micros() >= 30_000_000);
        net.shutdown();
    }

    #[test]
    fn round_trip_and_read_timeout() {
        let net = SimNet::new(2);
        let server = echo_server(&net, "srv", "srv:9000");
        let t = net.transport("cli");
        let stream = t
            .connect("srv:9000", Duration::from_secs(1))
            .expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(b"hello\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "hello\n");

        // Nothing more is coming: a read deadline must fire on the
        // virtual clock, not the wall clock.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let wall = Instant::now();
        let err = reader.read_line(&mut line).expect_err("must time out");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(wall.elapsed() < Duration::from_secs(2));
        net.shutdown();
        let _ = server.join();
    }

    #[test]
    fn crash_gives_readers_eof_and_writers_broken_pipe() {
        let net = SimNet::new(3);
        let server = echo_server(&net, "srv", "srv:9000");
        let t = net.transport("cli");
        let stream = t
            .connect("srv:9000", Duration::from_secs(1))
            .expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        net.crash("srv");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).expect("EOF"), 0);
        assert_eq!(
            writer.write_all(b"x\n").expect_err("broken pipe").kind(),
            io::ErrorKind::BrokenPipe
        );
        assert!(
            t.connect("srv:9000", Duration::from_secs(1)).is_err(),
            "connecting to a crashed node must fail"
        );
        net.shutdown();
        let _ = server.join();
    }

    #[test]
    fn partitions_blackhole_sends_and_refuse_connects() {
        let net = SimNet::new(4);
        let server = echo_server(&net, "srv", "srv:9000");
        let t = net.transport("cli");
        let stream = t
            .connect("srv:9000", Duration::from_secs(1))
            .expect("connect");
        net.partition_oneway("cli", "srv");
        let mut writer = stream.try_clone().expect("clone");
        // Half-open: the send "succeeds"…
        writer.write_all(b"lost\n").expect("blackholed write");
        // …but nothing ever comes back.
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set timeout");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).is_err(),
            "reply must never arrive"
        );
        assert!(
            t.connect("srv:9000", Duration::from_secs(1)).is_err(),
            "new connections through a partition must fail"
        );
        net.heal("cli", "srv");
        assert!(t.connect("srv:9000", Duration::from_secs(1)).is_ok());
        assert!(matches!(net.trace().first(), Some(TraceEvent::Note { .. })));
        net.shutdown();
        let _ = server.join();
    }

    #[test]
    fn fault_verdicts_are_a_pure_function_of_the_frame_identity() {
        let plan = FaultPlan {
            drop_p: 0.3,
            dup_p: 0.2,
            delay_p: 0.5,
            delay_max_micros: 10_000,
        };
        let link = ("a".to_string(), "b".to_string());
        let net1 = SimNet::new(99);
        let net2 = SimNet::new(99);
        for conn in 1..4u64 {
            for seq in 1..32u64 {
                let a = match net1.verdict(&plan, &link, conn, seq) {
                    Verdict::Drop => (true, 0, 0),
                    Verdict::Deliver { copies, delay } => (false, copies, delay),
                };
                let b = match net2.verdict(&plan, &link, conn, seq) {
                    Verdict::Drop => (true, 0, 0),
                    Verdict::Deliver { copies, delay } => (false, copies, delay),
                };
                assert_eq!(a, b, "verdict diverged at conn={conn} seq={seq}");
            }
        }
    }
}
