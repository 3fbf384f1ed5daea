//! The protocol front end: accepts connections and speaks the
//! line-delimited JSON protocol against a [`Daemon`].
//!
//! One thread per connection; the accept loop polls a shutdown flag so
//! `shutdown` requests (and daemon-side stops) unwind promptly. Every
//! connection gets a read timeout, so a half-open peer can stall only its
//! own thread, and only until the timeout fires. All sockets and sleeps
//! go through the [`Transport`] seam, so the same server runs unchanged
//! on the simulated network.

use std::io::{BufReader, BufWriter};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use shard::{Reject, RejectKind};

use crate::daemon::{Daemon, SubmitError};
use crate::job::JobSpec;
use crate::json::Json;
use crate::net::{NetListener, NetStream, TcpTransport, Transport};
use crate::proto::{
    err, err_busy, metrics_to_json, ok_with, parse_request, read_frame, record_to_json,
    registry_to_json, remote_to_json, shard_to_json, tenant_to_json, worker_to_json, write_frame,
    Frame,
};

/// How long a connection may sit idle (mid-read) before it is dropped.
/// Generous enough for an interactive client, short enough that a
/// half-open socket cannot pin a thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval of the accept loop and of `watch`.
const POLL: Duration = Duration::from_millis(50);

/// How many un-sent `watch` frames may pile up before the consumer is
/// declared too slow and disconnected. Progress frames are small, so
/// this bounds per-watcher memory at a few hundred KB worst case.
const WATCH_BACKLOG: usize = 64;

/// The protocol server. Owns the listener; serves until a `shutdown`
/// request arrives or [`Server::stop_flag`] is raised.
pub struct Server {
    transport: Arc<dyn Transport>,
    listener: Box<dyn NetListener>,
    daemon: Daemon,
    stop: Arc<AtomicBool>,
    /// Connections currently being served; admission closes new ones
    /// with a structured `busy` frame past the daemon's cap.
    active: Arc<AtomicUsize>,
}

/// RAII count of one served connection.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds to `addr` over real TCP (use port 0 for an OS-assigned
    /// port).
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind(addr: &str, daemon: Daemon) -> Result<Self, String> {
        Self::bind_on(TcpTransport::shared(), addr, daemon)
    }

    /// Binds to `addr` over `transport`.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind_on(
        transport: Arc<dyn Transport>,
        addr: &str,
        daemon: Daemon,
    ) -> Result<Self, String> {
        let listener = transport
            .bind(addr)
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Self {
            transport,
            listener,
            daemon,
            stop: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound `host:port` (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// A flag that makes [`Server::serve`] return when raised.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts and serves connections until stopped. Returns once the
    /// stop flag is up; connection threads are detached and die with
    /// their sockets.
    ///
    /// # Errors
    /// Propagates listener failures.
    pub fn serve(&self) -> Result<(), String> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept(POLL) {
                Ok(Some(stream)) => {
                    // Admission control: past the cap, answer with one
                    // structured busy frame and close — a bounded, fast
                    // reject instead of an unbounded thread pile-up.
                    let cap = self.daemon.max_connections();
                    if self.active.load(Ordering::SeqCst) >= cap {
                        self.daemon.obs().counter("tuned_busy_rejects_total").inc();
                        let reject = Reject::new(
                            RejectKind::Connections,
                            format!("server is at its connection cap ({cap})"),
                        );
                        let mut writer = BufWriter::new(stream);
                        let _ = write_frame(&mut writer, &err_busy(&reject));
                        continue;
                    }
                    self.active.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnGuard(Arc::clone(&self.active));
                    self.daemon.obs().counter("tuned_connections_total").inc();
                    let daemon = self.daemon.clone();
                    let stop = Arc::clone(&self.stop);
                    let transport = Arc::clone(&self.transport);
                    let _ =
                        std::thread::Builder::new()
                            .name("tuned-conn".into())
                            .spawn(move || {
                                let _guard = guard;
                                serve_connection(stream, &daemon, &stop, &transport);
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
    daemon: &Daemon,
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

    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_frame(&mut reader) {
            Frame::Line(line) => line,
            Frame::Eof => return,
            Frame::Oversized => {
                daemon.obs().counter("tuned_protocol_errors_total").inc();
                let _ = write_frame(&mut writer, &err("frame exceeds 1 MiB; closing"));
                return;
            }
            Frame::Err(_) => return, // timeout or broken pipe: drop it
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Ok((cmd, body)) => dispatch(&cmd, &body, daemon, &mut writer, stop, transport),
            Err(e) => {
                daemon.obs().counter("tuned_protocol_errors_total").inc();
                Some(err(e))
            }
        };
        match response {
            Some(v) => {
                if write_frame(&mut writer, &v).is_err() {
                    return;
                }
            }
            None => return, // dispatch already streamed / wants the connection closed
        }
    }
}

/// Handles one request. Returns `Some(response)` for the normal
/// one-frame case, or `None` when the handler streamed its own frames
/// (or wants the connection torn down).
fn dispatch(
    cmd: &str,
    body: &Json,
    daemon: &Daemon,
    writer: &mut BufWriter<Box<dyn NetStream>>,
    stop: &AtomicBool,
    transport: &Arc<dyn Transport>,
) -> Option<Json> {
    match cmd {
        "ping" => Some(ok_with(vec![("pong", Json::Bool(true))])),
        "submit" => Some(match body.get("job") {
            None => err("submit needs a 'job' object"),
            Some(job) => match JobSpec::from_json(job) {
                Err(e) => err(e),
                Ok(spec) => match daemon.submit_admit(spec) {
                    Ok(id) => ok_with(vec![("id", Json::Int(id as i64))]),
                    Err(SubmitError::Rejected(reject)) => err_busy(&reject),
                    Err(SubmitError::Internal(e)) => err(e),
                },
            },
        }),
        "status" => Some(match job_id(body) {
            Err(e) => err(e),
            Ok(id) => daemon.status(id).map_or_else(
                || err(format!("no job {id}")),
                |r| ok_with(vec![("job", record_to_json(&r))]),
            ),
        }),
        "list" => Some(ok_with(vec![(
            "jobs",
            Json::Arr(daemon.list().iter().map(record_to_json).collect()),
        )])),
        "cancel" => Some(match job_id(body).and_then(|id| daemon.cancel(id)) {
            Ok(was) => ok_with(vec![("was", Json::Str(was.name().into()))]),
            Err(e) => err(e),
        }),
        "metrics" => {
            // Per-worker, per-shard, and per-tenant rows ride inside the
            // metrics object so every consumer of `client.metrics()`
            // sees them.
            let mut m = metrics_to_json(&daemon.metrics_snapshot());
            if let Json::Obj(pairs) = &mut m {
                pairs.push((
                    "workers".into(),
                    Json::Arr(
                        daemon
                            .pool()
                            .snapshots()
                            .iter()
                            .map(worker_to_json)
                            .collect(),
                    ),
                ));
                pairs.push((
                    "shards".into(),
                    Json::Arr(daemon.shard_snapshots().iter().map(shard_to_json).collect()),
                ));
                pairs.push((
                    "tenants".into(),
                    Json::Arr(daemon.tenant_usage().iter().map(tenant_to_json).collect()),
                ));
            }
            Some(ok_with(vec![("metrics", m)]))
        }
        "tenants" => Some(ok_with(vec![(
            "tenants",
            Json::Arr(daemon.tenant_usage().iter().map(tenant_to_json).collect()),
        )])),
        "obs" => Some(ok_with(vec![(
            "obs",
            registry_to_json(&daemon.obs_snapshot()),
        )])),
        "register" => Some(match worker_addr(body) {
            Err(e) => err(e),
            Ok(addr) => {
                // The pool is the fleet's one liveness view; a worker's
                // shard lease is a pure function of its address.
                let new = daemon.pool().register(&addr);
                ok_with(vec![("new", Json::Bool(new))])
            }
        }),
        "heartbeat" => Some(match worker_addr(body) {
            Err(e) => err(e),
            Ok(addr) => {
                daemon.pool().heartbeat(&addr);
                ok_with(vec![])
            }
        }),
        "workers" => Some(ok_with(vec![(
            "workers",
            Json::Arr(
                daemon
                    .pool()
                    .snapshots()
                    .iter()
                    .map(worker_to_json)
                    .collect(),
            ),
        )])),
        "store" => Some(store_verb(body, daemon)),
        "watch" => watch(body, daemon, writer, stop, transport),
        "shutdown" => {
            // Acknowledge first — the daemon join below may take a while.
            let _ = write_frame(writer, &ok_with(vec![]));
            stop.store(true, Ordering::SeqCst);
            daemon.shutdown();
            None
        }
        other => {
            daemon.obs().counter("tuned_protocol_errors_total").inc();
            Some(err(format!("unknown cmd '{other}'")))
        }
    }
}

/// Streams one frame per job-record change until the job is terminal.
///
/// Frames go through a bounded queue to a dedicated writer thread, so a
/// consumer that stops reading can only back up [`WATCH_BACKLOG`] frames
/// of memory — past that it is disconnected (and counted in
/// `slow_watch_disconnects`) instead of pinning daemon memory while the
/// job keeps producing progress.
fn watch(
    body: &Json,
    daemon: &Daemon,
    writer: &mut BufWriter<Box<dyn NetStream>>,
    stop: &AtomicBool,
    transport: &Arc<dyn Transport>,
) -> Option<Json> {
    let id = match job_id(body) {
        Ok(id) => id,
        Err(e) => return Some(err(e)),
    };
    let Ok(write_half) = writer.get_ref().try_clone() else {
        return None;
    };
    let (tx, rx) = sync_channel::<Json>(WATCH_BACKLOG);
    let sink = std::thread::Builder::new()
        .name("tuned-watch-writer".into())
        .spawn(move || {
            let mut out = BufWriter::new(write_half);
            // Exits when the channel disconnects (watch loop done or the
            // consumer was declared slow) or the socket breaks.
            while let Ok(frame) = rx.recv() {
                if write_frame(&mut out, &frame).is_err() {
                    return;
                }
            }
        });
    let Ok(sink) = sink else {
        return None;
    };

    let mut last: Option<(String, usize)> = None;
    let mut outcome = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Some(r) = daemon.status(id) else {
            outcome = Some(err(format!("no job {id}")));
            break;
        };
        let key = (r.state.name().to_string(), r.generation);
        if last.as_ref() != Some(&key) {
            last = Some(key);
            let mut fields = vec![("job", record_to_json(&r))];
            // During a distributed run, surface the remote dispatch
            // counters alongside each progress frame.
            if !daemon.pool().is_empty() {
                fields.push(("remote", remote_to_json(&daemon.metrics_snapshot())));
            }
            match push_watch_frame(&tx, ok_with(fields), daemon.obs()) {
                WatchPush::Sent => {}
                WatchPush::TooSlow => {
                    // The consumer is WATCH_BACKLOG frames behind a
                    // 20 Hz poll: cut it loose. The channel drops here;
                    // the writer thread drains what it can and exits.
                    drop(tx);
                    let _ = sink.join();
                    return None;
                }
                WatchPush::ConsumerGone => break,
            }
        }
        if r.state.is_terminal() {
            break;
        }
        transport.sleep(POLL);
    }
    // Graceful end: let every queued frame flush before the connection
    // returns to request/response mode or closes.
    drop(tx);
    let _ = sink.join();
    outcome
}

/// What became of one frame offered to a watch writer's bounded queue.
enum WatchPush {
    /// Queued for the writer thread.
    Sent,
    /// The queue is full — the consumer fell [`WATCH_BACKLOG`] frames
    /// behind and must be disconnected. Counted in
    /// `slow_watch_disconnects`.
    TooSlow,
    /// The writer thread already exited (broken socket).
    ConsumerGone,
}

fn push_watch_frame(
    tx: &std::sync::mpsc::SyncSender<Json>,
    frame: Json,
    reg: &obs::Registry,
) -> WatchPush {
    match tx.try_send(frame) {
        Ok(()) => WatchPush::Sent,
        Err(TrySendError::Full(_)) => {
            reg.counter("tuned_slow_watch_disconnects_total").inc();
            WatchPush::TooSlow
        }
        Err(TrySendError::Disconnected(_)) => WatchPush::ConsumerGone,
    }
}

/// The `store` verb: `stats` and `compact`, for operators. Records
/// themselves never cross the wire: the store is read and appended only
/// by the daemon's own `fitstore::StoreTier`, so no peer can plant a
/// fitness that later jobs would replay.
fn store_verb(body: &Json, daemon: &Daemon) -> Json {
    let Some(store) = daemon.store() else {
        return err("no store configured (start tuned with --store-path)");
    };
    let op = body.get("op").and_then(Json::as_str).unwrap_or("stats");
    match op {
        "stats" => {
            let s = store.stats();
            ok_with(vec![(
                "stats",
                Json::obj(vec![
                    ("records", Json::Int(s.records as i64)),
                    ("cells", Json::Int(s.cells as i64)),
                    ("wal_records", Json::Int(s.wal_records as i64)),
                    ("segments", Json::Int(s.segments as i64)),
                    ("appends", Json::Int(s.appends as i64)),
                    ("hits", Json::Int(s.hits as i64)),
                    ("misses", Json::Int(s.misses as i64)),
                    ("compactions", Json::Int(s.compactions as i64)),
                    (
                        "recovered_torn_bytes",
                        Json::Int(s.recovered_torn_bytes as i64),
                    ),
                ]),
            )])
        }
        "compact" => match store.compact() {
            Ok(r) => ok_with(vec![(
                "compaction",
                Json::obj(vec![
                    ("records", Json::Int(r.records as i64)),
                    ("folded_segments", Json::Int(r.folded_segments as i64)),
                ]),
            )]),
            Err(e) => err(e),
        },
        other => err(format!(
            "unknown store op '{other}' (known: stats, compact)"
        )),
    }
}

fn job_id(body: &Json) -> Result<u64, String> {
    body.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "request needs a numeric 'id'".to_string())
}

/// Extracts the `host:port` a worker announces itself under.
fn worker_addr(body: &Json) -> Result<String, String> {
    let addr = body
        .get("addr")
        .and_then(Json::as_str)
        .ok_or("request needs a string 'addr'")?;
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("'{addr}' is not a host:port address"));
    }
    Ok(addr.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_watch_queue_means_disconnect_and_a_counter_bump() {
        let reg = obs::Registry::new();
        let slow = || reg.counter_value("tuned_slow_watch_disconnects_total");
        let (tx, rx) = sync_channel::<Json>(2);
        assert!(matches!(
            push_watch_frame(&tx, Json::Null, &reg),
            WatchPush::Sent
        ));
        assert!(matches!(
            push_watch_frame(&tx, Json::Null, &reg),
            WatchPush::Sent
        ));
        // Third frame with nobody reading: the backlog bound is hit.
        assert!(matches!(
            push_watch_frame(&tx, Json::Null, &reg),
            WatchPush::TooSlow
        ));
        assert_eq!(slow(), 1);
        // A hung-up consumer is not "slow" — no counter bump.
        drop(rx);
        assert!(matches!(
            push_watch_frame(&tx, Json::Null, &reg),
            WatchPush::ConsumerGone
        ));
        assert_eq!(slow(), 1);
    }
}
