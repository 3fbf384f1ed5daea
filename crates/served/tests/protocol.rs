//! Protocol robustness: malformed frames, oversized lines, and half-open
//! connections must not wedge the daemon — and metrics stay live while
//! jobs run concurrently.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ga::GaConfig;
use jit::Scenario;
use served::daemon::{Daemon, DaemonConfig};
use served::job::JobSpec;
use served::json::{parse, u64_from_json, Json};
use served::{Client, RunDir, Server};
use tuner::Goal;

/// The wall-clock unit every deadline in this suite is a multiple of.
/// These tests exercise a real daemon over real sockets, so their
/// bounds cannot ride the simulated clock (`crates/sim`) — but they
/// *can* scale: set `SIM_TIMEOUT_MS` (default 1000) to stretch every
/// bound on slow or heavily loaded CI machines instead of editing
/// hard-coded deadlines.
fn timeout_unit() -> Duration {
    let ms = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    Duration::from_millis(ms)
}

fn bound(units: u32) -> Duration {
    timeout_unit() * units
}

struct TestServer {
    addr: String,
    daemon: Daemon,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, workers: usize) -> Self {
        Self::start_configured(tag, workers, false, |c| c)
    }

    /// Like [`TestServer::start`], with the persistent fitness store
    /// enabled under the run directory.
    fn start_store_backed(tag: &str, workers: usize) -> Self {
        Self::start_configured(tag, workers, true, |c| c)
    }

    /// Like [`TestServer::start`], with extra daemon-config tweaks
    /// (shards, quotas, caps) applied on top of the defaults.
    fn start_tuned(
        tag: &str,
        workers: usize,
        tweak: impl FnOnce(DaemonConfig) -> DaemonConfig,
    ) -> Self {
        Self::start_configured(tag, workers, false, tweak)
    }

    fn start_configured(
        tag: &str,
        workers: usize,
        store_backed: bool,
        tweak: impl FnOnce(DaemonConfig) -> DaemonConfig,
    ) -> Self {
        let dir = std::env::temp_dir().join(format!("tuned-proto-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = store_backed.then(|| {
            std::sync::Arc::new(stored::Store::open(dir.join("store")).expect("open store"))
        });
        let daemon = Daemon::start(
            tweak(DaemonConfig {
                workers,
                queue_capacity: 16,
                store,
                // Each test server counts into a registry of its own:
                // the tests below read exact totals, and the default
                // (process-global) registry is shared by every daemon
                // this test binary starts.
                obs: std::sync::Arc::new(obs::Registry::new()),
                ..DaemonConfig::default()
            }),
            RunDir::open(&dir).unwrap(),
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", daemon.clone()).unwrap();
        let addr = server.local_addr().to_string();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || {
            server.serve().expect("serve");
        });
        Self {
            addr,
            daemon,
            stop,
            handle: Some(handle),
            dir,
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        for r in self.daemon.list() {
            let _ = self.daemon.cancel(r.id);
        }
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn raw_request(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    parse(resp.trim_end()).expect("daemon always answers with JSON")
}

fn job(seed: u64, generations: usize) -> JobSpec {
    JobSpec {
        name: format!("job-{seed}"),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into()],
        ga: GaConfig {
            pop_size: 6,
            generations,
            threads: 1,
            seed,
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

#[test]
fn malformed_frames_get_errors_and_the_connection_survives() {
    let ts = TestServer::start("malformed", 1);
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    for bad in [
        "this is not json",
        "{\"no_cmd\":1}",
        "{\"cmd\":42}",
        "{\"cmd\":\"no-such-verb\"}",
        "{\"cmd\":\"status\"}",
        "{\"cmd\":\"submit\",\"job\":{\"name\":\"x\"}}",
        "[1,2,3]",
    ] {
        let resp = raw_request(&mut stream, bad);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "{bad} must be rejected"
        );
        assert!(resp.get("error").is_some());
    }

    // Same connection still serves good requests.
    let resp = raw_request(&mut stream, "{\"cmd\":\"ping\"}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));

    // And the error counter saw every unparseable frame / unknown verb
    // (well-formed requests with bad arguments are not protocol errors).
    let m = ts.daemon.metrics_snapshot();
    assert!(m.protocol_errors >= 5, "saw {} errors", m.protocol_errors);
}

#[test]
fn unknown_strategy_submit_gets_a_structured_error_frame() {
    let ts = TestServer::start("bad-strategy", 1);
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // `extra` is one more `"key":value` member of the job body.
    let submit_with = |extra: &str| {
        format!(
            "{{\"cmd\":\"submit\",\"job\":{{\"name\":\"j\",\"scenario\":\"opt\",\
             \"goal\":\"tot\",\"arch\":\"x86-p4\",\"suite\":[\"db\"],{extra}}}}}"
        )
    };
    let submit = |strategy: &str| submit_with(&format!("\"strategy\":\"{strategy}\""));
    for (bad, names_the_problem) in [
        (submit("gradient"), "unknown strategy"),
        (submit("race:ga"), "at least 2 members"),
        (submit("race:ga+bogus"), "unknown strategy"),
        (submit(""), "unknown strategy"),
        // Would otherwise pass submit and panic the runner thread.
        (
            submit_with("\"ga\":{\"tournament_size\":0}"),
            "tournament size must be positive",
        ),
    ] {
        let resp = raw_request(&mut stream, &bad);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "{bad} must be rejected at submit"
        );
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.contains(names_the_problem),
            "error frame should name the problem, got: {msg}"
        );
    }
    assert!(
        ts.daemon.list().is_empty(),
        "a rejected submit must not enqueue a job"
    );

    // The connection survives, and a well-formed race spec is accepted.
    let resp = raw_request(&mut stream, &submit("race:ga+random"));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    let id = resp.get("id").and_then(Json::as_i64).unwrap() as u64;
    let _ = ts.daemon.cancel(id);
}

#[test]
fn oversized_ga_fields_get_an_error_frame_and_the_daemon_keeps_answering() {
    let ts = TestServer::start("huge-ga", 1);
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Well-formed, and a runner would try to allocate the population.
    for field in ["pop_size", "generations", "tournament_size", "threads"] {
        let submit = format!(
            "{{\"cmd\":\"submit\",\"job\":{{\"name\":\"j\",\"scenario\":\"opt\",\
             \"goal\":\"tot\",\"arch\":\"x86-p4\",\"suite\":[\"db\"],\
             \"ga\":{{\"{field}\":1000000000}}}}}}"
        );
        let resp = raw_request(&mut stream, &submit);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{field}");
        let msg = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.contains("degenerate GA config") && msg.contains(field),
            "{msg}"
        );
    }
    assert!(ts.daemon.list().is_empty(), "nothing was enqueued");
    let resp = raw_request(&mut stream, "{\"cmd\":\"status\",\"id\":1}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "no job 1");
    assert!(
        resp.get("error").is_some(),
        "status still answers: {resp:?}"
    );
}

#[test]
fn oversized_line_closes_the_connection_without_buffering_it() {
    let ts = TestServer::start("oversized", 1);
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // 4 MiB of garbage on one line: the server must reject after ~1 MiB
    // and close, not accumulate the rest.
    let chunk = vec![b'a'; 64 * 1024];
    let mut wrote_err = None;
    for _ in 0..64 {
        if let Err(e) = stream.write_all(&chunk) {
            wrote_err = Some(e); // server already hung up mid-send: fine
            break;
        }
    }
    if wrote_err.is_none() {
        let _ = stream.write_all(b"\n");
    }
    let mut resp = Vec::new();
    let _ = stream.read_to_end(&mut resp); // server closes after the error frame
    let text = String::from_utf8_lossy(&resp);
    if !text.trim().is_empty() {
        let v = parse(text.trim()).expect("error frame is JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    }

    // The daemon is still alive for everyone else.
    let mut client = Client::connect(&ts.addr).unwrap();
    assert!(client.list().unwrap().is_empty());
}

#[test]
fn half_open_connections_do_not_wedge_the_daemon() {
    let ts = TestServer::start("halfopen", 1);

    // Open sockets that send nothing (and one that sends half a frame),
    // then leave them dangling.
    let idle: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(&ts.addr).unwrap())
        .collect();
    let mut partial = TcpStream::connect(&ts.addr).unwrap();
    partial.write_all(b"{\"cmd\":\"stat").unwrap(); // no newline, ever

    // The daemon still answers new connections promptly.
    let start = Instant::now();
    let mut client = Client::connect(&ts.addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let id = client.submit(&job(1, 2)).unwrap();
    let deadline = Instant::now() + bound(60);
    loop {
        let j = client.status(id).unwrap();
        if j.get("state").and_then(Json::as_str) == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job stuck behind idle sockets");
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(
        start.elapsed() < bound(60),
        "half-open peers delayed real work"
    );
    drop(partial);
    drop(idle);
}

#[test]
fn metrics_are_live_while_two_jobs_run_concurrently() {
    let ts = TestServer::start("metrics", 2);
    let mut client = Client::connect(&ts.addr).unwrap();
    let a = client.submit(&job(10, 200)).unwrap();
    let b = client.submit(&job(11, 200)).unwrap();

    // Wait until both are on workers simultaneously.
    let deadline = Instant::now() + bound(60);
    let running = loop {
        let m = client.metrics().unwrap();
        let running = m
            .get("jobs")
            .and_then(|j| j.get("running"))
            .and_then(Json::as_i64)
            .unwrap_or(0);
        if running == 2 {
            break running;
        }
        assert!(Instant::now() < deadline, "never saw 2 running jobs");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(running, 2);

    // Counters advance while they run.
    let g0 = |m: &Json, k: &str| m.get(k).and_then(Json::as_i64).unwrap_or(-1);
    let m1 = client.metrics().unwrap();
    let deadline = Instant::now() + bound(60);
    // The generation counter bumps just before its checkpoint lands, so
    // wait for both to advance.
    let m2 = loop {
        let m = client.metrics().unwrap();
        if g0(&m, "generations") > g0(&m1, "generations") && g0(&m, "checkpoints_written") > 0 {
            break m;
        }
        assert!(Instant::now() < deadline, "generation counter frozen");
        std::thread::sleep(Duration::from_millis(30));
    };
    assert!(g0(&m2, "evaluations") > 0);
    assert!(g0(&m2, "connections") >= 1);
    assert_eq!(g0(&m2, "jobs_submitted"), 2);
    let rate = m2.get("cache_hit_rate").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&rate));

    // Cancel both; they must land in `canceled` promptly.
    assert_eq!(client.cancel(a).unwrap(), "running");
    assert_eq!(client.cancel(b).unwrap(), "running");
    let deadline = Instant::now() + bound(60);
    loop {
        let m = client.metrics().unwrap();
        let canceled = m
            .get("jobs")
            .and_then(|j| j.get("canceled"))
            .and_then(Json::as_i64)
            .unwrap_or(0);
        if canceled == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn watch_streams_generations_then_terminates() {
    let ts = TestServer::start("watch", 1);
    let mut client = Client::connect(&ts.addr).unwrap();
    let id = client.submit(&job(3, 3)).unwrap();

    let mut watcher = Client::connect(&ts.addr).unwrap();
    watcher.set_timeout(Some(bound(120))).unwrap();
    let mut updates = 0;
    let last = watcher.watch(id, |_| updates += 1).unwrap();
    assert!(updates >= 2, "watch sent {updates} updates");
    assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(last.get("generation").and_then(Json::as_i64), Some(3));
}

#[test]
fn store_verbs_roundtrip_over_the_wire() {
    let ts = TestServer::start_store_backed("store", 1);
    let mut c = Client::connect(&ts.addr).unwrap();
    let spec = job(61, 3);

    // The closed door: records do not cross the wire. `get`, `put` and
    // any other op are one structured error, the connection survives,
    // and nothing lands in the store.
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for op in ["put", "get", "drop"] {
        let frame = Json::obj(vec![
            ("cmd", Json::Str("store".into())),
            ("op", Json::Str(op.into())),
            ("job", spec.to_json()),
            ("genes", parse("[25,15,8,4,9]").unwrap()),
            ("fitness", Json::Num(0.875)),
        ]);
        let resp = raw_request(&mut stream, &frame.to_text());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{op}");
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains(&format!("unknown store op '{op}'")),
            "{error}"
        );
    }
    let pong = raw_request(&mut stream, "{\"cmd\":\"ping\"}");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    let stats = c.store_stats().unwrap();
    assert_eq!(stats.get("records"), Some(&Json::Int(0)));

    // The one way a record gets in: a job measures a genome.
    let id = c.submit(&spec).unwrap();
    c.set_timeout(Some(bound(120))).unwrap();
    let last = c.watch(id, |_| {}).unwrap();
    assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
    let mut c = Client::connect(&ts.addr).unwrap();
    let stats = c.store_stats().unwrap();
    let records = stats.get("records").and_then(Json::as_i64).unwrap();
    assert!(records > 0, "{}", stats.to_text());
    assert_eq!(stats.get("appends"), Some(&Json::Int(records)));
    assert_eq!(stats.get("wal_records"), Some(&Json::Int(records)));
    assert_eq!(stats.get("cells"), Some(&Json::Int(1)));

    // Compaction folds the wal and every record survives.
    let report = c.store_compact().unwrap();
    assert_eq!(report.get("records"), Some(&Json::Int(records)));
    let stats = c.store_stats().unwrap();
    assert_eq!(stats.get("records"), Some(&Json::Int(records)));
    assert_eq!(stats.get("segments"), Some(&Json::Int(1)));
    assert_eq!(stats.get("wal_records"), Some(&Json::Int(0)));
}

#[test]
fn store_verbs_without_a_store_are_structured_errors() {
    let ts = TestServer::start("storeless", 1);
    let mut c = Client::connect(&ts.addr).unwrap();
    let e = c.store_stats().unwrap_err();
    assert!(e.contains("no store configured"), "{e}");
    let e = c.store_compact().unwrap_err();
    assert!(e.contains("no store configured"), "{e}");
}

/// Submits `spec` over a raw socket and returns the response frame.
fn raw_submit(stream: &mut TcpStream, spec: &JobSpec) -> Json {
    let line = Json::obj(vec![
        ("cmd", Json::Str("submit".into())),
        ("job", spec.to_json()),
    ])
    .to_text();
    raw_request(stream, &line)
}

#[test]
fn a_full_shard_queue_answers_with_a_structured_busy_frame() {
    // One runner, room for one queued job: the first submit runs, the
    // second queues, the third must bounce with reason "queue_full".
    let ts = TestServer::start_tuned("busy-queue", 1, |c| DaemonConfig {
        queue_capacity: 1,
        ..c
    });
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let a = raw_submit(&mut stream, &job(70, 400));
    assert_eq!(a.get("ok"), Some(&Json::Bool(true)));
    // Wait for the first job to leave the queue so exactly one slot is
    // in play.
    let deadline = Instant::now() + bound(60);
    loop {
        let running = ts
            .daemon
            .list()
            .iter()
            .filter(|r| r.state.name() == "running")
            .count();
        if running == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "first job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let b = raw_submit(&mut stream, &job(71, 400));
    assert_eq!(b.get("ok"), Some(&Json::Bool(true)));
    let c = raw_submit(&mut stream, &job(72, 400));
    assert_eq!(c.get("ok"), Some(&Json::Bool(false)), "{}", c.to_text());
    assert_eq!(c.get("busy"), Some(&Json::Bool(true)));
    assert_eq!(c.get("reason").and_then(Json::as_str), Some("queue_full"));
    assert_eq!(c.get("retryable"), Some(&Json::Bool(true)));
    assert!(ts.daemon.metrics_snapshot().busy_rejects >= 1);

    // The connection survives the reject.
    let resp = raw_request(&mut stream, "{\"cmd\":\"ping\"}");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn quota_exhaustion_is_a_non_retryable_busy_frame() {
    // job(…) estimates pop 6 × 3 gens = 18 evals; a quota of 20 admits
    // one job and must reject the second.
    let ts = TestServer::start_tuned("busy-quota", 1, |c| DaemonConfig {
        tenant_quotas: vec![("capped".into(), 20)],
        ..c
    });
    let mut stream = TcpStream::connect(&ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let capped = |seed| JobSpec {
        tenant: "capped".into(),
        ..job(seed, 3)
    };

    let a = raw_submit(&mut stream, &capped(80));
    assert_eq!(a.get("ok"), Some(&Json::Bool(true)), "{}", a.to_text());
    let b = raw_submit(&mut stream, &capped(81));
    assert_eq!(b.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(b.get("busy"), Some(&Json::Bool(true)));
    assert_eq!(b.get("reason").and_then(Json::as_str), Some("quota"));
    assert_eq!(b.get("retryable"), Some(&Json::Bool(false)));
    assert!(ts.daemon.metrics_snapshot().quota_rejects >= 1);

    // An uncapped tenant is unaffected.
    let c = raw_submit(&mut stream, &job(82, 3));
    assert_eq!(c.get("ok"), Some(&Json::Bool(true)));

    // The tenants verb reports the accounting.
    let mut client = Client::connect(&ts.addr).unwrap();
    let rows = client.tenants().unwrap();
    let row = rows
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("capped"))
        .expect("capped tenant row");
    assert_eq!(row.get("admitted").and_then(u64_from_json), Some(1));
    assert_eq!(row.get("rejected").and_then(u64_from_json), Some(1));
    assert_eq!(row.get("quota").and_then(u64_from_json), Some(20));
}

#[test]
fn metrics_carry_per_shard_rows_and_records_carry_tenant_and_shard() {
    let ts = TestServer::start_tuned("shard-rows", 2, |c| DaemonConfig { shards: 3, ..c });
    let mut client = Client::connect(&ts.addr).unwrap();
    let id = client.submit(&job(90, 2)).unwrap();

    let m = client.metrics().unwrap();
    let shards = m.get("shards").and_then(Json::as_arr).expect("shards rows");
    assert_eq!(shards.len(), 3, "one row per shard");
    let total: i64 = shards
        .iter()
        .flat_map(|s| {
            ["queued", "running", "done", "failed", "canceled"]
                .map(|k| s.get(k).and_then(Json::as_i64).unwrap())
        })
        .sum();
    assert_eq!(total, 1, "the submitted job shows up in exactly one shard");
    assert!(m.get("tenants").and_then(Json::as_arr).is_some());

    let j = client.status(id).unwrap();
    assert_eq!(j.get("tenant").and_then(Json::as_str), Some("default"));
    let shard = j.get("shard").and_then(Json::as_i64).expect("shard field");
    assert!((0..3).contains(&shard));
    let _ = client.cancel(id);
}

#[test]
fn connections_past_the_cap_bounce_with_a_busy_frame() {
    let ts = TestServer::start_tuned("conn-cap", 1, |c| DaemonConfig {
        max_connections: 2,
        ..c
    });
    // Fill the cap with two served connections (a ping response proves
    // each is accepted and counted before the next connect).
    // 30s timeouts: a fully loaded test host can starve these threads
    // well past the file's usual 10s.
    let mut a = TcpStream::connect(&ts.addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        raw_request(&mut a, "{\"cmd\":\"ping\"}").get("ok"),
        Some(&Json::Bool(true))
    );
    let mut b = TcpStream::connect(&ts.addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(
        raw_request(&mut b, "{\"cmd\":\"ping\"}").get("ok"),
        Some(&Json::Bool(true))
    );

    // The third connection gets one busy frame, then EOF.
    let mut c = TcpStream::connect(&ts.addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(c.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = parse(line.trim_end()).expect("busy frame is JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{}", v.to_text());
    assert_eq!(v.get("busy"), Some(&Json::Bool(true)));
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("connections"));
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF");
    assert!(ts.daemon.metrics_snapshot().busy_rejects >= 1);

    // Freeing a slot readmits new connections.
    drop(a);
    let deadline = Instant::now() + bound(30);
    loop {
        let mut d = TcpStream::connect(&ts.addr).unwrap();
        d.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let resp = raw_request(&mut d, "{\"cmd\":\"ping\"}");
        if resp.get("ok") == Some(&Json::Bool(true)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(b);
}
