//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests are `{"cmd": "...", ...}`; responses are `{"ok": true, ...}`
//! or `{"ok": false, "error": "..."}`. The framing layer is deliberately
//! defensive: lines longer than [`MAX_FRAME_BYTES`] kill the connection
//! (a client that sends them is broken or hostile), while merely
//! malformed JSON gets an error response and the connection stays
//! usable.

use std::io::{BufRead, Write};

use crate::codec::{
    f64_to_json, record, required, Codec, Genome, Int, List, Map, Nullable, Str, F64, I64, U64,
};
use crate::daemon::JobRecord;
use crate::dispatch::WorkerSnapshot;
use crate::json::{parse, u64_to_json, Json};
use crate::metrics::MetricsSnapshot;

/// Longest request or response line the daemon will read, in bytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What became of one attempt to read a frame.
#[derive(Debug)]
pub enum Frame {
    /// A complete line (without the trailing newline).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded [`MAX_FRAME_BYTES`]; the caller must drop the
    /// connection.
    Oversized,
    /// An I/O error (includes read timeouts on half-open connections).
    Err(std::io::Error),
}

/// Reads one newline-delimited frame, enforcing the size cap *while
/// reading* — a 100 MB line is rejected after 1 MiB, not buffered.
pub fn read_frame(reader: &mut impl BufRead) -> Frame {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) => return Frame::Err(e),
        };
        if chunk.is_empty() {
            return if line.is_empty() {
                Frame::Eof
            } else {
                // Stream ended mid-line; treat the partial line as a frame.
                match String::from_utf8(line) {
                    Ok(s) => Frame::Line(s),
                    Err(_) => Frame::Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "frame is not UTF-8",
                    )),
                }
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if line.len() + take > MAX_FRAME_BYTES + 1 {
            reader.consume(take);
            return Frame::Oversized;
        }
        line.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => Frame::Line(s),
                Err(_) => Frame::Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "frame is not UTF-8",
                )),
            };
        }
    }
}

/// Writes one response frame (a line of JSON).
///
/// # Errors
/// Propagates I/O errors.
pub fn write_frame(writer: &mut impl Write, v: &Json) -> std::io::Result<()> {
    let mut text = v.to_text();
    text.push('\n');
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

/// A success envelope with extra fields.
#[must_use]
pub fn ok_with(mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut fields);
    Json::obj(pairs)
}

/// An error envelope.
#[must_use]
pub fn err(message: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// A structured `busy` reject envelope: `ok:false` like any error, plus
/// machine-readable fields so a client can distinguish "back off and
/// retry" (full queue, connection cap) from "don't bother" (quota).
///
/// ```text
/// {"ok":false,"busy":true,"reason":"queue_full","retryable":true,"error":"..."}
/// ```
#[must_use]
pub fn err_busy(reject: &shard::Reject) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("busy", Json::Bool(true)),
        ("reason", Json::Str(reject.kind.reason().into())),
        ("retryable", Json::Bool(reject.kind.retryable())),
        ("error", Json::Str(reject.message.clone())),
    ])
}

/// Parses a request line into `(cmd, body)`.
///
/// # Errors
/// Malformed JSON or a missing `cmd` field.
pub fn parse_request(line: &str) -> Result<(String, Json), String> {
    let v = parse(line)?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("request needs a string 'cmd' field")?
        .to_string();
    Ok((cmd, v))
}

/// One genome inside an `eval_batch` request: the dispatcher's index
/// into the generation plus the raw gene vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalRequest {
    /// Caller-chosen id; echoed back verbatim in the matching result.
    pub id: usize,
    /// The genome to score.
    pub genes: Vec<i64>,
}

/// One genome's outcome inside an `eval_batch` response. The batch
/// envelope itself can succeed while individual items fail — that is
/// the partial-failure seam: a worker reports what it could measure and
/// names what it could not, instead of poisoning the whole round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// A bit-exact fitness measurement.
    Fitness(f64),
    /// This item could not be evaluated (e.g. genes outside the
    /// problem's space); the batch's other results still stand.
    Error(String),
}

record! {
    /// One item of an `eval_batch` request.
    EvalRequestFmt: EvalRequest = "eval_batch item" {
        id: Int;
        genes: Genome;
    }
}

record! {
    /// One item of an `eval_batch` response as it appears on the wire:
    /// the id plus exactly one of `fitness` or `error`.
    pub(crate) EvalResultFmt: (usize, Option<f64>, Option<String>) = "eval_batch result" {
        id: Int;
        fitness: Nullable<F64> = None, omit;
        error: Nullable<Str> = None, omit;
    }
}

/// [`EvalResultFmt`] as the `(id, outcome)` pair callers hold.
struct EvalOutcomeFmt;

impl Codec for EvalOutcomeFmt {
    type T = (usize, EvalOutcome);
    const WHAT: &'static str = "an eval_batch result object";
    fn enc((id, outcome): &Self::T) -> Json {
        EvalResultFmt::enc(&match outcome {
            EvalOutcome::Fitness(f) => (*id, Some(*f), None),
            EvalOutcome::Error(e) => (*id, None, Some(e.clone())),
        })
    }
    fn dec(j: &Json) -> Result<Self::T, String> {
        match EvalResultFmt::dec(j)? {
            (id, Some(f), _) => Ok((id, EvalOutcome::Fitness(f))),
            (id, None, Some(e)) => Ok((id, EvalOutcome::Error(e))),
            _ => Err("eval_batch result needs 'fitness' or 'error'".into()),
        }
    }
}

/// Builds an `eval_batch` request frame: one round-trip carrying a whole
/// generation's worth of evals for one worker.
///
/// ```text
/// {"cmd":"eval_batch","id":"3","evals":[{"id":0,"genes":[23,...]},...]}
/// ```
///
/// The batch `id` is echoed in the response so a dispatcher can detect
/// stale or duplicated frames from an earlier batch on the same
/// connection.
#[must_use]
pub fn eval_batch_request(batch_id: u64, evals: &[EvalRequest]) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("eval_batch".into())),
        ("id", u64_to_json(batch_id)),
        (
            "evals",
            Json::Arr(evals.iter().map(EvalRequestFmt::enc).collect()),
        ),
    ])
}

/// Parses the body of an `eval_batch` request into `(batch_id, evals)`.
///
/// # Errors
/// Describes the first malformed field.
pub fn parse_eval_batch_request(body: &Json) -> Result<(u64, Vec<EvalRequest>), String> {
    Ok((
        required::<U64>(body, "eval_batch", "id")?,
        required::<List<EvalRequestFmt>>(body, "eval_batch", "evals")?,
    ))
}

/// Builds an `eval_batch` response envelope: the echoed batch id plus
/// one result object per item — `{"id":N,"fitness":...}` for successes,
/// `{"id":N,"error":"..."}` for per-item failures.
#[must_use]
pub fn eval_batch_response(batch_id: u64, results: &[(usize, EvalOutcome)]) -> Json {
    ok_with(vec![
        ("id", u64_to_json(batch_id)),
        (
            "results",
            Json::Arr(results.iter().map(EvalOutcomeFmt::enc).collect()),
        ),
    ])
}

/// Parses a full `eval_batch` response frame into
/// `(batch_id, per-item outcomes)`. Fitness values decode bit-exactly.
///
/// # Errors
/// A `{"ok":false}` envelope or any malformed field — the caller should
/// treat either as a protocol violation by the worker.
pub fn parse_eval_batch_response(v: &Json) -> Result<(u64, Vec<(usize, EvalOutcome)>), String> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let detail = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("missing ok flag");
        return Err(format!("eval_batch rejected: {detail}"));
    }
    Ok((
        required::<U64>(v, "eval_batch response", "id")?,
        required::<List<EvalOutcomeFmt>>(v, "eval_batch response", "results")?,
    ))
}

/// Serializes a tuned genome as its raw gene vector plus — for the
/// inlining problem, whose five genes have stable public names — one
/// named field per gene (the pre-problems wire shape, kept so existing
/// consumers of `result.params.callee_max_size` never notice).
#[must_use]
pub fn genome_to_json(problem: &str, genes: &[i64]) -> Json {
    let mut pairs = vec![("genes", Genome::of(genes))];
    if problem == "inline" && genes.len() == inliner::PARAM_NAMES.len() {
        pairs.push(("callee_max_size", Json::Int(genes[0])));
        pairs.push(("always_inline_size", Json::Int(genes[1])));
        pairs.push(("max_inline_depth", Json::Int(genes[2])));
        pairs.push(("caller_max_size", Json::Int(genes[3])));
        pairs.push(("hot_callee_max_size", Json::Int(genes[4])));
    }
    Json::obj(pairs)
}

/// Serializes a job record for `status` / `list` / `watch` responses.
#[must_use]
pub fn record_to_json(r: &JobRecord) -> Json {
    let mut pairs = vec![
        ("id", Json::Int(r.id as i64)),
        ("name", Json::Str(r.spec.name.clone())),
        ("state", Json::Str(r.state.name().into())),
        ("problem", Json::Str(r.spec.problem.clone())),
        ("strategy", Json::Str(r.spec.strategy.clone())),
        ("tenant", Json::Str(r.spec.tenant.clone())),
        ("shard", Json::Int(r.shard as i64)),
        ("generation", Json::Int(r.generation as i64)),
        ("best_fitness", Nullable::<F64>::enc(&r.best_fitness)),
    ];
    if let Some(o) = &r.online {
        pairs.push((
            "online",
            Json::obj(vec![
                ("epoch", u64_to_json(o.epoch)),
                ("retunes", u64_to_json(o.retunes)),
                ("regret_pct", f64_to_json(o.regret_pct)),
                ("phase", Json::Int(i64::from(o.phase))),
            ]),
        ));
    }
    if r.standings.len() > 1 {
        pairs.push((
            "strategies",
            Json::Arr(
                r.standings
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("best_fitness", Nullable::<F64>::enc(&s.best_fitness)),
                            ("evaluations", Json::Int(s.evaluations as i64)),
                            ("eliminated", Json::Bool(s.eliminated)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some((genes, fitness)) = &r.result {
        pairs.push((
            "result",
            Json::obj(vec![
                ("params", genome_to_json(&r.spec.problem, genes)),
                ("fitness", f64_to_json(*fitness)),
            ]),
        ));
    }
    if let Some(e) = &r.error {
        pairs.push(("error", Json::Str(e.clone())));
    }
    if let Some(t) = &r.timing {
        pairs.push((
            "timing",
            Json::obj(vec![
                ("generation", Json::Int(t.generation as i64)),
                ("eval_micros", u64_to_json(t.eval_micros)),
                ("select_micros", u64_to_json(t.select_micros)),
                ("breed_micros", u64_to_json(t.breed_micros)),
                ("evaluations", Json::Int(t.evaluations as i64)),
                ("cache_hits", Json::Int(t.cache_hits as i64)),
            ]),
        ));
    }
    Json::obj(pairs)
}

record! {
    SpanFmt: obs::SpanRecord = "span" {
        path: Str;
        label: Str;
        start_micros: U64;
        dur_micros: U64;
    }
}

record! {
    HistFmt: obs::HistSnapshot = "histogram" {
        counts: List<U64>;
        total: U64;
        sum: U64;
        max: U64;
    }
}

/// One histogram under its metric name: `name`, the snapshot's rows,
/// then p50/p95/p99 derived for human readers (decode recomputes them
/// from the buckets, so they are never read).
struct NamedHistFmt;

impl Codec for NamedHistFmt {
    type T = (String, obs::HistSnapshot);
    const WHAT: &'static str = "a histogram object";
    fn enc((name, h): &Self::T) -> Json {
        let mut rows = vec![("name", Str::enc(name))];
        rows.extend(HistFmt::rows(h));
        let derived = [("p50", h.p50()), ("p95", h.p95()), ("p99", h.p99())];
        rows.extend(derived.map(|(key, v)| (key, u64_to_json(v))));
        Json::obj(rows)
    }
    fn dec(j: &Json) -> Result<Self::T, String> {
        let name = required::<Str>(j, "histogram", "name")?;
        let h = HistFmt::dec(j)?;
        if h.counts.len() != obs::NUM_BUCKETS {
            return Err(format!(
                "histogram '{name}' has {} buckets, expected {}",
                h.counts.len(),
                obs::NUM_BUCKETS
            ));
        }
        Ok((name, h))
    }
}

record! {
    /// An observability registry snapshot, the `obs` verb's body. `u64`
    /// values ride as decimal strings so nothing is clipped to the JSON
    /// integer range.
    RegistryFmt: obs::RegistrySnapshot = "obs" {
        counters: Map<U64>;
        gauges: Map<I64>;
        histograms: List<NamedHistFmt>;
        spans: List<SpanFmt>;
    }
}

/// Serializes an observability registry snapshot for the `obs` verb.
#[must_use]
pub fn registry_to_json(s: &obs::RegistrySnapshot) -> Json {
    RegistryFmt::enc(s)
}

/// Decodes what [`registry_to_json`] produced.
///
/// # Errors
/// Describes the first malformed field.
pub fn registry_from_json(v: &Json) -> Result<obs::RegistrySnapshot, String> {
    RegistryFmt::dec(v)
}

/// Serializes a metrics snapshot.
#[must_use]
pub fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        ("uptime_secs", f64_to_json(m.uptime_secs)),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::Int(m.jobs.queued as i64)),
                ("running", Json::Int(m.jobs.running as i64)),
                ("done", Json::Int(m.jobs.done as i64)),
                ("failed", Json::Int(m.jobs.failed as i64)),
                ("canceled", Json::Int(m.jobs.canceled as i64)),
            ]),
        ),
        ("jobs_submitted", Json::Int(m.jobs_submitted as i64)),
        ("jobs_recovered", Json::Int(m.jobs_recovered as i64)),
        ("generations", Json::Int(m.generations as i64)),
        ("generations_per_sec", f64_to_json(m.generations_per_sec)),
        ("evaluations", Json::Int(m.evaluations as i64)),
        ("cache_hits", Json::Int(m.cache_hits as i64)),
        ("cache_hit_rate", f64_to_json(m.cache_hit_rate)),
        (
            "checkpoints_written",
            Json::Int(m.checkpoints_written as i64),
        ),
        ("connections", Json::Int(m.connections as i64)),
        ("protocol_errors", Json::Int(m.protocol_errors as i64)),
        ("busy_rejects", Json::Int(m.busy_rejects as i64)),
        ("quota_rejects", Json::Int(m.quota_rejects as i64)),
        (
            "slow_watch_disconnects",
            Json::Int(m.slow_watch_disconnects as i64),
        ),
        ("remote", remote_to_json(m)),
    ])
}

/// The remote-dispatch totals: the `remote` object of the `metrics`
/// verb and of every `watch` frame of a distributed run.
#[must_use]
pub fn remote_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj(vec![
        ("dispatched", Json::Int(m.remote_dispatched as i64)),
        ("batches", Json::Int(m.remote_batches as i64)),
        ("completed", Json::Int(m.remote_completed as i64)),
        ("retries", Json::Int(m.remote_retries as i64)),
        ("timeouts", Json::Int(m.remote_timeouts as i64)),
        ("evictions", Json::Int(m.remote_evictions as i64)),
        ("fallback_evals", Json::Int(m.remote_fallback_evals as i64)),
    ])
}

/// Serializes one shard's job gauges for the `metrics` verb.
#[must_use]
pub fn shard_to_json(s: &crate::daemon::ShardSnapshot) -> Json {
    Json::obj(vec![
        ("shard", Json::Int(s.shard as i64)),
        ("queued", Json::Int(s.queued as i64)),
        ("running", Json::Int(s.running as i64)),
        ("done", Json::Int(s.done as i64)),
        ("failed", Json::Int(s.failed as i64)),
        ("canceled", Json::Int(s.canceled as i64)),
    ])
}

/// Serializes one tenant's quota accounting for the `tenants` /
/// `metrics` verbs. `u64` budget numbers ride as decimal strings so
/// nothing clips to the JSON integer range.
#[must_use]
pub fn tenant_to_json(t: &shard::TenantUsage) -> Json {
    Json::obj(vec![
        ("tenant", Json::Str(t.tenant.clone())),
        ("quota", Nullable::<U64>::enc(&t.quota)),
        ("used", u64_to_json(t.used)),
        ("reserved", u64_to_json(t.reserved)),
        ("admitted", u64_to_json(t.admitted)),
        ("rejected", u64_to_json(t.rejected)),
        ("settled", u64_to_json(t.settled)),
    ])
}

/// Serializes one worker's counters for the `metrics` / `workers` verbs.
#[must_use]
pub fn worker_to_json(w: &WorkerSnapshot) -> Json {
    Json::obj(vec![
        ("addr", Json::Str(w.addr.clone())),
        ("alive", Json::Bool(w.alive)),
        ("registered", Json::Bool(w.registered)),
        ("dispatched", Json::Int(w.dispatched as i64)),
        ("completed", Json::Int(w.completed as i64)),
        ("retries", Json::Int(w.retries as i64)),
        ("timeouts", Json::Int(w.timeouts as i64)),
        ("evictions", Json::Int(w.evictions as i64)),
        ("mean_rtt_ms", f64_to_json(w.mean_rtt_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use inliner::InlineParams;
    use std::io::BufReader;

    fn frames(input: &[u8]) -> Vec<Frame> {
        let mut reader = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let f = read_frame(&mut reader);
            let eof = matches!(f, Frame::Eof);
            out.push(f);
            if eof {
                return out;
            }
        }
    }

    #[test]
    fn reads_line_frames() {
        let fs = frames(b"{\"cmd\":\"ping\"}\r\n{\"cmd\":\"list\"}\n");
        assert!(matches!(&fs[0], Frame::Line(s) if s == "{\"cmd\":\"ping\"}"));
        assert!(matches!(&fs[1], Frame::Line(s) if s == "{\"cmd\":\"list\"}"));
        assert!(matches!(&fs[2], Frame::Eof));
    }

    #[test]
    fn partial_final_line_still_delivered() {
        let fs = frames(b"{\"cmd\":\"ping\"}");
        assert!(matches!(&fs[0], Frame::Line(s) if s == "{\"cmd\":\"ping\"}"));
    }

    #[test]
    fn oversized_line_is_rejected_not_buffered() {
        let mut input = vec![b'x'; MAX_FRAME_BYTES * 3];
        input.push(b'\n');
        let mut reader = BufReader::new(&input[..]);
        assert!(matches!(read_frame(&mut reader), Frame::Oversized));
    }

    #[test]
    fn request_parsing_wants_cmd() {
        assert!(parse_request("{\"cmd\":\"status\",\"id\":4}").is_ok());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"cmd\":7}").is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn envelopes_have_ok_flags() {
        assert_eq!(ok_with(vec![]).get("ok"), Some(&Json::Bool(true)));
        let e = err("boom");
        assert_eq!(e.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(e.get("error").unwrap().as_str(), Some("boom"));
    }

    #[test]
    fn eval_batch_request_round_trips_losslessly() {
        let evals = vec![
            EvalRequest {
                id: 0,
                genes: vec![i64::MIN, -1, 0, 1, i64::MAX],
            },
            EvalRequest {
                id: 7,
                genes: vec![],
            },
            EvalRequest {
                id: 3,
                genes: vec![42; 64],
            },
        ];
        let frame = eval_batch_request(u64::MAX, &evals);
        // Through the actual wire bytes, not just the Json tree.
        let parsed = crate::json::parse(&frame.to_text()).unwrap();
        assert_eq!(parsed.get("cmd").and_then(Json::as_str), Some("eval_batch"));
        let (id, back) = parse_eval_batch_request(&parsed).unwrap();
        assert_eq!(id, u64::MAX);
        assert_eq!(back, evals);
    }

    #[test]
    fn eval_batch_response_round_trips_bit_exact_fitness() {
        let results = vec![
            (0usize, EvalOutcome::Fitness(0.1 + 0.2)),
            (2, EvalOutcome::Error("genes outside space".into())),
            (1, EvalOutcome::Fitness(f64::INFINITY)),
            (5, EvalOutcome::Fitness(-0.0)),
        ];
        let frame = eval_batch_response(9, &results);
        let parsed = crate::json::parse(&frame.to_text()).unwrap();
        let (id, back) = parse_eval_batch_response(&parsed).unwrap();
        assert_eq!(id, 9);
        assert_eq!(back.len(), results.len());
        for ((ia, oa), (ib, ob)) in results.iter().zip(&back) {
            assert_eq!(ia, ib);
            match (oa, ob) {
                (EvalOutcome::Fitness(a), EvalOutcome::Fitness(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "fitness must survive bit-exactly");
                }
                (EvalOutcome::Error(a), EvalOutcome::Error(b)) => assert_eq!(a, b),
                other => panic!("outcome kind changed in flight: {other:?}"),
            }
        }
    }

    #[test]
    fn eval_batch_error_envelope_is_a_parse_error() {
        assert!(parse_eval_batch_response(&err("no task")).is_err());
        assert!(parse_eval_batch_response(&ok_with(vec![])).is_err());
        let missing_outcome = ok_with(vec![
            ("id", crate::json::u64_to_json(1)),
            (
                "results",
                Json::Arr(vec![Json::obj(vec![("id", Json::Int(0))])]),
            ),
        ]);
        assert!(parse_eval_batch_response(&missing_outcome).is_err());
    }

    #[test]
    fn inline_genomes_keep_their_named_gene_fields() {
        let v = genome_to_json("inline", &InlineParams::jikes_default().to_genes());
        assert_eq!(v.get("genes").unwrap().as_arr().unwrap().len(), 5);
        assert!(v.get("callee_max_size").unwrap().as_i64().is_some());
        assert!(v.get("hot_callee_max_size").unwrap().as_i64().is_some());
    }

    #[test]
    fn other_problems_get_raw_genes_only() {
        let v = genome_to_json("dss", &[0, 2, 1, 4, 3, 0, 0, 2]);
        assert_eq!(v.get("genes").unwrap().as_arr().unwrap().len(), 8);
        assert!(v.get("callee_max_size").is_none());
    }
}
