//! A small blocking client for the `tuned` protocol.

use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Duration;

use crate::job::JobSpec;
use crate::json::Json;
use crate::net::{NetStream, TcpTransport, Transport};
use crate::proto::{read_frame, write_frame, Frame};

/// How long a [`Client::connect`] attempt may take.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A connected client. One request/response at a time.
pub struct Client {
    reader: BufReader<Box<dyn NetStream>>,
    writer: BufWriter<Box<dyn NetStream>>,
}

impl Client {
    /// Connects to a daemon over real TCP.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Self, String> {
        Self::connect_on(&TcpTransport::shared(), addr)
    }

    /// Connects to a daemon over `transport` (tests pass a
    /// `sim::SimTransport`; production code uses [`Client::connect`]).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect_on(transport: &Arc<dyn Transport>, addr: &str) -> Result<Self, String> {
        let stream = transport
            .connect(addr, CONNECT_TIMEOUT)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let write_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Sets the read timeout for responses (`None` = block forever).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), String> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| format!("cannot set timeout: {e}"))
    }

    /// Sends one request object and reads one response frame.
    ///
    /// # Errors
    /// I/O failures, a dropped connection, or an unparseable response.
    pub fn request(&mut self, v: &Json) -> Result<Json, String> {
        write_frame(&mut self.writer, v).map_err(|e| format!("send failed: {e}"))?;
        self.read_response()
    }

    /// Reads the next response frame (for streamed `watch` updates).
    ///
    /// # Errors
    /// I/O failures or an unparseable frame.
    pub fn read_response(&mut self) -> Result<Json, String> {
        match read_frame(&mut self.reader) {
            Frame::Line(line) => crate::json::parse(&line),
            Frame::Eof => Err("connection closed".into()),
            Frame::Oversized => Err("oversized response".into()),
            Frame::Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends a request and unwraps the `{"ok":true}` envelope.
    ///
    /// # Errors
    /// Transport failures or an `ok:false` response (returns its
    /// `error` message).
    pub fn call(&mut self, v: &Json) -> Result<Json, String> {
        let resp = self.request(v)?;
        unwrap_ok(resp)
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    /// Transport or daemon-side rejection.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, String> {
        let resp = self.call(&Json::obj(vec![
            ("cmd", Json::Str("submit".into())),
            ("job", spec.to_json()),
        ]))?;
        resp.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "submit response missing 'id'".into())
    }

    /// Fetches one job record.
    ///
    /// # Errors
    /// Transport failure or unknown job.
    pub fn status(&mut self, id: u64) -> Result<Json, String> {
        let resp = self.call(&Json::obj(vec![
            ("cmd", Json::Str("status".into())),
            ("id", Json::Int(id as i64)),
        ]))?;
        resp.get("job")
            .cloned()
            .ok_or_else(|| "status response missing 'job'".into())
    }

    /// Fetches every job record.
    ///
    /// # Errors
    /// Transport failure.
    pub fn list(&mut self) -> Result<Vec<Json>, String> {
        let resp = self.call(&Json::obj(vec![("cmd", Json::Str("list".into()))]))?;
        Ok(resp
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    }

    /// Cancels a job; returns the state it was in.
    ///
    /// # Errors
    /// Transport failure or unknown job.
    pub fn cancel(&mut self, id: u64) -> Result<String, String> {
        let resp = self.call(&Json::obj(vec![
            ("cmd", Json::Str("cancel".into())),
            ("id", Json::Int(id as i64)),
        ]))?;
        Ok(resp
            .get("was")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string())
    }

    /// Fetches the metrics snapshot.
    ///
    /// # Errors
    /// Transport failure.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj(vec![("cmd", Json::Str("metrics".into()))]))?;
        resp.get("metrics")
            .cloned()
            .ok_or_else(|| "metrics response missing 'metrics'".into())
    }

    /// Fetches every tenant's quota accounting rows.
    ///
    /// # Errors
    /// Transport failure.
    pub fn tenants(&mut self) -> Result<Vec<Json>, String> {
        let resp = self.call(&Json::obj(vec![("cmd", Json::Str("tenants".into()))]))?;
        Ok(resp
            .get("tenants")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    }

    /// Fetches the full observability registry (counters, gauges,
    /// histograms, recent spans) as JSON. Decode with
    /// [`crate::proto::registry_from_json`].
    ///
    /// # Errors
    /// Transport failure.
    pub fn obs(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj(vec![("cmd", Json::Str("obs".into()))]))?;
        resp.get("obs")
            .cloned()
            .ok_or_else(|| "obs response missing 'obs'".into())
    }

    /// Fetches the persistent fitness store's stats object.
    ///
    /// # Errors
    /// Transport failure or no store configured.
    pub fn store_stats(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj(vec![
            ("cmd", Json::Str("store".into())),
            ("op", Json::Str("stats".into())),
        ]))?;
        resp.get("stats")
            .cloned()
            .ok_or_else(|| "store response missing 'stats'".into())
    }

    /// Triggers a store compaction; returns the compaction report.
    ///
    /// # Errors
    /// Transport failure, no store configured, or compaction I/O error.
    pub fn store_compact(&mut self) -> Result<Json, String> {
        let resp = self.call(&Json::obj(vec![
            ("cmd", Json::Str("store".into())),
            ("op", Json::Str("compact".into())),
        ]))?;
        resp.get("compaction")
            .cloned()
            .ok_or_else(|| "store response missing 'compaction'".into())
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    /// Transport failure.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(&Json::obj(vec![("cmd", Json::Str("shutdown".into()))]))?;
        Ok(())
    }

    /// Streams a job to completion, invoking `on_update` per update, and
    /// returns the terminal record.
    ///
    /// # Errors
    /// Transport failure or unknown job.
    pub fn watch(&mut self, id: u64, mut on_update: impl FnMut(&Json)) -> Result<Json, String> {
        write_frame(
            &mut self.writer,
            &Json::obj(vec![
                ("cmd", Json::Str("watch".into())),
                ("id", Json::Int(id as i64)),
            ]),
        )
        .map_err(|e| format!("send failed: {e}"))?;
        let mut last = Json::Null;
        loop {
            let frame = match self.read_response() {
                Ok(f) => f,
                // The server closes the connection after the terminal
                // frame; whatever we saw last is the answer.
                Err(_) if last != Json::Null => return Ok(last),
                Err(e) => return Err(e),
            };
            let job = unwrap_ok(frame)?
                .get("job")
                .cloned()
                .ok_or("watch frame missing 'job'")?;
            on_update(&job);
            let terminal = job
                .get("state")
                .and_then(Json::as_str)
                .is_some_and(|s| matches!(s, "done" | "failed" | "canceled"));
            last = job;
            if terminal {
                return Ok(last);
            }
        }
    }
}

fn unwrap_ok(resp: Json) -> Result<Json, String> {
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(resp);
    }
    let msg = resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("daemon returned ok:false")
        .to_string();
    // Structured busy frames keep their machine-readable reason in the
    // message so CLI users see "shard 0 queue full ... (busy: queue_full)".
    match resp.get("reason").and_then(Json::as_str) {
        Some(reason) if resp.get("busy").and_then(Json::as_bool) == Some(true) => {
            Err(format!("{msg} (busy: {reason})"))
        }
        _ => Err(msg),
    }
}
