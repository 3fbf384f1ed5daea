//! Prometheus-style text exposition over HTTP.
//!
//! A deliberately tiny HTTP/1.0 server: the only route is
//! `GET /metrics`, which renders the daemon's observability registry
//! (via [`obs::render_prometheus`]) — the one place every count in the
//! daemon is kept. Anything else is a 404. Requests are served
//! inline on the accept thread — scrapes are rare and the response is
//! a single buffered write, so there is nothing to parallelize. Like
//! every other listener in the workspace, the socket comes from the
//! [`Transport`] seam, so the exporter is scrapeable inside a simulated
//! cluster too.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::daemon::Daemon;
use crate::net::{NetListener, NetStream, TcpTransport, Transport};

/// How long a scrape connection may sit idle before it is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll interval of the accept loop.
const POLL: Duration = Duration::from_millis(50);

/// The full scrape body: one rendering of one registry snapshot. The
/// daemon's own `tuned_*` counters and `tuned_jobs{state=…}` gauges are
/// registry series like any other, so they sort into the registry's
/// order. `tuned_uptime_seconds` alone is written by hand — it is a
/// float, and registry gauges are integers.
#[must_use]
pub fn render_scrape(daemon: &Daemon) -> String {
    let uptime = daemon.metrics_snapshot().uptime_secs;
    obs::render_prometheus(&daemon.obs_snapshot())
        + &format!("# TYPE tuned_uptime_seconds gauge\ntuned_uptime_seconds {uptime:.3}\n")
}

/// The `/metrics` HTTP endpoint. Owns its listener; runs until the
/// stop flag (shared with the daemon's protocol server, typically) is
/// raised.
pub struct MetricsExporter {
    listener: Box<dyn NetListener>,
    daemon: Daemon,
    stop: Arc<AtomicBool>,
}

impl MetricsExporter {
    /// Binds to `addr` over real TCP (use port 0 for an OS-assigned
    /// port).
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind(addr: &str, daemon: Daemon) -> Result<Self, String> {
        Self::bind_on(&TcpTransport::shared(), addr, daemon)
    }

    /// Binds to `addr` over `transport`.
    ///
    /// # Errors
    /// Propagates bind errors.
    pub fn bind_on(
        transport: &Arc<dyn Transport>,
        addr: &str,
        daemon: Daemon,
    ) -> Result<Self, String> {
        let listener = transport
            .bind(addr)
            .map_err(|e| format!("cannot bind metrics {addr}: {e}"))?;
        Ok(Self {
            listener,
            daemon,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound `host:port` (useful after binding port 0).
    #[must_use]
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// A flag that makes [`MetricsExporter::serve`] return when raised.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts and answers scrapes until stopped.
    ///
    /// # Errors
    /// Propagates listener failures.
    pub fn serve(&self) -> Result<(), String> {
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept(POLL) {
                // Scrape handling is quick; keep it on this thread.
                Ok(Some(stream)) => serve_scrape(stream, &self.daemon),
                Ok(None) => {}
                Err(e) => return Err(format!("metrics accept failed: {e}")),
            }
        }
        Ok(())
    }
}

fn serve_scrape(stream: Box<dyn NetStream>, daemon: &Daemon) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers; we answer and close regardless of their content.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let mut writer = std::io::BufWriter::new(write_half);
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && path == "/metrics" {
        let body = render_scrape(daemon);
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let body = "only GET /metrics lives here\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RunDir;
    use crate::daemon::DaemonConfig;
    use std::io::Read;
    use std::net::TcpStream;

    fn http_get(addr: &str, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_endpoint_serves_metrics_and_404s_the_rest() {
        let dir = std::env::temp_dir().join(format!("expo-test-{}", std::process::id()));
        // A registry of its own: the job gauges asserted below are
        // last-writer-wins among daemons sharing the global one.
        let config = DaemonConfig {
            obs: Arc::new(obs::Registry::new()),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(config, RunDir::open(&dir).unwrap()).unwrap();
        daemon.obs().counter("expo_test_counter").add(5);
        let exporter = MetricsExporter::bind("127.0.0.1:0", daemon.clone()).unwrap();
        let addr = exporter.local_addr();
        let stop = exporter.stop_flag();
        let handle = std::thread::spawn(move || exporter.serve().unwrap());

        let ok = http_get(&addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        assert!(ok.contains("expo_test_counter 5\n"), "{ok}");
        assert!(ok.contains("tuned_jobs{state=\"queued\"} 0\n"), "{ok}");
        assert!(ok.contains("\ntuned_uptime_seconds "), "{ok}");

        let missing = http_get(&addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
