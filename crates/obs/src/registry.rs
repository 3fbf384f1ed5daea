//! The process-wide instrument registry.
//!
//! A [`Registry`] owns every counter, gauge, and histogram, keyed by
//! name (optionally with Prometheus-style `{key="value"}` labels baked
//! into the key — see [`labeled`]). Instruments are created on first
//! use; lookups take a short mutex, recording on the returned handle is
//! lock-free. Keys live in `BTreeMap`s so snapshots iterate in sorted
//! order — golden-file tests and JSON diffs stay stable.
//!
//! Components accept an injected `Arc<Registry>` (tests pass one built
//! on a [`ManualClock`](crate::ManualClock)) and default to the shared
//! [`global`] registry, which runs on a wall clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::{Clock, WallClock};
use crate::hist::{HistSnapshot, Histogram};
use crate::span::{SpanCollector, SpanGuard, SpanRecord};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Builds an instrument key with Prometheus-style labels:
/// `labeled("rpc_latency_micros", &[("worker", "10.0.0.1:7001")])` →
/// `rpc_latency_micros{worker="10.0.0.1:7001"}`.
#[must_use]
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// The instrument registry. See the module docs.
pub struct Registry {
    clock: Arc<dyn Clock>,
    /// Opt-in switch for high-frequency instrumentation (per-`measure`
    /// cost-model timings in `jit`). Off by default so the hot path pays
    /// one atomic load, not a histogram insert.
    detailed: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: SpanCollector,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("detailed", &self.detailed())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry on the production wall clock.
    #[must_use]
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// A registry on an injected clock (tests pass a
    /// [`ManualClock`](crate::ManualClock)).
    #[must_use]
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            detailed: AtomicBool::new(false),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: SpanCollector::default(),
        }
    }

    /// The registry's clock reading, microseconds.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Whether detailed (high-frequency) instrumentation is on.
    #[must_use]
    pub fn detailed(&self) -> bool {
        self.detailed.load(Ordering::Relaxed)
    }

    /// Turns detailed instrumentation on or off.
    pub fn set_detailed(&self, on: bool) {
        self.detailed.store(on, Ordering::Relaxed);
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The current value of the counter named `name`, 0 if nothing has
    /// recorded under that name. Unlike [`Registry::counter`], a read
    /// never creates the series — typed views over the registry use it
    /// so that looking at a number does not add a line to the scrape.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self.counters.lock().expect("counter map poisoned");
        map.get(name).map_or(0, |c| c.get())
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    pub(crate) fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Opens a timed span; prefer the [`span!`](crate::span!) macro when
    /// the label should carry `key=value` fields.
    pub fn span(self: &Arc<Self>, name: &str) -> SpanGuard {
        SpanGuard::open(self, name, name.to_string())
    }

    /// Opens a span with an explicit label (what [`span!`](crate::span!)
    /// expands to).
    pub fn span_labeled(self: &Arc<Self>, name: &str, label: String) -> SpanGuard {
        SpanGuard::open(self, name, label)
    }

    /// A point-in-time copy of everything, instruments sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .expect("counter map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: self.spans.snapshot(),
        }
    }
}

/// A plain-data copy of a [`Registry`]'s contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Recently finished spans, oldest first (bounded ring).
    pub spans: Vec<SpanRecord>,
}

impl RegistrySnapshot {
    /// Looks up a counter by exact name; missing counters read as 0.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a histogram by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

/// The shared process-wide registry (wall clock). Components record
/// here unless a test injects its own registry.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_builds_prometheus_style_keys() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("rpc", &[("worker", "a:1"), ("kind", "eval")]),
            "rpc{worker=\"a:1\",kind=\"eval\"}"
        );
    }

    #[test]
    fn instruments_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("hits").inc();
        reg.counter("hits").add(2);
        assert_eq!(reg.counter("hits").get(), 3);
        reg.gauge("depth").set(5);
        reg.gauge("depth").add(-2);
        assert_eq!(reg.gauge("depth").get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        reg.gauge("mid").set(1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn detailed_defaults_off_and_toggles() {
        let reg = Registry::new();
        assert!(!reg.detailed());
        reg.set_detailed(true);
        assert!(reg.detailed());
    }
}
