//! Zero-dependency observability for the tuning stack: hierarchical
//! timed [spans](span!), fixed-bucket latency [histograms](Histogram)
//! with p50/p95/p99, and monotonic [counters](Counter) / [gauges](Gauge)
//! behind a process-wide [`Registry`] — plus a Prometheus text
//! [exposition](render_prometheus).
//!
//! The paper's premise is that you cannot tune what you cannot measure;
//! the same goes for the tuner itself. This crate answers "where does a
//! generation's wall time go?" (eval vs. breed vs. dispatch), "which
//! worker is slow?", and "how often do retries fire?" — without
//! perturbing the search:
//!
//! * **Deterministic-safe.** Recording never touches engine RNG and
//!   never feeds back into decisions, so distributed runs stay
//!   bit-identical to local ones with observability on. Time comes from
//!   an injected [`Clock`]: production uses [`WallClock`], tests use
//!   [`ManualClock`] so counter *and histogram* assertions are exact.
//! * **Cheap.** Recording is an atomic add; instrument lookup is a short
//!   mutex on a `BTreeMap`. What it costs a real job is the
//!   benchmark's `trace.overhead_pct` row (per call: `obs.counter_ns`,
//!   `obs.hist_record_ns`, `obs.span_ns`; see `benchmark/README.md`).
//! * **Shared vocabulary.** Keys carry Prometheus-style labels
//!   ([`labeled`]), so one registry serves the `tuned` protocol's `obs`
//!   verb (JSON), the `/metrics` endpoint (text exposition), and
//!   enriched `watch` frames.

pub mod calib;
pub mod clock;
pub mod expo;
pub mod hist;
pub mod registry;
pub mod span;

pub use calib::{calibrate, CalibrationBaseline};
pub use clock::{Clock, ManualClock, WallClock};
pub use expo::render_prometheus;
pub use hist::{HistSnapshot, Histogram, BOUNDS, NUM_BUCKETS};
pub use registry::{global, labeled, Counter, Gauge, Registry, RegistrySnapshot};
pub use span::{SpanGuard, SpanRecord, SPAN_RING_CAPACITY};
