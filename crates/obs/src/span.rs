//! Hierarchical timed spans.
//!
//! A span measures one region of code. Spans nest per thread: opening
//! `"eval"` inside `"generation"` yields the path `generation/eval`, so
//! a flame-style breakdown falls out of the recorded paths without any
//! explicit parent bookkeeping. On drop, a span writes one
//! [`SpanRecord`] into the registry's bounded ring buffer *and* one
//! sample into the `span_micros{span="<path>"}` histogram — the ring
//! gives recent-event forensics, the histogram gives cheap aggregates
//! forever.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::registry::Registry;

/// How many finished spans the ring buffer retains.
pub const SPAN_RING_CAPACITY: usize = 1024;

thread_local! {
    /// The names of the spans currently open on this thread, outermost
    /// first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The `/`-joined nesting path, e.g. `generation/eval`.
    pub path: String,
    /// The span's label: its name plus any `key=value` pairs from the
    /// [`span!`](crate::span!) macro.
    pub label: String,
    /// Clock reading at span start, microseconds.
    pub start_micros: u64,
    /// Span duration, microseconds.
    pub dur_micros: u64,
}

/// The registry's bounded buffer of recently finished spans.
#[derive(Debug, Default)]
pub(crate) struct SpanCollector {
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl SpanCollector {
    pub(crate) fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().expect("span ring poisoned");
        if ring.len() == SPAN_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .expect("span ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// An open span; recording happens when it drops. Hold it with
/// `let _guard = ...` — binding to `_` drops immediately and records a
/// zero-width span.
#[must_use = "a span records when dropped; binding to _ ends it immediately"]
pub struct SpanGuard {
    reg: Arc<Registry>,
    path: String,
    label: String,
    start: u64,
}

impl SpanGuard {
    pub(crate) fn open(reg: &Arc<Registry>, name: &str, label: String) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.to_string()
            } else {
                format!("{}/{name}", stack.join("/"))
            };
            stack.push(name.to_string());
            path
        });
        Self {
            reg: Arc::clone(reg),
            path,
            label,
            start: reg.now_micros(),
        }
    }

    /// Backdates the span to `start_micros`, a reading the caller took
    /// from the same registry's clock — for a region that began before
    /// its recorder could hold a guard (a GA generation's evaluation
    /// runs in the driver, between the engine's `ask` and `tell`).
    pub fn since(mut self, start_micros: u64) -> Self {
        self.start = start_micros;
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let reg = &self.reg;
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur = reg.now_micros().saturating_sub(self.start);
        reg.histogram(&format!("span_micros{{span=\"{}\"}}", self.path))
            .record(dur);
        reg.spans().push(SpanRecord {
            path: std::mem::take(&mut self.path),
            label: std::mem::take(&mut self.label),
            start_micros: self.start,
            dur_micros: dur,
        });
    }
}

/// Opens a timed span on a registry: `span!(reg, "generation", gen = 3)`.
/// Extra `key = value` pairs go into the span's label (the value is
/// rendered with `Display`); the hierarchy path uses only the name.
#[macro_export]
macro_rules! span {
    ($reg:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut label = ::std::string::String::from($name);
        $(
            label.push(' ');
            label.push_str(::std::stringify!($key));
            label.push('=');
            label.push_str(&::std::format!("{}", $val));
        )*
        $crate::Registry::span_labeled(&$reg, $name, label)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_registry() -> (Arc<Registry>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let reg = Arc::new(Registry::with_clock(Arc::clone(&clock) as _));
        (reg, clock)
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let (reg, clock) = manual_registry();
        {
            let _outer = reg.span("generation");
            clock.advance(100);
            {
                let _inner = reg.span("eval");
                clock.advance(40);
            }
        }
        let spans = reg.snapshot().spans;
        assert_eq!(spans.len(), 2, "inner drops first, then outer");
        assert_eq!(spans[0].path, "generation/eval");
        assert_eq!(spans[0].start_micros, 100);
        assert_eq!(spans[0].dur_micros, 40);
        assert_eq!(spans[1].path, "generation");
        assert_eq!(spans[1].dur_micros, 140);
    }

    #[test]
    fn backdated_span_measures_from_the_given_start() {
        let (reg, clock) = manual_registry();
        let began = reg.now_micros();
        clock.advance(70);
        drop(reg.span("eval").since(began));
        let spans = reg.snapshot().spans;
        assert_eq!(spans[0].start_micros, 0);
        assert_eq!(spans[0].dur_micros, 70);
    }

    #[test]
    fn span_macro_labels_carry_fields() {
        let (reg, _clock) = manual_registry();
        {
            let _g = crate::span!(reg, "generation", gen = 3, pop = 50);
        }
        let spans = reg.snapshot().spans;
        assert_eq!(spans[0].label, "generation gen=3 pop=50");
        assert_eq!(spans[0].path, "generation");
    }

    #[test]
    fn spans_feed_the_span_micros_histogram() {
        let (reg, clock) = manual_registry();
        for _ in 0..3 {
            let _g = reg.span("tick");
            clock.advance(15);
        }
        let h = reg.histogram("span_micros{span=\"tick\"}").snapshot();
        assert_eq!(h.total, 3);
        assert_eq!(h.sum, 45);
        assert_eq!(h.counts[1], 3, "15µs lands in the (10, 20] bucket");
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let (reg, _clock) = manual_registry();
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            let _g = reg.span("s");
        }
        assert_eq!(reg.snapshot().spans.len(), SPAN_RING_CAPACITY);
    }
}
