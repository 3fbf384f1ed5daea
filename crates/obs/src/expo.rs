//! Prometheus text exposition (format version 0.0.4).
//!
//! Renders a [`RegistrySnapshot`] as the plain-text format Prometheus
//! scrapes: one `# TYPE` header per metric family, `_bucket`/`_sum`/
//! `_count` series for histograms with cumulative `le` buckets, and the
//! instrument key's baked-in `{key="value"}` labels carried through.
//! Output order is fully determined by the snapshot's sorted names, so
//! the format is golden-file testable.

use crate::hist::{HistSnapshot, BOUNDS};
use crate::registry::RegistrySnapshot;

/// Splits an instrument key into `(family, labels)`:
/// `rpc_micros{worker="a:1"}` → `("rpc_micros", "worker=\"a:1\"")`.
fn split_key(key: &str) -> (String, &str) {
    match key.split_once('{') {
        Some((base, rest)) => (sanitize(base), rest.trim_end_matches('}')),
        None => (sanitize(key), ""),
    }
}

/// Maps a name into the Prometheus metric-name alphabet.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// One series line: name, optional labels, value.
fn series(out: &mut String, family: &str, suffix: &str, labels: &str, value: &str) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// A `# TYPE` header, emitted once per family.
fn type_header(out: &mut String, last: &mut String, family: &str, kind: &str) {
    if last != family {
        out.push_str("# TYPE ");
        out.push_str(family);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        last.clear();
        last.push_str(family);
    }
}

fn render_histogram(out: &mut String, family: &str, labels: &str, h: &HistSnapshot) {
    let mut cumulative = 0u64;
    for (i, &bound) in BOUNDS.iter().enumerate() {
        cumulative += h.counts.get(i).copied().unwrap_or(0);
        let with_le = if labels.is_empty() {
            format!("le=\"{bound}\"")
        } else {
            format!("{labels},le=\"{bound}\"")
        };
        series(out, family, "_bucket", &with_le, &cumulative.to_string());
    }
    let inf = if labels.is_empty() {
        "le=\"+Inf\"".to_string()
    } else {
        format!("{labels},le=\"+Inf\"")
    };
    series(out, family, "_bucket", &inf, &h.total.to_string());
    series(out, family, "_sum", labels, &h.sum.to_string());
    series(out, family, "_count", labels, &h.total.to_string());
}

/// Renders the whole snapshot. Spans are not exposed here (rings of
/// events are not a Prometheus concept); their aggregate timings appear
/// via the `span_micros` histograms.
#[must_use]
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (key, value) in &snap.counters {
        let (family, labels) = split_key(key);
        type_header(&mut out, &mut last_family, &family, "counter");
        series(&mut out, &family, "", labels, &value.to_string());
    }
    last_family.clear();
    for (key, value) in &snap.gauges {
        let (family, labels) = split_key(key);
        type_header(&mut out, &mut last_family, &family, "gauge");
        series(&mut out, &family, "", labels, &value.to_string());
    }
    last_family.clear();
    for (key, h) in &snap.histograms {
        let (family, labels) = split_key(key);
        type_header(&mut out, &mut last_family, &family, "histogram");
        render_histogram(&mut out, &family, labels, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{labeled, Registry};

    #[test]
    fn type_header_appears_once_per_family() {
        let reg = Registry::new();
        reg.counter(&labeled("retries", &[("worker", "a:1")])).inc();
        reg.counter(&labeled("retries", &[("worker", "b:2")]))
            .add(2);
        let text = render_prometheus(&reg.snapshot());
        assert_eq!(text.matches("# TYPE retries counter").count(), 1);
        assert!(text.contains("retries{worker=\"a:1\"} 1\n"));
        assert!(text.contains("retries{worker=\"b:2\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(5); // bucket le=10
        h.record(15); // bucket le=20
        h.record(99_999_999); // overflow
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("lat_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"20\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"10000000\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 100000019\n"));
        assert!(text.contains("lat_count 3\n"));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize("7up"), "_7up");
    }
}
