//! Golden-file test for the Prometheus text exposition.
//!
//! The registry is built deterministically (sorted instrument names, a
//! frozen [`obs::ManualClock`] advanced by hand), so the rendered text
//! must match `golden_metrics.txt` byte for byte. If a deliberate format
//! change breaks this, regenerate the golden by running the test with
//! `OBS_BLESS_GOLDEN=1` and committing the rewritten file.

use std::sync::Arc;

use obs::{labeled, render_prometheus, ManualClock, Registry};

fn golden_registry() -> Registry {
    let clock = Arc::new(ManualClock::new());
    let reg = Registry::with_clock(Arc::clone(&clock) as Arc<dyn obs::Clock>);

    reg.counter("ga_generations").add(3);
    reg.counter(&labeled("dispatch_retries", &[("worker", "a:1")]))
        .add(12);
    reg.counter(&labeled("dispatch_retries", &[("worker", "b:2")]))
        .inc();
    reg.gauge("queue_depth").set(4);
    reg.gauge("queue_depth").add(-2);

    let h = reg.histogram(&labeled("rpc_latency_micros", &[("worker", "a:1")]));
    h.record(0); // first bucket
    h.record(7); // first bucket
    h.record(150); // le="200"
    h.record(99_999_999); // overflow bucket
    reg.histogram("empty_micros"); // registered but never recorded

    clock.advance(250);
    reg
}

#[test]
fn exposition_matches_the_checked_in_golden() {
    let rendered = render_prometheus(&golden_registry().snapshot());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.txt");
    if std::env::var_os("OBS_BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file checked in");
    assert_eq!(
        rendered, golden,
        "exposition format drifted; run with OBS_BLESS_GOLDEN=1 to re-bless"
    );
}
