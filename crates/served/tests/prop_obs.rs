//! Property tests: the `obs` verb's registry JSON survives a round trip
//! through the hand-rolled JSON layer losslessly, on seeded random
//! registries (see `simrng::cases`).

use std::sync::Arc;

use served::proto::{registry_from_json, registry_to_json};
use simrng::{cases, string_of, vec_of, Rng};

/// A registry snapshot built by *recording* arbitrary activity — the
/// only way production snapshots come to exist — rather than by
/// constructing the struct freehand.
fn arb_snapshot(rng: &mut Rng) -> obs::RegistrySnapshot {
    let reg = Arc::new(obs::Registry::with_clock(Arc::new(obs::ManualClock::new())));
    for _ in 0..rng.range_usize(0, 7) {
        reg.counter(&string_of(rng, b"abcxyz_", 1, 12))
            .add(rng.next_u64());
    }
    for _ in 0..rng.range_usize(0, 7) {
        reg.gauge(&string_of(rng, b"abcxyz_", 1, 12))
            .add(rng.next_u64() as i64);
    }
    for _ in 0..rng.range_usize(0, 3) {
        let h = reg.histogram(&string_of(rng, b"abcxyz_", 1, 12));
        // Every magnitude, so every bucket gets traffic.
        for sample in vec_of(rng, 0, 31, |r| r.next_u64() >> r.below(64)) {
            h.record(sample);
        }
    }
    for _ in 0..rng.range_usize(0, 5) {
        drop(reg.span(&string_of(rng, b"abcxyz/", 1, 16)));
    }
    reg.snapshot()
}

#[test]
fn registry_json_roundtrips_losslessly() {
    cases("registry_json_roundtrips_losslessly", |rng| {
        let snap = arb_snapshot(rng);
        let text = registry_to_json(&snap).to_text();
        let parsed = served::json::parse(&text).unwrap();
        assert_eq!(registry_from_json(&parsed), Ok(snap));
    });
}

#[test]
fn extreme_u64_counters_survive_the_wire() {
    cases("extreme_u64_counters_survive_the_wire", |rng| {
        let any = rng.next_u64();
        let v = *rng.choose(&[0, 1, (1 << 53) + 1, any, u64::MAX]);
        let reg = obs::Registry::new();
        reg.counter("c").add(v);
        let snap = reg.snapshot();
        let text = registry_to_json(&snap).to_text();
        let back = registry_from_json(&served::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.counter("c"), v);
    });
}
