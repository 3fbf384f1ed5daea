//! Property tests for the batched dispatch layer: the `eval_batch` wire
//! format round-trips losslessly (fitness bits included), the
//! [`served::dispatch::BatchLedger`] never drops or double-scores a
//! genome under arbitrary claim/requeue/resolve interleavings, and the
//! adaptive batch target stays inside `[1, max_inflight]` no matter
//! what the RTT model observes.
//!
//! The same invariants are pinned deterministically by the always-on
//! unit tests in `served::dispatch` (`ledger_resolve_is_exactly_once`,
//! `batch_target_stays_within_bounds_as_the_model_moves`) and
//! `served::proto`'s round-trip tests — this file widens them to
//! seeded random inputs (see `simrng::cases`).

use served::dispatch::{BatchLedger, Worker};
use served::proto::{
    eval_batch_request, eval_batch_response, parse_eval_batch_request, parse_eval_batch_response,
    parse_request, EvalOutcome, EvalRequest,
};
use simrng::{cases, string_of, vec_of, Rng};

fn arb_outcome(rng: &mut Rng) -> EvalOutcome {
    match rng.below(3) {
        // Any bit pattern: normals, subnormals, zeros, infinities, NaNs.
        0 => EvalOutcome::Fitness(f64::from_bits(rng.next_u64())),
        // Assorted NaN payloads.
        1 => EvalOutcome::Fitness(f64::from_bits(
            0x7ff8_0000_0000_0000 | u64::from(rng.next_u32()),
        )),
        _ => {
            let printable: Vec<u8> = (b' '..=b'~').collect();
            EvalOutcome::Error(string_of(rng, &printable, 0, 40))
        }
    }
}

#[test]
fn batch_requests_roundtrip_losslessly() {
    cases("batch_requests_roundtrip_losslessly", |rng| {
        let batch_id = rng.next_u64();
        let evals = vec_of(rng, 0, 15, |r| EvalRequest {
            // The wire carries ids as JSON integers: the i64 range.
            id: (r.next_u64() >> 1) as usize,
            genes: vec_of(r, 0, 7, |r| r.next_u64() as i64),
        });
        let text = eval_batch_request(batch_id, &evals).to_text();
        let (cmd, body) = parse_request(&text).unwrap();
        assert_eq!(cmd, "eval_batch");
        let (back_id, back) = parse_eval_batch_request(&body).unwrap();
        assert_eq!(back_id, batch_id);
        assert_eq!(back, evals);
    });
}

#[test]
fn batch_responses_roundtrip_bit_exactly() {
    cases("batch_responses_roundtrip_bit_exactly", |rng| {
        let batch_id = rng.next_u64();
        let results = vec_of(rng, 0, 15, |r| {
            ((r.next_u64() >> 1) as usize, arb_outcome(r))
        });
        let text = eval_batch_response(batch_id, &results).to_text();
        let parsed = served::json::parse(&text).unwrap();
        let (back_id, back) = parse_eval_batch_response(&parsed).unwrap();
        assert_eq!(back_id, batch_id);
        assert_eq!(back.len(), results.len());
        for ((aid, a), (bid, b)) in back.iter().zip(&results) {
            assert_eq!(aid, bid);
            match (a, b) {
                // JSON spells every NaN "nan": NaN-ness survives, the
                // payload does not; everything else is bit-exact.
                (EvalOutcome::Fitness(x), EvalOutcome::Fitness(y)) if y.is_nan() => {
                    assert!(x.is_nan(), "NaN came back as {x}");
                }
                (EvalOutcome::Fitness(x), EvalOutcome::Fitness(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                (EvalOutcome::Error(x), EvalOutcome::Error(y)) => assert_eq!(x, y),
                (got, want) => panic!("outcome kind flipped: {got:?} vs {want:?}"),
            }
        }
    });
}

/// Arbitrary interleavings of claims, requeues, and (possibly
/// duplicate, possibly conflicting) resolves: every index is
/// committed exactly once, with its first value, and nothing is
/// lost.
#[test]
fn ledger_never_drops_or_double_scores() {
    cases("ledger_never_drops_or_double_scores", |rng| {
        let n = rng.range_usize(1, 23);
        let ops = vec_of(rng, 1, 63, |r| (r.below(3), r.range_usize(1, 7)));
        let ledger = BatchLedger::new(n, 0);
        let mut outstanding: Vec<usize> = Vec::new();
        let mut committed = vec![false; n];
        for (op, arg) in ops {
            match op {
                // Claim up to `arg` indexes.
                0 => outstanding.extend(ledger.claim(arg)),
                // Requeue everything currently claimed-but-unresolved
                // (a worker failure re-dispatching its batch).
                1 => {
                    ledger.requeue(&outstanding);
                    outstanding.clear();
                }
                // Resolve one outstanding index; re-resolving with a
                // different value must report stale and change nothing.
                _ => {
                    if let Some(idx) = outstanding.pop() {
                        let fresh = ledger.resolve(idx, idx as f64);
                        assert_eq!(fresh, !committed[idx]);
                        committed[idx] = true;
                        assert!(!ledger.resolve(idx, -1.0), "duplicate commit accepted");
                    }
                }
            }
        }
        // Drain: whatever is still queued or outstanding resolves once.
        ledger.requeue(&outstanding);
        loop {
            let batch = ledger.claim(4);
            if batch.is_empty() {
                break;
            }
            for idx in batch {
                assert_eq!(ledger.resolve(idx, idx as f64), !committed[idx]);
                committed[idx] = true;
            }
        }
        assert_eq!(ledger.remaining(), 0);
        let results = ledger.into_results();
        assert_eq!(results.len(), n);
        for (idx, r) in results.iter().enumerate() {
            // First value wins: every slot carries idx, never the -1.0
            // a duplicate commit tried to sneak in.
            assert_eq!(*r, Some(idx as f64));
        }
    });
}

/// The adaptive batch target is always a sane claim size, whatever
/// the RTT model has seen — zero RTTs, `u64::MAX` RTTs, handshakes
/// without batches, batches without handshakes.
#[test]
fn batch_target_stays_in_bounds() {
    cases("batch_target_stays_in_bounds", |rng| {
        let max_inflight = rng.range_usize(0, 63);
        let observations = vec_of(rng, 0, 31, |r| {
            let any = r.next_u64();
            let rtt = *r.choose(&[0, 1, any >> 40, any, u64::MAX]);
            (r.chance(0.5), r.range_usize(1, 31) as u64, rtt)
        });
        let worker = Worker::new("w:1".into(), false);
        for (is_handshake, len, rtt) in observations {
            if is_handshake {
                worker.note_handshake_rtt(rtt);
            } else {
                worker.note_batch_rtt(len, rtt);
            }
            let target = worker.batch_target(max_inflight);
            assert!(target >= 1, "target {target} below 1");
            assert!(
                target <= max_inflight.max(1),
                "target {target} above cap {max_inflight}"
            );
        }
    });
}
