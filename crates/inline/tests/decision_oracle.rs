//! Randomized cross-check of the decision procedures against independent
//! oracle transliterations of the paper's Fig. 3 and Fig. 4 pseudo-code,
//! plus end-to-end checks that the *transformer* obeys the decisions it
//! is given. Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use inliner::{hot_decision, static_decision, InlineParams};
use simrng::{cases, Rng};

/// Literal transliteration of Fig. 3 (kept deliberately separate from the
/// library implementation).
fn fig3_oracle(callee: u32, depth: u32, caller: u32, p: &InlineParams) -> bool {
    if callee > p.callee_max_size {
        return false;
    }
    if callee < p.always_inline_size {
        return true;
    }
    if depth > p.max_inline_depth {
        return false;
    }
    if caller > p.caller_max_size {
        return false;
    }
    true
}

/// Literal transliteration of Fig. 4.
fn fig4_oracle(callee: u32, p: &InlineParams) -> bool {
    callee <= p.hot_callee_max_size
}

/// A `u32` in the inclusive range `0..=hi`.
fn upto(rng: &mut Rng, hi: u32) -> u32 {
    rng.below(u64::from(hi) + 1) as u32
}

fn arb_params(rng: &mut Rng) -> InlineParams {
    InlineParams {
        callee_max_size: upto(rng, 80),
        always_inline_size: upto(rng, 50),
        max_inline_depth: upto(rng, 20),
        caller_max_size: upto(rng, 5000),
        hot_callee_max_size: upto(rng, 500),
    }
}

#[test]
fn static_decision_matches_fig3_oracle() {
    cases("static_decision_matches_fig3_oracle", |rng| {
        let params = arb_params(rng);
        let (callee, depth, caller) = (upto(rng, 100), upto(rng, 25), upto(rng, 6000));
        assert_eq!(
            static_decision(callee, depth, caller, &params).is_inline(),
            fig3_oracle(callee, depth, caller, &params),
            "callee={callee} depth={depth} caller={caller} params={params}"
        );
    });
}

#[test]
fn hot_decision_matches_fig4_oracle() {
    cases("hot_decision_matches_fig4_oracle", |rng| {
        let (params, callee) = (arb_params(rng), upto(rng, 600));
        assert_eq!(
            hot_decision(callee, &params).is_inline(),
            fig4_oracle(callee, &params),
            "callee={callee} params={params}"
        );
    });
}

/// The always-inline short-circuit: when the callee is below both
/// ALWAYS_INLINE_SIZE and CALLEE_MAX_SIZE, depth and caller size are
/// irrelevant — a subtle ordering property of the original heuristic.
#[test]
fn always_inline_ignores_depth_and_caller() {
    cases("always_inline_ignores_depth_and_caller", |rng| {
        let (params, frac) = (arb_params(rng), rng.f64());
        let (d1, d2) = (upto(rng, 25), upto(rng, 25));
        let (c1, c2) = (upto(rng, 6000), upto(rng, 6000));
        if params.always_inline_size == 0 {
            return;
        }
        // Construct a callee inside the always-inline band directly.
        let upper = (params.always_inline_size - 1).min(params.callee_max_size);
        let callee = (frac * f64::from(upper + 1)).floor() as u32;
        if callee >= params.always_inline_size || callee > params.callee_max_size {
            return;
        }
        assert!(static_decision(callee, d1, c1, &params).is_inline());
        assert_eq!(
            static_decision(callee, d1, c1, &params),
            static_decision(callee, d2, c2, &params)
        );
    });
}

/// Oversized callees are rejected regardless of everything else —
/// test 1 dominates even the always-inline test.
#[test]
fn callee_cap_dominates() {
    cases("callee_cap_dominates", |rng| {
        let (params, depth, caller) = (arb_params(rng), upto(rng, 25), upto(rng, 6000));
        let callee = params.callee_max_size.saturating_add(1);
        assert!(!static_decision(callee, depth, caller, &params).is_inline());
    });
}
