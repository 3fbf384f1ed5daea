//! Property-based tests: the inlining transformation is semantics-preserving
//! and structurally sound on arbitrary random programs and arbitrary
//! in-range parameter vectors. Seeded case loops (`simrng::cases`), so
//! they run in plain `cargo test`.

use inliner::{inline_program, HotSites, InlineParams};
use ir::interp::{run, InterpLimits};
use ir::method::MethodId;
use ir::size::method_size;
use ir::testgen::{random_program, GenConfig};
use ir::validate::validate;
use simrng::{cases, Rng};

fn limits() -> InterpLimits {
    InterpLimits {
        fuel: 5_000_000,
        max_depth: 64,
    }
}

fn all_ids(p: &ir::Program) -> Vec<MethodId> {
    p.methods.iter().map(|m| m.id).collect()
}

/// A `u32` in the half-open range `lo..hi`.
fn u32_in(rng: &mut Rng, lo: u32, hi: u32) -> u32 {
    lo + rng.below(u64::from(hi - lo)) as u32
}

/// An arbitrary parameter vector spanning (and slightly exceeding) the
/// Table 1 ranges, including the degenerate all-zero point.
fn arb_params(rng: &mut Rng) -> InlineParams {
    InlineParams {
        callee_max_size: u32_in(rng, 0, 80),
        always_inline_size: u32_in(rng, 0, 45),
        max_inline_depth: u32_in(rng, 0, 20),
        caller_max_size: u32_in(rng, 0, 6000),
        hot_callee_max_size: u32_in(rng, 0, 600),
    }
}

fn arb_cfg(rng: &mut Rng) -> GenConfig {
    GenConfig {
        n_methods: u32_in(rng, 2, 12),
        max_block_stmts: u32_in(rng, 2, 7),
        max_nesting: u32_in(rng, 1, 4),
        max_trips: u32_in(rng, 1, 6),
        max_params: 3,
        call_prob: rng.f64_range(0.1, 0.5),
        block_prob: 0.25,
        branches: true,
    }
}

/// The headline invariant: for any program, any parameters, and any hot
/// set, inlining preserves the return value, the heap contents, and the
/// semantic-step count.
fn preserves_semantics(seed: u64, params: &InlineParams, cfg: &GenConfig, hot_frac: f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let p = random_program(&mut rng, cfg);
    // Mark a random subset of sites hot.
    let mut hot = HotSites::new();
    for m in &p.methods {
        for c in ir::stmt::call_sites(&m.body) {
            if rng.chance(hot_frac) {
                hot.insert(c.site);
            }
        }
    }
    // Random DAGs can have exponential call amplification; discard
    // cases the baseline cannot run within the fuel budget (fuel use is
    // invariant under inlining, so keeping them would test nothing new).
    let Ok(before) = run(&p, &[], &limits()) else {
        return;
    };
    let (q, _) = inline_program(&p, params, &hot, &all_ids(&p));
    assert!(
        validate(&q).is_empty(),
        "inlined program invalid: {:?}",
        validate(&q)
    );
    let after = run(&q, &[], &limits()).expect("inlined program terminates");
    assert_eq!(before.value, after.value);
    assert_eq!(before.heap_digest, after.heap_digest);
    assert_eq!(before.fuel_used, after.fuel_used);
    // Inlining can only remove dynamic calls, never add them.
    assert!(after.calls_executed <= before.calls_executed);
}

#[test]
fn inlining_preserves_semantics() {
    cases("inlining_preserves_semantics", |rng| {
        let (seed, params, cfg) = (rng.next_u64(), arb_params(rng), arb_cfg(rng));
        preserves_semantics(seed, &params, &cfg, rng.f64());
    });
}

/// Inlining never shrinks a method's estimated size below the original
/// when something was inlined, and leaves it bit-identical when nothing
/// was.
#[test]
fn size_monotonicity() {
    cases("size_monotonicity", |rng| {
        let (seed, params) = (rng.next_u64(), arb_params(rng));
        let p = random_program(&mut Rng::seed_from_u64(seed), &GenConfig::default());
        let (q, stats) = inline_program(&p, &params, &HotSites::new(), &all_ids(&p));
        for (orig, new) in p.methods.iter().zip(&q.methods) {
            let st = stats[&orig.id];
            if st.inlined == 0 {
                assert_eq!(orig, new);
            } else {
                // A splice replaces a call (≥ 5 units) with a body plus
                // plumbing; bodies below ALWAYS_INLINE_SIZE can be smaller
                // than the call they replace, so sizes may shrink — but the
                // stats' achieved size must match the real method size.
                assert_eq!(st.final_size, method_size(new));
            }
        }
    });
}

/// Inlining with the disabled parameter vector is the identity.
fn disabled_leaves_program_alone(seed: u64) {
    let p = random_program(&mut Rng::seed_from_u64(seed), &GenConfig::default());
    let (q, _) = inline_program(
        &p,
        &InlineParams::disabled(),
        &HotSites::new(),
        &all_ids(&p),
    );
    assert_eq!(p, q);
}

#[test]
fn disabled_is_identity() {
    cases("disabled_is_identity", |rng| {
        disabled_leaves_program_alone(rng.next_u64());
    });
}

/// The transformation is deterministic.
#[test]
fn transform_is_deterministic() {
    cases("transform_is_deterministic", |rng| {
        let (seed, params) = (rng.next_u64(), arb_params(rng));
        let p = random_program(&mut Rng::seed_from_u64(seed), &GenConfig::default());
        let (q1, s1) = inline_program(&p, &params, &HotSites::new(), &all_ids(&p));
        let (q2, s2) = inline_program(&p, &params, &HotSites::new(), &all_ids(&p));
        assert_eq!(q1, q2);
        assert_eq!(s1, s2);
    });
}

/// Raising every threshold can only inline at least as many sites at
/// the top level of each method (monotonicity of the *first-level*
/// decision; deeper totals can vary because splices change caller size).
fn permissive_runs_no_more_calls(seed: u64) {
    let p = random_program(&mut Rng::seed_from_u64(seed), &GenConfig::default());
    let tight = InlineParams {
        callee_max_size: 10,
        always_inline_size: 3,
        max_inline_depth: 1,
        caller_max_size: 100_000,
        hot_callee_max_size: 0,
    };
    let loose = InlineParams {
        callee_max_size: 100_000,
        always_inline_size: 100_000,
        max_inline_depth: 50,
        caller_max_size: 100_000,
        hot_callee_max_size: 0,
    };
    if run(&p, &[], &limits()).is_err() {
        return;
    }
    let (qt, _) = inline_program(&p, &tight, &HotSites::new(), &all_ids(&p));
    let (ql, _) = inline_program(&p, &loose, &HotSites::new(), &all_ids(&p));
    let rt = run(&qt, &[], &limits()).unwrap();
    let rl = run(&ql, &[], &limits()).unwrap();
    // `loose` always-inlines everything non-recursive, so it executes
    // no more dynamic calls than `tight`.
    assert!(rl.calls_executed <= rt.calls_executed);
}

#[test]
fn more_permissive_params_inline_no_fewer_calls_dynamically() {
    cases(
        "more_permissive_params_inline_no_fewer_calls_dynamically",
        |rng| permissive_runs_no_more_calls(rng.next_u64()),
    );
}

/// The two inputs proptest once shrank a failure to (the retired
/// `prop_inline.proptest-regressions`), replayed on every run.
#[test]
fn past_failures_stay_fixed() {
    preserves_semantics(
        2020400315651711663,
        &InlineParams {
            callee_max_size: 0,
            always_inline_size: 0,
            max_inline_depth: 0,
            caller_max_size: 0,
            hot_callee_max_size: 45,
        },
        &GenConfig {
            n_methods: 5,
            max_block_stmts: 4,
            max_nesting: 3,
            max_trips: 1,
            max_params: 3,
            call_prob: 0.28122215862058886,
            block_prob: 0.25,
            branches: true,
        },
        0.6852917358064877,
    );
    // Recorded with the seed alone, so against every seed-only property.
    disabled_leaves_program_alone(13882560108971127902);
    permissive_runs_no_more_calls(13882560108971127902);
}
