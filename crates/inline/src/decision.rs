//! The inlining decision procedures, transcribed from the paper.
//!
//! [`static_decision`] is Fig. 3 ("Optimizing Inlining Heuristic"):
//!
//! ```text
//! inliningHeuristic(calleeSize, inlineDepth, callerSize)
//!   if (calleeSize > CALLEE_MAX_SIZE)      return NO;
//!   if (calleeSize < ALWAYS_INLINE_SIZE)   return YES;
//!   if (inlineDepth > MAX_INLINE_DEPTH)    return NO;
//!   if (callerSize > CALLER_MAX_SIZE)      return NO;
//!   return YES;
//! ```
//!
//! [`hot_decision`] is Fig. 4 ("Adaptive Inlining Heuristic"), used for
//! profile-identified hot call sites during adaptive recompilation:
//!
//! ```text
//! inlineHotCallSite(calleeSize)
//!   if (calleeSize > HOT_CALLEE_MAX_SIZE)  return NO;
//!   return YES;
//! ```
//!
//! The test order matters: a tiny callee is always inlined *even at depths
//! beyond `MAX_INLINE_DEPTH` or into oversized callers*, because the
//! always-inline test precedes those tests — a subtlety of the original
//! heuristic that our truth-table tests pin down.

use crate::params::InlineParams;

/// Why a call site was not inlined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Fig. 3 test 1: callee bigger than `CALLEE_MAX_SIZE`.
    CalleeTooBig,
    /// Fig. 3 test 3: inline depth beyond `MAX_INLINE_DEPTH`.
    TooDeep,
    /// Fig. 3 test 4: caller grew beyond `CALLER_MAX_SIZE`.
    CallerTooBig,
    /// Fig. 4: hot callee bigger than `HOT_CALLEE_MAX_SIZE`.
    HotCalleeTooBig,
    /// Inline-stack guard: the callee is already being inlined along this
    /// chain (direct or mutual recursion).
    Recursive,
    /// Machine limit: inlining would overflow the caller's register frame.
    FrameLimit,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::CalleeTooBig => "callee exceeds CALLEE_MAX_SIZE",
            RejectReason::TooDeep => "depth exceeds MAX_INLINE_DEPTH",
            RejectReason::CallerTooBig => "caller exceeds CALLER_MAX_SIZE",
            RejectReason::HotCalleeTooBig => "hot callee exceeds HOT_CALLEE_MAX_SIZE",
            RejectReason::Recursive => "recursive call chain",
            RejectReason::FrameLimit => "register frame limit",
        };
        f.write_str(s)
    }
}

/// Outcome of a decision procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InlineDecision {
    /// Inline, because the callee was below `ALWAYS_INLINE_SIZE`.
    YesAlways,
    /// Inline, because all tests passed.
    Yes,
    /// Do not inline.
    No(RejectReason),
}

impl InlineDecision {
    /// Whether the decision is to inline.
    #[must_use]
    pub fn is_inline(self) -> bool {
        matches!(self, InlineDecision::Yes | InlineDecision::YesAlways)
    }
}

/// The box of parameter vectors that answer a sequence of threshold tests
/// identically: `lo[i] ≤ gene[i] ≤ hi[i]` in [`crate::PARAM_NAMES`] order.
///
/// Every test of Fig. 3 / Fig. 4 compares one observed value against one
/// threshold, so each outcome confines that threshold to a half-line;
/// the decision procedures intersect those half-lines as they go. Any
/// parameter vector inside the box therefore takes the same branch at
/// every test that narrowed it. Since what the inliner observes next
/// (sizes, depths, the recursion stack, the frame) depends only on the
/// decisions taken so far, two vectors in one box inline a method
/// identically — and the boxes of one method are identical or disjoint,
/// because every vector of a box records that very box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionRegion {
    /// Inclusive lower bound per gene.
    pub lo: [u32; 5],
    /// Inclusive upper bound per gene.
    pub hi: [u32; 5],
}

impl DecisionRegion {
    /// The whole parameter space: no test has been made yet.
    #[must_use]
    pub fn all() -> Self {
        Self {
            lo: [0; 5],
            hi: [u32::MAX; 5],
        }
    }

    /// Whether `params` lies inside the box.
    #[must_use]
    pub fn contains(&self, params: &InlineParams) -> bool {
        let genes = [
            params.callee_max_size,
            params.always_inline_size,
            params.max_inline_depth,
            params.caller_max_size,
            params.hot_callee_max_size,
        ];
        (0..5).all(|i| self.lo[i] <= genes[i] && genes[i] <= self.hi[i])
    }

    /// Evaluates `value > threshold` and confines gene `gene` (whose value
    /// `threshold` is) to the thresholds that answer the same.
    fn exceeds(&mut self, gene: usize, value: u32, threshold: u32) -> bool {
        if value > threshold {
            self.hi[gene] = self.hi[gene].min(value - 1);
            true
        } else {
            self.lo[gene] = self.lo[gene].max(value);
            false
        }
    }

    /// Evaluates `value < threshold`, confining gene `gene` likewise.
    fn below(&mut self, gene: usize, value: u32, threshold: u32) -> bool {
        if value < threshold {
            self.lo[gene] = self.lo[gene].max(value + 1);
            true
        } else {
            self.hi[gene] = self.hi[gene].min(value);
            false
        }
    }
}

/// Fig. 3: the optimizing-compiler heuristic.
///
/// `inline_depth` is the number of inlining steps already taken at this
/// call site (0 for a call site in the original method body).
#[must_use]
pub fn static_decision(
    callee_size: u32,
    inline_depth: u32,
    caller_size: u32,
    params: &InlineParams,
) -> InlineDecision {
    static_decision_in(
        callee_size,
        inline_depth,
        caller_size,
        params,
        &mut DecisionRegion::all(),
    )
}

/// [`static_decision`], narrowing `region` by every test it makes.
#[must_use]
pub fn static_decision_in(
    callee_size: u32,
    inline_depth: u32,
    caller_size: u32,
    params: &InlineParams,
    region: &mut DecisionRegion,
) -> InlineDecision {
    if region.exceeds(0, callee_size, params.callee_max_size) {
        return InlineDecision::No(RejectReason::CalleeTooBig);
    }
    if region.below(1, callee_size, params.always_inline_size) {
        return InlineDecision::YesAlways;
    }
    if region.exceeds(2, inline_depth, params.max_inline_depth) {
        return InlineDecision::No(RejectReason::TooDeep);
    }
    if region.exceeds(3, caller_size, params.caller_max_size) {
        return InlineDecision::No(RejectReason::CallerTooBig);
    }
    InlineDecision::Yes
}

/// Fig. 4: the adaptive hot-call-site heuristic.
#[must_use]
pub fn hot_decision(callee_size: u32, params: &InlineParams) -> InlineDecision {
    hot_decision_in(callee_size, params, &mut DecisionRegion::all())
}

/// [`hot_decision`], narrowing `region` by the test it makes.
#[must_use]
pub fn hot_decision_in(
    callee_size: u32,
    params: &InlineParams,
    region: &mut DecisionRegion,
) -> InlineDecision {
    if region.exceeds(4, callee_size, params.hot_callee_max_size) {
        return InlineDecision::No(RejectReason::HotCalleeTooBig);
    }
    InlineDecision::Yes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> InlineParams {
        InlineParams {
            callee_max_size: 23,
            always_inline_size: 11,
            max_inline_depth: 5,
            caller_max_size: 2048,
            hot_callee_max_size: 135,
        }
    }

    #[test]
    fn test1_large_callee_rejected_first() {
        // Even at depth 0 in a tiny caller.
        assert_eq!(
            static_decision(24, 0, 1, &params()),
            InlineDecision::No(RejectReason::CalleeTooBig)
        );
        // Boundary: exactly CALLEE_MAX_SIZE passes test 1.
        assert!(static_decision(23, 0, 1, &params()).is_inline());
    }

    #[test]
    fn test2_tiny_callee_always_inlined() {
        // Depth and caller size are irrelevant for tiny callees: the
        // always-inline test fires before the depth and caller tests.
        assert_eq!(
            static_decision(10, 99, 1_000_000, &params()),
            InlineDecision::YesAlways
        );
        // Boundary: size == ALWAYS_INLINE_SIZE is NOT "less than".
        assert_ne!(
            static_decision(11, 99, 1_000_000, &params()),
            InlineDecision::YesAlways
        );
    }

    #[test]
    fn test3_depth_limit() {
        assert_eq!(
            static_decision(15, 6, 100, &params()),
            InlineDecision::No(RejectReason::TooDeep)
        );
        // Boundary: depth == MAX_INLINE_DEPTH passes.
        assert_eq!(static_decision(15, 5, 100, &params()), InlineDecision::Yes);
    }

    #[test]
    fn test4_caller_limit() {
        assert_eq!(
            static_decision(15, 0, 2049, &params()),
            InlineDecision::No(RejectReason::CallerTooBig)
        );
        // Boundary: caller == CALLER_MAX_SIZE passes.
        assert_eq!(static_decision(15, 0, 2048, &params()), InlineDecision::Yes);
    }

    #[test]
    fn all_tests_pass_means_yes() {
        assert_eq!(static_decision(20, 3, 500, &params()), InlineDecision::Yes);
    }

    #[test]
    fn hot_test_is_a_single_threshold() {
        assert_eq!(hot_decision(135, &params()), InlineDecision::Yes);
        assert_eq!(
            hot_decision(136, &params()),
            InlineDecision::No(RejectReason::HotCalleeTooBig)
        );
    }

    #[test]
    fn region_records_each_test_as_a_half_line() {
        // callee 15: passes test 1 (lo[0] = 15), fails test 2 (hi[1] = 15),
        // depth 6 > 5 rejects (hi[2] = 5); test 4 is never reached.
        let mut r = DecisionRegion::all();
        let d = static_decision_in(15, 6, 100, &params(), &mut r);
        assert_eq!(d, InlineDecision::No(RejectReason::TooDeep));
        assert_eq!(r.lo, [15, 0, 0, 0, 0]);
        assert_eq!(r.hi, [u32::MAX, 15, 5, u32::MAX, u32::MAX]);
        assert!(r.contains(&params()));
        // One step outside a narrowed face flips that test.
        let deeper = InlineParams {
            max_inline_depth: 6,
            ..params()
        };
        assert!(!r.contains(&deeper));
        assert_eq!(static_decision(15, 6, 100, &deeper), InlineDecision::Yes);
        // The hot test narrows only its own gene.
        let mut h = DecisionRegion::all();
        assert!(!hot_decision_in(136, &params(), &mut h).is_inline());
        assert_eq!(h.hi, [u32::MAX, u32::MAX, u32::MAX, u32::MAX, 135]);
        assert_eq!(h.lo, [0; 5]);
    }

    #[test]
    fn disabled_params_inline_nothing() {
        let p = InlineParams::disabled();
        for size in 1..200 {
            assert!(!static_decision(size, 0, 1, &p).is_inline(), "size {size}");
            assert!(!hot_decision(size, &p).is_inline(), "hot size {size}");
        }
    }

    #[test]
    fn exhaustive_truth_table_against_reference() {
        // Cross-check the cascade against a direct transliteration for a
        // grid of inputs.
        let p = params();
        let reference = |callee: u32, depth: u32, caller: u32| -> bool {
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
        };
        for callee in [0, 1, 10, 11, 12, 22, 23, 24, 100] {
            for depth in [0, 1, 4, 5, 6, 20] {
                for caller in [0, 1, 2047, 2048, 2049, 100_000] {
                    assert_eq!(
                        static_decision(callee, depth, caller, &p).is_inline(),
                        reference(callee, depth, caller),
                        "callee={callee} depth={depth} caller={caller}"
                    );
                }
            }
        }
    }
}
