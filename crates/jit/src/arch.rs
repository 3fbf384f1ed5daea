//! Architecture models.
//!
//! An [`ArchModel`] bundles every machine-dependent constant of the cost
//! model. Two presets mirror the paper's platforms:
//!
//! * [`ArchModel::pentium4`] — a 2.8 GHz Pentium-4-class x86: deep pipeline
//!   (expensive calls — this is why inlining depth pays on x86 in the
//!   paper), high clock, generous effective instruction-cache capacity;
//! * [`ArchModel::powerpc_g4`] — a 533 MHz PowerPC 7410: short pipeline
//!   (cheap calls), small 64 KB-class I-cache — code growth hurts much
//!   sooner, which is the paper's explanation for the small
//!   `MAX_INLINE_DEPTH` the GA finds on PPC (§6.1).
//!
//! Costs are expressed in cycles per *op unit* (the dynamic unit counted by
//! `ir::freq`) and code sizes in *size units* (the static unit of
//! `ir::size`, ≈ one machine instruction ≈ 4 bytes).

use ir::freq::N_COST_CLASSES;

/// A machine model: every architecture-dependent constant in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchModel {
    /// Human-readable name (used in reports).
    pub name: &'static str,
    /// Clock rate in Hz — converts cycles to seconds for the paper's
    /// Fig. 2 (execution time in seconds).
    pub clock_hz: f64,
    /// Cycles per dynamic op unit, by cost class
    /// (`[IntAlu, IntMul, Mem, Float]`).
    pub class_cycles: [f64; N_COST_CLASSES],
    /// Cycles charged per executed (non-inlined) call: linkage, spills,
    /// pipeline disruption, callee prologue/epilogue.
    pub call_overhead: f64,
    /// Extra cycles per argument of an executed call.
    pub call_arg_overhead: f64,
    /// Execution-speed multiplier of baseline-compiled code relative to
    /// optimized code (> 1).
    pub baseline_slowdown: f64,
    /// Baseline compiler: cycles per size unit (a straight bytecode →
    /// machine-code translation pass).
    pub baseline_compile_per_unit: f64,
    /// Baseline compiler: fixed per-method cycles.
    pub baseline_compile_fixed: f64,
    /// Optimizing compiler: fixed per-method cycles.
    pub opt_compile_fixed: f64,
    /// Optimizing compiler: linear cycles per post-inlining size unit.
    pub opt_compile_per_unit: f64,
    /// Optimizing compiler: coefficient of the superlinear term.
    pub opt_compile_super_coeff: f64,
    /// Optimizing compiler: exponent of the superlinear term (> 1): models
    /// the quadratic-ish dataflow analyses that make inlining into huge
    /// callers so expensive — the mechanism behind the paper's finding that
    /// the default `CALLER_MAX_SIZE = 2048` is "overly aggressive". With
    /// the preset coefficients the superlinear term overtakes the linear
    /// one right around 2000 size units, so caller growth past that knee
    /// is what the tuner learns to avoid.
    pub opt_compile_exponent: f64,
    /// Effective instruction-cache capacity in size units.
    pub icache_capacity: f64,
    /// Strength of the I-cache footprint penalty (see
    /// [`ArchModel::icache_penalty`]).
    pub icache_miss_penalty: f64,
    /// Residual relative speedup of code that was inlined into its caller
    /// and then optimized in context, *beyond* what the real constant-
    /// propagation/DCE passes already capture (better scheduling, register
    /// allocation across the old call boundary). Applied in proportion to
    /// the fraction of a method's code that arrived by inlining.
    pub inline_synergy: f64,
    /// Method size (units) beyond which register pressure starts to cost:
    /// huge post-inlining bodies spill, defeat scheduling and slow down —
    /// the "unexpected side effects of inline substitution" of Cooper,
    /// Hall & Torczon that the paper cites as motivation.
    pub spill_threshold: f64,
    /// Strength of the spill penalty (per natural log of size over the
    /// threshold).
    pub spill_penalty: f64,
}

impl ArchModel {
    /// The 2.8 GHz Pentium-4-class x86 workstation of the paper.
    #[must_use]
    pub fn pentium4() -> Self {
        Self {
            name: "x86-p4",
            clock_hz: 2.8e9,
            // P4: fast ALU (double-pumped), slow-ish memory relative to
            // clock, long FP latency.
            class_cycles: [1.0, 4.0, 3.5, 4.5],
            // Deep (20+ stage) pipeline: call/return disruption is big.
            call_overhead: 11.0,
            call_arg_overhead: 1.5,
            baseline_slowdown: 2.8,
            baseline_compile_per_unit: 100.0,
            baseline_compile_fixed: 4_000.0,
            opt_compile_fixed: 30_000.0,
            opt_compile_per_unit: 2_500.0,
            opt_compile_super_coeff: 25.0,
            opt_compile_exponent: 1.8,
            // The P4 trace cache holds ~12K µops; calls it 20K size units
            // of effective instruction-delivery capacity.
            icache_capacity: 20_000.0,
            icache_miss_penalty: 0.25,
            inline_synergy: 0.08,
            // Eight architectural registers: pressure builds early, but the
            // P4's big physical file and trace cache soften it.
            spill_threshold: 300.0,
            spill_penalty: 0.12,
        }
    }

    /// The dual 533 MHz PowerPC 7410 (G4) Macintosh of the paper.
    #[must_use]
    pub fn powerpc_g4() -> Self {
        Self {
            name: "ppc-g4",
            clock_hz: 533e6,
            // Short pipeline: latencies in cycles are lower across the
            // board (the clock is 5x slower, so seconds differ).
            class_cycles: [1.0, 2.5, 2.0, 3.0],
            // 4-stage pipeline: calls are cheap.
            call_overhead: 7.0,
            call_arg_overhead: 1.0,
            baseline_slowdown: 2.8,
            baseline_compile_per_unit: 100.0,
            baseline_compile_fixed: 4_000.0,
            opt_compile_fixed: 30_000.0,
            opt_compile_per_unit: 2_500.0,
            opt_compile_super_coeff: 25.0,
            opt_compile_exponent: 1.8,
            // 32 KB I-cache ≈ 8K instructions: code growth hurts early.
            icache_capacity: 8_000.0,
            icache_miss_penalty: 0.50,
            inline_synergy: 0.05,
            // 32 architectural registers, but a small I-cache and a short
            // fetch pipeline make bloated bodies costly anyway.
            spill_threshold: 220.0,
            spill_penalty: 0.15,
        }
    }

    /// Cycles to baseline-compile a method of the given size.
    #[must_use]
    pub fn baseline_compile_cycles(&self, size: u32) -> f64 {
        self.baseline_compile_fixed + self.baseline_compile_per_unit * f64::from(size)
    }

    /// Cycles to opt-compile a method whose *post-inlining* size is `size`.
    #[must_use]
    pub fn opt_compile_cycles(&self, size: u32) -> f64 {
        let s = f64::from(size);
        self.opt_compile_fixed
            + self.opt_compile_per_unit * s
            + self.opt_compile_super_coeff * s.powf(self.opt_compile_exponent)
    }

    /// Multiplicative run-time penalty for a hot-code footprint of
    /// `footprint` size units: 1.0 while the working set fits, growing
    /// logarithmically once it spills.
    #[must_use]
    pub fn icache_penalty(&self, footprint: f64) -> f64 {
        if footprint <= self.icache_capacity {
            1.0
        } else {
            1.0 + self.icache_miss_penalty * (footprint / self.icache_capacity).ln()
        }
    }

    /// Per-op multiplicative penalty of an opt-compiled method whose
    /// post-inlining size is `size` units (register pressure / scheduling
    /// degradation in oversized bodies). 1.0 below the threshold.
    #[must_use]
    pub fn spill_factor(&self, size: u32) -> f64 {
        let s = f64::from(size);
        if s <= self.spill_threshold {
            1.0
        } else {
            1.0 + self.spill_penalty * (s / self.spill_threshold).ln()
        }
    }

    /// Converts cycles to seconds on this machine.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_the_paper_says_they_do() {
        let x86 = ArchModel::pentium4();
        let ppc = ArchModel::powerpc_g4();
        assert!(x86.call_overhead > ppc.call_overhead, "P4 calls cost more");
        assert!(
            x86.icache_capacity > ppc.icache_capacity,
            "G4 cache smaller"
        );
        assert!(x86.clock_hz > ppc.clock_hz);
    }

    #[test]
    fn opt_compile_is_superlinear() {
        let a = ArchModel::pentium4();
        let c1 = a.opt_compile_cycles(1_000) - a.opt_compile_fixed;
        let c2 = a.opt_compile_cycles(2_000) - a.opt_compile_fixed;
        assert!(c2 > 2.0 * c1, "doubling size must more than double cost");
    }

    #[test]
    fn opt_compile_much_slower_than_baseline() {
        let a = ArchModel::pentium4();
        for size in [10u32, 100, 1000] {
            assert!(a.opt_compile_cycles(size) > 5.0 * a.baseline_compile_cycles(size));
        }
    }

    #[test]
    fn icache_penalty_is_one_inside_capacity() {
        let a = ArchModel::powerpc_g4();
        assert_eq!(a.icache_penalty(0.0), 1.0);
        assert_eq!(a.icache_penalty(a.icache_capacity), 1.0);
    }

    #[test]
    fn icache_penalty_grows_monotonically() {
        let a = ArchModel::powerpc_g4();
        let mut prev = 1.0;
        for mult in [1.5, 2.0, 4.0, 8.0, 32.0] {
            let p = a.icache_penalty(a.icache_capacity * mult);
            assert!(p > prev, "penalty not monotone at {mult}");
            prev = p;
        }
    }

    #[test]
    fn ppc_penalizes_code_growth_harder_at_same_footprint() {
        // The same absolute footprint hurts the G4 more — the mechanism
        // behind the smaller MAX_INLINE_DEPTH the GA finds on PPC.
        let x86 = ArchModel::pentium4();
        let ppc = ArchModel::powerpc_g4();
        let footprint = 60_000.0;
        assert!(ppc.icache_penalty(footprint) > x86.icache_penalty(footprint));
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let a = ArchModel::pentium4();
        assert!((a.cycles_to_seconds(2.8e9) - 1.0).abs() < 1e-12);
    }
}
