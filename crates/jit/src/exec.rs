//! The analytic execution-cost model.
//!
//! Prices one *iteration* (one invocation of the program entry) of a
//! [`VmState`] in cycles, with no interpretation: dynamic op counts come
//! from `ir::freq` run on the state's (post-inlining) executable program.
//! [`crate::prepared`] prices through the same function without building a
//! state.
//!
//! The model charges:
//!
//! * **op cycles** — dynamic op units × per-class cycle costs, scaled per
//!   method by its compile level (`baseline_slowdown` for baseline code)
//!   and, for opt code, discounted by *inlining synergy*: the fraction of
//!   the method's code that arrived by inlining runs up to
//!   `inline_synergy` faster (argument constant propagation, cross-call
//!   scheduling — the "increased opportunities for compiler optimization"
//!   of the paper's abstract);
//! * **call cycles** — every executed, *non-inlined* call pays
//!   `call_overhead + n_args × call_arg_overhead`;
//! * **I-cache penalty** — a multiplicative factor from the hot-code
//!   footprint (execution-weighted compiled size vs. capacity): the cost of
//!   over-aggressive inlining that the heuristic must balance.

use ir::freq::{entry_counts, local_profile, MethodLocal};
use ir::method::MethodId;

use crate::arch::ArchModel;
use crate::compile::{CompileLevel, CompiledMethod, VmState};

/// A method is counted fully in the I-cache footprint once it is entered
/// this many times per iteration; colder methods contribute
/// proportionally.
const HOT_ENTRY_SCALE: f64 = 8.0;

/// Per-iteration execution cost, decomposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecBreakdown {
    /// Total cycles per iteration (ops + calls, I-cache-scaled).
    pub total_cycles: f64,
    /// Op cycles before the I-cache factor.
    pub op_cycles: f64,
    /// Call-overhead cycles before the I-cache factor.
    pub call_cycles: f64,
    /// The multiplicative I-cache factor applied (≥ 1).
    pub icache_factor: f64,
    /// Execution-weighted hot-code footprint, in size units.
    pub hot_footprint: f64,
    /// Dynamic (non-inlined) calls executed per iteration.
    pub dynamic_calls: f64,
}

impl ExecBreakdown {
    /// Seconds per iteration on the given machine.
    #[must_use]
    pub fn seconds(&self, arch: &ArchModel) -> f64 {
        arch.cycles_to_seconds(self.total_cycles)
    }
}

/// Prices one iteration of the given VM state.
///
/// Methods present in the program but never compiled (unreachable) cost
/// nothing — the frequency analysis gives them zero entries.
#[must_use]
pub fn exec_cycles(state: &VmState, arch: &ArchModel) -> ExecBreakdown {
    let locals: Vec<MethodLocal> = state
        .program
        .methods
        .iter()
        .map(|m| local_profile(&m.body))
        .collect();
    let (entries, _) = entry_counts(&locals, state.program.entry, 1.0);
    price(
        &entries,
        |mi| (&locals[mi], state.compiled.get(&MethodId(mi as u32))),
        arch,
    )
}

/// The cost model proper: prices one iteration given every method's
/// absolute entry count and, through `code`, the local profile and
/// compile record of the code it currently runs (both by method index).
///
/// A method that is entered but has no compile record costs nothing, like
/// an unreachable one. No state built by this crate contains one — every
/// builder compiles the whole reachable set.
pub(crate) fn price<'a>(
    entries: &[f64],
    code: impl Fn(usize) -> (&'a MethodLocal, Option<&'a CompiledMethod>),
    arch: &ArchModel,
) -> ExecBreakdown {
    let mut op_cycles = 0.0;
    let mut call_cycles = 0.0;
    let mut footprint = 0.0;
    let mut dynamic_calls = 0.0;

    for (mi, &entries) in entries.iter().enumerate() {
        if entries <= 0.0 {
            continue;
        }
        let (local, Some(rec)) = code(mi) else {
            continue;
        };
        let speed = match rec.level {
            CompileLevel::Baseline => arch.baseline_slowdown,
            CompileLevel::Opt => {
                // Synergy discount on the inlined fraction of the code,
                // counteracted by register-pressure spills once the body
                // outgrows the machine's comfort zone.
                let inlined_fraction = if rec.code_size > rec.original_size {
                    f64::from(rec.code_size - rec.original_size) / f64::from(rec.code_size)
                } else {
                    0.0
                };
                (1.0 - arch.inline_synergy * inlined_fraction) * arch.spill_factor(rec.code_size)
            }
        };
        let per_entry_op_cost: f64 = local
            .ops_per_entry
            .iter()
            .zip(&arch.class_cycles)
            .map(|(units, cost)| units * cost)
            .sum();
        op_cycles += entries * per_entry_op_cost * speed;

        for site in &local.sites {
            let executions = entries * site.freq_per_entry;
            call_cycles +=
                executions * (arch.call_overhead + arch.call_arg_overhead * site.n_args as f64);
            dynamic_calls += executions;
        }

        footprint += f64::from(rec.code_size) * (entries / HOT_ENTRY_SCALE).min(1.0);
    }

    let icache_factor = arch.icache_penalty(footprint);
    ExecBreakdown {
        total_cycles: (op_cycles + call_cycles) * icache_factor,
        op_cycles,
        call_cycles,
        icache_factor,
        hot_footprint: footprint,
        dynamic_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_all_baseline, compile_all_opt};
    use inliner::{HotSites, InlineParams};
    use ir::builder::demo_program;

    #[test]
    fn baseline_code_is_slower_than_opt_code() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let base = exec_cycles(&compile_all_baseline(&p, &arch), &arch);
        let opt = exec_cycles(
            &compile_all_opt(&p, &arch, &InlineParams::disabled(), &HotSites::new()),
            &arch,
        );
        // Same bodies (no inlining), different levels: op cycles scale by
        // exactly baseline_slowdown; call overhead is level-independent.
        assert!(base.total_cycles > opt.total_cycles);
        assert!((base.op_cycles / opt.op_cycles - arch.baseline_slowdown).abs() < 1e-9);
        assert_eq!(base.dynamic_calls, opt.dynamic_calls);
    }

    #[test]
    fn inlining_removes_call_cycles() {
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let no_inline = exec_cycles(
            &compile_all_opt(&p, &arch, &InlineParams::disabled(), &HotSites::new()),
            &arch,
        );
        let inlined = exec_cycles(
            &compile_all_opt(&p, &arch, &InlineParams::jikes_default(), &HotSites::new()),
            &arch,
        );
        assert_eq!(inlined.dynamic_calls, 0.0);
        assert!(no_inline.dynamic_calls > 0.0);
        assert!(inlined.total_cycles < no_inline.total_cycles);
    }

    #[test]
    fn entered_method_without_a_record_costs_nothing() {
        // `main` calls `inc`; drop `inc`'s record and only `main`'s own
        // ops, calls and footprint are priced.
        let p = demo_program();
        let arch = ArchModel::pentium4();
        let full = compile_all_baseline(&p, &arch);
        let mut partial = full.clone();
        let inc = p.methods.iter().find(|m| m.id != p.entry).unwrap().id;
        partial.compiled.remove(&inc);
        let (full, partial) = (exec_cycles(&full, &arch), exec_cycles(&partial, &arch));
        assert!(partial.op_cycles < full.op_cycles);
        // `inc` makes no calls, so the call side is untouched.
        assert_eq!(partial.call_cycles, full.call_cycles);
        assert_eq!(partial.dynamic_calls, full.dynamic_calls);
        let main_size = f64::from(ir::size::method_size(p.method(p.entry)));
        assert_eq!(partial.hot_footprint, main_size / HOT_ENTRY_SCALE);
    }

    #[test]
    fn icache_factor_at_least_one() {
        let p = demo_program();
        let arch = ArchModel::powerpc_g4();
        let b = exec_cycles(&compile_all_baseline(&p, &arch), &arch);
        assert!(b.icache_factor >= 1.0);
        assert!(b.hot_footprint > 0.0);
    }

    #[test]
    fn seconds_scale_with_clock() {
        let p = demo_program();
        let x86 = ArchModel::pentium4();
        let b = exec_cycles(&compile_all_baseline(&p, &x86), &x86);
        assert!((b.seconds(&x86) - b.total_cycles / 2.8e9).abs() < 1e-18);
    }
}
