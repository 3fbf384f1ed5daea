//! Cost-model ablation: which mechanism drives which paper shape?
//!
//! DESIGN.md commits the simulator to five mechanisms: call overhead,
//! inlining synergy, the superlinear compile term, the I-cache footprint
//! penalty and the register-spill penalty. This experiment switches each
//! off in turn and reports the Fig. 1-style inlining-on/off ratios plus
//! the compile-cost ratio, so a reader can verify the causal story:
//!
//! * no call overhead / no synergy → inlining stops paying at run time;
//! * no superlinear term → the compile-cost knee flattens and
//!   `CALLER_MAX_SIZE` loses its meaning;
//! * no I-cache/spill penalty → over-inlining stops costing run time and
//!   the depth sweeps become monotone.

use inliner::InlineParams;
use jit::{ArchModel, Prepared, Scenario};

use crate::table::{ratio, Table};
use crate::Context;

/// One model variant's aggregate effects.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name (`full model`, `no call overhead`, …).
    pub variant: &'static str,
    /// SPECjvm98 mean running ratio, default inlining vs none, under Opt.
    pub spec_running: f64,
    /// SPECjvm98 mean total ratio.
    pub spec_total: f64,
    /// DaCapo+JBB mean total ratio.
    pub dacapo_total: f64,
    /// DaCapo+JBB mean compile-cycle ratio (default inlining vs none).
    pub dacapo_compile: f64,
}

/// The model variants: the full model plus one-knob-off versions.
#[must_use]
pub fn variants() -> Vec<(&'static str, ArchModel)> {
    let base = ArchModel::pentium4();
    let mut out = vec![("full model", base.clone())];
    let mut v = base.clone();
    v.call_overhead = 0.0;
    v.call_arg_overhead = 0.0;
    out.push(("no call overhead", v));
    let mut v = base.clone();
    v.inline_synergy = 0.0;
    out.push(("no inline synergy", v));
    let mut v = base.clone();
    v.opt_compile_super_coeff = 0.0;
    out.push(("no superlinear compile", v));
    let mut v = base.clone();
    v.icache_miss_penalty = 0.0;
    out.push(("no icache penalty", v));
    let mut v = base.clone();
    v.spill_penalty = 0.0;
    out.push(("no spill penalty", v));
    out
}

/// Runs the ablation (all variants × both suites).
#[must_use]
pub fn run(ctx: &Context) -> Vec<AblationRow> {
    let on = InlineParams::jikes_default();
    let off = InlineParams::disabled();
    variants()
        .into_iter()
        .map(|(variant, arch)| {
            let mut spec_running = 0.0;
            let mut spec_total = 0.0;
            for b in &ctx.training {
                let prepared = Prepared::new(&b.program, Scenario::Opt, &arch, &ctx.adapt_cfg);
                let w = prepared.measure(&b.program, &on);
                let wo = prepared.measure(&b.program, &off);
                spec_running += w.running_cycles / wo.running_cycles;
                spec_total += w.total_cycles / wo.total_cycles;
            }
            spec_running /= ctx.training.len() as f64;
            spec_total /= ctx.training.len() as f64;

            let mut dacapo_total = 0.0;
            let mut dacapo_compile = 0.0;
            for b in &ctx.test {
                let prepared = Prepared::new(&b.program, Scenario::Opt, &arch, &ctx.adapt_cfg);
                let w = prepared.measure(&b.program, &on);
                let wo = prepared.measure(&b.program, &off);
                dacapo_total += w.total_cycles / wo.total_cycles;
                dacapo_compile += w.compile_cycles / wo.compile_cycles;
            }
            dacapo_total /= ctx.test.len() as f64;
            dacapo_compile /= ctx.test.len() as f64;

            AblationRow {
                variant,
                spec_running,
                spec_total,
                dacapo_total,
                dacapo_compile,
            }
        })
        .collect()
}

/// Renders the ablation matrix.
#[must_use]
pub fn to_table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(&[
        "model variant",
        "SPEC run (on/off)",
        "SPEC total",
        "DaCapo total",
        "DaCapo compile",
    ]);
    for r in rows {
        t.row(vec![
            r.variant.to_string(),
            ratio(r.spec_running),
            ratio(r.spec_total),
            ratio(r.dacapo_total),
            ratio(r.dacapo_compile),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Context {
        let mut ctx = Context::new(
            std::env::temp_dir().join("ablation-test"),
            Context::default_ga(),
        );
        ctx.training.truncate(2);
        ctx.test.truncate(1);
        ctx
    }

    #[test]
    fn variants_cover_every_mechanism() {
        let v = variants();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0].0, "full model");
    }

    #[test]
    fn removing_call_overhead_weakens_inlining_gains() {
        let rows = run(&tiny_ctx());
        let full = &rows[0];
        let no_calls = rows
            .iter()
            .find(|r| r.variant == "no call overhead")
            .unwrap();
        assert!(
            no_calls.spec_running > full.spec_running,
            "without call overhead inlining must help less: {} vs {}",
            no_calls.spec_running,
            full.spec_running
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = run(&tiny_ctx());
        assert_eq!(to_table(&rows).len(), rows.len());
    }
}
