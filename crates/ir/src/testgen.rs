//! Random valid-program generation for property-based testing.
//!
//! Used by the property tests of `inlinetune-inline` (semantic preservation
//! of inlining) and `inlinetune-jit` (cost-model invariants). The generator
//! produces *terminating* programs by construction: methods only call
//! methods with strictly larger ids (a DAG call graph), loop trip counts are
//! bounded, and bodies are small — so the interpreter can run thousands of
//! cases per second.
//!
//! This is deliberately distinct from `inlinetune-workloads`: workloads are
//! calibrated models of real benchmarks; this module maximizes structural
//! diversity per unit of interpretation time.

use simrng::Rng;

use crate::builder::{MethodBuilder, ProgramBuilder};
use crate::method::MethodId;
use crate::op::OpKind;
use crate::program::Program;

/// Tuning knobs for the random generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Number of methods (≥ 1).
    pub n_methods: u32,
    /// Maximum statements per block.
    pub max_block_stmts: u32,
    /// Maximum nesting depth of loops/branches.
    pub max_nesting: u32,
    /// Maximum loop trip count.
    pub max_trips: u32,
    /// Maximum parameters per method.
    pub max_params: u16,
    /// Probability that a statement slot becomes a call (when callees
    /// exist).
    pub call_prob: f64,
    /// Probability that a statement slot becomes a loop/if (subject to
    /// nesting).
    pub block_prob: f64,
    /// Whether to generate `If` statements at all. Branch-free programs
    /// (`false`) have *exact* analytic execution frequencies, which the
    /// cross-validation tests in `inlinetune-jit` exploit: the frequency
    /// analysis must then agree with the interpreter to the last call.
    pub branches: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            n_methods: 8,
            max_block_stmts: 6,
            max_nesting: 3,
            max_trips: 5,
            max_params: 3,
            call_prob: 0.3,
            block_prob: 0.25,
            branches: true,
        }
    }
}

/// Ops eligible for random generation (all of them).
const GEN_OPS: [OpKind; 14] = [
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Xor,
    OpKind::And,
    OpKind::Or,
    OpKind::Shl,
    OpKind::Shr,
    OpKind::Min,
    OpKind::Max,
    OpKind::Load,
    OpKind::Store,
    OpKind::FMul,
    OpKind::FAdd,
];

/// Generates a random valid program.
///
/// The call graph is a DAG over method ids (method `i` may only call
/// methods `> i`), so every run terminates; the entry point is method 0.
/// A method whose register frame fills up emits no further statement, so
/// a deep, wide configuration generates too, its later blocks cut short.
#[must_use]
pub fn random_program(rng: &mut Rng, cfg: &GenConfig) -> Program {
    let n = cfg.n_methods.max(1);
    let mut pb = ProgramBuilder::new(format!("gen{n}"));
    pb = pb.heap_size(256);

    // Declare all methods first so ids exist; parameter counts fixed now so
    // call sites can be generated with correct arity.
    let mut ids = Vec::with_capacity(n as usize);
    let mut param_counts = Vec::with_capacity(n as usize);
    for i in 0..n {
        ids.push(pb.declare());
        let params = if i == 0 {
            0 // the entry takes no arguments
        } else {
            rng.range_usize(0, cfg.max_params as usize) as u16
        };
        param_counts.push(params);
    }

    for i in 0..n {
        let mut mb = MethodBuilder::new(format!("g{i}"), param_counts[i as usize]);
        // Seed a couple of registers so operand choices always exist.
        let mut live: Vec<crate::op::Reg> =
            (0..param_counts[i as usize]).map(crate::op::Reg).collect();
        let c0 = mb.op(OpKind::Mov, rng.range_i64(-8, 8), 0i64);
        live.push(c0);

        gen_block(
            rng,
            cfg,
            &mut pb,
            &mut mb,
            &mut live,
            i,
            &ids,
            &param_counts,
            0,
        );

        let ret = *rng.choose(&live);
        mb.ret(ret);
        pb.define(ids[i as usize], mb);
    }

    pb.entry(ids[0]);
    pb.build().expect("generated program must validate")
}

#[allow(clippy::too_many_arguments)]
fn gen_block(
    rng: &mut Rng,
    cfg: &GenConfig,
    pb: &mut ProgramBuilder,
    mb: &mut MethodBuilder,
    live: &mut Vec<crate::op::Reg>,
    method_index: u32,
    ids: &[MethodId],
    param_counts: &[u16],
    nesting: u32,
) {
    let n_stmts = rng.range_usize(1, cfg.max_block_stmts as usize);
    for _ in 0..n_stmts {
        // A statement writes at most one fresh register. The check draws
        // nothing from `rng`: a program whose frame never fills is the
        // program it always was.
        if mb.frame_full() {
            break;
        }
        let has_callees = (method_index as usize) + 1 < ids.len();
        let roll = rng.f64();
        if has_callees && roll < cfg.call_prob {
            // Random call to a later method.
            let callee_idx = rng.range_usize(method_index as usize + 1, ids.len() - 1);
            let callee = ids[callee_idx];
            let argc = param_counts[callee_idx] as usize;
            let args = (0..argc)
                .map(|_| {
                    if rng.chance(0.7) {
                        (*rng.choose(live)).into()
                    } else {
                        rng.range_i64(-16, 16).into()
                    }
                })
                .collect();
            let site = pb.fresh_site();
            if let Some(r) = mb.call(site, callee, args, rng.chance(0.8)) {
                live.push(r);
            }
        } else if nesting < cfg.max_nesting && roll < cfg.call_prob + cfg.block_prob {
            if !cfg.branches || rng.chance(0.5) {
                let trips = rng.range_usize(0, cfg.max_trips as usize) as u32;
                mb.begin_loop(trips);
                gen_block(
                    rng,
                    cfg,
                    pb,
                    mb,
                    live,
                    method_index,
                    ids,
                    param_counts,
                    nesting + 1,
                );
                mb.end();
            } else {
                let cond = *rng.choose(live);
                let prob = rng.f64();
                mb.begin_if(cond, prob);
                gen_block(
                    rng,
                    cfg,
                    pb,
                    mb,
                    live,
                    method_index,
                    ids,
                    param_counts,
                    nesting + 1,
                );
                if rng.chance(0.5) {
                    mb.begin_else();
                    gen_block(
                        rng,
                        cfg,
                        pb,
                        mb,
                        live,
                        method_index,
                        ids,
                        param_counts,
                        nesting + 1,
                    );
                }
                mb.end();
            }
        } else {
            let op = *rng.choose(&GEN_OPS);
            let a: crate::op::Operand = if rng.chance(0.8) {
                (*rng.choose(live)).into()
            } else {
                rng.range_i64(-64, 64).into()
            };
            let b: crate::op::Operand = if rng.chance(0.8) {
                (*rng.choose(live)).into()
            } else {
                rng.range_i64(-64, 64).into()
            };
            let r = mb.op(op, a, b);
            live.push(r);
        }
        // Keep the live set bounded so register frames stay small.
        if live.len() > 24 {
            let keep = live.len() - 24;
            live.drain(0..keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, InterpError, InterpLimits};
    use crate::validate::validate;

    #[test]
    fn generated_programs_validate_and_run() {
        let mut rng = Rng::seed_from_u64(7);
        for case in 0..50 {
            let p = random_program(&mut rng, &GenConfig::default());
            assert!(validate(&p).is_empty(), "case {case} invalid");
            let out = run(&p, &[], &InterpLimits::default());
            assert!(out.is_ok(), "case {case} failed: {out:?}");
        }
    }

    /// FNV-1a over the printed programs of seeds `0..100`.
    fn digest(cfg: &GenConfig) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..100 {
            let p = random_program(&mut Rng::seed_from_u64(seed), cfg);
            for b in crate::pretty::program_to_string(&p).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The programs of every configuration the suites generate from are
    /// pinned: nesting 1–4 at the default block size (3 is the default),
    /// and the prepared-context suite's long loops.
    #[test]
    fn programs_that_fit_their_frames_are_pinned() {
        for (max_nesting, want) in [
            (1, 0xfa74_09ce_0cf1_c959),
            (2, 0xaa37_1857_92fa_06bb),
            (3, 0x1453_454f_f33d_fdd2),
            (4, 0x1858_49cf_5ccf_2c75),
        ] {
            let cfg = GenConfig {
                max_nesting,
                ..GenConfig::default()
            };
            assert_eq!(digest(&cfg), want, "max_nesting {max_nesting}");
        }
        let long_loops = GenConfig {
            max_block_stmts: 5,
            max_trips: 30,
            ..GenConfig::default()
        };
        assert_eq!(digest(&long_loops), 0x7827_d93c_2263_2029);
    }

    /// Nesting 6 with blocks of up to 12 statements outgrows a `u16`
    /// register frame on most seeds; each still generates, validates and
    /// runs (out of fuel is a run's outcome, not a failure).
    #[test]
    fn a_configuration_that_outgrows_the_frame_still_generates() {
        let cfg = GenConfig {
            max_nesting: 6,
            max_block_stmts: 12,
            ..GenConfig::default()
        };
        let limits = InterpLimits {
            fuel: 10_000,
            ..InterpLimits::default()
        };
        for seed in 0..20 {
            let p = random_program(&mut Rng::seed_from_u64(seed), &cfg);
            assert!(validate(&p).is_empty(), "seed {seed} invalid");
            let out = run(&p, &[], &limits);
            assert!(
                matches!(out, Ok(_) | Err(InterpError::OutOfFuel)),
                "seed {seed} failed: {out:?}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = random_program(&mut Rng::seed_from_u64(42), &cfg);
        let b = random_program(&mut Rng::seed_from_u64(42), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = random_program(&mut Rng::seed_from_u64(1), &cfg);
        let b = random_program(&mut Rng::seed_from_u64(2), &cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn respects_method_count() {
        let cfg = GenConfig {
            n_methods: 17,
            ..GenConfig::default()
        };
        let p = random_program(&mut Rng::seed_from_u64(3), &cfg);
        assert_eq!(p.method_count(), 17);
    }

    #[test]
    fn call_graph_is_a_dag() {
        let mut rng = Rng::seed_from_u64(4);
        let p = random_program(&mut rng, &GenConfig::default());
        for m in &p.methods {
            for callee in m.callees() {
                assert!(callee.0 > m.id.0, "{} calls {}", m.id, callee);
            }
        }
    }
}
