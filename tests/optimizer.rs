//! `passes::optimize_method` skips every pass that provably cannot change
//! the method. This suite holds it, body and `PassStats` alike, to the
//! round-based pipeline it replaced: `const_prop` then `dce`, every
//! round, until a round changes nothing or 64 rounds have run.

use inliner::{inline_method, HotSites, InlineParams, ParamRanges};
use ir::op::Operand;
use ir::stmt::Stmt;
use ir::testgen::{random_program, GenConfig};
use ir::Method;
use jit::passes::{const_prop, dce, optimize_method, PassStats};
use jit::{AdaptConfig, ArchModel};
use simrng::{cases, Rng};

/// The round-based pipeline. Also says whether a `const_prop` after the
/// first round folded anything.
fn reference(method: &mut Method) -> (PassStats, bool) {
    let mut stats = PassStats::default();
    let mut refolded = false;
    for round in 1..=64 {
        stats.rounds = round;
        let folded = const_prop(method);
        let removed = dce(method);
        stats.folded += folded;
        stats.removed += removed;
        refolded |= round > 1 && folded > 0;
        if folded == 0 && removed == 0 {
            break;
        }
    }
    (stats, refolded)
}

/// Optimizes `method` both ways and asserts body and stats agree.
/// Returns the reference's stats and whether a later round refolded.
fn agrees(method: &Method, case: &str) -> (PassStats, bool) {
    let mut ours = method.clone();
    let stats = optimize_method(&mut ours);
    let mut want = method.clone();
    let (want_stats, refolded) = reference(&mut want);
    assert_eq!(stats, want_stats, "{case}: {} stats", method.name);
    assert_eq!(ours, want, "{case}: {} body", method.name);
    (want_stats, refolded)
}

fn random_params(rng: &mut Rng) -> InlineParams {
    let genes: Vec<i64> = ParamRanges::paper()
        .bounds
        .iter()
        .map(|&(lo, hi)| rng.range_i64(lo, hi))
        .collect();
    InlineParams::from_genes(&genes)
}

/// `method` with every register folded into `0..k`. The generator and
/// the inliner write each register once; only a method that reuses
/// registers needs `const_prop` after the first round.
fn reuse_registers(method: &Method, k: u16) -> Method {
    fn operand(o: &mut Operand, k: u16) {
        if let Operand::Reg(r) = o {
            r.0 %= k;
        }
    }
    fn body(stmts: &mut [Stmt], k: u16) {
        for s in stmts {
            match s {
                Stmt::Op(o) => {
                    o.dst.0 %= k;
                    operand(&mut o.a, k);
                    operand(&mut o.b, k);
                }
                Stmt::Call(c) => {
                    c.args.iter_mut().for_each(|a| operand(a, k));
                    if let Some(d) = &mut c.dst {
                        d.0 %= k;
                    }
                }
                Stmt::Loop { body: b, .. } => body(b, k),
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                    ..
                } => {
                    operand(cond, k);
                    body(then_b, k);
                    body(else_b, k);
                }
            }
        }
    }
    let mut m = method.clone();
    body(&mut m.body, k);
    operand(&mut m.ret, k);
    m
}

/// Seeded random programs, every method raw, inlined under a random
/// genome, and inlined with its registers reused; zero-trip loops
/// included (`max_trips` draws from `0..=5`).
#[test]
fn random_methods_optimize_as_the_round_based_pipeline_does() {
    let (mut methods, mut refolded) = (0, 0);
    cases(
        "random_methods_optimize_as_the_round_based_pipeline_does",
        |rng| {
            let cfg = GenConfig {
                max_nesting: rng.range_usize(1, 4) as u32,
                ..GenConfig::default()
            };
            let p = random_program(rng, &cfg);
            let params = random_params(rng);
            let k = rng.range_usize(2, 8) as u16;
            for m in &p.methods {
                let (inlined, _) = inline_method(&p, m.id, &params, &HotSites::new());
                for (variant, method) in [
                    ("raw", m.clone()),
                    ("inlined", inlined.clone()),
                    ("reused", reuse_registers(&inlined, k)),
                ] {
                    let (_, again) = agrees(&method, &format!("{variant} k={k} {params:?}"));
                    methods += 1;
                    refolded += u32::from(again);
                }
            }
        },
    );
    assert!(methods > 1000, "{methods} methods");
    assert!(refolded > 0, "no case needed a second const_prop");
}

/// Every reachable method of `jess` (SPECjvm98) and `ipsixql` (DaCapo)
/// under 32 random genomes, half of them with the adaptive system's hot
/// sites, plus the aggressive genome under which `ipsixql` methods run
/// into the 64-round backstop. Each distinct inlined body is checked
/// once (about a fifth of them are distinct); one thread per program.
#[test]
fn suite_methods_optimize_as_the_round_based_pipeline_does() {
    let backstop: u32 = std::thread::scope(|scope| {
        let threads: Vec<_> = [("jess", 31), ("ipsixql", 32)]
            .map(|(name, seed)| scope.spawn(move || suite_agrees(name, seed)))
            .into_iter()
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert!(backstop > 0, "no method reached the 64-round backstop");
}

/// Checks one program's methods; returns how many hit the backstop.
fn suite_agrees(name: &str, seed: u64) -> u32 {
    let program = workloads::benchmark_by_name(name).unwrap().program;
    let arch = ArchModel::pentium4();
    let hot = jit::adaptive::plan(&program, &arch, &AdaptConfig::default()).hot_sites;
    let none = HotSites::new();
    let mut rng = Rng::seed_from_u64(seed);
    let mut genomes: Vec<(InlineParams, &HotSites)> = (0..32)
        .map(|g| {
            (
                random_params(&mut rng),
                if g % 2 == 0 { &none } else { &hot },
            )
        })
        .collect();
    genomes.push((InlineParams::from_genes(&[40, 25, 12, 4000, 400]), &none));
    let ids = program.reachable();
    let mut checked: Vec<Vec<Method>> = vec![Vec::new(); ids.len()];
    let mut backstop = 0;
    for (params, sites) in genomes {
        for (&id, seen) in ids.iter().zip(&mut checked) {
            let (method, _) = inline_method(&program, id, &params, sites);
            if seen.contains(&method) {
                continue;
            }
            let (stats, _) = agrees(&method, &format!("{name} {params:?}"));
            backstop += u32::from(stats.rounds == 64);
            seen.push(method);
        }
    }
    backstop
}
