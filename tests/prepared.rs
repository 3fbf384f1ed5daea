//! The prepared measurement context and its decision-region memo are
//! exact: whatever they skip, a `Measurement` comes out bit for bit as the
//! one-shot reference built from `compile_all_*` + `exec_cycles` makes it —
//! cold, warm, in any order, from several threads — and a memo never
//! outgrows its cap nor leaks from one `Tuner` into another. The
//! flag-selection problem, which measures through a prepared context
//! under any pass set, scores every genome at its pinned fitness bits.

use std::sync::Barrier;

use inliner::{
    inline_method_region, inline_method_traced, DecisionRegion, HotSites, InlineParams, ParamRanges,
};
use ir::builder::{MethodBuilder, ProgramBuilder};
use ir::op::OpKind;
use ir::testgen::{random_program, GenConfig};
use ir::{MethodId, Program};
use jit::compile::{compile_all_baseline, compile_all_opt, opt_compile_into, CompileLevel};
use jit::exec::exec_cycles;
use jit::prepared::UNITS_PER_METHOD;
use jit::{AdaptConfig, ArchModel, Measurement, MemoStats, Prepared, Scenario};
use simrng::{cases, Rng};

/// `jit::measure` as it was before the prepared context existed: a whole
/// `VmState` per call, every formula through the public `VmState`
/// functions.
fn reference(
    program: &Program,
    scenario: Scenario,
    arch: &ArchModel,
    params: &InlineParams,
    cfg: &AdaptConfig,
) -> Measurement {
    let (state, baseline_compile, opt_compile, baseline_exec) = match scenario {
        Scenario::Opt => {
            let state = compile_all_opt(program, arch, params, &HotSites::new());
            let opt_compile = state.total_compile_cycles();
            (state, 0.0, opt_compile, None)
        }
        Scenario::Adapt => {
            let mut state = compile_all_baseline(program, arch);
            let baseline_compile = state.total_compile_cycles();
            let baseline_exec = exec_cycles(&state, arch);
            let plan = jit::adaptive::plan(program, arch, cfg);
            let mut opt_compile = 0.0;
            for &m in &plan.hot_methods {
                opt_compile +=
                    opt_compile_into(&mut state, program, m, arch, params, &plan.hot_sites);
            }
            (state, baseline_compile, opt_compile, Some(baseline_exec))
        }
    };
    let steady = exec_cycles(&state, arch);
    let first_iter_exec = match baseline_exec {
        None => steady.total_cycles,
        Some(baseline) => {
            let phi = cfg.warmup_fraction.clamp(0.0, 1.0);
            phi * baseline.total_cycles + (1.0 - phi) * steady.total_cycles
        }
    };
    let n_opt = state
        .compiled
        .values()
        .filter(|c| c.level == CompileLevel::Opt)
        .count();
    Measurement {
        total_cycles: match scenario {
            Scenario::Opt => opt_compile + steady.total_cycles,
            Scenario::Adapt => baseline_compile + opt_compile + first_iter_exec,
        },
        running_cycles: steady.total_cycles,
        compile_cycles: match scenario {
            Scenario::Opt => opt_compile,
            Scenario::Adapt => baseline_compile + opt_compile,
        },
        baseline_compile_cycles: baseline_compile,
        opt_compile_cycles: opt_compile,
        first_iter_exec_cycles: first_iter_exec,
        steady,
        code_size: state.total_code_size(),
        inline_stats: state.aggregate_inline_stats(),
        n_opt_methods: n_opt,
        n_baseline_methods: state.compiled.len() - n_opt,
    }
}

fn assert_same(got: &Measurement, want: &Measurement, what: &str) {
    assert_eq!(got, want, "{what}");
    for (g, w) in [
        (got.total_cycles, want.total_cycles),
        (got.running_cycles, want.running_cycles),
        (got.compile_cycles, want.compile_cycles),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}");
    }
}

/// Loops deep and long enough that the adaptive controller finds methods
/// worth recompiling.
fn gen_cfg() -> GenConfig {
    GenConfig {
        max_block_stmts: 5,
        max_trips: 30,
        ..GenConfig::default()
    }
}

fn random_params(rng: &mut Rng) -> InlineParams {
    let genes: Vec<i64> = ParamRanges::paper()
        .bounds
        .iter()
        .map(|&(lo, hi)| rng.range_i64(lo, hi))
        .collect();
    InlineParams::from_genes(&genes)
}

fn random_adapt_cfg(rng: &mut Rng) -> AdaptConfig {
    AdaptConfig {
        warmup_fraction: rng.f64_range(0.0, 0.5),
        horizon_iters: *rng.choose(&[6.0, 100.0, 1e4]),
        hot_site_fraction: *rng.choose(&[0.05, 0.3]),
    }
}

/// 256 random programs × 33 random genomes × both architectures under one
/// scenario (one test per scenario, so the two run side by side). Returns
/// how many methods the measurements opt-compiled in all.
fn measure_matches_reference(property: &str, scenario: Scenario) -> usize {
    let mut targets = 0usize;
    cases(property, |rng| {
        let program = random_program(rng, &gen_cfg());
        let cfg = random_adapt_cfg(rng);
        // The genome under test, then the 32 that warm the memo before it.
        let genomes: Vec<InlineParams> = (0..33).map(|_| random_params(rng)).collect();
        for arch in [ArchModel::pentium4(), ArchModel::powerpc_g4()] {
            let want: Vec<Measurement> = genomes
                .iter()
                .map(|g| reference(&program, scenario, &arch, g, &cfg))
                .collect();
            let ctx = Prepared::new(&program, scenario, &arch, &cfg);
            targets += want[0].n_opt_methods;

            // Cold: no memo, then an empty one.
            assert_same(&ctx.measure(&program, &genomes[0]), &want[0], "no memo");
            let memo = ctx.new_memo();
            let cold = ctx.measure_memo(&program, &genomes[0], &memo);
            assert_same(&cold, &want[0], "empty memo");
            assert_eq!(memo.stats().hits, 0);

            // Warm: the other 32 first, then the genome again.
            for (g, w) in genomes.iter().zip(&want).skip(1) {
                assert_same(&ctx.measure_memo(&program, g, &memo), w, "warming");
            }
            let warm = ctx.measure_memo(&program, &genomes[0], &memo);
            assert_same(&warm, &want[0], "warmed memo");

            // Any order, from four threads sharing one memo.
            let memo = ctx.new_memo();
            let start = Barrier::new(4);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let mut order: Vec<usize> = (0..genomes.len()).collect();
                    rng.shuffle(&mut order);
                    let (ctx, memo, start) = (&ctx, &memo, &start);
                    let (program, genomes, want) = (&program, &genomes, &want);
                    s.spawn(move || {
                        start.wait();
                        for i in order {
                            let got = ctx.measure_memo(program, &genomes[i], memo);
                            assert_same(&got, &want[i], "shuffled, threaded");
                        }
                    });
                }
            });
            let MemoStats { hits, misses, .. } = memo.stats();
            assert_eq!(
                hits + misses,
                (4 * genomes.len() * want[0].n_opt_methods) as u64
            );
        }
    });
    targets
}

#[test]
fn prepared_opt_measure_matches_the_one_shot_reference() {
    measure_matches_reference(
        "prepared_opt_measure_matches_the_one_shot_reference",
        Scenario::Opt,
    );
}

#[test]
fn prepared_adapt_measure_matches_the_one_shot_reference() {
    let recompiled = measure_matches_reference(
        "prepared_adapt_measure_matches_the_one_shot_reference",
        Scenario::Adapt,
    );
    // The suite means little if the controller never recompiles.
    assert!(recompiled > 256, "only {recompiled} methods recompiled");
}

/// The fourteen benchmark programs, each measured through a memo under
/// the Jikes default, the aggressive `[40,25,12,4000,400]` and three
/// seeded paper-range genomes, under `Opt` and `Adapt` (where the plan's
/// hot sites reach the inliner) on x86-p4: every measurement equals the
/// one-shot reference. A miss compiles without building the inlined
/// body, so this fences that path on the programs a search measures.
#[test]
fn every_benchmark_program_measures_as_the_one_shot_reference() {
    let mut rng = simrng::child_rng(2005, "every_benchmark_program");
    let mut genomes = vec![
        InlineParams::jikes_default(),
        InlineParams::from_genes(&[40, 25, 12, 4000, 400]),
    ];
    genomes.extend((0..3).map(|_| random_params(&mut rng)));
    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    let suite = workloads::all_benchmarks();
    assert_eq!(suite.len(), 14);
    for bench in &suite {
        let program = &bench.program;
        for scenario in [Scenario::Opt, Scenario::Adapt] {
            let ctx = Prepared::new(program, scenario, &arch, &cfg);
            let memo = ctx.new_memo();
            for g in &genomes {
                let what = format!("{} {scenario:?} {g}", bench.spec.name);
                let want = reference(program, scenario, &arch, g, &cfg);
                assert_same(&ctx.measure_memo(program, g, &memo), &want, &what);
            }
            assert!(memo.stats().misses > 0, "{}", bench.spec.name);
        }
    }
}

fn with_gene(p: &InlineParams, gene: usize, value: u32) -> InlineParams {
    let mut genes = p.to_genes();
    genes[gene] = i64::from(value);
    InlineParams::from_genes(&genes)
}

#[test]
fn every_genome_in_a_decision_region_inlines_identically() {
    let mut narrowed_faces = 0usize;
    cases(
        "every_genome_in_a_decision_region_inlines_identically",
        |rng| {
            let program = random_program(rng, &gen_cfg());
            let id = MethodId(rng.below(program.methods.len() as u64) as u32);
            let params = random_params(rng);
            let hot: HotSites = program
                .methods
                .iter()
                .flat_map(|m| ir::stmt::call_sites(&m.body))
                .map(|c| c.site)
                .filter(|_| rng.chance(0.3))
                .collect();

            let (method, stats, region) = inline_method_region(&program, id, &params, &hot);
            let (_, _, decisions) = inline_method_traced(&program, id, &params, &hot);
            assert!(region.contains(&params));
            let DecisionRegion { lo, hi } = region;

            // Every corner and 32 interior points decide and inline alike.
            let corners = (0..32u32).map(|corner| {
                let pick = |i: usize| i64::from(if corner >> i & 1 == 0 { lo[i] } else { hi[i] });
                InlineParams::from_genes(&[pick(0), pick(1), pick(2), pick(3), pick(4)])
            });
            let interior: Vec<InlineParams> = (0..32)
                .map(|_| {
                    let pick =
                        |i: usize, rng: &mut Rng| rng.range_i64(i64::from(lo[i]), i64::from(hi[i]));
                    InlineParams::from_genes(&[
                        pick(0, rng),
                        pick(1, rng),
                        pick(2, rng),
                        pick(3, rng),
                        pick(4, rng),
                    ])
                })
                .collect();
            for inside in corners.chain(interior) {
                assert!(region.contains(&inside));
                let (m, s, d) = inline_method_traced(&program, id, &inside, &hot);
                assert_eq!(d, decisions, "{inside} vs {params}");
                assert_eq!(m, method, "{inside} vs {params}");
                assert_eq!(s, stats);
                assert_eq!(inline_method_region(&program, id, &inside, &hot).2, region);
            }

            // One step outside any face a test narrowed, some decision
            // changes: the box is as large as it can be on that side.
            for gene in 0..5 {
                let mut outside = Vec::new();
                if lo[gene] > 0 {
                    outside.push(lo[gene] - 1);
                }
                if hi[gene] < u32::MAX {
                    outside.push(hi[gene] + 1);
                }
                for value in outside {
                    narrowed_faces += 1;
                    let other = with_gene(&params, gene, value);
                    assert!(!region.contains(&other));
                    let (_, _, d) = inline_method_traced(&program, id, &other, &hot);
                    assert_ne!(d, decisions, "gene {gene} = {value} vs {params}");
                }
            }
        },
    );
    assert!(narrowed_faces > 256, "only {narrowed_faces} faces narrowed");
}

/// `main` calls ten leaf methods of ten different sizes once each, so ten
/// values of `CALLEE_MAX_SIZE` decide `main` ten different ways.
fn ten_callee_sizes() -> (Program, Vec<InlineParams>) {
    let mut pb = ProgramBuilder::new("ten");
    let mut main = MethodBuilder::new("main", 0);
    let mut acc = main.op(OpKind::Mov, 1i64, 0i64);
    let mut sizes = Vec::new();
    for i in 0..10u32 {
        let mut leaf = MethodBuilder::new(format!("leaf{i}"), 1);
        let mut v = leaf.param(0);
        for _ in 0..=2 * i {
            v = leaf.op(OpKind::Add, v, 1i64);
        }
        leaf.ret(v);
        let id = pb.add(leaf);
        let site = pb.fresh_site();
        acc = main.call(site, id, vec![acc.into()], true).unwrap();
        sizes.push(id);
    }
    main.ret(acc);
    let main = pb.add(main);
    pb.entry(main);
    let program = pb.build().unwrap();
    let genomes = sizes
        .iter()
        .map(|&id| InlineParams {
            callee_max_size: ir::size::method_size(program.method(id)),
            always_inline_size: 0,
            max_inline_depth: 5,
            caller_max_size: 4000,
            hot_callee_max_size: 0,
        })
        .collect();
    (program, genomes)
}

#[test]
fn the_ninth_region_of_a_method_evicts_the_first() {
    let (program, genomes) = ten_callee_sizes();
    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    let ctx = Prepared::new(&program, Scenario::Opt, &arch, &cfg);
    let memo = ctx.new_memo();
    let n = program.methods.len() as u64;

    let first = ctx.measure_memo(&program, &genomes[0], &memo);
    assert_eq!(
        memo.stats(),
        MemoStats {
            hits: 0,
            misses: n,
            evictions: 0
        }
    );
    // Each further genome decides `main` anew; the leaves make no
    // decision, so their one region holds every genome.
    for (k, g) in genomes.iter().enumerate().take(UNITS_PER_METHOD).skip(1) {
        let _ = ctx.measure_memo(&program, g, &memo);
        assert_eq!(memo.stats().misses, n + k as u64);
        assert_eq!(memo.stats().evictions, 0);
    }
    // All eight are still there.
    assert_same(
        &ctx.measure_memo(&program, &genomes[0], &memo),
        &first,
        "held",
    );
    let before = memo.stats();
    assert_eq!(before.misses, n + UNITS_PER_METHOD as u64 - 1);

    // The ninth evicts the first, and only that one.
    let _ = ctx.measure_memo(&program, &genomes[UNITS_PER_METHOD], &memo);
    assert_eq!(memo.stats().evictions, 1);
    let _ = ctx.measure_memo(&program, &genomes[1], &memo);
    assert_eq!(memo.stats().misses, before.misses + 1);

    // The evicted genome is compiled again, to the identical measurement.
    let again = ctx.measure_memo(&program, &genomes[0], &memo);
    assert_same(&again, &first, "after eviction");
    assert_same(
        &again,
        &reference(&program, Scenario::Opt, &arch, &genomes[0], &cfg),
        "after eviction, vs reference",
    );
    assert_eq!(
        memo.stats(),
        MemoStats {
            misses: before.misses + 2,
            evictions: 2,
            ..memo.stats()
        }
    );
}

#[test]
fn two_tuners_over_one_cell_share_no_unit() {
    use inlinetune::prelude::*;
    let task = TuningTask {
        name: "Adapt".into(),
        scenario: Scenario::Adapt,
        goal: Goal::Balance,
        arch: ArchModel::pentium4(),
    };
    let training = vec![benchmark_by_name("db").unwrap()];
    let genome = InlineParams::from_genes(&[30, 8, 3, 900, 200]);

    let first = Tuner::new(task.clone(), training.clone(), AdaptConfig::default());
    assert_eq!(first.memo_stats(), MemoStats::default());
    let fitness = first.fitness(&genome);
    let cold = first.memo_stats();
    assert!(cold.misses > 0);
    assert_eq!(cold.hits, 0);
    assert_eq!(first.fitness(&genome).to_bits(), fitness.to_bits());
    assert_eq!(first.memo_stats().hits, cold.misses);

    // A second tuner over the same cell starts from nothing.
    let second = Tuner::new(task, training, AdaptConfig::default());
    assert_eq!(second.memo_stats(), MemoStats::default());
    assert_eq!(second.fitness(&genome).to_bits(), fitness.to_bits());
    assert_eq!(second.memo_stats(), cold);
}

/// Fitness bits of the 64 flag genomes, `[preset, const_prop, dce,
/// fixpoint, opt]` counted in binary with `opt` the lowest digit, on
/// `[db, jess]` under `Goal::Total` on x86-p4.
#[rustfmt::skip]
const FLAGS_TOTAL_P4: [u64; 64] = [
    0x3ff800a61cd7ca5c, 0x3ff2edf13f338536, 0x3ff800a61cd7ca5c, 0x3ff2edf13f338536,
    0x3ff800a61cd7ca5c, 0x3ff28685b153a365, 0x3ff800a61cd7ca5c, 0x3ff285b80d74e982,
    0x3ff800a61cd7ca5c, 0x3ff2edf13f338536, 0x3ff800a61cd7ca5c, 0x3ff2edf13f338536,
    0x3ff800a61cd7ca5c, 0x3ff28685b153a365, 0x3ff800a61cd7ca5c, 0x3ff285b80d74e982,
    0x3ff800a61cd7ca5c, 0x3fef56b55026de0f, 0x3ff800a61cd7ca5c, 0x3fef56b55026de0f,
    0x3ff800a61cd7ca5c, 0x3fee478c5b748824, 0x3ff800a61cd7ca5c, 0x3fedf54037f8f4b1,
    0x3ff800a61cd7ca5c, 0x3fef56b55026de0f, 0x3ff800a61cd7ca5c, 0x3fef56b55026de0f,
    0x3ff800a61cd7ca5c, 0x3fee478c5b748824, 0x3ff800a61cd7ca5c, 0x3fedf54037f8f4b1,
    0x3ff800a61cd7ca5c, 0x3ff103ecd2a58647, 0x3ff800a61cd7ca5c, 0x3ff103ecd2a58647,
    0x3ff800a61cd7ca5c, 0x3ff0875650bf82fd, 0x3ff800a61cd7ca5c, 0x3ff0000000000000,
    0x3ff800a61cd7ca5c, 0x3ff103ecd2a58647, 0x3ff800a61cd7ca5c, 0x3ff103ecd2a58647,
    0x3ff800a61cd7ca5c, 0x3ff0875650bf82fd, 0x3ff800a61cd7ca5c, 0x3ff0000000000000,
    0x3ff800a61cd7ca5c, 0x40129e00eb8e95b0, 0x3ff800a61cd7ca5c, 0x40129e00eb8e95b0,
    0x3ff800a61cd7ca5c, 0x4012599c6d3d5f20, 0x3ff800a61cd7ca5c, 0x4011f455021963fd,
    0x3ff800a61cd7ca5c, 0x40129e00eb8e95b0, 0x3ff800a61cd7ca5c, 0x40129e00eb8e95b0,
    0x3ff800a61cd7ca5c, 0x4012599c6d3d5f20, 0x3ff800a61cd7ca5c, 0x4011f455021963fd,
];

/// The same genomes under `Goal::Balance` on ppc-g4.
#[rustfmt::skip]
const FLAGS_BALANCE_G4: [u64; 64] = [
    0x4003a0a572db3f46, 0x3ff6ca62200b8348, 0x4003a0a572db3f46, 0x3ff6ca62200b8348,
    0x4003a0a572db3f46, 0x3ff5fd68ab40460f, 0x4003a0a572db3f46, 0x3ff5fafc0fb55c30,
    0x4003a0a572db3f46, 0x3ff6ca62200b8348, 0x4003a0a572db3f46, 0x3ff6ca62200b8348,
    0x4003a0a572db3f46, 0x3ff5fd68ab40460f, 0x4003a0a572db3f46, 0x3ff5fafc0fb55c30,
    0x4003a0a572db3f46, 0x3ff2ab52796da296, 0x4003a0a572db3f46, 0x3ff2ab52796da296,
    0x4003a0a572db3f46, 0x3ff19a3fbdd16f72, 0x4003a0a572db3f46, 0x3ff1641711aa2a98,
    0x4003a0a572db3f46, 0x3ff2ab52796da296, 0x4003a0a572db3f46, 0x3ff2ab52796da296,
    0x4003a0a572db3f46, 0x3ff19a3fbdd16f72, 0x4003a0a572db3f46, 0x3ff1641711aa2a98,
    0x4003a0a572db3f46, 0x3ff1ee15a8382439, 0x4003a0a572db3f46, 0x3ff1ee15a8382439,
    0x4003a0a572db3f46, 0x3ff0d26bb146ba10, 0x4003a0a572db3f46, 0x3ff0000000000000,
    0x4003a0a572db3f46, 0x3ff1ee15a8382439, 0x4003a0a572db3f46, 0x3ff1ee15a8382439,
    0x4003a0a572db3f46, 0x3ff0d26bb146ba10, 0x4003a0a572db3f46, 0x3ff0000000000000,
    0x4003a0a572db3f46, 0x400bd94476f63eea, 0x4003a0a572db3f46, 0x400bd94476f63eea,
    0x4003a0a572db3f46, 0x400aee2d484d367a, 0x4003a0a572db3f46, 0x4009e061330933e7,
    0x4003a0a572db3f46, 0x400bd94476f63eea, 0x4003a0a572db3f46, 0x400bd94476f63eea,
    0x4003a0a572db3f46, 0x400aee2d484d367a, 0x4003a0a572db3f46, 0x4009e061330933e7,
];

/// The flag-selection problem measures through a `Prepared` context under
/// the pass set its genes select, and through `jit::measure_baseline`
/// with the optimizing compiler off. Every genome's fitness is pinned bit
/// for bit: the flag study's results rest on them.
#[test]
fn every_flags_genome_scores_its_pinned_fitness() {
    use inlinetune::prelude::*;
    use problems::{FlagsProblem, Problem};
    let suite = vec![
        benchmark_by_name("db").unwrap(),
        benchmark_by_name("jess").unwrap(),
    ];
    for (goal, arch, want) in [
        (Goal::Total, ArchModel::pentium4(), &FLAGS_TOTAL_P4),
        (Goal::Balance, ArchModel::powerpc_g4(), &FLAGS_BALANCE_G4),
    ] {
        let task = TuningTask {
            name: "flags".into(),
            scenario: Scenario::Opt,
            goal,
            arch,
        };
        let problem = FlagsProblem::new(task, suite.clone());
        for (i, &bits) in want.iter().enumerate() {
            let i = i as i64;
            let genome = [i / 16, i / 8 % 2, i / 4 % 2, i / 2 % 2, i % 2];
            let got = problem.fitness(&genome).to_bits();
            assert_eq!(
                got, bits,
                "{goal:?} {genome:?}: {got:#018x} != {bits:#018x}"
            );
        }
    }
}
