//! Calibration probe: prints the compile/run balance of every benchmark
//! under both scenarios and architectures, with inlining on (Jikes
//! defaults) and off. Development tool for checking that the paper's
//! qualitative shapes hold before running the full experiment suite.

use inliner::InlineParams;
use jit::{AdaptConfig, ArchModel, Prepared, Scenario};
use workloads::all_benchmarks;

fn diagnostics() {
    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    for name in ["jess", "antlr", "compress", "raytrace"] {
        let b = workloads::benchmark_by_name(name).unwrap();
        let p = &b.program;
        // size histogram
        let mut sizes: Vec<u32> = p.methods.iter().map(ir::size::method_size).collect();
        sizes.sort_unstable();
        let pct = |q: f64| sizes[(q * (sizes.len() - 1) as f64) as usize];
        let def = InlineParams::jikes_default();
        let off = InlineParams::disabled();
        let opt = Prepared::new(p, Scenario::Opt, &arch, &cfg);
        let m_def = opt.measure(p, &def);
        let m_off = opt.measure(p, &off);
        let st = &m_def.inline_stats;
        println!(
            "{name}: sizes p10={} p50={} p90={} p99={} max={} | considered={} inlined={} always={} rej[size={} depth={} caller={} rec={}] | code {} -> {} ({:.2}x)",
            pct(0.1), pct(0.5), pct(0.9), pct(0.99), sizes.last().unwrap(),
            st.considered, st.inlined, st.always_inlined,
            st.rej_callee_size, st.rej_depth, st.rej_caller_size, st.rej_recursive,
            m_off.code_size, m_def.code_size,
            m_def.code_size as f64 / m_off.code_size as f64,
        );
    }
}

fn depth_sweep() {
    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    for name in ["compress", "jess"] {
        let b = workloads::benchmark_by_name(name).unwrap();
        println!("--- {name}: total(run) seconds vs MAX_INLINE_DEPTH ---");
        for scenario in [Scenario::Opt, Scenario::Adapt] {
            print!("{scenario:>6}: ");
            let prepared = Prepared::new(&b.program, scenario, &arch, &cfg);
            for depth in 0..=10 {
                let params = InlineParams {
                    max_inline_depth: depth,
                    ..InlineParams::jikes_default()
                };
                let m = prepared.measure(&b.program, &params);
                print!(
                    "{:.3}({:.3}) ",
                    m.total_seconds(&arch),
                    m.running_seconds(&arch)
                );
            }
            println!();
        }
    }
}

fn tune_probe() {
    use tuner::{evaluate_suite, paper_tasks, Tuner};
    let cfg = AdaptConfig::default();
    let training = workloads::specjvm98();
    let test = workloads::dacapo_jbb();
    for task in paper_tasks() {
        let start = std::time::Instant::now();
        let t = Tuner::new(task.clone(), training.clone(), cfg);
        let outcome = t.tune(ga::GaConfig {
            pop_size: 20,
            generations: 60,
            stagnation_limit: Some(20),
            threads: 1,
            seed: 2005,
            ..ga::GaConfig::default()
        });
        let train_eval =
            evaluate_suite(&training, task.scenario, &task.arch, &outcome.params, &cfg);
        let test_eval = evaluate_suite(&test, task.scenario, &task.arch, &outcome.params, &cfg);
        println!(
            "{:<14} fitness={:.4} params={} | SPEC run -{:.0}% tot -{:.0}% | DaCapo run -{:.0}% tot -{:.0}% | {} evals, {} gens, {:.1}s",
            task.name,
            outcome.fitness,
            outcome.params,
            train_eval.running_reduction_pct(),
            train_eval.total_reduction_pct(),
            test_eval.running_reduction_pct(),
            test_eval.total_reduction_pct(),
            outcome.ga.evaluations,
            outcome.ga.history.len(),
            start.elapsed().as_secs_f64(),
        );
    }
}

fn adapt_diag() {
    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    let tuned = InlineParams::from_genes(
        &(std::env::args()
            .skip(2)
            .map(|a| a.parse().unwrap())
            .collect::<Vec<i64>>()),
    );
    for name in ["antlr", "jython", "pmd", "pseudojbb", "jess", "javac"] {
        let b = workloads::benchmark_by_name(name).unwrap();
        let adapt = Prepared::new(&b.program, Scenario::Adapt, &arch, &cfg);
        let d = adapt.measure(&b.program, &InlineParams::jikes_default());
        let t = adapt.measure(&b.program, &tuned);
        println!(
            "{name:<10} def: tot={:.1}ms run={:.1}ms optc={:.1}ms ic={:.2} code={} | tuned: tot={:.1}ms run={:.1}ms optc={:.1}ms ic={:.2} code={} | hot methods {}",
            arch.cycles_to_seconds(d.total_cycles)*1e3,
            arch.cycles_to_seconds(d.running_cycles)*1e3,
            arch.cycles_to_seconds(d.opt_compile_cycles)*1e3,
            d.steady.icache_factor, d.code_size,
            arch.cycles_to_seconds(t.total_cycles)*1e3,
            arch.cycles_to_seconds(t.running_cycles)*1e3,
            arch.cycles_to_seconds(t.opt_compile_cycles)*1e3,
            t.steady.icache_factor, t.code_size,
            d.n_opt_methods,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--adapt-diag") {
        adapt_diag();
        return;
    }
    if std::env::args().any(|a| a == "--tune") {
        tune_probe();
        return;
    }
    if std::env::args().any(|a| a == "--depth") {
        depth_sweep();
        return;
    }
    if std::env::args().any(|a| a == "--diag") {
        diagnostics();
        return;
    }
    let arches = [ArchModel::pentium4(), ArchModel::powerpc_g4()];
    let cfg = AdaptConfig::default();
    for arch in &arches {
        println!("=== {} ===", arch.name);
        println!(
            "{:<10} {:>5} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6} | {:>6} {:>6} | {:>6} {:>6} | {:>5} {:>5} {:>5}",
            "bench", "mthds",
            "opt:run", "opt:comp", "c/t%",
            "ad:run", "ad:comp", "c/t%",
            "oR rel", "oT rel", "aR rel", "aT rel", "call%", "cmpR", "ic$"
        );
        println!("(extra cols: call-cycle share of no-inline running | compile def/off | icache factor def)");
        for b in all_benchmarks() {
            let p = &b.program;
            let def = InlineParams::jikes_default();
            let off = InlineParams::disabled();
            let opt = Prepared::new(p, Scenario::Opt, arch, &cfg);
            let adapt = Prepared::new(p, Scenario::Adapt, arch, &cfg);
            let o_def = opt.measure(p, &def);
            let o_off = opt.measure(p, &off);
            let a_def = adapt.measure(p, &def);
            let a_off = adapt.measure(p, &off);
            let ms = |c: f64| arch.cycles_to_seconds(c) * 1e3;
            let call_share = 100.0 * o_off.steady.call_cycles
                / (o_off.steady.call_cycles + o_off.steady.op_cycles);
            println!(
                "{:<10} {:>5} | {:>8.1}ms {:>8.1}ms {:>5.1}% | {:>8.1}ms {:>8.1}ms {:>5.1}% | {:>6.3} {:>6.3} | {:>6.3} {:>6.3} | {:>5.1}% {:>5.2} {:>5.2}",
                b.name(),
                p.method_count(),
                ms(o_def.running_cycles),
                ms(o_def.compile_cycles),
                100.0 * o_def.compile_cycles / o_def.total_cycles,
                ms(a_def.running_cycles),
                ms(a_def.compile_cycles),
                100.0 * a_def.compile_cycles / a_def.total_cycles,
                o_def.running_cycles / o_off.running_cycles,
                o_def.total_cycles / o_off.total_cycles,
                a_def.running_cycles / a_off.running_cycles,
                a_def.total_cycles / a_off.total_cycles,
                call_share,
                o_def.compile_cycles / o_off.compile_cycles,
                o_def.steady.icache_factor,
            );
        }
    }
}

// (Inline diagnostics appended during calibration.)
#[allow(dead_code)]
fn unused() {}
