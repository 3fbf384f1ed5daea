//! Build your own program with the IR builder, run it through the JIT
//! simulator, and specialize a heuristic for it (the paper's §6.5
//! per-program tuning, on a program the suites have never seen).
//!
//! The program models a tiny JSON-ish tokenizer: a dispatch loop over a
//! buffer, per-token handler methods, and a deep chain of character
//! utilities.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use inlinetune::prelude::*;
use ir::builder::{MethodBuilder, ProgramBuilder};
use ir::op::OpKind;

/// Hand-build the tokenizer program.
fn tokenizer() -> ir::Program {
    let mut pb = ProgramBuilder::new("tokenizer");

    // Character utilities: a chain is_space -> to_lower -> class_of.
    let mut class_of = MethodBuilder::new("class_of", 1);
    let c = class_of.op(OpKind::And, class_of.param(0), 0x7fi64);
    let cls = class_of.op(OpKind::Shr, c, 4i64);
    class_of.ret(cls);
    let class_of_id = pb.add(class_of);

    let mut to_lower = MethodBuilder::new("to_lower", 1);
    let low = to_lower.op(OpKind::Or, to_lower.param(0), 0x20i64);
    let site = pb.fresh_site();
    let cls = to_lower
        .call(site, class_of_id, vec![low.into()], true)
        .unwrap();
    let merged = to_lower.op(OpKind::Xor, low, cls);
    to_lower.ret(merged);
    let to_lower_id = pb.add(to_lower);

    // Token handlers: each consumes a few characters.
    let mut handler_ids = Vec::new();
    for h in 0..6 {
        let mut handler = MethodBuilder::new(format!("handle{h}"), 1);
        let mut acc = handler.param(0);
        handler.begin_loop(4 + h);
        let ch = handler.op(OpKind::Load, acc, 0i64);
        let site = pb.fresh_site();
        let low = handler
            .call(site, to_lower_id, vec![ch.into()], true)
            .unwrap();
        acc = handler.op(OpKind::Add, acc, low);
        handler.end();
        handler.ret(acc);
        handler_ids.push(pb.add(handler));
    }

    // The dispatch loop.
    let mut main = MethodBuilder::new("main", 0);
    let cursor = main.op(OpKind::Mov, 1i64, 0i64);
    main.begin_loop(30_000);
    let tok = main.op(OpKind::Load, cursor, 0i64);
    let mut v = tok;
    for (i, &h) in handler_ids.iter().enumerate() {
        main.begin_if(v, 1.0 / (i as f64 + 2.0));
        let site = pb.fresh_site();
        let r = main.call(site, h, vec![v.into()], true).unwrap();
        main.op_into(OpKind::Mov, cursor, r, 0i64);
        main.end();
        v = main.op(OpKind::Shr, v, 1i64);
    }
    main.end();
    main.ret(cursor);
    let main_id = pb.add(main);
    pb.entry(main_id);
    pb.build().expect("tokenizer program validates")
}

fn main() {
    let program = tokenizer();
    println!(
        "hand-built `{}`: {} methods, {} call sites",
        program.name,
        program.method_count(),
        program.call_site_count()
    );
    // The IR is executable: run it through the reference interpreter.
    let out = ir::interp::run(&program, &[], &ir::interp::InterpLimits::default())
        .expect("tokenizer runs");
    println!(
        "interpreted: value {}, {} semantic steps, {} dynamic calls",
        out.value, out.fuel_used, out.calls_executed
    );

    let arch = ArchModel::pentium4();
    let cfg = AdaptConfig::default();
    let default = measure(
        &program,
        Scenario::Opt,
        &arch,
        &InlineParams::jikes_default(),
        &cfg,
    );
    println!(
        "\nJikes default under Opt: running {:.3}ms, total {:.3}ms",
        default.running_seconds(&arch) * 1e3,
        default.total_seconds(&arch) * 1e3
    );

    // Specialize a heuristic for this one program (paper §6.5).
    let ranges = ga::Ranges::new(ParamRanges::paper_opt_only().bounds.to_vec());
    let mut strategy = search::Ga::new(
        ranges,
        GaConfig {
            pop_size: 16,
            generations: 40,
            stagnation_limit: Some(15),
            seed: 99,
            threads: 1,
            ..GaConfig::default()
        },
    );
    let backend = LocalEvaluator::new(
        |genes: &[i64]| {
            let params = InlineParams::from_genes(genes);
            measure(&program, Scenario::Opt, &arch, &params, &cfg).running_cycles
                / default.running_cycles
        },
        1,
    );
    search::drive(&mut strategy, &backend);
    let (best_genome, _) = search::finish(&strategy).expect("40 generations ran");
    let tuned = InlineParams::from_genes(&best_genome);
    let best = measure(&program, Scenario::Opt, &arch, &tuned, &cfg);
    println!(
        "specialized params {}\n  running {:.3}ms ({:.1}% faster than the default heuristic)",
        tuned,
        best.running_seconds(&arch) * 1e3,
        100.0 * (1.0 - best.running_cycles / default.running_cycles)
    );

    // Inlining must never change what the program computes: verify on the
    // actual inlined bodies.
    let (inlined, _) = inliner::inline_program(
        &program,
        &tuned,
        &inliner::HotSites::new(),
        &program.methods.iter().map(|m| m.id).collect::<Vec<_>>(),
    );
    let out2 = ir::interp::run(&inlined, &[], &ir::interp::InterpLimits::default())
        .expect("inlined tokenizer runs");
    assert_eq!(out.value, out2.value, "inlining preserved semantics");
    assert!(out2.calls_executed <= out.calls_executed);
    println!(
        "semantics check: value identical, dynamic calls {} -> {}",
        out.calls_executed, out2.calls_executed
    );
}
