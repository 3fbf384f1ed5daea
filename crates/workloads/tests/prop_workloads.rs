//! Property-based tests of the synthetic-benchmark generator: any
//! reasonable spec must yield a valid, fully reachable, analyzable
//! program, deterministically.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use simrng::{cases, Rng};
use workloads::{generate, BenchmarkSpec, OpMix, Suite};

fn arb_spec(rng: &mut Rng) -> BenchmarkSpec {
    let n_layers = 1 + rng.below(7) as u32;
    BenchmarkSpec {
        name: "prop",
        description: "property-generated spec",
        suite: Suite::SpecJvm98,
        n_workers: (8 + rng.below(112) as u32).max(n_layers),
        n_accessors: rng.below(40) as u32,
        n_layers,
        body_median_ops: rng.f64_range(4.0, 20.0),
        body_sigma: rng.f64_range(0.3, 1.5),
        fanout_mean: rng.f64_range(0.5, 3.5),
        hot_skew: rng.f64_range(0.6, 2.0),
        n_phases: 1 + rng.below(4) as u32,
        driver_iters: 1 + rng.below(19) as u32,
        phase_trips: 1 + rng.below(19) as u32,
        kernel_prob: rng.f64_range(0.0, 0.8),
        kernel_trips: 1 + rng.below(79) as u32,
        call_in_loop_prob: rng.f64_range(0.0, 0.6),
        cold_branch_prob: rng.f64_range(0.0, 0.5),
        mix: *rng.choose(&[OpMix::INT, OpMix::MEM, OpMix::FLOAT, OpMix::BYTES]),
    }
}

#[test]
fn any_reasonable_spec_generates_a_sound_program() {
    cases("any_reasonable_spec_generates_a_sound_program", |rng| {
        let spec = arb_spec(rng);
        let p = generate(&spec, rng.next_u64());
        // Structurally valid with unique fresh call sites.
        assert!(ir::validate::validate(&p).is_empty());
        assert!(ir::validate::check_unique_sites(&p).is_empty());
        // Exactly the promised population, all of it reachable.
        assert_eq!(p.method_count() as u32, spec.total_methods());
        assert_eq!(p.reachable().len(), p.method_count());
        // The analytic profile must converge (no undamped recursion).
        let fa = ir::freq::analyze(&p, 1.0);
        assert!(fa.converged);
        // Every reachable method is actually entered.
        for m in &p.methods {
            assert!(fa.entry_count(m.id) > 0.0, "{} never entered", m.name);
        }
    });
}

#[test]
fn generation_is_a_pure_function_of_spec_and_seed() {
    cases("generation_is_a_pure_function_of_spec_and_seed", |rng| {
        let spec = arb_spec(rng);
        let seed = rng.next_u64();
        let a = generate(&spec, seed);
        let b = generate(&spec, seed);
        assert_eq!(&a, &b);
        let c = generate(&spec, seed.wrapping_add(1));
        assert_ne!(&a, &c);
    });
}

#[test]
fn accessors_stay_inside_the_inline_band() {
    cases("accessors_stay_inside_the_inline_band", |rng| {
        let spec = arb_spec(rng);
        let p = generate(&spec, rng.next_u64());
        for m in p.methods.iter().take(spec.n_accessors as usize) {
            let size = ir::size::method_size(m);
            assert!(size <= 26, "accessor {} has size {size}", m.name);
        }
    });
}

#[test]
fn cost_model_accepts_any_generated_program() {
    cases("cost_model_accepts_any_generated_program", |rng| {
        let spec = arb_spec(rng);
        let p = generate(&spec, rng.next_u64());
        let arch = jit::ArchModel::pentium4();
        let cfg = jit::AdaptConfig::default();
        let params = inliner::InlineParams::jikes_default();
        for scenario in [jit::Scenario::Opt, jit::Scenario::Adapt] {
            let m = jit::measure(&p, scenario, &arch, &params, &cfg);
            assert!(m.total_cycles.is_finite() && m.total_cycles > 0.0);
            assert!(m.running_cycles.is_finite() && m.running_cycles > 0.0);
        }
    });
}
