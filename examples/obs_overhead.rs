//! Measures what the observability layer costs the local eval loop.
//!
//! Runs one deterministic tuning job in-process and prints a JSON line
//! with the elapsed wall time and whether recording was compiled out.
//! `scripts/bench.sh` runs this binary twice — once as built normally,
//! once with `--features inlinetune-obs/off` (every counter/histogram/
//! span call const-folded to a no-op) — and asserts the difference
//! stays under 2% of the eval loop.
//!
//! ```sh
//! cargo run --release --example obs_overhead -- [POP] [GENS] [SEED] [REPS]
//! ```
//!
//! The job runs `REPS` times in one process and the minimum elapsed time
//! is reported: back-to-back in-process repetitions share warm caches
//! and a settled CPU frequency, so their minimum is a far more stable
//! estimator than one cold process run.

use inlinetune::obs;
use inlinetune::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut num =
        |default: usize| -> usize { args.next().and_then(|a| a.parse().ok()).unwrap_or(default) };
    let pop = num(16);
    let gens = num(8);
    let seed = num(7) as u64;
    let reps = num(3).max(1);

    let task = TuningTask {
        name: "Opt:Tot".into(),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: ArchModel::pentium4(),
    };
    let tuner = Tuner::new(task, specjvm98(), AdaptConfig::default());
    let ga = GaConfig {
        pop_size: pop,
        generations: gens,
        threads: 1,
        seed,
        stagnation_limit: None,
        ..GaConfig::default()
    };

    let mut min_elapsed = u128::MAX;
    let mut fitness_bits = 0u64;
    let mut evaluations = 0usize;
    for rep in 0..reps {
        let started = std::time::Instant::now();
        let outcome = tuner.tune(ga.clone());
        let elapsed = started.elapsed().as_micros();
        min_elapsed = min_elapsed.min(elapsed);

        let bits = outcome.fitness.to_bits();
        if rep == 0 {
            fitness_bits = bits;
            evaluations = outcome.ga.evaluations;
        } else {
            assert_eq!(bits, fitness_bits, "repetition changed the result");
        }
    }

    // One line of JSON for scripts to scrape. The fitness is printed so
    // the on/off runs can be checked for bit-identity: observability
    // must never change results.
    println!(
        "{{\"elapsed_micros\":{min_elapsed},\"obs_compiled_out\":{},\"evaluations\":{evaluations},\"fitness_bits\":\"{fitness_bits:016x}\"}}",
        obs::recording_compiled_out(),
    );
}
