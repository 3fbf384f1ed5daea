//! Benchmarks the GA machinery: operators in isolation and whole runs on
//! a cheap landscape (so engine overhead dominates, not the fitness).

use criterion::{criterion_group, criterion_main, Criterion};
use ga::{GaConfig, GaState, Ranges};
use simrng::Rng;

fn ranges() -> Ranges {
    Ranges::new(vec![(1, 50), (1, 30), (1, 15), (1, 4000), (1, 400)])
}

fn bench_ga(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga");
    group.bench_function("operators/breed_1000", |b| {
        let r = ranges();
        let mut rng = Rng::seed_from_u64(1);
        let pop: Vec<Vec<i64>> = (0..20).map(|_| r.random(&mut rng)).collect();
        let fitness: Vec<f64> = (0..20).map(|i| i as f64).collect();
        b.iter(|| {
            let mut acc = 0i64;
            for _ in 0..1000 {
                let pa = ga::ops::tournament(&fitness, 2, &mut rng);
                let pb = ga::ops::tournament(&fitness, 2, &mut rng);
                let (mut x, y) = ga::ops::one_point_crossover(&pop[pa], &pop[pb], &mut rng);
                ga::ops::mutate(&mut x, &r, 0.25, &mut rng);
                acc = acc.wrapping_add(x[0]).wrapping_add(y[4]);
            }
            acc
        });
    });
    group.bench_function("engine/sphere_20x50", |b| {
        b.iter(|| {
            let mut state = GaState::new(
                ranges(),
                GaConfig {
                    pop_size: 20,
                    generations: 50,
                    stagnation_limit: None,
                    threads: 1,
                    seed: 5,
                    ..GaConfig::default()
                },
            );
            while !state.step(|g| g.iter().map(|&v| (v - 7) as f64 * (v - 7) as f64).sum()) {}
            state.result()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ga);
criterion_main!(benches);
