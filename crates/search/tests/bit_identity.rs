//! Regression: the GA behind the `Strategy` trait must reproduce the
//! legacy `ga::GaState` run *exactly* — same seed, same best genome,
//! same per-generation fitness trace, same counters — so the search
//! seam cannot silently change published experiment numbers. Both
//! sides share the engine's ask/tell code, so the run is also pinned to
//! constants recorded before they did.

use ga::{GaConfig, GaState, LocalEvaluator, Ranges};
use search::{drive, restore, round};

/// The paper's Adapt-scenario bounds.
fn paper_ranges() -> Ranges {
    Ranges::new(vec![(1, 50), (1, 30), (1, 15), (1, 4000), (1, 400)])
}

/// A deterministic stand-in for the simulator's fitness surface, with
/// interactions between genes so the GA's trajectory is non-trivial.
fn fitness(g: &[i64]) -> f64 {
    let (a, b, c, d, e) = (
        g[0] as f64,
        g[1] as f64,
        g[2] as f64,
        g[3] as f64,
        g[4] as f64,
    );
    let size_term = ((a - 29.0) / 50.0).powi(2) + ((b - 17.0) / 30.0).powi(2);
    let depth_term = ((c - 6.0) / 15.0).powi(2);
    let cascade = ((d - 1500.0) / 4000.0).powi(2) * (1.0 + ((e - 150.0) / 400.0).abs());
    (1.0 + size_term + depth_term + cascade).ln()
}

fn cfg(seed: u64, generations: usize) -> GaConfig {
    GaConfig {
        pop_size: 12,
        generations,
        threads: 1,
        seed,
        stagnation_limit: Some(8),
        ..GaConfig::default()
    }
}

/// What one seed's 40-generation run produced at the last commit where
/// `GaState::step` and the `Ga` strategy were separate code paths.
struct Frozen {
    seed: u64,
    best: [i64; 5],
    fitness_bits: u64,
    evaluations: usize,
    cache_hits: usize,
    rounds: usize,
    /// FNV-1a over the little-endian bytes of every generation's
    /// `best_fitness` bits, in order.
    trace_fnv: u64,
}

const FROZEN: [Frozen; 3] = [
    Frozen {
        seed: 0x6a11,
        best: [29, 16, 6, 1514, 149],
        fitness_bits: 0x3f52_6533_a9b2_5ddc,
        evaluations: 260,
        cache_hits: 112,
        rounds: 31,
        trace_fnv: 0xe8be_94f8_bfee_069c,
    },
    Frozen {
        seed: 2005,
        best: [29, 18, 6, 1453, 150],
        fitness_bits: 0x3f54_7424_e58d_ac3f,
        evaluations: 319,
        cache_hits: 113,
        rounds: 36,
        trace_fnv: 0x8e76_fce8_9088_c129,
    },
    Frozen {
        seed: 42,
        best: [26, 17, 6, 1545, 338],
        fitness_bits: 0x3f6e_f4ec_542a_57cb,
        evaluations: 322,
        cache_hits: 110,
        rounds: 36,
        trace_fnv: 0x0d72_0fb8_60fa_03b9,
    },
];

fn fnv1a(trace: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in trace.iter().flat_map(|bits| bits.to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn adapter_reproduces_legacy_run_bit_for_bit() {
    for frozen in &FROZEN {
        let seed = frozen.seed;
        // The legacy path: GaState driven directly with a closure.
        let mut legacy = GaState::new(paper_ranges(), cfg(seed, 40));
        while !legacy.step(&fitness) {}

        // The new path: the same engine behind ask/tell.
        let mut adapted = search::build("ga", paper_ranges(), cfg(seed, 40)).unwrap();
        let backend = LocalEvaluator::new(fitness, 1);
        drive(adapted.as_mut(), &backend);

        // Same best genome, same fitness bits.
        let (lg, lf) = legacy.best().expect("legacy best");
        let (ag, af) = adapted.best().expect("adapted best");
        assert_eq!(lg, &ag, "seed {seed}: best genome diverged");
        assert_eq!(
            lf.to_bits(),
            af.to_bits(),
            "seed {seed}: fitness bits diverged"
        );

        // Same fitness trace, generation by generation.
        let legacy_trace: Vec<u64> = legacy
            .history()
            .iter()
            .map(|g| g.best_fitness.to_bits())
            .collect();
        let adapted_snapshot = match adapted.snapshot() {
            search::StrategySnapshot::Ga(s) => s,
            other => panic!("ga adapter must snapshot as Ga, got {}", other.kind()),
        };
        let adapted_trace: Vec<u64> = adapted_snapshot
            .history
            .iter()
            .map(|g| g.best_fitness.to_bits())
            .collect();
        assert_eq!(legacy_trace, adapted_trace, "seed {seed}: trace diverged");

        // Same bookkeeping (memoization behaved identically).
        assert_eq!(legacy.evaluations(), adapted.evaluations());
        assert_eq!(legacy.cache_hits(), adapted.cache_hits());
        assert_eq!(legacy.generation(), adapted.rounds());

        // And the full snapshots agree, which covers population, RNG
        // state, memo contents and stagnation bookkeeping at once.
        assert_eq!(legacy.snapshot(), adapted_snapshot);

        // And both equal the frozen record, so the comparison above
        // cannot degrade into the shared code agreeing with itself.
        assert_eq!(ag, frozen.best, "seed {seed}: frozen best genome");
        assert_eq!(af.to_bits(), frozen.fitness_bits, "seed {seed}");
        assert_eq!(adapted.evaluations(), frozen.evaluations, "seed {seed}");
        assert_eq!(adapted.cache_hits(), frozen.cache_hits, "seed {seed}");
        assert_eq!(adapted.rounds(), frozen.rounds, "seed {seed}");
        assert_eq!(fnv1a(&adapted_trace), frozen.trace_fnv, "seed {seed}");
    }
}

#[test]
fn adapter_survives_snapshot_restore_mid_run_like_the_engine() {
    let backend = LocalEvaluator::new(fitness, 1);
    let mut uninterrupted = search::build("ga", paper_ranges(), cfg(7, 25)).unwrap();
    let mut cycled = search::build("ga", paper_ranges(), cfg(7, 25)).unwrap();
    while !uninterrupted.is_done() {
        cycled = restore(cycled.snapshot()).expect("restore");
        round(uninterrupted.as_mut(), &backend, |_| {});
        round(cycled.as_mut(), &backend, |_| {});
    }
    assert!(cycled.is_done());
    let (ug, uf) = uninterrupted.best().unwrap();
    let (cg, cf) = cycled.best().unwrap();
    assert_eq!(ug, cg);
    assert_eq!(uf.to_bits(), cf.to_bits());
}

#[test]
fn adapter_stops_early_on_stagnation_exactly_like_the_engine() {
    // A flat surface stagnates immediately; both paths must stop at
    // the same generation, well before the configured maximum.
    let flat = |_: &[i64]| 1.0;
    let mut legacy = GaState::new(paper_ranges(), cfg(9, 500));
    while !legacy.step(&flat) {}
    let mut adapted = search::build("ga", paper_ranges(), cfg(9, 500)).unwrap();
    let backend = LocalEvaluator::new(flat, 1);
    drive(adapted.as_mut(), &backend);
    assert!(legacy.generation() < 500, "stagnation limit never fired");
    assert_eq!(legacy.generation(), adapted.rounds());
}
