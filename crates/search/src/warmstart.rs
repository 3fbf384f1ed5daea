//! Warm-started GA: the engine seeded from prior cells' best genomes.
//!
//! The strategy is a thin shell around [`Ga`]: identical breeding,
//! identical budget, identical checkpoints. The only difference is the
//! *initial population* — before the first round the caller may plant
//! seeds (typically [`stored::Store::warm_seeds`] for the job's workload
//! fingerprint), and the engine starts from them instead of a fully
//! random draw. At most **half** the population is seeded; the rest
//! stays a fresh random draw, because transferred genomes cluster
//! around other cells' optima and an all-seed population has no
//! diversity left to explore the new cell with. Everything else the GA
//! does — memoization, elitism, RNG discipline — applies unchanged, so:
//!
//! * with **no seeds** the strategy is bit-identical to `"ga"` under the
//!   same config seed (the cold-start fallback costs nothing);
//! * the seeded population lands in the engine's own snapshot, so
//!   kill-and-restart recovery needs no special casing: restoring a
//!   [`WarmstartSnapshot`] replays the warm trajectory bit for bit even
//!   though the store is never consulted again.
//!
//! Seeding is a pre-flight operation: once the first round has been
//! told, [`WarmStart::seed_population`] refuses (returns 0) rather than
//! silently discard search progress.

use std::sync::Arc;

use ga::{GaConfig, GaSnapshot, GaState, GenTiming, Genome, Ranges};

use crate::{Ga, Strategy, StrategySnapshot};

/// Snapshot of a [`WarmStart`] strategy: the planted seeds (for
/// provenance and round-tripping) plus the engine's own snapshot, which
/// already contains the seeded population.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmstartSnapshot {
    /// The seeds actually planted (clamped, deduplicated, truncated);
    /// empty for a cold start.
    pub seeds: Vec<Genome>,
    /// The wrapped engine's full state.
    pub ga: GaSnapshot,
}

/// A GA whose initial population can be seeded from a fitness store.
pub struct WarmStart {
    ga: Ga,
    seeds: Vec<Genome>,
}

impl WarmStart {
    /// Builds a cold warm-start (no seeds planted yet): bit-identical
    /// to [`Ga::new`] until [`seed_population`](Self::seed_population)
    /// is called.
    ///
    /// # Panics
    /// Panics on degenerate configs, like `GaState::new`.
    #[must_use]
    pub fn new(ranges: Ranges, config: GaConfig) -> Self {
        WarmStart {
            ga: Ga::new(ranges, config),
            seeds: Vec::new(),
        }
    }

    /// Rebuilds from a snapshot.
    pub fn restore(snapshot: WarmstartSnapshot) -> Result<Self, String> {
        Ok(WarmStart {
            ga: Ga::from_state(GaState::restore(snapshot.ga)?),
            seeds: snapshot.seeds,
        })
    }

    /// The seeds planted into the initial population (empty when cold).
    #[must_use]
    pub fn seeds(&self) -> &[Genome] {
        &self.seeds
    }
}

impl Strategy for WarmStart {
    fn kind(&self) -> &'static str {
        "warmstart"
    }

    fn config(&self) -> &GaConfig {
        self.ga.config()
    }

    fn seed_population(&mut self, seeds: &[Genome]) -> usize {
        if self.ga.rounds() > 0 || self.ga.evaluations() > 0 {
            // Seeding after the search has moved would throw away real
            // progress; refuse rather than restart silently.
            return 0;
        }
        let state = self.ga.state();
        let ranges = state.ranges().clone();
        let config = state.config().clone();
        // Transferred genomes cluster around *other* cells' optima;
        // filling the whole population with them leaves the search no
        // random material to explore this cell with. Cap planting at
        // half the population — the other half stays a fresh draw.
        let cap = (config.pop_size / 2).max(1);
        // Mirror the engine's own acceptance rule so `self.seeds`
        // records exactly what was planted.
        let mut accepted: Vec<Genome> = Vec::new();
        for s in seeds {
            if s.len() != ranges.len() {
                continue;
            }
            let mut g = s.clone();
            ranges.clamp(&mut g);
            if !accepted.contains(&g) {
                accepted.push(g);
                if accepted.len() == cap {
                    break;
                }
            }
        }
        if accepted.is_empty() {
            return 0;
        }
        self.ga = Ga::from_state(GaState::with_seeds(ranges, config, &accepted));
        self.seeds = accepted;
        self.seeds.len()
    }

    fn ask(&mut self) -> Vec<Genome> {
        self.ga.ask()
    }

    fn tell(&mut self, batch: &[Genome], scores: &[f64]) {
        self.ga.tell(batch, scores);
    }

    fn is_done(&self) -> bool {
        self.ga.is_done()
    }

    fn best(&self) -> Option<(Genome, f64)> {
        self.ga.best()
    }

    fn evaluations(&self) -> usize {
        self.ga.evaluations()
    }

    fn cache_hits(&self) -> usize {
        self.ga.cache_hits()
    }

    fn rounds(&self) -> usize {
        self.ga.rounds()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let StrategySnapshot::Ga(ga) = self.ga.snapshot() else {
            unreachable!("the wrapped Ga always snapshots as Ga");
        };
        StrategySnapshot::Warmstart(WarmstartSnapshot {
            seeds: self.seeds.clone(),
            ga,
        })
    }

    fn set_obs(&mut self, registry: Arc<obs::Registry>) {
        self.ga.set_obs(registry);
    }

    fn last_timing(&self) -> Option<GenTiming> {
        self.ga.last_timing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drive, round};
    use ga::{Evaluator, LocalEvaluator};

    fn ranges() -> Ranges {
        Ranges::new(vec![(1, 50), (1, 30), (1, 15), (1, 400)])
    }

    fn cfg(seed: u64) -> GaConfig {
        GaConfig {
            pop_size: 8,
            generations: 10,
            threads: 1,
            seed,
            stagnation_limit: None,
            ..GaConfig::default()
        }
    }

    fn fitness(g: &[i64]) -> f64 {
        g.iter()
            .zip([7.0, 11.0, 3.0, 120.0])
            .map(|(&x, t)| ((x as f64 - t) / t).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn unseeded_warmstart_matches_plain_ga_bit_for_bit() {
        let backend = LocalEvaluator::new(fitness, 1);
        let mut warm: Box<dyn Strategy> = Box::new(WarmStart::new(ranges(), cfg(5)));
        let mut cold: Box<dyn Strategy> = Box::new(Ga::new(ranges(), cfg(5)));
        drive(warm.as_mut(), &backend);
        drive(cold.as_mut(), &backend);
        let (wg, wf) = warm.best().unwrap();
        let (cg, cf) = cold.best().unwrap();
        assert_eq!(wg, cg);
        assert_eq!(wf.to_bits(), cf.to_bits());
        assert_eq!(warm.evaluations(), cold.evaluations());
    }

    #[test]
    fn seeds_land_in_the_first_ask() {
        let mut s = WarmStart::new(ranges(), cfg(3));
        let seed = vec![7, 11, 3, 120];
        let planted = s.seed_population(&[seed.clone(), vec![1, 2], seed.clone()]);
        assert_eq!(planted, 1, "one valid seed after dedup/arity filtering");
        assert_eq!(s.seeds(), &[seed.clone()]);
        let batch = s.ask();
        assert!(batch.contains(&seed), "the seed must be proposed round 1");
    }

    #[test]
    fn seeding_a_good_genome_strictly_helps_round_one() {
        let backend = LocalEvaluator::new(fitness, 1);
        let run = |seeds: &[Genome]| {
            let mut s = WarmStart::new(ranges(), cfg(9));
            s.seed_population(seeds);
            let batch = s.ask();
            let scores = backend.evaluate(&batch);
            s.tell(&batch, &scores);
            s.best().unwrap().1
        };
        let cold = run(&[]);
        let warm = run(&[vec![7, 11, 3, 120]]);
        assert!(warm <= cold);
        assert_eq!(warm, 0.0, "the optimum seed must be found immediately");
    }

    /// Drives `s` through its whole budget, handing every evaluation to
    /// `keep` in order; returns, per round, `(evaluations so far, best
    /// so far)`.
    fn logged_run(s: &mut dyn Strategy, mut keep: impl FnMut(Genome, f64)) -> Vec<(usize, f64)> {
        let backend = LocalEvaluator::new(fitness, 1);
        let mut trajectory = Vec::new();
        while !s.is_done() {
            let batch = s.ask();
            let scores = backend.evaluate(&batch);
            s.tell(&batch, &scores);
            batch.into_iter().zip(scores).for_each(|(g, f)| keep(g, f));
            trajectory.push((s.evaluations(), s.best().unwrap().1));
        }
        trajectory
    }

    fn evals_to(trajectory: &[(usize, f64)], target: f64) -> usize {
        let reached = trajectory.iter().find(|(_, best)| *best <= target);
        reached.expect("target never reached").0
    }

    /// Warm start pays, as a count: a cell re-tuned from its own cold
    /// run's evaluation log, under the identical budget, ends no worse
    /// than the cold run did and holds the cold run's final best after
    /// its first round. An unseeded `WarmStart` is bit-identical to the
    /// cold GA, so this fails if seeding stops planting.
    #[test]
    fn warm_start_from_the_cold_log_reaches_the_cold_best_in_round_one() {
        let dir = std::env::temp_dir().join(format!("warmstart-pays-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = stored::Store::open(&dir).unwrap();
        let fingerprint = stored::Fingerprint {
            cell_digest: stored::digest_parts(&["warmstart-pays"]),
            arch: "x86-p4".into(),
            features: vec![0.0; stored::FEATURES],
            problem: "inline".into(),
        };

        let cold = logged_run(&mut Ga::new(ranges(), cfg(5)), |genome, fitness| {
            let rec = stored::Record {
                fingerprint: fingerprint.clone(),
                genome,
                fitness,
            };
            store.append(&rec).unwrap();
        });
        let target = cold.last().unwrap().1;
        let cold_evals = evals_to(&cold, target);
        assert!(
            cold_evals > 8,
            "the cold run must improve after round one, or it cannot tell warm from cold"
        );

        let mut warm = WarmStart::new(ranges(), cfg(5));
        assert_eq!(warm.seed_population(&store.warm_seeds(&fingerprint, 8)), 4);
        let warm = logged_run(&mut warm, |_, _| {});
        assert!(
            warm.last().unwrap().1 <= target,
            "warm ended worse than cold"
        );
        let warm_evals = evals_to(&warm, target);
        assert!(
            warm_evals <= 8 && warm_evals <= cold_evals,
            "warm needed {warm_evals} evaluations, cold {cold_evals}"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planting_is_capped_at_half_the_population() {
        let mut s = WarmStart::new(ranges(), cfg(6)); // pop_size 8 → cap 4
        let seeds: Vec<Genome> = (1..=8).map(|i| vec![i, i, i, i]).collect();
        assert_eq!(s.seed_population(&seeds), 4);
        assert_eq!(s.seeds().len(), 4);
        let batch = s.ask();
        let planted = batch.iter().filter(|g| seeds.contains(g)).count();
        assert_eq!(planted, 4, "exactly the cap lands in round 1");
        assert!(
            batch.iter().any(|g| !seeds.contains(g)),
            "the other half of the population must stay a random draw"
        );
    }

    #[test]
    fn seeding_after_a_round_is_refused() {
        let backend = LocalEvaluator::new(fitness, 1);
        let mut s = WarmStart::new(ranges(), cfg(4));
        round(&mut s, &backend, |_| {});
        let best_before = s.best().unwrap();
        assert_eq!(s.seed_population(&[vec![7, 11, 3, 120]]), 0);
        assert_eq!(s.best().unwrap(), best_before, "progress must survive");
    }

    #[test]
    fn snapshot_carries_seeds_and_restores_bit_identically() {
        let backend = LocalEvaluator::new(fitness, 1);
        let mut live = WarmStart::new(ranges(), cfg(8));
        live.seed_population(&[vec![2, 2, 2, 2], vec![40, 20, 10, 300]]);
        round(&mut live, &backend, |_| {});
        let snap = live.snapshot();
        let StrategySnapshot::Warmstart(ws) = snap.clone() else {
            panic!("warmstart must snapshot as Warmstart");
        };
        assert_eq!(ws.seeds.len(), 2);
        let mut resumed = WarmStart::restore(ws).unwrap();
        assert_eq!(resumed.snapshot(), snap);
        drive(&mut live, &backend);
        drive(&mut resumed, &backend);
        assert_eq!(live.best(), resumed.best());
    }
}
