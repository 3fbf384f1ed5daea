//! The generational GA engine with memoized fitness.
//!
//! [`GaState`] is two-phase: [`GaState::ask`] returns the current
//! population's deduplicated memo misses, the driver scores them on any
//! [`Evaluator`](crate::Evaluator), and [`GaState::tell`] merges the
//! scores, records history and breeds the next population.
//! [`GaState::snapshot`] / [`GaState::restore`] round-trip the *entire*
//! search state (population, RNG, memo table, counters, history)
//! through a plain-data [`GaSnapshot`], so a long run can be
//! checkpointed after every generation and resumed — even in a
//! different process — with bit-identical results. [`GaState::step`] is
//! the closed form (`ask`, evaluate locally, `tell`) the engine's own
//! tests and the bit-identity references use.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use simrng::Rng;

use crate::eval::{Evaluator, LocalEvaluator};
use crate::genome::{GeneKind, Genome, Ranges};
use crate::ops::{mutate, one_point_crossover, tournament, two_point_crossover, uniform_crossover};

/// Which recombination operator breeding uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossoverKind {
    /// One-point tail swap.
    OnePoint,
    /// Two-point middle-segment swap (ECJ's vector default).
    TwoPoint,
    /// Per-gene coin-flip.
    Uniform,
    /// A 50/50 mix of one-point and uniform per breeding pair.
    #[default]
    Mixed,
}

impl CrossoverKind {
    /// Stable identifier (used by checkpoint files and the wire protocol).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CrossoverKind::OnePoint => "one-point",
            CrossoverKind::TwoPoint => "two-point",
            CrossoverKind::Uniform => "uniform",
            CrossoverKind::Mixed => "mixed",
        }
    }

    /// Parses the identifier produced by [`CrossoverKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "one-point" => Some(CrossoverKind::OnePoint),
            "two-point" => Some(CrossoverKind::TwoPoint),
            "uniform" => Some(CrossoverKind::Uniform),
            "mixed" => Some(CrossoverKind::Mixed),
            _ => None,
        }
    }
}

/// Engine configuration.
///
/// The paper's setup (§3.1) is population 20 evolved for 500 generations;
/// [`GaConfig::paper`] reproduces it. The default configuration trades a
/// little search quality for wall-clock (the fitness landscape here
/// plateaus long before 500 generations; `stagnation_limit` stops early).
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Individuals per generation.
    pub pop_size: usize,
    /// Maximum generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability a breeding pair undergoes crossover (else clones).
    pub crossover_prob: f64,
    /// Recombination operator.
    pub crossover_kind: CrossoverKind,
    /// Per-gene mutation probability.
    pub mutation_prob: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed (the whole run is a pure function of this).
    pub seed: u64,
    /// Stop after this many generations without best-fitness improvement
    /// (`None` = never stop early).
    pub stagnation_limit: Option<usize>,
    /// Worker threads for fitness evaluation (1 = sequential).
    pub threads: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            pop_size: 20,
            generations: 100,
            tournament_size: 2,
            crossover_prob: 0.9,
            crossover_kind: CrossoverKind::Mixed,
            mutation_prob: 0.25,
            elitism: 2,
            seed: 0x6a11,
            stagnation_limit: Some(30),
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// The upper bounds [`GaConfig::check`] enforces (in-tree maxima: the
/// paper's 500 generations, a population of 64).
pub const MAX_POP_SIZE: usize = 4096;
pub const MAX_GENERATIONS: usize = 100_000;
pub const MAX_THREADS: usize = 1024;

impl GaConfig {
    /// The paper's §3.1 configuration: population 20, 500 generations, no
    /// early stopping.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pop_size: 20,
            generations: 500,
            stagnation_limit: None,
            ..Self::default()
        }
    }

    /// The one validity rule for a configuration, wherever it came
    /// from — a job spec on the wire, a checkpoint on disk, or code.
    ///
    /// # Errors
    /// Names the first degenerate field.
    pub fn check(&self) -> Result<(), String> {
        // Upper bounds: a well-formed spec must not make the runner
        // allocate (or spawn, or loop) without bound.
        for (field, value, max) in [
            ("pop_size", self.pop_size, MAX_POP_SIZE),
            ("generations", self.generations, MAX_GENERATIONS),
            (
                "tournament_size",
                self.tournament_size,
                self.pop_size.max(2),
            ),
            ("threads", self.threads, MAX_THREADS),
        ] {
            if value > max {
                return Err(format!(
                    "degenerate GA config: {field} {value} is above the limit of {max}"
                ));
            }
        }
        let broken = if self.pop_size < 2 {
            "population must be at least 2"
        } else if self.elitism >= self.pop_size {
            "elitism must leave room to breed"
        } else if self.threads < 1 {
            "need at least one evaluation thread"
        } else if self.tournament_size < 1 {
            "tournament size must be positive"
        } else if self.generations < 1 {
            "need at least one generation"
        } else {
            return Ok(());
        };
        Err(format!("degenerate GA config: {broken}"))
    }
}

/// One generation's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// Generation index (0-based).
    pub index: usize,
    /// Best fitness seen up to and including this generation.
    pub best_fitness: f64,
    /// Best genome so far.
    pub best_genome: Genome,
    /// Mean fitness of this generation's population.
    pub mean_fitness: f64,
}

/// Where one generation's wall time went, as measured by the engine's
/// observability registry (all zeros under a frozen `ManualClock`).
/// Read the latest with [`GaState::last_timing`]; the `tuned` daemon
/// forwards it in `watch` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenTiming {
    /// Generation index (0-based).
    pub generation: usize,
    /// Time from the generation's last `ask` to its `tell`: what the
    /// driver spent evaluating the memo misses, dispatch included.
    pub eval_micros: u64,
    /// Time in best-tracking / history / stagnation bookkeeping.
    pub select_micros: u64,
    /// Time breeding the next population (0 on the final generation,
    /// which does not breed).
    pub breed_micros: u64,
    /// Distinct genomes evaluated this generation (cache misses).
    pub evaluations: usize,
    /// Evaluations answered from the memo table this generation.
    pub cache_hits: usize,
}

/// The outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Best genome found.
    pub best_genome: Genome,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation history (useful for convergence plots).
    pub history: Vec<Generation>,
    /// Distinct genomes actually evaluated (cache misses).
    pub evaluations: usize,
    /// Evaluations answered from the memo table.
    pub cache_hits: usize,
}

/// A plain-data image of a [`GaState`] at a generation boundary.
///
/// Every field is public and made of std types so callers can serialize it
/// in whatever format they like (the `tuned` daemon writes it as JSON).
/// [`GaState::restore`] validates the image and rebuilds the live state.
#[derive(Debug, Clone, PartialEq)]
pub struct GaSnapshot {
    /// Per-gene inclusive bounds of the search space.
    pub bounds: Vec<(i64, i64)>,
    /// Per-gene kinds (same length as `bounds`).
    pub kinds: Vec<GeneKind>,
    /// The engine configuration (including the seed).
    pub config: GaConfig,
    /// Raw xoshiro256** state of the breeding RNG.
    pub rng_state: [u64; 4],
    /// The current (not-yet-evaluated or just-bred) population.
    pub population: Vec<Genome>,
    /// The fitness memo table, sorted by genome for stable bytes.
    pub cache: Vec<(Genome, f64)>,
    /// Distinct genomes evaluated so far.
    pub evaluations: usize,
    /// Evaluations answered from the memo table so far.
    pub cache_hits: usize,
    /// Per-generation history so far.
    pub history: Vec<Generation>,
    /// Best genome so far.
    pub best_genome: Genome,
    /// Its fitness (`+inf` before the first generation completes).
    pub best_fitness: f64,
    /// Consecutive generations without improvement.
    pub stagnant: usize,
    /// Index of the next generation to run.
    pub next_gen: usize,
    /// Whether the run has finished.
    pub done: bool,
}

/// A resumable in-flight GA search.
///
/// Create with [`GaState::new`], advance with [`GaState::ask`] /
/// [`GaState::tell`], and read the outcome with [`GaState::result`].
/// The state is a pure function of the config seed and the number of
/// generations told.
#[derive(Debug, Clone)]
pub struct GaState {
    ranges: Ranges,
    config: GaConfig,
    rng: Rng,
    population: Vec<Genome>,
    cache: HashMap<Genome, f64>,
    evaluations: usize,
    cache_hits: usize,
    history: Vec<Generation>,
    best_genome: Genome,
    best_fitness: f64,
    stagnant: usize,
    next_gen: usize,
    done: bool,
    /// Where timings and counters are recorded. Defaults to the shared
    /// process registry; tests inject one built on a `ManualClock`.
    /// Deliberately outside the snapshot: observability is not search
    /// state, and restoring must stay byte-identical.
    obs: Arc<obs::Registry>,
    /// The most recent generation's timing breakdown.
    last_timing: Option<GenTiming>,
    /// Registry-clock reading at the last `ask`, consumed by `tell`.
    asked_at: Option<u64>,
}

impl GaState {
    /// Seeds a fresh search: draws the initial population from the config
    /// seed.
    ///
    /// # Panics
    /// Panics on configs that fail [`GaConfig::check`].
    #[must_use]
    pub fn new(ranges: Ranges, config: GaConfig) -> Self {
        Self::with_seeds(ranges, config, &[])
    }

    /// Seeds a fresh search whose initial population starts from
    /// `seeds` (warm start): seeds with the right gene count are
    /// clamped into range, deduplicated, and truncated to the
    /// population size; the remainder is drawn from the config seed
    /// exactly as [`GaState::new`] would draw it. With no seeds this
    /// *is* `new`, bit for bit — the cold-start fallback costs nothing.
    ///
    /// # Panics
    /// Panics on degenerate configs (see [`GaState::new`]).
    #[must_use]
    pub fn with_seeds(ranges: Ranges, config: GaConfig, seeds: &[Genome]) -> Self {
        config
            .check()
            .expect("a GaState is built from a checked config");
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut population: Vec<Genome> = Vec::with_capacity(config.pop_size);
        for s in seeds {
            if s.len() != ranges.len() {
                continue;
            }
            let mut g = s.clone();
            ranges.clamp(&mut g);
            if !population.contains(&g) {
                population.push(g);
                if population.len() == config.pop_size {
                    break;
                }
            }
        }
        while population.len() < config.pop_size {
            population.push(ranges.random(&mut rng));
        }
        let best_genome = population[0].clone();
        Self {
            ranges,
            config,
            rng,
            population,
            cache: HashMap::new(),
            evaluations: 0,
            cache_hits: 0,
            history: Vec::new(),
            best_genome,
            best_fitness: f64::INFINITY,
            stagnant: 0,
            next_gen: 0,
            done: false,
            obs: Arc::clone(obs::global()),
            last_timing: None,
            asked_at: None,
        }
    }

    /// Redirects this search's timings and counters to `registry`
    /// (instead of the process-wide default). Recording never feeds back
    /// into the search, so this cannot change results.
    pub fn set_obs(&mut self, registry: Arc<obs::Registry>) {
        self.obs = registry;
    }

    /// The last completed generation's timing breakdown (`None` before
    /// the first step).
    #[must_use]
    pub fn last_timing(&self) -> Option<GenTiming> {
        self.last_timing
    }

    /// Runs exactly one generation in closed form: [`ask`], score the
    /// batch on a [`LocalEvaluator`] over the config's thread count,
    /// [`tell`]. Returns `true` once the run is complete; further calls
    /// are no-ops.
    ///
    /// `fitness` must be deterministic: results are memoized by genome.
    /// Non-finite fitness values are treated as `+inf` (worst).
    ///
    /// [`ask`]: GaState::ask
    /// [`tell`]: GaState::tell
    pub fn step<F>(&mut self, fitness: F) -> bool
    where
        F: Fn(&[i64]) -> f64 + Sync,
    {
        let batch = self.ask();
        let scores = LocalEvaluator::new(fitness, self.config.threads).evaluate(&batch);
        self.tell(&batch, &scores);
        self.is_done()
    }

    /// The current population split against the memo table: the
    /// genomes still to evaluate (population order, duplicates once)
    /// and how many individuals the memo already answers.
    fn scan(&self) -> (Vec<Genome>, usize) {
        let mut misses: Vec<Genome> = Vec::new();
        let mut hits = 0;
        let mut seen: HashSet<&Genome> = HashSet::new();
        for g in &self.population {
            if self.cache.contains_key(g) {
                hits += 1;
            } else if seen.insert(g) {
                misses.push(g.clone());
            }
        }
        (misses, hits)
    }

    /// The genomes the driver must evaluate for this generation: the
    /// population's memo misses, deduplicated, in population order
    /// (empty once the run is done, and possibly empty before — a
    /// converged population can be fully memoized). Repeatable until
    /// the matching [`tell`](GaState::tell); takes `&mut self` only to
    /// note the registry-clock time evaluation started.
    pub fn ask(&mut self) -> Vec<Genome> {
        if self.is_done() {
            return Vec::new();
        }
        self.asked_at = Some(self.obs.now_micros());
        self.scan().0
    }

    /// Commits one generation: merges `scores` for the `batch`
    /// [`ask`](GaState::ask) returned into the memo table, records
    /// history, and — unless the run just finished — breeds the next
    /// population. A no-op once the run is done.
    ///
    /// Evaluation never consumes engine randomness and results merge by
    /// genome, so every backend and thread count the driver picks is
    /// bit-identical to sequential evaluation.
    ///
    /// # Panics
    /// Panics if `batch` is not what `ask` returned or `scores` has the
    /// wrong length — a broken driver or [`Evaluator`] contract, not a
    /// recoverable condition.
    pub fn tell(&mut self, batch: &[Genome], scores: &[f64]) {
        if self.is_done() {
            assert!(batch.is_empty(), "tell on a finished GA");
            self.done = true;
            return;
        }
        let obs = Arc::clone(&self.obs);
        let gen_index = self.next_gen;
        let told_at = obs.now_micros();
        let asked_at = self.asked_at.take().unwrap_or(told_at);
        // The generation began when the driver asked; its evaluation
        // ran outside the engine, between then and now.
        let _gen_span = obs::span!(obs, "generation", gen = gen_index).since(asked_at);
        drop(obs.span("eval").since(asked_at));
        let eval_micros = told_at.saturating_sub(asked_at);

        let (misses, hits) = self.scan();
        assert_eq!(batch, misses, "tell batch must be what ask returned");
        assert_eq!(
            scores.len(),
            batch.len(),
            "evaluator returned {} scores for {} genomes",
            scores.len(),
            batch.len()
        );
        self.evaluations += misses.len();
        self.cache_hits += hits;
        let sanitize = |v: f64| if v.is_finite() { v } else { f64::INFINITY };
        self.cache
            .extend(misses.into_iter().zip(scores.iter().copied().map(sanitize)));
        let scores: Vec<f64> = self.population.iter().map(|g| self.cache[g]).collect();

        let select_started = obs.now_micros();
        let stagnated = {
            let _span = obs.span("select");
            // Track the best.
            let mut improved = false;
            for (genome, &score) in self.population.iter().zip(&scores) {
                if score < self.best_fitness {
                    self.best_fitness = score;
                    self.best_genome = genome.clone();
                    improved = true;
                }
            }
            let finite_mean = {
                let finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
                if finite.is_empty() {
                    f64::INFINITY
                } else {
                    finite.iter().sum::<f64>() / finite.len() as f64
                }
            };
            self.history.push(Generation {
                index: self.next_gen,
                best_fitness: self.best_fitness,
                best_genome: self.best_genome.clone(),
                mean_fitness: finite_mean,
            });

            self.stagnant = if improved { 0 } else { self.stagnant + 1 };
            self.config
                .stagnation_limit
                .is_some_and(|limit| self.stagnant >= limit)
        };
        let select_micros = obs.now_micros().saturating_sub(select_started);

        let mut breed_micros = 0;
        if stagnated || self.next_gen + 1 == self.config.generations {
            self.done = true;
        } else {
            let breed_started = obs.now_micros();
            {
                let _span = obs.span("breed");
                self.breed(&scores);
            }
            breed_micros = obs.now_micros().saturating_sub(breed_started);
        }
        self.next_gen += 1;

        obs.counter("ga_generations").inc();
        obs.counter("ga_evaluations").add(batch.len() as u64);
        obs.counter("ga_cache_hits").add(hits as u64);
        obs.histogram("ga_eval_micros").record(eval_micros);
        obs.histogram("ga_select_micros").record(select_micros);
        obs.histogram("ga_breed_micros").record(breed_micros);
        self.last_timing = Some(GenTiming {
            generation: gen_index,
            eval_micros,
            select_micros,
            breed_micros,
            evaluations: batch.len(),
            cache_hits: hits,
        });
    }

    /// Breeds the next generation from the scored current one.
    fn breed(&mut self, scores: &[f64]) {
        let cfg = self.config.clone();
        let mut order: Vec<usize> = (0..self.population.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));

        let mut next: Vec<Genome> = Vec::with_capacity(cfg.pop_size);
        for &i in order.iter().take(cfg.elitism) {
            next.push(self.population[i].clone());
        }
        while next.len() < cfg.pop_size {
            let pa = tournament(scores, cfg.tournament_size, &mut self.rng);
            let pb = tournament(scores, cfg.tournament_size, &mut self.rng);
            let (mut c, mut d) = if self.rng.chance(cfg.crossover_prob) {
                let (x, y) = (&self.population[pa], &self.population[pb]);
                match cfg.crossover_kind {
                    CrossoverKind::OnePoint => one_point_crossover(x, y, &mut self.rng),
                    CrossoverKind::TwoPoint => two_point_crossover(x, y, &mut self.rng),
                    CrossoverKind::Uniform => uniform_crossover(x, y, &mut self.rng),
                    CrossoverKind::Mixed => {
                        if self.rng.chance(0.5) {
                            uniform_crossover(x, y, &mut self.rng)
                        } else {
                            one_point_crossover(x, y, &mut self.rng)
                        }
                    }
                }
            } else {
                (self.population[pa].clone(), self.population[pb].clone())
            };
            mutate(&mut c, &self.ranges, cfg.mutation_prob, &mut self.rng);
            mutate(&mut d, &self.ranges, cfg.mutation_prob, &mut self.rng);
            next.push(c);
            if next.len() < cfg.pop_size {
                next.push(d);
            }
        }
        self.population = next;
    }

    /// Whether the run has finished (max generations, stagnation, or a
    /// zero-generation config).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done || self.next_gen >= self.config.generations
    }

    /// Number of completed generations.
    #[must_use]
    pub fn generation(&self) -> usize {
        self.history.len()
    }

    /// The configuration this search runs under.
    #[must_use]
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Re-plans the local evaluation thread count (clamped to ≥ 1).
    ///
    /// Thread count affects wall-clock only, never results, so a host may
    /// freely adjust it on a restored search — the `tuned` daemon does,
    /// to divide a machine-wide thread budget across concurrent jobs. The
    /// new value is recorded in subsequent snapshots.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// The search-space bounds.
    #[must_use]
    pub fn ranges(&self) -> &Ranges {
        &self.ranges
    }

    /// The current population, in breeding order.
    #[must_use]
    pub fn population(&self) -> &[Genome] {
        &self.population
    }

    /// Best genome and fitness so far (`None` before the first generation).
    #[must_use]
    pub fn best(&self) -> Option<(&Genome, f64)> {
        if self.history.is_empty() {
            None
        } else {
            Some((&self.best_genome, self.best_fitness))
        }
    }

    /// Per-generation history so far.
    #[must_use]
    pub fn history(&self) -> &[Generation] {
        &self.history
    }

    /// Distinct genomes evaluated so far (cache misses).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Evaluations answered from the memo table so far.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// The run's outcome so far.
    #[must_use]
    pub fn result(&self) -> GaResult {
        GaResult {
            best_genome: self.best_genome.clone(),
            best_fitness: self.best_fitness,
            history: self.history.clone(),
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
        }
    }

    /// A plain-data image of the complete search state. Restoring it with
    /// [`GaState::restore`] and continuing yields bit-identical results to
    /// never having snapshotted.
    #[must_use]
    pub fn snapshot(&self) -> GaSnapshot {
        let mut cache: Vec<(Genome, f64)> =
            self.cache.iter().map(|(g, &v)| (g.clone(), v)).collect();
        cache.sort_by(|a, b| a.0.cmp(&b.0));
        GaSnapshot {
            bounds: self.ranges.iter().collect(),
            kinds: self.ranges.kinds().to_vec(),
            config: self.config.clone(),
            rng_state: self.rng.state(),
            population: self.population.clone(),
            cache,
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
            history: self.history.clone(),
            best_genome: self.best_genome.clone(),
            best_fitness: self.best_fitness,
            stagnant: self.stagnant,
            next_gen: self.next_gen,
            done: self.done,
        }
    }

    /// Rebuilds a live state from a snapshot.
    ///
    /// # Errors
    /// Returns a description of the problem when the image is internally
    /// inconsistent (wrong population size, out-of-range genomes, history
    /// longer than the generation counter).
    pub fn restore(snapshot: GaSnapshot) -> Result<Self, String> {
        let GaSnapshot {
            bounds,
            kinds,
            config,
            rng_state,
            population,
            cache,
            evaluations,
            cache_hits,
            history,
            best_genome,
            best_fitness,
            stagnant,
            next_gen,
            done,
        } = snapshot;
        if bounds.is_empty() {
            return Err("snapshot has no gene bounds".into());
        }
        if bounds.iter().any(|&(lo, hi)| lo > hi) {
            return Err("snapshot has inverted gene bounds".into());
        }
        if kinds.len() != bounds.len() {
            return Err(format!(
                "snapshot has {} gene kinds for {} bounds",
                kinds.len(),
                bounds.len()
            ));
        }
        let ranges = Ranges::with_kinds(bounds, kinds);
        config.check()?;
        if population.len() != config.pop_size {
            return Err(format!(
                "snapshot population has {} genomes, config says {}",
                population.len(),
                config.pop_size
            ));
        }
        if let Some(g) = population.iter().find(|g| !ranges.contains(g)) {
            return Err(format!("snapshot population genome {g:?} out of range"));
        }
        if history.len() > config.generations {
            return Err(format!(
                "snapshot history has {} generations, config allows {}",
                history.len(),
                config.generations
            ));
        }
        Ok(Self {
            ranges,
            config,
            rng: Rng::from_state(rng_state),
            population,
            cache: cache.into_iter().collect(),
            evaluations,
            cache_hits,
            history,
            best_genome,
            best_fitness,
            stagnant,
            next_gen,
            done,
            obs: Arc::clone(obs::global()),
            last_timing: None,
            asked_at: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_ranges() -> Ranges {
        Ranges::new(vec![(-100, 100); 4])
    }

    /// Distance-squared to a hidden optimum: easy landscape.
    fn sphere(target: &[i64]) -> impl Fn(&[i64]) -> f64 + Sync + '_ {
        move |g: &[i64]| {
            g.iter()
                .zip(target)
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum()
        }
    }

    /// Runs a fresh search to completion through the closed-form step.
    fn run<F>(ranges: Ranges, config: GaConfig, fitness: F) -> GaResult
    where
        F: Fn(&[i64]) -> f64 + Sync,
    {
        let mut state = GaState::new(ranges, config);
        while !state.step(&fitness) {}
        state.result()
    }

    #[test]
    fn finds_the_sphere_optimum() {
        let target = vec![17, -42, 3, 88];
        let result = run(
            sphere_ranges(),
            GaConfig {
                pop_size: 24,
                generations: 150,
                stagnation_limit: None,
                threads: 1,
                seed: 11,
                ..GaConfig::default()
            },
            sphere(&target),
        );
        assert!(
            result.best_fitness < 30.0,
            "fitness {} genome {:?}",
            result.best_fitness,
            result.best_genome
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let target = vec![5, 5, 5, 5];
        let mk = || {
            run(
                sphere_ranges(),
                GaConfig {
                    generations: 30,
                    threads: 1,
                    seed: 99,
                    ..GaConfig::default()
                },
                sphere(&target),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.history.len(), b.history.len());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let target = vec![5, -5, 25, 0];
        let with_threads = |threads| {
            run(
                sphere_ranges(),
                GaConfig {
                    generations: 25,
                    threads,
                    seed: 7,
                    ..GaConfig::default()
                },
                sphere(&target),
            )
        };
        let seq = with_threads(1);
        let par = with_threads(4);
        assert_eq!(seq.best_genome, par.best_genome);
        assert_eq!(seq.best_fitness, par.best_fitness);
    }

    #[test]
    fn best_fitness_is_monotone_in_history() {
        let target = vec![1, 2, 3, 4];
        let r = run(
            sphere_ranges(),
            GaConfig {
                generations: 40,
                threads: 1,
                seed: 3,
                ..GaConfig::default()
            },
            sphere(&target),
        );
        for w in r.history.windows(2) {
            assert!(w[1].best_fitness <= w[0].best_fitness);
        }
    }

    #[test]
    fn memoization_saves_evaluations() {
        let target = vec![0, 0, 0, 0];
        let r = run(
            sphere_ranges(),
            GaConfig {
                pop_size: 20,
                generations: 60,
                threads: 1,
                seed: 21,
                stagnation_limit: None,
                ..GaConfig::default()
            },
            sphere(&target),
        );
        assert!(r.cache_hits > 0, "expected some repeated genomes");
        // Within-generation duplicates are deduplicated before evaluation,
        // so distinct evaluations never exceed the genomes proposed.
        assert!(r.evaluations < 20 * r.history.len());
    }

    #[test]
    fn stagnation_stops_early() {
        // Constant fitness: never improves after the first generation.
        let r = run(
            sphere_ranges(),
            GaConfig {
                generations: 500,
                stagnation_limit: Some(5),
                threads: 1,
                ..GaConfig::default()
            },
            |_| 1.0,
        );
        assert!(r.history.len() <= 7, "ran {} generations", r.history.len());
    }

    #[test]
    fn nonfinite_fitness_is_worst() {
        // NaN for everything except one genome; the GA must still find it.
        let r = run(
            Ranges::new(vec![(0, 3); 2]),
            GaConfig {
                pop_size: 8,
                generations: 30,
                threads: 1,
                seed: 5,
                ..GaConfig::default()
            },
            |g| if g == [2, 2] { 0.0 } else { f64::NAN },
        );
        assert_eq!(r.best_genome, vec![2, 2]);
        assert_eq!(r.best_fitness, 0.0);
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_rejected() {
        let _ = GaState::new(
            sphere_ranges(),
            GaConfig {
                pop_size: 1,
                elitism: 0,
                ..GaConfig::default()
            },
        );
    }

    // ---- stepping / snapshot tests ----

    fn step_cfg(generations: usize) -> GaConfig {
        GaConfig {
            pop_size: 12,
            generations,
            threads: 1,
            seed: 404,
            stagnation_limit: None,
            ..GaConfig::default()
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let target = vec![-3, 14, 15, 9];
        let f = sphere(&target);
        let reference = run(sphere_ranges(), step_cfg(30), &f);

        // Interrupt after every single generation: snapshot, restore,
        // continue — as the daemon does across process restarts.
        let mut state = GaState::new(sphere_ranges(), step_cfg(30));
        loop {
            let snap = state.snapshot();
            state = GaState::restore(snap).expect("valid snapshot");
            if state.step(&f) {
                break;
            }
        }
        let resumed = state.result();
        assert_eq!(resumed.best_genome, reference.best_genome);
        assert_eq!(
            resumed.best_fitness.to_bits(),
            reference.best_fitness.to_bits()
        );
        assert_eq!(resumed.history, reference.history);
        assert_eq!(resumed.evaluations, reference.evaluations);
        assert_eq!(resumed.cache_hits, reference.cache_hits);
    }

    #[test]
    fn snapshot_roundtrips_through_restore() {
        let f = sphere(&[1, 2, 3, 4]);
        let mut state = GaState::new(sphere_ranges(), step_cfg(10));
        for _ in 0..4 {
            assert!(!state.step(&f));
        }
        let snap = state.snapshot();
        let restored = GaState::restore(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.generation(), 4);
        assert!(!restored.is_done());
    }

    #[test]
    fn restore_rejects_corrupt_population() {
        let mut snap = GaState::new(sphere_ranges(), step_cfg(5)).snapshot();
        snap.population[0][0] = 10_000; // out of the (-100, 100) range
        assert!(GaState::restore(snap).is_err());
        let mut snap = GaState::new(sphere_ranges(), step_cfg(5)).snapshot();
        snap.population.pop();
        assert!(GaState::restore(snap).is_err());
    }

    #[test]
    fn step_after_done_is_idempotent() {
        let f = sphere(&[0, 0, 0, 0]);
        let mut state = GaState::new(sphere_ranges(), step_cfg(3));
        while !state.step(&f) {}
        let before = state.result();
        assert!(state.step(&f));
        assert!(state.is_done());
        assert_eq!(state.result(), before);
    }

    #[test]
    fn best_is_none_before_first_step() {
        let state = GaState::new(sphere_ranges(), step_cfg(3));
        assert!(state.best().is_none());
        assert_eq!(state.generation(), 0);
    }

    #[test]
    fn ask_tell_through_a_custom_backend_matches_step() {
        // A backend that evaluates through its own machinery (reversed
        // iteration order, batch-at-once) must be indistinguishable from
        // the plain closure path.
        struct Reversed;
        impl Evaluator for Reversed {
            fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
                let mut scores: Vec<f64> = genomes
                    .iter()
                    .rev()
                    .map(|g| g.iter().map(|&x| (x * x) as f64).sum())
                    .collect();
                scores.reverse();
                scores
            }
        }
        let f = |g: &[i64]| g.iter().map(|&x| (x * x) as f64).sum();
        let mut a = GaState::new(sphere_ranges(), step_cfg(20));
        let mut b = GaState::new(sphere_ranges(), step_cfg(20));
        loop {
            let da = a.step(f);
            let batch = b.ask();
            assert_eq!(batch, b.ask(), "ask must not advance without tell");
            b.tell(&batch, &Reversed.begin(&batch).wait());
            assert_eq!(da, b.is_done());
            if da {
                break;
            }
        }
        assert_eq!(a.result(), b.result());
        assert_eq!(
            a.result().best_fitness.to_bits(),
            b.result().best_fitness.to_bits()
        );
    }

    #[test]
    fn set_threads_changes_config_not_results() {
        let f = sphere(&[1, 2, 3, 4]);
        let mut a = GaState::new(sphere_ranges(), step_cfg(12));
        let mut b = GaState::new(sphere_ranges(), step_cfg(12));
        b.set_threads(0); // clamps to 1
        assert_eq!(b.config().threads, 1);
        b.set_threads(3);
        assert_eq!(b.config().threads, 3);
        while !a.step(&f) {}
        while !b.step(&f) {}
        assert_eq!(a.result(), b.result());
        assert_eq!(b.snapshot().config.threads, 3);
    }

    #[test]
    #[should_panic(expected = "evaluator returned")]
    fn short_score_vector_is_a_contract_violation() {
        let mut state = GaState::new(sphere_ranges(), step_cfg(3));
        let batch = state.ask();
        state.tell(&batch, &[]);
    }

    #[test]
    #[should_panic(expected = "tell batch must be what ask returned")]
    fn telling_a_batch_that_was_not_asked_is_a_contract_violation() {
        let mut state = GaState::new(sphere_ranges(), step_cfg(3));
        let mut batch = state.ask();
        batch.swap(0, 1);
        state.tell(&batch, &vec![0.0; batch.len()]);
    }

    #[test]
    fn eval_time_is_the_clock_from_ask_to_tell() {
        let clock = Arc::new(obs::ManualClock::new());
        let reg = Arc::new(obs::Registry::with_clock(Arc::clone(&clock) as _));
        let mut state = GaState::new(sphere_ranges(), step_cfg(3));
        state.set_obs(Arc::clone(&reg));
        let _ = state.ask();
        clock.advance(900); // a superseded ask does not count
        let batch = state.ask();
        clock.advance(250);
        state.tell(&batch, &vec![1.0; batch.len()]);
        assert_eq!(state.last_timing().unwrap().eval_micros, 250);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("ga_eval_micros").unwrap().sum, 250);
        let eval = snap.spans.iter().find(|s| s.path == "generation/eval");
        assert_eq!(
            eval.map(|s| (s.start_micros, s.dur_micros)),
            Some((900, 250))
        );
    }

    #[test]
    fn step_records_exact_obs_counters_under_manual_clock() {
        let clock = Arc::new(obs::ManualClock::new());
        let reg = Arc::new(obs::Registry::with_clock(clock));
        let f = sphere(&[1, 2, 3, 4]);
        let mut state = GaState::new(sphere_ranges(), step_cfg(5));
        state.set_obs(Arc::clone(&reg));
        assert!(state.last_timing().is_none());
        while !state.step(&f) {}

        let snap = reg.snapshot();
        assert_eq!(snap.counter("ga_generations"), 5);
        assert_eq!(snap.counter("ga_evaluations"), state.evaluations() as u64);
        assert_eq!(snap.counter("ga_cache_hits"), state.cache_hits() as u64);
        // Frozen clock: every duration is exactly zero, so all five
        // samples land in the first bucket and the sums are zero.
        for name in ["ga_eval_micros", "ga_select_micros", "ga_breed_micros"] {
            let h = snap.histogram(name).unwrap();
            assert_eq!(h.total, 5, "{name}");
            assert_eq!(h.counts[0], 5, "{name}");
            assert_eq!(h.sum, 0, "{name}");
            assert_eq!(h.max, 0, "{name}");
        }
        // The span hierarchy: one "generation" per step, with nested
        // phases. The final generation does not breed.
        let count = |p: &str| snap.spans.iter().filter(|s| s.path == p).count();
        assert_eq!(count("generation"), 5);
        assert_eq!(count("generation/eval"), 5);
        assert_eq!(count("generation/select"), 5);
        assert_eq!(count("generation/breed"), 4);
        assert!(snap.spans.iter().any(|s| s.label == "generation gen=0"));

        let t = state.last_timing().unwrap();
        assert_eq!(t.generation, 4);
        assert_eq!((t.eval_micros, t.select_micros, t.breed_micros), (0, 0, 0));
    }

    #[test]
    fn obs_injection_does_not_change_results() {
        let f = sphere(&[7, -7, 7, -7]);
        let mut plain = GaState::new(sphere_ranges(), step_cfg(15));
        let mut observed = GaState::new(sphere_ranges(), step_cfg(15));
        observed.set_obs(Arc::new(obs::Registry::new()));
        while !plain.step(&f) {}
        while !observed.step(&f) {}
        assert_eq!(plain.result(), observed.result());
        assert_eq!(
            plain.result().best_fitness.to_bits(),
            observed.result().best_fitness.to_bits()
        );
    }

    #[test]
    fn with_seeds_and_no_seeds_is_exactly_new() {
        let f = sphere(&[7, -7, 7, -7]);
        let mut cold = GaState::new(sphere_ranges(), step_cfg(21));
        let mut warm = GaState::with_seeds(sphere_ranges(), step_cfg(21), &[]);
        assert_eq!(cold.snapshot(), warm.snapshot());
        while !cold.step(&f) {}
        while !warm.step(&f) {}
        assert_eq!(
            cold.result().best_fitness.to_bits(),
            warm.result().best_fitness.to_bits()
        );
    }

    #[test]
    fn seeds_are_planted_clamped_and_deduped() {
        let ranges = sphere_ranges();
        let lo_hi = ranges.gene(0);
        let seeds = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 3, 4],              // duplicate: dropped
            vec![lo_hi.1 + 1000, 0, 0, 0], // out of range: clamped
            vec![1, 2],                    // wrong arity: skipped
        ];
        let state = GaState::with_seeds(ranges.clone(), step_cfg(3), &seeds);
        let pop = state.population();
        assert_eq!(pop[0], vec![1, 2, 3, 4]);
        assert_eq!(pop[1], vec![lo_hi.1, 0, 0, 0]);
        assert_ne!(pop[2], vec![1, 2, 3, 4], "duplicate seed was planted twice");
        assert_eq!(pop.len(), state.config().pop_size);
        for g in pop {
            assert!(ranges.contains(g));
        }
    }

    #[test]
    fn seeded_run_is_deterministic_in_config_seed_and_seeds() {
        let f = sphere(&[5, 5, -5, -5]);
        let seeds = vec![vec![5, 5, -5, -5], vec![0, 0, 0, 0]];
        let run = || {
            let mut s = GaState::with_seeds(sphere_ranges(), step_cfg(9), &seeds);
            while !s.step(&f) {}
            (s.result().best_genome.clone(), s.result().best_fitness)
        };
        let (g1, f1) = run();
        let (g2, f2) = run();
        assert_eq!(g1, g2);
        assert_eq!(f1.to_bits(), f2.to_bits());
    }

    #[test]
    fn snapshot_carries_gene_kinds_through_restore() {
        let ranges = Ranges::with_kinds(
            vec![(0, 3), (0, 1), (1, 50), (1, 400)],
            vec![GeneKind::Cat, GeneKind::Bool, GeneKind::Int, GeneKind::Int],
        );
        let f = |g: &[i64]| g.iter().map(|&x| x as f64).sum();
        let mut state = GaState::new(ranges.clone(), step_cfg(6));
        for _ in 0..2 {
            assert!(!state.step(f));
        }
        let snap = state.snapshot();
        assert_eq!(snap.kinds, ranges.kinds());
        let restored = GaState::restore(snap.clone()).unwrap();
        assert_eq!(restored.ranges().kinds(), ranges.kinds());
        assert_eq!(restored.snapshot(), snap);

        let mut bad = snap;
        bad.kinds.pop();
        assert!(GaState::restore(bad).is_err());
    }

    #[test]
    fn crossover_kind_names_roundtrip() {
        for kind in [
            CrossoverKind::OnePoint,
            CrossoverKind::TwoPoint,
            CrossoverKind::Uniform,
            CrossoverKind::Mixed,
        ] {
            assert_eq!(CrossoverKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CrossoverKind::from_name("nope"), None);
    }
}
