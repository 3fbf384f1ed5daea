//! Pluggable search strategies over inlining-parameter genomes.
//!
//! The paper tunes the threshold cascade with exactly one optimizer — a
//! genetic algorithm — and never asks whether the GA earns its keep.
//! This crate puts the optimizer behind a seam so the question becomes
//! askable: a [`Strategy`] is anything that proposes genome batches
//! ([`Strategy::ask`]), learns their fitness ([`Strategy::tell`]), and
//! can be checkpointed mid-search ([`Strategy::snapshot`] /
//! [`restore`]). Six engines implement it:
//!
//! * [`Ga`] — the `ga` crate's engine behind the trait, bit-identical to
//!   `ga::GaState::step` with the same seed;
//! * [`WarmStart`] — the same GA, but its initial population can be
//!   seeded from a persistent fitness store's best prior genomes
//!   ([`Strategy::seed_population`]); unseeded it *is* `ga`, bit for bit;
//! * [`RandomSearch`] — uniform draws over the threshold cascade;
//! * [`HillClimb`] — restarting local search whose neighborhood is the
//!   GA's own mutation operator (geometric steps on the cascade);
//! * [`SimulatedAnnealing`] — batch-proposal Metropolis acceptance under
//!   a geometric cooling schedule;
//! * [`Grid`] — deterministic coarse-to-fine factorial refinement.
//!
//! On top sits [`Race`], a portfolio runner that drives N strategies
//! under **one shared evaluation budget** and one shared fitness memo —
//! a genome any member already paid for is free for every other member,
//! and strategies whose best trails the leader for long enough are
//! eliminated early.
//!
//! # Design constraints
//!
//! Everything downstream (the `tuned` daemon's kill-and-restart
//! recovery, distributed evaluation, the experiment tables) leans on two
//! properties, so every strategy must provide them:
//!
//! * **Determinism.** A strategy's trajectory is a pure function of its
//!   `GaConfig` seed; all randomness flows through `simrng`. `ask` is
//!   *repeatable*: calling it again without an intervening `tell`
//!   returns the same batch, because the RNG advance only commits at
//!   `tell`. Evaluation backends (local threads, remote workers) can
//!   therefore never leak scheduling order into the search.
//! * **Checkpointability.** [`Strategy::snapshot`] captures the state
//!   as of the last *completed* round — an in-flight `ask` is
//!   deliberately excluded — so [`restore`] followed by `ask` replays
//!   exactly the batch the uninterrupted run would have proposed.
//!
//! # The ask/tell round
//!
//! `ask` returns only the genomes the caller must actually evaluate:
//! each strategy keeps a fitness memo and never re-asks a genome it has
//! already scored. The batch may be *empty* while the strategy is not
//! done (a converged GA generation fully answered by its memo); the
//! caller must still call `tell` with the empty batch to commit the
//! round. [`round`] is that cycle, once, through any evaluation backend
//! — the only place outside a strategy that owns it — and [`drive`]
//! runs it to completion:
//!
//! ```
//! use ga::{GaConfig, LocalEvaluator, Ranges};
//!
//! let ranges = Ranges::new(vec![(1, 50), (1, 30), (1, 15)]);
//! let cfg = GaConfig { pop_size: 8, generations: 5, threads: 1, ..GaConfig::default() };
//! let mut strategy = search::build("grid", ranges, cfg).unwrap();
//! let backend = LocalEvaluator::new(|g: &[i64]| g.iter().map(|&x| x as f64).sum(), 1);
//! search::drive(strategy.as_mut(), &backend);
//! let (genome, fitness) = search::finish(strategy.as_ref()).expect("searched");
//! assert_eq!(genome, vec![1, 1, 1]); // grid level 0 samples every low corner
//! assert_eq!(fitness, 3.0);
//! ```

use std::sync::Arc;

use ga::{Evaluator, GaConfig, GaSnapshot, GenTiming, Genome, Ranges};

mod anneal;
mod core;
mod gadapt;
mod grid;
mod hill;
mod race;
mod random;
mod warmstart;

pub use anneal::SimulatedAnnealing;
pub use core::CoreSnapshot;
pub use gadapt::Ga;
pub use grid::{Grid, GridSnapshot};
pub use hill::{HillClimb, HillSnapshot};
pub use race::{MemberSnapshot, Race, RaceSnapshot};
pub use random::RandomSearch;
pub use warmstart::{WarmStart, WarmstartSnapshot};

/// Snapshot of a [`SimulatedAnnealing`] strategy.
pub type AnnealSnapshot = anneal::AnnealSnapshot;
/// Snapshot of a [`RandomSearch`] strategy.
pub type RandomSnapshot = random::RandomSnapshot;

/// The strategy kinds accepted on their own or as race members.
pub const KINDS: [&str; 6] = ["ga", "random", "hillclimb", "anneal", "grid", "warmstart"];

/// The members a bare `race` spec races (a spread of search styles:
/// population-based, pure exploration, pure exploitation).
const DEFAULT_RACE: [&str; 3] = ["ga", "random", "hillclimb"];

/// A deterministic, checkpointable batch optimizer over integer genomes.
///
/// The shared `GaConfig` doubles as the budget contract for every
/// strategy: `pop_size` is the per-round batch size and
/// `pop_size * generations` the total proposal budget, so different
/// strategies built from one config are budget-matched by construction.
pub trait Strategy: Send {
    /// The strategy's registered name (one of [`KINDS`], or `"race"`).
    fn kind(&self) -> &'static str;

    /// The config the strategy was built from (seed, batch size, budget).
    fn config(&self) -> &GaConfig;

    /// Plants warm-start seeds into the strategy's initial state,
    /// returning how many were actually accepted. Only meaningful
    /// *before the first round*; the default is a no-op — today only
    /// [`WarmStart`] (and a [`Race`] containing one) uses seeds.
    fn seed_population(&mut self, _seeds: &[Genome]) -> usize {
        0
    }

    /// The genomes to evaluate next: this round's proposals minus
    /// everything the strategy's memo already answers. Repeatable until
    /// the matching [`tell`](Self::tell); may be empty while
    /// [`is_done`](Self::is_done) is still false.
    fn ask(&mut self) -> Vec<Genome>;

    /// Commits a round: `batch` must be exactly what `ask` returned,
    /// `scores` one fitness per genome (lower is better; non-finite
    /// scores are treated as `+inf`).
    fn tell(&mut self, batch: &[Genome], scores: &[f64]);

    /// Whether the search has exhausted its budget (or converged).
    fn is_done(&self) -> bool;

    /// Best genome and fitness seen so far (`None` before any round).
    fn best(&self) -> Option<(Genome, f64)>;

    /// Fitness evaluations actually requested from the backend.
    fn evaluations(&self) -> usize;

    /// Proposals answered by the strategy's memo instead of the backend.
    fn cache_hits(&self) -> usize;

    /// Completed ask/tell rounds (the "generation" number in job status).
    fn rounds(&self) -> usize;

    /// Plain-data state as of the last completed round; feed to
    /// [`restore`] to resume bit-identically.
    fn snapshot(&self) -> StrategySnapshot;

    /// Routes the strategy's counters/histograms to a registry.
    /// Observability is not search state: injecting a registry never
    /// changes results.
    fn set_obs(&mut self, registry: Arc<obs::Registry>);

    /// Wall-time breakdown of the last round, if the strategy measures
    /// one (only [`Ga`] does today).
    fn last_timing(&self) -> Option<GenTiming> {
        None
    }

    /// Per-contender progress: one entry for a lone strategy, one per
    /// member for a [`Race`].
    fn standings(&self) -> Vec<Standing> {
        vec![Standing {
            name: self.kind().to_string(),
            best_fitness: self.best().map(|(_, f)| f),
            evaluations: self.evaluations(),
            eliminated: false,
        }]
    }
}

/// One contender's progress inside [`Strategy::standings`].
#[derive(Debug, Clone, PartialEq)]
pub struct Standing {
    /// Member name — the kind, suffixed `#2`, `#3`… for duplicates.
    pub name: String,
    /// Best fitness the member has seen (`None` before its first round).
    pub best_fitness: Option<f64>,
    /// Evaluations attributed to the member (for race members this
    /// includes proposals answered by the shared memo).
    pub evaluations: usize,
    /// Whether a race eliminated the member as dominated.
    pub eliminated: bool,
}

/// Plain-data checkpoint of any strategy, serializable by `served`.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySnapshot {
    /// The GA engine's own snapshot, unchanged.
    Ga(GaSnapshot),
    Random(RandomSnapshot),
    HillClimb(HillSnapshot),
    Anneal(AnnealSnapshot),
    Grid(GridSnapshot),
    Warmstart(WarmstartSnapshot),
    Race(RaceSnapshot),
}

impl StrategySnapshot {
    /// The spec name of the strategy this snapshot came from.
    pub fn kind(&self) -> &'static str {
        match self {
            StrategySnapshot::Ga(_) => "ga",
            StrategySnapshot::Random(_) => "random",
            StrategySnapshot::HillClimb(_) => "hillclimb",
            StrategySnapshot::Anneal(_) => "anneal",
            StrategySnapshot::Grid(_) => "grid",
            StrategySnapshot::Warmstart(_) => "warmstart",
            StrategySnapshot::Race(_) => "race",
        }
    }

    /// Completed rounds at snapshot time (drives job "generation"
    /// numbers when the daemon recovers a checkpoint).
    pub fn rounds(&self) -> usize {
        match self {
            StrategySnapshot::Ga(s) => s.history.len(),
            StrategySnapshot::Random(s) => s.core.rounds,
            StrategySnapshot::HillClimb(s) => s.core.rounds,
            StrategySnapshot::Anneal(s) => s.core.rounds,
            StrategySnapshot::Grid(s) => s.core.rounds,
            StrategySnapshot::Warmstart(s) => s.ga.history.len(),
            StrategySnapshot::Race(s) => s.rounds,
        }
    }
}

fn unknown(name: &str) -> String {
    format!(
        "unknown strategy '{name}' (known: ga, random, hillclimb, anneal, grid, \
         warmstart, race, race:<a>+<b>[+<c>...])"
    )
}

/// Parses a strategy spec into its member kinds: a lone kind gives one
/// member, `race` the default trio, `race:a+b+...` an explicit field.
pub fn parse_spec(spec: &str) -> Result<Vec<String>, String> {
    if spec == "race" {
        return Ok(DEFAULT_RACE.iter().map(|s| s.to_string()).collect());
    }
    if let Some(rest) = spec.strip_prefix("race:") {
        let members: Vec<&str> = rest.split('+').collect();
        if members.len() < 2 {
            return Err(format!("a race needs at least 2 members, got '{spec}'"));
        }
        for m in &members {
            if !KINDS.contains(m) {
                return Err(unknown(m));
            }
        }
        return Ok(members.iter().map(|s| s.to_string()).collect());
    }
    if KINDS.contains(&spec) {
        Ok(vec![spec.to_string()])
    } else {
        Err(unknown(spec))
    }
}

/// Checks a strategy spec without building anything — what the wire
/// protocol calls on submit so bad specs become structured errors.
pub fn validate_spec(spec: &str) -> Result<(), String> {
    parse_spec(spec).map(|_| ())
}

/// Builds a strategy from a spec string. A race member named `name`
/// searches under the derived seed `child_seed(config.seed, "race/name")`
/// so duplicate kinds explore independently.
pub fn build(spec: &str, ranges: Ranges, config: GaConfig) -> Result<Box<dyn Strategy>, String> {
    let members = parse_spec(spec)?;
    if spec == "race" || spec.starts_with("race:") {
        Ok(Box::new(Race::new(&members, ranges, config)?))
    } else {
        build_single(&members[0], &members[0], ranges, config)
    }
}

/// Builds one non-race strategy; `label` names its obs metric series.
pub(crate) fn build_single(
    kind: &str,
    label: &str,
    ranges: Ranges,
    config: GaConfig,
) -> Result<Box<dyn Strategy>, String> {
    Ok(match kind {
        "ga" => Box::new(Ga::new(ranges, config)),
        "random" => Box::new(RandomSearch::new(ranges, config, label)?),
        "hillclimb" => Box::new(HillClimb::new(ranges, config, label)?),
        "anneal" => Box::new(SimulatedAnnealing::new(ranges, config, label)?),
        "grid" => Box::new(Grid::new(ranges, config, label)?),
        "warmstart" => Box::new(WarmStart::new(ranges, config)),
        other => return Err(unknown(other)),
    })
}

/// Rebuilds a strategy from its checkpoint. The resumed strategy's next
/// `ask` is bit-identical to what the uninterrupted run would have
/// proposed.
pub fn restore(snapshot: StrategySnapshot) -> Result<Box<dyn Strategy>, String> {
    restore_labeled(snapshot, None)
}

pub(crate) fn restore_labeled(
    snapshot: StrategySnapshot,
    label: Option<&str>,
) -> Result<Box<dyn Strategy>, String> {
    Ok(match snapshot {
        StrategySnapshot::Ga(s) => Box::new(Ga::from_state(ga::GaState::restore(s)?)),
        StrategySnapshot::Random(s) => {
            let label = label.unwrap_or("random");
            Box::new(RandomSearch::restore(s, label)?)
        }
        StrategySnapshot::HillClimb(s) => {
            let label = label.unwrap_or("hillclimb");
            Box::new(HillClimb::restore(s, label)?)
        }
        StrategySnapshot::Anneal(s) => {
            let label = label.unwrap_or("anneal");
            Box::new(SimulatedAnnealing::restore(s, label)?)
        }
        StrategySnapshot::Grid(s) => {
            let label = label.unwrap_or("grid");
            Box::new(Grid::restore(s, label)?)
        }
        StrategySnapshot::Warmstart(s) => Box::new(WarmStart::restore(s)?),
        StrategySnapshot::Race(s) => {
            if label.is_some() {
                return Err("a race cannot be a race member".into());
            }
            Box::new(Race::restore(s)?)
        }
    })
}

/// One search round through any evaluation backend: ask, begin the
/// batch, run `while_inflight` (e.g. persist the previous round's
/// checkpoint) while the backend works, then wait and tell. Returns
/// true once the strategy is done. A caller with nothing to overlap
/// passes `|_| {}`.
///
/// `while_inflight` cannot perturb the search: `ask` is repeatable
/// until `tell` commits it, the closure only gets a shared borrow (it
/// can snapshot but not mutate), and a `snapshot` taken there describes
/// the last *completed* round — exactly what a checkpoint written
/// between rounds would contain. It always runs, even on an empty batch
/// or a finished strategy, so work the caller deferred into it is never
/// skipped.
pub fn round<E>(
    strategy: &mut dyn Strategy,
    backend: &E,
    while_inflight: impl FnOnce(&dyn Strategy),
) -> bool
where
    E: Evaluator + ?Sized,
{
    if strategy.is_done() {
        while_inflight(strategy);
        return true;
    }
    let batch = strategy.ask();
    let pending = (!batch.is_empty()).then(|| backend.begin(&batch));
    while_inflight(strategy);
    let scores = pending.map_or_else(Vec::new, |p| p.wait());
    strategy.tell(&batch, &scores);
    strategy.is_done()
}

/// Runs a strategy to completion on one backend.
pub fn drive<E>(strategy: &mut dyn Strategy, backend: &E)
where
    E: Evaluator + ?Sized,
{
    while !round(strategy, backend, |_| {}) {}
}

/// The outcome of a finished search: its best genome and fitness.
///
/// # Errors
/// The strategy never scored a genome (a zero-budget config).
pub fn finish(strategy: &dyn Strategy) -> Result<(Genome, f64), String> {
    strategy.best().ok_or_else(|| {
        format!(
            "{} search finished without evaluating anything",
            strategy.kind()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::LocalEvaluator;

    fn ranges() -> Ranges {
        Ranges::new(vec![(1, 50), (1, 30), (1, 15), (1, 400)])
    }

    fn cfg(seed: u64) -> GaConfig {
        GaConfig {
            pop_size: 8,
            generations: 12,
            threads: 1,
            seed,
            stagnation_limit: None,
            ..GaConfig::default()
        }
    }

    /// A deterministic multimodal surface: strategies must find low
    /// values near (7, 11, 3, 120) without any real simulator.
    fn fitness(g: &[i64]) -> f64 {
        let target = [7.0, 11.0, 3.0, 120.0];
        g.iter()
            .zip(target)
            .map(|(&x, t)| {
                let d = (x as f64 - t) / t;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    fn all_specs() -> Vec<&'static str> {
        vec![
            "ga",
            "random",
            "hillclimb",
            "anneal",
            "grid",
            "warmstart",
            "race",
            "race:anneal+grid",
            "race:grid+grid",
            "race:warmstart+random",
        ]
    }

    #[test]
    fn every_strategy_terminates_and_improves() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in all_specs() {
            let mut s = build(spec, ranges(), cfg(42)).unwrap();
            let mut steps = 0;
            while !round(s.as_mut(), &backend, |_| {}) {
                steps += 1;
                assert!(steps < 10_000, "{spec} never terminated");
            }
            let (g, f) = s.best().unwrap_or_else(|| panic!("{spec} found nothing"));
            assert!(ranges().contains(&g), "{spec} best out of bounds");
            assert!(f.is_finite());
            assert!(s.rounds() > 0);
            assert!(s.evaluations() > 0, "{spec} never evaluated");
            assert!(
                f < fitness(&[25, 15, 8, 200]),
                "{spec} did worse ({f}) than a mid-range guess"
            );
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in all_specs() {
            let run = |seed| {
                let mut s = build(spec, ranges(), cfg(seed)).unwrap();
                drive(s.as_mut(), &backend);
                (s.best().unwrap(), s.evaluations(), s.cache_hits())
            };
            let ((g1, f1), e1, h1) = run(7);
            let ((g2, f2), e2, h2) = run(7);
            assert_eq!(g1, g2, "{spec} genome drifted across identical runs");
            assert_eq!(f1.to_bits(), f2.to_bits());
            assert_eq!((e1, h1), (e2, h2));
        }
    }

    #[test]
    fn ask_is_repeatable_until_tell() {
        for spec in all_specs() {
            let mut s = build(spec, ranges(), cfg(11)).unwrap();
            let first = s.ask();
            let second = s.ask();
            assert_eq!(first, second, "{spec} ask must not advance without tell");
        }
    }

    #[test]
    fn asked_batches_stay_in_bounds_and_deduped() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in all_specs() {
            let mut s = build(spec, ranges(), cfg(3)).unwrap();
            loop {
                if s.is_done() {
                    break;
                }
                let batch = s.ask();
                let mut seen = std::collections::HashSet::new();
                for g in &batch {
                    assert!(ranges().contains(g), "{spec} proposed {g:?} out of bounds");
                    assert!(
                        seen.insert(g.clone()),
                        "{spec} asked {g:?} twice in one batch"
                    );
                }
                let scores = backend.evaluate(&batch);
                s.tell(&batch, &scores);
            }
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical_every_round() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in all_specs() {
            let mut live = build(spec, ranges(), cfg(5)).unwrap();
            let mut resumed = build(spec, ranges(), cfg(5)).unwrap();
            while !live.is_done() {
                // The resumed run goes through a snapshot/restore cycle
                // before every single round.
                resumed = restore(resumed.snapshot())
                    .unwrap_or_else(|e| panic!("{spec} restore failed: {e}"));
                assert_eq!(
                    live.snapshot(),
                    resumed.snapshot(),
                    "{spec} snapshots diverged"
                );
                round(live.as_mut(), &backend, |_| {});
                round(resumed.as_mut(), &backend, |_| {});
            }
            assert!(resumed.is_done());
            let (lg, lf) = live.best().unwrap();
            let (rg, rf) = resumed.best().unwrap();
            assert_eq!(lg, rg, "{spec} restore changed the best genome");
            assert_eq!(lf.to_bits(), rf.to_bits());
        }
    }

    #[test]
    fn inflight_snapshots_do_not_perturb_the_search() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in all_specs() {
            let mut serial = build(spec, ranges(), cfg(21)).unwrap();
            let mut piped = build(spec, ranges(), cfg(21)).unwrap();
            let mut deferred: Option<StrategySnapshot> = None;
            loop {
                let a = round(serial.as_mut(), &backend, |_| {});
                // This run snapshots mid-flight every round, the way the
                // daemon defers its checkpoint write behind the in-flight
                // batch.
                let b = round(piped.as_mut(), &backend, |s| {
                    deferred = Some(s.snapshot());
                });
                assert_eq!(a, b, "{spec} termination diverged");
                if a {
                    break;
                }
            }
            let (sg, sf) = serial.best().unwrap();
            let (pg, pf) = piped.best().unwrap();
            assert_eq!(sg, pg, "{spec} pipelining changed the best genome");
            assert_eq!(sf.to_bits(), pf.to_bits());
            assert_eq!(serial.evaluations(), piped.evaluations());
            assert_eq!(serial.cache_hits(), piped.cache_hits());
            // The deferred snapshot from the final round restores and
            // agrees it is done — a checkpoint one round behind replays
            // to the same terminal state.
            let resumed = restore(deferred.expect("while_inflight always runs")).unwrap();
            let _ = resumed;
        }
    }

    #[test]
    fn ga_round_reports_the_time_its_evaluator_took() {
        /// Costs 2 ms of registry-clock time per genome.
        struct Costly(Arc<obs::ManualClock>);
        impl Evaluator for Costly {
            fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
                self.0.advance(2_000 * genomes.len() as u64);
                genomes.iter().map(|g| fitness(g)).collect()
            }
        }
        let clock = Arc::new(obs::ManualClock::new());
        let reg = Arc::new(obs::Registry::with_clock(Arc::clone(&clock) as _));
        let backend = Costly(clock);
        let mut s = build("ga", ranges(), cfg(33)).unwrap();
        s.set_obs(Arc::clone(&reg));
        loop {
            let before = s.evaluations();
            let done = round(s.as_mut(), &backend, |_| {});
            let evaluated = (s.evaluations() - before) as u64;
            let timing = s.last_timing().expect("a round completed");
            assert_eq!(timing.eval_micros, 2_000 * evaluated);
            if done {
                break;
            }
        }
        let eval = reg.snapshot().histogram("ga_eval_micros").unwrap().sum;
        assert_eq!(eval, 2_000 * s.evaluations() as u64);
    }

    #[test]
    fn mid_round_snapshot_excludes_the_pending_ask() {
        for spec in all_specs() {
            let mut s = build(spec, ranges(), cfg(13)).unwrap();
            let before = s.snapshot();
            let batch = s.ask();
            assert_eq!(
                s.snapshot(),
                before,
                "{spec} snapshot must capture the last round boundary"
            );
            // A restore from that snapshot replays the identical batch.
            let mut resumed = restore(before).unwrap();
            assert_eq!(resumed.ask(), batch, "{spec} replayed a different batch");
        }
    }

    #[test]
    fn budget_is_respected() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in ["random", "hillclimb", "anneal", "grid"] {
            let c = cfg(9);
            let budget = c.pop_size * c.generations;
            let mut s = build(spec, ranges(), c).unwrap();
            drive(s.as_mut(), &backend);
            assert!(
                s.evaluations() + s.cache_hits() <= budget,
                "{spec} exceeded its proposal budget"
            );
        }
    }

    #[test]
    fn spec_parsing_accepts_known_and_rejects_unknown() {
        assert_eq!(parse_spec("ga").unwrap(), vec!["ga"]);
        assert_eq!(
            parse_spec("race").unwrap(),
            vec!["ga", "random", "hillclimb"]
        );
        assert_eq!(
            parse_spec("race:anneal+grid+ga").unwrap(),
            vec!["anneal", "grid", "ga"]
        );
        assert_eq!(parse_spec("warmstart").unwrap(), vec!["warmstart"]);
        for bad in ["", "gradient", "race:", "race:ga", "race:ga+bogus", "Race"] {
            assert!(validate_spec(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn race_forwards_seeds_to_its_warmstart_member() {
        let mut s = build("race:warmstart+random", ranges(), cfg(19)).unwrap();
        let seed = vec![7, 11, 3, 120];
        assert_eq!(s.seed_population(&[seed.clone()]), 1);
        assert!(
            s.ask().contains(&seed),
            "the warmstart member's seed must surface in the race's union ask"
        );
        // Members without seeding semantics simply decline.
        let mut plain = build("race:grid+grid", ranges(), cfg(19)).unwrap();
        assert_eq!(plain.seed_population(&[seed]), 0);
    }

    #[test]
    fn race_shares_evaluations_across_members() {
        let backend = LocalEvaluator::new(fitness, 1);
        // Two identical deterministic grids: every proposal of the
        // second member is answered by the first member's evaluations.
        let mut s = build("race:grid+grid", ranges(), cfg(21)).unwrap();
        drive(s.as_mut(), &backend);
        assert!(
            s.cache_hits() > 0,
            "duplicate members must hit the shared memo"
        );
        let standings = s.standings();
        assert_eq!(standings.len(), 2);
        assert_eq!(standings[0].name, "grid");
        assert_eq!(standings[1].name, "grid#2");
        assert_eq!(
            standings[0].best_fitness.unwrap().to_bits(),
            standings[1].best_fitness.unwrap().to_bits(),
            "identical members must agree on the best"
        );
    }

    #[test]
    fn race_eliminates_a_dominated_member() {
        // A fitness surface grid cannot descend: the optimum sits off
        // the coarse lattice, while hillclimb walks right to it.
        let needle = |g: &[i64]| {
            let d: f64 = g
                .iter()
                .zip([13.0, 23.0, 9.0, 333.0])
                .map(|(&x, t): (&i64, f64)| ((x as f64 - t) / t).powi(2))
                .sum();
            d.sqrt()
        };
        let backend = LocalEvaluator::new(needle, 1);
        let c = GaConfig {
            pop_size: 10,
            generations: 60,
            threads: 1,
            seed: 2,
            stagnation_limit: None,
            ..GaConfig::default()
        };
        let mut s = build("race:hillclimb+grid", ranges(), c).unwrap();
        drive(s.as_mut(), &backend);
        let standings = s.standings();
        assert!(
            standings.iter().any(|m| m.eliminated),
            "a clearly dominated member should be eliminated: {standings:?}"
        );
        assert!(
            !standings.iter().all(|m| m.eliminated),
            "the leader must survive"
        );
    }

    #[test]
    fn obs_injection_does_not_change_results() {
        let backend = LocalEvaluator::new(fitness, 1);
        for spec in ["random", "race"] {
            let mut plain = build(spec, ranges(), cfg(30)).unwrap();
            let mut observed = build(spec, ranges(), cfg(30)).unwrap();
            observed.set_obs(Arc::new(obs::Registry::new()));
            drive(plain.as_mut(), &backend);
            drive(observed.as_mut(), &backend);
            assert_eq!(plain.best(), observed.best());
            assert_eq!(plain.evaluations(), observed.evaluations());
        }
    }

    #[test]
    fn per_strategy_obs_counters_are_recorded() {
        let backend = LocalEvaluator::new(fitness, 1);
        let reg = Arc::new(obs::Registry::new());
        let mut s = build("race:grid+grid", ranges(), cfg(17)).unwrap();
        s.set_obs(Arc::clone(&reg));
        drive(s.as_mut(), &backend);
        let snap = reg.snapshot();
        assert!(snap.counter("race_evaluations") > 0);
        assert!(
            snap.counter(&obs::labeled("race_shared_hits", &[("strategy", "grid#2")])) > 0,
            "the duplicate member's shared hits must be attributed to it"
        );
        assert!(snap.counter(&obs::labeled("search_evaluations", &[("strategy", "grid")])) > 0);
    }
}
