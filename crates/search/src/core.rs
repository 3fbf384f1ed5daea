//! Shared bookkeeping for the non-GA strategies: the fitness memo, the
//! proposal budget, best-so-far tracking, and per-strategy obs series.
//!
//! The GA engine keeps all of this inside `ga::GaState`; the other
//! strategies compose this struct instead so they agree exactly on what
//! "budget", "evaluation" and "cache hit" mean: the budget counts
//! *proposals* (`pop_size * generations`, matching the GA's population
//! draws), a proposal already in the memo is a cache hit, and only memo
//! misses reach the evaluation backend.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ga::{GaConfig, GeneKind, Genome, Ranges};

/// Mutable search bookkeeping embedded by every non-GA strategy.
pub(crate) struct Core {
    pub ranges: Ranges,
    pub config: GaConfig,
    /// Obs label for this strategy's metric series (the kind, or the
    /// race member name).
    pub label: String,
    pub memo: HashMap<Genome, f64>,
    /// Genomes proposed so far, memo hits included — the budget unit.
    pub proposed: usize,
    pub evaluations: usize,
    pub cache_hits: usize,
    pub best: Option<(Genome, f64)>,
    pub rounds: usize,
    pub done: bool,
    /// Deliberately outside the snapshot: observability is not search
    /// state, so injecting a registry can never change results.
    pub obs: Arc<obs::Registry>,
}

impl Core {
    pub fn new(ranges: Ranges, config: GaConfig, label: &str) -> Result<Self, String> {
        if config.pop_size == 0 || config.generations == 0 {
            return Err(format!(
                "strategy '{label}' needs pop_size >= 1 and generations >= 1"
            ));
        }
        Ok(Core {
            ranges,
            config,
            label: label.to_string(),
            memo: HashMap::new(),
            proposed: 0,
            evaluations: 0,
            cache_hits: 0,
            best: None,
            rounds: 0,
            done: false,
            obs: Arc::clone(obs::global()),
        })
    }

    /// Total proposals the strategy may make: the GA's population draws.
    pub fn budget(&self) -> usize {
        self.config.pop_size.saturating_mul(self.config.generations)
    }

    /// How many genomes the next round may propose.
    pub fn batch_size(&self) -> usize {
        self.config.pop_size.min(self.budget() - self.proposed)
    }

    /// The subset of `drawn` the backend must evaluate: not in the memo,
    /// first occurrence within the batch.
    pub fn split(&self, drawn: &[Genome]) -> Vec<Genome> {
        let mut seen: HashSet<&Genome> = HashSet::new();
        let mut misses = Vec::new();
        for g in drawn {
            if self.memo.contains_key(g) {
                continue;
            }
            if seen.insert(g) {
                misses.push(g.clone());
            }
        }
        misses
    }

    /// Commits a round: merges scores, advances counters and best, and
    /// flips `done` once the budget is spent.
    pub fn commit(&mut self, drawn: &[Genome], misses: &[Genome], scores: &[f64]) {
        assert_eq!(
            misses.len(),
            scores.len(),
            "one score per asked genome (strategy '{}')",
            self.label
        );
        let hits = drawn.iter().filter(|g| self.memo.contains_key(*g)).count();
        for (g, &s) in misses.iter().zip(scores) {
            let s = if s.is_finite() { s } else { f64::INFINITY };
            self.memo.insert(g.clone(), s);
        }
        self.proposed += drawn.len();
        self.evaluations += misses.len();
        self.cache_hits += hits;
        for g in drawn {
            let s = self.memo[g];
            match &self.best {
                Some((_, b)) if s >= *b => {}
                _ => self.best = Some((g.clone(), s)),
            }
        }
        self.rounds += 1;
        if self.proposed >= self.budget() {
            self.done = true;
        }
        let labels = [("strategy", self.label.as_str())];
        self.obs
            .counter(&obs::labeled("search_rounds", &labels))
            .inc();
        self.obs
            .counter(&obs::labeled("search_evaluations", &labels))
            .add(misses.len() as u64);
        self.obs
            .counter(&obs::labeled("search_cache_hits", &labels))
            .add(hits as u64);
        self.obs
            .histogram(&obs::labeled("search_round_evals", &labels))
            .record(misses.len() as u64);
    }

    /// Best genome of this round's draw, by post-merge memo score
    /// (strict improvement, first wins on ties).
    pub fn round_best(&self, drawn: &[Genome]) -> Option<(Genome, f64)> {
        let mut best: Option<(Genome, f64)> = None;
        for g in drawn {
            let s = self.memo[g];
            match &best {
                Some((_, b)) if s >= *b => {}
                _ => best = Some((g.clone(), s)),
            }
        }
        best
    }

    pub fn snapshot(&self) -> CoreSnapshot {
        let mut memo: Vec<(Genome, f64)> = self.memo.iter().map(|(g, &f)| (g.clone(), f)).collect();
        memo.sort_by(|a, b| a.0.cmp(&b.0));
        CoreSnapshot {
            bounds: self.ranges.iter().collect(),
            kinds: self.ranges.kinds().to_vec(),
            config: self.config.clone(),
            memo,
            proposed: self.proposed,
            evaluations: self.evaluations,
            cache_hits: self.cache_hits,
            best: self.best.clone(),
            rounds: self.rounds,
            done: self.done,
        }
    }

    pub fn restore(s: CoreSnapshot, label: &str) -> Result<Self, String> {
        if s.bounds.is_empty() {
            return Err("snapshot has no gene bounds".into());
        }
        if s.bounds.iter().any(|&(lo, hi)| lo > hi) {
            return Err("snapshot has inverted gene bounds".into());
        }
        if s.config.pop_size == 0 || s.config.generations == 0 {
            return Err("snapshot config has a zero pop_size or generations".into());
        }
        if s.kinds.len() != s.bounds.len() {
            return Err(format!(
                "snapshot has {} gene kinds for {} bounds",
                s.kinds.len(),
                s.bounds.len()
            ));
        }
        let ranges = Ranges::with_kinds(s.bounds, s.kinds);
        for (g, _) in s.memo.iter().chain(s.best.iter()) {
            if !ranges.contains(g) {
                return Err(format!("snapshot genome {g:?} is out of bounds"));
            }
        }
        let core = Core {
            ranges,
            config: s.config,
            label: label.to_string(),
            memo: s.memo.into_iter().collect(),
            proposed: s.proposed,
            evaluations: s.evaluations,
            cache_hits: s.cache_hits,
            best: s.best,
            rounds: s.rounds,
            done: s.done,
            obs: Arc::clone(obs::global()),
        };
        // `batch_size` subtracts: a snapshot past its budget is corrupt.
        if core.proposed > core.budget() {
            return Err(format!(
                "snapshot has {} proposals against a budget of {}",
                core.proposed,
                core.budget()
            ));
        }
        Ok(core)
    }
}

/// The serializable part of [`Core`]; embedded by every non-GA
/// strategy snapshot. The memo is sorted by genome so snapshot bytes
/// are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSnapshot {
    pub bounds: Vec<(i64, i64)>,
    pub kinds: Vec<GeneKind>,
    pub config: GaConfig,
    pub memo: Vec<(Genome, f64)>,
    pub proposed: usize,
    pub evaluations: usize,
    pub cache_hits: usize,
    pub best: Option<(Genome, f64)>,
    pub rounds: usize,
    pub done: bool,
}
