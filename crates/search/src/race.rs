//! Budget-matched portfolio racing.
//!
//! A [`Race`] drives N member strategies in lockstep rounds under **one
//! shared evaluation budget** (`pop_size * generations` backend calls —
//! the same budget a lone strategy gets) and one shared fitness memo.
//! Per round it unions the members' asks, evaluates each distinct new
//! genome once, and answers every member from the merged memo; a genome
//! some other member already paid for is a *shared hit* — the
//! measurement that says how much the portfolio's members overlap.
//! Members whose best trails the leader by more than [`ELIM_TOLERANCE`]
//! for [`ELIM_PATIENCE`] consecutive rounds are eliminated (their
//! results still count; their budget share goes to the survivors).
//!
//! Member `name` searches under the derived seed
//! `child_seed(config.seed, "race/name")`, so duplicated kinds explore
//! independently and member streams never collide with the job's own.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ga::{GaConfig, GeneKind, Genome, Ranges};
use simrng::child_seed;

use crate::{restore_labeled, Standing, Strategy, StrategySnapshot};

/// Relative fitness slack before a member counts as trailing the leader.
const ELIM_TOLERANCE: f64 = 0.02;

/// Consecutive trailing rounds before elimination.
const ELIM_PATIENCE: usize = 5;

/// Rounds before any elimination can happen (early leads are noisy).
const ELIM_MIN_ROUNDS: usize = 10;

struct Member {
    name: String,
    strategy: Box<dyn Strategy>,
    eliminated: bool,
    stale_rounds: usize,
}

struct RoundAsk {
    batch: Vec<Genome>,
    /// Member proposals answered by the shared memo (or by another
    /// member's identical proposal this round) instead of the backend.
    shared: usize,
}

struct Pending {
    /// One entry per member; `None` for members that were not asked
    /// (eliminated or individually done).
    asks: Vec<Option<RoundAsk>>,
    misses: Vec<Genome>,
}

/// N strategies under one shared budget and one shared fitness memo.
pub struct Race {
    config: GaConfig,
    ranges: Ranges,
    members: Vec<Member>,
    memo: HashMap<Genome, f64>,
    evaluations: usize,
    shared_hits: usize,
    rounds: usize,
    done: bool,
    obs: Arc<obs::Registry>,
    pending: Option<Pending>,
}

impl Race {
    /// Builds a race from member kinds (duplicates get `#2`, `#3`…
    /// name suffixes and independent derived seeds).
    pub fn new(kinds: &[String], ranges: Ranges, config: GaConfig) -> Result<Self, String> {
        if kinds.len() < 2 {
            return Err("a race needs at least 2 members".into());
        }
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut members = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let n = counts.entry(kind.as_str()).or_insert(0);
            *n += 1;
            let name = if *n == 1 {
                kind.clone()
            } else {
                format!("{kind}#{n}")
            };
            let member_cfg = GaConfig {
                seed: child_seed(config.seed, &format!("race/{name}")),
                ..config.clone()
            };
            let strategy = crate::build_single(kind, &name, ranges.clone(), member_cfg)?;
            members.push(Member {
                name,
                strategy,
                eliminated: false,
                stale_rounds: 0,
            });
        }
        Ok(Race {
            config,
            ranges,
            members,
            memo: HashMap::new(),
            evaluations: 0,
            shared_hits: 0,
            rounds: 0,
            done: false,
            obs: Arc::clone(obs::global()),
            pending: None,
        })
    }

    pub fn restore(s: RaceSnapshot) -> Result<Self, String> {
        if s.bounds.is_empty() || s.bounds.iter().any(|&(lo, hi)| lo > hi) {
            return Err("race snapshot has invalid gene bounds".into());
        }
        if s.members.len() < 2 {
            return Err("race snapshot has fewer than 2 members".into());
        }
        if s.kinds.len() != s.bounds.len() {
            return Err(format!(
                "race snapshot has {} gene kinds for {} bounds",
                s.kinds.len(),
                s.bounds.len()
            ));
        }
        let ranges = Ranges::with_kinds(s.bounds, s.kinds);
        let mut members = Vec::with_capacity(s.members.len());
        for m in s.members {
            let strategy = restore_labeled(m.snapshot, Some(&m.name))?;
            members.push(Member {
                name: m.name,
                strategy,
                eliminated: m.eliminated,
                stale_rounds: m.stale_rounds,
            });
        }
        Ok(Race {
            config: s.config,
            ranges,
            members,
            memo: s.memo.into_iter().collect(),
            evaluations: s.evaluations,
            shared_hits: s.shared_hits,
            rounds: s.rounds,
            done: s.done,
            obs: Arc::clone(obs::global()),
            pending: None,
        })
    }

    /// Shared backend-evaluation budget: what one lone strategy gets.
    fn budget(&self) -> usize {
        self.config.pop_size.saturating_mul(self.config.generations)
    }

    /// Bumps trailing counters and eliminates dominated members, always
    /// keeping at least one member un-eliminated.
    fn eliminate_dominated(&mut self) {
        let leader = self
            .members
            .iter()
            .filter(|m| !m.eliminated)
            .filter_map(|m| m.strategy.best().map(|(_, f)| f))
            .fold(f64::INFINITY, f64::min);
        if !leader.is_finite() {
            return;
        }
        let threshold = leader * (1.0 + ELIM_TOLERANCE);
        for m in &mut self.members {
            if m.eliminated {
                continue;
            }
            let trailing = match m.strategy.best() {
                Some((_, f)) => f > threshold,
                None => true,
            };
            if trailing {
                m.stale_rounds += 1;
            } else {
                m.stale_rounds = 0;
            }
        }
        if self.rounds < ELIM_MIN_ROUNDS {
            return;
        }
        for i in 0..self.members.len() {
            let survivors = self.members.iter().filter(|m| !m.eliminated).count();
            if survivors <= 1 {
                break;
            }
            let m = &mut self.members[i];
            if !m.eliminated && m.stale_rounds >= ELIM_PATIENCE {
                m.eliminated = true;
                self.obs
                    .counter(&obs::labeled("race_eliminations", &[("strategy", &m.name)]))
                    .inc();
            }
        }
    }
}

impl Strategy for Race {
    fn kind(&self) -> &'static str {
        "race"
    }

    fn config(&self) -> &GaConfig {
        &self.config
    }

    fn seed_population(&mut self, seeds: &[Genome]) -> usize {
        // Forward to every member; only those with seeding semantics
        // (warmstart) accept any. Must run before the first ask so the
        // pending round can't go stale.
        assert!(self.pending.is_none(), "seed_population during a round");
        self.members
            .iter_mut()
            .map(|m| m.strategy.seed_population(seeds))
            .sum()
    }

    fn ask(&mut self) -> Vec<Genome> {
        if self.done {
            return Vec::new();
        }
        if self.pending.is_none() {
            let mut seen: HashSet<Genome> = HashSet::new();
            let mut misses = Vec::new();
            let mut asks = Vec::with_capacity(self.members.len());
            for m in &mut self.members {
                if m.eliminated || m.strategy.is_done() {
                    asks.push(None);
                    continue;
                }
                let batch = m.strategy.ask();
                let mut shared = 0;
                for g in &batch {
                    if self.memo.contains_key(g) {
                        shared += 1;
                    } else if seen.insert(g.clone()) {
                        misses.push(g.clone());
                    } else {
                        shared += 1;
                    }
                }
                asks.push(Some(RoundAsk { batch, shared }));
            }
            self.pending = Some(Pending { asks, misses });
        }
        self.pending.as_ref().unwrap().misses.clone()
    }

    fn tell(&mut self, batch: &[Genome], scores: &[f64]) {
        if self.done && self.pending.is_none() {
            assert!(batch.is_empty(), "tell on a finished race");
            return;
        }
        let p = self.pending.take().expect("tell before ask");
        assert_eq!(batch, &p.misses[..], "tell batch must be what ask returned");
        assert_eq!(batch.len(), scores.len(), "one score per asked genome");
        for (g, &s) in batch.iter().zip(scores) {
            let s = if s.is_finite() { s } else { f64::INFINITY };
            self.memo.insert(g.clone(), s);
        }
        self.evaluations += batch.len();
        for (m, a) in self.members.iter_mut().zip(p.asks) {
            let Some(a) = a else { continue };
            let member_scores: Vec<f64> = a.batch.iter().map(|g| self.memo[g]).collect();
            self.shared_hits += a.shared;
            if a.shared > 0 {
                self.obs
                    .counter(&obs::labeled("race_shared_hits", &[("strategy", &m.name)]))
                    .add(a.shared as u64);
            }
            m.strategy.tell(&a.batch, &member_scores);
        }
        self.rounds += 1;
        self.obs.counter("race_rounds").inc();
        self.obs.counter("race_evaluations").add(batch.len() as u64);
        self.eliminate_dominated();
        let all_idle = self
            .members
            .iter()
            .all(|m| m.eliminated || m.strategy.is_done());
        if self.evaluations >= self.budget() || all_idle {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn best(&self) -> Option<(Genome, f64)> {
        // Eliminated members' results still count; ties go to the
        // earliest member, so the answer is order-deterministic.
        let mut best: Option<(Genome, f64)> = None;
        for m in &self.members {
            if let Some((g, f)) = m.strategy.best() {
                match &best {
                    Some((_, b)) if f >= *b => {}
                    _ => best = Some((g, f)),
                }
            }
        }
        best
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// For a race, "cache hits" are the cross-member shared hits — the
    /// portfolio's reason to share one memo.
    fn cache_hits(&self) -> usize {
        self.shared_hits
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut memo: Vec<(Genome, f64)> = self.memo.iter().map(|(g, &f)| (g.clone(), f)).collect();
        memo.sort_by(|a, b| a.0.cmp(&b.0));
        StrategySnapshot::Race(RaceSnapshot {
            config: self.config.clone(),
            bounds: self.ranges.iter().collect(),
            kinds: self.ranges.kinds().to_vec(),
            memo,
            evaluations: self.evaluations,
            shared_hits: self.shared_hits,
            rounds: self.rounds,
            done: self.done,
            members: self
                .members
                .iter()
                .map(|m| MemberSnapshot {
                    name: m.name.clone(),
                    eliminated: m.eliminated,
                    stale_rounds: m.stale_rounds,
                    snapshot: m.strategy.snapshot(),
                })
                .collect(),
        })
    }

    fn set_obs(&mut self, registry: Arc<obs::Registry>) {
        for m in &mut self.members {
            m.strategy.set_obs(Arc::clone(&registry));
        }
        self.obs = registry;
    }

    fn standings(&self) -> Vec<Standing> {
        self.members
            .iter()
            .map(|m| Standing {
                name: m.name.clone(),
                best_fitness: m.strategy.best().map(|(_, f)| f),
                evaluations: m.strategy.evaluations(),
                eliminated: m.eliminated,
            })
            .collect()
    }
}

/// Checkpoint of a [`Race`]: the shared memo (sorted for deterministic
/// bytes) plus one recursive snapshot per member.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceSnapshot {
    pub config: GaConfig,
    pub bounds: Vec<(i64, i64)>,
    pub kinds: Vec<GeneKind>,
    pub memo: Vec<(Genome, f64)>,
    pub evaluations: usize,
    pub shared_hits: usize,
    pub rounds: usize,
    pub done: bool,
    pub members: Vec<MemberSnapshot>,
}

/// One member inside a [`RaceSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberSnapshot {
    pub name: String,
    pub eliminated: bool,
    pub stale_rounds: usize,
    pub snapshot: StrategySnapshot,
}
