//! Measuring many parameter vectors on one program: the prepared context
//! and the per-method unit memo.
//!
//! A search measures one program under thousands of [`InlineParams`].
//! Most of a measurement does not read them: which methods are reachable,
//! what the baseline compiler makes of them, how that code runs, what the
//! adaptive controller decides to recompile. A [`Prepared`] context does
//! that work once per (program, scenario, architecture, [`AdaptConfig`])
//! cell; [`Prepared::measure`] then does only what a parameter vector
//! changes — it opt-compiles the *target* methods (all reachable ones
//! under `Opt`, the plan's hot methods under `Adapt`) into [`Unit`]s,
//! overlays them on the prepared profiles and records, and prices the
//! mix. No `Program` is cloned, no [`crate::compile::VmState`] built, no
//! untouched method profiled again. The one-shot [`crate::measure`] is
//! "prepare, then measure once", so there is a single implementation of
//! the §5 methodology, and the cost model it prices with
//! ([`crate::exec`]) is the one the `VmState` functions use.
//!
//! Under the optimizing compiler's full pipeline ([`PassSet::FULL`]) a
//! unit is compiled without building the inlined method: the inliner
//! streams its body straight into the dead-code index, the passes run on
//! that index, and the unit's sizes and local profile are read off the
//! statements that survive. The result equals what
//! [`crate::compile::opt_compile_method`] and [`ir::freq::local_profile`]
//! make of the tree, which is the path a body that reuses a register or
//! has a constant source takes instead, and so does any other pass set.
//!
//! # The unit memo
//!
//! The heuristic is a cascade of threshold tests, so many parameter
//! vectors make the same decisions in a given method. The inliner reports
//! the exact box of vectors that would have decided as it just did (an
//! [`inliner::DecisionRegion`]); every vector in the box compiles the
//! method to the same unit. A [`UnitMemo`] keeps, per method, the last
//! [`UNITS_PER_METHOD`] distinct boxes with their units; a lookup is a
//! scan of those few boxes and is exact, never approximate.
//!
//! # Cache scope
//!
//! A `Prepared` is a function of the cell alone and may be shared by
//! anyone measuring that cell. A `UnitMemo` holds results computed *from
//! parameter vectors*; it belongs to whoever owns the search (the
//! `Tuner` of one job) and dies with it, so how fast a job runs never
//! depends on which jobs ran before it. Nothing derived from parameters
//! is `static`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use inliner::{DecisionRegion, HotSites, InlineParams, InlineStats};
use ir::freq::{analyze, entry_counts, local_profile, MethodLocal, N_COST_CLASSES};
use ir::method::MethodId;
use ir::program::Program;
use ir::size::method_size;

use crate::adaptive::{plan_from, AdaptConfig};
use crate::arch::ArchModel;
use crate::compile::{
    baseline_record, opt_compile_flat, opt_compile_method, CompileLevel, CompiledMethod,
};
use crate::exec::{price, ExecBreakdown};
use crate::passes::PassSet;
use crate::scenario::{Measurement, Scenario};

/// Distinct decision regions a [`UnitMemo`] keeps per method; the oldest
/// is evicted first. Eight held 86–94% of the lookups of a whole GA job
/// on the paper's cells, and bounds one job's memo at a few MB however
/// long the job runs.
pub const UNITS_PER_METHOD: usize = 8;

/// What opt-compiling one method contributes to a measurement: its
/// compile record and the local profile of the compiled body.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The compile record (sizes, statistics, compile cycles).
    pub record: CompiledMethod,
    /// The per-entry dynamic profile of the compiled body.
    pub local: MethodLocal,
}

/// Lookup counts of a [`UnitMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Units served from the memo.
    pub hits: u64,
    /// Units that had to be compiled.
    pub misses: u64,
    /// Units dropped to stay within [`UNITS_PER_METHOD`].
    pub evictions: u64,
}

/// The regions recorded for one method, oldest first, with their units.
type Units = VecDeque<(DecisionRegion, Arc<Unit>)>;

/// The decision-region memo of one search over one [`Prepared`] context.
///
/// Safe to use from many threads at once; a unit two threads race to
/// compile is compiled twice and stored once.
pub struct UnitMemo {
    /// One slot per method of the program, by method index.
    slots: Vec<Mutex<Units>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl UnitMemo {
    /// Lookup counts so far.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn slot(&self, id: MethodId) -> std::sync::MutexGuard<'_, Units> {
        // Every update leaves the queue valid, so a panic elsewhere while
        // holding the lock poisons nothing worth refusing.
        self.slots[id.index()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, id: MethodId, params: &InlineParams) -> Option<Arc<Unit>> {
        self.slot(id)
            .iter()
            .find(|(region, _)| region.contains(params))
            .map(|(_, unit)| Arc::clone(unit))
    }

    /// Stores a freshly compiled unit; returns whether one was evicted.
    fn insert(&self, id: MethodId, region: DecisionRegion, unit: &Arc<Unit>) -> bool {
        let mut slot = self.slot(id);
        // Regions of one method are identical or disjoint: an equal one
        // means another thread compiled the same unit meanwhile.
        if slot.iter().any(|(r, _)| *r == region) {
            return false;
        }
        let evicted = slot.len() == UNITS_PER_METHOD;
        if evicted {
            slot.pop_front();
        }
        slot.push_back((region, Arc::clone(unit)));
        evicted
    }

    /// Adds one measurement's tally, here and in the global registry.
    fn count(&self, tally: MemoStats) {
        self.hits.fetch_add(tally.hits, Ordering::Relaxed);
        self.misses.fetch_add(tally.misses, Ordering::Relaxed);
        self.evictions.fetch_add(tally.evictions, Ordering::Relaxed);
        let reg = obs::global();
        reg.counter("jit_unit_memo_hits_total").add(tally.hits);
        reg.counter("jit_unit_memo_misses_total").add(tally.misses);
        reg.counter("jit_unit_memo_evictions_total")
            .add(tally.evictions);
    }
}

/// The profile of a method no measurement ever enters.
static NO_CODE: MethodLocal = MethodLocal {
    ops_per_entry: [0.0; N_COST_CLASSES],
    sites: Vec::new(),
    calls_per_entry: 0.0,
};

/// Runs `f`, recording its wall time into the global `hist` histogram
/// when detailed observability is on. `detailed` is hoisted by the
/// caller so the common (off) path costs one atomic load per
/// measurement, not one per phase.
fn timed<T>(detailed: bool, hist: &str, f: impl FnOnce() -> T) -> T {
    if !detailed {
        return f();
    }
    let reg = obs::global();
    let started = reg.now_micros();
    let out = f();
    reg.histogram(hist)
        .record(reg.now_micros().saturating_sub(started));
    out
}

/// The all-baseline state the `Adapt` scenario starts from, compiled and
/// priced before any parameter vector is seen.
struct AdaptBase {
    /// Local profile of every original method, by method index.
    locals: Vec<MethodLocal>,
    /// Baseline compile record of every reachable method, by method index.
    records: Vec<Option<CompiledMethod>>,
    /// Sum of the records' compile cycles.
    compile_cycles: f64,
    /// One iteration of the all-baseline state.
    exec: ExecBreakdown,
    /// Share of the first iteration run before recompilation lands.
    warmup_fraction: f64,
}

/// Everything a measurement of one program needs that no parameter
/// vector changes. See the [module documentation](self).
pub struct Prepared {
    arch: ArchModel,
    n_methods: usize,
    entry: MethodId,
    /// The methods a measurement opt-compiles: every reachable one under
    /// `Opt`, the controller's hot methods (hottest first) under `Adapt`.
    targets: Vec<MethodId>,
    /// The call sites the profile marked hot (empty under `Opt`: there is
    /// no profile).
    hot_sites: HotSites,
    /// `Some` under `Adapt`. Under `Opt` every method a measurement can
    /// enter is a target, so nothing of the original code is ever priced.
    base: Option<AdaptBase>,
}

impl Prepared {
    /// Does the parameter-independent work of measuring `program` under
    /// the given scenario and architecture. `adapt_cfg` is only consulted
    /// under [`Scenario::Adapt`].
    #[must_use]
    pub fn new(
        program: &Program,
        scenario: Scenario,
        arch: &ArchModel,
        adapt_cfg: &AdaptConfig,
    ) -> Self {
        let detailed = obs::global().detailed();
        let n_methods = program.methods.len();
        let reachable = program.reachable();
        let (targets, hot_sites, base) = match scenario {
            Scenario::Opt => (reachable, HotSites::new(), None),
            Scenario::Adapt => {
                let (records, compile_cycles) = timed(detailed, "jit_compile_micros", || {
                    let mut records = vec![None; n_methods];
                    for &id in &reachable {
                        records[id.index()] =
                            Some(baseline_record(method_size(program.method(id)), arch));
                    }
                    let cycles = records.iter().flatten().map(|c| c.compile_cycles).sum();
                    (records, cycles)
                });
                // One profile of the original program serves the
                // all-baseline state's price and the controller's plan.
                let (fa, exec) = timed(detailed, "jit_exec_micros", || {
                    let fa = analyze(program, 1.0);
                    let exec = price(
                        &fa.entries,
                        |mi| (&fa.locals[mi], records[mi].as_ref()),
                        arch,
                    );
                    (fa, exec)
                });
                let plan = plan_from(&fa, program, arch, adapt_cfg);
                let base = AdaptBase {
                    locals: fa.locals,
                    records,
                    compile_cycles,
                    exec,
                    warmup_fraction: adapt_cfg.warmup_fraction.clamp(0.0, 1.0),
                };
                (plan.hot_methods, plan.hot_sites, Some(base))
            }
        };
        Self {
            arch: arch.clone(),
            n_methods,
            entry: program.entry,
            targets,
            hot_sites,
            base,
        }
    }

    /// An empty memo for a search over this context.
    #[must_use]
    pub fn new_memo(&self) -> UnitMemo {
        UnitMemo {
            slots: (0..self.n_methods).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Measures `program` — the one this context was prepared from —
    /// under `params`, compiling every target method.
    #[must_use]
    pub fn measure(&self, program: &Program, params: &InlineParams) -> Measurement {
        self.measure_passes(program, params, PassSet::FULL)
    }

    /// [`Prepared::measure`] with the optimizer running `passes`. A memo's
    /// decision regions say nothing about passes, so this takes none.
    #[must_use]
    pub fn measure_passes(
        &self,
        program: &Program,
        params: &InlineParams,
        passes: PassSet,
    ) -> Measurement {
        self.measure_impl(program, params, passes, None)
    }

    /// [`Prepared::measure`], taking each target's unit from `memo` when a
    /// recorded decision region contains `params` and recording it there
    /// otherwise. The result is the same `Measurement`, bit for bit.
    #[must_use]
    pub fn measure_memo(
        &self,
        program: &Program,
        params: &InlineParams,
        memo: &UnitMemo,
    ) -> Measurement {
        self.measure_impl(program, params, PassSet::FULL, Some(memo))
    }

    fn measure_impl(
        &self,
        program: &Program,
        params: &InlineParams,
        passes: PassSet,
        memo: Option<&UnitMemo>,
    ) -> Measurement {
        assert!(
            program.methods.len() == self.n_methods && program.entry == self.entry,
            "measured program is not the prepared one"
        );
        // Cost-model timings are high-frequency (every fitness call
        // measures every benchmark), so they only record under the
        // registry's runtime `detailed` flag.
        let detailed = obs::global().detailed();

        // The target methods' units, by method index.
        let units = timed(detailed, "jit_compile_micros", || {
            let (arch, hot) = (&self.arch, &self.hot_sites);
            let mut units: Vec<Option<Arc<Unit>>> = vec![None; self.n_methods];
            let mut tally = MemoStats::default();
            for &id in &self.targets {
                let cached = memo.and_then(|m| m.get(id, params));
                tally.hits += u64::from(cached.is_some());
                units[id.index()] = Some(cached.unwrap_or_else(|| {
                    let flat = (passes == PassSet::FULL)
                        .then(|| opt_compile_flat(program, id, arch, params, hot))
                        .flatten();
                    let (record, local, region) = flat.unwrap_or_else(|| {
                        let (method, record, region) =
                            opt_compile_method(program, id, arch, params, hot, passes);
                        (record, local_profile(&method.body), region)
                    });
                    let unit = Arc::new(Unit { record, local });
                    if let Some(memo) = memo {
                        tally.misses += 1;
                        tally.evictions += u64::from(memo.insert(id, region, &unit));
                    }
                    unit
                }));
            }
            if let Some(memo) = memo {
                memo.count(tally);
            }
            units
        });

        // The code each method runs in the final state: its unit if it was
        // opt-compiled, the baseline compiler's otherwise.
        let code = |mi: usize| match (&units[mi], &self.base) {
            (Some(unit), _) => (&unit.local, Some(&unit.record)),
            (None, Some(base)) => (&base.locals[mi], base.records[mi].as_ref()),
            (None, None) => (&NO_CODE, None),
        };
        let steady = timed(detailed, "jit_exec_micros", || {
            let locals: Vec<&MethodLocal> = (0..self.n_methods).map(|mi| code(mi).0).collect();
            let (entries, _) = entry_counts(&locals, self.entry, 1.0);
            price(&entries, code, &self.arch)
        });

        let mut code_size = 0u64;
        let mut inline_stats = InlineStats::default();
        let (mut n_opt_methods, mut n_baseline_methods) = (0, 0);
        for record in (0..self.n_methods).filter_map(|mi| code(mi).1) {
            code_size += u64::from(record.code_size);
            inline_stats.merge(&record.inline_stats);
            match record.level {
                CompileLevel::Opt => n_opt_methods += 1,
                CompileLevel::Baseline => n_baseline_methods += 1,
            }
        }

        let (baseline_compile, opt_compile, first_iter_exec) = match &self.base {
            // Summed in method order, like a `VmState`'s total.
            None => (
                0.0,
                units
                    .iter()
                    .flatten()
                    .map(|u| u.record.compile_cycles)
                    .sum(),
                steady.total_cycles,
            ),
            Some(base) => {
                // Summed in recompilation order, hottest method first.
                let mut opt_compile = 0.0;
                for id in &self.targets {
                    let unit = units[id.index()].as_ref().expect("every target has a unit");
                    opt_compile += unit.record.compile_cycles;
                }
                // First iteration: the warm-up fraction runs at
                // all-baseline speed before recompilation lands, the rest
                // at steady speed.
                let phi = base.warmup_fraction;
                (
                    base.compile_cycles,
                    opt_compile,
                    phi * base.exec.total_cycles + (1.0 - phi) * steady.total_cycles,
                )
            }
        };
        Measurement {
            total_cycles: baseline_compile + opt_compile + first_iter_exec,
            running_cycles: steady.total_cycles,
            compile_cycles: baseline_compile + opt_compile,
            baseline_compile_cycles: baseline_compile,
            opt_compile_cycles: opt_compile,
            first_iter_exec_cycles: first_iter_exec,
            steady,
            code_size,
            inline_stats,
            n_opt_methods,
            n_baseline_methods,
        }
    }
}
