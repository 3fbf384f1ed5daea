//! The three off-line scenarios: `fault` (one inlining job under
//! seeded fault weather), `mixed` (the same weather over a
//! heterogeneous backlog) and `store` (the persistent fitness store
//! killed mid-append) — hundreds of seeds in seconds of wall clock (the
//! network is simulated and the clock is virtual — only fitness
//! evaluation costs real CPU).
//!
//! `fault` is `mixed` with one problem: both derive the same weather
//! and GA seed and run the one Cluster-backed body, which holds every
//! job to **no lost jobs**, **bit-identical results** and **checkpoints
//! stay loadable** (see [`crate::cluster`]).

use std::collections::HashMap;

use simrng::child_rng;

use crate::cluster::{Cluster, ClusterConfig};
use crate::scenario::{
    drain, tuned, FailureKind, Scale, Scenario, SeedReport, SweepReport, Truth, Tuned, Weather,
};

/// GA seeds scenarios draw from (small on purpose — ground truths are
/// cached per `(problem, GA seed)`).
const GA_SEEDS: [u64; 4] = [1, 7, 23, 77];

/// The problem ids a mixed scenario submits — one job per id, all to
/// the same daemon over the same worker pool (every id in
/// [`problems::KNOWN`], spelled out so a new domain is an explicit
/// sweep decision, not a silent cost increase).
pub const MIXED_PROBLEMS: [&str; 3] = ["inline", "flags", "dss"];

/// A fully derived `fault` scenario: one `inline` job on a two-worker
/// cluster under seeded weather.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// The root seed.
    pub seed: u64,
    /// The fault plan and crash/partition timeline.
    pub weather: Weather,
    /// The GA seed of every job in the scenario (picks the search
    /// trajectory).
    pub ga_seed: u64,
    /// The [`ClusterConfig::redispatch`] hook: `false` runs the
    /// intentionally-broken daemon the sweep self-test must catch.
    pub redispatch: bool,
}

impl FaultScenario {
    /// Tunes one job per entry of `problems` under this scenario's
    /// weather, all queued on one daemon.
    fn run_backlog(&self, problems: &[&str], truth: &mut Truth<Tuned>, report: &mut SeedReport) {
        let mut jobs = Vec::with_capacity(problems.len());
        for problem in problems {
            let spec = Cluster::spec_for(problem, self.ga_seed);
            match tuned(truth, &spec) {
                Ok(want) => jobs.push((spec, want)),
                Err(e) => return report.broken(format!("reference tune: {e}")),
            }
        }
        let config = ClusterConfig {
            seed: self.seed,
            workers: self.weather.workers,
            plan: self.weather.plan,
            redispatch: self.redispatch,
            ..ClusterConfig::default()
        };
        drain(&config, &jobs, &self.weather.timeline, report, |_, _, _| {});
    }
}

impl Scenario for FaultScenario {
    const NAME: &'static str = "fault";
    type Truth = Truth<Tuned>;

    fn derive(seed: u64, scale: &Scale) -> Self {
        let mut rng = child_rng(seed, "sim/scenario");
        Self {
            seed,
            weather: Weather::draw(&mut rng),
            ga_seed: *rng.choose(&GA_SEEDS),
            redispatch: !scale.broken,
        }
    }

    fn replay_args(&self) -> String {
        if self.redispatch { "" } else { " --broken" }.to_string()
    }

    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        self.run_backlog(&MIXED_PROBLEMS[..1], truth, report);
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        let f = &sweep.faults;
        (f.dropped + f.duplicated + f.delayed > 0)
            .then_some(())
            .ok_or("no frame fault was injected — the schedules are inert")
    }
}

/// A fully derived `mixed` scenario: [`FaultScenario`]'s derivation
/// (seed N means the same schedule in both sweeps) over one job per
/// [`MIXED_PROBLEMS`] entry, always against the healthy daemon.
///
/// The invariant here is **no lost jobs**: a daemon holding a
/// heterogeneous backlog — an inlining job, a flag-selection job and a
/// data-structure job queued together — must drive *every* one of them
/// to `done` with its bit-exact fault-free result.
#[derive(Debug, Clone)]
pub struct MixedScenario(pub FaultScenario);

impl Scenario for MixedScenario {
    const NAME: &'static str = "mixed";
    type Truth = Truth<Tuned>;

    fn derive(seed: u64, scale: &Scale) -> Self {
        Self(FaultScenario {
            redispatch: true,
            ..FaultScenario::derive(seed, scale)
        })
    }

    fn run(&self, truth: &mut Self::Truth, report: &mut SeedReport) {
        self.0.run_backlog(&MIXED_PROBLEMS, truth, report);
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        FaultScenario::exercised(sweep)
    }
}

// ---------------------------------------------------------------------
// Store crash/recovery
// ---------------------------------------------------------------------

/// One persistent-store crash/recovery scenario, fully derived from its
/// seed: a write session killed mid-append (an optionally torn record
/// tail on the wal), a recovery session that must serve every
/// acknowledged record bit-exactly, and a third open proving recovery
/// is idempotent.
#[derive(Debug, Clone)]
pub struct StoreScenario {
    /// The root seed.
    pub seed: u64,
    /// Records appended across both write sessions.
    pub records: usize,
    /// Records acknowledged before the kill.
    pub kill_after: usize,
    /// Distinct tuning cells the records spread over.
    pub cells: usize,
    /// Wal records per background compaction (0 disables it).
    pub compact_threshold: usize,
    /// Whether session one compacts explicitly before the kill.
    pub compact_before_kill: bool,
    /// Whether session two compacts after recovering.
    pub compact_after_restart: bool,
    /// Where the in-flight record's write is cut, as a fraction of its
    /// encoded length. `None` = the process died between appends (a
    /// clean tail).
    pub torn_frac: Option<f64>,
}

impl Scenario for StoreScenario {
    const NAME: &'static str = "store";
    type Truth = ();

    fn derive(seed: u64, _: &Scale) -> Self {
        let mut rng = child_rng(seed, "sim/store");
        let records = 12 + rng.below(36) as usize;
        Self {
            seed,
            records,
            kill_after: 1 + rng.below(records as u64 - 1) as usize,
            cells: 1 + rng.below(3) as usize,
            compact_threshold: 4 + rng.below(12) as usize,
            compact_before_kill: rng.chance(0.4),
            compact_after_restart: rng.chance(0.5),
            torn_frac: rng.chance(0.8).then(|| rng.f64()),
        }
    }

    /// Runs the three sessions in a scratch directory under the system
    /// temp dir (removed afterwards).
    fn run(&self, (): &mut (), report: &mut SeedReport) {
        let dir =
            std::env::temp_dir().join(format!("simstore-{}-{}", std::process::id(), self.seed));
        let _ = std::fs::remove_dir_all(&dir);
        sessions(self, &dir, report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn exercised(sweep: &SweepReport) -> Result<(), &'static str> {
        (sweep.counters.get("torn_scenarios") > 0)
            .then_some(())
            .ok_or("no scenario tore the wal — the recovery path never ran")
    }
}

/// The deterministic record plan of a store scenario: `records` entries
/// over `cells` fingerprints, with deliberate duplicate keys (carrying
/// *different* fitness values) to exercise first-write-wins across the
/// crash boundary.
fn store_plan(sc: &StoreScenario) -> Vec<stored::Record> {
    let mut rng = child_rng(sc.seed, "sim/store/records");
    let fingerprints: Vec<stored::Fingerprint> = (0..sc.cells)
        .map(|c| stored::Fingerprint {
            cell_digest: stored::digest_parts(&["simstore", &c.to_string(), &sc.seed.to_string()]),
            arch: if c % 2 == 0 { "x86-p4" } else { "ppc-g4" }.to_string(),
            features: (0..stored::FEATURES).map(|_| rng.f64() * 8.0).collect(),
            // Mix tagged and untagged records so the crash sweep also
            // covers the optional problem-tag encoding.
            problem: ["inline", "flags", "dss"][c % 3].to_string(),
        })
        .collect();
    let mut plan: Vec<stored::Record> = Vec::with_capacity(sc.records + 1);
    // One extra record: the one "in flight" when the kill lands.
    for _ in 0..=sc.records {
        let rec = if !plan.is_empty() && rng.chance(0.15) {
            // A duplicate key with a conflicting fitness: the store must
            // keep serving the first acknowledged value.
            let prev = rng.choose(&plan).clone();
            stored::Record {
                fitness: rng.f64() * 4.0,
                ..prev
            }
        } else {
            stored::Record {
                fingerprint: rng.choose(&fingerprints).clone(),
                genome: (0..5).map(|_| rng.below(100) as i64).collect(),
                fitness: rng.f64() * 4.0,
            }
        };
        plan.push(rec);
    }
    plan
}

fn store_options(sc: &StoreScenario) -> stored::StoreOptions {
    stored::StoreOptions {
        compact_threshold: sc.compact_threshold,
        obs: std::sync::Arc::new(obs::Registry::new()),
    }
}

/// Acknowledged ground truth: first write wins per key, keyed exactly
/// like [`stored::Record::key`] resolves lookups.
type Acked = HashMap<(u64, Vec<i64>), f64>;

fn check_served(store: &stored::Store, acked: &Acked, when: &str, report: &mut SeedReport) {
    for ((cell, genome), want) in acked {
        match store.get(*cell, genome) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            Some(got) => report.fail(
                FailureKind::Mismatch,
                format!(
                    "{when}: key ({cell:#x}, {genome:?}) served {got} (bits {:#x}), acked {want} \
                     (bits {:#x})",
                    got.to_bits(),
                    want.to_bits()
                ),
            ),
            None => report.broken(format!("{when}: acked record ({cell:#x}, {genome:?}) lost")),
        }
    }
    let stats = store.stats();
    if stats.records != acked.len() {
        report.broken(format!(
            "{when}: store indexes {} records, {} were acknowledged",
            stats.records,
            acked.len()
        ));
    }
}

/// The three sessions: write until killed, recover and keep writing,
/// reopen cleanly.
fn sessions(sc: &StoreScenario, dir: &std::path::Path, report: &mut SeedReport) {
    let plan = store_plan(sc);
    let mut acked = Acked::new();

    // Session one: append until the kill point, then die. `drop` joins
    // the compactor, which is the right model — the torn bytes below
    // stand in for the append that was *in flight* when the process was
    // killed, which by the ack contract is the only write that may be
    // lost.
    match stored::Store::open_with(dir, store_options(sc)) {
        Err(e) => report.broken(format!("first open: {e}")),
        Ok(store) => {
            for rec in &plan[..sc.kill_after] {
                let dup = acked.contains_key(&(rec.fingerprint.cell_digest, rec.genome.clone()));
                match store.append(rec) {
                    Ok(fresh) => {
                        if fresh == dup {
                            report.broken(format!(
                                "append said fresh={fresh} for {} key {:?}",
                                if dup { "duplicate" } else { "new" },
                                rec.genome
                            ));
                        }
                        acked
                            .entry((rec.fingerprint.cell_digest, rec.genome.clone()))
                            .or_insert(rec.fitness);
                    }
                    Err(e) => report.broken(format!("append: {e}")),
                }
            }
            if sc.compact_before_kill {
                if let Err(e) = store.compact() {
                    report.broken(format!("pre-kill compact: {e}"));
                }
            }
        }
    }

    // The kill: a strict prefix of the in-flight record's encoding lands
    // on the wal tail.
    let mut torn_bytes = 0u64;
    if let Some(frac) = sc.torn_frac {
        let encoded = stored::encode_record(&plan[sc.kill_after]);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = 1 + ((frac * (encoded.len() - 2) as f64) as usize).min(encoded.len() - 2);
        torn_bytes = cut as u64;
        let tail = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.seg"))
            .and_then(|mut f| std::io::Write::write_all(&mut f, &encoded[..cut]));
        if let Err(e) = tail {
            report.broken(format!("injecting torn tail: {e}"));
        }
    }

    // Session two: recovery. Every acknowledged record must be served
    // bit-exactly, the torn tail must be measured and truncated, and the
    // remaining appends must land on the recovered wal.
    match stored::Store::open_with(dir, store_options(sc)) {
        Err(e) => report.broken(format!("recovery open: {e}")),
        Ok(store) => {
            let recovered = store.stats().recovered_torn_bytes;
            if recovered != torn_bytes {
                report.broken(format!(
                    "recovery truncated {recovered} bytes, kill tore {torn_bytes}"
                ));
            }
            check_served(&store, &acked, "after recovery", report);
            for rec in &plan[sc.kill_after..sc.records] {
                match store.append(rec) {
                    Ok(_) => {
                        acked
                            .entry((rec.fingerprint.cell_digest, rec.genome.clone()))
                            .or_insert(rec.fitness);
                    }
                    Err(e) => report.broken(format!("post-recovery append: {e}")),
                }
            }
            if sc.compact_after_restart {
                if let Err(e) = store.compact() {
                    report.broken(format!("post-recovery compact: {e}"));
                }
            }
            check_served(&store, &acked, "after restart writes", report);
        }
    }

    // Session three: recovery must be idempotent — a clean reopen serves
    // the same records and finds nothing left to truncate.
    match stored::Store::open_with(dir, store_options(sc)) {
        Err(e) => report.broken(format!("third open: {e}")),
        Ok(store) => {
            let recovered = store.stats().recovered_torn_bytes;
            if recovered != 0 {
                report.broken(format!(
                    "clean reopen truncated {recovered} bytes; recovery was not idempotent"
                ));
            }
            check_served(&store, &acked, "after clean reopen", report);
        }
    }

    report.counters.add("records", acked.len() as u64);
    report.counters.add("torn_bytes", torn_bytes);
    report
        .counters
        .add("torn_scenarios", u64::from(torn_bytes > 0));
}
