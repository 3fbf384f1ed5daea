//! Durable job state: per-generation checkpoints in a run directory.
//!
//! Layout under the daemon's `--dir`:
//!
//! ```text
//! <dir>/jobs/<id>/spec.json        the JobSpec as submitted
//! <dir>/jobs/<id>/checkpoint.json  GaSnapshot after the last generation
//! <dir>/jobs/<id>/online.json      OnlineSnapshot after the last epoch
//!                                  (online jobs only)
//! <dir>/jobs/<id>/result.json      written once, when the job finishes
//! <dir>/jobs/<id>/canceled         marker: don't resume this job
//! ```
//!
//! Every write goes through a temp-file + `rename` pair, so a `SIGKILL`
//! at any instant leaves either the previous complete checkpoint or the
//! new complete one — never a torn file. That, plus every strategy's
//! bit-exact [`search::StrategySnapshot`] round-trip, is what makes
//! kill-and-restart produce the same tuned parameters as an
//! uninterrupted run.
//!
//! Each file's JSON shape is one `record!` row list below (spelling
//! and presence rules: `crate::codec`). A GA checkpoint is the bare
//! [`ga::GaSnapshot`] object; every other strategy's carries a
//! `"strategy"` tag, and a race nests its members' recursively.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ga::{GaSnapshot, GeneKind, Generation};
use online::{DetectorSnapshot, EpochRow, OnlineSnapshot};
use search::{
    AnnealSnapshot, CoreSnapshot, GridSnapshot, HillSnapshot, MemberSnapshot, RaceSnapshot,
    RandomSnapshot, StrategySnapshot, WarmstartSnapshot,
};

pub use crate::codec::{f64_from_json, f64_to_json};
use crate::codec::{
    optional, record, Bool, Bound, Codec, Genome, Int, Kinds, List, Nullable, Pos, RngState,
    Scored, Str, F64, U64,
};
use crate::job::{GaConfigFmt, JobSpec};
use crate::json::{parse, Json};

record! {
    /// One `history` entry of a GA checkpoint.
    GenerationFmt: Generation = "history entry" {
        index: Int;
        best_fitness: F64;
        best_genome: Genome;
        mean_fitness: F64;
    }
}

record! {
    /// The GA engine's state — untagged, so it is also the whole
    /// `checkpoint.json` of a `ga` job. Deterministic bytes: the memo
    /// is already sorted by `GaState::snapshot`. Structural decoding
    /// only; population size and genome ranges are `GaState::restore`'s
    /// to check.
    pub(crate) GaSnapshotFmt: GaSnapshot = "checkpoint" {
        bounds: List<Bound>;
        kinds: Kinds = vec![GeneKind::Int; bounds.len()], omit;
        config: GaConfigFmt;
        rng_state: RngState;
        population: List<Genome>;
        cache: List<Scored>;
        evaluations: Int;
        cache_hits: Int;
        history: List<GenerationFmt>;
        best_genome: Genome;
        best_fitness: F64;
        stagnant: Int;
        next_gen: Int;
        done: Bool;
    }
}

record! {
    /// The state every non-GA strategy embeds.
    pub(crate) CoreFmt: CoreSnapshot = "strategy core" {
        bounds: List<Bound>;
        kinds: Kinds = vec![GeneKind::Int; bounds.len()], omit;
        config: GaConfigFmt;
        memo: List<Scored>;
        proposed: Int;
        evaluations: Int;
        cache_hits: Int;
        best: Nullable<Scored>;
        rounds: Int;
        done: Bool;
    }
}

record! {
    RandomFmt: RandomSnapshot = "random checkpoint" {
        core: CoreFmt;
        rng_state: RngState;
    }
}

record! {
    HillFmt: HillSnapshot = "hillclimb checkpoint" {
        core: CoreFmt;
        rng_state: RngState;
        current: Nullable<Scored>;
        stagnant: Int;
        restarts: Int;
    }
}

record! {
    AnnealFmt: AnnealSnapshot = "anneal checkpoint" {
        core: CoreFmt;
        rng_state: RngState;
        current: Nullable<Scored>;
    }
}

record! {
    GridFmt: GridSnapshot = "grid checkpoint" {
        core: CoreFmt;
        window: List<Bound>;
        cursor: Int;
        level: Int;
    }
}

record! {
    WarmstartFmt: WarmstartSnapshot = "warmstart checkpoint" {
        seeds: List<Genome>;
        ga: GaSnapshotFmt;
    }
}

record! {
    MemberFmt: MemberSnapshot = "race member" {
        name: Str;
        eliminated: Bool;
        stale_rounds: Int;
        snapshot: StrategyFmt;
    }
}

record! {
    pub(crate) RaceFmt: RaceSnapshot = "race checkpoint" {
        config: GaConfigFmt;
        bounds: List<Bound>;
        kinds: Kinds = vec![GeneKind::Int; bounds.len()], omit;
        memo: List<Scored>;
        evaluations: Int;
        shared_hits: Int;
        rounds: Int;
        done: Bool;
        members: List<MemberFmt>;
    }
}

/// Any strategy's checkpoint: the variant's rows behind a `"strategy"`
/// tag, or — with no tag at all — a GA snapshot.
struct StrategyFmt;

/// `tag => Variant(its rows)`, for both directions at once.
macro_rules! tagged_strategies {
    ($($tag:literal => $variant:ident($fmt:ty),)+) => {
        impl Codec for StrategyFmt {
            type T = StrategySnapshot;
            const WHAT: &'static str = "a strategy checkpoint object";
            fn enc(s: &StrategySnapshot) -> Json {
                let (tag, rows) = match s {
                    StrategySnapshot::Ga(s) => return GaSnapshotFmt::enc(s),
                    $(StrategySnapshot::$variant(s) => ($tag, <$fmt>::rows(s)),)+
                };
                let mut tagged = vec![("strategy", Json::Str(tag.into()))];
                tagged.extend(rows);
                Json::obj(tagged)
            }
            fn dec(j: &Json) -> Result<StrategySnapshot, String> {
                match optional::<Str>(j, "checkpoint", "strategy", true)?.as_deref() {
                    None => GaSnapshotFmt::dec(j).map(StrategySnapshot::Ga),
                    $(Some($tag) => <$fmt>::dec(j).map(StrategySnapshot::$variant),)+
                    Some(other) => Err(format!("unknown checkpoint strategy tag '{other}'")),
                }
            }
        }
    };
}

tagged_strategies! {
    "random" => Random(RandomFmt),
    "hillclimb" => HillClimb(HillFmt),
    "anneal" => Anneal(AnnealFmt),
    "grid" => Grid(GridFmt),
    "warmstart" => Warmstart(WarmstartFmt),
    "race" => Race(RaceFmt),
}

/// Serializes any strategy's checkpoint (`checkpoint.json`).
#[must_use]
pub fn strategy_snapshot_to_json(s: &StrategySnapshot) -> Json {
    StrategyFmt::enc(s)
}

/// Deserializes [`strategy_snapshot_to_json`]'s encoding.
///
/// # Errors
/// Missing/mistyped fields or an unknown strategy tag.
pub fn strategy_snapshot_from_json(v: &Json) -> Result<StrategySnapshot, String> {
    StrategyFmt::dec(v)
}

record! {
    /// A finished job's deliverable (`result.json`): the tuned genome,
    /// its fitness and the rounds it took. Genome-shaped, not
    /// `InlineParams`-shaped, so any problem's winner fits.
    ResultFmt: (Vec<i64>, f64, usize) = "result" {
        genes: Genome;
        fitness: F64;
        generations: Int;
    }
}

/// Serializes a finished job's deliverable.
#[must_use]
pub fn result_to_json(genes: &[i64], fitness: f64, generations: usize) -> Json {
    ResultFmt::enc(&(genes.to_vec(), fitness, generations))
}

/// Deserializes [`result_to_json`]'s encoding.
///
/// # Errors
/// Missing or mistyped fields.
pub fn result_from_json(v: &Json) -> Result<(Vec<i64>, f64, usize), String> {
    ResultFmt::dec(v)
}

record! {
    IncumbentFmt: (Vec<i64>, f64) = "online incumbent" {
        genes: Genome;
        fitness: F64;
    }
}

record! {
    DetectorFmt: DetectorSnapshot = "online detector" {
        baseline: F64;
        recent: List<F64>;
    }
}

record! {
    EpochFmt: EpochRow = "online epoch row" {
        epoch: U64;
        pos: Pos;
        probe: F64;
        retuned: Bool;
        fitness: F64;
    }
}

record! {
    /// An online job's epoch-boundary state (`online.json`).
    pub(crate) OnlineSnapshotFmt: OnlineSnapshot = "online snapshot" {
        epoch: U64;
        incumbent: Nullable<IncumbentFmt> = None;
        detector: DetectorFmt;
        retunes: U64;
        detect_latencies: List<U64>;
        evals: U64;
        rows: List<EpochFmt>;
    }
}

/// Serializes an online-mode epoch checkpoint ([`OnlineSnapshot`]).
#[must_use]
pub fn online_snapshot_to_json(s: &OnlineSnapshot) -> Json {
    OnlineSnapshotFmt::enc(s)
}

/// Deserializes [`online_snapshot_to_json`]'s encoding.
///
/// # Errors
/// Missing or mistyped fields.
pub fn online_snapshot_from_json(v: &Json) -> Result<OnlineSnapshot, String> {
    OnlineSnapshotFmt::dec(v)
}

/// A daemon run directory: owns the `jobs/` tree and all atomic writes.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Opens (creating if needed) a run directory.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        fs::create_dir_all(root.join("jobs"))
            .map_err(|e| format!("cannot create run dir {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    /// The directory root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory for one job.
    #[must_use]
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(id.to_string())
    }

    /// Writes `text` to `<job dir>/<name>` atomically (temp + rename).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_atomic(&self, id: u64, name: &str, text: &str) -> Result<(), String> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let tmp = dir.join(format!(".{name}.tmp"));
        let dst = dir.join(name);
        let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        f.write_all(text.as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        drop(f);
        fs::rename(&tmp, &dst).map_err(|e| format!("rename to {}: {e}", dst.display()))
    }

    fn read(&self, id: u64, name: &str) -> Option<String> {
        fs::read_to_string(self.job_dir(id).join(name)).ok()
    }

    /// Persists a job's spec (written once, at submit or recovery).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_spec(&self, id: u64, spec: &JobSpec) -> Result<(), String> {
        self.write_atomic(id, "spec.json", &spec.to_json().to_text())
    }

    /// Loads a job's spec.
    #[must_use]
    pub fn load_spec(&self, id: u64) -> Option<Result<JobSpec, String>> {
        self.read(id, "spec.json").map(|t| JobSpec::from_text(&t))
    }

    /// Persists the post-round checkpoint atomically.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_checkpoint(&self, id: u64, snapshot: &StrategySnapshot) -> Result<(), String> {
        self.write_atomic(
            id,
            "checkpoint.json",
            &strategy_snapshot_to_json(snapshot).to_text(),
        )
    }

    /// Loads the last checkpoint, if one was written.
    #[must_use]
    pub fn load_checkpoint(&self, id: u64) -> Option<Result<StrategySnapshot, String>> {
        self.read(id, "checkpoint.json")
            .map(|t| parse(&t).and_then(|v| strategy_snapshot_from_json(&v)))
    }

    /// Persists an online job's epoch-boundary snapshot atomically.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_online(&self, id: u64, snapshot: &OnlineSnapshot) -> Result<(), String> {
        self.write_atomic(
            id,
            "online.json",
            &online_snapshot_to_json(snapshot).to_text(),
        )
    }

    /// Loads the last online epoch snapshot, if one was written.
    #[must_use]
    pub fn load_online(&self, id: u64) -> Option<Result<OnlineSnapshot, String>> {
        self.read(id, "online.json")
            .map(|t| parse(&t).and_then(|v| online_snapshot_from_json(&v)))
    }

    /// Persists the final result.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_result(
        &self,
        id: u64,
        genes: &[i64],
        fitness: f64,
        generations: usize,
    ) -> Result<(), String> {
        self.write_atomic(
            id,
            "result.json",
            &result_to_json(genes, fitness, generations).to_text(),
        )
    }

    /// Loads a finished job's result.
    #[must_use]
    pub fn load_result(&self, id: u64) -> Option<Result<(Vec<i64>, f64, usize), String>> {
        self.read(id, "result.json")
            .map(|t| parse(&t).and_then(|v| result_from_json(&v)))
    }

    /// Drops a tombstone so recovery won't requeue this job.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn mark_canceled(&self, id: u64) -> Result<(), String> {
        self.write_atomic(id, "canceled", "")
    }

    /// Whether the job carries a cancellation tombstone.
    #[must_use]
    pub fn is_canceled(&self, id: u64) -> bool {
        self.job_dir(id).join("canceled").exists()
    }

    /// Every job id with a directory on disk, ascending.
    #[must_use]
    pub fn job_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = fs::read_dir(self.root.join("jobs"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::{GaConfig, GaState, Ranges};
    use jit::Scenario;
    use tuner::Goal;
    use workloads::DriftPos;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("served-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn stepped_snapshot() -> GaSnapshot {
        let mut state = GaState::new(
            Ranges::new(vec![(-50, 50); 5]),
            GaConfig {
                pop_size: 6,
                generations: 10,
                threads: 1,
                seed: 7,
                stagnation_limit: None,
                ..GaConfig::default()
            },
        );
        for _ in 0..3 {
            state.step(|g| g.iter().map(|&x| (x * x) as f64).sum());
        }
        state.snapshot()
    }

    #[test]
    fn snapshot_json_roundtrip_is_exact() {
        let snap = stepped_snapshot();
        let text = GaSnapshotFmt::enc(&snap).to_text();
        let back = GaSnapshotFmt::dec(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        // Deterministic bytes: same snapshot, same serialization.
        assert_eq!(GaSnapshotFmt::enc(&back).to_text(), text);
    }

    #[test]
    fn fresh_snapshot_with_infinite_fitness_roundtrips() {
        let state = GaState::new(
            Ranges::new(vec![(0, 9); 3]),
            GaConfig {
                pop_size: 4,
                threads: 1,
                ..GaConfig::default()
            },
        );
        let snap = state.snapshot();
        assert!(snap.best_fitness.is_infinite());
        let text = GaSnapshotFmt::enc(&snap).to_text();
        let back = GaSnapshotFmt::dec(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn nonfinite_floats_encode_explicitly() {
        for (x, tag) in [
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "nan"),
        ] {
            let v = f64_to_json(x);
            assert_eq!(v.as_str(), Some(tag));
            let back = f64_from_json(&v).unwrap();
            assert_eq!(back.is_nan(), x.is_nan());
            if !x.is_nan() {
                assert_eq!(back, x);
            }
        }
        assert_eq!(f64_from_json(&Json::Num(2.5)), Some(2.5));
    }

    #[test]
    fn online_snapshot_roundtrips_exactly() {
        let snap = OnlineSnapshot {
            epoch: 5,
            incumbent: Some((vec![3, -1, 40, 7, 2, 9, 1, 0], 12.625)),
            detector: DetectorSnapshot {
                baseline: 12.625,
                recent: vec![12.625, 13.5, f64::INFINITY],
            },
            retunes: 2,
            detect_latencies: vec![1, 3],
            evals: 480,
            rows: vec![
                EpochRow {
                    epoch: 0,
                    pos: DriftPos {
                        phase: 0,
                        num: 0,
                        den: 1,
                    },
                    probe: 12.625,
                    retuned: false,
                    fitness: 12.625,
                },
                EpochRow {
                    epoch: 1,
                    pos: DriftPos {
                        phase: 1,
                        num: 2,
                        den: 3,
                    },
                    probe: 14.0,
                    retuned: true,
                    fitness: 12.0,
                },
            ],
        };
        let text = online_snapshot_to_json(&snap).to_text();
        let back = online_snapshot_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);

        let rd = RunDir::open(tmp_dir("online")).unwrap();
        rd.save_online(9, &snap).unwrap();
        assert_eq!(rd.load_online(9).unwrap().unwrap(), snap);
        assert!(rd.load_online(8).is_none());
        fs::remove_dir_all(rd.root()).unwrap();
    }

    #[test]
    fn fresh_online_snapshot_without_incumbent_roundtrips() {
        let snap = OnlineSnapshot {
            epoch: 0,
            incumbent: None,
            detector: DetectorSnapshot {
                baseline: f64::INFINITY,
                recent: vec![],
            },
            retunes: 0,
            detect_latencies: vec![],
            evals: 0,
            rows: vec![],
        };
        let text = online_snapshot_to_json(&snap).to_text();
        let back = online_snapshot_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn run_dir_persists_and_recovers_state() {
        let dir = tmp_dir("roundtrip");
        let rd = RunDir::open(&dir).unwrap();
        let spec = JobSpec {
            name: "t".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: "x86-p4".into(),
            problem: "inline".into(),
            suite: vec!["db".into()],
            ga: GaConfig {
                threads: 1,
                ..GaConfig::default()
            },
            strategy: "ga".into(),
            tenant: "default".into(),
            online: None,
            drift_pos: None,
        };
        rd.save_spec(3, &spec).unwrap();
        let snap = StrategySnapshot::Ga(stepped_snapshot());
        rd.save_checkpoint(3, &snap).unwrap();
        assert_eq!(rd.load_spec(3).unwrap().unwrap(), spec);
        assert_eq!(rd.load_checkpoint(3).unwrap().unwrap(), snap);
        assert_eq!(rd.job_ids(), vec![3]);
        assert!(!rd.is_canceled(3));
        rd.mark_canceled(3).unwrap();
        assert!(rd.is_canceled(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_roundtrips() {
        let dir = tmp_dir("result");
        let rd = RunDir::open(&dir).unwrap();
        let genes = inliner::InlineParams::jikes_default().to_genes();
        rd.save_result(9, &genes, 0.875, 42).unwrap();
        let (g, f, n) = rd.load_result(9).unwrap().unwrap();
        assert_eq!(g, genes);
        assert_eq!(f.to_bits(), 0.875f64.to_bits());
        assert_eq!(n, 42);
        assert!(rd.load_result(8).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_accepts_non_inline_genome_lengths() {
        // Results are genome-shaped, not InlineParams-shaped: a dss job's
        // 8-gene winner persists and loads as-is.
        let dir = tmp_dir("result-dss");
        let rd = RunDir::open(&dir).unwrap();
        let genes: Vec<i64> = vec![0, 1, 2, 3, 4, 0, 1, 2];
        rd.save_result(4, &genes, 0.5, 7).unwrap();
        let (g, _, _) = rd.load_result(4).unwrap().unwrap();
        assert_eq!(g, genes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let dir = tmp_dir("atomic");
        let rd = RunDir::open(&dir).unwrap();
        rd.write_atomic(1, "x.json", "{}").unwrap();
        let names: Vec<String> = fs::read_dir(rd.job_dir(1))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["x.json"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_strategy_snapshot_roundtrips_through_json() {
        for spec in [
            "ga",
            "random",
            "hillclimb",
            "anneal",
            "grid",
            "warmstart",
            "race",
            "race:anneal+grid",
            "race:warmstart+random",
        ] {
            let mut s = search::build(
                spec,
                Ranges::new(vec![(1, 40), (1, 20), (1, 300)]),
                GaConfig {
                    pop_size: 6,
                    generations: 9,
                    threads: 1,
                    seed: 31,
                    stagnation_limit: None,
                    ..GaConfig::default()
                },
            )
            .unwrap();
            for _ in 0..4 {
                if s.is_done() {
                    break;
                }
                let batch = s.ask();
                let scores: Vec<f64> = batch
                    .iter()
                    .map(|g| g.iter().map(|&x| x as f64).sum())
                    .collect();
                s.tell(&batch, &scores);
            }
            let snap = s.snapshot();
            let text = strategy_snapshot_to_json(&snap).to_text();
            let back = strategy_snapshot_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, snap, "{spec} snapshot JSON round-trip drifted");
            // Deterministic bytes, and the restored strategy replays the
            // exact next batch.
            assert_eq!(strategy_snapshot_to_json(&back).to_text(), text);
            let mut resumed = search::restore(back).unwrap();
            assert_eq!(resumed.ask(), s.ask(), "{spec} resumed a different batch");
        }
    }

    #[test]
    fn warmstart_checkpoint_carries_its_seeds() {
        let ranges = Ranges::new(vec![(1, 40), (1, 20), (1, 300)]);
        let cfg = GaConfig {
            pop_size: 6,
            generations: 9,
            threads: 1,
            seed: 31,
            stagnation_limit: None,
            ..GaConfig::default()
        };
        let mut s = search::build("warmstart", ranges, cfg).unwrap();
        assert_eq!(s.seed_population(&[vec![3, 7, 150], vec![40, 20, 300]]), 2);
        let batch = s.ask();
        let scores: Vec<f64> = batch
            .iter()
            .map(|g| g.iter().map(|&x| x as f64).sum())
            .collect();
        s.tell(&batch, &scores);
        let snap = s.snapshot();
        let text = strategy_snapshot_to_json(&snap).to_text();
        assert!(
            text.contains("\"strategy\":\"warmstart\"")
                || text.contains("\"strategy\": \"warmstart\"")
        );
        let back = strategy_snapshot_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        match &back {
            StrategySnapshot::Warmstart(w) => {
                assert_eq!(w.seeds, vec![vec![3, 7, 150], vec![40, 20, 300]]);
            }
            other => panic!("decoded as {}", other.kind()),
        }
        // The restored run continues bit-identically from the seeded state.
        let mut resumed = search::restore(back).unwrap();
        assert_eq!(resumed.ask(), s.ask());
    }

    #[test]
    fn untagged_checkpoint_loads_as_legacy_ga() {
        let snap = stepped_snapshot();
        let legacy_text = GaSnapshotFmt::enc(&snap).to_text();
        assert!(
            !legacy_text.contains("\"strategy\""),
            "GA checkpoints must keep the pre-seam shape"
        );
        match strategy_snapshot_from_json(&parse(&legacy_text).unwrap()).unwrap() {
            StrategySnapshot::Ga(back) => assert_eq!(back, snap),
            other => panic!("legacy checkpoint decoded as {}", other.kind()),
        }
    }

    #[test]
    fn unknown_strategy_tag_is_an_error() {
        let v = parse(r#"{"strategy":"gradient"}"#).unwrap();
        let err = strategy_snapshot_from_json(&v).unwrap_err();
        assert!(err.contains("unknown checkpoint strategy tag"), "{err}");
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_panic() {
        let dir = tmp_dir("corrupt");
        let rd = RunDir::open(&dir).unwrap();
        rd.write_atomic(2, "checkpoint.json", "{\"bounds\":7}")
            .unwrap();
        assert!(rd.load_checkpoint(2).unwrap().is_err());
        rd.write_atomic(2, "checkpoint.json", "not json").unwrap();
        assert!(rd.load_checkpoint(2).unwrap().is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
