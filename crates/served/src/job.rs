//! The job model: what a client submits and what the daemon tracks.
//!
//! A [`JobSpec`] names a tuning cell exactly like the paper's Table 4 —
//! (scenario, goal, architecture) — plus the training suite and the
//! [`GaConfig`] driving the search. Its JSON form — on the wire and as
//! `spec.json` in the run directory — is the `record!` row lists
//! below; an absent optional key means what its row's default says.

use std::sync::OnceLock;

use ga::GaConfig;
use jit::{AdaptConfig, ArchModel, Scenario};
use online::{DetectorConfig, OnlineConfig};
use tuner::{Goal, TuningTask};
use workloads::{
    benchmark_by_name, spec_by_name, specjvm98, Benchmark, DriftKind, DriftPos, DriftSchedule,
};

use crate::codec::{
    record, Codec, Crossover, Drift, GoalName, Int, List, Nullable, Num, Pos, ScenarioName, Str,
    U32, U64,
};
use crate::json::{parse, Json};

/// The online re-tuning section of a [`JobSpec`]: the drift schedule
/// the workload follows and the detector that decides when to retune.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSpec {
    /// Total epochs (epoch 0 is the initial tune).
    pub epochs: u64,
    /// Drift schedule shape (`step` / `ramp` / `cyclic`).
    pub kind: DriftKind,
    /// Epochs per drift phase.
    pub period: u32,
    /// Distinct workload phases (phase 0 is the unmorphed suite).
    pub phases: u32,
    /// Seed of the workload morph streams.
    pub drift_seed: u64,
    /// Drift-detector probe window.
    pub window: usize,
    /// Drift-detector regression threshold, percent over baseline.
    pub threshold_pct: f64,
}

impl OnlineSpec {
    /// The drift schedule this spec describes.
    #[must_use]
    pub fn schedule(&self) -> DriftSchedule {
        DriftSchedule {
            kind: self.kind,
            period: self.period,
            phases: self.phases,
            seed: self.drift_seed,
        }
    }

    /// The full online policy configuration.
    #[must_use]
    pub fn config(&self) -> OnlineConfig {
        OnlineConfig {
            epochs: self.epochs,
            schedule: self.schedule(),
            detector: DetectorConfig {
                window: self.window,
                threshold_pct: self.threshold_pct,
            },
        }
    }

    /// Rejects values no schedule or detector can run with.
    fn check(&self) -> Result<(), String> {
        if self.epochs == 0 || self.epochs > 100_000 {
            return Err("'online.epochs' must be 1..=100000".into());
        }
        if self.period == 0 || self.phases == 0 {
            return Err("'online.period' and 'online.phases' must be >= 1".into());
        }
        if self.window == 0 || self.window > 64 {
            return Err("'online.window' must be 1..=64".into());
        }
        if self.threshold_pct <= 0.0 {
            return Err("'online.threshold_pct' must be a positive percentage".into());
        }
        Ok(())
    }
}

record! {
    /// The `online` section of a job spec.
    pub(crate) OnlineSpecFmt: OnlineSpec = "online" {
        epochs: U64;
        kind: Drift;
        period: U32 = 3;
        phases: U32 = 3;
        drift_seed: U64 = 0;
        window: Int = DetectorConfig::default().window;
        threshold_pct: Num = DetectorConfig::default().threshold_pct;
    }
}

/// What a client submits: one tuning job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name, e.g. `"Opt:Tot"`.
    pub name: String,
    /// Compilation scenario.
    pub scenario: Scenario,
    /// Optimization goal.
    pub goal: Goal,
    /// Architecture preset name: `"x86-p4"` or `"ppc-g4"`.
    pub arch: String,
    /// Problem id (see [`problems::KNOWN`]): `"inline"` (the default),
    /// `"flags"`, or `"dss"`.
    pub problem: String,
    /// Training-suite benchmark names; empty means the full SPECjvm98
    /// suite (the paper's training set).
    pub suite: Vec<String>,
    /// GA configuration (the seed makes the whole job deterministic).
    pub ga: GaConfig,
    /// Search strategy spec (see [`search::build`]): `"ga"` (the
    /// default), `"random"`, `"hillclimb"`, `"anneal"`, `"grid"`, or a
    /// racing portfolio like `"race"` / `"race:ga+random+grid"`.
    pub strategy: String,
    /// Owning tenant for quota accounting and fair scheduling (default
    /// [`shard::DEFAULT_TENANT`]).
    pub tenant: String,
    /// Online re-tuning mode: `Some` runs the job as a drifting-workload
    /// epoch loop with detection-triggered warm retunes; `None` (the
    /// default) is a plain offline tune.
    pub online: Option<OnlineSpec>,
    /// The workload position the suite is materialized at. Internal
    /// plumbing for per-epoch evaluation (`JobSpec::at_pos`): the
    /// daemon sends position-pinned specs to eval workers so their
    /// problem caches split per phase. `None` means phase 0.
    pub drift_pos: Option<DriftPos>,
}

impl JobSpec {
    /// Resolves the named architecture preset.
    ///
    /// # Errors
    /// Unknown architecture name.
    pub fn arch_model(&self) -> Result<ArchModel, String> {
        arch_by_name(&self.arch)
    }

    /// Builds the [`TuningTask`] this spec describes.
    ///
    /// # Errors
    /// Unknown architecture name.
    pub fn task(&self) -> Result<TuningTask, String> {
        Ok(TuningTask {
            name: self.name.clone(),
            scenario: self.scenario,
            goal: self.goal,
            arch: self.arch_model()?,
        })
    }

    /// Materializes the training suite — morphed to this spec's
    /// workload position when the job is online and pinned to one
    /// (`drift_pos`), so everything downstream (problem construction,
    /// store fingerprints, worker problem caches) sees the phase's
    /// workload without knowing about drift.
    ///
    /// # Errors
    /// Unknown benchmark name, or an explicitly empty suite.
    pub fn training(&self) -> Result<Vec<Benchmark>, String> {
        let base: Vec<Benchmark> = if self.suite.is_empty() {
            specjvm98()
        } else {
            self.suite
                .iter()
                .map(|name| {
                    benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))
                })
                .collect::<Result<_, _>>()?
        };
        match (&self.online, &self.drift_pos) {
            (Some(online), Some(pos)) => Ok(online.schedule().suite_for(&base, pos)),
            _ => Ok(base),
        }
    }

    /// A clone of this spec pinned to workload position `pos` — what
    /// the online runner evaluates one epoch against, locally and on
    /// eval workers.
    #[must_use]
    pub fn at_pos(&self, pos: DriftPos) -> Self {
        Self {
            drift_pos: Some(pos),
            ..self.clone()
        }
    }

    /// The adaptive-system model configuration (fixed: it models the VM,
    /// not the heuristic being tuned — see `jit::AdaptConfig`).
    #[must_use]
    pub fn adapt_cfg(&self) -> AdaptConfig {
        AdaptConfig::default()
    }

    /// Materializes the problem this spec tunes.
    ///
    /// # Errors
    /// Unknown problem/arch/benchmark names.
    pub fn build_problem(&self) -> Result<std::sync::Arc<dyn problems::Problem>, String> {
        problems::build(
            &self.problem,
            &self.task()?,
            &self.training()?,
            self.adapt_cfg(),
        )
    }

    /// Serializes the spec. The `online` and `drift_pos` keys are
    /// emitted only when set, so offline specs serialize byte-identically
    /// to every earlier release.
    #[must_use]
    pub fn to_json(&self) -> Json {
        JobSpecFmt::enc(self)
    }

    /// Upper bound on the evaluations this job can spend: every search
    /// strategy — racing portfolios included — works under the shared
    /// proposal budget of `pop_size * generations` (see `search::core`),
    /// so this is the reservation the quota accountant holds during the
    /// job's lifetime.
    #[must_use]
    pub fn eval_estimate(&self) -> u64 {
        let budget = (self.ga.pop_size as u64).saturating_mul(self.ga.generations as u64);
        match &self.online {
            None => budget,
            // Online: one probe per epoch, plus the initial tune, plus
            // one warm retune per workload boundary (the detector only
            // fires on regression, and a retuned incumbent holds its
            // phase, so boundaries bound the steady-state retune count).
            Some(online) => {
                let tunes = 1 + online.schedule().boundaries(online.epochs);
                online.epochs.saturating_add(tunes.saturating_mul(budget))
            }
        }
    }

    /// Deserializes a spec and validates every referenced name, so a bad
    /// submit fails at the protocol layer rather than on a worker.
    ///
    /// # Errors
    /// Missing/mistyped fields or unknown scenario/goal/arch/benchmark
    /// names.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let spec = JobSpecFmt::dec(v)?;
        spec.check()?;
        Ok(spec)
    }

    /// Everything a decoded spec must satisfy before a runner sees it.
    fn check(&self) -> Result<(), String> {
        arch_by_name(&self.arch)?;
        if !problems::is_known(&self.problem) {
            return Err(format!(
                "unknown problem '{}' (use {})",
                self.problem,
                problems::KNOWN.join("|")
            ));
        }
        // A name lookup only: generating the programs is `training`'s job.
        if let Some(b) = self.suite.iter().find(|b| spec_by_name(b).is_none()) {
            return Err(format!("unknown benchmark '{b}'"));
        }
        self.ga.check()?;
        search::validate_spec(&self.strategy)?;
        if self.tenant.is_empty() || self.tenant.len() > 64 {
            return Err("'tenant' must be 1..=64 characters".into());
        }
        if let Some(online) = &self.online {
            online.check()?;
        }
        if let Some(pos) = &self.drift_pos {
            let online = self
                .online
                .as_ref()
                .ok_or("'drift_pos' requires an 'online' section")?;
            if pos.phase >= online.phases {
                return Err("'drift_pos' out of range for the online schedule".into());
            }
        }
        Ok(())
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    /// Propagates parse and validation errors.
    pub fn from_text(text: &str) -> Result<Self, String> {
        Self::from_json(&parse(text)?)
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue (also: recovered and waiting to resume).
    Queued,
    /// On a worker thread.
    Running,
    /// Finished; a result is available.
    Done,
    /// Errored out; see the job's `error` field.
    Failed,
    /// Canceled by request.
    Canceled,
}

impl JobState {
    /// Stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// Whether the state is terminal.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// Scenario wire names (`"opt"` / `"adapt"`).
#[must_use]
pub fn scenario_name(s: Scenario) -> &'static str {
    match s {
        Scenario::Opt => "opt",
        Scenario::Adapt => "adapt",
    }
}

/// Parses a scenario wire name.
///
/// # Errors
/// Unknown name.
pub fn scenario_by_name(name: &str) -> Result<Scenario, String> {
    match name {
        "opt" | "Opt" => Ok(Scenario::Opt),
        "adapt" | "Adapt" => Ok(Scenario::Adapt),
        _ => Err(format!("unknown scenario '{name}' (use opt|adapt)")),
    }
}

/// Parses a goal wire name (the paper's `Run`/`Tot`/`Bal` labels,
/// case-insensitive).
///
/// # Errors
/// Unknown name.
pub fn goal_by_name(name: &str) -> Result<Goal, String> {
    match name.to_ascii_lowercase().as_str() {
        "run" | "running" => Ok(Goal::Running),
        "tot" | "total" => Ok(Goal::Total),
        "bal" | "balance" => Ok(Goal::Balance),
        _ => Err(format!("unknown goal '{name}' (use run|tot|bal)")),
    }
}

/// Resolves an architecture preset by its `ArchModel::name`.
///
/// # Errors
/// Unknown name.
pub fn arch_by_name(name: &str) -> Result<ArchModel, String> {
    match name {
        "x86-p4" => Ok(ArchModel::pentium4()),
        "ppc-g4" => Ok(ArchModel::powerpc_g4()),
        _ => Err(format!("unknown arch '{name}' (use x86-p4|ppc-g4)")),
    }
}

/// What a spec or checkpoint that omits a GA key gets: the library
/// defaults on one eval thread (the daemon's thread budget, not the
/// host's core count, grants parallelism). An absent `ga` key and an
/// empty `"ga":{}` therefore mean the same configuration.
fn ga_defaults() -> &'static GaConfig {
    static DEFAULTS: OnceLock<GaConfig> = OnceLock::new();
    DEFAULTS.get_or_init(|| GaConfig {
        threads: 1,
        ..GaConfig::default()
    })
}

record! {
    /// A [`GaConfig`], in job specs and inside every checkpoint.
    /// `stagnation_limit` distinguishes an absent key (the default
    /// limit) from `null` (never stop early).
    pub(crate) GaConfigFmt: GaConfig = "ga" {
        pop_size: Int = ga_defaults().pop_size;
        generations: Int = ga_defaults().generations;
        tournament_size: Int = ga_defaults().tournament_size;
        crossover_prob: Num = ga_defaults().crossover_prob;
        crossover_kind: Crossover = ga_defaults().crossover_kind;
        mutation_prob: Num = ga_defaults().mutation_prob;
        elitism: Int = ga_defaults().elitism;
        seed: U64 = ga_defaults().seed;
        stagnation_limit: Nullable<Int> = ga_defaults().stagnation_limit, absent;
        threads: Int = ga_defaults().threads;
    }
}

record! {
    /// A job spec: the `job` body of a submit frame and `spec.json`.
    pub(crate) JobSpecFmt: JobSpec = "job" {
        name: Str;
        scenario: ScenarioName;
        goal: GoalName;
        arch: Str;
        problem: Str = "inline".to_string();
        suite: List<Str> = Vec::new();
        ga: GaConfigFmt = ga_defaults().clone();
        strategy: Str = "ga".to_string();
        tenant: Str = shard::DEFAULT_TENANT.to_string();
        online: Nullable<OnlineSpecFmt> = None, omit;
        drift_pos: Nullable<Pos> = None, omit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "Opt:Tot".into(),
            scenario: Scenario::Opt,
            goal: Goal::Total,
            arch: "x86-p4".into(),
            problem: "inline".into(),
            suite: vec!["db".into(), "jess".into()],
            ga: GaConfig {
                pop_size: 8,
                generations: 10,
                threads: 1,
                seed: u64::MAX - 3,
                stagnation_limit: None,
                ..GaConfig::default()
            },
            strategy: "ga".into(),
            tenant: "default".into(),
            online: None,
            drift_pos: None,
        }
    }

    fn online_section() -> OnlineSpec {
        OnlineSpec {
            epochs: 9,
            kind: DriftKind::Step,
            period: 3,
            phases: 3,
            drift_seed: 17,
            window: 2,
            threshold_pct: 5.0,
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let text = s.to_json().to_text();
        let back = JobSpec::from_text(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn online_spec_roundtrips_through_json() {
        let mut s = spec();
        s.online = Some(online_section());
        s.drift_pos = Some(DriftPos {
            phase: 1,
            num: 1,
            den: 3,
        });
        let back = JobSpec::from_text(&s.to_json().to_text()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn offline_spec_serialization_is_unchanged() {
        let s = spec();
        let text = s.to_json().to_text();
        assert!(
            !text.contains("online") && !text.contains("drift_pos"),
            "offline specs must serialize without online keys: {text}"
        );
    }

    #[test]
    fn legacy_spec_defaults_online_off() {
        let s =
            JobSpec::from_text(r#"{"name":"j","scenario":"adapt","goal":"bal","arch":"ppc-g4"}"#)
                .unwrap();
        assert!(s.online.is_none(), "legacy specs must load with online off");
        assert!(s.drift_pos.is_none());
    }

    #[test]
    fn online_section_rejects_degenerate_values() {
        for bad in [
            r#"{"epochs":0,"kind":"step"}"#,
            r#"{"epochs":5,"kind":"sine"}"#,
            r#"{"epochs":5,"kind":"step","period":0}"#,
            r#"{"epochs":5,"kind":"step","window":0}"#,
            r#"{"epochs":5,"kind":"step","threshold_pct":-3.0}"#,
            r#"{"kind":"step"}"#,
        ] {
            let spec = format!(
                r#"{{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","online":{bad}}}"#
            );
            assert!(JobSpec::from_text(&spec).is_err(), "{bad}");
        }
    }

    #[test]
    fn drift_pos_requires_online_and_validates_range() {
        let base = r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4"#;
        let no_online = format!(r#"{base}","drift_pos":[0,0,1]}}"#);
        assert!(JobSpec::from_text(&no_online).is_err());
        let out_of_range = format!(
            r#"{base}","online":{{"epochs":5,"kind":"step","phases":2}},"drift_pos":[7,0,1]}}"#
        );
        assert!(JobSpec::from_text(&out_of_range).is_err());
    }

    #[test]
    fn at_pos_pins_the_suite_to_a_phase() {
        let mut s = spec();
        s.online = Some(online_section());
        let base = s.training().unwrap();
        let phase0 = s.at_pos(DriftPos::at_phase(0));
        assert_eq!(phase0.training().unwrap()[0].spec, base[0].spec);
        let phase2 = s.at_pos(DriftPos::at_phase(2));
        assert_ne!(
            phase2.training().unwrap()[0].spec,
            base[0].spec,
            "a later phase must morph the suite"
        );
        // The pinned spec round-trips the wire (what eval workers see).
        let back = JobSpec::from_text(&phase2.to_json().to_text()).unwrap();
        assert_eq!(back, phase2);
    }

    #[test]
    fn online_eval_estimate_covers_probes_and_boundary_retunes() {
        let mut s = spec();
        assert_eq!(s.eval_estimate(), 80);
        s.online = Some(online_section());
        // Step, 9 epochs, period 3, 3 phases: boundaries at 3 and 6.
        // 9 probes + (1 initial + 2 retunes) * 80.
        assert_eq!(s.eval_estimate(), 9 + 3 * 80);
    }

    #[test]
    fn spec_defaults_apply() {
        let s =
            JobSpec::from_text(r#"{"name":"j","scenario":"adapt","goal":"bal","arch":"ppc-g4"}"#)
                .unwrap();
        assert!(s.suite.is_empty());
        assert_eq!(s.training().unwrap().len(), specjvm98().len());
        assert_eq!(s.ga.pop_size, GaConfig::default().pop_size);
        assert_eq!(s.ga.threads, 1, "daemon jobs default to one eval thread");
        assert_eq!(s.strategy, "ga", "absent strategy defaults to the GA");
        assert_eq!(s.problem, "inline", "pre-problems specs are inlining jobs");
        assert_eq!(
            s.tenant, "default",
            "pre-shard specs land on the default tenant"
        );
    }

    #[test]
    fn tenant_roundtrips_and_rejects_degenerate_names() {
        let mut s = spec();
        s.tenant = "acme".into();
        let back = JobSpec::from_text(&s.to_json().to_text()).unwrap();
        assert_eq!(back.tenant, "acme");
        for bad in [
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","tenant":""}"#,
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","tenant":7}"#,
        ] {
            assert!(JobSpec::from_text(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn eval_estimate_is_the_shared_proposal_budget() {
        let mut s = spec();
        assert_eq!(s.eval_estimate(), 80, "pop 8 x 10 generations");
        // Races share the same budget as a lone strategy, so the
        // estimate does not scale with member count.
        s.strategy = "race:ga+random".into();
        assert_eq!(s.eval_estimate(), 80);
    }

    #[test]
    fn spec_accepts_every_known_problem() {
        for id in problems::KNOWN {
            let text = format!(
                r#"{{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","problem":"{id}"}}"#
            );
            let s = JobSpec::from_text(&text).unwrap();
            assert_eq!(&s.problem, id);
            let p = s.build_problem().unwrap();
            assert_eq!(&p.id(), id);
        }
    }

    #[test]
    fn spec_rejects_unknown_problem() {
        let err = JobSpec::from_text(
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","problem":"gradient"}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown problem"), "{err}");
    }

    #[test]
    fn spec_accepts_known_strategies() {
        for good in [
            "ga",
            "random",
            "hillclimb",
            "anneal",
            "grid",
            "race",
            "race:ga+grid",
        ] {
            let text = format!(
                r#"{{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","strategy":"{good}"}}"#
            );
            let s = JobSpec::from_text(&text).unwrap();
            assert_eq!(s.strategy, good);
        }
    }

    #[test]
    fn spec_rejects_unknown_strategy() {
        let err = JobSpec::from_text(
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","strategy":"gradient"}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown strategy"), "{err}");
    }

    #[test]
    fn spec_rejects_unknown_names() {
        for bad in [
            r#"{"name":"j","scenario":"jitless","goal":"tot","arch":"x86-p4"}"#,
            r#"{"name":"j","scenario":"opt","goal":"speed","arch":"x86-p4"}"#,
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"sparc"}"#,
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","suite":["nope"]}"#,
            r#"{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","ga":{"pop_size":1}}"#,
        ] {
            assert!(JobSpec::from_text(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn spec_rejects_oversized_ga_fields() {
        // Well-formed numbers a runner would try to allocate or spawn.
        for (field, value) in [
            ("pop_size", 1_000_000_000_usize),
            ("pop_size", ga::engine::MAX_POP_SIZE + 1),
            ("generations", 1_000_000_000),
            ("tournament_size", 1_000_000_000),
            ("tournament_size", ga_defaults().pop_size + 1),
            ("threads", 1_000_000_000),
        ] {
            let text = format!(
                r#"{{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","ga":{{"{field}":{value}}}}}"#
            );
            let err = JobSpec::from_text(&text).unwrap_err();
            assert!(err.starts_with("degenerate GA config: "), "{err}");
            assert!(err.contains(field), "{err}");
        }
        let at_limit = format!(
            r#"{{"name":"j","scenario":"opt","goal":"tot","arch":"x86-p4","ga":{{"pop_size":{},"generations":{},"threads":{}}}}}"#,
            ga::engine::MAX_POP_SIZE,
            ga::engine::MAX_GENERATIONS,
            ga::engine::MAX_THREADS
        );
        JobSpec::from_text(&at_limit).unwrap();
    }

    #[test]
    fn check_generates_no_program() {
        // Validating the seven DaCapo names fifty times over must cost
        // less than generating those programs once: it looks names up.
        let mut s = spec();
        s.suite = workloads::suites::dacapo_jbb_specs()
            .iter()
            .map(|b| b.name.to_string())
            .collect();
        let started = std::time::Instant::now();
        let generated = s.training().unwrap();
        let generate = started.elapsed();
        assert_eq!(generated.len(), 7);
        let started = std::time::Instant::now();
        for _ in 0..50 {
            s.check().unwrap();
        }
        let check = started.elapsed();
        assert!(
            check < generate,
            "50 checks {check:?}, one suite {generate:?}"
        );
        s.suite.push("nope".into());
        assert_eq!(s.check().unwrap_err(), "unknown benchmark 'nope'");
    }

    #[test]
    fn spec_builds_task_and_training() {
        let s = spec();
        let task = s.task().unwrap();
        assert_eq!(task.arch.name, "x86-p4");
        assert_eq!(task.goal, Goal::Total);
        let training = s.training().unwrap();
        assert_eq!(training.len(), 2);
        assert_eq!(training[0].name(), "db");
    }

    #[test]
    fn job_state_names_are_stable() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn ga_seed_survives_u64_range() {
        let s = spec();
        let back = JobSpec::from_text(&s.to_json().to_text()).unwrap();
        assert_eq!(back.ga.seed, u64::MAX - 3);
    }
}
