//! Golden format fixtures: committed JSON bytes that every future
//! build must keep loading.
//!
//! The round-trip tests in `src/checkpoint.rs` prove that *today's*
//! serializer and deserializer agree with each other; they cannot catch
//! a change that breaks both sides in lockstep. These fixtures are the
//! bytes an *old* daemon actually wrote, frozen in the repo: run
//! directories survive upgrades only if this suite stays green.
//!
//! Every format `served` both writes and reads is pinned:
//!
//! * `legacy_ga_checkpoint.json` — the original untagged `GaSnapshot`
//!   object from before the `search` strategy seam existed. No
//!   `"strategy"` key; must decode as a GA checkpoint forever.
//! * `tagged_{race,anneal,grid,warmstart}_checkpoint.json` — the
//!   `"strategy"`-tagged shapes; the race nests ga, random and
//!   hillclimb member snapshots.
//! * `flags_race_checkpoint.json` — a mixed-kind gene space, so the
//!   `kinds` key (omitted when all-`Int`) has a fixture on each side.
//! * `legacy_job_spec.json` — a pre-problems `spec.json` with no
//!   `"problem"` key; must load (and recover through a full daemon
//!   restart) as an inlining job forever, with the compatibility
//!   handled entirely in the loader. `online_job_spec.json` is its
//!   fully-keyed online counterpart.
//! * `online_{with_incumbent,fresh}.json`, `result_nonfinite.json` —
//!   the other two run-directory files.
//! * `eval_batch_{request,response}.json`, `obs_registry.json` — the
//!   wire frames that have a decoder in this workspace.
//!
//! If the format changes *intentionally*, regenerate with
//! `REGEN_FIXTURES=1 cargo test -p inlinetune-served --test
//! checkpoint_compat` and make the migration story explicit in review —
//! a changed fixture means old run directories need a compatibility
//! path, not just new bytes.

use std::path::PathBuf;

use ga::{GaConfig, GaState, Ranges};
use search::StrategySnapshot;
use served::checkpoint::{strategy_snapshot_from_json, strategy_snapshot_to_json};
use served::json::{parse, Json};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tiny_cfg() -> GaConfig {
    GaConfig {
        pop_size: 6,
        generations: 10,
        threads: 1,
        seed: 7,
        stagnation_limit: None,
        ..GaConfig::default()
    }
}

fn toy_fitness(g: &[i64]) -> f64 {
    g.iter().map(|&x| (x * x) as f64).sum()
}

/// The shape a pre-`search` daemon wrote: an untagged `GaSnapshot`.
fn build_legacy_ga() -> StrategySnapshot {
    let mut state = GaState::new(Ranges::new(vec![(-50, 50); 5]), tiny_cfg());
    for _ in 0..3 {
        state.step(toy_fitness);
    }
    StrategySnapshot::Ga(state.snapshot())
}

/// A mid-flight racing portfolio: tagged, with nested member snapshots.
fn build_tagged_race() -> StrategySnapshot {
    let mut s = search::build(
        "race:ga+random+hillclimb",
        Ranges::new(vec![(1, 40), (1, 20), (1, 300)]),
        tiny_cfg(),
    )
    .expect("valid race spec");
    for _ in 0..3 {
        if s.is_done() {
            break;
        }
        let batch = s.ask();
        let scores: Vec<f64> = batch.iter().map(|g| toy_fitness(g)).collect();
        s.tell(&batch, &scores);
    }
    s.snapshot()
}

/// Reads a committed fixture, regenerating it first when
/// `REGEN_FIXTURES` is set (build functions are fully seeded, so
/// regeneration is deterministic).
fn golden(name: &str, build: impl Fn() -> Json) -> String {
    let path = fixture_path(name);
    if std::env::var("REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, build().to_text()).unwrap();
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with REGEN_FIXTURES=1",
            path.display()
        )
    })
}

/// [`golden`] for strategy checkpoints.
fn fixture(name: &str, build: impl Fn() -> StrategySnapshot) -> String {
    golden(name, || strategy_snapshot_to_json(&build()))
}

#[test]
fn legacy_untagged_ga_fixture_still_loads() {
    let text = fixture("legacy_ga_checkpoint.json", build_legacy_ga);
    assert!(
        !text.contains("\"strategy\""),
        "the legacy fixture must stay untagged — that is the point of it"
    );

    let decoded = strategy_snapshot_from_json(&parse(&text).expect("fixture is valid JSON"))
        .expect("legacy bytes must keep decoding");
    let StrategySnapshot::Ga(ref snap) = decoded else {
        panic!("untagged checkpoint decoded as '{}'", decoded.kind());
    };
    assert_eq!(snap.next_gen, 3, "fixture was frozen after 3 generations");
    assert_eq!(snap.config.seed, 7);
    assert_eq!(snap.population.len(), 6);

    // The serializer still emits the exact legacy bytes: a pre-upgrade
    // daemon reading a post-upgrade run dir sees the shape it expects.
    assert_eq!(
        strategy_snapshot_to_json(&decoded).to_text(),
        text,
        "re-serializing the legacy checkpoint changed its bytes"
    );

    // And the checkpoint is not just parseable but *resumable*.
    let mut resumed = search::restore(decoded).expect("legacy checkpoint restores");
    assert!(!resumed.is_done());
    assert!(!resumed.ask().is_empty(), "resumed GA proposes no genomes");
}

#[test]
fn tagged_race_fixture_still_loads() {
    let text = fixture("tagged_race_checkpoint.json", build_tagged_race);
    assert!(
        text.contains("\"strategy\""),
        "the race fixture must carry its strategy tag"
    );

    let decoded = strategy_snapshot_from_json(&parse(&text).expect("fixture is valid JSON"))
        .expect("tagged bytes must keep decoding");
    let StrategySnapshot::Race(ref race) = decoded else {
        panic!("race checkpoint decoded as '{}'", decoded.kind());
    };
    let names: Vec<&str> = race.members.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["ga", "random", "hillclimb"]);
    assert_eq!(race.rounds, 3, "fixture was frozen after 3 rounds");
    assert!(!race.done);

    assert_eq!(
        strategy_snapshot_to_json(&decoded).to_text(),
        text,
        "re-serializing the race checkpoint changed its bytes"
    );

    let mut resumed = search::restore(decoded).expect("race checkpoint restores");
    assert!(!resumed.is_done());
    assert!(
        !resumed.ask().is_empty(),
        "resumed race proposes no genomes"
    );
}

#[test]
fn legacy_spec_without_a_problem_key_loads_as_an_inlining_job() {
    let text = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
    assert!(
        !text.contains("\"problem\""),
        "the legacy fixture must stay problem-less — that is the point of it"
    );
    let spec = served::JobSpec::from_text(&text).expect("legacy spec bytes must keep loading");
    assert_eq!(spec.problem, "inline");
    assert_eq!(spec.build_problem().unwrap().id(), "inline");
    // Today's serializer tags the problem explicitly, and the tagged
    // bytes decode back to the same spec.
    let reserialized = spec.to_json().to_text();
    assert!(reserialized.contains("\"problem\":\"inline\""));
    assert_eq!(served::JobSpec::from_text(&reserialized).unwrap(), spec);
}

#[test]
fn legacy_spec_without_an_online_key_loads_with_online_mode_off() {
    let text = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
    assert!(
        !text.contains("\"online\"") && !text.contains("\"drift_pos\""),
        "the legacy fixture must stay online-less — that is the point of it"
    );
    let spec = served::JobSpec::from_text(&text).expect("legacy spec bytes must keep loading");
    assert!(spec.online.is_none(), "online mode must default off");
    assert!(spec.drift_pos.is_none());
    // Offline specs stay byte-compatible: the serializer emits no
    // online keys for them, so a pre-online daemon can still read the
    // spec this daemon writes back.
    let reserialized = spec.to_json().to_text();
    assert!(!reserialized.contains("\"online\""));
    assert!(!reserialized.contains("\"drift_pos\""));
}

#[test]
fn online_spec_fixture_still_loads() {
    let text = std::fs::read_to_string(fixture_path("online_job_spec.json")).unwrap();
    let spec = served::JobSpec::from_text(&text).expect("online spec bytes must keep loading");
    let online = spec.online.as_ref().expect("fixture is an online spec");
    assert_eq!(online.epochs, 12);
    assert_eq!(online.kind, workloads::DriftKind::Cyclic);
    assert_eq!(online.period, 3);
    assert_eq!(online.phases, 3);
    assert_eq!(online.drift_seed, 11);
    assert_eq!(online.window, 2);
    assert!((online.threshold_pct - 4.5).abs() < 1e-12);
    assert!(spec.drift_pos.is_none());
    // The fixture round-trips bit-exactly through today's serializer.
    assert_eq!(spec.to_json().to_text(), text.trim_end());
    assert_eq!(
        served::JobSpec::from_text(&spec.to_json().to_text()).unwrap(),
        spec
    );
    // A phase-pinned clone serializes its position and loads back.
    let pinned = spec.at_pos(workloads::DriftPos {
        phase: 1,
        num: 0,
        den: 1,
    });
    let back = served::JobSpec::from_text(&pinned.to_json().to_text()).unwrap();
    assert_eq!(back, pinned);
}

#[test]
fn legacy_spec_without_a_tenant_key_loads_as_the_default_tenant() {
    let text = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
    assert!(
        !text.contains("\"tenant\""),
        "the legacy fixture must stay tenant-less — that is the point of it"
    );
    let spec = served::JobSpec::from_text(&text).expect("legacy spec bytes must keep loading");
    assert_eq!(spec.tenant, shard::DEFAULT_TENANT);
    // Today's serializer tags the tenant explicitly, and the tagged
    // bytes decode back to the same spec.
    let reserialized = spec.to_json().to_text();
    assert!(reserialized.contains("\"tenant\":\"default\""));
    assert_eq!(served::JobSpec::from_text(&reserialized).unwrap(), spec);
}

#[test]
fn legacy_run_dir_recovers_on_a_sharded_daemon_under_the_default_tenant() {
    // The same pre-shard run directory, booted on a daemon that shards
    // its queue: recovery must route the job to a shard, account it to
    // the default tenant, and still finish it.
    let dir = std::env::temp_dir().join(format!("ckpt-compat-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let legacy = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
    std::fs::create_dir_all(dir.join("jobs/1")).unwrap();
    std::fs::write(dir.join("jobs/1/spec.json"), &legacy).unwrap();

    let run_dir = served::RunDir::open(&dir).unwrap();
    let daemon = served::Daemon::start(
        served::DaemonConfig {
            workers: 2,
            shards: 3,
            ..served::DaemonConfig::default()
        },
        run_dir,
    )
    .unwrap();
    let unit = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000u64);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(unit * 120);
    let record = loop {
        let r = daemon.status(1).expect("recovered job must be tracked");
        if r.state.is_terminal() {
            break r;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "legacy job never finished on the sharded daemon"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let tenants = daemon.tenant_usage();
    daemon.shutdown();

    assert_eq!(record.spec.tenant, shard::DEFAULT_TENANT);
    assert!(record.shard < 3, "job must land in a real shard");
    assert!(record.result.is_some(), "legacy job must complete");
    let row = tenants
        .iter()
        .find(|t| t.tenant == shard::DEFAULT_TENANT)
        .expect("default tenant accounted");
    assert!(
        row.admitted >= 1,
        "recovery admits under the default tenant"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_run_dir_recovers_as_an_inlining_job_bit_identically() {
    // A run directory as a pre-problems daemon left it: spec.json with
    // no "problem" key, job interrupted before any result was written.
    let dir = std::env::temp_dir().join(format!("ckpt-compat-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let legacy = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
    std::fs::create_dir_all(dir.join("jobs/1")).unwrap();
    std::fs::write(dir.join("jobs/1/spec.json"), &legacy).unwrap();

    let run_dir = served::RunDir::open(&dir).unwrap();
    let daemon = served::Daemon::start(
        served::DaemonConfig {
            workers: 1,
            ..served::DaemonConfig::default()
        },
        run_dir,
    )
    .unwrap();
    // Wall-clock bound (this drives a real daemon, not the sim clock);
    // scales with `SIM_TIMEOUT_MS` per the convention in restart.rs.
    let unit = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000u64);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(unit * 120);
    let record = loop {
        let r = daemon.status(1).expect("recovered job must be tracked");
        if r.state.is_terminal() {
            break r;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "legacy job never finished"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    daemon.shutdown();

    assert_eq!(record.spec.problem, "inline");
    let (genes, fitness) = record.result.expect("legacy job must complete");
    // Same trajectory the pre-problems daemon would have produced: the
    // direct Tuner path over the same spec.
    let spec = served::JobSpec::from_text(&legacy).unwrap();
    let outcome = tuner::Tuner::new(
        spec.task().unwrap(),
        spec.training().unwrap(),
        spec.adapt_cfg(),
    )
    .tune(spec.ga.clone());
    assert_eq!(genes, outcome.params.to_genes());
    assert_eq!(fitness.to_bits(), outcome.fitness.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_fixtures_keep_searching_deterministically() {
    // A restored checkpoint must not merely load: stepping it twice from
    // the same bytes must propose the same genomes both times.
    for (name, build) in [
        (
            "legacy_ga_checkpoint.json",
            build_legacy_ga as fn() -> StrategySnapshot,
        ),
        ("tagged_race_checkpoint.json", build_tagged_race),
    ] {
        let text = fixture(name, build);
        let step = |text: &str| -> Vec<Vec<i64>> {
            let decoded = strategy_snapshot_from_json(&parse(text).unwrap()).unwrap();
            let mut s = search::restore(decoded).unwrap();
            let batch = s.ask();
            let scores: Vec<f64> = batch.iter().map(|g| toy_fitness(g)).collect();
            s.tell(&batch, &scores);
            s.ask()
        };
        assert_eq!(
            step(&text),
            step(&text),
            "{name}: two restores of the same bytes diverged"
        );
    }
}

/// Runs `spec` for three rounds over `ranges` on the toy fitness.
fn build_stepped(spec: &str, ranges: Ranges, seeds: &[Vec<i64>]) -> StrategySnapshot {
    let mut s = search::build(spec, ranges, tiny_cfg()).expect("valid strategy spec");
    s.seed_population(seeds);
    for _ in 0..3 {
        if s.is_done() {
            break;
        }
        let batch = s.ask();
        let scores: Vec<f64> = batch.iter().map(|g| toy_fitness(g)).collect();
        s.tell(&batch, &scores);
    }
    s.snapshot()
}

/// Decodes a checkpoint fixture and checks it re-encodes to the same
/// bytes and restores into a strategy that still proposes work.
fn assert_checkpoint_fixture(name: &str, text: &str, kind: &str) {
    let decoded = strategy_snapshot_from_json(&parse(text).expect("fixture is valid JSON"))
        .unwrap_or_else(|e| panic!("{name} must keep decoding: {e}"));
    assert_eq!(decoded.kind(), kind, "{name} decoded as the wrong strategy");
    assert_eq!(
        strategy_snapshot_to_json(&decoded).to_text(),
        text,
        "re-serializing {name} changed its bytes"
    );
    let mut resumed = search::restore(decoded).unwrap_or_else(|e| panic!("{name} restores: {e}"));
    assert!(!resumed.is_done());
    assert!(
        !resumed.ask().is_empty(),
        "{name} resumed with no proposals"
    );
}

#[test]
fn tagged_anneal_grid_and_warmstart_fixtures_still_load() {
    let ranges = || Ranges::new(vec![(1, 40), (1, 20), (1, 300)]);
    for kind in ["anneal", "grid", "warmstart"] {
        let name = format!("tagged_{kind}_checkpoint.json");
        let seeds: &[Vec<i64>] = if kind == "warmstart" {
            &[vec![3, 7, 150], vec![40, 20, 300]]
        } else {
            &[]
        };
        let text = fixture(&name, || build_stepped(kind, ranges(), seeds));
        assert!(text.starts_with(&format!("{{\"strategy\":\"{kind}\"")));
        assert_checkpoint_fixture(&name, &text, kind);
    }
}

#[test]
fn flags_checkpoint_fixture_carries_its_gene_kinds() {
    // The flags problem's space mixes Int, Bool and Categorical genes, so
    // every record with a `kinds` key (GA, core, race) must emit it —
    // the other side of the legacy GA fixture, which must never grow one.
    let space = || {
        let text = std::fs::read_to_string(fixture_path("legacy_job_spec.json")).unwrap();
        let mut spec = served::JobSpec::from_text(&text).unwrap();
        spec.problem = "flags".into();
        spec.build_problem().unwrap().space().clone()
    };
    let name = "flags_race_checkpoint.json";
    let text = fixture(name, || build_stepped("race:ga+anneal", space(), &[]));
    assert_eq!(
        text.matches("\"kinds\":\"").count(),
        3,
        "race, GA member and anneal core each carry the kind codes"
    );
    assert_checkpoint_fixture(name, &text, "race");
    let legacy = fixture("legacy_ga_checkpoint.json", build_legacy_ga);
    assert!(!legacy.contains("\"kinds\""), "all-Int kinds stay omitted");
}

#[test]
fn online_snapshot_fixtures_still_load() {
    use online::{DetectorSnapshot, EpochRow, OnlineSnapshot};
    use served::checkpoint::{online_snapshot_from_json, online_snapshot_to_json};
    use workloads::DriftPos;
    let row = |epoch, phase, num, den, probe, retuned, fitness| EpochRow {
        epoch,
        pos: DriftPos { phase, num, den },
        probe,
        retuned,
        fitness,
    };
    let with_incumbent = OnlineSnapshot {
        epoch: 5,
        incumbent: Some((vec![3, -1, 40, 7, 2], 12.625)),
        detector: DetectorSnapshot {
            baseline: 12.625,
            recent: vec![12.625, 13.5, f64::INFINITY],
        },
        retunes: 2,
        detect_latencies: vec![1, 3],
        evals: (1 << 53) + 1,
        rows: vec![
            row(0, 0, 0, 1, 12.625, false, 12.625),
            row(1, 1, 2, 3, 14.0, true, 12.0),
        ],
    };
    let fresh = OnlineSnapshot {
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
    for (name, snap) in [
        ("online_with_incumbent.json", with_incumbent),
        ("online_fresh.json", fresh),
    ] {
        let text = golden(name, || online_snapshot_to_json(&snap));
        let decoded = online_snapshot_from_json(&parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{name} must keep decoding: {e}"));
        assert_eq!(decoded, snap, "{name} decoded to a different snapshot");
        assert_eq!(online_snapshot_to_json(&decoded).to_text(), text);
    }
}

#[test]
fn result_fixture_with_a_non_finite_fitness_still_loads() {
    use served::checkpoint::{result_from_json, result_to_json};
    let genes = [23, 11, 5, 2048, 135];
    let text = golden("result_nonfinite.json", || {
        result_to_json(&genes, f64::INFINITY, 7)
    });
    let (g, f, n) = result_from_json(&parse(&text).unwrap()).expect("result bytes keep decoding");
    assert_eq!((g.as_slice(), f, n), (&genes[..], f64::INFINITY, 7));
    assert_eq!(result_to_json(&g, f, n).to_text(), text);
}

#[test]
fn eval_batch_frame_fixtures_still_parse() {
    use served::proto::{
        eval_batch_request, eval_batch_response, parse_eval_batch_request,
        parse_eval_batch_response, EvalOutcome, EvalRequest,
    };
    let evals = vec![
        EvalRequest {
            id: 0,
            genes: vec![i64::MIN, -1, 0, 1, i64::MAX],
        },
        EvalRequest {
            id: 7,
            genes: vec![],
        },
    ];
    let text = golden("eval_batch_request.json", || {
        eval_batch_request(u64::MAX - 1, &evals)
    });
    let (id, back) = parse_eval_batch_request(&parse(&text).unwrap()).unwrap();
    assert_eq!((id, &back), (u64::MAX - 1, &evals));
    assert_eq!(eval_batch_request(id, &back).to_text(), text);

    let results = vec![
        (0usize, EvalOutcome::Fitness(0.1 + 0.2)),
        (
            1,
            EvalOutcome::Fitness(f64::from_bits(0x7ff8_0000_0000_beef)),
        ),
        (2, EvalOutcome::Error("genes outside space".into())),
        (3, EvalOutcome::Fitness(f64::NEG_INFINITY)),
    ];
    let text = golden("eval_batch_response.json", || {
        eval_batch_response(9, &results)
    });
    let (id, back) = parse_eval_batch_response(&parse(&text).unwrap()).unwrap();
    assert_eq!(id, 9);
    assert_eq!(back[0], results[0]);
    assert!(matches!(back[1], (1, EvalOutcome::Fitness(f)) if f.is_nan()));
    assert_eq!(back[2..], results[2..]);
    assert_eq!(eval_batch_response(id, &back).to_text(), text);
}

#[test]
fn obs_registry_fixture_still_loads() {
    use served::proto::{registry_from_json, registry_to_json};
    use std::sync::Arc;
    let build = || {
        let clock = Arc::new(obs::ManualClock::new());
        let reg = Arc::new(obs::Registry::with_clock(clock.clone()));
        reg.counter("big").add(u64::MAX - 3);
        reg.counter(&obs::labeled("evals", &[("worker", "a:1")]))
            .inc();
        reg.gauge("temp").set(-42);
        let h = reg.histogram("lat");
        for sample in [0, 150, 150, 9_000, u64::MAX] {
            h.record(sample);
        }
        clock.advance(250);
        let span = obs::span!(reg, "phase", idx = 3);
        clock.advance(1_000);
        drop(span);
        reg.snapshot()
    };
    let text = golden("obs_registry.json", || registry_to_json(&build()));
    let decoded = registry_from_json(&parse(&text).unwrap()).expect("obs bytes keep decoding");
    assert_eq!(decoded, build());
    assert_eq!(decoded.spans[0].dur_micros, 1_000);
    assert_eq!(registry_to_json(&decoded).to_text(), text);
}

#[test]
fn checkpoint_with_a_degenerate_config_fails_the_restore_not_the_daemon() {
    // Recovery reads bytes it did not write: a config `GaConfig::check`
    // rejects must come back as an error for that one job.
    let legacy = fixture("legacy_ga_checkpoint.json", build_legacy_ga);
    let dir = std::env::temp_dir().join(format!("ckpt-compat-degenerate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run_dir = served::RunDir::open(&dir).unwrap();
    for (good, bad) in [
        ("\"pop_size\":6", "\"pop_size\":1"),
        ("\"tournament_size\":2", "\"tournament_size\":0"),
    ] {
        assert!(legacy.contains(good));
        run_dir
            .write_atomic(1, "checkpoint.json", &legacy.replace(good, bad))
            .unwrap();
        let snapshot = run_dir
            .load_checkpoint(1)
            .expect("checkpoint file exists")
            .expect("the bytes are structurally a checkpoint");
        let err = search::restore(snapshot)
            .err()
            .expect("restore must refuse");
        assert!(err.contains("degenerate GA config"), "{bad}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
