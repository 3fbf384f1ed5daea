//! `simtest` — the seed-sweep runner: a thin CLI over [`sim::scenario`].
//!
//! ```text
//! simtest fault:200 mixed:8 store:60 online:50 shard:50 scale:20 queue:10 \
//!     --out BENCH_sim.json                 # the CI sweep (`:N` = seed count)
//! simtest shard:5 --clients 60 --workers 8 # the soak, scaled down
//! simtest fault --seed 42 --trace          # replay one seed
//! simtest fault:12 --base-seed 9 --broken  # self-test: the redispatch-
//!     disabled daemon must be caught (exit 0 iff >= 1 seed fails)
//! ```
//!
//! Scenarios: `fault`, `mixed`, `store`, `online`, `shard`, `scale`,
//! `queue` (what each derives and checks: DESIGN.md §4.9). A sweep runs
//! seeds `B .. B+N` for `--base-seed B` (default 1).
//!
//! Exit status: 0 when every run's expectation holds (all seeds green
//! and the sweep demonstrably exercised its faults, or — under
//! `--broken` — at least one seed red), 1 otherwise, 2 on a bad command
//! line (no argument is ever silently ignored). Every failing seed
//! prints its broken invariants, its fault trace and a one-command
//! replay line.

use std::time::Instant;

use served::checkpoint::f64_to_json;
use served::json::Json;
use sim::scenario::{replay, sweep};
use sim::{
    FaultScenario, MixedScenario, OnlineScenario, QueueScenario, Scale, ScaleScenario, Scenario,
    SeedReport, ShardScenario, StoreScenario, SweepReport,
};

/// A checked command line.
#[derive(Default)]
struct Args {
    /// `(name, N)` per `<scenario>[:N]`, in order.
    targets: Vec<(String, Option<u64>)>,
    seed: Option<u64>,
    base_seed: u64,
    out: Option<String>,
    trace: bool,
    scale: Scale,
}

/// What one `<scenario>[:N]` target ran: whether its expectation held,
/// and the sweep's totals (none for a `--seed` replay).
type Ran = (bool, Option<SweepReport>);

/// The one place a scenario name becomes code.
fn scenario(name: &str) -> Option<fn(&Args, Option<u64>) -> Ran> {
    Some(match name {
        "fault" => go::<FaultScenario>,
        "mixed" => go::<MixedScenario>,
        "store" => go::<StoreScenario>,
        "online" => go::<OnlineScenario>,
        "shard" => go::<ShardScenario>,
        "scale" => go::<ScaleScenario>,
        "queue" => go::<QueueScenario>,
        _ => return None,
    })
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let (mut base_seed, mut clients, mut workers) = (None, None, None);
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => args.seed = Some(num(&value()?)?),
            "--base-seed" => base_seed = Some(num(&value()?)?),
            "--out" => args.out = Some(value()?),
            "--trace" => args.trace = true,
            "--broken" => args.scale.broken = true,
            "--clients" => clients = Some(num(&value()?)? as usize),
            "--workers" => workers = Some(num(&value()?)? as usize),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            target => {
                let (name, n) = match target.split_once(':') {
                    Some((name, n)) => (name, Some(num(n)?)),
                    None => (target, None),
                };
                if scenario(name).is_none() {
                    return Err(format!("unknown scenario '{target}'"));
                }
                args.targets.push((name.to_string(), n));
            }
        }
    }

    let has = |name: &str| args.targets.iter().any(|(n, _)| n == name);
    let alone = args.targets.len() == 1;
    let counted = args.targets.iter().filter(|t| t.1.is_some()).count();
    let base = base_seed.unwrap_or(1);
    let rules = [
        (
            args.targets.is_empty(),
            "usage: simtest <scenario>:N... | <scenario> --seed S",
        ),
        (
            args.seed.is_some()
                && (!alone || counted > 0 || args.out.is_some() || base_seed.is_some()),
            "--seed replays one seed of one scenario: no :N, --out or --base-seed",
        ),
        (
            args.seed.is_none() && counted < args.targets.len(),
            "a scenario needs :N (sweep N seeds) or --seed S (replay one)",
        ),
        (
            args.targets
                .iter()
                .any(|(_, n)| base.checked_add(n.unwrap_or(0)).is_none()),
            "--base-seed + N runs past the largest seed",
        ),
        (
            args.trace && (args.seed.is_none() || has("store")),
            "--trace needs --seed and a Cluster-backed scenario (store has no network)",
        ),
        (
            args.scale.broken && args.targets.iter().any(|(n, _)| n != "fault"),
            "--broken applies to the fault scenario only",
        ),
        (
            (clients.is_some() || workers.is_some()) && !has("shard"),
            "--clients/--workers apply to the shard scenario",
        ),
        (
            clients == Some(0) || workers == Some(0),
            "--clients and --workers take at least 1",
        ),
    ];
    if let Some((_, message)) = rules.iter().find(|(broken, _)| *broken) {
        return Err((*message).to_string());
    }
    args.base_seed = base;
    args.scale.shard.clients = clients.unwrap_or(args.scale.shard.clients);
    args.scale.shard.workers = workers.unwrap_or(args.scale.shard.workers);
    Ok(args)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("simtest: {e}");
        std::process::exit(2);
    });
    let started = Instant::now();
    let (mut ok, mut sweeps) = (true, Vec::new());
    for (name, seeds) in &args.targets {
        let (held, report) = scenario(name).expect("parse checked the name")(&args, *seeds);
        ok &= held;
        sweeps.extend(report);
    }
    if let (Some(path), Json::Obj(mut summary)) = (&args.out, sweep_json(&sweeps, args.base_seed)) {
        let wall = f64_to_json(started.elapsed().as_secs_f64());
        summary.push(("wall_secs".into(), wall));
        if let Err(e) = std::fs::write(path, Json::Obj(summary).to_text() + "\n") {
            eprintln!("simtest: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("summary written to {path}");
    }
    std::process::exit(i32::from(!ok));
}

/// Replays one seed of `S` (`--seed`) or sweeps it.
fn go<S: Scenario>(args: &Args, seeds: Option<u64>) -> Ran {
    let started = Instant::now();
    if let Some(seed) = args.seed {
        let report = replay::<S>(seed, &args.scale, &mut S::Truth::default());
        print_seed(&report, args.trace);
        return (report.is_ok(), None);
    }
    let seeds = seeds.expect("parse checked a sweep has :N");
    let report = sweep::<S>(args.base_seed, seeds, &args.scale);
    print_sweep(&report, started.elapsed().as_secs_f64());
    let green = report.failures.is_empty();
    let ok = if args.scale.broken {
        // Self-test: a daemon that drops re-dispatched work MUST be
        // caught by at least one seed, or the sweep has no teeth.
        let verdict = if green {
            "FAILED: no seed caught the bug"
        } else {
            "ok: bug caught"
        };
        println!("broken-build self-test {verdict}");
        !green
    } else if let (true, Err(never)) = (green, S::exercised(&report)) {
        println!("{} sweep is green but has no teeth: {never}", S::NAME);
        false
    } else {
        green
    };
    (ok, Some(report))
}

fn evidence(faults: &sim::FaultCounts, counters: &sim::Counters) -> String {
    let mut text = format!(
        "faults drop/dup/delay/blackhole = {}/{}/{}/{}",
        faults.dropped, faults.duplicated, faults.delayed, faults.blackholed
    );
    for (name, n) in &counters.0 {
        text += &format!(", {name} {n}");
    }
    text
}

/// The one replay printer: a seed's verdict line, every broken
/// invariant, the trace (for a failure, or when `trace` asks) and, for a
/// failure, the replay recipe.
fn print_seed(r: &SeedReport, trace: bool) {
    println!(
        "{} seed {}: {} ({} virtual ms; {})",
        r.scenario,
        r.seed,
        if r.is_ok() { "ok" } else { "FAILED" },
        r.virtual_ms,
        evidence(&r.faults, &r.counters),
    );
    for f in &r.failures {
        println!("  {}: {}", f.tag(), f.detail);
    }
    if trace || !r.is_ok() {
        for line in &r.trace {
            println!("  {line}");
        }
    }
    if !r.is_ok() {
        println!("  {}", r.replay_line());
    }
}

/// The one sweep printer.
fn print_sweep(r: &SweepReport, wall_secs: f64) {
    println!(
        "{}: swept {} seeds ({}..{}): {} passed, {} failed in {wall_secs:.2}s wall / {:.1}s \
         virtual\n  {}; worst seed {} at {} virtual ms",
        r.scenario,
        r.seeds,
        r.base_seed,
        r.base_seed + r.seeds,
        r.passed,
        r.failures.len(),
        r.virtual_ms as f64 / 1000.0,
        evidence(&r.faults, &r.counters),
        r.worst_seed,
        r.worst_virtual_ms,
    );
    for f in &r.failures {
        println!();
        print_seed(f, true);
    }
}

fn int(n: u64) -> Json {
    Json::Int(n as i64)
}

/// The one sweep-JSON writer (`BENCH_sim.json`; `main` appends
/// `wall_secs`). `failed_total` is a distinct key so a grep for the
/// green verdict cannot be satisfied by one scenario's `"failed":0`.
fn sweep_json(sweeps: &[SweepReport], base_seed: u64) -> Json {
    let scenarios = sweeps.iter().map(|r| {
        let failing = r.failures.iter().map(|f| int(f.seed)).collect();
        Json::obj(vec![
            ("scenario", Json::Str(r.scenario.into())),
            ("seeds", int(r.seeds)),
            ("passed", int(r.passed)),
            ("failed", int(r.failures.len() as u64)),
            ("failing_seeds", Json::Arr(failing)),
            ("virtual_ms", int(r.virtual_ms)),
            ("worst_seed", int(r.worst_seed)),
            ("worst_virtual_ms", int(r.worst_virtual_ms)),
            (
                "faults",
                Json::obj(vec![
                    ("dropped", int(r.faults.dropped)),
                    ("duplicated", int(r.faults.duplicated)),
                    ("delayed", int(r.faults.delayed)),
                    ("blackholed", int(r.faults.blackholed)),
                ]),
            ),
            (
                "counters",
                Json::obj(r.counters.0.iter().map(|(k, v)| (*k, int(*v))).collect()),
            ),
        ])
    });
    let scenarios = scenarios.collect();
    let failed_total = sweeps.iter().map(|r| r.failures.len() as u64).sum();
    Json::obj(vec![
        ("bench", Json::Str("sim_sweep".into())),
        ("clock", Json::Str("virtual".into())),
        ("base_seed", int(base_seed)),
        ("failed_total", int(failed_total)),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A printed replay line, parsed back by `parse`, must derive the
    /// identical scenario — seed, scale and mode.
    fn reparsed<S: Scenario + std::fmt::Debug>(seed: u64, scale: &Scale) {
        let original = S::derive(seed, scale);
        let report = SeedReport {
            scenario: S::NAME,
            seed,
            replay_args: original.replay_args(),
            ..SeedReport::default()
        };
        let line = report.replay_line();
        let words = line.strip_prefix("replay: simtest ").expect(&line);
        let args = parse(words.split(' ').map(String::from)).expect(&line);
        assert_eq!(args.targets, [(S::NAME.to_string(), None)], "{line}");
        let again = S::derive(args.seed.expect(&line), &args.scale);
        assert_eq!(format!("{again:?}"), format!("{original:?}"), "{line}");
    }

    #[test]
    fn every_replay_line_is_a_complete_recipe() {
        let (plain, mut broken, mut small) = (Scale::default(), Scale::default(), Scale::default());
        broken.broken = true;
        (small.shard.clients, small.shard.workers) = (60, 8);
        for seed in [1, 3, 9] {
            reparsed::<FaultScenario>(seed, &plain);
            reparsed::<FaultScenario>(seed, &broken);
            reparsed::<MixedScenario>(seed, &plain);
            reparsed::<StoreScenario>(seed, &plain);
            reparsed::<OnlineScenario>(seed, &plain);
            reparsed::<ShardScenario>(seed, &plain);
            reparsed::<ShardScenario>(seed, &small);
            reparsed::<ScaleScenario>(seed, &plain);
            reparsed::<QueueScenario>(seed, &plain);
        }
    }
}
