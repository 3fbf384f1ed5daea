//! `benchmark` — the tuner's one benchmark.
//!
//! ```text
//! benchmark run --workload <name|all> [--seed S] [--seconds N] [--trace 0|1]
//!               [--quick] [--bless] [--strict] [--runs N] [--out FILE] [--record]
//! benchmark trace --workload <name>        (= run --trace 1)
//! benchmark compare <a.json> <b.json>
//! benchmark selfcheck [--runs N] [--seconds N] [--record]
//! ```
//!
//! `run` measures one workload in this process, prints every metric by
//! name with its unit, checks the outputs, writes one JSON document
//! under `out/`, and ends with the one-line result. `--workload all`
//! runs every workload in a process of its own (so `peak_rss_mb` means
//! one workload) and writes one set document.

mod checks;
mod compare;
mod harness;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use served::json::Json;

/// Exit code of a run whose outputs were wrong.
const EXIT_INCORRECT: u8 = 2;
/// Exit code, under `--strict`, of a run whose calibration was too
/// noisy to trust. Without the flag such a run is only marked
/// `unstable` in its document: the benchmark contract wants exit 0 from
/// every run that measured and checked, however loaded the machine.
const EXIT_UNSTABLE: u8 = 3;

/// Flags of every subcommand, parsed once.
pub(crate) struct Args {
    pub(crate) workload: Option<String>,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    pub(crate) quick: bool,
    pub(crate) bless: bool,
    pub(crate) record: bool,
    pub(crate) strict: bool,
    pub(crate) runs: usize,
    pub(crate) out: Option<PathBuf>,
    pub(crate) files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        bless: false,
        record: false,
        strict: false,
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 || a.runs > 100 {
                    return Err("--runs must be 1..=100".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => a.quick = true,
            "--bless" => a.bless = true,
            "--record" => a.record = true,
            "--strict" => a.strict = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            file => a.files.push(PathBuf::from(file)),
        }
    }
    Ok(a)
}

/// The benchmark's own directory: where `golden/`, `history.jsonl` and
/// `out/` live. Cargo exports it to `cargo run`; the compile-time value
/// covers a binary started by hand.
fn root_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn options(a: &Args) -> Result<run::Options, String> {
    let name = a.workload.as_deref().ok_or("--workload <name> is needed")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}' (known: {}, all)",
            known.join(", ")
        )
    })?;
    let root = root_dir();
    let opts = run::Options {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        bless: a.bless,
        out_dir: root.join("out"),
        golden_dir: root.join("golden"),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    Ok(opts)
}

fn run_one(a: &Args) -> Result<ExitCode, String> {
    let opts = options(a)?;
    let name = opts.workload.name;
    let report = if a.trace {
        trace::run(&opts)?
    } else {
        run::run(&opts)?
    };
    let doc = a.out.clone().unwrap_or_else(|| {
        opts.out_dir.join(format!(
            "{}-{name}.json",
            if a.trace { "trace" } else { "run" }
        ))
    });
    std::fs::write(&doc, report.to_json().to_text() + "\n")
        .map_err(|e| format!("{}: {e}", doc.display()))?;
    report.print_table();
    println!("{}", report.result_line());
    Ok(if !report.correct() {
        ExitCode::from(EXIT_INCORRECT)
    } else if a.strict && !report.calib.stable() {
        ExitCode::from(EXIT_UNSTABLE)
    } else {
        ExitCode::SUCCESS
    })
}

fn main_inner(process_start: std::time::Instant) -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("usage: benchmark <run|trace|compare|selfcheck> ... (see README.md)".into());
    };
    let mut a = parse_args(rest)?;
    match cmd.as_str() {
        "run" | "trace" => {
            a.trace |= cmd == "trace";
            if a.workload.as_deref() == Some("all") {
                let set = compare::run_set(&a, &root_dir())?;
                let path = a
                    .out
                    .clone()
                    .unwrap_or_else(|| root_dir().join("out").join("set.json"));
                write_json(&path, &set)?;
                if a.record {
                    compare::record(&set, &root_dir())?;
                }
                println!("wrote {}", path.display());
                return Ok(ExitCode::SUCCESS);
            }
            run_one(&a)
        }
        // What `run` spawns to time a set-up no earlier one has warmed.
        "setup" => {
            run::setup_probe(&options(&a)?, process_start)?;
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [old, new] = a.files.as_slice() else {
                return Err("usage: benchmark compare <a.json> <b.json>".into());
            };
            let agree = compare::compare_files(old, new, &root_dir())?;
            Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        "selfcheck" => {
            let agree = compare::selfcheck(&a, &root_dir())?;
            Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

pub(crate) fn write_json(path: &std::path::Path, v: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, v.to_text() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    match main_inner(std::time::Instant::now()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
