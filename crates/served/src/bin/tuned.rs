//! `tuned` — the tuning daemon and its command-line client.
//!
//! ```text
//! tuned serve  [--addr HOST:PORT] [--dir DIR] [--workers N] [--queue N]
//!              [--eval-threads N] [--worker HOST:PORT]...
//!              [--shards N] [--tenant-quota TENANT=EVALS]...
//!              [--max-connections N] [--store-path DIR]
//!              [--metrics-listen HOST:PORT] [--obs-detail]
//! tuned submit [--addr HOST:PORT] --name NAME --scenario opt|adapt
//!              --goal run|tot|bal [--arch x86-p4|ppc-g4]
//!              [--problem inline|flags|dss] [--tenant NAME]
//!              [--strategy ga|random|hillclimb|anneal|grid|race|race:A+B[+C...]]
//!              [--bench NAME]... [--pop N] [--gens N] [--seed N]
//!              [--threads N] [--stagnation N]
//!              [--online [--epochs N] [--drift step|ramp|cyclic]
//!               [--period N] [--phases N] [--drift-seed N]
//!               [--window N] [--threshold-pct F]]
//! tuned status  [--addr HOST:PORT] --id N
//! tuned watch   [--addr HOST:PORT] --id N
//! tuned list    [--addr HOST:PORT]
//! tuned cancel  [--addr HOST:PORT] --id N
//! tuned metrics [--addr HOST:PORT]
//! tuned tenants [--addr HOST:PORT]
//! tuned obs     [--addr HOST:PORT]
//! tuned store   [--addr HOST:PORT] stats|compact
//! tuned shutdown [--addr HOST:PORT]
//! ```
//!
//! `serve` prints `tuned listening on <addr>` once ready and also writes
//! the address to `<dir>/addr`, so scripts that bind port 0 can discover
//! the port. With `--metrics-listen` it additionally serves a
//! Prometheus-style `GET /metrics` endpoint and writes its address to
//! `<dir>/metrics-addr`; `--obs-detail` turns on high-frequency cost-model
//! timing histograms. `--store-path` opens (creating if absent) the
//! persistent fitness store at DIR: every evaluation is remembered
//! across restarts, repeat genomes are served from disk, and new jobs
//! warm-start from the best genomes of related past runs. `obs` dumps
//! the daemon's full observability registry (counters, gauges, latency
//! histograms, recent spans) as JSON. `store stats` / `store compact`
//! inspect and fold the running daemon's store. A flag the subcommand
//! does not list above is an error, not ignored.

use std::process::ExitCode;
use std::sync::Arc;

use ga::GaConfig;
use served::daemon::{Daemon, DaemonConfig};
use served::job::{goal_by_name, scenario_by_name, JobSpec, OnlineSpec};
use served::json::Json;
use served::{Client, Flags, MetricsExporter, RunDir, Server};
use workloads::DriftKind;

const DEFAULT_ADDR: &str = "127.0.0.1:7421";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: tuned <serve|submit|status|watch|list|cancel|metrics|tenants|obs|store|shutdown> [flags]"
        );
        return ExitCode::FAILURE;
    };
    match run(cmd, &args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tuned: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flags each subcommand knows, as `(valued, switches)`: at least
/// the usage block above (test-enforced). `store`'s operation is a bare
/// word, so it is declared as a switch.
fn known_flags(cmd: &str) -> Option<(&'static str, &'static str)> {
    Some(match cmd {
        "serve" => (
            "--addr --dir --workers --queue --eval-threads --worker --shards --tenant-quota \
             --max-connections --store-path --metrics-listen",
            "--obs-detail",
        ),
        "submit" => (
            "--addr --name --scenario --goal --arch --problem --tenant --strategy --bench --pop \
             --gens --seed --threads --stagnation --epochs --drift --period --phases \
             --drift-seed --window --threshold-pct",
            "--online",
        ),
        "status" | "watch" | "cancel" => ("--addr --id", ""),
        "list" | "metrics" | "tenants" | "obs" | "shutdown" => ("--addr", ""),
        "store" => ("--addr", "stats compact"),
        _ => return None,
    })
}

fn run(cmd: &str, args: &[String]) -> Result<(), String> {
    let (valued, switches) = known_flags(cmd).ok_or_else(|| format!("unknown command '{cmd}'"))?;
    let flags = &Flags::new(args, valued, switches)?;
    match cmd {
        "serve" => serve(flags),
        "tenants" => with_client(flags, |client| {
            for t in client.tenants()? {
                println!("{}", t.to_text());
            }
            Ok(())
        }),
        "submit" => submit(flags),
        "status" => with_id(flags, |client, id| {
            client.status(id).map(|j| println!("{}", j.to_text()))
        }),
        "watch" => with_id(flags, |client, id| {
            client
                .watch(id, |j| println!("{}", j.to_text()))
                .map(|_| ())
        }),
        "list" => with_client(flags, |client| {
            for j in client.list()? {
                println!("{}", j.to_text());
            }
            Ok(())
        }),
        "cancel" => with_id(flags, |client, id| {
            client
                .cancel(id)
                .map(|was| println!("canceled (was {was})"))
        }),
        "metrics" => with_client(flags, |client| {
            client.metrics().map(|m| println!("{}", m.to_text()))
        }),
        "obs" => with_client(flags, |client| {
            client.obs().map(|o| println!("{}", o.to_text()))
        }),
        "store" if flags.has("stats") => with_client(flags, |client| {
            client.store_stats().map(|s| println!("{}", s.to_text()))
        }),
        "store" if flags.has("compact") => with_client(flags, |client| {
            client.store_compact().map(|c| println!("{}", c.to_text()))
        }),
        "store" => Err("store needs an operation: stats|compact".into()),
        // `shutdown`: `known_flags` lets no other command through.
        _ => with_client(flags, |client| {
            client.shutdown().map(|()| println!("daemon stopped"))
        }),
    }
}

fn serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("--addr").unwrap_or(DEFAULT_ADDR);
    let dir = flags.get("--dir").unwrap_or("tuned-run");
    let base = DaemonConfig::default();
    // The store records its own counters (hits, appends, compactions);
    // open it against the daemon's registry so `tuned obs` sees them.
    let store = flags
        .get("--store-path")
        .map(|path| {
            stored::Store::open_with(
                path,
                stored::StoreOptions {
                    obs: Arc::clone(&base.obs),
                    ..stored::StoreOptions::default()
                },
            )
            .map(Arc::new)
            .map_err(|e| format!("cannot open store at {path}: {e}"))
        })
        .transpose()?;
    // `--tenant-quota infra=50000` caps tenant `infra` at 50000
    // evaluations of admitted budget; repeat the flag per tenant.
    let tenant_quotas = flags
        .get_all("--tenant-quota")
        .into_iter()
        .map(|kv| {
            let (tenant, quota) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad --tenant-quota '{kv}' (want TENANT=EVALS)"))?;
            let quota: u64 = quota
                .parse()
                .map_err(|_| format!("bad --tenant-quota evals in '{kv}'"))?;
            Ok((tenant.to_string(), quota))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let config = DaemonConfig {
        workers: flags.parse("--workers")?.unwrap_or(2),
        queue_capacity: flags.parse("--queue")?.unwrap_or(64),
        eval_threads: flags.parse("--eval-threads")?.unwrap_or(base.eval_threads),
        eval_workers: flags
            .get_all("--worker")
            .into_iter()
            .map(str::to_string)
            .collect(),
        shards: flags.parse("--shards")?.unwrap_or(base.shards),
        tenant_quotas,
        max_connections: flags
            .parse("--max-connections")?
            .unwrap_or(base.max_connections),
        store,
        ..base
    };
    if config.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let run_dir = RunDir::open(dir)?;
    let daemon = Daemon::start(config, run_dir.clone())?;
    if flags.has("--obs-detail") {
        daemon.obs().set_detailed(true);
    }
    let server = Server::bind(addr, daemon.clone())?;
    let bound = server.local_addr();
    // Scripts bind port 0 and read the actual address from this file.
    std::fs::write(run_dir.root().join("addr"), bound.to_string())
        .map_err(|e| format!("cannot write addr file: {e}"))?;
    if let Some(metrics_addr) = flags.get("--metrics-listen") {
        let exporter = MetricsExporter::bind(metrics_addr, daemon)?;
        let metrics_bound = exporter.local_addr();
        std::fs::write(
            run_dir.root().join("metrics-addr"),
            metrics_bound.to_string(),
        )
        .map_err(|e| format!("cannot write metrics-addr file: {e}"))?;
        println!("metrics on http://{metrics_bound}/metrics");
        let _ = std::thread::Builder::new()
            .name("tuned-metrics".into())
            .spawn(move || {
                if let Err(e) = exporter.serve() {
                    eprintln!("tuned: metrics endpoint died: {e}");
                }
            });
    }
    println!("tuned listening on {bound}");
    server.serve()
}

fn with_client(
    flags: &Flags,
    f: impl FnOnce(&mut Client) -> Result<(), String>,
) -> Result<(), String> {
    let mut client = Client::connect(flags.get("--addr").unwrap_or(DEFAULT_ADDR))?;
    f(&mut client)
}

fn with_id(
    flags: &Flags,
    f: impl FnOnce(&mut Client, u64) -> Result<(), String>,
) -> Result<(), String> {
    let id = flags.parse("--id")?.ok_or("missing --id")?;
    with_client(flags, |client| f(client, id))
}

fn submit(flags: &Flags) -> Result<(), String> {
    let base = GaConfig::default();
    let spec = JobSpec {
        name: flags.get("--name").unwrap_or("job").to_string(),
        scenario: scenario_by_name(flags.get("--scenario").ok_or("missing --scenario")?)?,
        goal: goal_by_name(flags.get("--goal").ok_or("missing --goal")?)?,
        arch: flags.get("--arch").unwrap_or("x86-p4").to_string(),
        suite: flags
            .get_all("--bench")
            .into_iter()
            .map(str::to_string)
            .collect(),
        ga: GaConfig {
            pop_size: flags.parse("--pop")?.unwrap_or(base.pop_size),
            generations: flags.parse("--gens")?.unwrap_or(base.generations),
            seed: flags.parse("--seed")?.unwrap_or(base.seed),
            threads: flags.parse("--threads")?.unwrap_or(1),
            stagnation_limit: flags.parse("--stagnation")?,
            ..base
        },
        strategy: flags.get("--strategy").unwrap_or("ga").to_string(),
        tenant: flags.get("--tenant").unwrap_or("default").to_string(),
        problem: flags.get("--problem").unwrap_or("inline").to_string(),
        online: if flags.has("--online") {
            let kind_name = flags.get("--drift").unwrap_or("step");
            Some(OnlineSpec {
                epochs: flags.parse("--epochs")?.unwrap_or(12),
                kind: DriftKind::by_name(kind_name)
                    .ok_or_else(|| format!("unknown --drift kind '{kind_name}'"))?,
                period: flags.parse("--period")?.unwrap_or(3),
                phases: flags.parse("--phases")?.unwrap_or(3),
                drift_seed: flags.parse("--drift-seed")?.unwrap_or(0),
                window: flags.parse("--window")?.unwrap_or(3),
                threshold_pct: flags.parse("--threshold-pct")?.unwrap_or(5.0),
            })
        } else {
            None
        },
        drift_pos: None,
    };
    // Validate locally (names, GA shape) before going on the wire.
    let spec = JobSpec::from_json(&spec.to_json())?;
    with_client(flags, |client| {
        let id = client.submit(&spec)?;
        println!(
            "{}",
            Json::obj(vec![("id", Json::Int(id as i64))]).to_text()
        );
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_flag_in_the_usage_block_is_accepted() {
        let doc = include_str!("tuned.rs").lines();
        let block = doc.skip_while(|l| !l.contains("```text")).skip(1);
        let (mut cmd, mut checked) = ("", 0);
        for line in block.take_while(|l| !l.contains("```")) {
            if let Some(rest) = line.strip_prefix("//! tuned ") {
                cmd = rest.split_whitespace().next().unwrap();
            }
            let (valued, switches) = super::known_flags(cmd).unwrap();
            let words = line.split(|c: char| c != '-' && !c.is_ascii_lowercase());
            for flag in words.filter(|w| w.starts_with("--")) {
                let mut known = valued.split_whitespace().chain(switches.split_whitespace());
                assert!(known.any(|f| f == flag), "tuned {cmd} {flag}");
                checked += 1;
            }
        }
        assert_eq!(checked, 46, "the usage block lists 46 flags");
    }
}
