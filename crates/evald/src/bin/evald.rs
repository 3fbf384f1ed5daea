//! `evald` — a remote fitness-evaluation worker process.
//!
//! ```text
//! evald [--addr HOST:PORT] [--addr-file PATH]
//!       [--register DAEMON_ADDR] [--advertise HOST:PORT]
//!       [--heartbeat-ms N]
//!       [--chaos drop:P,delay:D] [--chaos-seed N]
//! ```
//!
//! Binds the eval server (`--addr`, default `127.0.0.1:0` — an
//! OS-assigned port), optionally writes the bound address to
//! `--addr-file` (so scripts binding port 0 can discover it), and — when
//! `--register` names a `tuned` daemon — announces itself there and
//! heartbeats every `--heartbeat-ms` (default 1000). `--advertise`
//! overrides the address sent to the daemon (needed when the daemon must
//! dial back through a different interface). `--chaos` injects faults
//! for integration testing; see `evald::chaos`. Any other flag is an
//! error.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use evald::{spawn_registrar, Chaos, ChaosConfig, EvalWorker};
use served::Flags;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("evald: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every flag of the usage block above (test-enforced); each takes a
/// value.
const FLAGS: &str = "--addr --addr-file --register --advertise --heartbeat-ms --chaos --chaos-seed";

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args, FLAGS, "")?;
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:0");
    let chaos_cfg = match flags.get("--chaos") {
        Some(spec) => ChaosConfig::parse(spec)?,
        None => ChaosConfig::default(),
    };
    let chaos_seed = flags.parse("--chaos-seed")?.unwrap_or(0u64);
    if chaos_cfg.is_active() {
        eprintln!("evald: chaos mode active: {chaos_cfg:?} (seed {chaos_seed})");
    }

    let worker = EvalWorker::bind(addr, Chaos::new(chaos_cfg, chaos_seed))?;
    let bound = worker.local_addr();
    if let Some(path) = flags.get("--addr-file") {
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("cannot write addr file {path}: {e}"))?;
    }
    println!("evald listening on {bound}");

    let registrar = match flags.get("--register") {
        Some(daemon_addr) => {
            let advertise = flags
                .get("--advertise")
                .map_or_else(|| bound.to_string(), str::to_string);
            let interval =
                Duration::from_millis(flags.parse("--heartbeat-ms")?.unwrap_or(1000u64).max(10));
            Some(spawn_registrar(
                daemon_addr.to_string(),
                advertise,
                interval,
                worker.stop_flag(),
            ))
        }
        None => None,
    };

    let result = worker.serve();
    worker.stop_flag().store(true, Ordering::SeqCst);
    if let Some(handle) = registrar {
        let _ = handle.join();
    }
    result
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_flag_in_the_usage_block_is_accepted() {
        let doc = include_str!("evald.rs").lines();
        let block = doc.skip_while(|l| !l.contains("```text")).skip(1);
        let mut checked = 0;
        for line in block.take_while(|l| !l.contains("```")) {
            let words = line.split(|c: char| c != '-' && !c.is_ascii_lowercase());
            for flag in words.filter(|w| w.starts_with("--")) {
                assert!(super::FLAGS.split_whitespace().any(|f| f == flag), "{flag}");
                checked += 1;
            }
        }
        assert_eq!(checked, 7, "the usage block lists 7 flags");
    }
}
