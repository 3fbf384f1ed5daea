//! Online drift study: is adaptive re-tuning worth it once the
//! workload moves under the tuner?
//!
//! The paper tunes once against a fixed training suite. The `online`
//! crate claims that when the workload drifts, a drift detector plus
//! warm re-tuning holds delivered fitness near what a per-phase
//! offline tune would achieve. This study measures the claim on three
//! seeded drift schedules (step, ramp, cyclic), running each under
//! three budget-matched modes:
//!
//! * **online** — [`OnlineJob::run`]: probe every epoch, re-tune when
//!   the detector fires (warm-started from the incumbent);
//! * **frozen** — [`OnlineJob::run_frozen`]: tune once at epoch 0 and
//!   hold the incumbent forever (the paper's offline posture);
//! * **oracle** — [`OnlineJob::oracle`]: an offline tune against every
//!   distinct workload position, the unreachable lower envelope that
//!   regret is measured against.
//!
//! Whether online's mean delivered (probe) fitness beats frozen is
//! reported per schedule, not gated: the `online_wins` column of
//! `results/online_summary.csv` (2 of 3 at the committed seed). What
//! the study asserts are the bounded-regret invariants
//! ([`OnlineReport::violations`]). Per-epoch rows land in
//! `results/online.csv`.

use ga::GaConfig;
use online::{DetectorConfig, OnlineConfig, OnlineJob, OnlineReport};
use tuner::paper_tasks;
use workloads::{benchmark_by_name, DriftKind, DriftSchedule};

use crate::table::Table;
use crate::Context;

/// Epoch horizon of every run: long enough for each schedule to cross
/// several phase boundaries, short enough that the whole study stays
/// in seconds.
const EPOCHS: u64 = 10;

/// One schedule's three-mode outcome.
#[derive(Debug, Clone)]
pub struct OnlineCell {
    /// Schedule kind name (`"step"`, `"ramp"`, `"cyclic"`).
    pub schedule: &'static str,
    /// The adaptive run.
    pub online: OnlineReport,
    /// The tune-once control.
    pub frozen: OnlineReport,
    /// Per-epoch oracle fitness (budget-matched offline tunes).
    pub oracle: Vec<f64>,
}

impl OnlineCell {
    /// Whether online beat the frozen incumbent on delivered fitness.
    #[must_use]
    pub fn online_won(&self) -> bool {
        self.online.mean_probe() < self.frozen.mean_probe()
    }
}

/// The three drift schedules under study. Periods differ so the bar
/// is not one rhythm in three costumes: step flips mid-horizon, ramp
/// blends continuously, cyclic revisits its phases twice.
fn schedules() -> [DriftSchedule; 3] {
    [
        DriftSchedule {
            kind: DriftKind::Step,
            period: 3,
            phases: 2,
            seed: 11,
        },
        DriftSchedule {
            kind: DriftKind::Ramp,
            period: 3,
            phases: 3,
            seed: 11,
        },
        DriftSchedule {
            kind: DriftKind::Cyclic,
            period: 2,
            phases: 2,
            seed: 11,
        },
    ]
}

/// Runs the study: three schedules × (online, frozen, oracle), all
/// budget-matched and bit-reproducible from the context's GA seed.
///
/// # Panics
/// Panics if a reference benchmark is missing or a run fails — the
/// study is an acceptance gate, so failure must be loud.
#[must_use]
pub fn run(ctx: &Context) -> Vec<OnlineCell> {
    // A two-benchmark base suite keeps every probe cheap while still
    // giving the drift morphs two programs to reshape; Opt:Tot is the
    // cell the other extension studies use.
    let base: Vec<_> = ["db", "jess"]
        .iter()
        .map(|n| benchmark_by_name(n).expect("known benchmark").clone())
        .collect();
    let task = paper_tasks()
        .into_iter()
        .find(|t| t.name == "Opt:Tot")
        .expect("Opt:Tot is a paper task");
    // Budget-matched across modes; single-threaded so every trajectory
    // is a pure function of the seed.
    let ga = GaConfig {
        pop_size: ctx.ga.pop_size.min(8),
        generations: ctx.ga.generations.min(4),
        threads: 1,
        seed: ctx.ga.seed,
        stagnation_limit: None,
        ..ctx.ga.clone()
    };

    schedules()
        .into_iter()
        .map(|schedule| {
            let job = OnlineJob {
                problem: "inline".into(),
                task: task.clone(),
                base: base.clone(),
                adapt: ctx.adapt_cfg.clone(),
                ga: ga.clone(),
                strategy: "ga".into(),
                online: OnlineConfig {
                    epochs: EPOCHS,
                    schedule,
                    // The knobs the sim sweep proves out: a one-probe
                    // window and a 2% bar detect every morph the
                    // seeded schedules produce.
                    detector: DetectorConfig {
                        window: 1,
                        threshold_pct: 2.0,
                    },
                },
            };
            let cell = OnlineCell {
                schedule: schedule.kind.name(),
                online: job.run(None).expect("online run"),
                frozen: job.run_frozen().expect("frozen run"),
                oracle: job.oracle().expect("oracle run"),
            };
            let violations = cell.online.violations(&job.online);
            assert!(
                violations.is_empty(),
                "schedule {}: bounded-regret invariants violated: {violations:?}",
                cell.schedule
            );
            cell
        })
        .collect()
}

/// Schedules where online beat the frozen incumbent.
#[must_use]
pub fn wins(cells: &[OnlineCell]) -> usize {
    cells.iter().filter(|c| c.online_won()).count()
}

/// The per-epoch CSV: one row per schedule × mode × epoch.
#[must_use]
pub fn to_rows_table(cells: &[OnlineCell]) -> Table {
    let mut t = Table::new(&[
        "schedule", "mode", "epoch", "phase", "probe", "fitness", "retuned",
    ]);
    for cell in cells {
        for (mode, report) in [("online", &cell.online), ("frozen", &cell.frozen)] {
            for row in &report.rows {
                t.row(vec![
                    cell.schedule.to_string(),
                    mode.to_string(),
                    row.epoch.to_string(),
                    format!("{}+{}/{}", row.pos.phase, row.pos.num, row.pos.den),
                    format!("{:.6}", row.probe),
                    format!("{:.6}", row.fitness),
                    row.retuned.to_string(),
                ]);
            }
        }
        // The oracle has no trajectory of its own: its "probe" at epoch
        // `e` is the offline-tuned fitness for that epoch's workload.
        for (epoch, (best, row)) in cell.oracle.iter().zip(&cell.online.rows).enumerate() {
            t.row(vec![
                cell.schedule.to_string(),
                "oracle".to_string(),
                epoch.to_string(),
                format!("{}+{}/{}", row.pos.phase, row.pos.num, row.pos.den),
                format!("{best:.6}"),
                format!("{best:.6}"),
                "false".to_string(),
            ]);
        }
    }
    t
}

/// The summary table: one row per schedule.
#[must_use]
pub fn to_table(cells: &[OnlineCell]) -> Table {
    let mut t = Table::new(&[
        "schedule",
        "online_mean",
        "frozen_mean",
        "oracle_mean",
        "online_regret_pct",
        "frozen_regret_pct",
        "retunes",
        "mean_latency",
        "online_wins",
    ]);
    for cell in cells {
        let oracle_mean = cell.oracle.iter().sum::<f64>() / cell.oracle.len().max(1) as f64;
        let lat = &cell.online.detect_latencies;
        let mean_latency = if lat.is_empty() {
            "-".to_string()
        } else {
            format!("{:.2}", lat.iter().sum::<u64>() as f64 / lat.len() as f64)
        };
        t.row(vec![
            cell.schedule.to_string(),
            format!("{:.6}", cell.online.mean_probe()),
            format!("{:.6}", cell.frozen.mean_probe()),
            format!("{oracle_mean:.6}"),
            format!("{:.2}", cell.online.mean_regret_pct(&cell.oracle)),
            format!("{:.2}", cell.frozen.mean_regret_pct(&cell.oracle)),
            cell.online.retunes.to_string(),
            mean_latency,
            cell.online_won().to_string(),
        ]);
    }
    t
}
