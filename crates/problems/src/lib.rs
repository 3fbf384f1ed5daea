//! Problem-generic tuning: one trait between the search machinery and
//! *what* is being tuned.
//!
//! The original pipeline hard-wired the inlining heuristic end to end —
//! the GA tuned `InlineParams`, the daemon checkpointed `InlineParams`,
//! the store keyed records by inlining cells. This crate inserts the
//! missing seam: a [`Problem`] is a gene space (with per-gene
//! [`ga::GeneKind`]s), a fitness function over genomes, and a store
//! fingerprint, and everything above it — `ga`, `search`, `served`,
//! `evald`, `stored` — operates on genomes alone. One daemon can then
//! tune heterogeneous problems over one worker pool, and one fitness
//! store can hold them all without cross-contamination.
//!
//! Three domains ship:
//!
//! * [`inline`] — the paper's problem, wrapped. Bit-identical to the
//!   direct [`tuner::Tuner`] path (test-enforced): the wrapper adds no
//!   RNG draws, no reordering, no float churn.
//! * [`flags`] — compiler-flag selection: which optimizations to run
//!   and which compiler to use, a mixed categorical/boolean space in
//!   the style of compiler-flag phase-selection tuning.
//! * [`dss`] — data-structure selection: pick a container
//!   implementation per call-site class from profiled push/access/
//!   lookup frequencies, a purely categorical space in the style of
//!   Darwinian data-structure selection.
//!
//! Problem identity flows everywhere a genome goes: store fingerprints
//! carry the problem id (so warm starts never cross problems — see
//! `stored::Store::warm_seeds`), job specs and checkpoints name the
//! problem, and evaluation servers refuse genomes outside the problem's
//! space.

pub mod dss;
pub mod flags;
pub mod inline;

use std::sync::Arc;

use jit::AdaptConfig;
use tuner::TuningTask;
use workloads::Benchmark;

pub use dss::DssProblem;
pub use flags::FlagsProblem;
pub use inline::InlineProblem;

/// Every problem id [`build`] accepts, in stable order.
pub const KNOWN: &[&str] = &["inline", "flags", "dss"];

/// An optimization problem the generic tuning stack can search.
///
/// Implementations must be deterministic: `fitness` is a pure function
/// of the genes (the store replays it bit-exactly), and `space` /
/// `fingerprint` never change over the problem's lifetime.
pub trait Problem: Send + Sync {
    /// Stable identifier (`"inline"`, `"flags"`, `"dss"`). Part of job
    /// specs, checkpoints and store fingerprints — never rename.
    fn id(&self) -> &'static str;

    /// The gene space: bounds plus per-gene kinds. Mutation respects
    /// the kinds (categoricals re-draw, never interpolate).
    fn space(&self) -> &ga::Ranges;

    /// Fitness of a genome, lower is better; the problem's default
    /// configuration scores exactly 1. Callers must pass genomes inside
    /// [`Problem::space`].
    fn fitness(&self, genes: &[i64]) -> f64;

    /// The store fingerprint of this problem × task × suite cell. Its
    /// `problem` field equals [`Problem::id`], and non-inline problems
    /// fold the id into the cell digest so cells never collide across
    /// problems.
    fn fingerprint(&self) -> &stored::Fingerprint;

    /// Human-readable decode of a genome for reports and logs.
    fn describe(&self, genes: &[i64]) -> String;

    /// The same cell with no per-job state: what a new job over a cached
    /// problem gets, so nothing a search learned about genomes outlives
    /// its job. A problem without such state returns itself.
    fn fresh(self: Arc<Self>) -> Arc<dyn Problem>;
}

/// Builds a problem by id over a task and training suite.
///
/// `adapt` is only consulted by the inlining problem (the others pick
/// their own compilation story).
///
/// # Errors
/// Unknown id, or an empty training suite.
pub fn build(
    id: &str,
    task: &TuningTask,
    training: &[Benchmark],
    adapt: AdaptConfig,
) -> Result<Arc<dyn Problem>, String> {
    if training.is_empty() {
        return Err(format!("problem '{id}' needs a non-empty training suite"));
    }
    match id {
        "inline" => Ok(Arc::new(InlineProblem::new(
            task.clone(),
            training.to_vec(),
            adapt,
        ))),
        "flags" => Ok(Arc::new(FlagsProblem::new(task.clone(), training.to_vec()))),
        "dss" => Ok(Arc::new(DssProblem::new(task.clone(), training.to_vec()))),
        other => Err(format!(
            "unknown problem '{other}' (known: {})",
            KNOWN.join(", ")
        )),
    }
}

/// Whether `id` names a buildable problem.
#[must_use]
pub fn is_known(id: &str) -> bool {
    KNOWN.contains(&id)
}

/// The tagged store fingerprint of a non-inline problem's cell.
///
/// Starts from the inlining cell fingerprint (same workload features,
/// so cross-*cell* warm transfer still ranks by workload shape within a
/// problem), then folds the problem id into the cell digest and tags
/// the `problem` field. The inlining problem keeps the legacy untagged
/// fingerprint so pre-problems store directories keep warm-starting it.
pub(crate) fn tagged_fingerprint(
    id: &str,
    task: &TuningTask,
    training: &[Benchmark],
) -> stored::Fingerprint {
    let mut fp = tuner::cell_fingerprint(task, training);
    if id != "inline" {
        fp.cell_digest = stored::digest_parts(&[id, &format!("{:016x}", fp.cell_digest)]);
        fp.problem = id.to_string();
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuner::Goal;
    use workloads::benchmark_by_name;

    fn task() -> TuningTask {
        TuningTask {
            name: "Opt:Tot".into(),
            scenario: jit::Scenario::Opt,
            goal: Goal::Total,
            arch: jit::ArchModel::pentium4(),
        }
    }

    fn training() -> Vec<Benchmark> {
        vec![benchmark_by_name("db").unwrap()]
    }

    #[test]
    fn every_known_problem_builds_and_scores_its_default_one() {
        for &id in KNOWN {
            let p = build(id, &task(), &training(), AdaptConfig::default()).unwrap();
            assert_eq!(p.id(), id);
            assert_eq!(p.fingerprint().problem, id);
            // The defaults genome must exist inside the space and score 1.
            let defaults: Vec<i64> = match id {
                "inline" => inliner::InlineParams::jikes_default().to_genes(),
                "flags" => flags::DEFAULT_GENES.to_vec(),
                "dss" => vec![0; dss::N_CLASSES],
                _ => unreachable!(),
            };
            assert!(p.space().contains(&defaults), "{id} defaults out of space");
            let f = p.fitness(&defaults);
            assert!((f - 1.0).abs() < 1e-9, "{id} default fitness {f}");
            assert!(!p.describe(&defaults).is_empty());
        }
    }

    #[test]
    fn unknown_problem_is_a_structured_error() {
        let err = build("gradient", &task(), &training(), AdaptConfig::default())
            .err()
            .expect("must reject");
        assert!(err.contains("unknown problem"), "{err}");
        assert!(err.contains("inline"), "{err}");
        assert!(!is_known("gradient"));
        assert!(KNOWN.iter().all(|id| is_known(id)));
    }

    #[test]
    fn problems_on_the_same_cell_never_share_a_cell_digest() {
        let digests: Vec<u64> = KNOWN
            .iter()
            .map(|id| {
                build(id, &task(), &training(), AdaptConfig::default())
                    .unwrap()
                    .fingerprint()
                    .cell_digest
            })
            .collect();
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), KNOWN.len(), "{digests:?}");
    }

    #[test]
    fn inline_keeps_the_legacy_untagged_fingerprint() {
        // Store back-compat: pre-problems records were written under the
        // plain tuner digest, and the inline problem must keep hitting
        // them.
        let p = build("inline", &task(), &training(), AdaptConfig::default()).unwrap();
        let legacy = tuner::cell_fingerprint(&task(), &training());
        assert_eq!(p.fingerprint(), &legacy);
        assert_eq!(p.fingerprint().problem, "inline");
    }

    #[test]
    fn empty_training_suite_is_rejected() {
        let err = build("flags", &task(), &[], AdaptConfig::default())
            .err()
            .expect("must reject");
        assert!(err.contains("non-empty"), "{err}");
    }
}
