//! The tuning cells a process has built.
//!
//! A cell is one (problem, scenario, goal, arch, suite at a drift
//! position): the training programs, their prepared measurement
//! contexts and the default measurements every fitness is normalized by
//! — what no genome changes. A job gets a [fresh](Problem::fresh)
//! problem over its cell, so what its search learns about genomes dies
//! with the job. [`JobSpec::build_problem`] draws from the process's one
//! [`cells`]; each `evald::EvalWorker` keeps its own [`Cells`], since a
//! worker stands for a process of its own.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use problems::Problem;

use crate::json::Json;
use crate::JobSpec;

/// Built cells by key.
#[derive(Default)]
pub struct Cells {
    map: Mutex<HashMap<String, Arc<dyn Problem>>>,
}

/// The process's cells: what [`JobSpec::build_problem`] draws from.
pub fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(Cells::default)
}

impl Cells {
    /// No cells yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell key: the spec's JSON without the fields fitness does not
    /// read (`name`, `ga`, `strategy`, `tenant`). The `problem` field
    /// stays — a `flags` job over a cell must never share an instance
    /// with an `inline` job over the same cell. Deterministic because
    /// [`Json::to_text`] serializes object keys in insertion order.
    fn key(spec: &JobSpec) -> String {
        let Json::Obj(mut pairs) = spec.to_json() else {
            unreachable!("a spec encodes as an object")
        };
        pairs.retain(|(k, _)| !matches!(k.as_str(), "name" | "ga" | "strategy" | "tenant"));
        Json::Obj(pairs).to_text()
    }

    /// A fresh problem over the job's cell, building the cell on first
    /// use. Holding the map lock across the build is deliberate: jobs
    /// for the same cell wait instead of building it twice. The boolean
    /// reports whether the cell was already built (`true` = hit).
    ///
    /// # Errors
    /// Unknown benchmark, arch or problem names (a hand-built spec can
    /// carry them).
    pub fn get(&self, spec: &JobSpec) -> Result<(Arc<dyn Problem>, bool), String> {
        let key = Self::key(spec);
        // A build that panicked inserted nothing: the map stays valid.
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = map.get(&key) {
            return Ok((Arc::clone(cell).fresh(), true));
        }
        let cell = problems::build(
            &spec.problem,
            &spec.task()?,
            &spec.training()?,
            spec.adapt_cfg(),
        )?;
        map.insert(key, Arc::clone(&cell));
        Ok((cell.fresh(), false))
    }

    /// How many distinct cells have been built.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no cell has been built yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(suite: &str) -> JobSpec {
        let head = r#"{"name":"a","scenario":"opt","goal":"tot","arch":"x86-p4""#;
        JobSpec::from_text(&format!(r#"{head},"suite":["{suite}"]}}"#)).unwrap()
    }

    #[test]
    fn same_cell_shares_one_cell() {
        let cells = Cells::new();
        let (a, hit_a) = cells.get(&spec("db")).unwrap();
        assert!(!hit_a, "first build is a miss");
        let mut renamed = spec("db");
        renamed.name = "b".into();
        renamed.ga.seed = 999;
        // Different name and GA config, strategy, tenant: the same cell.
        for other in [
            renamed,
            JobSpec {
                strategy: "race".into(),
                ..spec("db")
            },
            JobSpec {
                tenant: "acme".into(),
                ..spec("db")
            },
        ] {
            let (b, hit) = cells.get(&other).unwrap();
            assert!(hit, "{other:?} must hit the cell");
            assert!(!Arc::ptr_eq(&a, &b), "every job gets its own problem");
            // The fingerprint lives in the cell: one address, one cell.
            assert!(std::ptr::eq(a.fingerprint(), b.fingerprint()));
        }
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn different_problems_over_one_suite_get_different_cells() {
        let cells = Cells::new();
        let (a, _) = cells.get(&spec("db")).unwrap();
        let dss = JobSpec {
            problem: "dss".into(),
            ..spec("db")
        };
        let (b, hit_b) = cells.get(&dss).unwrap();
        assert!(!hit_b, "problem id must split the cell");
        assert_eq!((a.id(), b.id()), ("inline", "dss"));
        // A problem with no per-job state is handed out as itself.
        assert!(Arc::ptr_eq(&b, &cells.get(&dss).unwrap().0));
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn different_suites_get_different_cells() {
        let cells = Cells::new();
        let (a, _) = cells.get(&spec("db")).unwrap();
        let (b, hit_b) = cells.get(&spec("jess")).unwrap();
        assert!(!hit_b);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn bad_suite_name_propagates() {
        let cells = Cells::new();
        // JobSpec::from_json validates names, but a hand-built spec can
        // carry garbage — the lookup must surface it, not panic.
        let bad = JobSpec {
            suite: vec!["no-such-benchmark".into()],
            ..spec("db")
        };
        assert!(cells.get(&bad).is_err());
        assert!(cells.is_empty());
    }
}
