//! Data-structure selection: pick a container implementation per usage
//! class, in the style of Darwinian data-structure selection.
//!
//! The program under tuning is imagined to allocate containers at many
//! sites; sites are bucketed into [`N_CLASSES`] usage classes, and one
//! categorical gene per class picks the implementation for every
//! container in that class:
//!
//! | gene value | implementation | character |
//! |------------|----------------|-----------|
//! | 0 | `vec`       | cheap push/scan, linear lookup |
//! | 1 | `list`      | cheap build, slow traversal |
//! | 2 | `hashmap`   | near-constant lookup, heavy footprint |
//! | 3 | `treemap`   | ordered, logarithmic everything |
//! | 4 | `sortedvec` | slow insert, fast access, tight memory |
//!
//! The workload profile is *real*: [`ir::freq::analyze`] gives each
//! benchmark method's entry counts, memory-class op counts and dynamic
//! call frequencies, which become the per-class push / access / lookup
//! volumes. The cost model prices those volumes through the task's
//! [`jit::ArchModel`] (memory-op cycle cost, I-cache footprint penalty),
//! so the same genome scores differently on the Pentium 4 than on the
//! G4 — exactly the cross-architecture specialization story of the rest
//! of the repo. Fitness is normalized to the all-`vec` default, which
//! scores exactly 1.
//!
//! Like [`crate::flags`], the task's scenario is ignored; its goal and
//! arch apply as usual (`build` cycles play the role of compile time for
//! `Total` goals).

use std::sync::Arc;

use ga::{GeneKind, Ranges};
use ir::freq::{analyze, class_index, N_COST_CLASSES};
use ir::CostClass;
use jit::{ArchModel, ExecBreakdown, Measurement};
use tuner::{geometric_mean, TuningTask};
use workloads::Benchmark;

use crate::Problem;

/// Number of container usage classes (= genes in the space).
pub const N_CLASSES: usize = 8;

/// A container implementation's cost coefficients, all in units of one
/// memory-class operation on the target architecture.
struct ContainerImpl {
    name: &'static str,
    /// Cycles per element pushed.
    push: f64,
    /// Cycles per element access (iteration, indexing).
    access: f64,
    /// Cycles per keyed lookup.
    lookup: f64,
    /// Cache-footprint multiplier (vec = 1).
    footprint: f64,
    /// One-time construction cost multiplier.
    build: f64,
}

/// The implementation menu, indexed by gene value.
const IMPLS: [ContainerImpl; 5] = [
    ContainerImpl {
        name: "vec",
        push: 1.0,
        access: 1.0,
        lookup: 8.0,
        footprint: 1.0,
        build: 4.0,
    },
    ContainerImpl {
        name: "list",
        push: 1.5,
        access: 4.0,
        lookup: 12.0,
        footprint: 2.0,
        build: 2.0,
    },
    ContainerImpl {
        name: "hashmap",
        push: 3.0,
        access: 1.5,
        lookup: 1.5,
        footprint: 3.0,
        build: 16.0,
    },
    ContainerImpl {
        name: "treemap",
        push: 4.0,
        access: 2.5,
        lookup: 2.5,
        footprint: 2.0,
        build: 12.0,
    },
    ContainerImpl {
        name: "sortedvec",
        push: 6.0,
        access: 1.0,
        lookup: 2.0,
        footprint: 1.0,
        build: 8.0,
    },
];

/// One benchmark's per-class workload volumes, extracted once from the
/// frequency analysis.
struct ClassProfile {
    pushes: [f64; N_CLASSES],
    accesses: [f64; N_CLASSES],
    lookups: [f64; N_CLASSES],
}

/// Buckets a benchmark's methods into usage classes and accumulates the
/// per-class push/access/lookup volumes from the real dynamic profile:
/// method entries become pushes, memory-class op units become accesses,
/// dynamic call executions become keyed lookups.
fn profile(b: &Benchmark) -> ClassProfile {
    let freq = analyze(&b.program, 1.0);
    let mem = class_index(CostClass::Mem);
    debug_assert!(mem < N_COST_CLASSES);
    let mut p = ClassProfile {
        pushes: [0.0; N_CLASSES],
        accesses: [0.0; N_CLASSES],
        lookups: [0.0; N_CLASSES],
    };
    for (mi, local) in freq.locals.iter().enumerate() {
        let class = mi % N_CLASSES;
        let entries = freq.entries[mi];
        p.pushes[class] += entries;
        p.accesses[class] += local.ops_per_entry[mem] * entries;
        p.lookups[class] += local.calls_per_entry * entries;
    }
    p
}

/// Prices one benchmark under a per-class implementation choice, in the
/// shape of `jit::measure` so [`tuner::Goal::metric`] applies directly:
/// steady-state container traffic is "running", one-time construction is
/// "compile", and the combined footprint feeds the arch's I-cache
/// penalty.
fn measure_dss(p: &ClassProfile, arch: &ArchModel, genes: &[i64]) -> Measurement {
    assert_eq!(
        genes.len(),
        N_CLASSES,
        "dss genome must have {N_CLASSES} genes"
    );
    let mem_cost = arch.class_cycles[class_index(CostClass::Mem)];
    let mut running = 0.0;
    let mut build = 0.0;
    let mut footprint = 0.0;
    for c in 0..N_CLASSES {
        let imp = &IMPLS[genes[c] as usize];
        running += mem_cost
            * (p.pushes[c] * imp.push + p.accesses[c] * imp.access + p.lookups[c] * imp.lookup);
        build += mem_cost * imp.build * (1.0 + p.pushes[c]).ln();
        footprint += imp.footprint * (1.0 + p.pushes[c]).ln() * 64.0;
    }
    let icache_factor = arch.icache_penalty(footprint);
    running *= icache_factor;
    Measurement {
        total_cycles: build + running,
        running_cycles: running,
        compile_cycles: build,
        baseline_compile_cycles: 0.0,
        opt_compile_cycles: build,
        first_iter_exec_cycles: running,
        steady: ExecBreakdown {
            total_cycles: running,
            op_cycles: running,
            call_cycles: 0.0,
            icache_factor,
            hot_footprint: footprint,
            dynamic_calls: 0.0,
        },
        code_size: 0,
        inline_stats: inliner::InlineStats::default(),
        n_opt_methods: 0,
        n_baseline_methods: 0,
    }
}

/// The data-structure selection problem.
pub struct DssProblem {
    task: TuningTask,
    space: Ranges,
    fingerprint: stored::Fingerprint,
    /// One profile per training benchmark, extracted once.
    profiles: Vec<ClassProfile>,
    /// Per-benchmark measurement under the all-`vec` default — the
    /// fitness normalization constants and balance factors.
    defaults: Vec<Measurement>,
}

impl DssProblem {
    /// Builds the selection problem over a task's goal/arch and a suite.
    ///
    /// # Panics
    /// Panics if the training suite is empty.
    #[must_use]
    pub fn new(task: TuningTask, training: Vec<Benchmark>) -> Self {
        assert!(!training.is_empty(), "training suite must not be empty");
        let fingerprint = crate::tagged_fingerprint("dss", &task, &training);
        let profiles: Vec<ClassProfile> = training.iter().map(profile).collect();
        let defaults = profiles
            .iter()
            .map(|p| measure_dss(p, &task.arch, &[0; N_CLASSES]))
            .collect();
        let space = Ranges::with_kinds(
            vec![(0, IMPLS.len() as i64 - 1); N_CLASSES],
            vec![GeneKind::Cat; N_CLASSES],
        );
        Self {
            task,
            space,
            fingerprint,
            profiles,
            defaults,
        }
    }
}

impl Problem for DssProblem {
    fn id(&self) -> &'static str {
        "dss"
    }

    fn space(&self) -> &Ranges {
        &self.space
    }

    fn fitness(&self, genes: &[i64]) -> f64 {
        let mut ratios = Vec::with_capacity(self.profiles.len());
        for (p, default) in self.profiles.iter().zip(&self.defaults) {
            let m = measure_dss(p, &self.task.arch, genes);
            let num = self.task.goal.metric(&m, default);
            let den = self.task.goal.metric(default, default);
            if den <= 0.0 {
                return f64::INFINITY;
            }
            ratios.push(num / den);
        }
        geometric_mean(&ratios)
    }

    fn fingerprint(&self) -> &stored::Fingerprint {
        &self.fingerprint
    }

    fn describe(&self, genes: &[i64]) -> String {
        let picks: Vec<String> = genes
            .iter()
            .enumerate()
            .map(|(c, &g)| format!("c{c}={}", IMPLS[g as usize].name))
            .collect();
        format!("[{}]", picks.join(", "))
    }

    fn fresh(self: Arc<Self>) -> Arc<dyn Problem> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuner::Goal;
    use workloads::benchmark_by_name;

    fn problem() -> DssProblem {
        DssProblem::new(
            TuningTask {
                name: "Opt:Tot".into(),
                scenario: jit::Scenario::Opt,
                goal: Goal::Total,
                arch: jit::ArchModel::pentium4(),
            },
            vec![benchmark_by_name("db").unwrap()],
        )
    }

    #[test]
    fn all_vec_default_scores_exactly_one() {
        let p = problem();
        let f = p.fitness(&[0; N_CLASSES]);
        assert!((f - 1.0).abs() < 1e-12, "fitness {f}");
    }

    #[test]
    fn the_space_is_purely_categorical() {
        let p = problem();
        assert_eq!(p.space().len(), N_CLASSES);
        assert!(p.space().kinds().iter().all(|&k| k == GeneKind::Cat));
        assert!((0..N_CLASSES).all(|i| p.space().gene(i) == (0, 4)));
        // 5 implementations per class.
        assert_eq!(p.space().cardinality(), 5u128.pow(N_CLASSES as u32));
    }

    #[test]
    fn implementations_actually_move_the_metric() {
        let p = problem();
        let vecs = p.fitness(&[0; N_CLASSES]);
        let lists = p.fitness(&[1; N_CLASSES]);
        let hashes = p.fitness(&[2; N_CLASSES]);
        assert_ne!(vecs.to_bits(), lists.to_bits());
        assert_ne!(vecs.to_bits(), hashes.to_bits());
        for f in [vecs, lists, hashes] {
            assert!(f.is_finite() && f > 0.0);
        }
        // All-list traversal is strictly worse than all-vec on every
        // coefficient that matters here, so the ratio must exceed 1.
        assert!(lists > 1.0, "lists {lists}");
    }

    #[test]
    fn the_arch_changes_the_score() {
        // The same genome prices differently on the G4 (different memory
        // cost and I-cache), so per-arch specialization is real.
        let mk = |arch: jit::ArchModel| {
            DssProblem::new(
                TuningTask {
                    name: "t".into(),
                    scenario: jit::Scenario::Opt,
                    goal: Goal::Total,
                    arch,
                },
                vec![benchmark_by_name("db").unwrap()],
            )
        };
        let genes = [2, 0, 1, 4, 3, 0, 2, 1];
        let p4 = mk(jit::ArchModel::pentium4()).fitness(&genes);
        let g4 = mk(jit::ArchModel::powerpc_g4()).fitness(&genes);
        assert_ne!(p4.to_bits(), g4.to_bits());
    }

    #[test]
    fn fitness_is_deterministic() {
        let p = problem();
        let genes = [4, 3, 2, 1, 0, 1, 2, 3];
        assert_eq!(p.fitness(&genes).to_bits(), p.fitness(&genes).to_bits());
    }

    #[test]
    fn describe_names_every_class() {
        let p = problem();
        let d = p.describe(&[0, 1, 2, 3, 4, 0, 1, 2]);
        assert!(d.contains("c0=vec"), "{d}");
        assert!(d.contains("c2=hashmap"), "{d}");
        assert!(d.contains("c4=sortedvec"), "{d}");
    }
}
