//! The 14 calibrated benchmark instances: SPECjvm98 (Table 2 of the paper)
//! and DaCapo+JBB (Table 3).
//!
//! Calibration targets (checked by this crate's tests and recorded in
//! `EXPERIMENTS.md`):
//!
//! * SPEC programs are *running-time dominated* under `Opt` on the x86
//!   model (compile time a modest share of total), DaCapo programs are
//!   *compile-time heavy* (large method populations, short phases);
//! * `compress` is kernel-bound with deep cheap call chains (its best
//!   inline depth differs between `Opt` and `Adapt`, paper Fig. 2a);
//! * `jess` is call-bound with many mid-size methods (inline depth beyond
//!   small values hurts under `Opt`, paper Fig. 2b).

use simrng::child_seed;

use ir::program::Program;

use crate::generate::generate;
use crate::spec::{BenchmarkSpec, OpMix, Suite};

/// Master seed of the released suites. Changing this regenerates every
/// benchmark (and invalidates recorded experiment numbers).
pub const SUITE_SEED: u64 = 0x2005_1112_c0de;

/// A generated benchmark: its spec plus the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// The calibrated shape description.
    pub spec: BenchmarkSpec,
    /// The generated program.
    pub program: Program,
}

impl Benchmark {
    /// Generates a benchmark from its spec with the suite master seed.
    #[must_use]
    pub fn from_spec(spec: BenchmarkSpec) -> Self {
        let seed = child_seed(SUITE_SEED, spec.name);
        let program = generate(&spec, seed);
        Self { spec, program }
    }

    /// The benchmark's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.spec.name
    }
}

fn spec_base(name: &'static str, description: &'static str, suite: Suite) -> BenchmarkSpec {
    BenchmarkSpec {
        name,
        description,
        suite,
        n_workers: 100,
        n_accessors: 30,
        n_layers: 5,
        body_median_ops: 16.0,
        body_sigma: 0.9,
        fanout_mean: 1.8,
        hot_skew: 1.15,
        n_phases: 3,
        driver_iters: 40,
        phase_trips: 25,
        kernel_prob: 0.35,
        kernel_trips: 60,
        call_in_loop_prob: 0.30,
        cold_branch_prob: 0.25,
        mix: OpMix::INT,
    }
}

/// The seven SPECjvm98 training benchmarks (paper Table 2).
#[must_use]
pub fn specjvm98_specs() -> Vec<BenchmarkSpec> {
    vec![
        // Java version of 129.compress from SPEC 95: a byte-crunching
        // kernel, few methods, very long running, deep narrow call chains.
        BenchmarkSpec {
            n_workers: 40,
            n_accessors: 14,
            n_layers: 8,
            body_median_ops: 4.0,
            body_sigma: 0.7,
            fanout_mean: 2.0,
            n_phases: 2,
            driver_iters: 20,
            phase_trips: 20,
            kernel_prob: 0.65,
            kernel_trips: 180,
            call_in_loop_prob: 0.45,
            cold_branch_prob: 0.10,
            mix: OpMix::BYTES,
            ..spec_base(
                "compress",
                "Java version of 129.compress from SPEC 95",
                Suite::SpecJvm98,
            )
        },
        // Java expert system shell: rule matching — many mid-size integer
        // methods, call-bound, high fan-out, little kernel time.
        BenchmarkSpec {
            n_workers: 260,
            n_accessors: 80,
            n_layers: 6,
            body_median_ops: 5.0,
            body_sigma: 1.0,
            fanout_mean: 3.4,
            n_phases: 4,
            driver_iters: 7,
            phase_trips: 20,
            kernel_prob: 0.10,
            kernel_trips: 25,
            call_in_loop_prob: 0.30,
            cold_branch_prob: 0.30,
            mix: OpMix::INT,
            ..spec_base("jess", "Java expert system shell", Suite::SpecJvm98)
        },
        // In-memory database: memory-op heavy, moderate method count.
        BenchmarkSpec {
            n_workers: 55,
            n_accessors: 25,
            n_layers: 4,
            body_median_ops: 4.0,
            body_sigma: 0.8,
            fanout_mean: 2.4,
            n_phases: 3,
            driver_iters: 25,
            phase_trips: 25,
            kernel_prob: 0.40,
            kernel_trips: 70,
            call_in_loop_prob: 0.35,
            cold_branch_prob: 0.20,
            mix: OpMix::MEM,
            ..spec_base(
                "db",
                "Builds and operates on an in-memory database",
                Suite::SpecJvm98,
            )
        },
        // JDK 1.0.2 javac: a real compiler — larger method population with
        // a heavy size tail, moderate run length.
        BenchmarkSpec {
            n_workers: 420,
            n_accessors: 120,
            n_layers: 7,
            body_median_ops: 6.0,
            body_sigma: 1.15,
            fanout_mean: 3.2,
            n_phases: 4,
            driver_iters: 7,
            phase_trips: 22,
            kernel_prob: 0.15,
            kernel_trips: 30,
            call_in_loop_prob: 0.28,
            cold_branch_prob: 0.30,
            mix: OpMix::INT,
            ..spec_base(
                "javac",
                "Java source to bytecode compiler in JDK 1.0.2",
                Suite::SpecJvm98,
            )
        },
        // MPEG-3 audio decoder: floating-point kernels, long running.
        BenchmarkSpec {
            n_workers: 150,
            n_accessors: 40,
            n_layers: 6,
            body_median_ops: 5.0,
            body_sigma: 0.85,
            fanout_mean: 2.2,
            n_phases: 3,
            driver_iters: 10,
            phase_trips: 20,
            kernel_prob: 0.55,
            kernel_trips: 120,
            call_in_loop_prob: 0.40,
            cold_branch_prob: 0.12,
            mix: OpMix::FLOAT,
            ..spec_base(
                "mpegaudio",
                "Decodes an MPEG-3 audio file",
                Suite::SpecJvm98,
            )
        },
        // Single-threaded raytracer: many small vector-math methods invoked
        // enormously often — the inlining showcase (paper: −27% running).
        BenchmarkSpec {
            n_workers: 190,
            n_accessors: 90,
            n_layers: 6,
            body_median_ops: 4.0,
            body_sigma: 0.75,
            fanout_mean: 2.6,
            n_phases: 3,
            driver_iters: 15,
            phase_trips: 30,
            kernel_prob: 0.45,
            kernel_trips: 120,
            call_in_loop_prob: 0.45,
            cold_branch_prob: 0.10,
            mix: OpMix::FLOAT,
            ..spec_base(
                "raytrace",
                "A raytracer working on a scene with a dinosaur",
                Suite::SpecJvm98,
            )
        },
        // Parser generator with lexical analysis: integer state machines.
        BenchmarkSpec {
            n_workers: 280,
            n_accessors: 70,
            n_layers: 6,
            body_median_ops: 5.0,
            body_sigma: 1.05,
            fanout_mean: 3.0,
            n_phases: 3,
            driver_iters: 7,
            phase_trips: 28,
            kernel_prob: 0.20,
            kernel_trips: 40,
            call_in_loop_prob: 0.30,
            cold_branch_prob: 0.28,
            mix: OpMix::INT,
            ..spec_base(
                "jack",
                "A Java parser generator with lexical analysis",
                Suite::SpecJvm98,
            )
        },
    ]
}

/// The seven DaCapo+JBB test benchmarks (paper Table 3).
#[must_use]
pub fn dacapo_jbb_specs() -> Vec<BenchmarkSpec> {
    vec![
        // ANTLR parser generator: a huge population of generated methods
        // with a heavy tail; short run — compile time dominates total
        // (paper: −58% total under Opt:Tot).
        BenchmarkSpec {
            n_workers: 1250,
            n_accessors: 300,
            n_layers: 8,
            body_median_ops: 7.0,
            body_sigma: 1.35,
            fanout_mean: 3.4,
            n_phases: 5,
            driver_iters: 3,
            phase_trips: 10,
            kernel_prob: 0.10,
            kernel_trips: 25,
            call_in_loop_prob: 0.25,
            cold_branch_prob: 0.32,
            mix: OpMix::INT,
            ..spec_base(
                "antlr",
                "parses grammar files and generates a parser and lexical analyzer",
                Suite::DaCapoJbb,
            )
        },
        // FOP XSL-FO → PDF formatter: big object-soup code base.
        BenchmarkSpec {
            n_workers: 1050,
            n_accessors: 320,
            n_layers: 7,
            body_median_ops: 7.0,
            body_sigma: 1.25,
            fanout_mean: 3.3,
            n_phases: 4,
            driver_iters: 4,
            phase_trips: 16,
            kernel_prob: 0.12,
            kernel_trips: 25,
            call_in_loop_prob: 0.26,
            cold_branch_prob: 0.30,
            mix: OpMix::INT,
            ..spec_base(
                "fop",
                "takes an XSL-FO file, parses it and formats it, generating a PDF",
                Suite::DaCapoJbb,
            )
        },
        // Jython interpreter: large dispatch-heavy code base, moderate run.
        BenchmarkSpec {
            n_workers: 1400,
            n_accessors: 380,
            n_layers: 7,
            body_median_ops: 6.0,
            body_sigma: 1.2,
            fanout_mean: 3.5,
            n_phases: 5,
            driver_iters: 4,
            phase_trips: 14,
            kernel_prob: 0.15,
            kernel_trips: 35,
            call_in_loop_prob: 0.30,
            cold_branch_prob: 0.28,
            mix: OpMix::INT,
            ..spec_base(
                "jython",
                "interprets a series of Python programs",
                Suite::DaCapoJbb,
            )
        },
        // PMD source analyzer: visitor-pattern heavy.
        BenchmarkSpec {
            n_workers: 850,
            n_accessors: 260,
            n_layers: 7,
            body_median_ops: 5.0,
            body_sigma: 1.1,
            fanout_mean: 3.2,
            n_phases: 4,
            driver_iters: 5,
            phase_trips: 18,
            kernel_prob: 0.14,
            kernel_trips: 30,
            call_in_loop_prob: 0.28,
            cold_branch_prob: 0.30,
            mix: OpMix::INT,
            ..spec_base(
                "pmd",
                "analyzes a set of Java classes for source code problems",
                Suite::DaCapoJbb,
            )
        },
        // PostScript interpreter: longer-running interpreter loop — the one
        // test benchmark where the paper found no running-time gains.
        BenchmarkSpec {
            n_workers: 420,
            n_accessors: 110,
            n_layers: 5,
            body_median_ops: 5.0,
            body_sigma: 0.95,
            fanout_mean: 2.6,
            n_phases: 3,
            driver_iters: 18,
            phase_trips: 22,
            kernel_prob: 0.35,
            kernel_trips: 80,
            call_in_loop_prob: 0.32,
            cold_branch_prob: 0.22,
            mix: OpMix::BYTES,
            ..spec_base(
                "ps",
                "reads and interprets a PostScript file",
                Suite::DaCapoJbb,
            )
        },
        // ipsixql XML database: query over the works of Shakespeare —
        // memory heavy, short run (paper: −50% total under Opt:Tot).
        BenchmarkSpec {
            n_workers: 620,
            n_accessors: 180,
            n_layers: 6,
            body_median_ops: 6.0,
            body_sigma: 1.2,
            fanout_mean: 3.0,
            n_phases: 4,
            driver_iters: 7,
            phase_trips: 15,
            kernel_prob: 0.18,
            kernel_trips: 40,
            call_in_loop_prob: 0.27,
            cold_branch_prob: 0.26,
            mix: OpMix::MEM,
            ..spec_base(
                "ipsixql",
                "performs a query against the complete works of Shakespeare",
                Suite::DaCapoJbb,
            )
        },
        // pseudojbb: SPECjbb2000 pinned to 70000 transactions for one
        // warehouse — transaction-processing mix, moderate run.
        BenchmarkSpec {
            n_workers: 720,
            n_accessors: 220,
            n_layers: 6,
            body_median_ops: 6.0,
            body_sigma: 1.05,
            fanout_mean: 3.0,
            n_phases: 4,
            driver_iters: 9,
            phase_trips: 22,
            kernel_prob: 0.22,
            kernel_trips: 45,
            call_in_loop_prob: 0.30,
            cold_branch_prob: 0.24,
            mix: OpMix::MEM,
            ..spec_base(
                "pseudojbb",
                "SPECjbb2000 modified to perform a fixed amount of work",
                Suite::DaCapoJbb,
            )
        },
    ]
}

/// Generates the SPECjvm98 training suite.
#[must_use]
pub fn specjvm98() -> Vec<Benchmark> {
    specjvm98_specs()
        .into_iter()
        .map(Benchmark::from_spec)
        .collect()
}

/// Generates the DaCapo+JBB test suite.
#[must_use]
pub fn dacapo_jbb() -> Vec<Benchmark> {
    dacapo_jbb_specs()
        .into_iter()
        .map(Benchmark::from_spec)
        .collect()
}

/// Both suites, training first.
#[must_use]
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = specjvm98();
    v.extend(dacapo_jbb());
    v
}

/// The spec of the benchmark called `name` (across both suites). Looks
/// the name up without generating any program — what validating a name
/// should cost.
#[must_use]
pub fn spec_by_name(name: &str) -> Option<BenchmarkSpec> {
    specjvm98_specs()
        .into_iter()
        .chain(dacapo_jbb_specs())
        .find(|s| s.name == name)
}

/// Generates one benchmark by name (across both suites).
#[must_use]
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    spec_by_name(name).map(Benchmark::from_spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_seven_benchmarks_each() {
        assert_eq!(specjvm98_specs().len(), 7);
        assert_eq!(dacapo_jbb_specs().len(), 7);
        let names: Vec<&str> = specjvm98_specs().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "compress",
                "jess",
                "db",
                "javac",
                "mpegaudio",
                "raytrace",
                "jack"
            ]
        );
    }

    #[test]
    fn lookup_by_name_spans_both_suites() {
        assert!(benchmark_by_name("compress").is_some());
        assert!(benchmark_by_name("antlr").is_some());
        assert!(benchmark_by_name("nope").is_none());
        assert_eq!(
            spec_by_name("antlr"),
            Some(benchmark_by_name("antlr").unwrap().spec)
        );
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    fn benchmarks_are_reproducible() {
        let a = benchmark_by_name("db").unwrap();
        let b = benchmark_by_name("db").unwrap();
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn dacapo_programs_are_bigger_than_spec_programs() {
        let spec_avg: f64 = specjvm98_specs()
            .iter()
            .map(|s| f64::from(s.total_methods()))
            .sum::<f64>()
            / 7.0;
        let dacapo_avg: f64 = dacapo_jbb_specs()
            .iter()
            .map(|s| f64::from(s.total_methods()))
            .sum::<f64>()
            / 7.0;
        assert!(dacapo_avg > 3.0 * spec_avg);
    }

    #[test]
    fn all_benchmarks_generate_and_validate() {
        for b in all_benchmarks() {
            assert!(
                ir::validate::validate(&b.program).is_empty(),
                "{}",
                b.name()
            );
            assert!(
                ir::validate::check_unique_sites(&b.program).is_empty(),
                "{}",
                b.name()
            );
            let fa = ir::freq::analyze(&b.program, 1.0);
            assert!(fa.converged, "{} freq diverged", b.name());
        }
    }
}
