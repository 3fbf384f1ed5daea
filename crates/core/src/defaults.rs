//! Process-wide memoized measurements of the **default** heuristic.
//!
//! Every corner of the pipeline needs the Jikes-default measurement of a
//! benchmark: the tuner uses it as the fitness normalization constant and
//! balance factor, [`crate::eval::evaluate_suite`] as the denominator of
//! every reported ratio, and the daemon measures the same training suites
//! for many concurrent jobs. The measurement is deterministic, so
//! re-running it is pure waste — this module computes each
//! (benchmark, scenario, architecture, adaptive-config) cell once per
//! process and hands out shared references.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use inliner::InlineParams;
use jit::{measure, AdaptConfig, ArchModel, Measurement, Prepared, Scenario};
use workloads::Benchmark;

/// The memo table. Keys are structural fingerprints (see [`fingerprint`]);
/// values are shared so callers never copy a [`Measurement`].
fn cache() -> &'static Mutex<HashMap<u64, Arc<Measurement>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<Measurement>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A structural fingerprint of one measurement cell.
///
/// The benchmark is identified by its generator spec *plus* the program's
/// shape (method count, statement count, call sites) so a hand-built
/// `Benchmark` whose `program` doesn't match its `spec` still gets its own
/// cache line. The architecture and adaptive config are hashed field by
/// field through their `Debug` form (both are small all-scalar structs).
fn fingerprint(bench: &Benchmark, scenario: Scenario, arch: &ArchModel, cfg: &AdaptConfig) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", bench.spec).hash(&mut h);
    bench.program.method_count().hash(&mut h);
    bench.program.total_stmts().hash(&mut h);
    bench.program.call_site_count().hash(&mut h);
    scenario.hash(&mut h);
    format!("{arch:?}").hash(&mut h);
    format!("{cfg:?}").hash(&mut h);
    h.finish()
}

/// The default-heuristic measurement of one benchmark, memoized for the
/// life of the process.
#[must_use]
pub fn default_measurement(
    bench: &Benchmark,
    scenario: Scenario,
    arch: &ArchModel,
    cfg: &AdaptConfig,
) -> Arc<Measurement> {
    default_measurement_in(bench, scenario, arch, cfg, None)
}

/// [`default_measurement`] for a caller that already holds the cell's
/// prepared context: a miss measures through `ctx` instead of preparing
/// the program a second time.
pub(crate) fn default_measurement_in(
    bench: &Benchmark,
    scenario: Scenario,
    arch: &ArchModel,
    cfg: &AdaptConfig,
    ctx: Option<&Prepared>,
) -> Arc<Measurement> {
    let key = fingerprint(bench, scenario, arch, cfg);
    if let Some(m) = cache().lock().expect("defaults cache poisoned").get(&key) {
        return Arc::clone(m);
    }
    // Measure outside the lock: a measurement can take a while and other
    // threads may want unrelated cells. A racing thread measuring the same
    // cell computes the identical value (the pipeline is deterministic),
    // so last-write-wins is harmless.
    let params = InlineParams::jikes_default();
    let m = Arc::new(match ctx {
        Some(ctx) => ctx.measure(&bench.program, &params),
        None => measure(&bench.program, scenario, arch, &params, cfg),
    });
    cache()
        .lock()
        .expect("defaults cache poisoned")
        .insert(key, Arc::clone(&m));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark_by_name;

    #[test]
    fn memoizes_identical_cells() {
        let b = benchmark_by_name("db").unwrap();
        let arch = ArchModel::pentium4();
        let cfg = AdaptConfig::default();
        let a = default_measurement(&b, Scenario::Opt, &arch, &cfg);
        let c = default_measurement(&b, Scenario::Opt, &arch, &cfg);
        // Same allocation, not just equal values.
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinguishes_scenario_arch_and_config() {
        let b = benchmark_by_name("db").unwrap();
        let arch = ArchModel::pentium4();
        let cfg = AdaptConfig::default();
        let opt = default_measurement(&b, Scenario::Opt, &arch, &cfg);
        let adapt = default_measurement(&b, Scenario::Adapt, &arch, &cfg);
        assert!(!Arc::ptr_eq(&opt, &adapt));
        let ppc = default_measurement(&b, Scenario::Opt, &ArchModel::powerpc_g4(), &cfg);
        assert!(!Arc::ptr_eq(&opt, &ppc));
        let warm = AdaptConfig {
            warmup_fraction: 0.2,
            ..cfg
        };
        let warmed = default_measurement(&b, Scenario::Adapt, &arch, &warm);
        assert!(!Arc::ptr_eq(&adapt, &warmed));
    }

    #[test]
    fn matches_direct_measurement() {
        let b = benchmark_by_name("jess").unwrap();
        let arch = ArchModel::pentium4();
        let cfg = AdaptConfig::default();
        let cached = default_measurement(&b, Scenario::Opt, &arch, &cfg);
        let direct = measure(
            &b.program,
            Scenario::Opt,
            &arch,
            &InlineParams::jikes_default(),
            &cfg,
        );
        assert_eq!(*cached, direct);
    }
}
