//! Output checks: the in-process reference search every daemon result
//! must equal bit for bit, the committed goldens, and the independent
//! interpreter check on the tuned genome.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ga::{Evaluator, LocalEvaluator};
use inliner::{HotSites, InlineParams};
use ir::interp::{run, InterpLimits};
use ir::Program;
use jit::Scenario;
use problems::Problem;
use served::job::JobSpec;
use served::json::{parse, Json};

/// What the search must produce, worked out without the daemon, the
/// wire, the store or the worker tier: `search::build` driven by this
/// file's own ask/evaluate/tell loop.
pub struct Reference {
    pub genes: Vec<i64>,
    pub fitness: f64,
    pub evaluations: usize,
    /// Best fitness held after ⌈rounds/2⌉ rounds — the job's target.
    pub target: f64,
    /// Evaluations computed when the target was first met.
    pub evals_to_target: usize,
    /// Every genome the search evaluated, in evaluation order.
    pub evaluated: Vec<Vec<i64>>,
    pub wall_s: f64,
}

pub fn reference(
    spec: &JobSpec,
    problem: &dyn Problem,
    threads: usize,
) -> Result<Reference, String> {
    let start = std::time::Instant::now();
    let mut strategy = search::build(&spec.strategy, problem.space().clone(), spec.ga.clone())?;
    let evaluator = LocalEvaluator::new(|genes: &[i64]| problem.fitness(genes), threads);
    let mut bests = Vec::new();
    let mut evals = Vec::new();
    let mut evaluated = Vec::new();
    while !strategy.is_done() {
        let batch = strategy.ask();
        let scores = if batch.is_empty() {
            Vec::new()
        } else {
            evaluator.evaluate(&batch)
        };
        strategy.tell(&batch, &scores);
        evaluated.extend(batch);
        bests.push(strategy.best().map_or(f64::INFINITY, |(_, f)| f));
        evals.push(strategy.evaluations());
    }
    let (genes, fitness) = strategy
        .best()
        .ok_or("reference search evaluated nothing")?;
    let target = bests[bests.len().div_ceil(2) - 1];
    let hit = bests
        .iter()
        .position(|&b| b <= target)
        .expect("the target is one of the recorded bests");
    Ok(Reference {
        genes,
        fitness,
        evaluations: strategy.evaluations(),
        target,
        evals_to_target: evals[hit],
        evaluated,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Programs whose whole run fits in under 80 M interpreter steps
/// (0.2-0.8 s here). The other eight take 1.2-5.9 s each, which a 20 s
/// run cannot afford; they are left to the root crate's
/// `tests/semantics.rs`.
const INTERPRETABLE: &[&str] = &["jess", "db", "jack", "fop", "ipsixql", "pseudojbb"];

/// Independent reference for tuned genomes: for each interpretable
/// training program of each `(job, tuned genes)` pair, `ir::interp::run`
/// of the program inlined the way the job's scenario inlines it must
/// return what the untouched program returns. Returns (programs checked,
/// mismatches). Nothing is being timed when this runs, so the
/// interpretations are spread over `threads` threads.
pub fn semantic_check(
    jobs: &[(&JobSpec, &[i64])],
    threads: usize,
) -> Result<(usize, usize), String> {
    // Interpretation tasks: index 0.. are the untouched programs (one
    // per distinct program), the rest the inlined variants.
    let mut originals: Vec<(&'static str, Program)> = Vec::new();
    let mut variants: Vec<(usize, Program)> = Vec::new();
    for (spec, genes) in jobs {
        let params = InlineParams::from_genes(genes);
        let arch = spec.arch_model()?;
        for bench in spec.training()? {
            if !INTERPRETABLE.contains(&bench.name()) {
                continue;
            }
            let program = &bench.program;
            let (targets, hot) = match spec.scenario {
                Scenario::Opt => (program.reachable(), HotSites::new()),
                Scenario::Adapt => {
                    let plan = jit::adaptive::plan(program, &arch, &spec.adapt_cfg());
                    (plan.hot_methods, plan.hot_sites)
                }
            };
            let (inlined, _) = inliner::inline_program(program, &params, &hot, &targets);
            let original = match originals.iter().position(|(n, _)| *n == bench.name()) {
                Some(i) => i,
                None => {
                    originals.push((bench.name(), bench.program.clone()));
                    originals.len() - 1
                }
            };
            if !variants
                .iter()
                .any(|(o, p)| *o == original && *p == inlined)
            {
                variants.push((original, inlined));
            }
        }
    }
    let limits = InterpLimits {
        fuel: 200_000_000,
        max_depth: 256,
    };
    let programs: Vec<&Program> = originals
        .iter()
        .map(|(_, p)| p)
        .chain(variants.iter().map(|(_, p)| p))
        .collect();
    let next = AtomicUsize::new(0);
    let outputs: Vec<Mutex<Option<(i64, u64)>>> =
        programs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(program) = programs.get(i) else {
                    return;
                };
                let out = run(program, &[], &limits)
                    .ok()
                    .map(|o| (o.value, o.heap_digest));
                *outputs[i].lock().expect("interp output poisoned") = out;
            });
        }
    });
    let outputs: Vec<Option<(i64, u64)>> = outputs
        .into_iter()
        .map(|m| m.into_inner().expect("interp output poisoned"))
        .collect();
    let mismatches = variants
        .iter()
        .enumerate()
        .filter(|(v, (original, _))| {
            let before = outputs[*original];
            before.is_none() || before != outputs[originals.len() + v]
        })
        .count();
    Ok((variants.len(), mismatches))
}

/// Mean total-time ratio of a tuned inlining genome on the suite the job
/// did not train on (the paper's generalisation figure).
pub fn heldout_total_ratio(spec: &JobSpec, genes: &[i64]) -> Result<f64, String> {
    let suite = crate::spec::heldout_suite(spec);
    Ok(tuner::evaluate_suite(
        &suite,
        spec.scenario,
        &spec.arch_model()?,
        &InlineParams::from_genes(genes),
        &spec.adapt_cfg(),
    )
    .mean_total_ratio())
}

/// One job's expected result as the golden file spells it.
fn golden_entry(genes: &[i64], fitness: f64) -> Json {
    Json::obj(vec![
        (
            "genes",
            Json::Arr(genes.iter().map(|&g| Json::Int(g)).collect()),
        ),
        (
            "fitness_bits",
            Json::Str(format!("{:016x}", fitness.to_bits())),
        ),
    ])
}

/// Committed expected results of one workload: every timed job (their
/// GA seeds are fixed) and the canary at the default seed.
pub struct Goldens {
    path: std::path::PathBuf,
    entries: Vec<(String, Json)>,
}

impl Goldens {
    pub fn load(dir: &Path, workload: &str) -> Result<Self, String> {
        let path = dir.join(format!("{workload}.json"));
        let entries = match std::fs::read_to_string(&path) {
            Ok(text) => match parse(&text)? {
                Json::Obj(pairs) => pairs,
                _ => return Err(format!("{}: not an object", path.display())),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Ok(Self { path, entries })
    }

    /// `None` when no golden is recorded under `key`.
    pub fn matches(&self, key: &str, genes: &[i64], fitness: f64) -> Option<bool> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v == golden_entry(genes, fitness))
    }

    pub fn set(&mut self, key: &str, genes: &[i64], fitness: f64) {
        self.entries.retain(|(k, _)| k != key);
        self.entries
            .push((key.to_string(), golden_entry(genes, fitness)));
    }

    /// Rewrites the file, one job per line, sorted by key.
    pub fn save(&mut self) -> Result<(), String> {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut text = String::from("{\n");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            text.push_str(&format!(
                "  {}: {}{comma}\n",
                Json::Str(k.clone()).to_text(),
                v.to_text()
            ));
        }
        text.push_str("}\n");
        std::fs::write(&self.path, text).map_err(|e| format!("{}: {e}", self.path.display()))
    }
}
