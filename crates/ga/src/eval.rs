//! Pluggable fitness-evaluation backends.
//!
//! The engine never evaluates anything itself: a driver takes the
//! generation's deduplicated cache misses from
//! [`GaState::ask`](crate::GaState::ask), scores them on *some*
//! [`Evaluator`], and hands the scores to
//! [`GaState::tell`](crate::GaState::tell). [`LocalEvaluator`] is the
//! in-process thread pool; the `tuned` daemon swaps in a fleet of remote
//! `evald` workers behind the same trait. Because fitness is a pure
//! function of the genome and results merge into the memo table keyed
//! by genome, every backend yields bit-identical runs.

use crate::genome::Genome;

/// A batch fitness-evaluation backend.
///
/// A driver calls it once per round with the deduplicated,
/// not-yet-memoized genomes. Implementations must be **pure**: the same
/// genome always maps to the same `f64` (bit for bit), regardless of
/// batch composition, ordering, thread, process, or host. The engine
/// sanitizes non-finite scores to `+inf` afterwards, so backends may
/// return `NaN`/`inf` for broken evaluations.
pub trait Evaluator: Sync {
    /// Computes fitness for each genome; `result[i]` scores `genomes[i]`.
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64>;

    /// Starts evaluating `genomes` and returns a handle to collect the
    /// scores, so a driver can overlap useful work (persisting a
    /// checkpoint) with in-flight evaluations. `begin` + `wait` must
    /// return the same bits [`evaluate`](Evaluator::evaluate) would.
    /// The default evaluates eagerly; backends with real asynchrony
    /// override it.
    fn begin<'s>(&'s self, genomes: &[Genome]) -> Box<dyn PendingScores + 's> {
        Box::new(ReadyScores(self.evaluate(genomes)))
    }
}

/// A batch of fitness scores that may still be in flight.
///
/// Returned by [`Evaluator::begin`]; [`wait`](PendingScores::wait)
/// blocks until every score is known and consumes the handle — a batch
/// is begun once and collected once.
pub trait PendingScores {
    /// Blocks until the whole batch is scored; `result[i]` scores the
    /// `genomes[i]` passed to `begin`.
    fn wait(self: Box<Self>) -> Vec<f64>;
}

/// Scores already in hand — the trivial [`PendingScores`], used by
/// backends whose evaluation is synchronous.
pub struct ReadyScores(pub Vec<f64>);

impl PendingScores for ReadyScores {
    fn wait(self: Box<Self>) -> Vec<f64> {
        self.0
    }
}

/// The in-process backend: a fitness function fanned out over scoped
/// worker threads.
///
/// Worker threads never consume randomness, so any `threads` value
/// produces bit-identical results.
pub struct LocalEvaluator<F> {
    fitness: F,
    threads: usize,
}

impl<F> LocalEvaluator<F>
where
    F: Fn(&[i64]) -> f64 + Sync,
{
    /// Wraps a fitness function; `threads` ≤ 1 evaluates sequentially.
    #[must_use]
    pub fn new(fitness: F, threads: usize) -> Self {
        Self {
            fitness,
            threads: threads.max(1),
        }
    }
}

impl<F> Evaluator for LocalEvaluator<F>
where
    F: Fn(&[i64]) -> f64 + Sync,
{
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        if self.threads <= 1 || genomes.len() <= 1 {
            return genomes.iter().map(|g| (self.fitness)(g)).collect();
        }
        let n_threads = self.threads.min(genomes.len());
        let chunk = genomes.len().div_ceil(n_threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = genomes
                .chunks(chunk)
                .map(|part| {
                    scope
                        .spawn(move || part.iter().map(|g| (self.fitness)(g)).collect::<Vec<f64>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("evaluation worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genomes(n: usize) -> Vec<Genome> {
        (0..n).map(|i| vec![i as i64, (i * i) as i64]).collect()
    }

    fn f(g: &[i64]) -> f64 {
        g.iter().map(|&x| x as f64).sum()
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let gs = genomes(17);
        let seq = LocalEvaluator::new(f, 1).evaluate(&gs);
        let par = LocalEvaluator::new(f, 4).evaluate(&gs);
        assert_eq!(seq.len(), gs.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn more_threads_than_genomes_is_fine() {
        let gs = genomes(3);
        let scores = LocalEvaluator::new(f, 64).evaluate(&gs);
        assert_eq!(scores, vec![0.0, 2.0, 6.0]);
    }

    #[test]
    fn empty_batch_returns_empty() {
        assert!(LocalEvaluator::new(f, 4).evaluate(&[]).is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let gs = genomes(2);
        assert_eq!(LocalEvaluator::new(f, 0).evaluate(&gs).len(), 2);
    }

    #[test]
    fn begin_then_wait_matches_evaluate_bit_for_bit() {
        let gs = genomes(9);
        let eval = LocalEvaluator::new(f, 3);
        let direct = eval.evaluate(&gs);
        let pipelined = eval.begin(&gs).wait();
        assert_eq!(direct.len(), pipelined.len());
        for (a, b) in direct.iter().zip(&pipelined) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
