//! The persistent fitness store as an evaluation tier.
//!
//! [`StoreTier`] wraps any [`Evaluator`] in a read-through/write-behind
//! cache backed by a cluster-wide [`stored::Store`]: genomes the store
//! already holds for this cell are answered from disk (bit-exact —
//! fitness is a pure function of the record key, so a hit *is* the
//! number the inner evaluator would have produced), misses fall through
//! to the wrapped backend, and every fresh score is appended to the
//! store before the batch returns. Because hits and misses produce
//! identical bits, inserting this tier can never change a search
//! trajectory — it only changes how much compute the trajectory costs.
//!
//! This is the one place the serving stack reads or writes the store:
//! the daemon looks a genome up here before dispatching it, and nothing
//! arriving on a socket can append a record.
//!
//! With no store configured the tier is a transparent pass-through, so
//! the daemon builds it unconditionally.

use ga::{Evaluator, Genome, PendingScores};
use std::sync::Arc;
use stored::{Fingerprint, Record, Store};

/// A read-through/write-behind store tier over an evaluation backend.
pub struct StoreTier<E> {
    tier: Option<StoreCell>,
    inner: E,
}

/// The store, the job's cell fingerprint in it, and the counter that
/// ticks once per record this job adds (`shard_store_writes{shard=…}`
/// in the daemon): fresh appends — not hits, and not re-appends of a
/// record another job got in first.
pub type StoreCell = (Arc<Store>, Fingerprint, Arc<obs::Counter>);

impl<E: Evaluator> StoreTier<E> {
    /// Wraps `inner`; `None` makes the wrapper a pass-through.
    pub fn new(tier: Option<StoreCell>, inner: E) -> Self {
        StoreTier { tier, inner }
    }
}

/// The in-flight handle for a [`StoreTier`] batch: store hits are
/// already in `out`, the misses ride the inner backend's pending
/// handle, and `wait` merges and writes behind.
struct StorePending<'s, E> {
    tier: &'s StoreTier<E>,
    out: Vec<f64>,
    miss_at: Vec<usize>,
    misses: Vec<Genome>,
    pending: Box<dyn PendingScores + 's>,
}

impl<E: Evaluator> PendingScores for StorePending<'_, E> {
    fn wait(self: Box<Self>) -> Vec<f64> {
        let Self {
            tier,
            mut out,
            miss_at,
            misses,
            pending,
        } = *self;
        let scores = pending.wait();
        let (store, fp, writes) = tier.tier.as_ref().expect("pending batch implies a store");
        for (slot, (genome, &fitness)) in miss_at.into_iter().zip(misses.iter().zip(&scores)) {
            out[slot] = fitness;
            // Append failures (disk full, store torn down mid-job)
            // must not fail the evaluation: the score is already in
            // hand, the store just misses one record.
            let appended = store.append(&Record {
                fingerprint: fp.clone(),
                genome: genome.clone(),
                fitness,
            });
            if appended == Ok(true) {
                writes.inc();
            }
        }
        out
    }
}

impl<E: Evaluator> Evaluator for StoreTier<E> {
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        self.begin(genomes).wait()
    }

    fn begin<'s>(&'s self, genomes: &[Genome]) -> Box<dyn PendingScores + 's> {
        let Some((store, fp, _)) = &self.tier else {
            return self.inner.begin(genomes);
        };
        let mut out = vec![f64::NAN; genomes.len()];
        let mut miss_at = Vec::new();
        let mut misses = Vec::new();
        for (i, g) in genomes.iter().enumerate() {
            match store.get(fp.cell_digest, g) {
                Some(fitness) => out[i] = fitness,
                None => {
                    miss_at.push(i);
                    misses.push(g.clone());
                }
            }
        }
        let pending = self.inner.begin(&misses);
        Box::new(StorePending {
            tier: self,
            out,
            miss_at,
            misses,
            pending,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga::LocalEvaluator;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("served-fitstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cell(store: &Arc<Store>, cell_digest: u64) -> StoreCell {
        let fp = Fingerprint {
            cell_digest,
            arch: "x86-p4".into(),
            features: vec![0.0; stored::FEATURES],
            problem: "inline".into(),
        };
        (Arc::clone(store), fp, Arc::default())
    }

    #[test]
    fn pass_through_without_a_store() {
        let tier = StoreTier::new(None, LocalEvaluator::new(|g: &[i64]| g[0] as f64, 1));
        assert_eq!(tier.evaluate(&[vec![7], vec![9]]), vec![7.0, 9.0]);
    }

    #[test]
    fn second_batch_is_served_from_the_store() {
        let dir = tmp_dir("hits");
        let store = Arc::new(Store::open(&dir).unwrap());
        let calls = AtomicUsize::new(0);
        let inner = LocalEvaluator::new(
            |g: &[i64]| {
                calls.fetch_add(1, Ordering::SeqCst);
                g[0] as f64 * 0.5
            },
            1,
        );
        let at = cell(&store, 1);
        let tier = StoreTier::new(Some(at.clone()), inner);
        let first = tier.evaluate(&[vec![4], vec![6]]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let second = tier.evaluate(&[vec![6], vec![4], vec![8]]);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "only the new genome computes"
        );
        assert_eq!(at.2.get(), 3, "one write per fresh record, none per hit");
        assert_eq!(second[0].to_bits(), first[1].to_bits());
        assert_eq!(second[1].to_bits(), first[0].to_bits());
        assert_eq!(second[2], 4.0);
        drop(tier);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_hits_and_misses_match_the_inner_backend_bit_for_bit() {
        let dir = tmp_dir("pipe");
        let store = Arc::new(Store::open(&dir).unwrap());
        let f = |g: &[i64]| g[0] as f64 * 0.25 + 0.1;
        let tier = StoreTier::new(Some(cell(&store, 3)), LocalEvaluator::new(f, 1));
        // First pass populates the store.
        let first = tier.begin(&[vec![1], vec![2], vec![3]]).wait();
        // Second pass mixes hits with a fresh miss, out of order.
        let mixed = [vec![2], vec![9], vec![1]];
        let scores = tier.begin(&mixed).wait();
        for (g, s) in mixed.iter().zip(&scores) {
            assert_eq!(s.to_bits(), f(g).to_bits());
        }
        assert_eq!(
            first[1].to_bits(),
            scores[0].to_bits(),
            "hit must be bit-exact"
        );
        drop(tier);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cells_do_not_cross_contaminate() {
        let dir = tmp_dir("cells");
        let store = Arc::new(Store::open(&dir).unwrap());
        let a = StoreTier::new(
            Some(cell(&store, 1)),
            LocalEvaluator::new(|_: &[i64]| 1.0, 1),
        );
        let b = StoreTier::new(
            Some(cell(&store, 2)),
            LocalEvaluator::new(|_: &[i64]| 2.0, 1),
        );
        assert_eq!(a.evaluate(&[vec![5]]), vec![1.0]);
        assert_eq!(
            b.evaluate(&[vec![5]]),
            vec![2.0],
            "cell 2 must not see cell 1's record for the same genome"
        );
        drop((a, b));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
