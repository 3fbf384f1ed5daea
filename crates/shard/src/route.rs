//! The two placement functions: job→shard and worker→shard.
//!
//! Placement must survive daemon restarts with nothing but the run
//! directory to go on, so a job's shard is a pure function of the job
//! id and the shard count: recovery re-routes every job to the shard
//! that already owns its checkpoints. Job ids are assigned
//! sequentially, so plain modulo is also a perfect round-robin spread —
//! no hashing needed.
//!
//! A worker's shard lease is rendezvous (highest-random-weight) hashing:
//! `argmax_s hash(addr, s)`, a pure function of its own address and the
//! shard count. Workers joining or leaving never move the survivors'
//! leases, and a fleet still spreads roughly evenly across shards.
//! Which workers are alive is not this module's question: dispatch
//! applies [`lease_of`] to its pool's live set each round.

/// The shard that owns `job_id` in a daemon running `shards` shards.
pub fn shard_of(job_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "a daemon runs at least one shard");
    (job_id % shards as u64) as usize
}

/// The shard the worker at `addr` serves in a daemon running `shards`
/// shards. With one shard every worker leases shard 0.
pub fn lease_of(addr: &str, shards: usize) -> usize {
    assert!(shards > 0, "a daemon runs at least one shard");
    (0..shards)
        .max_by_key(|&s| rendezvous_weight(addr, s))
        .unwrap_or(0)
}

/// FNV-1a over the address bytes and the shard index, mixed once more
/// so nearby shard indices decorrelate.
fn rendezvous_weight(addr: &str, shard: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= shard as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    // splitmix64 finalizer
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in 1..9usize {
            for id in 0..100u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "placement must be pure");
            }
        }
    }

    #[test]
    fn sequential_ids_spread_evenly() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for id in 0..100u64 {
            counts[shard_of(id, shards)] += 1;
        }
        assert_eq!(counts, vec![25; 4]);
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{i}:7000")).collect()
    }

    #[test]
    fn leases_are_stable_under_churn() {
        // A lease depends only on (addr, shards): a worker's shard is the
        // same whether it is computed over the whole fleet or after half
        // of it left.
        let fleet = addrs(20);
        let before: Vec<usize> = fleet.iter().map(|a| lease_of(a, 4)).collect();
        for (i, a) in fleet.iter().enumerate().step_by(2) {
            assert_eq!(lease_of(a, 4), before[i]);
        }
        assert!(fleet.iter().all(|a| lease_of(a, 1) == 0));
    }

    #[test]
    fn a_reasonable_fleet_covers_every_shard() {
        let shards = 8;
        let mut covered = vec![false; shards];
        for a in addrs(100) {
            covered[lease_of(&a, shards)] = true;
        }
        assert!(
            covered.iter().all(|&c| c),
            "100 workers must cover 8 shards"
        );
    }
}
