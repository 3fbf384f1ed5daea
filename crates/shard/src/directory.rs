//! The cluster-wide worker directory: who is alive, and which shard
//! does each worker serve.
//!
//! Entries are seeded from `evald` registration and refreshed by
//! heartbeats; liveness is an age check against a TTL, so a crashed
//! worker silently ages out without any explicit deregistration — the
//! same heartbeat-age convention `WorkerPool::sweep_stale` uses on the
//! dispatch side.
//!
//! Shard leases use rendezvous (highest-random-weight) hashing: a
//! worker's home shard is `argmax_s hash(addr, s)`, a pure function of
//! its own address and the shard count. That makes assignment stable
//! under churn — workers joining or leaving never reshuffle the
//! survivors' leases (the property `tests/prop_shard.rs` checks) — while
//! still spreading a fleet roughly evenly across shards.
//!
//! Rebalancing when a shard starves is the *fallback rule*: a shard
//! whose lease set has no live worker borrows the entire live fleet, so
//! every shard can make progress while any worker at all is alive.

use std::collections::HashMap;
use std::sync::Mutex;

/// One worker's standing in the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLease {
    pub addr: String,
    /// The shard this worker's lease points at.
    pub shard: usize,
    /// Micros since the last registration or heartbeat.
    pub age_micros: u64,
    pub alive: bool,
}

/// Shared worker directory; clone the `Arc` and call from any thread.
pub struct Directory {
    shards: usize,
    ttl_micros: u64,
    /// addr -> last_seen (micros on the daemon's clock).
    seen: Mutex<HashMap<String, u64>>,
}

impl Directory {
    pub fn new(shards: usize, ttl_micros: u64) -> Self {
        assert!(shards > 0, "a daemon runs at least one shard");
        Directory {
            shards,
            ttl_micros,
            seen: Mutex::new(HashMap::new()),
        }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Records a registration or heartbeat for `addr` at `now`.
    pub fn observe(&self, addr: &str, now_micros: u64) {
        let mut seen = self.seen.lock().unwrap();
        let entry = seen.entry(addr.to_string()).or_insert(now_micros);
        *entry = (*entry).max(now_micros);
    }

    /// Drops a worker outright (dispatch evicted it as dead).
    pub fn forget(&self, addr: &str) {
        self.seen.lock().unwrap().remove(addr);
    }

    /// The shard `addr` serves in a cluster of `shards` — a pure
    /// function of the address, so churn elsewhere never moves it.
    pub fn lease_of(addr: &str, shards: usize) -> usize {
        assert!(shards > 0);
        (0..shards)
            .max_by_key(|&s| rendezvous_weight(addr, s))
            .unwrap_or(0)
    }

    fn is_live(&self, last_seen: u64, now: u64) -> bool {
        now.saturating_sub(last_seen) <= self.ttl_micros
    }

    /// Live worker addresses, sorted.
    pub fn live(&self, now_micros: u64) -> Vec<String> {
        let seen = self.seen.lock().unwrap();
        let mut out: Vec<String> = seen
            .iter()
            .filter(|(_, &at)| self.is_live(at, now_micros))
            .map(|(addr, _)| addr.clone())
            .collect();
        out.sort();
        out
    }

    /// The live workers shard `shard` may dispatch to: its leaseholders
    /// if any are alive, otherwise the whole live fleet (the
    /// starvation-rebalance fallback).
    pub fn workers_for(&self, shard: usize, now_micros: u64) -> Vec<String> {
        let live = self.live(now_micros);
        let leased: Vec<String> = live
            .iter()
            .filter(|addr| Self::lease_of(addr, self.shards) == shard)
            .cloned()
            .collect();
        if leased.is_empty() {
            live
        } else {
            leased
        }
    }

    /// Whether shard `shard` may use worker `addr` right now.
    pub fn allows(&self, shard: usize, addr: &str, now_micros: u64) -> bool {
        self.workers_for(shard, now_micros)
            .iter()
            .any(|a| a == addr)
    }

    /// Every known worker's lease and age (for the `workers` verb and
    /// metrics).
    pub fn snapshot(&self, now_micros: u64) -> Vec<WorkerLease> {
        let seen = self.seen.lock().unwrap();
        let mut out: Vec<WorkerLease> = seen
            .iter()
            .map(|(addr, &at)| WorkerLease {
                addr: addr.clone(),
                shard: Self::lease_of(addr, self.shards),
                age_micros: now_micros.saturating_sub(at),
                alive: self.is_live(at, now_micros),
            })
            .collect();
        out.sort_by(|a, b| a.addr.cmp(&b.addr));
        out
    }
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

    const TTL: u64 = 10_000_000;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{i}:7000")).collect()
    }

    #[test]
    fn leases_are_stable_under_churn() {
        let shards = 4;
        let fleet = addrs(20);
        let before: Vec<usize> = fleet
            .iter()
            .map(|a| Directory::lease_of(a, shards))
            .collect();
        // Leases depend only on (addr, shards): recomputing after any
        // imaginary join/leave gives the same answer.
        let after: Vec<usize> = fleet
            .iter()
            .map(|a| Directory::lease_of(a, shards))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn a_reasonable_fleet_covers_every_shard() {
        let shards = 8;
        let mut covered = vec![false; shards];
        for a in addrs(100) {
            covered[Directory::lease_of(&a, shards)] = true;
        }
        assert!(
            covered.iter().all(|&c| c),
            "100 workers must cover 8 shards"
        );
    }

    #[test]
    fn liveness_ages_out_and_heartbeats_refresh() {
        let d = Directory::new(2, TTL);
        d.observe("w0:7000", 0);
        assert_eq!(d.live(TTL), vec!["w0:7000".to_string()]);
        assert!(d.live(TTL + 1).is_empty(), "past TTL the worker is dead");
        d.observe("w0:7000", TTL + 1);
        assert_eq!(d.live(TTL + 1).len(), 1, "a heartbeat revives it");
        // Stale observations never move last_seen backwards.
        d.observe("w0:7000", 5);
        assert_eq!(d.live(TTL + 1).len(), 1);
    }

    #[test]
    fn a_starving_shard_borrows_the_whole_fleet() {
        let shards = 4;
        let d = Directory::new(shards, TTL);
        // Find two workers leased to the same shard so another shard
        // is guaranteed empty-ish; simplest: register exactly one
        // worker, so 3 of 4 shards have no leaseholder.
        d.observe("w0:7000", 0);
        let home = Directory::lease_of("w0:7000", shards);
        for s in 0..shards {
            assert_eq!(
                d.workers_for(s, 0),
                vec!["w0:7000".to_string()],
                "shard {s} must fall back to the only live worker"
            );
        }
        assert!(d.allows(home, "w0:7000", 0));
    }

    #[test]
    fn leased_shards_keep_their_own_workers() {
        let shards = 2;
        let d = Directory::new(shards, TTL);
        for a in addrs(16) {
            d.observe(&a, 0);
        }
        for s in 0..shards {
            let ws = d.workers_for(s, 0);
            assert!(!ws.is_empty());
            for w in &ws {
                assert_eq!(Directory::lease_of(w, shards), s);
            }
        }
    }

    #[test]
    fn snapshot_reports_leases_and_ages() {
        let d = Directory::new(2, TTL);
        d.observe("b:7000", 100);
        d.observe("a:7000", 50);
        let snap = d.snapshot(200);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].addr, "a:7000");
        assert_eq!(snap[0].age_micros, 150);
        assert!(snap[0].alive);
        assert_eq!(snap[1].shard, Directory::lease_of("b:7000", 2));
    }

    #[test]
    fn forget_removes_a_worker() {
        let d = Directory::new(2, TTL);
        d.observe("w0:7000", 0);
        d.forget("w0:7000");
        assert!(d.live(0).is_empty());
    }
}
