//! Deficit-round-robin job scheduling across tenants.
//!
//! One `DrrScheduler` fronts each shard. Every tenant with queued jobs
//! owns a FIFO and a deficit counter; jobs carry a *cost* (the
//! estimated evaluation budget, see `quota`). On each turn of the
//! round-robin pointer a tenant's deficit grows by the quantum, and its
//! head job runs once the deficit covers the job's cost — so over any
//! window, tenants consume eval budget at equal rates no matter how
//! lopsided their job sizes are. Classic DRR (Shreedhar & Varghese)
//! with two conventions:
//!
//! * one job is served per `dequeue` call (the daemon claims jobs one
//!   runner at a time), carrying leftover deficit to the next rotation;
//! * a tenant's deficit resets when its queue drains, so an idle tenant
//!   cannot hoard credit and burst past active ones later.
//!
//! The scheduler is work-conserving: `dequeue` on a non-empty scheduler
//! always returns a job — deficits grow every rotation, so some head
//! job always becomes affordable within `ceil(max_cost / quantum)`
//! rotations.

use std::collections::VecDeque;

/// Default deficit quantum in eval-budget units. Roughly one small
/// job's worth (e.g. pop 16 × 32 generations), so small jobs flow
/// freely while a tenant queueing huge jobs waits a few rotations.
pub const DEFAULT_QUANTUM: u64 = 512;

struct Entry {
    job: u64,
    cost: u64,
}

struct TenantQueue {
    tenant: String,
    deficit: u64,
    jobs: VecDeque<Entry>,
}

/// A deficit-round-robin scheduler over tenant FIFOs. Not thread-safe;
/// the daemon holds it under its job-table lock.
pub struct DrrScheduler {
    quantum: u64,
    /// Only tenants with queued jobs; drained tenants are dropped so
    /// memory stays bounded by the backlog, not by tenant history.
    queues: Vec<TenantQueue>,
    /// Round-robin pointer into `queues`.
    cursor: usize,
}

impl DrrScheduler {
    pub fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            queues: Vec::new(),
            cursor: 0,
        }
    }

    /// Queued jobs across all tenants.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.jobs.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Queue depth per tenant, in rotation order (for gauges).
    pub fn depths(&self) -> Vec<(String, usize)> {
        self.queues
            .iter()
            .map(|q| (q.tenant.clone(), q.jobs.len()))
            .collect()
    }

    /// Appends a job to its tenant's FIFO. New tenants join the
    /// rotation with zero deficit.
    pub fn enqueue(&mut self, tenant: &str, job: u64, cost: u64) {
        match self.queues.iter_mut().find(|q| q.tenant == tenant) {
            Some(q) => q.jobs.push_back(Entry { job, cost }),
            None => self.queues.push(TenantQueue {
                tenant: tenant.to_string(),
                deficit: 0,
                jobs: VecDeque::from([Entry { job, cost }]),
            }),
        }
    }

    /// Serves the next job under DRR, or `None` when nothing is queued.
    pub fn dequeue(&mut self) -> Option<(u64, String)> {
        if self.queues.is_empty() {
            return None;
        }
        loop {
            self.cursor %= self.queues.len();
            let q = &mut self.queues[self.cursor];
            q.deficit = q.deficit.saturating_add(self.quantum);
            let affordable = q.jobs.front().map(|e| e.cost <= q.deficit).unwrap_or(false);
            if affordable {
                let entry = q.jobs.pop_front().expect("front checked above");
                q.deficit -= entry.cost;
                let tenant = q.tenant.clone();
                if q.jobs.is_empty() {
                    self.drop_queue(self.cursor);
                } else {
                    self.cursor = (self.cursor + 1) % self.queues.len();
                }
                return Some((entry.job, tenant));
            }
            self.cursor = (self.cursor + 1) % self.queues.len();
        }
    }

    /// Removes a queued job (cancellation). Returns whether it was
    /// found.
    pub fn remove(&mut self, job: u64) -> bool {
        for i in 0..self.queues.len() {
            if let Some(pos) = self.queues[i].jobs.iter().position(|e| e.job == job) {
                self.queues[i].jobs.remove(pos);
                if self.queues[i].jobs.is_empty() {
                    self.drop_queue(i);
                }
                return true;
            }
        }
        false
    }

    /// Drops a drained tenant queue, keeping the cursor pointing at the
    /// same next-up tenant. Deficit is discarded (reset-on-empty).
    fn drop_queue(&mut self, i: usize) {
        self.queues.remove(i);
        if i < self.cursor {
            self.cursor -= 1;
        }
        if self.queues.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.queues.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut DrrScheduler) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        while let Some(x) = s.dequeue() {
            out.push(x);
        }
        out
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = DrrScheduler::new(4);
        for j in 0..5 {
            s.enqueue("a", j, 100);
        }
        let order: Vec<u64> = drain(&mut s).into_iter().map(|(j, _)| j).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn equal_costs_interleave_round_robin() {
        let mut s = DrrScheduler::new(10);
        for j in 0..3 {
            s.enqueue("a", j, 10);
            s.enqueue("b", 100 + j, 10);
        }
        let tenants: Vec<String> = drain(&mut s).into_iter().map(|(_, t)| t).collect();
        assert_eq!(tenants, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn big_jobs_do_not_crowd_out_small_ones() {
        // Tenant "big" queues jobs of cost 100, "small" of cost 10.
        // With quantum 10, "small" should serve ~10 jobs per "big" job:
        // equal eval budget, not equal job count.
        let mut s = DrrScheduler::new(10);
        for j in 0..3 {
            s.enqueue("big", j, 100);
        }
        for j in 0..30 {
            s.enqueue("small", 1000 + j, 10);
        }
        let order = drain(&mut s);
        assert_eq!(order.len(), 33);
        // Count small jobs served before the first big job.
        let first_big = order.iter().position(|(_, t)| t == "big").unwrap();
        let small_before = order[..first_big]
            .iter()
            .filter(|(_, t)| t == "small")
            .count();
        assert!(
            (5..=15).contains(&small_before),
            "expected ~10 small jobs per big job, got {small_before} before the first big"
        );
    }

    #[test]
    fn work_conserving_even_when_costs_dwarf_the_quantum() {
        let mut s = DrrScheduler::new(1);
        s.enqueue("a", 1, 10_000);
        assert_eq!(s.dequeue(), Some((1, "a".to_string())));
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn drained_tenants_lose_their_deficit() {
        let mut s = DrrScheduler::new(10);
        s.enqueue("a", 1, 10);
        assert!(s.dequeue().is_some());
        // "a" drained; it must not have banked credit while away.
        for j in 0..4 {
            s.enqueue("b", 10 + j, 10);
        }
        s.enqueue("a", 2, 10);
        let order: Vec<String> = drain(&mut s).into_iter().map(|(_, t)| t).collect();
        // "a" is served within the first rotation but cannot preempt
        // more than its fair share.
        assert_eq!(order.iter().filter(|t| *t == "a").count(), 1);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn remove_cancels_a_queued_job_and_prunes_the_tenant() {
        let mut s = DrrScheduler::new(10);
        s.enqueue("a", 1, 10);
        s.enqueue("a", 2, 10);
        s.enqueue("b", 3, 10);
        assert!(s.remove(2));
        assert!(!s.remove(2), "double-remove must report absence");
        assert!(s.remove(3), "removing b's only job prunes the tenant");
        assert_eq!(s.depths(), vec![("a".to_string(), 1)]);
        assert_eq!(drain(&mut s), vec![(1, "a".to_string())]);
    }

    #[test]
    fn every_tenant_with_work_is_served_within_a_bounded_window() {
        // The no-starvation bound `tests/prop_shard.rs` stresses harder:
        // with T tenants and max cost C, any tenant with queued work is
        // served within T * (C/quantum + 2) dequeues.
        let quantum = 5;
        let mut s = DrrScheduler::new(quantum);
        let costs = [3u64, 40, 17, 8];
        for (t, &cost) in costs.iter().enumerate() {
            for j in 0..20 {
                s.enqueue(&format!("t{t}"), (t as u64) * 1000 + j, cost);
            }
        }
        let bound = costs.len() * (40 / quantum as usize + 2);
        let mut since_served = vec![0usize; costs.len()];
        while let Some((_, tenant)) = s.dequeue() {
            let idx: usize = tenant[1..].parse().unwrap();
            for (t, n) in since_served.iter_mut().enumerate() {
                let still_queued = s.depths().iter().any(|(name, _)| name == &format!("t{t}"));
                if still_queued {
                    *n += 1;
                    assert!(*n <= bound, "tenant t{t} starved for {n} dequeues");
                }
            }
            since_served[idx] = 0;
        }
    }
}
