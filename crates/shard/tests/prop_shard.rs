//! Property-based tests for the sharded control plane's three pure
//! cores: the deficit-round-robin scheduler is work-conserving and
//! starves no runnable tenant, the quota accountant's books never go
//! negative or over budget, and worker shard leases are stable under
//! fleet churn.
//!
//! Seeded case loops (`simrng::cases`), so they run in plain
//! `cargo test`.

use std::collections::{BTreeSet, HashMap, HashSet};

use shard::drr::DrrScheduler;
use shard::quota::QuotaAccountant;
use shard::route::{lease_of, shard_of};
use simrng::{cases, string_of, vec_of};

/// Work conservation: as long as any job is queued, dequeue yields one
/// — the scheduler never idles a non-empty queue — and every enqueued
/// job comes out exactly once.
#[test]
fn drr_is_work_conserving() {
    cases("drr_is_work_conserving", |rng| {
        // A backlog: (tenant index, job cost) pairs over a small roster.
        let backlog = vec_of(rng, 1, 119, |r| (r.range_usize(0, 4), 1 + r.below(1999)));
        let mut drr = DrrScheduler::new(1 + rng.below(4095));
        for (i, (tenant, cost)) in backlog.iter().enumerate() {
            drr.enqueue(&format!("t{tenant}"), i as u64, *cost);
        }
        let mut seen = HashSet::new();
        for _ in 0..backlog.len() {
            assert!(!drr.is_empty());
            let (job, _) = drr.dequeue().expect("non-empty scheduler must yield");
            assert!(seen.insert(job), "job {job} dequeued twice");
        }
        assert!(drr.is_empty());
        assert_eq!(drr.dequeue(), None);
        assert_eq!(seen.len(), backlog.len());
    });
}

/// No starvation while runnable: with every tenant holding a backlog,
/// each tenant gets a job within one full round of the roster times the
/// worst cost/quantum ratio — a noisy tenant with huge jobs cannot push
/// a cheap tenant's first job arbitrarily far back.
#[test]
fn drr_starves_no_runnable_tenant() {
    cases("drr_starves_no_runnable_tenant", |rng| {
        let tenants = rng.range_usize(2, 5);
        let per_tenant = rng.range_usize(1, 19);
        let costs = vec_of(rng, 6, 6, |r| 1 + r.below(999));
        let quantum = 100 + rng.below(1900);
        let mut drr = DrrScheduler::new(quantum);
        let mut id = 0u64;
        for t in 0..tenants {
            for _ in 0..per_tenant {
                drr.enqueue(&format!("t{t}"), id, costs[t % costs.len()]);
                id += 1;
            }
        }
        // Every tenant's first job must appear within the first
        // `tenants * ceil(max_cost / quantum)` dequeues: one DRR round
        // accrues `quantum` deficit per tenant, so after that many
        // rounds every tenant has afforded at least one job.
        let max_cost = *costs.iter().take(tenants).max().expect("non-empty");
        let rounds_needed = max_cost.div_ceil(quantum) as usize;
        let window = tenants * rounds_needed.max(1);
        let mut served = HashSet::new();
        for _ in 0..window.min(tenants * per_tenant) {
            let (_, tenant) = drr.dequeue().expect("backlog is non-empty");
            served.insert(tenant);
        }
        for t in 0..tenants {
            assert!(
                served.contains(&format!("t{t}")),
                "tenant t{t} got nothing in the first {window} dequeues (quantum {quantum})"
            );
        }
    });
}

/// The accountant's books: used + reserved never exceeds the quota,
/// nothing underflows, and a full admit/charge/settle lifecycle returns
/// every reservation.
#[test]
fn quota_books_never_go_negative_or_over_budget() {
    cases("quota_books_never_go_negative_or_over_budget", |rng| {
        let quota = 1 + rng.below(99_999);
        let ops = vec_of(rng, 1, 59, |r| (1 + r.below(4999), r.f64()));
        let mut acct = QuotaAccountant::with_quotas(&[("t".to_string(), quota)]);
        let mut live: Vec<u64> = Vec::new(); // outstanding reservations
        for (estimate, spend_frac) in ops {
            match acct.admit("t", estimate) {
                Ok(()) => live.push(estimate),
                Err(reject) => {
                    // A reject must be the budget talking, not noise.
                    let u = acct.usage_of("t").expect("tenant exists");
                    assert!(
                        u.used + u.reserved + estimate > quota,
                        "rejected ({reject}) with {} used + {} reserved + {estimate} <= {quota}",
                        u.used,
                        u.reserved
                    );
                }
            }
            let u = acct.usage_of("t").expect("tenant exists");
            assert!(
                u.used + u.reserved <= quota,
                "{} used + {} reserved over the {quota} budget",
                u.used,
                u.reserved
            );
            // Occasionally run one reservation to completion: charge
            // part of it, settle the rest.
            if spend_frac > 0.5 {
                if let Some(reserved) = live.pop() {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let spent = ((reserved as f64) * spend_frac) as u64;
                    let spent = spent.min(reserved);
                    acct.charge("t", spent);
                    acct.settle("t", reserved - spent);
                }
            }
        }
        // Drain every outstanding reservation untouched.
        for reserved in live.drain(..) {
            acct.settle("t", reserved);
        }
        let u = acct.usage_of("t").expect("tenant exists");
        assert_eq!(
            u.reserved, 0,
            "settling everything must zero the reservations"
        );
        assert!(
            u.used <= quota,
            "{} charged over the {quota} budget",
            u.used
        );
        assert_eq!(u.settled, u.admitted, "every admitted reservation settles");
    });
}

/// Shard routing is total and stable: every id lands in range, and the
/// same id always lands in the same shard.
#[test]
fn shard_routing_is_total_and_stable() {
    cases("shard_routing_is_total_and_stable", |rng| {
        let shards = rng.range_usize(1, 63);
        for id in vec_of(rng, 1, 199, |r| r.next_u64()) {
            let s = shard_of(id, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(id, shards));
        }
    });
}

/// Lease stability under churn: a worker's shard lease depends only on
/// its address and the shard count — adding or removing *other* workers
/// never moves it (rendezvous hashing), so worker churn cannot reshuffle
/// which shard the survivors serve.
#[test]
fn leases_are_stable_under_worker_churn() {
    cases("leases_are_stable_under_worker_churn", |rng| {
        // Distinct `host:port` addresses (the set drops duplicates).
        let fleet: BTreeSet<String> = vec_of(rng, 2, 39, |r| {
            let host = string_of(r, b"abcdefghijklmnopqrstuvwxyz", 2, 8);
            format!("{host}:{}", string_of(r, b"0123456789", 2, 4))
        })
        .into_iter()
        .collect();
        let fleet: Vec<String> = fleet.into_iter().collect();
        let shards = rng.range_usize(1, 15);
        let before: HashMap<&String, usize> =
            fleet.iter().map(|w| (w, lease_of(w, shards))).collect();

        // Churn: drop a few workers from the fleet entirely.
        let dropped: HashSet<usize> = vec_of(rng, 1, 9, |r| r.range_usize(0, fleet.len() - 1))
            .into_iter()
            .collect();
        for (i, worker) in fleet.iter().enumerate() {
            if dropped.contains(&i) {
                continue;
            }
            assert_eq!(
                lease_of(worker, shards),
                before[worker],
                "{worker}'s lease moved when unrelated workers churned"
            );
        }

        // Adding a shard moves a worker only onto the new shard: the
        // other shards' weights are unchanged, so the argmax either stays
        // or is the newcomer.
        for worker in &fleet {
            let grown = lease_of(worker, shards + 1);
            assert!(
                grown == before[worker] || grown == shards,
                "{worker} moved between old shards when one was added"
            );
        }
    });
}
