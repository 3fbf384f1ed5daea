//! Per-tenant eval-budget accounting.
//!
//! Admission control needs an answer *before* a job runs, but a job's
//! true evaluation count is only known after it finishes (caching,
//! early convergence, and race elimination all spend less than the
//! worst case). The accountant therefore works on reservations:
//!
//! * `admit` reserves the job's *estimated* cost — an upper bound on
//!   its evaluations — and rejects when `used + reserved + estimate`
//!   would exceed the tenant's quota;
//! * `charge` moves actual evaluations from reserved to used as the
//!   job runs;
//! * `settle` releases whatever the job reserved but never spent.
//!
//! Because estimates are upper bounds, `used` can never exceed the
//! quota; because every subtraction saturates, no counter ever
//! underflows — the two invariants `tests/prop_shard.rs` hammers.

use std::collections::HashMap;

use crate::{Reject, RejectKind};

/// A tenant's standing: budget, spend, and job counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    pub tenant: String,
    /// Eval budget; `None` means unlimited.
    pub quota: Option<u64>,
    /// Actual evaluations charged so far.
    pub used: u64,
    /// Outstanding admission reservations not yet charged or settled.
    pub reserved: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Submissions rejected over quota.
    pub rejected: u64,
    /// Jobs settled (finished, failed, or canceled).
    pub settled: u64,
}

impl TenantUsage {
    fn new(tenant: &str, quota: Option<u64>) -> Self {
        TenantUsage {
            tenant: tenant.to_string(),
            quota,
            used: 0,
            reserved: 0,
            admitted: 0,
            rejected: 0,
            settled: 0,
        }
    }
}

/// The daemon-wide quota ledger. Not thread-safe; held under the
/// daemon's job-table lock.
pub struct QuotaAccountant {
    accounts: HashMap<String, TenantUsage>,
}

impl QuotaAccountant {
    pub fn new() -> Self {
        QuotaAccountant {
            accounts: HashMap::new(),
        }
    }

    /// Builds a ledger with quotas preset for the named tenants; every
    /// other tenant is unlimited.
    pub fn with_quotas(quotas: &[(String, u64)]) -> Self {
        let mut a = QuotaAccountant::new();
        for (tenant, evals) in quotas {
            a.set_quota(tenant, Some(*evals));
        }
        a
    }

    pub fn set_quota(&mut self, tenant: &str, quota: Option<u64>) {
        self.account(tenant).quota = quota;
    }

    fn account(&mut self, tenant: &str) -> &mut TenantUsage {
        self.accounts
            .entry(tenant.to_string())
            .or_insert_with(|| TenantUsage::new(tenant, None))
    }

    /// Admits a job with an estimated eval cost, reserving the budget,
    /// or rejects when the tenant's quota cannot cover it.
    pub fn admit(&mut self, tenant: &str, estimate: u64) -> Result<(), Reject> {
        let acct = self.account(tenant);
        if let Some(quota) = acct.quota {
            let committed = acct.used.saturating_add(acct.reserved);
            if committed.saturating_add(estimate) > quota {
                acct.rejected = acct.rejected.saturating_add(1);
                return Err(Reject::new(
                    RejectKind::Quota,
                    format!(
                        "tenant '{tenant}' over eval quota: {committed} of {quota} committed, \
                         job needs {estimate}"
                    ),
                ));
            }
        }
        acct.reserved = acct.reserved.saturating_add(estimate);
        acct.admitted = acct.admitted.saturating_add(1);
        Ok(())
    }

    /// Charges actual evaluations against the tenant's reservation.
    pub fn charge(&mut self, tenant: &str, evals: u64) {
        let acct = self.account(tenant);
        acct.used = acct.used.saturating_add(evals);
        acct.reserved = acct.reserved.saturating_sub(evals);
    }

    /// Releases the unspent part of a job's reservation when it leaves
    /// the system (done, failed, or canceled).
    pub fn settle(&mut self, tenant: &str, unspent: u64) {
        let acct = self.account(tenant);
        acct.reserved = acct.reserved.saturating_sub(unspent);
        acct.settled = acct.settled.saturating_add(1);
    }

    /// All tenant standings, sorted by tenant name.
    pub fn usage(&self) -> Vec<TenantUsage> {
        let mut rows: Vec<TenantUsage> = self.accounts.values().cloned().collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }

    pub fn usage_of(&self, tenant: &str) -> Option<&TenantUsage> {
        self.accounts.get(tenant)
    }
}

impl Default for QuotaAccountant {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tenants_always_admit() {
        let mut a = QuotaAccountant::new();
        for _ in 0..100 {
            a.admit("free", u64::MAX / 200).unwrap();
        }
        assert_eq!(a.usage_of("free").unwrap().admitted, 100);
    }

    #[test]
    fn quota_rejects_when_committed_budget_would_overflow() {
        let mut a = QuotaAccountant::with_quotas(&[("t".to_string(), 100)]);
        a.admit("t", 60).unwrap();
        let err = a.admit("t", 60).unwrap_err();
        assert_eq!(err.kind, RejectKind::Quota);
        let u = a.usage_of("t").unwrap();
        assert_eq!((u.admitted, u.rejected, u.reserved), (1, 1, 60));
        // A job within the remaining budget still fits.
        a.admit("t", 40).unwrap();
    }

    #[test]
    fn charging_moves_reservation_to_used_and_settle_releases_the_rest() {
        let mut a = QuotaAccountant::with_quotas(&[("t".to_string(), 100)]);
        a.admit("t", 50).unwrap();
        a.charge("t", 20);
        a.charge("t", 10);
        a.settle("t", 20); // spent 30 of the 50 reserved
        let u = a.usage_of("t").unwrap();
        assert_eq!((u.used, u.reserved, u.settled), (30, 0, 1));
        // The freed budget is available again.
        a.admit("t", 70).unwrap();
        assert!(a.admit("t", 1).is_err());
    }

    #[test]
    fn used_never_exceeds_quota_when_estimates_are_upper_bounds() {
        let mut a = QuotaAccountant::with_quotas(&[("t".to_string(), 90)]);
        let mut used_total = 0u64;
        for job in 0..20u64 {
            let estimate = 30;
            if a.admit("t", estimate).is_err() {
                continue;
            }
            let actual = (job % 4) * 10; // always <= estimate
            a.charge("t", actual);
            a.settle("t", estimate - actual);
            used_total += actual;
            assert!(a.usage_of("t").unwrap().used <= 90);
            assert_eq!(a.usage_of("t").unwrap().used, used_total);
        }
    }

    #[test]
    fn accounting_saturates_instead_of_underflowing() {
        let mut a = QuotaAccountant::new();
        a.charge("t", 5); // charge with no reservation at all
        a.settle("t", 10);
        let u = a.usage_of("t").unwrap();
        assert_eq!((u.used, u.reserved), (5, 0));
    }
}
