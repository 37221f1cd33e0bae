//! Server-wide memory governance.
//!
//! The engine already has a *per-query* `MemoryGovernor` with a staged
//! degradation ladder (shed result cache → shed probe caches → abort
//! with `QueryStatus::BudgetExceeded`). What a server
//! needs on top is a *global* bound: one tenant's heavy stream must
//! degrade through that ladder before it can starve its neighbors'
//! allocations. The [`ServerGovernor`] holds the server-wide byte budget
//! and partitions it into per-tenant quotas — an equal share per tenant
//! the server has seen — which each dispatch installs (via
//! `ExecOptions::tighten_memory_budget`) as the budget of that query's
//! own `MemoryGovernor`. Quotas only ever *tighten* a configured
//! per-query budget, never loosen it.
//!
//! The partition is deliberately simple and deterministic: with `T`
//! tenants, every query runs under `total / T` bytes. Quotas shrink as
//! new tenants appear (the peak tenant count is what the report shows)
//! and the degradation the quota causes is visible per tenant in
//! `SearchStats::degradation_steps`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The shared server-wide memory budget, partitioned into per-tenant
/// quotas. One per [`Server`](crate::Server); consulted at every
/// dispatch.
#[derive(Debug)]
pub struct ServerGovernor {
    /// The global byte budget across all tenants.
    total: usize,
    /// High-water tenant count (drives the report; quotas always use the
    /// live count handed in at dispatch).
    peak_tenants: AtomicUsize,
    /// Dispatches whose options were tightened by a quota.
    governed_dispatches: AtomicU64,
}

impl ServerGovernor {
    /// A governor over `total` bytes.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            peak_tenants: AtomicUsize::new(0),
            governed_dispatches: AtomicU64::new(0),
        }
    }

    /// The global byte budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The per-tenant quota with `tenants` tenants known to the server
    /// (equal partition; zero tenants counts as one).
    pub fn quota(&self, tenants: usize) -> usize {
        self.peak_tenants.fetch_max(tenants, Ordering::Relaxed);
        self.total / tenants.max(1)
    }

    /// Record one dispatch executed under a quota.
    pub(crate) fn record_governed(&self) {
        self.governed_dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot for the [`ServeReport`](crate::ServeReport).
    pub fn report(&self) -> GovernorReport {
        let peak = self.peak_tenants.load(Ordering::Relaxed);
        GovernorReport {
            total_budget: self.total,
            peak_tenants: peak,
            quota: self.total / peak.max(1),
            governed_dispatches: self.governed_dispatches.load(Ordering::Relaxed),
        }
    }
}

/// What server-wide governance did, in the [`ServeReport`](crate::ServeReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorReport {
    /// The configured global byte budget.
    pub total_budget: usize,
    /// The most tenants the partition ever divided over.
    pub peak_tenants: usize,
    /// The per-tenant quota at the peak tenant count.
    pub quota: usize,
    /// Dispatches that executed under a quota-tightened budget.
    pub governed_dispatches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_equally_and_tracks_the_peak() {
        let g = ServerGovernor::new(1 << 20);
        assert_eq!(g.quota(0), 1 << 20, "zero tenants counts as one");
        assert_eq!(g.quota(1), 1 << 20);
        assert_eq!(g.quota(4), 1 << 18);
        assert_eq!(g.quota(2), 1 << 19, "live count, not the peak");
        let report = g.report();
        assert_eq!(report.peak_tenants, 4);
        assert_eq!(report.quota, 1 << 18);
        assert_eq!(report.total_budget, 1 << 20);
    }

    #[test]
    fn tiny_budgets_floor_at_zero_bytes() {
        // total < tenants → a zero-byte quota: the per-query governor
        // aborts at its first checkpoint (full ladder), which is the
        // correct degradation, not an error.
        let g = ServerGovernor::new(3);
        assert_eq!(g.quota(4), 0);
    }

    #[test]
    fn counts_governed_dispatches() {
        let g = ServerGovernor::new(1024);
        g.record_governed();
        g.record_governed();
        assert_eq!(g.report().governed_dispatches, 2);
    }
}
