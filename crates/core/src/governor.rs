//! The per-query memory governor — graceful degradation under a byte
//! budget.
//!
//! [`ExecOptions::memory_budget`](crate::ExecOptions::memory_budget) arms a
//! [`MemoryGovernor`] for the query. The search charges its state
//! growth (arena bytes, materialized solutions) at
//! the matcher's cooperative checkpoints; the governor compares the running
//! total against the budget and walks a **degradation ladder** instead of
//! failing outright:
//!
//! 1. [`Pressure::ShedResults`] (≥ 50% of budget) — the session's
//!    result cache is cleared and stops storing.
//! 2. [`Pressure::ShedProbeCaches`] (≥ 65%) — the session's seed cache
//!    (`ProcessVertex` probe results) is cleared too (recomputation over
//!    retention).
//! 3. [`Pressure::Abort`] (≥ 100%) — the query returns a partial outcome
//!    with [`QueryStatus::BudgetExceeded`](crate::QueryStatus::BudgetExceeded).
//!
//! The ladder is monotone: once a step is reached it stays reached for the
//! rest of the query, so shed caches do not flap back to life. A spurious
//! allocation-failure signal from the chaos harness
//! ([`amber_util::fault`]) escalates straight to `Abort`, which is how the
//! differential tests exercise the partial-outcome path deterministically.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// The degradation ladder, in escalation order (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Pressure {
    /// Comfortably inside the budget.
    None = 0,
    /// Shed the result cache.
    ShedResults = 1,
    /// Shed the seed (probe) cache too.
    ShedProbeCaches = 2,
    /// Budget exhausted: abort with a partial outcome.
    Abort = 3,
}

impl Pressure {
    fn from_step(step: u8) -> Pressure {
        match step {
            0 => Pressure::None,
            1 => Pressure::ShedResults,
            2 => Pressure::ShedProbeCaches,
            _ => Pressure::Abort,
        }
    }
}

/// Lock-free budget accounting for one query (see module docs). The
/// matcher holds it by shared reference next to the deadline and the
/// cancel token; every field is an atomic, so charging from the candidate
/// loop costs two relaxed RMWs.
#[derive(Debug)]
pub struct MemoryGovernor {
    budget: usize,
    /// Monotone total of charged search-state bytes.
    used: AtomicUsize,
    /// Highest ladder step reached (monotone).
    step: AtomicU8,
}

impl MemoryGovernor {
    /// A governor enforcing `budget` bytes.
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            used: AtomicUsize::new(0),
            step: AtomicU8::new(0),
        }
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes charged so far (high-water; never decreases within a query).
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Charge `delta` freshly-observed bytes and return the (possibly
    /// escalated) pressure. Callers pass the *growth* of their usage
    /// estimate since their last report, so the total is a sum over the
    /// query's component runs.
    pub fn charge(&self, delta: usize) -> Pressure {
        let used = self
            .used
            .fetch_add(delta, Ordering::Relaxed)
            .saturating_add(delta);
        let target = if self.budget == 0 {
            Pressure::Abort
        } else {
            // Integer thresholds: used/budget ≥ 50% / 65% / 100%.
            let b = self.budget as u128;
            let u = used as u128;
            if u >= b {
                Pressure::Abort
            } else if u * 100 >= b * 65 {
                Pressure::ShedProbeCaches
            } else if u * 100 >= b * 50 {
                Pressure::ShedResults
            } else {
                Pressure::None
            }
        };
        self.escalate(target)
    }

    /// Escalate straight to [`Pressure::Abort`] (spurious allocation
    /// failure — real or injected by the chaos harness).
    pub fn exhaust(&self) {
        self.escalate(Pressure::Abort);
    }

    fn escalate(&self, target: Pressure) -> Pressure {
        let prev = self.step.fetch_max(target as u8, Ordering::Relaxed);
        Pressure::from_step((target as u8).max(prev))
    }

    /// The highest ladder step reached so far.
    pub fn pressure(&self) -> Pressure {
        Pressure::from_step(self.step.load(Ordering::Relaxed))
    }

    /// Number of ladder steps taken (0–3), for the session statistics.
    pub fn steps_taken(&self) -> u64 {
        u64::from(self.step.load(Ordering::Relaxed))
    }

    /// Has the ladder reached "shed the result cache"?
    pub fn shed_results(&self) -> bool {
        self.pressure() >= Pressure::ShedResults
    }

    /// Has the ladder reached "shed the seed cache"?
    pub fn shed_probe_caches(&self) -> bool {
        self.pressure() >= Pressure::ShedProbeCaches
    }

    /// Has the budget been exhausted (abort with a partial outcome)?
    pub fn exhausted(&self) -> bool {
        self.pressure() >= Pressure::Abort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_escalates_with_usage() {
        let g = MemoryGovernor::new(1000);
        assert_eq!(g.charge(100), Pressure::None);
        assert_eq!(g.charge(400), Pressure::ShedResults); // 500 ≥ 50%
        assert_eq!(g.charge(150), Pressure::ShedProbeCaches); // 650 ≥ 65%
        assert_eq!(g.charge(150), Pressure::ShedProbeCaches); // 800 < 100%
        assert_eq!(g.charge(200), Pressure::Abort); // 1000 ≥ 100%
        assert_eq!(g.used(), 1000);
        assert_eq!(g.steps_taken(), 3);
    }

    #[test]
    fn ladder_is_monotone() {
        let g = MemoryGovernor::new(100);
        g.charge(90); // ShedProbeCaches
        assert!(g.shed_results() && g.shed_probe_caches());
        // A later small report cannot step back down.
        assert_eq!(g.charge(0), Pressure::ShedProbeCaches);
        assert!(!g.exhausted());
    }

    #[test]
    fn exhaust_jumps_to_abort() {
        let g = MemoryGovernor::new(usize::MAX);
        assert_eq!(g.pressure(), Pressure::None);
        g.exhaust();
        assert!(g.exhausted());
        assert_eq!(g.steps_taken(), 3);
    }

    #[test]
    fn zero_budget_aborts_on_first_charge() {
        let g = MemoryGovernor::new(0);
        assert_eq!(g.charge(0), Pressure::Abort);
    }

    #[test]
    fn pressure_ordering_matches_the_ladder() {
        assert!(Pressure::None < Pressure::ShedResults);
        assert!(Pressure::ShedResults < Pressure::ShedProbeCaches);
        assert!(Pressure::ShedProbeCaches < Pressure::Abort);
    }
}
