//! Stopwatch and cooperative deadlines.
//!
//! The paper's evaluation enforces a 60-second wall-clock budget per query and
//! reports the percentage of queries unanswered within it (§7.2). All engines
//! in this workspace poll a shared [`Deadline`] inside their recursion so a
//! blown budget aborts promptly instead of wedging the harness.

use std::time::{Duration, Instant};

/// Simple wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed milliseconds as `f64` (the unit used by the paper's plots).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// An admission-to-answer time budget.
///
/// Unlike [`Deadline`], whose clock starts when execution starts, a
/// `Budget` starts counting the moment a request is *admitted* — queue
/// wait is charged against it. The serving layer sheds requests whose
/// budget expired while queued (typed, before any engine work) and hands
/// only the *remaining* slice to the execution deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    admitted: Instant,
    total: Duration,
}

impl Budget {
    /// Start a `total` budget now (at admission).
    pub fn starting_now(total: Duration) -> Self {
        Self {
            admitted: Instant::now(),
            total,
        }
    }

    /// The full admission-to-answer allowance.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Time already spent since admission (queue wait so far).
    pub fn waited(&self) -> Duration {
        self.admitted.elapsed()
    }

    /// The unspent slice, or `None` once the budget is exhausted. A zero
    /// budget is exhausted from the start.
    pub fn remaining(&self) -> Option<Duration> {
        let waited = self.admitted.elapsed();
        (waited < self.total).then(|| self.total - waited)
    }

    /// Whether the whole allowance has been consumed.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// A cooperative deadline polled from inner loops.
///
/// Polling `Instant::now()` on every recursion step would dominate small
/// queries, so [`Deadline::exceeded`] only consults the clock once every
/// `CHECK_MASK + 1` calls. The counter is a relaxed atomic so polling
/// takes `&self`.
#[derive(Debug)]
pub struct Deadline {
    limit: Option<Instant>,
    calls: std::sync::atomic::AtomicU32,
}

impl Deadline {
    /// Only look at the clock every 1024 polls.
    const CHECK_MASK: u32 = 0x3FF;

    /// A deadline `budget` from now; `None` never expires.
    pub fn new(budget: Option<Duration>) -> Self {
        Self {
            limit: budget.map(|b| Instant::now() + b),
            calls: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// An infinite deadline.
    pub fn unlimited() -> Self {
        Self::new(None)
    }

    /// Cheap cooperative check; `true` once the budget is blown.
    #[inline]
    pub fn exceeded(&self) -> bool {
        let Some(limit) = self.limit else {
            return false;
        };
        let n = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            .wrapping_add(1);
        // Consult the clock on the very first poll (so zero budgets abort
        // immediately) and then once per window.
        if n & Self::CHECK_MASK != 1 {
            return false;
        }
        Instant::now() >= limit
    }

    /// Uncached check, for loop boundaries where precision matters.
    #[inline]
    pub fn exceeded_now(&self) -> bool {
        self.limit.is_some_and(|limit| Instant::now() >= limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed() >= Duration::from_millis(5));
        assert!(sw.elapsed_ms() >= 5.0);
    }

    #[test]
    fn unlimited_deadline_never_fires() {
        let d = Deadline::unlimited();
        for _ in 0..10_000 {
            assert!(!d.exceeded());
        }
        assert!(!d.exceeded_now());
    }

    #[test]
    fn zero_budget_fires_immediately() {
        let d = Deadline::new(Some(Duration::ZERO));
        assert!(d.exceeded_now());
        // The cached variant fires within one check window.
        let mut fired = false;
        for _ in 0..=Deadline::CHECK_MASK + 1 {
            if d.exceeded() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn generous_budget_does_not_fire() {
        let d = Deadline::new(Some(Duration::from_secs(3600)));
        for _ in 0..5000 {
            assert!(!d.exceeded());
        }
    }

    #[test]
    fn zero_admission_budget_is_born_expired() {
        let b = Budget::starting_now(Duration::ZERO);
        assert!(b.expired());
        assert_eq!(b.remaining(), None);
        assert_eq!(b.total(), Duration::ZERO);
    }

    #[test]
    fn generous_admission_budget_has_remaining_slice() {
        let b = Budget::starting_now(Duration::from_secs(3600));
        assert!(!b.expired());
        let remaining = b.remaining().expect("not expired");
        assert!(remaining <= Duration::from_secs(3600));
        assert!(remaining > Duration::from_secs(3599));
        assert!(b.waited() < Duration::from_secs(1));
    }

    #[test]
    fn admission_budget_expires_as_queue_wait_accrues() {
        let b = Budget::starting_now(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.expired());
        assert!(b.waited() >= Duration::from_millis(10));
    }
}
