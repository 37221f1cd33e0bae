//! Per-tenant circuit breakers.
//!
//! A tenant whose requests keep failing *hard* — quarantined panics
//! (`EngineError::Internal`) or timeouts — should stop consuming worker time
//! that healthy tenants could use. The breaker watches each tenant's
//! completion stream and, after [`BreakerConfig::failure_threshold`]
//! *consecutive* hard failures, trips into fast-fail: further submissions
//! are rejected at admission with the typed
//! [`amber::Error::CircuitOpen`] (carrying
//! the trip cause and a retry-after hint) without queueing anything.
//!
//! State machine:
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ────────────────────────────────▶ Open (fast-fail, cooldown)
//!     ▲                                        │ cooldown elapsed:
//!     │ probe completes                        ▼ next submit admitted
//!     │ successfully                        HalfOpen (ONE probe in flight,
//!     └──────────────────────────────────── everyone else fast-fails)
//!                  probe fails ───▶ back to Open, fresh cooldown
//! ```
//!
//! Only *hard* failures move the machine: `Internal` errors and
//! `TimedOut` outcomes. `Cancelled` and `BudgetExceeded` partials are the
//! server's own throttling (revocation, memory governance) — they neither
//! trip nor close a breaker. Any successful completion closes it.

use amber::TripCause;
use std::time::{Duration, Instant};

/// Breaker knobs ([`ServeConfig::breaker`](crate::ServeConfig::breaker);
/// `None` disables breakers entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive hard failures (quarantined panics or timeouts) that
    /// trip the tenant's breaker. Clamped to at least 1.
    pub failure_threshold: u32,
    /// How long a tripped breaker fast-fails before admitting a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    /// Trip after 5 consecutive hard failures; probe after 1 s.
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
        }
    }
}

impl BreakerConfig {
    fn threshold(&self) -> u32 {
        self.failure_threshold.max(1)
    }
}

/// Observable breaker state, reported per tenant in the
/// [`ServeReport`](crate::ServeReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: everything is admitted.
    Closed,
    /// Tripped: submissions fast-fail until the cooldown elapses.
    Open,
    /// Probing: one request is in flight; everyone else fast-fails.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Per-tenant breaker counters in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerReport {
    /// Times this tenant's breaker tripped (Closed/HalfOpen → Open).
    pub trips: u64,
    /// Submissions rejected with `CircuitOpen`.
    pub fast_fails: u64,
    /// The state at report time.
    pub state: BreakerState,
}

impl Default for BreakerReport {
    fn default() -> Self {
        Self {
            trips: 0,
            fast_fails: 0,
            state: BreakerState::Closed,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed {
        consecutive: u32,
    },
    Open {
        /// When the cooldown elapses and a probe may be admitted.
        until: Instant,
        cause: TripCause,
    },
    HalfOpen {
        cause: TripCause,
    },
}

/// What the breaker says about one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Admit normally.
    Admit,
    /// Admit as the single half-open probe.
    Probe,
    /// Reject with `CircuitOpen { cause, retry_after }`.
    FastFail {
        cause: TripCause,
        retry_after: Duration,
    },
}

/// One tenant's breaker (owned by the tenant's dispatch state, mutated
/// under the serving-layer lock).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Breaker {
    state: State,
    trips: u64,
    fast_fails: u64,
}

impl Default for Breaker {
    fn default() -> Self {
        Self {
            state: State::Closed { consecutive: 0 },
            trips: 0,
            fast_fails: 0,
        }
    }
}

impl Breaker {
    /// Admission decision for one submission at `now`.
    pub(crate) fn admit(&mut self, now: Instant) -> Admission {
        match self.state {
            State::Closed { .. } => Admission::Admit,
            State::Open { until, cause } => {
                if now >= until {
                    self.state = State::HalfOpen { cause };
                    Admission::Probe
                } else {
                    self.fast_fails += 1;
                    Admission::FastFail {
                        cause,
                        retry_after: until - now,
                    }
                }
            }
            State::HalfOpen { cause } => {
                // One probe at a time; the next retry lands after the
                // probe resolved, so hint "almost immediately".
                self.fast_fails += 1;
                Admission::FastFail {
                    cause,
                    retry_after: Duration::ZERO,
                }
            }
        }
    }

    /// A request of this tenant completed successfully: close (and reset
    /// the consecutive-failure run). In half-open state this is the probe
    /// succeeding — or a pre-trip straggler proving the tenant healthy —
    /// either way the breaker closes.
    pub(crate) fn record_success(&mut self) {
        self.state = State::Closed { consecutive: 0 };
    }

    /// A request of this tenant failed hard (quarantined panic or
    /// timeout). Returns `true` if this failure tripped the breaker open
    /// (the caller feeds the live trip counter from it).
    pub(crate) fn record_failure(
        &mut self,
        config: &BreakerConfig,
        cause: TripCause,
        now: Instant,
    ) -> bool {
        match &mut self.state {
            State::Closed { consecutive } => {
                *consecutive += 1;
                if *consecutive >= config.threshold() {
                    self.trips += 1;
                    self.state = State::Open {
                        until: now + config.cooldown,
                        cause,
                    };
                    return true;
                }
                false
            }
            State::HalfOpen { .. } => {
                // The probe (or a straggler) failed: re-open with a fresh
                // cooldown.
                self.trips += 1;
                self.state = State::Open {
                    until: now + config.cooldown,
                    cause,
                };
                true
            }
            // A straggler failing while already open changes nothing; the
            // cooldown keeps its original schedule.
            State::Open { .. } => false,
        }
    }

    /// The half-open probe never executed (deadline-shed or drained):
    /// return to open with the cooldown already elapsed, so the next
    /// submission becomes a fresh probe.
    pub(crate) fn probe_aborted(&mut self, now: Instant) {
        if let State::HalfOpen { cause } = self.state {
            self.state = State::Open { until: now, cause };
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    pub(crate) fn report(&self) -> BreakerReport {
        BreakerReport {
            trips: self.trips,
            fast_fails: self.fast_fails,
            state: self.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(threshold: u32, cooldown: Duration) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            cooldown,
        }
    }

    #[test]
    fn trips_only_on_consecutive_failures() {
        let cfg = config(3, Duration::from_secs(60));
        let mut b = Breaker::default();
        let t = Instant::now();
        b.record_failure(&cfg, TripCause::TimedOut, t);
        b.record_failure(&cfg, TripCause::TimedOut, t);
        b.record_success(); // the run resets
        b.record_failure(&cfg, TripCause::TimedOut, t);
        b.record_failure(&cfg, TripCause::TimedOut, t);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 0);
        b.record_failure(&cfg, TripCause::Internal, t);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn open_fast_fails_until_cooldown_then_probes_one_at_a_time() {
        let cfg = config(1, Duration::from_secs(10));
        let mut b = Breaker::default();
        let t0 = Instant::now();
        b.record_failure(&cfg, TripCause::Internal, t0);
        // Inside the cooldown: fast-fail with the remaining wait.
        match b.admit(t0 + Duration::from_secs(4)) {
            Admission::FastFail { cause, retry_after } => {
                assert_eq!(cause, TripCause::Internal);
                assert_eq!(retry_after, Duration::from_secs(6));
            }
            other => panic!("expected fast-fail, got {other:?}"),
        }
        assert_eq!(b.fast_fails, 1);
        // Cooldown elapsed: exactly one probe, everyone behind it fails.
        assert_eq!(b.admit(t0 + Duration::from_secs(10)), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(matches!(
            b.admit(t0 + Duration::from_secs(10)),
            Admission::FastFail { .. }
        ));
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let cfg = config(1, Duration::ZERO);
        let mut b = Breaker::default();
        let t = Instant::now();
        b.record_failure(&cfg, TripCause::TimedOut, t);
        assert_eq!(b.admit(t), Admission::Probe, "zero cooldown probes at once");
        b.record_failure(&cfg, TripCause::TimedOut, t);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2, "a failed probe is a fresh trip");
        assert_eq!(b.admit(t), Admission::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(t), Admission::Admit);
    }

    #[test]
    fn aborted_probe_reopens_for_an_immediate_retry() {
        let cfg = config(1, Duration::from_secs(10));
        let mut b = Breaker::default();
        let t = Instant::now();
        b.record_failure(&cfg, TripCause::Internal, t);
        assert_eq!(b.admit(t + Duration::from_secs(10)), Admission::Probe);
        b.probe_aborted(t + Duration::from_secs(11));
        assert_eq!(b.state(), BreakerState::Open);
        // No second cooldown: the next submit re-probes.
        assert_eq!(b.admit(t + Duration::from_secs(11)), Admission::Probe);
    }

    #[test]
    fn zero_threshold_behaves_like_one() {
        let cfg = config(0, Duration::from_secs(1));
        let mut b = Breaker::default();
        b.record_failure(&cfg, TripCause::Internal, Instant::now());
        assert_eq!(b.state(), BreakerState::Open);
    }
}
