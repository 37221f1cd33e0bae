//! Unified telemetry for the AMbER reproduction.
//!
//! Three pieces, all dependency-free:
//!
//! * a process-wide, lock-free-on-the-hot-path **metric registry**
//!   ([`counter`]/[`gauge`]/[`histogram`]) of monotonic counters, gauges
//!   and log₂-bucketed histograms, readable at any time as a consistent
//!   [`MetricsSnapshot`] with Prometheus-text and JSON renderers;
//! * a per-session **flight recorder** ([`FlightRecorder`]) capturing
//!   span timings around the query pipeline stages into a fixed-size
//!   ring buffer, with a slow-query log rendering the span tree;
//! * the **`AMBER_OBS` gate** ([`obs_enabled`]): `AMBER_OBS=off` (or
//!   `0`/`false`) pins the whole subsystem off for the process, so the
//!   only residual cost at instrumentation sites is one relaxed atomic
//!   load and a predictable branch.
//!
//! Handles returned by the registry are `Arc`s: call sites look a metric
//! up once (typically through a `OnceLock`-cached struct of handles) and
//! then mutate it with relaxed atomics only — no locks, no allocation.
//! Registration itself is the cold path and takes a sharded `RwLock`.
//!
//! Numbers discipline: the engine keeps its legacy per-session stat
//! structs (`CacheStats`, `SearchStats`, …) as the hot-path accounting and
//! *delta-flushes* them into this registry once per query, so the
//! registry and the legacy reports are derived from the same counters
//! and can never disagree (pinned by `tests/obs_equivalence.rs`).

mod metrics;
mod trace;

pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsSnapshot, Sample,
};
pub use trace::{FlightRecorder, QueryTrace, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// The AMBER_OBS gate.
// ---------------------------------------------------------------------------

/// Lazily-read `AMBER_OBS` verdict: 0 = unread, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Scoped override (tests / in-process benches): 0 = none, 1 = off, 2 = on.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is enabled for this process. Reads the `AMBER_OBS`
/// environment variable once (any of `off`, `0`, `false` — case
/// insensitive — disables; everything else, including unset, enables)
/// and caches the verdict; after that this is one relaxed atomic load.
#[inline]
pub fn obs_enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => return false,
        2 => return true,
        _ => {}
    }
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("AMBER_OBS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "off" || v == "0" || v == "false")
        }
        Err(_) => true,
    };
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Serializes [`force_enabled`] scopes so concurrent tests/bench cells
/// can't interleave their overrides.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous override when dropped (see [`force_enabled`]).
pub struct ObsGuard {
    _serial: MutexGuard<'static, ()>,
    prev: u8,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        FORCE.store(self.prev, Ordering::Relaxed);
    }
}

/// Force the gate on or off for the lifetime of the returned guard,
/// regardless of `AMBER_OBS`. The environment variable is read once per
/// process, so in-process A/B cells (the `obs_speedup` bench cells) and
/// gate tests use this instead of `set_var`. Scopes are serialized on a
/// global lock, mirroring `amber_util::fault::override_spec`.
pub fn force_enabled(on: bool) -> ObsGuard {
    let serial = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = FORCE.swap(if on { 2 } else { 1 }, Ordering::Relaxed);
    ObsGuard {
        _serial: serial,
        prev,
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;

    #[test]
    fn force_overrides_and_restores() {
        {
            let _off = force_enabled(false);
            assert!(!obs_enabled());
        }
        {
            let _on = force_enabled(true);
            assert!(obs_enabled());
        }
        // With no override the env verdict (default: on, unless the test
        // runner exported AMBER_OBS=off) is back in charge.
        let env_says = std::env::var("AMBER_OBS")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                !(v == "off" || v == "0" || v == "false")
            })
            .unwrap_or(true);
        assert_eq!(obs_enabled(), env_says);
    }
}
