//! Delta-flush bridge from the session's legacy stat structs into the
//! process-wide `amber_obs` registry.
//!
//! Design: the hot path keeps accounting in the plain-`u64` session
//! structs it always used ([`CacheStats`], [`SearchStats`], …) — zero new
//! atomics per node or probe. Once per query,
//! [`QuerySession::end_query`](crate::QuerySession) computes the
//! query's `since`-deltas and adds them to registry counters here.
//! Because the registry is *populated from* the legacy structs, the two
//! views are derived from the same counters and can never disagree;
//! `tests/obs_equivalence.rs` pins the exact agreement.
//!
//! Handles are resolved once per process (`OnceLock`) so a flush is a
//! couple dozen relaxed `fetch_add`s — invisible next to even a
//! result-cache-hit query (docs/observability.md records the measured
//! overhead).
//!
//! The cache gauges (`amber_cache_entries`, `amber_cache_bytes`) are sums
//! over live sessions: each session remembers what it last added
//! ([`GaugedCaches`]), adds `current − last` at every flush and takes its
//! share back out when it drops.

use crate::plan::PlanCacheStats;
use crate::result::QueryStatus;
use crate::seeds::CacheStats;
use crate::session::SearchStats;
use amber_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One cache layer's registry series (`seed`, `plan`, `result`).
struct CacheFamily {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    bypasses: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

impl CacheFamily {
    fn new(layer: &'static str) -> Self {
        let l = [("cache", layer)];
        Self {
            hits: amber_obs::counter("amber_cache_hits_total", &l),
            misses: amber_obs::counter("amber_cache_misses_total", &l),
            bypasses: amber_obs::counter("amber_cache_bypasses_total", &l),
            evictions: amber_obs::counter("amber_cache_evictions_total", &l),
            entries: amber_obs::gauge("amber_cache_entries", &l),
            bytes: amber_obs::gauge("amber_cache_bytes", &l),
        }
    }

    /// Add a `since`-delta's counters, and move the gauges by how far the
    /// session's *current* state (what [`CacheStats::since`] leaves in
    /// `entries`/`result_bytes`) is from what it last gauged.
    fn flush(&self, delta: &CacheStats, gauged: &mut Gauged) {
        self.hits.add(delta.hits);
        self.misses.add(delta.misses);
        self.bypasses.add(delta.bypasses);
        self.evictions.add(delta.evictions);
        let now = Gauged {
            entries: delta.entries as i64,
            bytes: delta.result_bytes as i64,
        };
        self.entries.add(now.entries - gauged.entries);
        self.bytes.add(now.bytes - gauged.bytes);
        *gauged = now;
    }

    /// Take a dropped session's share back out of the gauges.
    fn release(&self, gauged: &Gauged) {
        self.entries.add(-gauged.entries);
        self.bytes.add(-gauged.bytes);
    }
}

/// One cache layer's share of the gauges, as one session last added it.
#[derive(Debug, Default)]
struct Gauged {
    entries: i64,
    bytes: i64,
}

/// What one session has added to the cache gauges, per layer. Dropping it
/// (with its session) subtracts that share, so the gauges sum over live
/// sessions.
#[derive(Debug, Default)]
pub(crate) struct GaugedCaches {
    seed: Gauged,
    plan: Gauged,
    result: Gauged,
}

impl Drop for GaugedCaches {
    fn drop(&mut self) {
        let m = metrics();
        m.seed.release(&self.seed);
        m.plan.release(&self.plan);
        m.result.release(&self.result);
    }
}

/// Every engine-layer registry handle, resolved once.
struct EngineMetrics {
    completed: Arc<Counter>,
    timed_out: Arc<Counter>,
    cancelled: Arc<Counter>,
    budget_exceeded: Arc<Counter>,
    error: Arc<Counter>,
    latency_us: Arc<Histogram>,
    seed: CacheFamily,
    plan: CacheFamily,
    result: CacheFamily,
    hit_copied_bytes: Arc<Counter>,
    search_nodes: Arc<Counter>,
    seed_candidates: Arc<Histogram>,
    trapped_panics: Arc<Counter>,
    cancellations: Arc<Counter>,
    degradation_steps: Arc<Counter>,
    result_body_bytes: Arc<Gauge>,
}

fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        completed: amber_obs::counter("amber_queries_total", &[("status", "completed")]),
        timed_out: amber_obs::counter("amber_queries_total", &[("status", "timed_out")]),
        cancelled: amber_obs::counter("amber_queries_total", &[("status", "cancelled")]),
        budget_exceeded: amber_obs::counter(
            "amber_queries_total",
            &[("status", "budget_exceeded")],
        ),
        error: amber_obs::counter("amber_queries_total", &[("status", "error")]),
        latency_us: amber_obs::histogram("amber_query_latency_us", &[]),
        seed: CacheFamily::new("seed"),
        plan: CacheFamily::new("plan"),
        result: CacheFamily::new("result"),
        hit_copied_bytes: amber_obs::counter("amber_result_hit_copied_bytes_total", &[]),
        search_nodes: amber_obs::counter("amber_search_nodes_total", &[]),
        seed_candidates: amber_obs::histogram("amber_seed_candidates", &[]),
        trapped_panics: amber_obs::counter("amber_query_trapped_panics_total", &[]),
        cancellations: amber_obs::counter("amber_query_cancellations_total", &[]),
        degradation_steps: amber_obs::counter("amber_query_degradation_steps_total", &[]),
        result_body_bytes: amber_obs::gauge("amber_result_body_bytes", &[]),
    })
}

/// The status label a query outcome flushes under (also the flight
/// recorder's final status string).
pub(crate) fn status_label(status: Result<QueryStatus, ()>) -> &'static str {
    match status {
        Ok(QueryStatus::Completed) => "completed",
        Ok(QueryStatus::TimedOut) => "timed_out",
        Ok(QueryStatus::Cancelled) => "cancelled",
        Ok(QueryStatus::BudgetExceeded) => "budget_exceeded",
        Err(()) => "error",
    }
}

/// Baseline captured at `begin_query`; the flush at `end_query` adds
/// `current − baseline` to the registry.
#[derive(Debug, Default)]
pub(crate) struct ObsBaseline {
    pub(crate) seeds: CacheStats,
    pub(crate) plans: PlanCacheStats,
    pub(crate) search: SearchStats,
}

/// Add one finished query's deltas to the registry.
pub(crate) fn flush_query(
    status: &'static str,
    elapsed: Duration,
    seeds: &CacheStats,
    plans: &PlanCacheStats,
    search: &SearchStats,
    gauged: &mut GaugedCaches,
) {
    let m = metrics();
    let status_counter = match status {
        "completed" => &m.completed,
        "timed_out" => &m.timed_out,
        "cancelled" => &m.cancelled,
        "budget_exceeded" => &m.budget_exceeded,
        _ => &m.error,
    };
    status_counter.inc();
    m.latency_us.observe(elapsed.as_micros() as u64);
    m.seed.flush(seeds, &mut gauged.seed);
    m.plan.flush(&plans.plans, &mut gauged.plan);
    m.result.flush(&plans.results, &mut gauged.result);
    m.hit_copied_bytes.add(plans.result_hit_copied_bytes);
    m.search_nodes.add(search.nodes);
    m.trapped_panics.add(search.trapped_panics);
    m.cancellations.add(search.cancellations);
    m.degradation_steps.add(search.degradation_steps);
}

/// One component run's `|CandInit|` — the root fan-out of the search whose
/// visited nodes land in `amber_search_nodes_total` (once per component
/// run, never per candidate).
pub(crate) fn note_seed_candidates(count: usize) {
    metrics().seed_candidates.observe(count as u64);
}

/// Move the process gauge of memoized wire-body bytes (`+len` when a
/// [`Bindings`](crate::Bindings) memo is set, `-len` when its allocation
/// drops).
pub(crate) fn note_result_body_bytes(delta: i64) {
    if delta != 0 {
        metrics().result_body_bytes.add(delta);
    }
}

/// Serializes the unit tests that read or move a process-wide series
/// exactly (the registry is shared by every test in this binary).
#[cfg(test)]
pub(crate) fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
