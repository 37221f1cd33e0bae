//! The engine layer's series in the process-wide `amber_obs` registry.
//!
//! Every count is added where it happens, once: the result cache counts
//! its own lookups and evictions into the `amber_cache_*{cache="result"}`
//! series and moves the `amber_cache_entries` / `amber_cache_bytes`
//! gauges wherever its stored entries and bytes move ([`CacheCounts`]);
//! the engine adds each component run's search nodes and each quarantined
//! panic; and
//! [`QuerySession::end_query`](crate::QuerySession) records only the
//! query's status and latency. There is no per-query snapshot or delta:
//! a session's `result_stats()` are its own counters of the same events,
//! and `tests/obs_equivalence.rs` pins that the two agree exactly.
//!
//! Handles are resolved once per process (`OnceLock`), so a count is one
//! relaxed `fetch_add`.

use crate::plan::CacheStats;
use crate::result::QueryStatus;
use amber_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The result cache's registry series (`cache="result"`).
#[derive(Debug)]
struct CacheFamily {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    bypasses: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

impl CacheFamily {
    fn new() -> Self {
        let l = [("cache", "result")];
        Self {
            hits: amber_obs::counter("amber_cache_hits_total", &l),
            misses: amber_obs::counter("amber_cache_misses_total", &l),
            bypasses: amber_obs::counter("amber_cache_bypasses_total", &l),
            evictions: amber_obs::counter("amber_cache_evictions_total", &l),
            entries: amber_obs::gauge("amber_cache_entries", &l),
            bytes: amber_obs::gauge("amber_cache_bytes", &l),
        }
    }

    /// Move the gauges by a change in one cache's stored entries and bytes.
    fn resize(&self, entries: i64, bytes: i64) {
        if entries != 0 {
            self.entries.add(entries);
        }
        if bytes != 0 {
            self.bytes.add(bytes);
        }
    }
}

/// One result cache's counters: its session view ([`CacheStats`]) and
/// the registry series, moved together at every event. The stored entries
/// and bytes are the cache's share of the gauges, which therefore sum over
/// live caches; dropping the counters (with their cache) takes that share
/// back out.
#[derive(Debug, Default)]
pub(crate) struct CacheCounts {
    stats: CacheStats,
}

impl CacheCounts {
    /// The session view.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A lookup answered from a stored entry.
    pub(crate) fn hit(&mut self) {
        self.stats.hits += 1;
        family().hits.inc();
    }

    /// A lookup that found nothing: the query runs.
    pub(crate) fn miss(&mut self) {
        self.stats.misses += 1;
        family().misses.inc();
    }

    /// An execution that skipped the cache.
    pub(crate) fn bypass(&mut self) {
        self.stats.bypasses += 1;
        family().bypasses.inc();
    }

    /// `entries` entries holding `bytes` heap bytes stored.
    pub(crate) fn store(&mut self, entries: usize, bytes: usize) {
        self.stats.entries += entries;
        self.stats.result_bytes += bytes;
        family().resize(entries as i64, bytes as i64);
    }

    /// One stored value — `entries` entries holding `bytes` heap bytes —
    /// dropped by a capacity eviction or a clear.
    pub(crate) fn evict(&mut self, entries: usize, bytes: usize) {
        self.stats.evictions += 1;
        self.stats.entries -= entries;
        self.stats.result_bytes -= bytes;
        family().evictions.inc();
        family().resize(-(entries as i64), -(bytes as i64));
    }

    /// A stored entry of `old` heap bytes replaced by one of `new`.
    pub(crate) fn replace(&mut self, old: usize, new: usize) {
        self.stats.result_bytes = self.stats.result_bytes - old + new;
        family().resize(0, new as i64 - old as i64);
    }
}

impl Drop for CacheCounts {
    fn drop(&mut self) {
        let share = &self.stats;
        family().resize(-(share.entries as i64), -(share.result_bytes as i64));
    }
}

fn family() -> &'static CacheFamily {
    &metrics().result
}

/// The `status` labels of `amber_queries_total`, one per outcome kind
/// (also the flight recorder's final status strings).
const STATUSES: [&str; 3] = ["completed", "timed_out", "error"];

/// Every engine-layer registry handle, resolved once.
struct EngineMetrics {
    /// `amber_queries_total`, in [`STATUSES`] order.
    queries: [Arc<Counter>; 3],
    latency_us: Arc<Histogram>,
    result: CacheFamily,
    search_nodes: Arc<Counter>,
    seed_candidates: Arc<Histogram>,
    trapped_panics: Arc<Counter>,
    result_body_bytes: Arc<Gauge>,
}

fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        queries: STATUSES
            .map(|status| amber_obs::counter("amber_queries_total", &[("status", status)])),
        latency_us: amber_obs::histogram("amber_query_latency_us", &[]),
        result: CacheFamily::new(),
        search_nodes: amber_obs::counter("amber_search_nodes_total", &[]),
        seed_candidates: amber_obs::histogram("amber_seed_candidates", &[]),
        trapped_panics: amber_obs::counter("amber_query_trapped_panics_total", &[]),
        result_body_bytes: amber_obs::gauge("amber_result_body_bytes", &[]),
    })
}

/// Count one finished query under its status (`None`: it failed) and
/// observe its latency; returns the status label.
pub(crate) fn note_query(status: Option<QueryStatus>, elapsed: Duration) -> &'static str {
    let kind = match status {
        Some(QueryStatus::Completed) => 0,
        Some(QueryStatus::TimedOut) => 1,
        None => 2,
    };
    let m = metrics();
    m.queries[kind].inc();
    m.latency_us.observe(elapsed.as_micros() as u64);
    STATUSES[kind]
}

/// One component run: its visited search-tree nodes and its `|CandInit|`,
/// the root fan-out of that search (once per run, never per candidate).
pub(crate) fn note_component_run(nodes: u64, seed_candidates: usize) {
    let m = metrics();
    m.search_nodes.add(nodes);
    m.seed_candidates.observe(seed_candidates as u64);
}

/// One matcher panic trapped and quarantined to its query.
pub(crate) fn note_trapped_panic() {
    metrics().trapped_panics.inc();
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
