//! Batched query sessions — long-lived search state shared across queries.
//!
//! AMbER's offline indexes (paper §4) exist to amortize cost across many
//! queries, but until this subsystem every query rebuilt its scratch
//! memory from scratch (a one-shot [`run`](crate::AmberEngine::run) still
//! does). A [`QuerySession`] inverts that ownership:
//!
//! * it owns the [`SearchArenas`] — per-depth candidate/spill buffers
//!   grown **high-water-mark style** and never shrunk, so after the
//!   largest query shape has been seen the matcher stops allocating;
//! * it owns the three caches a query stream hits: the [`SeedCache`]
//!   (`ProcessVertex` lookups), the prepared-plan cache and the
//!   verbatim-result cache;
//! * it aggregates the search counters of its queries ([`SearchStats`]).
//!
//! [`run_all`](crate::AmberEngine::run_all) drives
//! many queries through one session and reports aggregate [`BatchStats`]
//! (cache hit rates, arena reuse bytes) next to the per-query outcomes.

use crate::governor::MemoryGovernor;
use crate::matcher::SearchArenas;
use crate::plan::{PlanCache, PlanCacheStats, ResultCache};
use crate::result::QueryOutcome;
use crate::seeds::{CacheStats, SeedCache};
use crate::telemetry::{self, ObsBaseline};
use amber_obs::FlightRecorder;
use std::fmt;
use std::time::Duration;

/// Aggregated search counters (across the queries of one session or
/// batch): how much work the matcher did and how often a query ended
/// abnormally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes visited (candidate attempts, summed over every
    /// component run).
    pub nodes: u64,
    /// Matcher panics trapped and quarantined (each poisoned exactly one
    /// query; the session stayed usable).
    pub trapped_panics: u64,
    /// Queries that ended via cooperative cancellation.
    pub cancellations: u64,
    /// Σ over governed queries of memory-governor ladder steps taken
    /// (0–3 per query; see [`crate::governor::Pressure`]).
    pub degradation_steps: u64,
}

impl SearchStats {
    /// The counters accumulated since `before` was snapshotted (used to
    /// report per-batch shares of a long-lived session).
    pub(crate) fn since(&self, before: &SearchStats) -> SearchStats {
        SearchStats {
            nodes: self.nodes - before.nodes,
            trapped_panics: self.trapped_panics - before.trapped_panics,
            cancellations: self.cancellations - before.cancellations,
            degradation_steps: self.degradation_steps - before.degradation_steps,
        }
    }
}

/// Long-lived, reusable search state for executing many queries against one
/// engine (created by [`AmberEngine::create_session`](crate::AmberEngine::create_session)).
///
/// A session is single-threaded (`&mut` API). It may be reused across
/// engines — the session notices when it is handed to a different engine
/// (by data-graph identity) and clears its caches, since memoized probe
/// results are only valid against the graph that produced them.
#[derive(Debug)]
pub struct QuerySession {
    /// The matcher's scratch arenas, lent to every component run.
    arenas: SearchArenas,
    /// Seed-probe memo (attribute / IRI-constraint lookups of matcher plan
    /// construction).
    seeds: SeedCache,
    /// Prepared-plan cache: fully-derived query plans keyed by
    /// canonicalized query text, reused across repeats.
    plans: PlanCache,
    /// Verbatim-result cache: completed outcomes of repeated identical
    /// queries, served without searching.
    results: ResultCache,
    /// Search counters accumulated across this session's queries.
    search: SearchStats,
    /// Identity of the engine (graph + indexes) the caches were filled
    /// against — a process-unique monotonic id, so engine teardown can
    /// never recycle a token (no pointer ABA).
    graph_token: Option<u64>,
    /// Queries executed through this session.
    queries: u64,
    /// Set when the current query's memory governor reached the
    /// shed-results rung; consulted (and the shed applied) at the
    /// result-cache store site, reset at query start.
    result_shed: bool,
    /// Sum over queries of arena bytes already allocated at query start —
    /// memory the session *reused* instead of reallocating.
    arena_reused_bytes: u64,
    /// High-water arena footprint.
    arena_peak_bytes: usize,
    /// Per-query flight recorder: span timings, cache trail, slow-query
    /// log. Off by default; see
    /// [`Self::configure_tracing`].
    recorder: FlightRecorder,
    /// Stat baseline captured at query start when the `AMBER_OBS` gate is
    /// on; `end_query` flushes `current − baseline` into the registry.
    obs_base: Option<ObsBaseline>,
}

impl QuerySession {
    /// Seed-cache capacity (entries per key space) of every session
    /// [`AmberEngine::create_session`](crate::AmberEngine::create_session)
    /// makes. Transient one-shot sessions get none.
    pub const SEED_CACHE_CAPACITY: usize = 4096;

    /// A session whose seed cache holds at most `seed_capacity` entries
    /// per key space (0 disables it; arenas are still reused). Plan and
    /// result caches start disabled; size them with
    /// [`Self::with_plan_caches`].
    pub fn new(seed_capacity: usize) -> Self {
        Self {
            arenas: SearchArenas::new(),
            seeds: SeedCache::new(seed_capacity),
            plans: PlanCache::new(0),
            results: ResultCache::new(0),
            search: SearchStats::default(),
            graph_token: None,
            queries: 0,
            result_shed: false,
            arena_reused_bytes: 0,
            arena_peak_bytes: 0,
            recorder: FlightRecorder::default(),
            obs_base: None,
        }
    }

    /// Builder: size the prepared-plan and verbatim-result caches (0
    /// disables either). Replaces the stores, so call it before executing.
    pub fn with_plan_caches(mut self, plan_capacity: usize, result_capacity: usize) -> Self {
        self.plans = PlanCache::new(plan_capacity);
        self.results = ResultCache::new(result_capacity);
        self
    }

    /// Counters of the seed-probe memo (attribute / IRI-constraint
    /// lookups of plan construction).
    pub fn seed_stats(&self) -> CacheStats {
        self.seeds.stats()
    }

    /// Counters of the prepared-plan and verbatim-result caches.
    pub fn plan_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            plans: self.plans.stats(),
            results: self.results.stats(),
            result_hit_copied_bytes: self.results.hit_copied_bytes(),
        }
    }

    /// Search counters accumulated over this session's lifetime (nodes
    /// visited, trapped panics, cancellations, governor steps).
    pub fn search_stats(&self) -> SearchStats {
        self.search
    }

    /// Heap bytes currently retained by the arenas.
    pub fn arena_bytes(&self) -> usize {
        self.arenas.heap_bytes()
    }

    /// Queries executed through this session so far.
    pub fn queries_executed(&self) -> u64 {
        self.queries
    }

    /// Sum over queries of arena bytes that were already warm at query
    /// start (0 for the first query; grows as the session amortizes).
    pub fn arena_reused_bytes(&self) -> u64 {
        self.arena_reused_bytes
    }

    /// High-water arena footprint observed across the session's lifetime.
    pub fn arena_peak_bytes(&self) -> usize {
        self.arena_peak_bytes
    }

    /// Drop all cached seed, plan, and result state (arenas are kept —
    /// they hold no graph-dependent data between runs).
    pub fn clear_cache(&mut self) {
        self.seeds.clear();
        self.plans.clear();
        self.results.clear();
    }

    /// Bind the session to a data graph identity; a change of graph clears
    /// the caches (memoized probes are graph-specific).
    pub(crate) fn bind_graph(&mut self, token: u64) {
        if self.graph_token != Some(token) {
            if self.graph_token.is_some() {
                self.clear_cache();
            }
            self.graph_token = Some(token);
        }
    }

    /// Bookkeeping at query start: account the warm arena bytes this query
    /// inherits and snapshot the stat baseline for the telemetry flush.
    pub(crate) fn begin_query(&mut self) {
        self.queries += 1;
        self.result_shed = false;
        self.arena_reused_bytes = self
            .arena_reused_bytes
            .saturating_add(self.arena_bytes() as u64);
        self.obs_base = if amber_obs::obs_enabled() {
            Some(ObsBaseline {
                seeds: self.seed_stats(),
                plans: self.plan_stats(),
                search: self.search,
            })
        } else {
            None
        };
    }

    /// Bookkeeping at query end: track the arena high-water mark, flush
    /// this query's stat deltas into the metric registry, and close the
    /// flight-recorder trace (if one is open) with the final status.
    pub(crate) fn end_query(&mut self, status: &'static str, elapsed: Duration) {
        self.arena_peak_bytes = self.arena_peak_bytes.max(self.arena_bytes());
        if let Some(base) = self.obs_base.take() {
            telemetry::flush_query(
                status,
                elapsed,
                &self.seed_stats().since(&base.seeds),
                &self.plan_stats().since(&base.plans),
                &self.search.since(&base.search),
            );
        }
        if self.recorder.is_recording() {
            self.recorder.end(status);
        }
    }

    /// Turn the per-query flight recorder on/off and set its slow-query
    /// threshold (`Some(Duration::ZERO)` logs every query; `None` logs
    /// none). Capture additionally requires the process-wide `AMBER_OBS`
    /// gate to be on.
    pub fn configure_tracing(&mut self, enabled: bool, slow_threshold: Option<Duration>) {
        self.recorder.configure(enabled, slow_threshold);
    }

    /// The session's flight recorder: completed query traces (ring
    /// buffer) and the rendered slow-query log.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable recorder access for the engine's span capture.
    pub(crate) fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// The scratch arenas a component run borrows.
    pub(crate) fn search_state(&mut self) -> &mut SearchArenas {
        &mut self.arenas
    }

    /// Add one component run's visited search-tree nodes.
    pub(crate) fn record_nodes(&mut self, nodes: u64) {
        self.search.nodes += nodes;
    }

    /// The prepared-plan cache and the seed cache together (plan building
    /// on a cache miss needs both mutably).
    pub(crate) fn plan_and_seed_caches(&mut self) -> (&mut PlanCache, &mut SeedCache) {
        (&mut self.plans, &mut self.seeds)
    }

    /// The verbatim-result cache.
    pub(crate) fn result_cache_mut(&mut self) -> &mut ResultCache {
        &mut self.results
    }

    /// Record one quarantined panic (the query it poisoned already
    /// surfaced the typed error; this is the session-level tally).
    pub(crate) fn record_trapped_panic(&mut self) {
        self.search.trapped_panics += 1;
    }

    /// Record one cooperative cancellation.
    pub(crate) fn record_cancellation(&mut self) {
        self.search.cancellations += 1;
    }

    /// Apply a finished query's governor verdict to the session: tally the
    /// ladder steps, flag the result cache for shedding, and shed the
    /// seed cache when the ladder said so — it outlives the query, so the
    /// shed must happen here rather than inside the search.
    pub(crate) fn apply_governor(&mut self, governor: &MemoryGovernor) {
        self.search.degradation_steps += governor.steps_taken();
        for _ in 0..governor.steps_taken() {
            self.recorder.note_degradation();
        }
        if governor.shed_results() {
            self.result_shed = true;
        }
        if governor.shed_probe_caches() {
            self.seeds.clear();
        }
    }

    /// Did the current query's governor request a result-cache shed?
    pub(crate) fn result_cache_shed(&self) -> bool {
        self.result_shed
    }
}

/// Aggregate statistics of one [`run_all`](crate::AmberEngine::run_all)
/// batch (or of a session's lifetime).
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Queries submitted.
    pub queries: usize,
    /// Queries that completed within budget.
    pub completed: usize,
    /// Queries whose wall-clock budget expired.
    pub timed_out: usize,
    /// Queries ended early by a [`CancelToken`](crate::CancelToken).
    pub cancelled: usize,
    /// Queries whose memory budget was exhausted (degradation ladder ran
    /// out of things to shed).
    pub budget_exceeded: usize,
    /// Queries that failed: parse errors, query-graph build errors, stale
    /// plans, or a quarantined panic
    /// ([`EngineError::Internal`](crate::EngineError::Internal)).
    pub errors: usize,
    /// Seed-probe memo counters (attribute / IRI lookups of plan
    /// construction).
    pub seeds: CacheStats,
    /// Prepared-plan and verbatim-result cache counters (a plan hit skips
    /// query-graph build + decomposition + ordering + seed probes; a
    /// result hit skips the execution entirely).
    pub plans: PlanCacheStats,
    /// Search counters (nodes visited, trapped panics, cancellations,
    /// governor steps).
    pub search: SearchStats,
    /// Sum over queries of warm arena bytes inherited at query start.
    pub arena_reused_bytes: u64,
    /// High-water arena footprint across the batch.
    pub arena_peak_bytes: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} queries ({} completed, {} timed out, {} errors) in {:.3} ms",
            self.queries,
            self.completed,
            self.timed_out,
            self.errors,
            self.elapsed.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "seeds: {:.1}% hit rate ({} hits / {} misses / {} bypasses), {} entries, {} result bytes",
            self.seeds.hit_rate() * 100.0,
            self.seeds.hits,
            self.seeds.misses,
            self.seeds.bypasses,
            self.seeds.entries,
            self.seeds.result_bytes,
        )?;
        writeln!(
            f,
            "plans: {:.1}% hit rate ({} hits / {} misses / {} bypasses), {} plans cached, {} evictions",
            self.plans.plans.hit_rate() * 100.0,
            self.plans.plans.hits,
            self.plans.plans.misses,
            self.plans.plans.bypasses,
            self.plans.plans.entries,
            self.plans.plans.evictions,
        )?;
        writeln!(
            f,
            "results: {:.1}% hit rate ({} hits / {} misses / {} bypasses), {} outcomes cached, {} result bytes",
            self.plans.results.hit_rate() * 100.0,
            self.plans.results.hits,
            self.plans.results.misses,
            self.plans.results.bypasses,
            self.plans.results.entries,
            self.plans.results.result_bytes,
        )?;
        writeln!(f, "search: {} nodes visited", self.search.nodes)?;
        let robustness_events = self.cancelled
            + self.budget_exceeded
            + (self.search.trapped_panics
                + self.search.cancellations
                + self.search.degradation_steps) as usize;
        if robustness_events > 0 {
            writeln!(
                f,
                "robustness: {} cancelled, {} budget-exceeded, {} trapped panics, \
                 {} degradation steps",
                self.cancelled,
                self.budget_exceeded,
                self.search.trapped_panics,
                self.search.degradation_steps,
            )?;
        }
        write!(
            f,
            "arenas: {} bytes peak, {} bytes reused across queries",
            self.arena_peak_bytes, self.arena_reused_bytes
        )
    }
}

/// The result of one batch execution: per-query outcomes (in submission
/// order) plus aggregate statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per submitted request, in submission order: what
    /// [`run_in`](crate::AmberEngine::run_in) returns for it.
    pub outcomes: Vec<Result<QueryOutcome, crate::error::Error>>,
    /// Aggregate cache/arena/timing statistics for the whole batch.
    pub stats: BatchStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmberEngine, ExecOptions, QueryRequest};
    use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};

    #[test]
    fn graph_rebind_clears_caches() {
        let engine_a = AmberEngine::from_graph(paper_graph());
        let engine_b = AmberEngine::from_graph(paper_graph());
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine_a.create_session(&options);
        let request = QueryRequest::parsed(&q).with_options(options);
        engine_a.run_in(&request, &mut session).unwrap();
        // The paper query warms all three: X5's attribute set is a seed
        // entry, its plan and its answer are stored.
        let warm = session.plan_stats();
        assert!(session.seed_stats().entries > 0);
        assert_eq!((warm.plans.entries, warm.results.entries), (1, 1));
        // Same engine: the caches survive.
        session.bind_graph(engine_a.graph_token());
        assert_eq!(session.plan_stats().results.entries, 1);

        // Engine B: everything graph-dependent is dropped on rebind...
        session.bind_graph(engine_b.graph_token());
        let cold = session.plan_stats();
        assert_eq!(session.seed_stats().entries, 0);
        assert_eq!((cold.plans.entries, cold.results.entries), (0, 0));
        // ...and B answers by executing, not from A's result cache.
        let b = engine_b.run_in(&request, &mut session).unwrap();
        assert_eq!(b.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        assert_eq!(b.bindings.len(), PAPER_QUERY_EMBEDDINGS);
        let after = session.plan_stats();
        assert_eq!(after.results.hits, warm.results.hits, "no stale hit");
        assert_eq!(after.results.misses, warm.results.misses + 1);
    }

    #[test]
    fn batch_stats_display_is_complete() {
        let stats = BatchStats {
            queries: 3,
            completed: 2,
            timed_out: 1,
            ..Default::default()
        };
        let text = stats.to_string();
        assert!(text.contains("3 queries"));
        assert!(text.contains("hit rate"));
        assert!(text.contains("arenas"));
    }
}
