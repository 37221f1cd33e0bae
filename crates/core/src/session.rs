//! Batched query sessions — long-lived search state shared across queries.
//!
//! AMbER's offline indexes (paper §4) exist to amortize cost across many
//! queries, but until this subsystem every query rebuilt its scratch
//! memory from scratch (a one-shot [`run`](crate::AmberEngine::run) still
//! does). A [`QuerySession`] inverts that ownership:
//!
//! * it owns the [`SearchArenas`] — per-depth candidate/spill buffers and
//!   the `ProcessVertex` scratch of plan construction, grown
//!   **high-water-mark style** and never shrunk, so after the largest
//!   query shape has been seen the matcher stops allocating;
//! * it owns the one [`PreparedPlan`] every result miss is planned into
//!   and run from, cleared and refilled per query, so planning stops
//!   allocating the same way;
//! * it owns the one cache a query stream hits: the [`ResultCache`]
//!   (completed outcomes, consulted before planning).
//!
//! A batch is a loop of [`run_in`](crate::AmberEngine::run_in) over one
//! session; its counters ([`QuerySession::result_stats`],
//! [`QuerySession::queries_executed`]) are the batch's statistics.
//! Search work (nodes, trapped panics) is counted in the
//! metric registry only, where it happens.

use crate::matcher::SearchArenas;
use crate::plan::{CacheStats, PreparedPlan, ResultCache};
use crate::result::QueryStatus;
use crate::telemetry;
use amber_obs::FlightRecorder;
use std::time::Duration;

/// Long-lived, reusable search state for executing many queries against one
/// engine (created by [`AmberEngine::create_session`](crate::AmberEngine::create_session)).
///
/// A session is single-threaded (`&mut` API). It may be reused across
/// engines — the session notices when it is handed to a different engine
/// (by data-graph identity) and clears its result cache, since a stored
/// answer is only valid against the graph that produced it.
#[derive(Debug)]
pub struct QuerySession {
    /// The matcher's scratch arenas, lent to every plan construction and
    /// component run.
    arenas: SearchArenas,
    /// The plan every result miss is built into and run from: cleared
    /// and refilled per query, never freed. Boxed, as the serving layer
    /// moves a tenant's session in and out of its slot per request.
    plan: Option<Box<PreparedPlan>>,
    /// Result cache: completed outcomes of repeated queries, served
    /// without planning or searching.
    results: ResultCache,
    /// Identity of the engine (graph + indexes) the result cache was
    /// filled against — a process-unique monotonic id, so engine teardown
    /// can never recycle a token (no pointer ABA).
    graph_token: Option<u64>,
    /// Queries executed through this session.
    queries: u64,
    /// Per-query flight recorder: span timings, cache trail, slow-query
    /// log. Off by default; see
    /// [`Self::configure_tracing`].
    recorder: FlightRecorder,
}

impl QuerySession {
    /// A session whose result cache holds at most `result_capacity`
    /// buckets (0 disables it; arenas are still reused).
    pub(crate) fn new(result_capacity: usize) -> Self {
        Self {
            arenas: SearchArenas::new(),
            plan: None,
            results: ResultCache::new(result_capacity),
            graph_token: None,
            queries: 0,
            recorder: FlightRecorder::default(),
        }
    }

    /// Counters of the result cache.
    pub fn result_stats(&self) -> CacheStats {
        self.results.stats()
    }

    /// Queries executed through this session so far.
    pub fn queries_executed(&self) -> u64 {
        self.queries
    }

    /// Drop every cached outcome (arenas are kept — they hold no
    /// graph-dependent data between runs).
    pub fn clear_cache(&mut self) {
        self.results.clear();
    }

    /// Bind the session to a data graph identity; a change of graph clears
    /// the result cache (stored answers are graph-specific).
    pub(crate) fn bind_graph(&mut self, token: u64) {
        if self.graph_token != Some(token) {
            if self.graph_token.is_some() {
                self.clear_cache();
            }
            self.graph_token = Some(token);
        }
    }

    /// Bookkeeping at query start.
    pub(crate) fn begin_query(&mut self) {
        self.queries += 1;
    }

    /// Bookkeeping at query end: count the query's status (`None`: it
    /// failed) and latency in the metric registry, and close the
    /// flight-recorder trace (if one is open) with the status label.
    pub(crate) fn end_query(&mut self, status: Option<QueryStatus>, elapsed: Duration) {
        let label = telemetry::note_query(status, elapsed);
        if self.recorder.is_recording() {
            self.recorder.end(label);
        }
    }

    /// Turn the per-query flight recorder on/off and set its slow-query
    /// threshold (`Some(Duration::ZERO)` logs every query; `None` logs
    /// none).
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

    /// The scratch arenas plan construction and component runs borrow.
    pub(crate) fn search_state(&mut self) -> &mut SearchArenas {
        &mut self.arenas
    }

    /// Take the session's plan out to rebuild and run it while the
    /// session lends its arenas; [`Self::restore_plan`] hands it back.
    /// (A panic in between drops it: the next miss starts from an empty
    /// plan, as every rebuild starts from a cleared one.)
    pub(crate) fn take_plan(&mut self) -> Box<PreparedPlan> {
        self.plan.take().unwrap_or_default()
    }

    /// Return the plan [`Self::take_plan`] took.
    pub(crate) fn restore_plan(&mut self, plan: Box<PreparedPlan>) {
        self.plan = Some(plan);
    }

    /// The plan of the last query planned on this session.
    pub(crate) fn plan(&self) -> &PreparedPlan {
        self.plan.as_deref().expect("a plan was restored")
    }

    /// The result cache.
    pub(crate) fn result_cache_mut(&mut self) -> &mut ResultCache {
        &mut self.results
    }
}

#[cfg(test)]
mod tests {
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
        // The paper query's answer is stored.
        let warm = session.result_stats();
        assert_eq!(warm.entries, 1);
        // Same engine: the cache survives.
        session.bind_graph(engine_a.graph_token());
        assert_eq!(session.result_stats().entries, 1);

        // Engine B: everything graph-dependent is dropped on rebind...
        session.bind_graph(engine_b.graph_token());
        assert_eq!(session.result_stats().entries, 0);
        // ...and B answers by executing, not from A's result cache.
        let b = engine_b.run_in(&request, &mut session).unwrap();
        assert_eq!(b.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        assert_eq!(b.bindings.len(), PAPER_QUERY_EMBEDDINGS);
        let after = session.result_stats();
        assert_eq!(after.hits, warm.hits, "no stale hit");
        assert_eq!(after.misses, warm.misses + 1);
    }
}
