//! The unified public query API: [`QueryRequest`] + [`AmberEngine::run`].
//!
//! The engine grew ten `execute_*` variants along three independent axes —
//! input form (text / parsed / prepared), session (transient / caller-owned)
//! and arity (one / batch). This module collapses them behind one request
//! value and four entry points:
//!
//! * [`AmberEngine::run`] — one request, transient session;
//! * [`AmberEngine::run_in`] — one request, caller-owned session;
//! * [`AmberEngine::run_all`] — many requests, one fresh shared session;
//! * [`AmberEngine::run_all_in`] — many requests, caller-owned session.
//!
//! A [`QueryRequest`] borrows its source (so building one allocates
//! nothing beyond its [`ExecOptions`]) and the `run*` entry points return
//! the unified [`Error`](crate::Error) taxonomy, which carries the wire
//! mapping ([`status_code`](crate::Error::status_code) /
//! [`retry_after`](crate::Error::retry_after)) every front-end shares.
//! The legacy `execute_*` methods survive as thin wrappers over the same
//! dispatcher.
//!
//! ```
//! use amber::{AmberEngine, QueryRequest};
//!
//! let engine = AmberEngine::load_ntriples(
//!     "<http://e/a> <http://e/p> <http://e/b> .",
//! ).unwrap();
//! let outcome = engine
//!     .run(&QueryRequest::sparql("SELECT * WHERE { ?s <http://e/p> ?o . }"))
//!     .unwrap();
//! assert_eq!(outcome.embedding_count, 1);
//! ```

use crate::engine::AmberEngine;
use crate::error::{EngineError, Error};
use crate::options::ExecOptions;
use crate::plan::PreparedPlan;
use crate::result::QueryOutcome;
use crate::session::{BatchOutcome, QuerySession};
use std::sync::Arc;
use std::time::Duration;

/// What a [`QueryRequest`] executes: SPARQL text, a parsed query, or a
/// prepared plan — borrowed, so a request is free to build.
#[derive(Debug, Clone, Copy)]
pub enum QuerySource<'a> {
    /// SPARQL text, parsed at dispatch (a parse failure is the request's
    /// typed error).
    Sparql(&'a str),
    /// An already-parsed query.
    Parsed(&'a amber_sparql::SelectQuery),
    /// A plan prepared on this engine ([`AmberEngine::prepare`]); a plan
    /// from a different engine fails with
    /// [`EngineError::StalePlan`](crate::EngineError::StalePlan).
    Prepared(&'a Arc<PreparedPlan>),
}

/// One query to run: a borrowed [`QuerySource`] plus its [`ExecOptions`].
///
/// Build with [`QueryRequest::sparql`] / [`parsed`](QueryRequest::parsed) /
/// [`prepared`](QueryRequest::prepared), refine with the builder methods,
/// hand to [`AmberEngine::run`] (or its session/batch siblings).
#[derive(Debug, Clone)]
pub struct QueryRequest<'a> {
    source: QuerySource<'a>,
    options: ExecOptions,
}

impl<'a> QueryRequest<'a> {
    /// A request from SPARQL text, with default options.
    pub fn sparql(text: &'a str) -> Self {
        Self::from_source(QuerySource::Sparql(text))
    }

    /// A request from a parsed query, with default options.
    pub fn parsed(query: &'a amber_sparql::SelectQuery) -> Self {
        Self::from_source(QuerySource::Parsed(query))
    }

    /// A request from a prepared plan, with default options.
    pub fn prepared(plan: &'a Arc<PreparedPlan>) -> Self {
        Self::from_source(QuerySource::Prepared(plan))
    }

    /// A request from any [`QuerySource`], with default options.
    pub fn from_source(source: QuerySource<'a>) -> Self {
        Self {
            source,
            options: ExecOptions::default(),
        }
    }

    /// Replace the whole option set (for callers that already hold an
    /// [`ExecOptions`] — e.g. a serving layer's per-request tightening).
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the execution timeout (see [`ExecOptions::with_timeout`]).
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.options = self.options.with_timeout(limit);
        self
    }

    /// Cap materialized rows (see [`ExecOptions::with_max_results`]).
    pub fn with_max_results(mut self, cap: usize) -> Self {
        self.options = self.options.with_max_results(cap);
        self
    }

    /// Count embeddings only, skip materialization (see
    /// [`ExecOptions::counting`]).
    pub fn counting(mut self) -> Self {
        self.options = self.options.counting();
        self
    }

    /// The source this request executes.
    pub fn source(&self) -> &QuerySource<'a> {
        &self.source
    }

    /// The options this request executes under.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }
}

impl AmberEngine {
    /// The real dispatcher behind every single-query entry point, legacy
    /// and unified alike: route one source through the session paths.
    pub(crate) fn dispatch_source(
        &self,
        source: &QuerySource<'_>,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, EngineError> {
        match source {
            QuerySource::Sparql(text) => {
                let query = amber_sparql::parse_select(text)?;
                self.execute_in_session(&query, options, session)
            }
            QuerySource::Parsed(query) => self.execute_in_session(query, options, session),
            QuerySource::Prepared(plan) => self.execute_prepared_in_session(plan, options, session),
        }
    }

    /// [`Self::dispatch_source`] with a transient single-query session.
    pub(crate) fn dispatch_once(
        &self,
        source: &QuerySource<'_>,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        let mut session = self.transient_session();
        self.dispatch_source(source, options, &mut session)
    }

    /// Run one request with transient state (a fresh single-query
    /// session). The unified entry point over text, parsed and prepared
    /// sources — see [`QueryRequest`].
    pub fn run(&self, request: &QueryRequest<'_>) -> Result<QueryOutcome, Error> {
        self.dispatch_once(request.source(), request.options())
            .map_err(Error::from)
    }

    /// Run one request against a caller-owned session (arenas, seed, plan
    /// and result caches amortized across calls).
    pub fn run_in(
        &self,
        request: &QueryRequest<'_>,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, Error> {
        self.dispatch_source(request.source(), request.options(), session)
            .map_err(Error::from)
    }

    /// Run many requests against one fresh shared session (sized from the
    /// first request's options; [`ExecOptions::batch`] when empty). Each
    /// request executes under its *own* options; failures (including
    /// parse failures of [`QuerySource::Sparql`] entries) yield that
    /// entry's `Err` without aborting the rest.
    pub fn run_all(&self, requests: &[QueryRequest<'_>]) -> BatchOutcome {
        let session_options = requests
            .first()
            .map(|r| r.options().clone())
            .unwrap_or_else(ExecOptions::batch);
        let mut session = self.create_session(&session_options);
        self.run_all_in(requests, &mut session)
    }

    /// [`Self::run_all`] against a caller-owned session, so warm-up
    /// carries over from batch to batch.
    pub fn run_all_in(
        &self,
        requests: &[QueryRequest<'_>],
        session: &mut QuerySession,
    ) -> BatchOutcome {
        let base = requests
            .first()
            .map(|r| r.options().clone())
            .unwrap_or_else(ExecOptions::batch);
        self.drive_batch(
            requests.len(),
            &base,
            session,
            |engine, i, _base, session| {
                engine.dispatch_source(requests[i].source(), requests[i].options(), session)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::QueryStatus;
    use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};

    fn engine() -> AmberEngine {
        AmberEngine::from_graph(paper_graph())
    }

    #[test]
    fn run_matches_legacy_execute_across_sources() {
        let engine = engine();
        let text = paper_query_text();
        let legacy = engine.execute(&text, &ExecOptions::default()).unwrap();

        let from_text = engine.run(&QueryRequest::sparql(&text)).unwrap();
        assert_eq!(from_text.embedding_count, legacy.embedding_count);
        assert_eq!(from_text.variables, legacy.variables);

        let parsed = amber_sparql::parse_select(&text).unwrap();
        let from_parsed = engine.run(&QueryRequest::parsed(&parsed)).unwrap();
        assert_eq!(from_parsed.embedding_count, legacy.embedding_count);

        let plan = engine.prepare(&parsed).unwrap();
        let from_plan = engine.run(&QueryRequest::prepared(&plan)).unwrap();
        assert_eq!(from_plan.embedding_count, legacy.embedding_count);
        assert_eq!(from_plan.variables, legacy.variables);
    }

    #[test]
    fn builder_knobs_reach_execution() {
        let engine = engine();
        let text = paper_query_text();
        let counted = engine.run(&QueryRequest::sparql(&text).counting()).unwrap();
        assert_eq!(counted.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        assert!(counted.bindings.is_empty());

        let capped = engine
            .run(&QueryRequest::sparql(&text).with_max_results(1))
            .unwrap();
        assert_eq!(capped.bindings.len(), 1);

        let strangled = engine
            .run(&QueryRequest::sparql(&text).with_timeout(Duration::ZERO))
            .unwrap();
        assert_eq!(strangled.status, QueryStatus::TimedOut);
    }

    #[test]
    fn run_returns_the_unified_taxonomy() {
        let engine = engine();
        match engine.run(&QueryRequest::sparql("not sparql")) {
            Err(Error::Engine(EngineError::Sparql(_))) => {}
            other => panic!("expected a typed parse error, got {other:?}"),
        }
        assert_eq!(
            engine
                .run(&QueryRequest::sparql("not sparql"))
                .unwrap_err()
                .status_code(),
            400
        );
        // A foreign plan surfaces as the unified 500.
        let other_engine = AmberEngine::from_graph(paper_graph());
        let plan = other_engine.prepare_sparql(&paper_query_text()).unwrap();
        let err = engine.run(&QueryRequest::prepared(&plan)).unwrap_err();
        assert_eq!(err, Error::Engine(EngineError::StalePlan));
        assert_eq!(err.status_code(), 500);
    }

    #[test]
    fn run_in_shares_the_session_with_legacy_paths() {
        let engine = engine();
        let text = paper_query_text();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let a = engine
            .run_in(
                &QueryRequest::sparql(&text).with_options(options.clone()),
                &mut session,
            )
            .unwrap();
        let b = engine
            .run_in(
                &QueryRequest::sparql(&text).with_options(options.clone()),
                &mut session,
            )
            .unwrap();
        assert_eq!(a.embedding_count, b.embedding_count);
        assert_eq!(session.queries_executed(), 2);
        // The unified path drives the same caches the legacy path did.
        assert!(
            b.bindings.shares_rows(&a.bindings),
            "repeat must be a zero-copy result-cache hit"
        );
    }

    #[test]
    fn run_all_mixes_sources_and_isolates_failures() {
        let engine = engine();
        let text = paper_query_text();
        let parsed = amber_sparql::parse_select(&text).unwrap();
        let plan = engine.prepare(&parsed).unwrap();
        let options = ExecOptions::batch();
        let requests = vec![
            QueryRequest::sparql(&text).with_options(options.clone()),
            QueryRequest::sparql("not sparql").with_options(options.clone()),
            QueryRequest::parsed(&parsed).with_options(options.clone()),
            QueryRequest::prepared(&plan).with_options(options.clone()),
        ];
        let batch = engine.run_all(&requests);
        assert_eq!(batch.outcomes.len(), 4);
        assert!(batch.outcomes[0].is_ok());
        assert!(batch.outcomes[1].is_err(), "parse failure stays isolated");
        assert!(batch.outcomes[2].is_ok());
        assert!(batch.outcomes[3].is_ok());
        assert_eq!(batch.stats.completed, 3);
        assert_eq!(batch.stats.errors, 1);
        for outcome in [&batch.outcomes[0], &batch.outcomes[2], &batch.outcomes[3]] {
            assert_eq!(
                outcome.as_ref().unwrap().embedding_count,
                PAPER_QUERY_EMBEDDINGS as u128
            );
        }
    }

    #[test]
    fn run_all_matches_legacy_batch() {
        let engine = engine();
        let text = paper_query_text();
        let parsed = amber_sparql::parse_select(&text).unwrap();
        let options = ExecOptions::batch();
        let legacy = engine.execute_batch(&vec![parsed.clone(); 3], &options);
        let requests: Vec<QueryRequest<'_>> = (0..3)
            .map(|_| QueryRequest::parsed(&parsed).with_options(options.clone()))
            .collect();
        let unified = engine.run_all(&requests);
        assert_eq!(unified.stats.completed, legacy.stats.completed);
        for (a, b) in legacy.outcomes.iter().zip(&unified.outcomes) {
            assert_eq!(
                a.as_ref().unwrap().embedding_count,
                b.as_ref().unwrap().embedding_count
            );
        }
    }
}
