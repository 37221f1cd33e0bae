//! The public query API: [`QueryRequest`] + [`AmberEngine::run`].
//!
//! A query varies along two independent axes — input form (text /
//! parsed / compiled / prepared) and session (transient / caller-owned).
//! One request value and two entry points cover them:
//!
//! * [`AmberEngine::run`] — one request, transient session;
//! * [`AmberEngine::run_in`] — one request, caller-owned session. A batch
//!   is a loop of `run_in` over one
//!   [`create_session`](AmberEngine::create_session): the session's
//!   counters ([`QuerySession::seed_stats`], [`plan_stats`](QuerySession::plan_stats),
//!   [`search_stats`](QuerySession::search_stats)) are the batch's.
//!
//! Both execute through one query envelope, so every request is
//! counted once — in its session and in the metric registry — whether it
//! answers or fails. A [`QueryRequest`] borrows its source (so building
//! one allocates nothing beyond its [`ExecOptions`]) and the `run*` entry
//! points return the unified [`Error`] taxonomy, which carries the wire
//! mapping ([`status_code`](Error::status_code) /
//! [`retry_after`](Error::retry_after)) every front-end shares.
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
use crate::error::Error;
use crate::options::ExecOptions;
use crate::plan::PreparedPlan;
use crate::result::QueryOutcome;
use crate::session::QuerySession;
use amber_multigraph::CompiledQuery;
use std::sync::Arc;
use std::time::Duration;

/// What a [`QueryRequest`] executes: SPARQL text, a parsed query, a
/// compiled query, or a prepared plan — borrowed, so a request is free to
/// build.
#[derive(Debug, Clone, Copy)]
pub enum QuerySource<'a> {
    /// SPARQL text, compiled at dispatch (a parse failure is the request's
    /// typed error).
    Sparql(&'a str),
    /// An already-parsed query (compiled at dispatch by replaying it).
    Parsed(&'a amber_sparql::SelectQuery),
    /// A query compiled on this engine ([`AmberEngine::compile`]); one
    /// compiled elsewhere fails with
    /// [`EngineError::StalePlan`](crate::EngineError::StalePlan).
    Compiled(&'a CompiledQuery),
    /// A plan prepared on this engine ([`AmberEngine::prepare`]); a plan
    /// from a different engine fails with
    /// [`EngineError::StalePlan`](crate::EngineError::StalePlan).
    Prepared(&'a Arc<PreparedPlan>),
}

/// One query to run: a borrowed [`QuerySource`] plus its [`ExecOptions`].
///
/// Build with [`QueryRequest::sparql`] / [`parsed`](QueryRequest::parsed) /
/// [`prepared`](QueryRequest::prepared), refine with the builder methods,
/// hand to [`AmberEngine::run`] (or [`AmberEngine::run_in`]).
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

    /// A request from a compiled query, with default options.
    pub fn compiled(query: &'a CompiledQuery) -> Self {
        Self::from_source(QuerySource::Compiled(query))
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
    /// Run one request with transient state: a fresh single-query session
    /// without caches. The entry point over text, parsed and prepared
    /// sources — see [`QueryRequest`].
    pub fn run(&self, request: &QueryRequest<'_>) -> Result<QueryOutcome, Error> {
        self.run_in(request, &mut self.transient_session())
    }

    /// Run one request against a caller-owned session: the matcher borrows
    /// its scratch arenas, plan construction its seed cache, and repeats
    /// reuse their prepared plan or whole completed outcome when the
    /// session's plan/result caches are enabled (see
    /// [`ExecOptions::with_plan_cache`] and
    /// [`ExecOptions::with_result_cache`]). A session filled by a
    /// different engine is safe: its caches are cleared on first use here.
    pub fn run_in(
        &self,
        request: &QueryRequest<'_>,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, Error> {
        self.run_source(request.source(), request.options(), session)
            .map_err(Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::result::QueryStatus;
    use amber_multigraph::paper::{paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS};

    fn engine() -> AmberEngine {
        AmberEngine::from_graph(paper_graph())
    }

    #[test]
    fn run_agrees_across_sources() {
        let engine = engine();
        let text = paper_query_text();
        let from_text = engine.run(&QueryRequest::sparql(&text)).unwrap();
        assert_eq!(from_text.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);

        let parsed = amber_sparql::parse_select(&text).unwrap();
        let from_parsed = engine.run(&QueryRequest::parsed(&parsed)).unwrap();
        assert_eq!(from_parsed.embedding_count, from_text.embedding_count);

        let plan = engine.prepare(&parsed).unwrap();
        let from_plan = engine.run(&QueryRequest::prepared(&plan)).unwrap();
        assert_eq!(from_plan.embedding_count, from_text.embedding_count);
        assert_eq!(from_plan.variables, from_text.variables);
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
    fn run_in_shares_the_session_across_calls() {
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
        // The second call is served from the cache the first one filled.
        assert!(
            b.bindings.shares_rows(&a.bindings),
            "repeat must be a zero-copy result-cache hit"
        );
    }

    #[test]
    fn one_session_mixes_sources_and_isolates_failures() {
        let engine = engine();
        let text = paper_query_text();
        let parsed = amber_sparql::parse_select(&text).unwrap();
        let plan = engine.prepare(&parsed).unwrap();
        let options = ExecOptions::batch();
        let requests = [
            QueryRequest::sparql(&text).with_options(options.clone()),
            QueryRequest::sparql("not sparql").with_options(options.clone()),
            QueryRequest::parsed(&parsed).with_options(options.clone()),
            QueryRequest::prepared(&plan).with_options(options.clone()),
        ];
        let mut session = engine.create_session(&options);
        let outcomes: Vec<_> = requests
            .iter()
            .map(|request| engine.run_in(request, &mut session))
            .collect();
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err(), "parse failure stays isolated");
        assert!(outcomes[2].is_ok());
        assert!(outcomes[3].is_ok());
        assert_eq!(session.queries_executed(), 4, "the failure is counted too");
        for outcome in [&outcomes[0], &outcomes[2], &outcomes[3]] {
            let outcome = outcome.as_ref().unwrap();
            assert_eq!(outcome.status, QueryStatus::Completed);
            assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        }
        // A session entry is the answer `run` gives, errors included.
        assert_eq!(
            outcomes[1].as_ref().unwrap_err(),
            &engine.run(&requests[1]).unwrap_err()
        );
    }
}
