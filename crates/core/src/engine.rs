//! The AMbER engine facade: offline stage + online query execution.

use crate::embedding::{materialize_bindings, total_count};
use crate::error::EngineError;
use crate::matcher::{Abort, ComponentMatch, ComponentMatcher, MatchConfig, SearchArenas};
use crate::options::ExecOptions;
use crate::plan::PreparedPlan;
use crate::request::QuerySource;
use crate::result::{Bindings, QueryOutcome, QueryStatus, SparqlEngine};
use crate::session::QuerySession;
use amber_index::IndexSet;
use amber_multigraph::{CompiledQuery, GraphBuilder, RdfGraph};
use amber_util::fault::payload_message;
use amber_util::{Deadline, HeapSize, Stopwatch};
use std::sync::Arc;
use std::time::Duration;

/// Offline-stage measurements (the quantities of the paper's Table 5):
/// the two totals per side, then each broken down by stage and structure
/// ([`OfflineStats::stages`], [`OfflineStats::parts`]).
#[derive(Debug, Clone, Copy)]
pub struct OfflineStats {
    /// Time to transform triples into the multigraph database
    /// (`scan_intern_time + assemble_time`).
    pub database_build_time: Duration,
    /// Heap bytes of the multigraph database (graph + dictionaries).
    pub database_bytes: usize,
    /// Time to build the index ensemble `I`.
    pub index_build_time: Duration,
    /// Heap bytes of the index ensemble.
    pub index_bytes: usize,
    /// Time to scan the input and intern its terms into id tuples (zero
    /// for an engine made from an already-built graph).
    pub scan_intern_time: Duration,
    /// Time to sort the id tuples and cut them into adjacency and
    /// attribute lists (zero for an already-built graph).
    pub assemble_time: Duration,
    /// Time to build the attribute index `A`.
    pub attribute_index_time: Duration,
    /// Time to build the signature index `S`.
    pub signature_index_time: Duration,
    /// Time to build the neighbourhood index `N`.
    pub neighborhood_index_time: Duration,
    /// Heap bytes of the three dictionaries.
    pub dictionary_bytes: usize,
    /// Heap bytes of the outgoing + incoming adjacency.
    pub adjacency_bytes: usize,
    /// Heap bytes of the per-vertex attribute lists.
    pub attribute_list_bytes: usize,
    /// Heap bytes of `A`.
    pub attribute_index_bytes: usize,
    /// Heap bytes of `S`.
    pub signature_index_bytes: usize,
    /// Heap bytes of `N`.
    pub neighborhood_index_bytes: usize,
}

impl OfflineStats {
    /// The per-stage build times, named as the `stage` label of the
    /// `amber_offline_stage_us` gauge; they sum to the two build times.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        [
            ("scan_intern", self.scan_intern_time),
            ("assemble", self.assemble_time),
            ("attribute_index", self.attribute_index_time),
            ("signature_index", self.signature_index_time),
            ("neighborhood_index", self.neighborhood_index_time),
        ]
    }

    /// The per-structure heap bytes, named as the `part` label of the
    /// `amber_resident_bytes` gauge; they sum to `database_bytes +
    /// index_bytes`.
    pub fn parts(&self) -> [(&'static str, usize); 6] {
        [
            ("dictionaries", self.dictionary_bytes),
            ("adjacency", self.adjacency_bytes),
            ("attribute_lists", self.attribute_list_bytes),
            ("attribute_index", self.attribute_index_bytes),
            ("signature_index", self.signature_index_bytes),
            ("neighborhood_index", self.neighborhood_index_bytes),
        ]
    }
}

/// The AMbER query engine (paper §3).
///
/// The loaded graph is held behind an [`Arc`] so the
/// experiment harness can share one multigraph across AMbER and every
/// baseline engine without duplicating gigabytes of adjacency.
pub struct AmberEngine {
    rdf: std::sync::Arc<RdfGraph>,
    index: IndexSet,
    offline: OfflineStats,
    /// Monotonic engine identity (see [`Self::graph_token`]).
    token: u64,
}

/// Source of unique engine identities. A pointer-based token (e.g.
/// `Arc::as_ptr` of the graph) would be ABA-prone: a session outliving its
/// engine could meet a *new* engine whose allocation reuses the old
/// address and keep serving stale cached probe results. Monotonic ids
/// cannot collide within a process.
static ENGINE_TOKENS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl AmberEngine {
    /// Offline stage from an N-Triples document.
    pub fn load_ntriples(input: &str) -> Result<Self, EngineError> {
        let sw = Stopwatch::start();
        let mut builder = GraphBuilder::new();
        builder.add_ntriples(input)?;
        Ok(Self::from_builder(builder, sw))
    }

    /// Offline stage from a Turtle document.
    pub fn load_turtle(input: &str) -> Result<Self, EngineError> {
        let sw = Stopwatch::start();
        let triples = rdf_model::parse_turtle(input).map_err(EngineError::Turtle)?;
        let mut builder = GraphBuilder::new();
        builder.add_triples(&triples);
        Ok(Self::from_builder(builder, sw))
    }

    /// Offline stage from already-parsed triples.
    pub fn from_triples<'a>(triples: impl IntoIterator<Item = &'a rdf_model::Triple>) -> Self {
        let sw = Stopwatch::start();
        let mut builder = GraphBuilder::new();
        builder.add_triples(triples);
        Self::from_builder(builder, sw)
    }

    /// Offline stage from a (possibly shared) pre-built multigraph; index
    /// building happens here.
    pub fn from_graph(rdf: impl Into<std::sync::Arc<RdfGraph>>) -> Self {
        Self::from_graph_with_build_times(rdf.into(), Duration::ZERO, Duration::ZERO)
    }

    /// Finish a builder whose triples were added since `sw` started.
    fn from_builder(builder: GraphBuilder, sw: Stopwatch) -> Self {
        let scan_intern_time = sw.elapsed();
        let rdf = builder.finish();
        let assemble_time = sw.elapsed() - scan_intern_time;
        Self::from_graph_with_build_times(rdf.into(), scan_intern_time, assemble_time)
    }

    fn from_graph_with_build_times(
        rdf: std::sync::Arc<RdfGraph>,
        scan_intern_time: Duration,
        assemble_time: Duration,
    ) -> Self {
        let sw = Stopwatch::start();
        let index = IndexSet::build(&rdf);
        let index_build_time = sw.elapsed();
        let build = index.build_stats();
        Self {
            offline: OfflineStats {
                database_build_time: scan_intern_time + assemble_time,
                database_bytes: rdf.heap_size(),
                index_build_time,
                index_bytes: index.heap_size(),
                scan_intern_time,
                assemble_time,
                attribute_index_time: build.attribute_time,
                signature_index_time: build.signature_time,
                neighborhood_index_time: build.neighborhood_time,
                dictionary_bytes: rdf.dictionaries().heap_size(),
                adjacency_bytes: rdf.graph().adjacency_heap_size(),
                attribute_list_bytes: rdf.graph().attribute_heap_size(),
                attribute_index_bytes: index.attribute.heap_size(),
                signature_index_bytes: index.signature.heap_size(),
                neighborhood_index_bytes: index.neighborhood.heap_size(),
            },
            rdf,
            index,
            token: ENGINE_TOKENS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The loaded data (multigraph + dictionaries).
    pub fn rdf(&self) -> &RdfGraph {
        &self.rdf
    }

    /// A shared handle to the loaded data (for co-hosted baseline engines).
    pub fn shared_rdf(&self) -> std::sync::Arc<RdfGraph> {
        std::sync::Arc::clone(&self.rdf)
    }

    /// The index ensemble `I`.
    pub fn index(&self) -> &IndexSet {
        &self.index
    }

    /// Offline-stage measurements (Table 5).
    pub fn offline_stats(&self) -> OfflineStats {
        self.offline
    }

    /// Compile SPARQL text against this engine's dictionaries in one pass
    /// ([`CompiledQuery::compile`]): the id key the result cache looks up,
    /// the header, and the reason a query naming an absent
    /// constant is empty. The result is bound to this engine — run it with
    /// [`QueryRequest::compiled`](crate::QueryRequest::compiled); another
    /// engine refuses it with [`EngineError::StalePlan`].
    pub fn compile(&self, sparql: &str) -> Result<CompiledQuery, EngineError> {
        Ok(CompiledQuery::compile(sparql, &self.rdf, self.token)?)
    }

    /// [`Self::compile`] for an already-parsed query (its patterns are
    /// replayed into the same compiler, so the key equals the text's).
    pub fn compile_parsed(
        &self,
        query: &amber_sparql::SelectQuery,
    ) -> Result<CompiledQuery, EngineError> {
        Ok(CompiledQuery::from_ast(query, &self.rdf, self.token)?)
    }

    /// Derive the full immutable execution plan of a parsed query against
    /// this engine: id key, query multigraph, core/satellite decomposition,
    /// processing order, probe plans and seed candidates — everything
    /// execution needs besides scratch state. The plan is engine-bound
    /// (executing it elsewhere returns [`EngineError::StalePlan`]) and
    /// valid for this engine's lifetime (the loaded data is immutable).
    /// Every call derives a fresh plan: a prepared statement is held by its
    /// caller, who prepares it once.
    pub fn prepare(
        &self,
        query: &amber_sparql::SelectQuery,
    ) -> Result<Arc<PreparedPlan>, EngineError> {
        self.prepare_compiled(&self.compile_parsed(query)?)
    }

    /// Compile SPARQL text and [`prepare`](Self::prepare) it.
    pub fn prepare_sparql(&self, sparql: &str) -> Result<Arc<PreparedPlan>, EngineError> {
        self.prepare_compiled(&self.compile(sparql)?)
    }

    /// Plan `compiled` under the panic quarantine: a panic while planning
    /// is [`EngineError::Internal`], as it is inside a query.
    fn prepare_compiled(&self, compiled: &CompiledQuery) -> Result<Arc<PreparedPlan>, EngineError> {
        quarantined("query planning", || {
            Ok(self.build_plan(compiled, &mut SearchArenas::new()))
        })
        .map(Arc::new)
    }

    /// Derive `compiled`'s plan, computing `ProcessVertex` in `arenas`.
    fn build_plan(&self, compiled: &CompiledQuery, arenas: &mut SearchArenas) -> PreparedPlan {
        PreparedPlan::from_compiled(compiled, &self.rdf, &self.index, self.token, arenas)
    }

    /// Execute `query` with the session's flight recorder forced on and
    /// return the outcome plus an `EXPLAIN ANALYZE`-style report: the
    /// plan summary followed by the recorded span tree and cache
    /// trail (both through the
    /// [`Explain`](crate::Explain) builder).
    ///
    /// The session's tracing knobs are restored afterwards.
    pub fn explain_analyze(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<(QueryOutcome, String), EngineError> {
        // The plan is built once, in the session's arenas and under the
        // panic quarantine, and runs as a prepared source, so the report
        // and the trace describe one plan.
        session.bind_graph(self.graph_token());
        let compiled = self.compile_parsed(query)?;
        let plan = quarantined("query planning", || {
            Ok(self.build_plan(&compiled, session.search_state()))
        })
        .map(Arc::new)?;
        let (was_enabled, threshold) = session.flight_recorder().config();
        session.configure_tracing(true, threshold);
        let outcome = self.run_source(&QuerySource::Prepared(&plan), options, session);
        session.configure_tracing(was_enabled, threshold);
        let outcome = outcome?;
        let report = crate::explain::QueryPlan::explain_prepared(&plan);
        let text = match session.flight_recorder().last() {
            Some(trace) => crate::explain::Explain::analyze(&report, trace),
            None => {
                let mut explain = crate::explain::Explain::new();
                explain.plan(&report);
                explain.render()
            }
        };
        Ok((outcome, text))
    }

    /// A reusable [`QuerySession`] with a result cache of
    /// `options.result_cache_capacity` (the one place that knob is read).
    /// Feed it to [`Self::run_in`] to amortize arenas and repeated answers
    /// across many queries.
    pub fn create_session(&self, options: &ExecOptions) -> QuerySession {
        let mut session = QuerySession::new(options.result_cache_capacity);
        session.bind_graph(self.graph_token());
        session
    }

    /// A single-query scratch session: fresh arenas and **no** result
    /// cache — a one-shot execution would only cold-miss and store into a
    /// structure dropped microseconds later. This is what keeps a one-shot
    /// [`Self::run`] cheap per call.
    pub(crate) fn transient_session(&self) -> QuerySession {
        let mut session = QuerySession::new(0);
        session.bind_graph(self.graph_token());
        session
    }

    /// Identity of this engine (and thus the graph + indexes sessions cache
    /// against) — unique per process lifetime, never reused, so a session
    /// can always tell "different engine" apart from "same engine".
    /// Conservatively distinct even for two engines sharing one graph (a
    /// rebind then clears a cache that would have stayed valid — correct,
    /// just cold).
    pub(crate) fn graph_token(&self) -> u64 {
        self.token
    }

    /// The query envelope: every `run*` entry point,
    /// [`Self::explain_analyze`] and the [`SparqlEngine`] impl execute
    /// through it. It binds the session and opens the query's bookkeeping,
    /// runs everything else — the parse of a text source, the stale-plan
    /// check of a prepared one, planning and execution — inside one panic
    /// quarantine, and closes the bookkeeping. So every request is counted
    /// exactly once, failures included, and a panic anywhere in a query
    /// poisons only that query: the session and engine stay usable.
    pub(crate) fn run_source(
        &self,
        source: &QuerySource<'_>,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, EngineError> {
        let sw = Stopwatch::start();
        session.bind_graph(self.graph_token());
        session.begin_query();
        let outcome = quarantined("query execution", || {
            self.execute_source(source, options, session, &sw)
        });
        session.end_query(outcome.as_ref().ok().map(|o| o.status), sw.elapsed());
        outcome
    }

    /// Open the query's trace, then compile a text or parsed source or
    /// check a compiled or prepared one's engine, and [`Self::answer`] it.
    fn execute_source(
        &self,
        source: &QuerySource<'_>,
        options: &ExecOptions,
        session: &mut QuerySession,
        sw: &Stopwatch,
    ) -> Result<QueryOutcome, EngineError> {
        // A compiled source was compiled by its caller, outside this trace.
        let compile_sw = (session.recorder_mut().is_active()
            && !matches!(source, QuerySource::Compiled(_)))
        .then(Stopwatch::start);
        let compiled_here;
        let compiled = match *source {
            QuerySource::Prepared(plan) => {
                if session.recorder_mut().is_active() {
                    let label = format!("prepared {:#018x}", plan.fingerprint());
                    session.recorder_mut().begin(label);
                    session.recorder_mut().set_fingerprint(plan.fingerprint());
                }
                if plan.engine_token() != self.token {
                    return Err(EngineError::StalePlan);
                }
                return self.answer(Ready::Prepared(plan), options, session, sw);
            }
            QuerySource::Compiled(query) => query,
            QuerySource::Parsed(query) => match self.compile_parsed(query) {
                Ok(compiled) => {
                    compiled_here = compiled;
                    &compiled_here
                }
                Err(e) => {
                    let label = format!("select[{} vars]", query.output_variables().len());
                    session.recorder_mut().begin(label);
                    return Err(e);
                }
            },
            QuerySource::Sparql(text) => match self.compile(text) {
                Ok(compiled) => {
                    compiled_here = compiled;
                    &compiled_here
                }
                Err(e) => {
                    session.recorder_mut().begin("unparsable query");
                    return Err(e);
                }
            },
        };
        if session.recorder_mut().is_active() {
            let label = format!("select[{} vars]", compiled.output_len());
            session.recorder_mut().begin(label);
            session
                .recorder_mut()
                .set_fingerprint(compiled.fingerprint());
            if let Some(s) = compile_sw {
                session.recorder_mut().span("compile", 0, s.elapsed());
            }
        }
        if compiled.owner() != self.token {
            return Err(EngineError::StalePlan);
        }
        self.answer(Ready::Compiled(compiled), options, session, sw)
    }

    /// Serve `query` from the session's result cache, or plan it (a
    /// compiled query; a prepared one brings its plan), run it and store
    /// the outcome if it completed.
    fn answer(
        &self,
        query: Ready<'_>,
        options: &ExecOptions,
        session: &mut QuerySession,
        sw: &Stopwatch,
    ) -> Result<QueryOutcome, EngineError> {
        // The outcome always carries the *live caller's* variable names:
        // alpha-equivalent queries share one entry but keep their headers.
        let (key, fingerprint, variables) = match query {
            Ready::Compiled(compiled) => (
                compiled.key(),
                compiled.fingerprint(),
                compiled.output_variables(),
            ),
            Ready::Prepared(plan) => (plan.key(), plan.fingerprint(), plan.variables().to_vec()),
        };
        let cached = session.result_cache_mut().is_enabled();
        if cached {
            let results = session.result_cache_mut();
            if let Some(hit) = results.lookup(key, fingerprint, self.token, options) {
                // Zero-copy serve: the outcome's rows are the cached `Arc`
                // allocation itself (only Completed outcomes are ever
                // stored, so the status is unconditional).
                let outcome = QueryOutcome {
                    status: QueryStatus::Completed,
                    embedding_count: hit.embedding_count,
                    variables,
                    bindings: hit.rows,
                    elapsed: sw.elapsed(),
                };
                session.recorder_mut().note_cache("result:hit");
                return Ok(outcome);
            }
            results.note_miss();
            session.recorder_mut().note_cache("result:miss");
        }
        let built;
        let plan = match query {
            Ready::Prepared(plan) => plan,
            Ready::Compiled(compiled) => {
                let plan_sw = session.recorder_mut().is_recording().then(Stopwatch::start);
                built = self.build_plan(compiled, session.search_state());
                if let Some(s) = plan_sw {
                    session.recorder_mut().span("plan", 0, s.elapsed());
                }
                &built
            }
        };
        let outcome = self.run_plan(plan, variables, options, session, sw)?;
        let results = session.result_cache_mut();
        let stored = if !cached || !outcome.status.is_complete() {
            // Partial outcomes (timeout, cancellation) are *bypassed*,
            // never stored: a truncated count must not be served to a
            // repeat.
            results.note_bypass();
            false
        } else {
            // Storing shares the outcome's row `Arc` — no deep copy.
            results.store(key, fingerprint, self.token, options, &outcome);
            true
        };
        session.recorder_mut().note_cache(if stored {
            "result:store"
        } else {
            "result:bypass"
        });
        Ok(outcome)
    }

    /// The online stage proper: run a prepared plan's component searches
    /// and assemble the outcome. Consumes only `&PreparedPlan` — nothing
    /// about the query is re-derived here (an empty component list means
    /// the answer was proven empty at prepare time).
    fn run_plan(
        &self,
        plan: &PreparedPlan,
        variables: Vec<Box<str>>,
        options: &ExecOptions,
        session: &mut QuerySession,
        sw: &Stopwatch,
    ) -> Result<QueryOutcome, EngineError> {
        let (qg, components) = (plan.query_graph(), plan.components());
        if components.is_empty() {
            return Ok(QueryOutcome::empty(variables, sw.elapsed()));
        }

        let exec_sw = session.recorder_mut().is_recording().then(Stopwatch::start);
        let deadline = Deadline::new(options.timeout);
        // Enough retained solutions to materialize `max_results` rows: every
        // solution denotes at least one embedding. DISTINCT must keep
        // everything (deduplication can consume arbitrarily many solutions).
        let solution_cap = if options.count_only {
            Some(0)
        } else if qg.distinct() {
            None
        } else {
            options.max_results
        };
        let config = MatchConfig {
            deadline: &deadline,
            solution_cap,
            cancel: options.cancel.as_ref(),
        };

        let mut matches: Vec<ComponentMatch> = Vec::new();
        let mut abort: Option<Abort> = None;
        for (ci, prep) in components.iter().enumerate() {
            let matcher = ComponentMatcher::from_prep(qg, self.rdf.graph(), &self.index, prep);
            let span_sw = exec_sw.as_ref().map(|_| Stopwatch::start());
            // A panic inside the search (the chaos harness injects them; a
            // genuine matcher bug would look the same) is quarantined to
            // this query. Arena state abandoned mid-panic is only scratch
            // memory: every later run re-`prepare`s and rewrites it, so
            // resuming with the same session after the error is sound.
            let arenas = session.search_state();
            let result = quarantined("sequential matcher", || {
                Ok(matcher.run_on_with(matcher.initial_candidates(), &config, arenas))
            })?;
            crate::telemetry::note_component_run(result.nodes, prep.initial_candidates().len());
            if let Some(s) = span_sw {
                session
                    .recorder_mut()
                    .span(format!("component[{ci}]"), 1, s.elapsed());
            }
            abort = abort.max(result.abort);
            let empty = result.count == 0;
            matches.push(result);
            if empty || abort.is_some() {
                break; // zero answers or blown budget: no need to continue
            }
        }

        if abort == Some(Abort::Cancelled) {
            crate::telemetry::note_cancellation();
        }

        let partial = abort.is_some();
        let embedding_count = if matches.iter().any(|m| m.count == 0) {
            0
        } else {
            total_count(&matches)
        };

        if let Some(abort) = abort {
            session.recorder_mut().set_abort(match abort {
                Abort::TimedOut => "timed out",
                Abort::Cancelled => "cancelled",
            });
        }

        let bindings = if options.count_only || partial || embedding_count == 0 {
            Bindings::default()
        } else {
            let mat_sw = exec_sw.as_ref().map(|_| Stopwatch::start());
            let bindings = Bindings::new(materialize_bindings(
                qg,
                &self.rdf,
                &matches,
                options.max_results,
                qg.distinct(),
            ));
            if let Some(s) = mat_sw {
                session.recorder_mut().span("materialize", 1, s.elapsed());
            }
            bindings
        };
        if let Some(s) = exec_sw {
            session.recorder_mut().span("execute", 0, s.elapsed());
        }

        Ok(QueryOutcome {
            status: match abort {
                None => QueryStatus::Completed,
                Some(Abort::TimedOut) => QueryStatus::TimedOut,
                Some(Abort::Cancelled) => QueryStatus::Cancelled,
            },
            embedding_count,
            variables,
            bindings,
            elapsed: sw.elapsed(),
        })
    }
}

/// Run `f` under the panic quarantine: a panic in it is counted as
/// trapped and comes back as [`EngineError::Internal`] naming `task`, so
/// it poisons only the query it happened in.
fn quarantined<T>(
    task: &str,
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        crate::telemetry::note_trapped_panic();
        Err(EngineError::Internal {
            task: task.to_string(),
            payload: payload_message(&*payload),
        })
    })
}

/// A query `AmberEngine::answer` can look up: compiled (planned on a
/// result-cache miss) or already prepared.
#[derive(Clone, Copy)]
enum Ready<'a> {
    Compiled(&'a CompiledQuery),
    Prepared(&'a PreparedPlan),
}

impl SparqlEngine for AmberEngine {
    fn name(&self) -> &'static str {
        "AMbER"
    }

    fn execute_query(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.run_source(
            &QuerySource::Parsed(query),
            options,
            &mut self.transient_session(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, QueryRequest};
    use amber_multigraph::paper::{
        paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS, PREFIX_X, PREFIX_Y,
    };
    use amber_sparql::SelectQuery;

    fn engine() -> AmberEngine {
        AmberEngine::from_graph(paper_graph())
    }

    /// One request per query, every one under `options`.
    fn parsed_requests<'a>(
        queries: &'a [SelectQuery],
        options: &ExecOptions,
    ) -> Vec<QueryRequest<'a>> {
        queries
            .iter()
            .map(|q| QueryRequest::parsed(q).with_options(options.clone()))
            .collect()
    }

    /// Run every request through `run_in` on one fresh session sized from
    /// the first request's options — what a batch is. The session's
    /// counters are the batch's.
    fn run_on_one_session(
        engine: &AmberEngine,
        requests: &[QueryRequest<'_>],
    ) -> (Vec<Result<QueryOutcome, Error>>, QuerySession) {
        let mut session = engine.create_session(requests[0].options());
        let outcomes = requests
            .iter()
            .map(|request| engine.run_in(request, &mut session))
            .collect();
        (outcomes, session)
    }

    /// Outcomes that completed within budget.
    fn completed(outcomes: &[Result<QueryOutcome, Error>]) -> usize {
        outcomes
            .iter()
            .filter(|o| matches!(o, Ok(o) if o.status == QueryStatus::Completed))
            .count()
    }

    #[test]
    fn paper_query_end_to_end() {
        let engine = engine();
        let outcome = engine
            .run(&QueryRequest::sparql(&paper_query_text()))
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::Completed);
        assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        assert_eq!(outcome.bindings.len(), 2);
        assert_eq!(outcome.variables.len(), 7);

        // Both embeddings agree on everything but ?X0 (homomorphism: Amy
        // may appear as both X0 and X3).
        let x0: Vec<&str> = outcome.bindings.iter().map(|row| row[0].as_ref()).collect();
        assert!(x0.contains(&format!("{PREFIX_X}Amy_Winehouse").as_str()));
        assert!(x0.contains(&format!("{PREFIX_X}Christopher_Nolan").as_str()));
        for row in &outcome.bindings {
            assert_eq!(row[1], format!("{PREFIX_X}London").into());
            assert_eq!(row[3], format!("{PREFIX_X}Amy_Winehouse").into());
            assert_eq!(row[5], format!("{PREFIX_X}Music_Band").into());
        }
    }

    #[test]
    fn count_only_skips_materialization() {
        let engine = engine();
        let outcome = engine
            .run(&QueryRequest::sparql(&paper_query_text()).counting())
            .unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert!(outcome.bindings.is_empty());
    }

    #[test]
    fn max_results_caps_bindings_not_count() {
        let engine = engine();
        let outcome = engine
            .run(&QueryRequest::sparql(&paper_query_text()).with_max_results(1))
            .unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert_eq!(outcome.bindings.len(), 1);
    }

    #[test]
    fn unknown_entities_give_empty_completed() {
        let engine = engine();
        let outcome = engine
            .run(&QueryRequest::sparql(
                "SELECT * WHERE { ?a <http://nowhere/p> ?b . }",
            ))
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::Completed);
        assert_eq!(outcome.embedding_count, 0);

        // Two queries that differ only in which absent IRI they name share
        // no answer, and each EXPLAIN names its own IRI.
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        for _ in 0..2 {
            for iri in ["http://nowhere/a", "http://nowhere/b"] {
                let text = format!("SELECT * WHERE {{ ?a <{PREFIX_Y}livedIn> <{iri}> . }}");
                let request = QueryRequest::sparql(&text).with_options(options.clone());
                assert_eq!(
                    engine
                        .run_in(&request, &mut session)
                        .unwrap()
                        .embedding_count,
                    0
                );
                let explained =
                    crate::QueryPlan::explain_prepared(&engine.prepare_sparql(&text).unwrap());
                let reason = explained.unsatisfiable.unwrap();
                assert!(reason.contains(&format!("<{iri}>")), "{reason}");
            }
        }
        let stats = session.result_stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
    }

    #[test]
    fn ground_query_acts_as_boolean() {
        let engine = engine();
        // True ground pattern alongside a variable pattern.
        let q = format!(
            "SELECT * WHERE {{ <{PREFIX_X}London> <{PREFIX_Y}isPartOf> <{PREFIX_X}England> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        let outcome = engine.run(&QueryRequest::sparql(&q)).unwrap();
        assert_eq!(outcome.embedding_count, 2); // Amy, Christopher

        // False ground pattern: everything collapses to zero.
        let q = format!(
            "SELECT * WHERE {{ <{PREFIX_X}England> <{PREFIX_Y}isPartOf> <{PREFIX_X}London> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        let outcome = engine.run(&QueryRequest::sparql(&q)).unwrap();
        assert_eq!(outcome.embedding_count, 0);
    }

    #[test]
    fn disconnected_query_is_cartesian_product() {
        let engine = engine();
        // 2 wasBornIn pairs × 2 livedIn-US people = 4.
        let q = format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . \
             ?q <{PREFIX_Y}livedIn> <{PREFIX_X}United_States> . }}"
        );
        let outcome = engine.run(&QueryRequest::sparql(&q)).unwrap();
        assert_eq!(outcome.embedding_count, 4);
        assert_eq!(outcome.bindings.len(), 4);
    }

    #[test]
    fn distinct_deduplicates_projection() {
        let engine = engine();
        // Two people born in London; projecting the city gives 2 identical
        // rows without DISTINCT, 1 with.
        let plain = format!("SELECT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}");
        let outcome = engine.run(&QueryRequest::sparql(&plain)).unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert_eq!(outcome.bindings.len(), 2);

        let distinct = format!("SELECT DISTINCT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}");
        let outcome = engine.run(&QueryRequest::sparql(&distinct)).unwrap();
        assert_eq!(outcome.embedding_count, 2, "count keeps bag semantics");
        assert_eq!(outcome.bindings.len(), 1);
    }

    #[test]
    fn zero_timeout_reports_timed_out() {
        let engine = engine();
        let outcome = engine
            .run(&QueryRequest::sparql(&paper_query_text()).with_timeout(Duration::ZERO))
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::TimedOut);
    }

    #[test]
    fn parse_errors_propagate() {
        let engine = engine();
        assert!(engine.run(&QueryRequest::sparql("not sparql")).is_err());
    }

    #[test]
    fn offline_stats_populated() {
        let engine = engine();
        let stats = engine.offline_stats();
        assert!(stats.database_bytes > 0);
        assert!(stats.index_bytes > 0);
        // The breakdowns account for the totals exactly.
        let parts: usize = stats.parts().iter().map(|(_, bytes)| bytes).sum();
        assert_eq!(parts, stats.database_bytes + stats.index_bytes);
        let stages: Duration = stats.stages().iter().map(|(_, time)| *time).sum();
        assert!(stages <= stats.database_build_time + stats.index_build_time);
        assert_eq!(
            stats.scan_intern_time + stats.assemble_time,
            stats.database_build_time
        );
    }

    #[test]
    fn batch_matches_sequential_execution() {
        let engine = engine();
        let q1 = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let q2 = amber_sparql::parse_select(&format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        ))
        .unwrap();
        // Duplicates on purpose: the session must not leak state between
        // repeats of the same query.
        let queries = vec![q1.clone(), q2.clone(), q1.clone(), q2, q1];
        for options in [ExecOptions::default(), ExecOptions::batch()] {
            let requests = parsed_requests(&queries, &options);
            let (outcomes, _) = run_on_one_session(&engine, &requests);
            assert_eq!(outcomes.len(), queries.len());
            assert_eq!(completed(&outcomes), queries.len());
            for (request, outcome) in requests.iter().zip(&outcomes) {
                let batched = outcome.as_ref().unwrap();
                let solo = engine.run(request).unwrap();
                assert_eq!(batched.embedding_count, solo.embedding_count);
                assert_eq!(batched.status, solo.status);
                assert_eq!(batched.variables, solo.variables);
                let mut a = batched.bindings.to_vec();
                let mut b = solo.bindings.to_vec();
                a.sort();
                b.sort();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn batch_stats_account_for_the_batch() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let queries = vec![q; 6];
        let requests = parsed_requests(&queries, &ExecOptions::batch());
        let (outcomes, session) = run_on_one_session(&engine, &requests);
        assert_eq!(session.queries_executed(), 6);
        assert_eq!(completed(&outcomes), 6);
        let results = session.result_stats();
        assert_eq!((results.misses, results.hits), (1, 5), "{results:?}");
    }

    #[test]
    fn session_survives_reuse_across_batches() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let request = QueryRequest::parsed(&q).with_options(options);
        let first = engine.run_in(&request, &mut session).unwrap();
        let second = engine.run_in(&request, &mut session).unwrap();
        assert_eq!(session.queries_executed(), 2);
        assert_eq!(first.embedding_count, second.embedding_count);
    }

    #[test]
    fn batch_sparql_isolates_parse_failures() {
        let engine = engine();
        let good = paper_query_text();
        let (outcomes, session) = run_on_one_session(
            &engine,
            &[
                QueryRequest::sparql(&good),
                QueryRequest::sparql("this is not sparql"),
                QueryRequest::sparql(&good),
            ],
        );
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
        assert_eq!(completed(&outcomes), 2);
        assert_eq!(session.queries_executed(), 3, "the failure is counted");
    }

    #[test]
    fn foreign_session_is_rebound_not_poisoned() {
        // A session warmed on one engine must still give correct answers on
        // another (its caches are cleared on rebind).
        let engine_a = engine();
        let engine_b = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine_a.create_session(&options);
        let request = QueryRequest::parsed(&q).with_options(options);
        let a = engine_a.run_in(&request, &mut session).unwrap();
        let b = engine_b.run_in(&request, &mut session).unwrap();
        assert_eq!(a.embedding_count, b.embedding_count);
    }

    #[test]
    fn prepared_execution_matches_adhoc() {
        let engine = engine();
        let plan = engine.prepare_sparql(&paper_query_text()).unwrap();
        let adhoc = engine
            .run(&QueryRequest::sparql(&paper_query_text()))
            .unwrap();
        let prepared = engine.run(&QueryRequest::prepared(&plan)).unwrap();
        assert_eq!(prepared.embedding_count, adhoc.embedding_count);
        assert_eq!(prepared.variables, adhoc.variables);
        let (mut a, mut b) = (prepared.bindings.to_vec(), adhoc.bindings.to_vec());
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_plan_refuses_foreign_engine() {
        let engine_a = engine();
        let engine_b = engine();
        let plan = engine_a.prepare_sparql(&paper_query_text()).unwrap();
        assert!(matches!(
            engine_b.run(&QueryRequest::prepared(&plan)),
            Err(Error::Engine(EngineError::StalePlan))
        ));
    }

    #[test]
    fn result_cache_hits_on_alpha_equivalent_repeats() {
        let engine = engine();
        let q1 = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let renamed = paper_query_text().replace("?X", "?Renamed");
        let q2 = amber_sparql::parse_select(&renamed).unwrap();
        let options = ExecOptions::batch();
        let queries = [q1.clone(), q2, q1];
        let (outcomes, session) = run_on_one_session(&engine, &parsed_requests(&queries, &options));
        assert_eq!(completed(&outcomes), 3);
        let results = session.result_stats();
        assert_eq!(results.misses, 1, "one execution");
        assert_eq!(results.hits, 2, "two alpha-equivalent reuses");
        // The renamed query must still answer under *its own* headers.
        let renamed_outcome = outcomes[1].as_ref().unwrap();
        assert!(renamed_outcome.variables[0].contains("Renamed"));

        // A prefixed-name spelling and the full-IRI spelling share an
        // entry.
        let full = format!("SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}");
        let prefixed = format!(
            "PREFIX y: <{PREFIX_Y}> PREFIX : <{PREFIX_X}>\nSELECT * WHERE {{ ?p y:wasBornIn :London }}"
        );
        let (_, session) = run_on_one_session(
            &engine,
            &[
                QueryRequest::sparql(&full).with_options(options.clone()),
                QueryRequest::sparql(&prefixed).with_options(options.clone()),
            ],
        );
        let results = session.result_stats();
        assert_eq!(results.misses, 1);
        assert_eq!(results.hits, 1);
    }

    #[test]
    fn result_cache_serves_verbatim_repeats() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let queries = vec![q; 4];
        let (outcomes, session) = run_on_one_session(&engine, &parsed_requests(&queries, &options));
        assert_eq!(completed(&outcomes), 4);
        let results = session.result_stats();
        assert_eq!(results.misses, 1);
        assert_eq!(results.hits, 3);
        let counts: Vec<u128> = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().embedding_count)
            .collect();
        assert_eq!(counts, vec![PAPER_QUERY_EMBEDDINGS as u128; 4]);
        let rows: Vec<usize> = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().bindings.len())
            .collect();
        assert_eq!(rows, vec![2; 4], "served bindings are complete");
    }

    #[test]
    fn timed_out_result_is_never_served_to_a_repeat() {
        // Regression guard for the cache-poisoning bug class: a
        // deadline-expired (partial) outcome must be *bypassed*, so an
        // uncapped repeat of the same query recomputes and gets the full
        // answer.
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let plain = QueryRequest::parsed(&q).with_options(options);
        let strangled = plain.clone().with_timeout(Duration::ZERO);

        let first = engine.run_in(&strangled, &mut session).unwrap();
        assert_eq!(first.status, QueryStatus::TimedOut);

        let repeat = engine.run_in(&plain, &mut session).unwrap();
        assert_eq!(repeat.status, QueryStatus::Completed);
        assert_eq!(repeat.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        let stats = session.result_stats();
        assert!(
            stats.bypasses >= 1,
            "the timed-out outcome must be recorded as a bypass: {stats:?}"
        );

        // The asymmetry is deliberate: once a *completed* outcome is
        // cached, even a zero-budget repeat may be served the full answer
        // (a complete result is correct under any budget) — but a partial
        // result never flows the other way.
        let strangled_repeat = engine.run_in(&strangled, &mut session).unwrap();
        assert_eq!(strangled_repeat.status, QueryStatus::Completed);
        assert_eq!(
            strangled_repeat.embedding_count,
            PAPER_QUERY_EMBEDDINGS as u128
        );
    }

    #[test]
    fn capped_result_is_never_served_to_an_uncapped_repeat() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let request = QueryRequest::parsed(&q).with_options(options);
        let capped = engine
            .run_in(&request.clone().with_max_results(1), &mut session)
            .unwrap();
        assert_eq!(capped.bindings.len(), 1);
        let uncapped = engine.run_in(&request, &mut session).unwrap();
        assert_eq!(uncapped.bindings.len(), 2, "caps are part of the cache key");
    }

    #[test]
    fn result_cache_hits_share_rows_without_copying() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let request = QueryRequest::parsed(&q).with_options(options);
        let first = engine.run_in(&request, &mut session).unwrap();
        let second = engine.run_in(&request, &mut session).unwrap();
        let third = engine.run_in(&request, &mut session).unwrap();
        assert_eq!(session.result_stats().hits, 2, "verbatim repeats hit");
        // The zero-copy contract: every served outcome aliases the one row
        // allocation the miss stored.
        assert!(
            second.bindings.shares_rows(&first.bindings),
            "a hit must serve the stored Arc allocation, not a clone"
        );
        assert!(third.bindings.shares_rows(&first.bindings));
        assert_eq!(second.embedding_count, first.embedding_count);
        assert_eq!(second.variables, first.variables);
    }

    #[test]
    fn transient_sessions_skip_the_per_call_cache_build() {
        // One-shot `run` sessions must not carry a cache that dies with
        // the call.
        let engine = engine();
        let mut transient = engine.transient_session();
        assert!(
            !transient.result_cache_mut().is_enabled(),
            "transient sessions must not build a result cache"
        );
        // Prepared one-shots still work and stay correct through it.
        let plan = engine.prepare_sparql(&paper_query_text()).unwrap();
        let outcome = engine
            .run(&QueryRequest::prepared(&plan).with_options(ExecOptions::batch()))
            .unwrap();
        assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
    }

    #[test]
    fn prepare_keeps_caller_spellings() {
        let engine = engine();
        let p1 = engine.prepare_sparql(&paper_query_text()).unwrap();
        // An alpha-equivalent spelling shares the canonical form but gets
        // its *own* headers back, never the first caller's.
        let renamed = paper_query_text().replace("?X", "?Other");
        let p2 = engine.prepare_sparql(&renamed).unwrap();
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert!(p1.variables()[0].contains('X'));
        assert!(p2.variables()[0].contains("Other"));
    }

    #[test]
    fn batch_prepared_matches_batch_parsed() {
        let engine = engine();
        let q1 = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let q2 = amber_sparql::parse_select(&format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        ))
        .unwrap();
        let queries = vec![q1.clone(), q2.clone(), q1];
        let options = ExecOptions::batch();
        let plans: Vec<_> = queries.iter().map(|q| engine.prepare(q).unwrap()).collect();
        let (parsed, _) = run_on_one_session(&engine, &parsed_requests(&queries, &options));
        let prepared: Vec<_> = plans
            .iter()
            .map(|plan| QueryRequest::prepared(plan).with_options(options.clone()))
            .collect();
        let (prepared, _) = run_on_one_session(&engine, &prepared);
        assert_eq!(completed(&prepared), 3);
        for (a, b) in parsed.iter().zip(&prepared) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.embedding_count, b.embedding_count);
            assert_eq!(a.variables, b.variables);
        }
    }
}
