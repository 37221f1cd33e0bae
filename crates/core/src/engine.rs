//! The AMbER engine facade: offline stage + online query execution.

use crate::embedding::{materialize_bindings, total_count};
use crate::error::EngineError;
use crate::governor::MemoryGovernor;
use crate::matcher::{Abort, ComponentMatch, ComponentMatcher, MatchConfig};
use crate::options::ExecOptions;
use crate::plan::{canonical_fingerprint, PreparedPlan};
use crate::result::{Bindings, QueryOutcome, QueryStatus, SparqlEngine};
use crate::seeds::SeedCache;
use crate::session::{BatchOutcome, BatchStats, QuerySession};
use amber_index::IndexSet;
use amber_multigraph::{GraphBuilder, RdfGraph};
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
/// The loaded graph is held behind an [`Arc`](std::sync::Arc) so the
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

    /// Derive the full immutable execution plan of a parsed query against
    /// this engine: canonicalized cache key, query multigraph,
    /// core/satellite decomposition, processing order, probe plans and
    /// seed candidates — everything execution needs besides scratch state.
    /// The plan is engine-bound (executing it elsewhere returns
    /// [`EngineError::StalePlan`]) and valid for this engine's lifetime
    /// (the loaded data is immutable). Every call derives a fresh plan: a
    /// prepared statement is held by its caller, who prepares it once.
    pub fn prepare(
        &self,
        query: &amber_sparql::SelectQuery,
    ) -> Result<Arc<PreparedPlan>, EngineError> {
        let (canonical, fingerprint) = canonical_fingerprint(query);
        Ok(Arc::new(PreparedPlan::from_canonical(
            canonical,
            fingerprint,
            query,
            &self.rdf,
            &self.index,
            self.token,
            &mut SeedCache::disabled(),
        )?))
    }

    /// Parse SPARQL text and [`prepare`](Self::prepare) it.
    pub fn prepare_sparql(&self, sparql: &str) -> Result<Arc<PreparedPlan>, EngineError> {
        let query = amber_sparql::parse_select(sparql)?;
        self.prepare(&query)
    }

    /// [`Self::prepare`] through a session's plan cache: an
    /// alpha-equivalent repeat returns the hash-consed `Arc` without
    /// re-deriving anything; a miss builds the plan against the session's
    /// seed cache and stores it.
    pub fn prepare_in_session(
        &self,
        query: &amber_sparql::SelectQuery,
        session: &mut QuerySession,
    ) -> Result<Arc<PreparedPlan>, EngineError> {
        session.bind_graph(self.graph_token());
        let (canonical, fingerprint) = canonical_fingerprint(query);
        self.resolve_plan(query, canonical, fingerprint, true, session)
    }

    /// Execute `query` with the session's flight recorder forced on and
    /// return the outcome plus an `EXPLAIN ANALYZE`-style report: the
    /// prepared-plan summary followed by the recorded span tree and cache
    /// trail (both through the
    /// [`Explain`](crate::Explain) builder).
    ///
    /// The session's tracing knobs are restored afterwards. Under
    /// `AMBER_OBS=off` no spans are captured and the report is the plan
    /// summary alone.
    pub fn explain_analyze(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<(QueryOutcome, String), EngineError> {
        let plan = self.prepare_in_session(query, session)?;
        let (was_enabled, threshold) = session.flight_recorder().config();
        session.configure_tracing(true, threshold);
        let outcome = self.execute_prepared_in_session(&plan, options, session);
        session.configure_tracing(was_enabled, threshold);
        let outcome = outcome?;
        let report = crate::explain::QueryPlan::explain_prepared(&plan);
        let text = match session.flight_recorder().last() {
            Some(trace) if amber_obs::obs_enabled() => {
                crate::explain::Explain::analyze(&report, trace)
            }
            _ => {
                let mut explain = crate::explain::Explain::new();
                explain.plan(&report);
                explain.render()
            }
        };
        Ok((outcome, text))
    }

    /// Session plan-cache lookup, else build (and store when cached), with
    /// the canonicalization already done. `use_cache` honors the *per-call*
    /// capacity knob: a call passing `plan_cache_capacity == 0` opts out of
    /// the session's cache for that execution (the cache itself is sized
    /// once, at session creation).
    fn resolve_plan(
        &self,
        source: &amber_sparql::SelectQuery,
        canonical: amber_sparql::SelectQuery,
        fingerprint: u64,
        use_cache: bool,
        session: &mut QuerySession,
    ) -> Result<Arc<PreparedPlan>, EngineError> {
        let (plans, seeds) = session.plan_and_seed_caches();
        let cached = use_cache && plans.is_enabled();
        if cached {
            if let Some(plan) = plans.lookup(fingerprint, &canonical, self.token) {
                session.recorder_mut().note_cache("plan:hit");
                return Ok(plan);
            }
            plans.note_miss();
        } else {
            plans.note_bypass();
        }
        let built = Arc::new(PreparedPlan::from_canonical(
            canonical,
            fingerprint,
            source,
            &self.rdf,
            &self.index,
            self.token,
            seeds,
        )?);
        if cached {
            plans.insert(Arc::clone(&built));
        }
        session
            .recorder_mut()
            .note_cache(if cached { "plan:build" } else { "plan:bypass" });
        Ok(built)
    }

    /// A reusable [`QuerySession`]: plan and result caches sized from
    /// `options`, a seed cache of
    /// [`QuerySession::SEED_CACHE_CAPACITY`]. Feed it to
    /// [`Self::execute_in_session`] / [`Self::execute_batch_in_session`] to
    /// amortize arenas, seed probes, and prepared plans across many
    /// queries.
    pub fn create_session(&self, options: &ExecOptions) -> QuerySession {
        let mut session = QuerySession::new(QuerySession::SEED_CACHE_CAPACITY)
            .with_plan_caches(options.plan_cache_capacity, options.result_cache_capacity);
        session.bind_graph(self.graph_token());
        session
    }

    /// A single-query scratch session: fresh arenas and **no** caches — a
    /// one-shot execution would only cold-miss and store into structures
    /// dropped microseconds later. This is what keeps `execute_parsed` /
    /// `execute_prepared` cheap per call.
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

    /// Parse and execute SPARQL text.
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// `engine.run(&QueryRequest::sparql(text).with_options(options.clone()))`
    /// is equivalent and returns the unified [`crate::Error`] taxonomy.
    /// This wrapper stays for source compatibility.
    pub fn execute(
        &self,
        sparql: &str,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.dispatch_once(&crate::QuerySource::Sparql(sparql), options)
    }

    /// Execute a parsed query (the online stage) with transient state: a
    /// fresh single-query session per call. Equivalent to
    /// [`Self::execute_in_session`] with a session that is dropped after
    /// one query.
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// `engine.run(&QueryRequest::parsed(query).with_options(options.clone()))`
    /// is equivalent. This wrapper stays for source compatibility.
    pub fn execute_parsed(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.dispatch_once(&crate::QuerySource::Parsed(query), options)
    }

    /// Execute a parsed query against a long-lived session: the matcher
    /// borrows the session's scratch arenas (grown high-water-mark style,
    /// never shrunk) and plan construction its seed cache; when the
    /// session's plan/result caches are
    /// enabled (see [`ExecOptions::with_plan_cache`] and
    /// [`ExecOptions::with_result_cache`]), repeated queries reuse their
    /// prepared plan — or their whole completed outcome — instead of
    /// re-deriving it. Handing a session filled by a *different* engine is
    /// safe — its caches are cleared on first use here.
    ///
    /// *Prefer the unified entry point* — [`Self::run_in`] with
    /// `QueryRequest::parsed(query)` is equivalent; this method remains
    /// the internal implementation the dispatcher routes to.
    pub fn execute_in_session(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, EngineError> {
        let sw = Stopwatch::start();
        session.bind_graph(self.graph_token());
        session.begin_query();
        if session.recorder_mut().is_active() {
            let label = format!("select[{} vars]", query.output_variables().len());
            session.recorder_mut().begin(label);
        }
        // Top-level panic quarantine: plan/prep construction (including
        // session seed probes) runs outside the matcher-level trap, so a
        // panic anywhere in this query must still poison only this query —
        // the session and engine stay usable for the next one.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_query_in_session(query, options, session, &sw)
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                session.record_trapped_panic();
                Err(EngineError::Internal {
                    task: "query execution".to_string(),
                    payload: payload_message(&*payload),
                })
            }
        };
        session.end_query(outcome_status(&outcome), sw.elapsed());
        outcome
    }

    /// Resolve the query's prepared plan (through the session plan cache
    /// when enabled) and execute it (through the session result cache when
    /// enabled).
    fn execute_query_in_session(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
        session: &mut QuerySession,
        sw: &Stopwatch,
    ) -> Result<QueryOutcome, EngineError> {
        let tracing = session.recorder_mut().is_recording();
        let canon_sw = tracing.then(Stopwatch::start);
        let (canonical, fingerprint) = canonical_fingerprint(query);
        if let Some(s) = canon_sw {
            session.recorder_mut().span("canonicalize", 0, s.elapsed());
            session.recorder_mut().set_fingerprint(fingerprint);
        }
        let use_plan_cache = options.plan_cache_capacity > 0;
        let plan_sw = tracing.then(Stopwatch::start);
        let plan = self.resolve_plan(query, canonical, fingerprint, use_plan_cache, session)?;
        if let Some(s) = plan_sw {
            session.recorder_mut().span("plan", 0, s.elapsed());
        }
        // The outcome always carries the *live caller's* variable names:
        // alpha-equivalent queries share one plan but keep their headers.
        let variables: Vec<Box<str>> = query
            .output_variables()
            .into_iter()
            .map(Into::into)
            .collect();
        self.execute_plan_with_result_cache(&plan, variables, options, session, sw)
    }

    /// Result-cache consult → run → store-if-completed, shared by the text
    /// and prepared entry points.
    fn execute_plan_with_result_cache(
        &self,
        plan: &Arc<PreparedPlan>,
        variables: Vec<Box<str>>,
        options: &ExecOptions,
        session: &mut QuerySession,
        sw: &Stopwatch,
    ) -> Result<QueryOutcome, EngineError> {
        let results_enabled =
            options.result_cache_capacity > 0 && session.result_cache_mut().is_enabled();
        if results_enabled {
            if let Some(cached) = session.result_cache_mut().lookup(plan, options) {
                // Zero-copy serve: the outcome's rows are the cached `Arc`
                // allocation itself (only Completed outcomes are ever
                // stored, so the status is unconditional). `record_serve`
                // audits the sharing at runtime — copied bytes stay 0.
                let outcome = QueryOutcome {
                    status: QueryStatus::Completed,
                    embedding_count: cached.embedding_count,
                    variables,
                    bindings: cached.rows.clone(),
                    elapsed: sw.elapsed(),
                };
                session
                    .result_cache_mut()
                    .record_serve(&cached.rows, &outcome.bindings);
                session.recorder_mut().note_cache("result:hit");
                return Ok(outcome);
            }
            session.result_cache_mut().note_miss();
            session.recorder_mut().note_cache("result:miss");
        }
        let outcome = self.run_plan(plan, variables, options, session, sw)?;
        let shed = session.result_cache_shed();
        let results = session.result_cache_mut();
        if shed {
            // The memory governor reached its first ladder rung during
            // this query: drop retained outcomes and stop storing for the
            // rest of the query.
            results.shed();
        }
        let stored = if !results_enabled || shed || !outcome.status.is_complete() {
            // Partial outcomes (timeout, cancellation, blown budget) are
            // *bypassed*, never stored: a truncated count must not be
            // served to a repeat. Shedding bypasses too.
            results.note_bypass();
            false
        } else {
            // Storing shares the outcome's row `Arc` — no deep copy.
            results.store(plan, options, &outcome);
            true
        };
        session.recorder_mut().note_cache(if stored {
            "result:store"
        } else {
            "result:bypass"
        });
        Ok(outcome)
    }

    /// Execute a prepared plan with transient state (a fresh single-query
    /// session). The plan must have been produced by *this* engine.
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// `engine.run(&QueryRequest::prepared(plan).with_options(options.clone()))`
    /// is equivalent. This wrapper stays for source compatibility.
    pub fn execute_prepared(
        &self,
        plan: &Arc<PreparedPlan>,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        self.dispatch_once(&crate::QuerySource::Prepared(plan), options)
    }

    /// Execute a prepared plan against a long-lived session (the serving
    /// loop of a prepared-statement workload: prepare once, execute per
    /// request). Outcome variables are the plan's source-query names; the
    /// session result cache applies when enabled.
    ///
    /// *Prefer the unified entry point* — [`Self::run_in`] with
    /// `QueryRequest::prepared(plan)` is equivalent; this method remains
    /// the internal implementation the dispatcher routes to.
    pub fn execute_prepared_in_session(
        &self,
        plan: &Arc<PreparedPlan>,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> Result<QueryOutcome, EngineError> {
        if plan.engine_token() != self.token {
            return Err(EngineError::StalePlan);
        }
        let sw = Stopwatch::start();
        session.bind_graph(self.graph_token());
        session.begin_query();
        if session.recorder_mut().is_active() {
            let label = format!("prepared {:#018x}", plan.fingerprint());
            session.recorder_mut().begin(label);
            session.recorder_mut().set_fingerprint(plan.fingerprint());
        }
        // Same top-level quarantine as `execute_in_session`: a panic while
        // serving a prepared plan poisons only this execution.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_plan_with_result_cache(
                plan,
                plan.variables().to_vec(),
                options,
                session,
                &sw,
            )
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                session.record_trapped_panic();
                Err(EngineError::Internal {
                    task: "prepared execution".to_string(),
                    payload: payload_message(&*payload),
                })
            }
        };
        session.end_query(outcome_status(&outcome), sw.elapsed());
        outcome
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
        let governor = options.memory_budget.map(MemoryGovernor::new);
        let config = MatchConfig {
            deadline: &deadline,
            solution_cap,
            cancel: options.cancel.as_ref(),
            governor: governor.as_ref(),
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
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                matcher.run_on_with(matcher.initial_candidates(), &config, arenas)
            }));
            let result = match run {
                Ok(result) => result,
                Err(payload) => {
                    session.record_trapped_panic();
                    return Err(EngineError::Internal {
                        task: "sequential matcher".to_string(),
                        payload: payload_message(&*payload),
                    });
                }
            };
            session.record_nodes(result.nodes);
            crate::telemetry::note_seed_candidates(prep.initial_candidates().len());
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

        // Apply the governor's ladder to the session after the searches:
        // the seed cache is shed here (it survives the query otherwise),
        // result-cache shedding is flagged for the store site, and the
        // steps feed the robustness statistics.
        if let Some(governor) = &governor {
            session.apply_governor(governor);
        }
        if abort == Some(Abort::Cancelled) {
            session.record_cancellation();
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
                Abort::BudgetExceeded => "memory budget exhausted",
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
                Some(Abort::BudgetExceeded) => QueryStatus::BudgetExceeded,
            },
            embedding_count,
            variables,
            bindings,
            elapsed: sw.elapsed(),
        })
    }

    /// Execute many parsed queries against one fresh session (the batch
    /// online stage): scratch arenas and the session caches are shared
    /// across all queries of the batch, so repeated-workload streams stop
    /// paying per-query warm-up. Returns per-query outcomes in submission
    /// order plus aggregate statistics (cache hit rates, arena reuse).
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// [`Self::run_all`] over `QueryRequest::parsed` values is equivalent
    /// (and can mix text, parsed and prepared sources in one batch).
    pub fn execute_batch(
        &self,
        queries: &[amber_sparql::SelectQuery],
        options: &ExecOptions,
    ) -> BatchOutcome {
        let mut session = self.create_session(options);
        self.execute_batch_in_session(queries, options, &mut session)
    }

    /// [`Self::execute_batch`] against a caller-owned session, so cache and
    /// arena warm-up carries over from batch to batch.
    pub fn execute_batch_in_session(
        &self,
        queries: &[amber_sparql::SelectQuery],
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> BatchOutcome {
        self.run_batch(queries.iter().map(Ok::<_, EngineError>), options, session)
    }

    /// Parse-and-batch convenience: each text is parsed independently (a
    /// parse failure yields that query's `Err` entry without aborting the
    /// rest of the batch).
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// [`Self::run_all`] over `QueryRequest::sparql` values is equivalent.
    pub fn execute_batch_sparql(&self, sparql: &[&str], options: &ExecOptions) -> BatchOutcome {
        let mut session = self.create_session(options);
        let parsed: Vec<Result<amber_sparql::SelectQuery, EngineError>> = sparql
            .iter()
            .map(|text| amber_sparql::parse_select(text).map_err(EngineError::from))
            .collect();
        self.run_batch(parsed.into_iter(), options, &mut session)
    }

    /// Execute many *prepared* plans against one fresh session — the
    /// prepared-statement serving loop in batch form. Plans prepared on a
    /// different engine yield per-query [`EngineError::StalePlan`] entries
    /// without aborting the rest.
    ///
    /// *Deprecated in favor of the unified entry point* —
    /// [`Self::run_all`] over `QueryRequest::prepared` values is
    /// equivalent.
    pub fn execute_batch_prepared(
        &self,
        plans: &[Arc<PreparedPlan>],
        options: &ExecOptions,
    ) -> BatchOutcome {
        let mut session = self.create_session(options);
        self.execute_batch_prepared_in_session(plans, options, &mut session)
    }

    /// [`Self::execute_batch_prepared`] against a caller-owned session.
    pub fn execute_batch_prepared_in_session(
        &self,
        plans: &[Arc<PreparedPlan>],
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> BatchOutcome {
        self.drive_batch(
            plans.len(),
            options,
            session,
            |engine, i, options, session| {
                engine.execute_prepared_in_session(&plans[i], options, session)
            },
        )
    }

    /// The shared batch driver: runs each (possibly already-failed) input
    /// through the session, tallies per-outcome counters, and snapshots the
    /// session stats so the report covers only *this batch's* share — a
    /// session reused across batches yields per-batch numbers.
    fn run_batch<Q: std::borrow::Borrow<amber_sparql::SelectQuery>>(
        &self,
        inputs: impl ExactSizeIterator<Item = Result<Q, EngineError>>,
        options: &ExecOptions,
        session: &mut QuerySession,
    ) -> BatchOutcome {
        let inputs: Vec<Result<Q, EngineError>> = inputs.collect();
        self.drive_batch(inputs.len(), options, session, {
            let mut inputs = inputs.into_iter();
            move |engine, _i, options, session| {
                inputs
                    .next()
                    .expect("one input per driven query")
                    .and_then(|q| engine.execute_in_session(q.borrow(), options, session))
            }
        })
    }

    /// The batch engine shared by the parsed and prepared entry points:
    /// runs `count` queries through `execute`, tallies per-outcome
    /// counters, and snapshots every session statistic so the report
    /// covers only *this batch's* share.
    pub(crate) fn drive_batch(
        &self,
        count: usize,
        options: &ExecOptions,
        session: &mut QuerySession,
        mut execute: impl FnMut(
            &Self,
            usize,
            &ExecOptions,
            &mut QuerySession,
        ) -> Result<QueryOutcome, EngineError>,
    ) -> BatchOutcome {
        let sw = Stopwatch::start();
        session.bind_graph(self.graph_token());
        let seeds_before = session.seed_stats();
        let plans_before = session.plan_stats();
        let search_before = session.search_stats();
        let reused_before = session.arena_reused_bytes();
        let mut outcomes = Vec::with_capacity(count);
        let mut stats = BatchStats {
            queries: count,
            ..BatchStats::default()
        };
        for i in 0..count {
            let outcome = execute(self, i, options, session);
            match &outcome {
                Ok(o) => match o.status {
                    QueryStatus::Completed => stats.completed += 1,
                    QueryStatus::TimedOut => stats.timed_out += 1,
                    QueryStatus::Cancelled => stats.cancelled += 1,
                    QueryStatus::BudgetExceeded => stats.budget_exceeded += 1,
                },
                Err(_) => stats.errors += 1,
            }
            outcomes.push(outcome);
        }
        stats.seeds = session.seed_stats().since(&seeds_before);
        stats.plans = session.plan_stats().since(&plans_before);
        stats.search = session.search_stats().since(&search_before);
        stats.arena_reused_bytes = session.arena_reused_bytes() - reused_before;
        stats.arena_peak_bytes = session.arena_peak_bytes();
        stats.elapsed = sw.elapsed();
        BatchOutcome { outcomes, stats }
    }
}

/// The registry/flight-recorder status label for a finished query.
fn outcome_status(outcome: &Result<QueryOutcome, EngineError>) -> &'static str {
    match outcome {
        Ok(o) => crate::telemetry::status_label(Ok(o.status)),
        Err(_) => crate::telemetry::status_label(Err(())),
    }
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
        self.execute_parsed(query, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{
        paper_graph, paper_query_text, PAPER_QUERY_EMBEDDINGS, PREFIX_X, PREFIX_Y,
    };

    fn engine() -> AmberEngine {
        AmberEngine::from_graph(paper_graph())
    }

    #[test]
    fn paper_query_end_to_end() {
        let engine = engine();
        let outcome = engine
            .execute(&paper_query_text(), &ExecOptions::default())
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
            .execute(&paper_query_text(), &ExecOptions::default().counting())
            .unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert!(outcome.bindings.is_empty());
    }

    #[test]
    fn max_results_caps_bindings_not_count() {
        let engine = engine();
        let outcome = engine
            .execute(
                &paper_query_text(),
                &ExecOptions::default().with_max_results(1),
            )
            .unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert_eq!(outcome.bindings.len(), 1);
    }

    #[test]
    fn unknown_entities_give_empty_completed() {
        let engine = engine();
        let outcome = engine
            .execute(
                "SELECT * WHERE { ?a <http://nowhere/p> ?b . }",
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::Completed);
        assert_eq!(outcome.embedding_count, 0);
    }

    #[test]
    fn ground_query_acts_as_boolean() {
        let engine = engine();
        // True ground pattern alongside a variable pattern.
        let q = format!(
            "SELECT * WHERE {{ <{PREFIX_X}London> <{PREFIX_Y}isPartOf> <{PREFIX_X}England> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        let outcome = engine.execute(&q, &ExecOptions::default()).unwrap();
        assert_eq!(outcome.embedding_count, 2); // Amy, Christopher

        // False ground pattern: everything collapses to zero.
        let q = format!(
            "SELECT * WHERE {{ <{PREFIX_X}England> <{PREFIX_Y}isPartOf> <{PREFIX_X}London> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        let outcome = engine.execute(&q, &ExecOptions::default()).unwrap();
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
        let outcome = engine.execute(&q, &ExecOptions::default()).unwrap();
        assert_eq!(outcome.embedding_count, 4);
        assert_eq!(outcome.bindings.len(), 4);
    }

    #[test]
    fn distinct_deduplicates_projection() {
        let engine = engine();
        // Two people born in London; projecting the city gives 2 identical
        // rows without DISTINCT, 1 with.
        let plain = format!("SELECT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}");
        let outcome = engine.execute(&plain, &ExecOptions::default()).unwrap();
        assert_eq!(outcome.embedding_count, 2);
        assert_eq!(outcome.bindings.len(), 2);

        let distinct = format!("SELECT DISTINCT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}");
        let outcome = engine.execute(&distinct, &ExecOptions::default()).unwrap();
        assert_eq!(outcome.embedding_count, 2, "count keeps bag semantics");
        assert_eq!(outcome.bindings.len(), 1);
    }

    #[test]
    fn zero_timeout_reports_timed_out() {
        let engine = engine();
        let outcome = engine
            .execute(
                &paper_query_text(),
                &ExecOptions::default().with_timeout(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(outcome.status, QueryStatus::TimedOut);
    }

    #[test]
    fn parse_errors_propagate() {
        let engine = engine();
        assert!(engine
            .execute("not sparql", &ExecOptions::default())
            .is_err());
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
            let batch = engine.execute_batch(&queries, &options);
            assert_eq!(batch.outcomes.len(), queries.len());
            assert_eq!(batch.stats.completed, queries.len());
            assert_eq!(batch.stats.errors, 0);
            for (query, outcome) in queries.iter().zip(&batch.outcomes) {
                let batched = outcome.as_ref().unwrap();
                let solo = engine.execute_parsed(query, &options).unwrap();
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
        let batch = engine.execute_batch(&queries, &ExecOptions::batch());
        assert_eq!(batch.stats.queries, 6);
        assert_eq!(batch.stats.completed, 6);
        // Arenas were warm for every query after the first.
        assert!(batch.stats.arena_peak_bytes > 0);
        assert!(batch.stats.arena_reused_bytes > 0);
        let rate = batch.stats.seeds.hit_rate();
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
        assert!(batch.stats.to_string().contains("6 queries"));
    }

    #[test]
    fn session_survives_reuse_across_batches() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let first =
            engine.execute_batch_in_session(std::slice::from_ref(&q), &options, &mut session);
        let second = engine.execute_batch_in_session(&[q], &options, &mut session);
        assert_eq!(session.queries_executed(), 2);
        let (a, b) = (
            first.outcomes[0].as_ref().unwrap(),
            second.outcomes[0].as_ref().unwrap(),
        );
        assert_eq!(a.embedding_count, b.embedding_count);
    }

    #[test]
    fn batch_sparql_isolates_parse_failures() {
        let engine = engine();
        let good = paper_query_text();
        let batch = engine.execute_batch_sparql(
            &[good.as_str(), "this is not sparql", good.as_str()],
            &ExecOptions::default(),
        );
        assert_eq!(batch.outcomes.len(), 3);
        assert!(batch.outcomes[0].is_ok());
        assert!(batch.outcomes[1].is_err());
        assert!(batch.outcomes[2].is_ok());
        assert_eq!(batch.stats.errors, 1);
        assert_eq!(batch.stats.completed, 2);
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
        let a = engine_a
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        let b = engine_b
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        assert_eq!(a.embedding_count, b.embedding_count);
    }

    #[test]
    fn prepared_execution_matches_adhoc() {
        let engine = engine();
        let plan = engine.prepare_sparql(&paper_query_text()).unwrap();
        let adhoc = engine
            .execute(&paper_query_text(), &ExecOptions::default())
            .unwrap();
        let prepared = engine
            .execute_prepared(&plan, &ExecOptions::default())
            .unwrap();
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
            engine_b.execute_prepared(&plan, &ExecOptions::default()),
            Err(EngineError::StalePlan)
        ));
    }

    #[test]
    fn plan_cache_hits_on_alpha_equivalent_repeats() {
        let engine = engine();
        let q1 = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let renamed = paper_query_text().replace("?X", "?Renamed");
        let q2 = amber_sparql::parse_select(&renamed).unwrap();
        let options = ExecOptions::batch();
        let batch = engine.execute_batch(&[q1.clone(), q2.clone(), q1], &options);
        assert_eq!(batch.stats.completed, 3);
        assert_eq!(batch.stats.plans.plans.misses, 1, "one derivation");
        assert_eq!(
            batch.stats.plans.plans.hits, 2,
            "two alpha-equivalent reuses"
        );
        // The renamed query must still answer under *its own* headers.
        let renamed_outcome = batch.outcomes[1].as_ref().unwrap();
        assert!(renamed_outcome.variables[0].contains("Renamed"));
    }

    #[test]
    fn result_cache_serves_verbatim_repeats() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let batch = engine.execute_batch(&vec![q; 4], &options);
        assert_eq!(batch.stats.completed, 4);
        assert_eq!(batch.stats.plans.results.misses, 1);
        assert_eq!(batch.stats.plans.results.hits, 3);
        let counts: Vec<u128> = batch
            .outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().embedding_count)
            .collect();
        assert_eq!(counts, vec![PAPER_QUERY_EMBEDDINGS as u128; 4]);
        let rows: Vec<usize> = batch
            .outcomes
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

        let strangled = options.clone().with_timeout(Duration::ZERO);
        let first = engine
            .execute_in_session(&q, &strangled, &mut session)
            .unwrap();
        assert_eq!(first.status, QueryStatus::TimedOut);

        let repeat = engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        assert_eq!(repeat.status, QueryStatus::Completed);
        assert_eq!(repeat.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        let stats = session.plan_stats();
        assert!(
            stats.results.bypasses >= 1,
            "the timed-out outcome must be recorded as a bypass: {stats:?}"
        );

        // The asymmetry is deliberate: once a *completed* outcome is
        // cached, even a zero-budget repeat may be served the full answer
        // (a complete result is correct under any budget) — but a partial
        // result never flows the other way.
        let strangled_repeat = engine
            .execute_in_session(&q, &strangled, &mut session)
            .unwrap();
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
        let capped = engine
            .execute_in_session(&q, &options.clone().with_max_results(1), &mut session)
            .unwrap();
        assert_eq!(capped.bindings.len(), 1);
        let uncapped = engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        assert_eq!(uncapped.bindings.len(), 2, "caps are part of the cache key");
    }

    #[test]
    fn per_call_zero_capacity_opts_out_of_warm_session_caches() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        // Warm the caches with one normal execution.
        engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        let warm = session.plan_stats();
        // A repeat that sets the *per-call* result capacity to 0 must not
        // be served from the warm session store (and must not store).
        let opted_out = options.clone().with_result_cache(0);
        let outcome = engine
            .execute_in_session(&q, &opted_out, &mut session)
            .unwrap();
        assert_eq!(outcome.embedding_count, PAPER_QUERY_EMBEDDINGS as u128);
        let after = session.plan_stats();
        assert_eq!(after.results.hits, warm.results.hits, "no result-cache hit");
        assert_eq!(after.results.entries, warm.results.entries, "no store");
        // Same for the plan cache: per-call 0 bypasses the lookup.
        let plan_opted_out = options.clone().with_plan_cache(0).with_result_cache(0);
        let before = session.plan_stats();
        engine
            .execute_in_session(&q, &plan_opted_out, &mut session)
            .unwrap();
        let after = session.plan_stats();
        assert_eq!(after.plans.hits, before.plans.hits, "no plan-cache hit");
        assert!(after.plans.bypasses > before.plans.bypasses);
    }

    #[test]
    fn result_cache_hits_share_rows_without_copying() {
        let engine = engine();
        let q = amber_sparql::parse_select(&paper_query_text()).unwrap();
        let options = ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let first = engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        let second = engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        let third = engine
            .execute_in_session(&q, &options, &mut session)
            .unwrap();
        let stats = session.plan_stats();
        assert_eq!(stats.results.hits, 2, "verbatim repeats hit");
        // The zero-copy contract, gated structurally and by counter: every
        // served outcome aliases the one row allocation the miss stored.
        assert!(
            second.bindings.shares_rows(&first.bindings),
            "a hit must serve the stored Arc allocation, not a clone"
        );
        assert!(third.bindings.shares_rows(&first.bindings));
        assert_eq!(
            stats.result_hit_copied_bytes, 0,
            "serving hits must copy zero row bytes: {stats:?}"
        );
        assert_eq!(second.embedding_count, first.embedding_count);
        assert_eq!(second.variables, first.variables);
    }

    #[test]
    fn transient_sessions_skip_the_per_call_cache_build() {
        // The `execute_prepared` / `execute_parsed` fix: one-shot sessions
        // must not carry plan/result caches that die with the call.
        let engine = engine();
        let mut transient = engine.transient_session();
        let (plans, _) = transient.plan_and_seed_caches();
        assert!(
            !plans.is_enabled(),
            "transient sessions must not build a plan cache"
        );
        assert!(
            !transient.result_cache_mut().is_enabled(),
            "transient sessions must not build a result cache"
        );
        // Prepared one-shots still work and stay correct through it.
        let plan = engine.prepare_sparql(&paper_query_text()).unwrap();
        let outcome = engine
            .execute_prepared(&plan, &ExecOptions::batch())
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
        let parsed = engine.execute_batch(&queries, &options);
        let prepared = engine.execute_batch_prepared(&plans, &options);
        assert_eq!(prepared.stats.completed, 3);
        for (a, b) in parsed.outcomes.iter().zip(&prepared.outcomes) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.embedding_count, b.embedding_count);
            assert_eq!(a.variables, b.variables);
        }
    }
}
