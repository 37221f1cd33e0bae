//! Prepared query plans and the session result cache.
//!
//! A [`PreparedPlan`] freezes everything execution needs besides scratch
//! state — the query multigraph, per-component [`ComponentPrep`]
//! (decomposition + `(r1, r2)` order + probe plans + seed candidates),
//! evaluated ground checks — into one immutable object; execution becomes
//! "borrow the plan, run the search". A plan is derived per query, as the
//! paper derives it (§5); a caller that runs one statement many times
//! holds the plan itself ([`AmberEngine::prepare`](crate::AmberEngine::prepare)).
//! Planning reads only the index set: the ground checks are answered by
//! `N` ([`NeighborhoodIndex::has_edge`](amber_index::NeighborhoodIndex::has_edge))
//! and `A` ([`AttributeIndex::has_attributes`](amber_index::AttributeIndex::has_attributes)),
//! and each component's plan is one [`ComponentPrep::rebuild`].
//!
//! The one query-level cache is the session's [`ResultCache`]: completed
//! [`QueryOutcome`]s keyed by the query's **id key** ([`QueryKey`]: the
//! query compiled to dictionary ids with variables numbered in
//! first-occurrence order, so whitespace-, prefix- and
//! variable-name-insensitive), the engine it was compiled for, and the
//! digest of the result-shaping options (`count_only`, `max_results`). The
//! engine consults it before planning, so a repeat costs a compile and a
//! lookup. The 64-bit fingerprint only picks the bucket; keys are compared
//! in full, so fingerprint collisions cost a miss, never a wrong answer.
//! Partial results (deadline expiry) are **never stored**, and caps are
//! part of the key, so a truncated execution can never poison an uncapped
//! repeat. The timeout is deliberately *not* keyed: a completed outcome is
//! the full answer regardless of the budget it ran under.
//!
//! The cache lives in a [`QuerySession`](crate::session::QuerySession) and
//! is dropped when the session rebinds to a different engine. It is the
//! session's only cache: a plan, its `ProcessVertex` constraints
//! included, is derived per query, and there is no engine-wide store: a
//! serving tenant's repeats hit its own session, and distinct queries
//! (the benchmark's `unique_cold`) miss any store sized like this one
//! (`docs/performance.md`, "What the traffic hits").

use crate::matcher::{ComponentPrep, SearchArenas};
use crate::options::ExecOptions;
use crate::result::{Bindings, QueryOutcome};
use crate::telemetry::CacheCounts;
use amber_index::IndexSet;
use amber_multigraph::{CompiledQuery, Components, GroundCheck, QueryGraph, QueryKey};
use amber_util::GenerationalMap;

/// An immutable, fully-derived execution plan for one query against one
/// engine (see module docs). Produced by
/// [`AmberEngine::prepare`](crate::AmberEngine::prepare) and shared behind
/// an [`Arc`](std::sync::Arc); execution only ever borrows it.
///
/// Every part is a set of flat buffers that each planning clears and
/// refills: `prepare` builds into a fresh plan, and a session builds each
/// result miss into the one plan it keeps
/// ([`AmberEngine::plan_in`](crate::AmberEngine::plan_in)), so planning a
/// query on a warm session allocates nothing.
#[derive(Debug, Default)]
pub struct PreparedPlan {
    /// The id key of the compiled query — the result-cache identity.
    key: QueryKey,
    /// Fx fingerprint of `key` (result-cache bucket index, EXPLAIN handle).
    fingerprint: u64,
    /// The query multigraph, assembled from the key. Its vertices and
    /// output variables carry the preparer's names (`EXPLAIN` prints
    /// them); binding *rows* are name-agnostic.
    qg: QueryGraph,
    /// Ground (variable-free) checks, evaluated once at prepare time: the
    /// data is immutable per engine, so the boolean cannot change.
    ground_ok: bool,
    /// The connected components of `qg`.
    component_sets: Components,
    /// Per-component matching plans: the first `live` are this query's
    /// (none when the query is unsatisfiable or a ground check failed —
    /// execution short-circuits to empty); the rest wait for reuse.
    components: Vec<ComponentPrep>,
    live: usize,
    /// Identity of the engine this plan was derived against; executing it
    /// on any other engine is refused (seed candidates and constraint
    /// lists are data-dependent).
    engine_token: u64,
    /// `|V|` of that engine's graph (`EXPLAIN`: "seed candidates: N of |V|").
    data_vertices: usize,
}

impl PreparedPlan {
    /// Derive this plan afresh from a compiled query (which the engine
    /// needed for its result-cache lookup first), reusing its buffers:
    /// assemble the query multigraph from its ids, evaluate ground checks,
    /// decompose/order/probe every component. `ProcessVertex` runs in the
    /// scratch of `arenas`. Nothing of the previous query survives: each
    /// part is cleared before it is refilled.
    pub(crate) fn rebuild(
        &mut self,
        compiled: &CompiledQuery,
        index: &IndexSet,
        engine_token: u64,
        arenas: &mut SearchArenas,
    ) {
        self.live = 0;
        self.key.clone_from(compiled.key());
        self.fingerprint = compiled.fingerprint();
        self.engine_token = engine_token;
        self.data_vertices = index.neighborhood.vertex_count();
        self.qg.rebuild(compiled);
        self.ground_ok = ground_checks_pass(&self.qg, index);
        if self.qg.is_unsatisfiable() || !self.ground_ok {
            return;
        }
        self.qg.connected_components_into(&mut self.component_sets);
        for (i, component) in self.component_sets.iter().enumerate() {
            if i == self.components.len() {
                self.components.push(ComponentPrep::default());
            }
            self.components[i].rebuild(&self.qg, index, component, arenas);
            self.live = i + 1;
        }
    }

    /// The id key of the query this plan answers.
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// The plan's fingerprint — the result-cache bucket index, also printed
    /// by `EXPLAIN` so repeated-stream cacheability is inspectable.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The query multigraph (the preparer's variable names).
    pub fn query_graph(&self) -> &QueryGraph {
        &self.qg
    }

    /// Output variable names of the query this plan was prepared from, in
    /// projection order. Executions of a text, parsed or compiled source
    /// use the live caller's names instead: alpha-equivalent queries share
    /// one result-cache entry but keep their own headers.
    pub fn variables(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.qg.output_vars()
    }

    /// The preparer's spelling of a query vertex (diagnostics: `EXPLAIN`
    /// prints the preparer's variable names, not their indices).
    pub fn source_name(&self, u: amber_multigraph::QVertexId) -> &str {
        self.qg.name(u)
    }

    /// Per-component matching plans (empty when the answer is statically
    /// empty).
    pub fn components(&self) -> &[ComponentPrep] {
        &self.components[..self.live]
    }

    /// `true` when prepare already proved the answer empty (unsatisfiable
    /// query or failed ground check).
    pub fn statically_empty(&self) -> bool {
        self.qg.is_unsatisfiable() || !self.ground_ok
    }

    /// Identity of the engine this plan belongs to.
    pub(crate) fn engine_token(&self) -> u64 {
        self.engine_token
    }

    /// `|V|` of the data graph this plan was derived against.
    pub(crate) fn data_vertices(&self) -> usize {
        self.data_vertices
    }
}

/// Evaluate the variable-free patterns (boolean guards) of a query graph
/// on the index set.
fn ground_checks_pass(qg: &QueryGraph, index: &IndexSet) -> bool {
    qg.ground_checks().iter().all(|check| match *check {
        GroundCheck::Edge { from, to, types } => {
            index.neighborhood.has_edge(from, to, qg.types(types))
        }
        GroundCheck::Attribute { vertex, attrs } => {
            index.attribute.has_attributes(vertex, qg.attributes(attrs))
        }
    })
}

// ---------------------------------------------------------------------------
// The result cache.
// ---------------------------------------------------------------------------

/// Observable counters of one session's result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Executions answered from a stored outcome.
    pub hits: u64,
    /// Executions that looked the query up, found nothing and ran it.
    pub misses: u64,
    /// Executions that skipped the cache: every query of a capacity-0
    /// session, and every partial (timed-out) outcome that was run but not
    /// stored.
    pub bypasses: u64,
    /// Buckets dropped to respect the capacity bound or by a clear.
    pub evictions: u64,
    /// Outcomes currently stored.
    pub entries: usize,
    /// Approximate heap bytes of the stored rows.
    pub result_bytes: usize,
}

impl CacheStats {
    /// Hits over lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another cache's counters into this one (per-tenant aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.evictions += other.evictions;
        self.entries += other.entries;
        self.result_bytes += other.result_bytes;
    }
}

/// The bucket of a cached outcome: the query's fingerprint plus the
/// result-shaping execution options — the part of [`ExecOptions`] that
/// changes *what an outcome contains* rather than how fast it is computed.
/// Budget knobs are excluded on purpose: a *completed* outcome is the full
/// answer under any budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ResultKey {
    fingerprint: u64,
    count_only: bool,
    /// `u64::MAX` encodes "no cap" (a real cap of `u64::MAX` rows is
    /// unrepresentable in memory anyway).
    max_results: u64,
}

impl ResultKey {
    fn new(fingerprint: u64, options: &ExecOptions) -> Self {
        Self {
            fingerprint,
            count_only: options.count_only,
            max_results: options.max_results.map_or(u64::MAX, |m| m as u64),
        }
    }
}

/// One cached outcome, tagged with the query it answered (key and engine
/// comparison guard against fingerprint collisions). Only the parts a
/// repeat actually reuses are retained: the exact embedding count and the
/// `Arc`-shared rows. Status is implicitly `Completed` (partials are never
/// stored), and the header/elapsed fields belong to the live caller.
#[derive(Debug)]
struct CachedResult {
    key: QueryKey,
    engine_token: u64,
    embedding_count: u128,
    rows: Bindings,
}

impl CachedResult {
    fn answers(&self, key: &QueryKey, engine_token: u64) -> bool {
        self.engine_token == engine_token && self.key == *key
    }
}

/// What a result-cache hit hands back: everything the engine needs to
/// assemble a served [`QueryOutcome`] without touching the row data.
#[derive(Debug, Clone)]
pub(crate) struct CachedOutcome {
    /// Exact embedding count of the completed execution.
    pub(crate) embedding_count: u128,
    /// The cached rows, `Arc`-shared — cloning this is a refcount bump.
    pub(crate) rows: Bindings,
}

/// A bounded cache of completed outcomes for repeated queries (see module
/// docs). Owned by a [`QuerySession`](crate::session::QuerySession);
/// cleared on engine rebind and by
/// [`QuerySession::clear_cache`](crate::session::QuerySession::clear_cache).
/// Lookups, evictions and stored outcomes count into the
/// `amber_cache_*{cache="result"}` series as they happen.
#[derive(Debug)]
pub struct ResultCache {
    /// Maximum key buckets retained; 0 disables the cache.
    capacity: usize,
    map: GenerationalMap<ResultKey, Vec<CachedResult>>,
    counts: CacheCounts,
}

impl ResultCache {
    /// A cache retaining at most `capacity` outcome buckets (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: GenerationalMap::new(capacity.max(1)),
            counts: CacheCounts::default(),
        }
    }

    /// `true` when outcomes can actually be memoized.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.counts.stats()
    }

    /// Note one execution that could not consult the cache (capacity 0) or
    /// whose outcome was not storable (deadline expiry — partial results
    /// must never be served later).
    pub(crate) fn note_bypass(&mut self) {
        self.counts.bypass();
    }

    /// Drop every outcome (counted as evictions; counters survive).
    pub fn clear(&mut self) {
        let counts = &mut self.counts;
        self.map.clear(|chain| evicted(counts, chain));
    }

    /// Serve a completed outcome for a repeat of the query `key` (compiled
    /// for `engine_token`, hashing to `fingerprint`) under the same
    /// result-shaping options, if one is cached. The returned rows share
    /// the cached allocation — serving a hit copies zero row bytes.
    pub(crate) fn lookup(
        &mut self,
        key: &QueryKey,
        fingerprint: u64,
        engine_token: u64,
        options: &ExecOptions,
    ) -> Option<CachedOutcome> {
        let chain = self.map.get(&ResultKey::new(fingerprint, options))?;
        let hit = chain
            .iter()
            .find(|cached| cached.answers(key, engine_token))
            .map(|cached| CachedOutcome {
                embedding_count: cached.embedding_count,
                rows: cached.rows.clone(),
            });
        if hit.is_some() {
            self.counts.hit();
        }
        hit
    }

    /// Note a lookup miss (counted once per executed query, not per probe).
    pub(crate) fn note_miss(&mut self) {
        self.counts.miss();
    }

    /// Store a **completed** outcome of the query `key` (the rows are
    /// `Arc`-shared into the cache — no copy). Callers must never pass a
    /// partial one — a timed-out count/binding set would poison repeats;
    /// debug builds assert it.
    pub(crate) fn store(
        &mut self,
        key: &QueryKey,
        fingerprint: u64,
        engine_token: u64,
        options: &ExecOptions,
        outcome: &QueryOutcome,
    ) {
        debug_assert!(
            outcome.status.is_complete(),
            "timed-out outcomes must bypass the result cache"
        );
        let entry = CachedResult {
            key: key.clone(),
            engine_token,
            embedding_count: outcome.embedding_count,
            rows: outcome.bindings.clone(),
        };
        let bytes = cached_bytes(&entry);
        let bucket = ResultKey::new(fingerprint, options);
        if let Some(chain) = self.map.get_mut(&bucket) {
            if let Some(existing) = chain
                .iter_mut()
                .find(|cached| cached.answers(key, engine_token))
            {
                self.counts.replace(cached_bytes(existing), bytes);
                *existing = entry;
            } else {
                chain.push(entry);
                self.counts.store(1, bytes);
            }
            return;
        }
        self.counts.store(1, bytes);
        let counts = &mut self.counts;
        self.map
            .insert(bucket, vec![entry], |chain| evicted(counts, chain));
    }
}

/// Count one dropped bucket (capacity eviction or clear).
fn evicted(counts: &mut CacheCounts, chain: &[CachedResult]) {
    counts.evict(chain.len(), chain.iter().map(cached_bytes).sum());
}

/// Approximate retained bytes of one cached entry (rows only — keys,
/// headers and counts are a few machine words).
fn cached_bytes(cached: &CachedResult) -> usize {
    cached.rows.approx_heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};

    fn compile(text: &str, token: u64) -> CompiledQuery {
        CompiledQuery::compile(text, &paper_graph(), token).unwrap()
    }

    fn plan_for(text: &str, token: u64) -> PreparedPlan {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let compiled = CompiledQuery::compile(text, &rdf, token).unwrap();
        let mut plan = PreparedPlan::default();
        plan.rebuild(&compiled, &index, token, &mut SearchArenas::new());
        plan
    }

    /// A completed outcome with one row naming `iri`.
    fn one_row(iri: &str) -> QueryOutcome {
        QueryOutcome {
            bindings: vec![vec![Box::from(iri)]].into(),
            ..QueryOutcome::empty(vec!["a".into()], Default::default())
        }
    }

    #[test]
    fn alpha_equivalent_queries_share_a_fingerprint() {
        let q1 = compile(&paper_query_text(), 1);
        let renamed = paper_query_text().replace("?X", "?Var");
        let q2 = compile(&renamed, 1);
        assert_eq!(q1.key(), q2.key());
        assert_eq!(q1.fingerprint(), q2.fingerprint());
    }

    #[test]
    fn prepared_plan_records_static_emptiness() {
        let plan = plan_for("SELECT * WHERE { ?a <http://nowhere/p> ?b . }", 7);
        assert!(plan.statically_empty());
        assert!(plan.components().is_empty());
    }

    #[test]
    fn result_cache_round_trips_and_respects_tokens() {
        let q = compile(&paper_query_text(), 1);
        let options = ExecOptions::default();
        let mut cache = ResultCache::new(8);
        let outcome = one_row("http://x/a");
        cache.store(q.key(), q.fingerprint(), 1, &options, &outcome);
        let hit = cache.lookup(q.key(), q.fingerprint(), 1, &options);
        assert!(hit.is_some_and(|h| h.rows.shares_rows(&outcome.bindings)));
        // Same key, wrong engine token: never served.
        assert!(cache
            .lookup(q.key(), q.fingerprint(), 2, &options)
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.result_bytes > 0);
    }

    #[test]
    fn fingerprint_collisions_chain_instead_of_aliasing() {
        // Two different queries forced into one bucket: the cache must keep
        // both and answer each lookup with its own outcome.
        let y = amber_multigraph::paper::PREFIX_Y;
        let a = compile(&paper_query_text(), 1);
        let b = compile(&format!("SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}"), 1);
        let shared = a.fingerprint();
        let options = ExecOptions::default();
        let mut cache = ResultCache::new(8);
        let (outcome_a, outcome_b) = (one_row("http://x/a"), one_row("http://x/b"));
        cache.store(a.key(), shared, 1, &options, &outcome_a);
        cache.store(b.key(), shared, 1, &options, &outcome_b);
        assert_eq!(cache.stats().entries, 2, "collision chains, not replaces");
        let hit_a = cache.lookup(a.key(), shared, 1, &options).unwrap();
        assert!(hit_a.rows.shares_rows(&outcome_a.bindings));
        let hit_b = cache.lookup(b.key(), shared, 1, &options).unwrap();
        assert!(hit_b.rows.shares_rows(&outcome_b.bindings));
    }

    #[test]
    fn result_cache_collisions_verify_the_plan() {
        let y = amber_multigraph::paper::PREFIX_Y;
        let a = compile(&paper_query_text(), 1);
        let b = compile(&format!("SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}"), 1);
        let mut cache = ResultCache::new(8);
        let options = ExecOptions::default();
        cache.store(
            a.key(),
            a.fingerprint(),
            1,
            &options,
            &one_row("http://x/a"),
        );
        assert!(
            cache
                .lookup(b.key(), a.fingerprint(), 1, &options)
                .is_none(),
            "a fingerprint collision must miss, not serve the other query's answer"
        );
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn result_cache_keys_on_result_shaping_options() {
        let q = compile(&paper_query_text(), 1);
        let (key, fingerprint) = (q.key(), q.fingerprint());
        let mut cache = ResultCache::new(8);
        let outcome = QueryOutcome::empty(vec!["0".into()], Default::default());
        let uncapped = ExecOptions::default();
        let capped = ExecOptions::default().with_max_results(1);
        cache.store(key, fingerprint, 1, &capped, &outcome);
        assert!(
            cache.lookup(key, fingerprint, 1, &uncapped).is_none(),
            "a capped result must never serve an uncapped repeat"
        );
        assert!(cache.lookup(key, fingerprint, 1, &capped).is_some());
        assert!(
            cache
                .lookup(key, fingerprint, 1, &ExecOptions::default().counting())
                .is_none(),
            "count-only and materializing runs never alias"
        );
    }

    #[test]
    fn clearing_or_shedding_the_result_cache_frees_memoized_bodies() {
        // A rebind clears through the same call.
        let _serial = crate::telemetry::registry_lock();
        let gauge = amber_obs::gauge("amber_result_body_bytes", &[]);
        let base = gauge.get();
        let q = compile(&paper_query_text(), 1);
        let options = ExecOptions::default();
        let mut cache = ResultCache::new(8);
        let outcome = one_row("http://x/a");
        cache.store(q.key(), q.fingerprint(), 1, &options, &outcome);
        // Served twice: the second serialization memoizes.
        let served = cache
            .lookup(q.key(), q.fingerprint(), 1, &options)
            .unwrap()
            .rows;
        outcome.offer_wire_body(0, "body");
        assert!(outcome.offer_wire_body(0, "body"));
        assert!(served.shares_rows(&outcome.bindings));
        drop((outcome, served));
        assert_eq!(gauge.get(), base + 4, "the cache still holds the memo");
        cache.clear();
        assert_eq!(gauge.get(), base, "freed with the last clone");
    }
}
