//! Prepared query plans — compile once, execute many times.
//!
//! Profiling after the batching/seed-cache PRs showed that on
//! constant-heavy repeated streams the **largest non-search cost** is plan
//! derivation itself: `QueryGraph` construction, the core/satellite
//! decomposition, the `(r1, r2)` processing order, `ProcessVertex`
//! constraint resolution and the seed-set intersection all recur on
//! every repeat of a query the engine has already seen. A
//! [`PreparedPlan`] freezes all of that — parsed query multigraph,
//! per-component [`ComponentPrep`] (decomposition + order + probe plans +
//! seed candidates), evaluated ground checks — into one immutable,
//! `Arc`-shared object; execution becomes "borrow the plan, run the
//! search".
//!
//! Two session-owned caches sit on top:
//!
//! * [`PlanCache`] — hash-consed plans keyed by the query's **id key**
//!   ([`QueryKey`]: the query compiled to dictionary ids with variables
//!   numbered in first-occurrence order, so whitespace-, prefix- and
//!   variable-name-insensitive). The 64-bit fingerprint only picks the
//!   bucket; keys are compared in full, so fingerprint collisions cost a
//!   miss, never a wrong plan. Bounded with generational eviction
//!   ([`GenerationalMap`]).
//! * [`ResultCache`] — verbatim-repeat short-circuit: completed
//!   [`QueryOutcome`]s keyed by plan fingerprint + id key + the digest of the
//!   result-shaping options (`count_only`, `max_results`). Partial results
//!   (deadline expiry) are **never stored**, and caps are part of the key,
//!   so a truncated execution can never poison an uncapped repeat.
//!   The timeout is deliberately *not* keyed: a completed outcome is the
//!   full answer regardless of the budget it ran under.
//!
//! Both caches live in a [`QuerySession`](crate::session::QuerySession)
//! and are dropped when the session rebinds to a different engine, like
//! the seed cache. There is no engine-wide plan store behind them: a
//! serving tenant's repeats hit its own session, and distinct queries
//! (the benchmark's `unique_cold`) miss any store sized like these
//! (`docs/performance.md`, "What the traffic hits").

use crate::matcher::ComponentPrep;
use crate::options::ExecOptions;
use crate::result::{Bindings, QueryOutcome};
use crate::seeds::{CacheStats, SeedCache};
use amber_index::IndexSet;
use amber_multigraph::{CompiledQuery, DataGraph, GroundCheck, QueryGraph, QueryKey, RdfGraph};
use amber_util::GenerationalMap;
use std::sync::Arc;

/// An immutable, fully-derived execution plan for one query against one
/// engine (see module docs). Produced by
/// [`AmberEngine::prepare`](crate::AmberEngine::prepare) and shared behind
/// an [`Arc`]; execution only ever borrows it.
#[derive(Debug)]
pub struct PreparedPlan {
    /// The id key of the compiled query — the cache identity.
    key: QueryKey,
    /// Fx fingerprint of `key` (bucket index, EXPLAIN handle, result cache
    /// key component).
    fingerprint: u64,
    /// The query multigraph, assembled from the key. Its vertices and
    /// output variables carry the preparer's names (`EXPLAIN` prints
    /// them); binding *rows* are name-agnostic.
    qg: QueryGraph,
    /// Ground (variable-free) checks, evaluated once at prepare time: the
    /// data is immutable per engine, so the boolean cannot change.
    ground_ok: bool,
    /// Per-component matching plans (empty when the query is unsatisfiable
    /// or a ground check failed — execution short-circuits to empty).
    components: Vec<ComponentPrep>,
    /// Identity of the engine this plan was derived against; executing it
    /// on any other engine is refused (seed candidates and constraint
    /// lists are data-dependent).
    engine_token: u64,
    /// `|V|` of that engine's graph (`EXPLAIN`: "seed candidates: N of |V|").
    data_vertices: usize,
}

impl PreparedPlan {
    /// Derive a plan from a compiled query (which every caller needed for
    /// a cache lookup first): assemble the query multigraph from its ids,
    /// evaluate ground checks, decompose/order/probe every component. Seed
    /// lookups resolve through `seeds` (pass [`SeedCache::disabled`] for
    /// one-shot callers).
    pub(crate) fn from_compiled(
        compiled: &CompiledQuery,
        rdf: &RdfGraph,
        index: &IndexSet,
        engine_token: u64,
        seeds: &mut SeedCache,
    ) -> Self {
        let qg = compiled.query_graph();
        let ground_ok = ground_checks_pass(&qg, rdf.graph());
        let components = if qg.is_unsatisfiable() || !ground_ok {
            Vec::new()
        } else {
            qg.connected_components()
                .iter()
                .map(|component| ComponentPrep::build(&qg, rdf.graph(), index, component, seeds))
                .collect()
        };
        Self {
            key: compiled.key().clone(),
            fingerprint: compiled.fingerprint(),
            qg,
            ground_ok,
            components,
            engine_token,
            data_vertices: rdf.graph().vertex_count(),
        }
    }

    /// The id key of the query this plan answers.
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// The plan's fingerprint — the cache bucket index, also printed by
    /// `EXPLAIN` so repeated-stream cacheability is inspectable.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The query multigraph (the preparer's variable names).
    pub fn query_graph(&self) -> &QueryGraph {
        &self.qg
    }

    /// Output variable names of the query this plan was prepared from, in
    /// projection order. Executions through the plan cache use the live
    /// caller's names instead: alpha-equivalent queries share the plan but
    /// keep their own headers.
    pub fn variables(&self) -> &[Box<str>] {
        self.qg.output_vars()
    }

    /// The preparer's spelling of a query vertex (diagnostics: `EXPLAIN`
    /// prints the preparer's variable names, not their indices).
    pub fn source_name(&self, u: amber_multigraph::QVertexId) -> &str {
        &self.qg.vertex(u).name
    }

    /// Per-component matching plans (empty when the answer is statically
    /// empty).
    pub fn components(&self) -> &[ComponentPrep] {
        &self.components
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

    /// Approximate retained heap bytes (plan-cache accounting).
    pub fn approx_heap_bytes(&self) -> usize {
        self.components
            .iter()
            .map(ComponentPrep::approx_heap_bytes)
            .sum::<usize>()
            + std::mem::size_of_val(self.qg.output_vars())
    }
}

/// Evaluate the variable-free patterns (boolean guards) of a query graph.
fn ground_checks_pass(qg: &QueryGraph, graph: &DataGraph) -> bool {
    qg.ground_checks().iter().all(|check| match check {
        GroundCheck::Edge { from, to, types } => graph.has_multi_edge(*from, *to, types.types()),
        GroundCheck::Attribute { vertex, attrs } => graph.has_attributes(*vertex, attrs),
    })
}

// ---------------------------------------------------------------------------
// The plan cache.
// ---------------------------------------------------------------------------

/// A bounded, generationally-evicted store of prepared plans keyed by
/// id key (see module docs). Owned by a
/// [`QuerySession`](crate::session::QuerySession); cleared on engine
/// rebind.
#[derive(Debug)]
pub struct PlanCache {
    /// Maximum fingerprint buckets retained; 0 disables the cache.
    capacity: usize,
    /// Fingerprint → plans sharing it (key comparison on lookup
    /// disambiguates; adversarial collisions coexist in the chain).
    map: GenerationalMap<u64, Vec<Arc<PreparedPlan>>>,
    hits: u64,
    misses: u64,
    bypasses: u64,
    stored: usize,
    result_bytes: usize,
}

impl PlanCache {
    /// A cache retaining at most `capacity` fingerprint buckets (0
    /// disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: GenerationalMap::new(capacity.max(1)),
            hits: 0,
            misses: 0,
            bypasses: 0,
            stored: 0,
            result_bytes: 0,
        }
    }

    /// `true` when plans can actually be memoized.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypasses: self.bypasses,
            evictions: self.map.evictions(),
            entries: self.stored,
            result_bytes: self.result_bytes,
        }
    }

    /// Note one execution that skipped the cache (capacity 0).
    pub(crate) fn note_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// Drop every plan (counters survive).
    pub fn clear(&mut self) {
        let (stored, bytes) = (&mut self.stored, &mut self.result_bytes);
        self.map.clear(|chain| {
            *stored = stored.saturating_sub(chain.len());
            for plan in chain {
                *bytes = bytes.saturating_sub(plan.approx_heap_bytes());
            }
        });
    }

    /// Look up a plan by id key. `engine_token` double-checks plan
    /// ownership (the session already clears on rebind; this makes a stale
    /// hit structurally impossible).
    pub(crate) fn lookup(
        &mut self,
        fingerprint: u64,
        key: &QueryKey,
        engine_token: u64,
    ) -> Option<Arc<PreparedPlan>> {
        let chain = self.map.get(&fingerprint)?;
        let hit = chain
            .iter()
            .find(|plan| plan.engine_token() == engine_token && plan.key() == key)
            .cloned();
        match hit {
            Some(plan) => {
                self.hits += 1;
                Some(plan)
            }
            None => None,
        }
    }

    /// Note a lookup miss (kept separate from [`Self::lookup`] so the
    /// caller can count a miss exactly once per build).
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Insert a freshly-built plan under its fingerprint (fingerprint
    /// collisions chain; a plan with an equal key replaces).
    pub(crate) fn insert(&mut self, plan: Arc<PreparedPlan>) {
        let bytes = plan.approx_heap_bytes();
        if let Some(chain) = self.map.get_mut(&plan.fingerprint()) {
            if let Some(existing) = chain
                .iter_mut()
                .find(|p| p.key() == plan.key() && p.engine_token() == plan.engine_token())
            {
                self.result_bytes = self
                    .result_bytes
                    .saturating_sub(existing.approx_heap_bytes())
                    .saturating_add(bytes);
                *existing = plan;
            } else {
                chain.push(plan);
                self.stored += 1;
                self.result_bytes += bytes;
            }
            return;
        }
        let (stored, total) = (&mut self.stored, &mut self.result_bytes);
        *stored += 1;
        *total += bytes;
        self.map.insert(plan.fingerprint(), vec![plan], |chain| {
            *stored = stored.saturating_sub(chain.len());
            for dropped in chain {
                *total = total.saturating_sub(dropped.approx_heap_bytes());
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The result cache.
// ---------------------------------------------------------------------------

/// Digest of the result-shaping execution options — the part of
/// [`ExecOptions`] that changes *what an outcome contains* rather than how
/// fast it is computed. Scheduling and budget knobs are excluded on
/// purpose: parallel execution is bit-identical to sequential, and a
/// *completed* outcome is the full answer under any budget.
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

/// One cached outcome, tagged with the plan it answered (key comparison
/// guards against fingerprint collisions). Only the parts a
/// repeat actually reuses are retained: the exact embedding count and the
/// `Arc`-shared rows. Status is implicitly `Completed` (partials are never
/// stored), and the header/elapsed fields belong to the live caller.
#[derive(Debug)]
struct CachedResult {
    plan: Arc<PreparedPlan>,
    embedding_count: u128,
    rows: Bindings,
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

/// A bounded cache of completed outcomes for verbatim-repeated queries
/// (see module docs). Owned by a
/// [`QuerySession`](crate::session::QuerySession); cleared on engine
/// rebind.
#[derive(Debug)]
pub struct ResultCache {
    /// Maximum key buckets retained; 0 disables the cache.
    capacity: usize,
    map: GenerationalMap<ResultKey, Vec<CachedResult>>,
    hits: u64,
    misses: u64,
    bypasses: u64,
    stored: usize,
    result_bytes: usize,
    /// Row bytes that were **deep-copied** while serving hits. The
    /// zero-copy contract says this stays 0 forever: a hit serves the
    /// cached `Arc` allocation itself. Measured at serve time (not assumed)
    /// so any future regression to cloning trips the counter-gated tests
    /// (`serve_equivalence`, `http_e2e`).
    hit_copied_bytes: u64,
}

impl ResultCache {
    /// A cache retaining at most `capacity` outcome buckets (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: GenerationalMap::new(capacity.max(1)),
            hits: 0,
            misses: 0,
            bypasses: 0,
            stored: 0,
            result_bytes: 0,
            hit_copied_bytes: 0,
        }
    }

    /// `true` when outcomes can actually be memoized.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypasses: self.bypasses,
            evictions: self.map.evictions(),
            entries: self.stored,
            result_bytes: self.result_bytes,
        }
    }

    /// Note one execution that could not consult the cache (capacity 0) or
    /// whose outcome was not storable (deadline expiry — partial results
    /// must never be served later).
    pub(crate) fn note_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// Drop every outcome (counters survive).
    pub fn clear(&mut self) {
        let (stored, bytes) = (&mut self.stored, &mut self.result_bytes);
        self.map.clear(|chain| {
            *stored = stored.saturating_sub(chain.len());
            for cached in chain {
                *bytes = bytes.saturating_sub(cached_bytes(cached));
            }
        });
    }

    /// Serve a completed outcome for a verbatim repeat of `plan` under the
    /// same result-shaping options, if one is cached. The returned rows
    /// share the cached allocation — serving a hit copies zero row bytes.
    pub(crate) fn lookup(
        &mut self,
        plan: &Arc<PreparedPlan>,
        options: &ExecOptions,
    ) -> Option<CachedOutcome> {
        let key = ResultKey::new(plan.fingerprint(), options);
        let chain = self.map.get(&key)?;
        let hit = chain
            .iter()
            .find(|cached| {
                Arc::ptr_eq(&cached.plan, plan)
                    || (cached.plan.engine_token() == plan.engine_token()
                        && cached.plan.key() == plan.key())
            })
            .map(|cached| CachedOutcome {
                embedding_count: cached.embedding_count,
                rows: cached.rows.clone(),
            });
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Note a lookup miss (counted once per executed query, not per probe).
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Audit one served hit: if the outcome handed to the caller does not
    /// share the cached row allocation, something deep-copied — charge the
    /// copied bytes so the regression gates can see it.
    pub(crate) fn record_serve(&mut self, cached: &Bindings, served: &Bindings) {
        if !cached.shares_rows(served) {
            self.hit_copied_bytes += served.approx_heap_bytes() as u64;
        }
    }

    /// Total row bytes deep-copied while serving hits (0 under the
    /// zero-copy contract).
    pub fn hit_copied_bytes(&self) -> u64 {
        self.hit_copied_bytes
    }

    /// Drop every outcome on the memory governor's orders (the
    /// shed-results rung of the degradation ladder): identical to
    /// [`Self::clear`] today, named separately so the shed has its own
    /// call site and semantics (a governor shed, not a graph rebind).
    pub(crate) fn shed(&mut self) {
        self.clear();
    }

    /// Store a **completed** outcome (the rows are `Arc`-shared into the
    /// cache — no copy). Callers must never pass a partial one — a
    /// timed-out, cancelled, or budget-exceeded count/binding set would
    /// poison verbatim repeats; debug builds assert it.
    pub(crate) fn store(
        &mut self,
        plan: &Arc<PreparedPlan>,
        options: &ExecOptions,
        outcome: &QueryOutcome,
    ) {
        debug_assert!(
            outcome.status.is_complete(),
            "partial outcomes (timeout/cancel/budget) must bypass the result cache"
        );
        let key = ResultKey::new(plan.fingerprint(), options);
        let entry = CachedResult {
            plan: Arc::clone(plan),
            embedding_count: outcome.embedding_count,
            rows: outcome.bindings.clone(),
        };
        let bytes = cached_bytes(&entry);
        if let Some(chain) = self.map.get_mut(&key) {
            if let Some(existing) = chain.iter_mut().find(|cached| {
                Arc::ptr_eq(&cached.plan, plan)
                    || (cached.plan.engine_token() == plan.engine_token()
                        && cached.plan.key() == plan.key())
            }) {
                self.result_bytes = self
                    .result_bytes
                    .saturating_sub(cached_bytes(existing))
                    .saturating_add(bytes);
                *existing = entry;
            } else {
                chain.push(entry);
                self.stored += 1;
                self.result_bytes += bytes;
            }
            return;
        }
        let (stored, total) = (&mut self.stored, &mut self.result_bytes);
        *stored += 1;
        *total += bytes;
        self.map.insert(key, vec![entry], |chain| {
            *stored = stored.saturating_sub(chain.len());
            for dropped in chain {
                *total = total.saturating_sub(cached_bytes(dropped));
            }
        });
    }
}

/// Approximate retained bytes of one cached entry (rows only — headers
/// and counts are a few machine words).
fn cached_bytes(cached: &CachedResult) -> usize {
    cached.rows.approx_heap_bytes()
}

/// Combined plan-subsystem counters reported per batch
/// ([`BatchStats::plans`](crate::session::BatchStats)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Prepared-plan cache counters (hits = full plan derivations skipped).
    pub plans: CacheStats,
    /// Verbatim-result cache counters (hits = whole executions skipped).
    pub results: CacheStats,
    /// Row bytes deep-copied while serving result-cache hits. The
    /// zero-copy contract pins this at 0; the serving and HTTP tests gate
    /// on it.
    pub result_hit_copied_bytes: u64,
}

impl PlanCacheStats {
    /// The counters accumulated since `before` (per-batch reporting of a
    /// long-lived session).
    pub(crate) fn since(&self, before: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            plans: self.plans.since(&before.plans),
            results: self.results.since(&before.results),
            result_hit_copied_bytes: self
                .result_hit_copied_bytes
                .saturating_sub(before.result_hit_copied_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};

    fn compile(text: &str, token: u64) -> CompiledQuery {
        CompiledQuery::compile(text, &paper_graph(), token).unwrap()
    }

    fn plan_for(text: &str, token: u64) -> Arc<PreparedPlan> {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let compiled = CompiledQuery::compile(text, &rdf, token).unwrap();
        Arc::new(PreparedPlan::from_compiled(
            &compiled,
            &rdf,
            &index,
            token,
            &mut SeedCache::disabled(),
        ))
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
    fn plan_cache_round_trips_and_respects_tokens() {
        let plan = plan_for(&paper_query_text(), 1);
        let mut cache = PlanCache::new(8);
        cache.insert(Arc::clone(&plan));
        let hit = cache.lookup(plan.fingerprint(), plan.key(), 1);
        assert!(hit.is_some_and(|p| Arc::ptr_eq(&p, &plan)));
        // Same key, wrong engine token: never served.
        assert!(cache.lookup(plan.fingerprint(), plan.key(), 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.result_bytes > 0);
    }

    #[test]
    fn fingerprint_collisions_chain_instead_of_aliasing() {
        // Two structurally different plans force-share a bucket: the cache
        // must keep both and answer each lookup with the right one.
        let y = amber_multigraph::paper::PREFIX_Y;
        let a = plan_for(&paper_query_text(), 1);
        let b = plan_for(&format!("SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}"), 1);
        let mut cache = PlanCache::new(8);
        // Simulate the collision by inserting b's plan under a's
        // fingerprint via a chained entry: rebuild b with a's fingerprint.
        let b_collided = Arc::new(PreparedPlan {
            fingerprint: a.fingerprint(),
            ..match Arc::try_unwrap(b) {
                Ok(plan) => plan,
                Err(_) => unreachable!("sole owner"),
            }
        });
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b_collided));
        assert_eq!(cache.stats().entries, 2, "collision chains, not replaces");
        let hit_a = cache.lookup(a.fingerprint(), a.key(), 1).unwrap();
        assert!(Arc::ptr_eq(&hit_a, &a));
        let hit_b = cache.lookup(a.fingerprint(), b_collided.key(), 1).unwrap();
        assert!(Arc::ptr_eq(&hit_b, &b_collided));
    }

    #[test]
    fn plan_cache_capacity_one_still_serves_correct_plans() {
        let y = amber_multigraph::paper::PREFIX_Y;
        let a = plan_for(&paper_query_text(), 1);
        let b = plan_for(&format!("SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}"), 1);
        let mut cache = PlanCache::new(1);
        cache.insert(Arc::clone(&a));
        cache.insert(Arc::clone(&b));
        // Whatever survived, a lookup may only return the structurally
        // matching plan.
        if let Some(hit) = cache.lookup(a.fingerprint(), a.key(), 1) {
            assert!(Arc::ptr_eq(&hit, &a));
        }
        if let Some(hit) = cache.lookup(b.fingerprint(), b.key(), 1) {
            assert!(Arc::ptr_eq(&hit, &b));
        }
        assert!(cache.stats().entries <= 2);
    }

    #[test]
    fn result_cache_keys_on_result_shaping_options() {
        let plan = plan_for(&paper_query_text(), 1);
        let mut cache = ResultCache::new(8);
        let outcome = QueryOutcome::empty(vec!["0".into()], Default::default());
        let uncapped = ExecOptions::default();
        let capped = ExecOptions::default().with_max_results(1);
        cache.store(&plan, &capped, &outcome);
        assert!(
            cache.lookup(&plan, &uncapped).is_none(),
            "a capped result must never serve an uncapped repeat"
        );
        assert!(cache.lookup(&plan, &capped).is_some());
        assert!(
            cache
                .lookup(&plan, &ExecOptions::default().counting())
                .is_none(),
            "count-only and materializing runs never alias"
        );
    }

    #[test]
    fn clearing_or_shedding_the_result_cache_frees_memoized_bodies() {
        let _serial = crate::telemetry::registry_lock();
        let gauge = amber_obs::gauge("amber_result_body_bytes", &[]);
        let base = gauge.get();
        let plan = plan_for(&paper_query_text(), 1);
        let options = ExecOptions::default();
        for drop_all in [
            ResultCache::clear as fn(&mut ResultCache),
            ResultCache::shed,
        ] {
            let mut cache = ResultCache::new(8);
            let outcome = QueryOutcome {
                bindings: vec![vec![Box::from("http://x/a")]].into(),
                ..QueryOutcome::empty(vec!["a".into()], Default::default())
            };
            cache.store(&plan, &options, &outcome);
            // Served twice: the second serialization memoizes.
            let served = cache.lookup(&plan, &options).unwrap().rows;
            outcome.offer_wire_body(0, "body");
            assert!(outcome.offer_wire_body(0, "body"));
            assert!(served.shares_rows(&outcome.bindings));
            drop((outcome, served));
            assert_eq!(gauge.get(), base + 4, "the cache still holds the memo");
            drop_all(&mut cache);
            assert_eq!(gauge.get(), base, "freed with the last clone");
        }
    }

    #[test]
    fn result_cache_collisions_verify_the_plan() {
        let y = amber_multigraph::paper::PREFIX_Y;
        let a = plan_for(&paper_query_text(), 1);
        let b = plan_for(&format!("SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}"), 1);
        let b_collided = Arc::new(PreparedPlan {
            fingerprint: a.fingerprint(),
            ..match Arc::try_unwrap(b) {
                Ok(plan) => plan,
                Err(_) => unreachable!("sole owner"),
            }
        });
        let mut cache = ResultCache::new(8);
        let options = ExecOptions::default();
        let outcome_a = QueryOutcome::empty(vec!["a".into()], Default::default());
        cache.store(&a, &options, &outcome_a);
        assert!(
            cache.lookup(&b_collided, &options).is_none(),
            "a fingerprint collision must miss, not serve the other query's answer"
        );
        assert_eq!(cache.stats().hits, 0);
    }
}
