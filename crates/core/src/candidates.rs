//! `ProcessVertex` (paper Algorithm 1) — candidate solutions from vertex
//! attributes and IRI constraints.
//!
//! For a query vertex `u`:
//!
//! * `C^A_u` — vertices owning every attribute of `u.A` (index `A`, §4.1),
//! * `C^I_u` — for every IRI vertex in `u.R`, the neighbours of its (unique)
//!   data vertex through the required multi-edge (index `N`, §4.3);
//!   intersected across all IRI vertices,
//! * the result is `C^A_u ∩ C^I_u` (Algorithm 1, line 5).
//!
//! These sets depend only on the query, so the matcher computes them once
//! per vertex and reuses them at every recursion step (the paper re-invokes
//! `ProcessVertex` per candidate; the cached form is observationally
//! identical).

use crate::seeds::SeedCache;
use amber_index::{IndexSet, NeighborhoodIndex};
use amber_multigraph::{DataGraph, Direction, EdgeTypeId, QVertexId, QueryGraph, VertexId};
use amber_util::fault::{self, FaultPoint};
use amber_util::{sorted, GenerationalMap};

/// The per-vertex constraint computed by `ProcessVertex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `u.A = ∅` and `u.R = ∅`: any data vertex passes this stage.
    Unconstrained,
    /// Sorted whitelist of data vertices.
    Candidates(Vec<VertexId>),
}

impl Constraint {
    /// Does `v` satisfy the constraint?
    pub fn admits(&self, v: VertexId) -> bool {
        match self {
            Constraint::Unconstrained => true,
            Constraint::Candidates(c) => c.binary_search(&v).is_ok(),
        }
    }

    /// Intersect a sorted candidate list with the constraint, in place: a
    /// retain-style compaction with galloping membership tests, so the hot
    /// path neither allocates nor copies. `Unconstrained` short-circuits.
    pub fn filter(&self, candidates: &mut Vec<VertexId>) {
        match self {
            Constraint::Unconstrained => {}
            Constraint::Candidates(allowed) => sorted::intersect_in_place(candidates, allowed),
        }
    }

    /// `true` when the constraint admits no vertex at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, Constraint::Candidates(c) if c.is_empty())
    }
}

/// Algorithm 1: compute the attribute/IRI constraint of `u` with
/// transient state (no seed memoization). One-shot callers and tests use
/// this; the session path goes through [`process_vertex_seeded`].
pub fn process_vertex(qg: &QueryGraph, u: QVertexId, index: &IndexSet) -> Constraint {
    process_vertex_seeded(qg, u, index, &mut SeedCache::disabled())
}

/// Algorithm 1 against a session [`SeedCache`]: the attribute-set lookup
/// and every IRI-constraint OTIL probe resolve through the cache (each in
/// its own key space), so constant-heavy query streams stop recomputing
/// their seed candidates on every repeat.
pub fn process_vertex_seeded(
    qg: &QueryGraph,
    u: QVertexId,
    index: &IndexSet,
    seeds: &mut SeedCache,
) -> Constraint {
    let vertex = qg.vertex(u);

    // C^A_u (lines 1-2).
    let from_attrs: Option<Vec<VertexId>> = seeds.attr_candidates(&index.attribute, &vertex.attrs);

    // C^I_u (lines 3-4): each IRI vertex u^iri has exactly one data vertex;
    // candidates are its neighbours through the required multi-edge, in the
    // direction *seen from the IRI vertex* (constraint directions are stored
    // relative to the query vertex, hence the flip).
    let mut from_iris: Option<Vec<VertexId>> = None;
    for c in &vertex.iri_constraints {
        let neighbors = seeds.iri_neighbors(
            &index.neighborhood,
            c.data_vertex,
            c.direction.flip(),
            c.types.types(),
        );
        match &mut from_iris {
            None => from_iris = Some(neighbors.to_vec()),
            Some(acc) => sorted::intersect_in_place(acc, neighbors),
        }
        if from_iris.as_ref().is_some_and(Vec::is_empty) {
            break; // already empty, no point intersecting further
        }
    }

    // Merge (line 5).
    match (from_attrs, from_iris) {
        (None, None) => Constraint::Unconstrained,
        (Some(a), None) => Constraint::Candidates(a),
        (None, Some(i)) => Constraint::Candidates(i),
        (Some(a), Some(i)) => Constraint::Candidates(sorted::intersect(&a, &i)),
    }
}

/// Per-candidate structural check not covered by `ProcessVertex`: required
/// self-loop types (`?x p ?x`).
pub fn satisfies_self_loop(qg: &QueryGraph, u: QVertexId, graph: &DataGraph, v: VertexId) -> bool {
    match &qg.vertex(u).self_loop {
        None => true,
        Some(types) => graph.has_multi_edge(v, v, types.types()),
    }
}

// ---------------------------------------------------------------------------
// The candidate cache — the session-owned probe memoization layer.
// ---------------------------------------------------------------------------

/// Largest type-set a cache key can carry. Longer (rare) probes bypass the
/// cache rather than spilling keys onto the heap.
pub const MAX_CACHED_TYPES: usize = 6;

/// Canonical cache key of one OTIL probe: `(data vertex, direction, sorted
/// type-set)`.
///
/// The type-set is stored *sorted* in a fixed array together with its exact
/// length, so:
///
/// * permutations of the same type-set canonicalize to the **same** key
///   (`QueryNeighIndex` is a set-containment query — any order yields the
///   same result), and
/// * subsets/supersets and padding-ambiguous sets can **never** alias: the
///   length is part of the key and unused slots hold a sentinel no real
///   [`EdgeTypeId`] equals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProbeKey {
    v: VertexId,
    direction: Direction,
    len: u8,
    types: [u32; MAX_CACHED_TYPES],
}

impl ProbeKey {
    const PAD: u32 = u32::MAX;

    /// Canonicalize; `None` when the type-set is too long to key.
    pub(crate) fn new(v: VertexId, direction: Direction, required: &[EdgeTypeId]) -> Option<Self> {
        if required.len() > MAX_CACHED_TYPES {
            return None;
        }
        let mut types = [Self::PAD; MAX_CACHED_TYPES];
        for (slot, &t) in types.iter_mut().zip(required) {
            *slot = t.0;
        }
        types[..required.len()].sort_unstable();
        Some(Self {
            v,
            direction,
            len: required.len() as u8,
            types,
        })
    }
}

/// Observable counters of one [`CandidateCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cacheable probes answered from a stored entry.
    pub hits: u64,
    /// Cacheable probes that had to run against the index (and were stored).
    pub misses: u64,
    /// Probes that skipped the cache entirely: single-type probes (already
    /// borrowed zero-copy from the OTIL pool), probes with more than
    /// [`MAX_CACHED_TYPES`] types, and every probe of a disabled cache.
    pub bypasses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Heap bytes of the stored result lists.
    pub result_bytes: usize,
}

impl CacheStats {
    /// Hits over cacheable probes (0.0 when nothing was cacheable).
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

    /// The flow counters accumulated since `before` was snapshotted (used
    /// to report per-batch shares of a long-lived session). The *state*
    /// gauges (`entries`, `result_bytes`) keep their current value — they
    /// describe the cache, not the batch.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            bypasses: self.bypasses - before.bypasses,
            evictions: self.evictions - before.evictions,
            entries: self.entries,
            result_bytes: self.result_bytes,
        }
    }
}

/// A bounded, LRU-ish memo of OTIL probe results, keyed by
/// `(data vertex, direction, sorted type-set)`.
///
/// Only *spill-path* probes are cached — multi-type probes (an intersection
/// cascade per evaluation) and unconstrained probes (a merge + dedup per
/// evaluation). Single-type probes already borrow their inverted list
/// straight from the index pool, so caching them could only add overhead;
/// they pass through untouched.
///
/// Eviction is generational ("LRU-ish", [`GenerationalMap`]): entries are
/// inserted into a *hot* map; when the hot half fills up, it is demoted
/// wholesale to *cold* and the previous cold generation is dropped. A cold
/// hit promotes the entry back to hot. Lookups stay O(1) and the total
/// entry count never exceeds the configured capacity.
#[derive(Debug)]
pub struct CandidateCache {
    /// Maximum total entries; 0 disables the cache (all probes bypass).
    capacity: usize,
    store: GenerationalMap<ProbeKey, Box<[VertexId]>>,
    hits: u64,
    misses: u64,
    bypasses: u64,
    result_bytes: usize,
}

impl Default for CandidateCache {
    fn default() -> Self {
        Self::disabled()
    }
}

impl CandidateCache {
    /// A cache holding at most `capacity` probe results (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            store: GenerationalMap::new(capacity.max(1)),
            hits: 0,
            misses: 0,
            bypasses: 0,
            result_bytes: 0,
        }
    }

    /// A pass-through cache (every probe bypasses).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when probes can actually be memoized.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypasses: self.bypasses,
            evictions: self.store.evictions(),
            entries: self.store.len(),
            result_bytes: self.result_bytes,
        }
    }

    /// Drop every entry (counters survive; capacity unchanged).
    pub fn clear(&mut self) {
        self.store.clear(|_| {});
        self.result_bytes = 0;
    }

    fn cacheable(&self, required: &[EdgeTypeId]) -> bool {
        self.capacity > 0 && required.len() != 1 && required.len() <= MAX_CACHED_TYPES
    }

    /// The memoizing probe: resolve `QueryNeighIndex(N, required, v)` through
    /// the cache. Single-type probes return the borrowed inverted list
    /// untouched; uncacheable probes compute into `spill`; cacheable probes
    /// are answered from (or inserted into) the store.
    pub fn probe<'a>(
        &'a mut self,
        n: &'a NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
        spill: &'a mut Vec<VertexId>,
    ) -> &'a [VertexId] {
        if let [t] = required {
            self.bypasses += 1;
            return n.neighbors_with_type(v, direction, *t);
        }
        if !self.cacheable(required) {
            self.bypasses += 1;
            n.neighbors_into(v, direction, required, spill);
            return spill;
        }
        self.lookup_or_compute(n, v, direction, required)
    }

    /// The memoizing form of [`NeighborhoodIndex::neighbors_into`]: `out` is
    /// cleared and filled with the probe result, through the cache whenever
    /// the probe is cacheable.
    pub fn fill(
        &mut self,
        n: &NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
        out: &mut Vec<VertexId>,
    ) {
        if !self.cacheable(required) {
            self.bypasses += 1;
            n.neighbors_into(v, direction, required, out);
            return;
        }
        let cached = self.lookup_or_compute(n, v, direction, required);
        out.clear();
        out.extend_from_slice(cached);
    }

    fn lookup_or_compute(
        &mut self,
        n: &NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
    ) -> &[VertexId] {
        let key = ProbeKey::new(v, direction, required).expect("cacheable implies keyable");
        // promote + hot_get instead of a plain `get`: this function
        // returns the borrow, and NLL cannot end a returned borrow early.
        if self.store.promote(&key) {
            self.hits += 1;
            return self.store.hot_get(&key).expect("promoted entry is hot");
        }
        self.misses += 1;
        // Chaos hooks: panic/delay faults fire at the index walk and the
        // store mutation (alloc-fail signals are interpreted only at the
        // matcher point, so the returned signals are dropped).
        let _ = fault::inject(FaultPoint::IndexProbe);
        let computed: Box<[VertexId]> = n.neighbors(v, direction, required).into_boxed_slice();
        self.result_bytes += computed.len() * std::mem::size_of::<VertexId>();
        let result_bytes = &mut self.result_bytes;
        let _ = fault::inject(FaultPoint::CacheInsert);
        self.store.insert(key, computed, |dropped| {
            let _ = fault::inject(FaultPoint::CacheEvict);
            *result_bytes =
                result_bytes.saturating_sub(dropped.len() * std::mem::size_of::<VertexId>());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_sparql::parse_select;

    fn setup() -> (amber_multigraph::RdfGraph, QueryGraph, IndexSet) {
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        (rdf, qg, index)
    }

    #[test]
    fn paper_c_a_u5_is_v0() {
        // §4.1 example: the attribute set {a1, a2} of X5 admits only v0.
        let (_, qg, index) = setup();
        let u5 = qg.vertex_by_name("X5").unwrap();
        assert_eq!(
            process_vertex(&qg, u5, &index),
            Constraint::Candidates(vec![VertexId(0)])
        );
    }

    #[test]
    fn paper_c_i_u3_is_v1() {
        // §5.1 example: X3 is connected to the United_States IRI vertex via
        // an outgoing livedIn edge; looking *from* v5 through incoming
        // livedIn gives {v1, v6}; no attribute on X3 → constraint {v1, v6}.
        // (The paper's narrower {v1} folds in other pruning; Algorithm 1
        // alone yields the in-neighbours of v5 through t3.)
        let (_, qg, index) = setup();
        let u3 = qg.vertex_by_name("X3").unwrap();
        let c = process_vertex(&qg, u3, &index);
        assert_eq!(c, Constraint::Candidates(vec![VertexId(1), VertexId(6)]));
    }

    #[test]
    fn unconstrained_vertices() {
        let (_, qg, index) = setup();
        for name in ["X0", "X1", "X2", "X6"] {
            let u = qg.vertex_by_name(name).unwrap();
            assert_eq!(
                process_vertex(&qg, u, &index),
                Constraint::Unconstrained,
                "{name} has neither attributes nor IRI constraints"
            );
        }
    }

    #[test]
    fn constraint_filter_and_admit() {
        let c = Constraint::Candidates(vec![VertexId(1), VertexId(4), VertexId(7)]);
        assert!(c.admits(VertexId(4)));
        assert!(!c.admits(VertexId(5)));
        let mut cands = vec![VertexId(0), VertexId(4), VertexId(5), VertexId(7)];
        c.filter(&mut cands);
        assert_eq!(cands, vec![VertexId(4), VertexId(7)]);

        let u = Constraint::Unconstrained;
        assert!(u.admits(VertexId(99)));
        let mut cands = vec![VertexId(3)];
        u.filter(&mut cands);
        assert_eq!(cands, vec![VertexId(3)]);
        assert!(!u.is_empty());
        assert!(Constraint::Candidates(vec![]).is_empty());
    }

    fn neighborhood() -> (amber_multigraph::RdfGraph, NeighborhoodIndex) {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        (rdf, n)
    }

    /// Every cacheable probe through the cache must equal the direct index
    /// answer.
    fn assert_probe_exact(
        cache: &mut CandidateCache,
        n: &NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        types: &[EdgeTypeId],
    ) {
        let mut spill = Vec::new();
        let got = cache.probe(n, v, direction, types, &mut spill).to_vec();
        assert_eq!(
            got,
            n.neighbors(v, direction, types),
            "cache diverged on v={v:?} {direction:?} {types:?}"
        );
    }

    #[test]
    fn cache_repeated_probe_hits() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(64);
        let types = [EdgeTypeId(4), EdgeTypeId(5)];
        for _ in 0..3 {
            assert_probe_exact(&mut cache, &n, VertexId(2), Direction::Incoming, &types);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert!(stats.result_bytes > 0);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cache_permutations_share_one_entry() {
        // {t4, t5} and {t5, t4} are the same set-containment query; the
        // sorted canonical key must make the second order a hit.
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(64);
        let a = [EdgeTypeId(4), EdgeTypeId(5)];
        let b = [EdgeTypeId(5), EdgeTypeId(4)];
        assert_probe_exact(&mut cache, &n, VertexId(2), Direction::Incoming, &a);
        assert_probe_exact(&mut cache, &n, VertexId(2), Direction::Incoming, &b);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_subsets_never_alias() {
        // Adversarial keying: {t4} ⊂ {t4,t5} ⊂ {t1,t4,t5} — distinct
        // results, distinct keys. A shared prefix or padding collision
        // would surface as a wrong (aliased) answer here.
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(64);
        let sets: [&[EdgeTypeId]; 4] = [
            &[EdgeTypeId(4), EdgeTypeId(5)],
            &[EdgeTypeId(1), EdgeTypeId(4), EdgeTypeId(5)],
            &[EdgeTypeId(4), EdgeTypeId(5)],
            &[],
        ];
        for _ in 0..2 {
            for set in sets {
                assert_probe_exact(&mut cache, &n, VertexId(2), Direction::Incoming, set);
            }
        }
        // {t4,t5} for a *different* vertex and direction must also be
        // distinct entries.
        assert_probe_exact(
            &mut cache,
            &n,
            VertexId(2),
            Direction::Outgoing,
            &[EdgeTypeId(4), EdgeTypeId(5)],
        );
        assert_probe_exact(
            &mut cache,
            &n,
            VertexId(1),
            Direction::Incoming,
            &[EdgeTypeId(4), EdgeTypeId(5)],
        );
        assert_eq!(cache.stats().entries, 5);
    }

    #[test]
    fn cache_single_type_probes_bypass_and_borrow() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(64);
        let mut spill = vec![VertexId(999)]; // must stay untouched
        let got = cache.probe(
            &n,
            VertexId(2),
            Direction::Incoming,
            &[EdgeTypeId(5)],
            &mut spill,
        );
        assert_eq!(got, &[VertexId(1), VertexId(7)]);
        assert_eq!(spill, vec![VertexId(999)]);
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn cache_disabled_is_pure_pass_through() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::disabled();
        assert!(!cache.is_enabled());
        for _ in 0..2 {
            assert_probe_exact(
                &mut cache,
                &n,
                VertexId(2),
                Direction::Incoming,
                &[EdgeTypeId(4), EdgeTypeId(5)],
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits + stats.misses, 0);
        assert_eq!(stats.bypasses, 2);
    }

    #[test]
    fn cache_oversized_type_sets_bypass() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(64);
        let big: Vec<EdgeTypeId> = (0..=MAX_CACHED_TYPES as u32).map(EdgeTypeId).collect();
        assert_eq!(big.len(), MAX_CACHED_TYPES + 1);
        assert_probe_exact(&mut cache, &n, VertexId(2), Direction::Incoming, &big);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bypasses, 1);
    }

    #[test]
    fn cache_tiny_capacity_evicts_but_stays_exact() {
        let (rdf, n) = neighborhood();
        let g = rdf.graph();
        for capacity in [1, 2, 3] {
            let mut cache = CandidateCache::new(capacity);
            // Cycle far more distinct probes than the capacity holds, twice,
            // interleaved — every answer must stay exact under churn.
            for _ in 0..2 {
                for v in g.vertices() {
                    for direction in [Direction::Incoming, Direction::Outgoing] {
                        for types in [
                            [EdgeTypeId(4), EdgeTypeId(5)],
                            [EdgeTypeId(1), EdgeTypeId(5)],
                        ] {
                            assert_probe_exact(&mut cache, &n, v, direction, &types);
                            assert!(
                                cache.stats().entries <= capacity,
                                "capacity {capacity} exceeded: {} entries",
                                cache.stats().entries
                            );
                        }
                    }
                }
            }
            assert!(
                cache.stats().evictions > 0,
                "capacity {capacity} never evicted"
            );
        }
    }

    #[test]
    fn cache_fill_matches_neighbors_into() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(16);
        let mut out = Vec::new();
        let mut expected = Vec::new();
        for types in [
            vec![],
            vec![EdgeTypeId(5)],
            vec![EdgeTypeId(4), EdgeTypeId(5)],
        ] {
            for _ in 0..2 {
                cache.fill(&n, VertexId(2), Direction::Incoming, &types, &mut out);
                n.neighbors_into(VertexId(2), Direction::Incoming, &types, &mut expected);
                assert_eq!(out, expected, "fill diverged on {types:?}");
            }
        }
    }

    #[test]
    fn cache_clear_drops_entries_keeps_counters() {
        let (_, n) = neighborhood();
        let mut cache = CandidateCache::new(16);
        assert_probe_exact(
            &mut cache,
            &n,
            VertexId(2),
            Direction::Incoming,
            &[EdgeTypeId(4), EdgeTypeId(5)],
        );
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.result_bytes, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn self_loop_check() {
        // Paper data has no self loops; any self-loop query constraint fails.
        let rdf = paper_graph();
        let y = amber_multigraph::paper::PREFIX_Y;
        let qg = QueryGraph::build(
            &parse_select(&format!("SELECT * WHERE {{ ?a <{y}livedIn> ?a . }}")).unwrap(),
            &rdf,
        )
        .unwrap();
        let u = qg.vertex_by_name("a").unwrap();
        for v in rdf.graph().vertices() {
            assert!(!satisfies_self_loop(&qg, u, rdf.graph(), v));
        }
        // And a graph with a self loop passes.
        let rdf2 = amber_multigraph::RdfGraph::parse_ntriples(
            "<http://x/a> <http://p/likes> <http://x/a> .",
        )
        .unwrap();
        let qg2 = QueryGraph::build(
            &parse_select("SELECT * WHERE { ?a <http://p/likes> ?a . }").unwrap(),
            &rdf2,
        )
        .unwrap();
        let u2 = qg2.vertex_by_name("a").unwrap();
        assert!(satisfies_self_loop(&qg2, u2, rdf2.graph(), VertexId(0)));
    }
}
