//! Session-cached seed probes — memoizing the *pre-search* candidate
//! lookups of `ProcessVertex`.
//!
//! Every query pays its `ProcessVertex` lookups before the search starts:
//!
//! * `C^A_u` (Algorithm 1 lines 1-2) — an attribute-list intersection per
//!   constrained vertex,
//! * `C^I_u` (Algorithm 1 lines 3-4) — an OTIL probe per IRI constraint.
//!
//! Constant-heavy streams (the `lubm_complex_repeat` workload, the
//! benchmark's `unique_cold`) recompute exactly these on every query that
//! misses the plan cache. [`SeedCache`] lives in a
//! [`QuerySession`](crate::session::QuerySession) and memoizes both
//! lookups, each in **its own key space** (attribute sets, probe keys —
//! two separate generationally-tagged stores, so the classes can never
//! alias and evict independently), with hot/cold generational eviction
//! ([`GenerationalMap`]).
//!
//! Single-type IRI probes bypass the store: they borrow their inverted
//! list straight from the OTIL pool, so there is nothing to memoize. The
//! matcher's *recursion-time* probes are not memoized at all: they borrow
//! (single type) or spill (anything else) straight from the index. The
//! component seed set itself (`CandInit`) is not memoized either: it is an
//! intersection of borrowed type-incidence lists
//! ([`ComponentPrep`](crate::matcher::ComponentPrep)), cheaper than the
//! copy a cache hit would cost.

use amber_index::{AttributeIndex, NeighborhoodIndex};
use amber_multigraph::{AttrId, Direction, EdgeTypeId, VertexId};
use amber_util::fault::{self, FaultPoint};
use amber_util::GenerationalMap;

/// Observable counters of one session cache (seed, plan or result).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored entry.
    pub hits: u64,
    /// Cacheable lookups that had to be computed (and were stored).
    pub misses: u64,
    /// Lookups that skipped the cache entirely: single-type probes
    /// (already borrowed zero-copy from the OTIL pool), keys longer than
    /// [`MAX_CACHED_TYPES`], and every lookup of a disabled cache.
    pub bypasses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Heap bytes of the stored results.
    pub result_bytes: usize,
}

impl CacheStats {
    /// Hits over cacheable lookups (0.0 when nothing was cacheable).
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

/// Largest type-set a probe key can carry. Longer (rare) probes bypass the
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
struct ProbeKey {
    v: VertexId,
    direction: Direction,
    len: u8,
    types: [u32; MAX_CACHED_TYPES],
}

impl ProbeKey {
    const PAD: u32 = u32::MAX;

    /// Canonicalize; `None` when the type-set is too long to key.
    fn new(v: VertexId, direction: Direction, required: &[EdgeTypeId]) -> Option<Self> {
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

/// Largest attribute set a seed-cache key can carry; longer (rare) sets
/// bypass the cache rather than spilling keys onto the heap.
pub const MAX_SEED_ATTRS: usize = MAX_CACHED_TYPES;

/// Canonical key of one attribute-set lookup: the sorted ids in a fixed
/// array plus the exact length (padding can never alias a real set, same
/// scheme as the probe key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AttrSetKey {
    len: u8,
    attrs: [u32; MAX_SEED_ATTRS],
}

impl AttrSetKey {
    const PAD: u32 = u32::MAX;

    /// Canonicalize; `None` when the set is too long to key.
    fn new(attrs: &[AttrId]) -> Option<Self> {
        if attrs.len() > MAX_SEED_ATTRS {
            return None;
        }
        let mut key = [Self::PAD; MAX_SEED_ATTRS];
        for (slot, &a) in key.iter_mut().zip(attrs) {
            *slot = a.0;
        }
        key[..attrs.len()].sort_unstable();
        Some(Self {
            len: attrs.len() as u8,
            attrs: key,
        })
    }
}

/// Session-owned memo of seed candidate lookups (see module docs).
///
/// Seed probes run during matcher *plan construction*, so one store per
/// session suffices.
#[derive(Debug)]
pub struct SeedCache {
    /// Maximum entries **per key space**; 0 disables the cache entirely.
    capacity: usize,
    /// `C^A_u` results keyed by the (sorted) attribute set.
    attrs: GenerationalMap<AttrSetKey, Box<[VertexId]>>,
    /// `C^I_u` OTIL probes keyed by `(data vertex, direction, type-set)`.
    probes: GenerationalMap<ProbeKey, Box<[VertexId]>>,
    hits: u64,
    misses: u64,
    bypasses: u64,
    result_bytes: usize,
    /// Scratch for attribute-list intersections on the miss path.
    order: Vec<u32>,
    acc: Vec<VertexId>,
    scratch: Vec<VertexId>,
}

impl SeedCache {
    /// A cache holding at most `capacity` entries per key space
    /// (0 = disabled, every lookup recomputes).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            attrs: GenerationalMap::new(capacity.max(1)),
            probes: GenerationalMap::new(capacity.max(1)),
            hits: 0,
            misses: 0,
            bypasses: 0,
            result_bytes: 0,
            order: Vec::new(),
            acc: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// A pass-through cache (every lookup recomputes).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// `true` when lookups can actually be memoized.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current counters, aggregated across the two key spaces.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            bypasses: self.bypasses,
            evictions: self.attrs.evictions() + self.probes.evictions(),
            entries: self.attrs.len() + self.probes.len(),
            result_bytes: self.result_bytes,
        }
    }

    /// Drop every entry (counters survive; capacity unchanged). Scratch
    /// buffers are kept — they hold no graph-dependent data between runs.
    pub fn clear(&mut self) {
        self.attrs.clear(|_| {});
        self.probes.clear(|_| {});
        self.result_bytes = 0;
    }

    /// `C^A_u`: vertices carrying all of `attrs` (`None` when `attrs` is
    /// empty — no constraint), through the cache.
    pub(crate) fn attr_candidates(
        &mut self,
        index: &AttributeIndex,
        attrs: &[AttrId],
    ) -> Option<Vec<VertexId>> {
        if attrs.is_empty() {
            return None;
        }
        let key = if self.is_enabled() {
            AttrSetKey::new(attrs)
        } else {
            None
        };
        let Some(key) = key else {
            self.bypasses += 1;
            index.candidates_into(attrs, &mut self.order, &mut self.acc, &mut self.scratch);
            return Some(self.acc.clone());
        };
        self.hits += 1;
        if let Some(hit) = self.attrs.get(&key) {
            return Some(hit.to_vec());
        }
        self.hits -= 1;
        self.misses += 1;
        let _ = fault::inject(FaultPoint::IndexProbe);
        index.candidates_into(attrs, &mut self.order, &mut self.acc, &mut self.scratch);
        self.note_stored(self.acc.len());
        let result_bytes = &mut self.result_bytes;
        let boxed: Box<[VertexId]> = self.acc.as_slice().into();
        let _ = fault::inject(FaultPoint::CacheInsert);
        let stored = self.attrs.insert(key, boxed, |dropped| {
            let _ = fault::inject(FaultPoint::CacheEvict);
            *result_bytes =
                result_bytes.saturating_sub(dropped.len() * std::mem::size_of::<VertexId>());
        });
        Some(stored.to_vec())
    }

    /// `C^I_u` primitive: one IRI-constraint OTIL probe through the cache.
    /// Single-type probes return the inverted list borrowed from the index
    /// pool (nothing to memoize); uncacheable multi-type probes compute
    /// into the scratch buffer; everything else is answered from (or
    /// inserted into) the probe store.
    pub fn iri_neighbors<'a>(
        &'a mut self,
        n: &'a NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
    ) -> &'a [VertexId] {
        if let [t] = required {
            self.bypasses += 1;
            return n.neighbors_with_type(v, direction, *t);
        }
        let key = if self.is_enabled() {
            ProbeKey::new(v, direction, required)
        } else {
            None
        };
        let Some(key) = key else {
            self.bypasses += 1;
            n.neighbors_into(v, direction, required, &mut self.acc);
            return &self.acc;
        };
        // promote + hot_get instead of a plain `get`: this function
        // returns the borrow, and NLL cannot end a returned borrow early.
        if self.probes.promote(&key) {
            self.hits += 1;
            return self.probes.hot_get(&key).expect("promoted entry is hot");
        }
        self.misses += 1;
        let _ = fault::inject(FaultPoint::IndexProbe);
        let computed: Box<[VertexId]> = n.neighbors(v, direction, required).into_boxed_slice();
        self.note_stored(computed.len());
        let result_bytes = &mut self.result_bytes;
        let _ = fault::inject(FaultPoint::CacheInsert);
        self.probes.insert(key, computed, |dropped| {
            let _ = fault::inject(FaultPoint::CacheEvict);
            *result_bytes =
                result_bytes.saturating_sub(dropped.len() * std::mem::size_of::<VertexId>());
        })
    }

    fn note_stored(&mut self, len: usize) {
        self.result_bytes += len * std::mem::size_of::<VertexId>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{process_vertex, process_vertex_seeded};
    use amber_index::IndexSet;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_multigraph::QueryGraph;
    use amber_sparql::parse_select;

    fn setup() -> (amber_multigraph::RdfGraph, QueryGraph, IndexSet) {
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        (rdf, qg, index)
    }

    #[test]
    fn seeded_process_vertex_matches_unseeded() {
        let (_, qg, index) = setup();
        let mut seeds = SeedCache::new(64);
        // Two passes: the second answers from the cache and must still be
        // byte-identical to the transient computation.
        for pass in 0..2 {
            for u in (0..qg.vertex_count()).map(amber_multigraph::QVertexId::from_index) {
                assert_eq!(
                    process_vertex_seeded(&qg, u, &index, &mut seeds),
                    process_vertex(&qg, u, &index),
                    "pass {pass}, vertex {u:?}"
                );
            }
        }
        let stats = seeds.stats();
        assert!(stats.hits > 0, "second pass must hit: {stats:?}");
    }

    #[test]
    fn disabled_cache_is_pure_pass_through() {
        let (_, qg, index) = setup();
        let mut seeds = SeedCache::disabled();
        assert!(!seeds.is_enabled());
        for _ in 0..2 {
            for u in (0..qg.vertex_count()).map(amber_multigraph::QVertexId::from_index) {
                assert_eq!(
                    process_vertex_seeded(&qg, u, &index, &mut seeds),
                    process_vertex(&qg, u, &index),
                );
            }
        }
        let stats = seeds.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn tiny_capacity_evicts_but_stays_exact() {
        let (_, qg, index) = setup();
        for capacity in [1usize, 2] {
            let mut seeds = SeedCache::new(capacity);
            for _ in 0..3 {
                for u in (0..qg.vertex_count()).map(amber_multigraph::QVertexId::from_index) {
                    assert_eq!(
                        process_vertex_seeded(&qg, u, &index, &mut seeds),
                        process_vertex(&qg, u, &index),
                        "capacity {capacity}, vertex {u:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let (_, qg, index) = setup();
        let mut seeds = SeedCache::new(64);
        for u in (0..qg.vertex_count()).map(amber_multigraph::QVertexId::from_index) {
            let _ = process_vertex_seeded(&qg, u, &index, &mut seeds);
        }
        let before = seeds.stats();
        assert!(before.entries > 0);
        seeds.clear();
        let after = seeds.stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.result_bytes, 0);
        assert_eq!(after.misses, before.misses, "counters survive clear");
        assert!(after.evictions >= before.entries as u64);
    }

    #[test]
    fn attr_key_padding_never_aliases() {
        assert_ne!(
            AttrSetKey::new(&[AttrId(1)]),
            AttrSetKey::new(&[AttrId(1), AttrId(AttrSetKey::PAD)]),
        );
        assert_eq!(
            AttrSetKey::new(&[AttrId(2), AttrId(1)]),
            AttrSetKey::new(&[AttrId(1), AttrId(2)]),
            "permutations canonicalize to one key"
        );
        let too_long: Vec<AttrId> = (0..=MAX_SEED_ATTRS as u32).map(AttrId).collect();
        assert_eq!(AttrSetKey::new(&too_long), None);
    }

    fn neighborhood() -> (amber_multigraph::RdfGraph, NeighborhoodIndex) {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        (rdf, n)
    }

    /// Every IRI probe through the cache must equal the direct index
    /// answer.
    fn assert_probe_exact(
        seeds: &mut SeedCache,
        n: &NeighborhoodIndex,
        v: VertexId,
        direction: Direction,
        types: &[EdgeTypeId],
    ) {
        let got = seeds.iri_neighbors(n, v, direction, types).to_vec();
        assert_eq!(
            got,
            n.neighbors(v, direction, types),
            "seed cache diverged on v={v:?} {direction:?} {types:?}"
        );
    }

    #[test]
    fn cache_repeated_probe_hits() {
        let (_, n) = neighborhood();
        let mut seeds = SeedCache::new(64);
        let types = [EdgeTypeId(4), EdgeTypeId(5)];
        for _ in 0..3 {
            assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Incoming, &types);
        }
        let stats = seeds.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 2, 1));
        assert!(stats.result_bytes > 0);
    }

    #[test]
    fn cache_permutations_share_one_entry() {
        // {t4, t5} and {t5, t4} are the same set-containment query; the
        // sorted canonical key must make the second order a hit.
        let (_, n) = neighborhood();
        let mut seeds = SeedCache::new(64);
        let a = [EdgeTypeId(4), EdgeTypeId(5)];
        let b = [EdgeTypeId(5), EdgeTypeId(4)];
        assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Incoming, &a);
        assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Incoming, &b);
        let stats = seeds.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
    }

    #[test]
    fn cache_subsets_never_alias() {
        // Adversarial keying: {t4,t5} ⊂ {t1,t4,t5}, and the empty
        // (unconstrained) set — distinct results, distinct keys. A shared
        // prefix or padding collision would surface as a wrong answer.
        let (_, n) = neighborhood();
        let mut seeds = SeedCache::new(64);
        let sets: [&[EdgeTypeId]; 3] = [
            &[EdgeTypeId(4), EdgeTypeId(5)],
            &[EdgeTypeId(1), EdgeTypeId(4), EdgeTypeId(5)],
            &[],
        ];
        for _ in 0..2 {
            for set in sets {
                assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Incoming, set);
            }
        }
        // {t4,t5} for a *different* vertex and direction must also be
        // distinct entries.
        let pair = [EdgeTypeId(4), EdgeTypeId(5)];
        assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Outgoing, &pair);
        assert_probe_exact(&mut seeds, &n, VertexId(1), Direction::Incoming, &pair);
        assert_eq!(seeds.stats().entries, 5);
    }

    #[test]
    fn cache_single_type_probes_bypass_and_borrow() {
        let (_, n) = neighborhood();
        let mut seeds = SeedCache::new(64);
        let got = seeds.iri_neighbors(&n, VertexId(2), Direction::Incoming, &[EdgeTypeId(5)]);
        assert_eq!(got, &[VertexId(1), VertexId(7)]);
        let stats = seeds.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn cache_oversized_type_sets_bypass() {
        let (_, n) = neighborhood();
        let mut seeds = SeedCache::new(64);
        let big: Vec<EdgeTypeId> = (0..=MAX_CACHED_TYPES as u32).map(EdgeTypeId).collect();
        assert_eq!(big.len(), MAX_CACHED_TYPES + 1);
        assert_probe_exact(&mut seeds, &n, VertexId(2), Direction::Incoming, &big);
        assert_eq!(seeds.stats().entries, 0);
        assert_eq!(seeds.stats().bypasses, 1);
    }

    #[test]
    fn cache_tiny_capacity_evicts_but_stays_exact() {
        let (rdf, n) = neighborhood();
        for capacity in [1, 2, 3] {
            let mut seeds = SeedCache::new(capacity);
            // Cycle far more distinct probes than the capacity holds, twice,
            // interleaved — every answer must stay exact under churn.
            for _ in 0..2 {
                for v in rdf.graph().vertices() {
                    for direction in [Direction::Incoming, Direction::Outgoing] {
                        for types in [
                            [EdgeTypeId(4), EdgeTypeId(5)],
                            [EdgeTypeId(1), EdgeTypeId(5)],
                        ] {
                            assert_probe_exact(&mut seeds, &n, v, direction, &types);
                            assert!(seeds.stats().entries <= capacity);
                        }
                    }
                }
            }
            assert!(
                seeds.stats().evictions > 0,
                "capacity {capacity} never evicted"
            );
        }
    }
}
