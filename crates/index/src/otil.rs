//! The vertex neighbourhood index `N` (paper §4.3, Fig. 3).
//!
//! For every data vertex the paper builds two OTIL structures (Ordered Trie
//! with Inverted Lists, after Terrovitis et al. [13]): `N⁺` over incoming
//! multi-edges and `N⁻` over outgoing ones. Each ordered multi-edge is
//! inserted at the root, and *every edge type keeps an inverted list of the
//! neighbour vertices reached through it* (Fig. 3b).
//!
//! The query `QueryNeighIndex(N, T', v)` asks for all neighbours `v'` of `v`
//! whose multi-edge towards/from `v` is a superset of `T'`; with per-type
//! inverted lists that is exactly the intersection of the lists of every
//! `t ∈ T'` — the operation Algorithms 2 and 4 are built on.
//!
//! Instead of one heap-allocated trie per vertex (9M pointer-chasing
//! allocations on DBPEDIA), the per-vertex tries are flattened into three
//! CSR-style pools per direction: vertex → its ordered `(edge type, list)`
//! entries → one shared neighbour pool. Lookups are two binary searches plus
//! sorted-list intersections; construction is a single pass over the
//! adjacency.
//!
//! The same trie roots are also kept **type-major**
//! ([`NeighborhoodIndex::vertices_with_type`]): per direction and edge type,
//! the sorted list of vertices that have a root entry for it — a
//! counting-sort transpose of the root level. That is the exact incidence
//! list the matcher seeds a component from ("every vertex with an outgoing
//! `t`"), where the 8-field synopsis of `S` can only say "at least one
//! outgoing edge, type ids in this range".

use amber_multigraph::{DataGraph, Direction, EdgeTypeId, VertexId};
use amber_util::{sorted, HeapSize};

/// One `(edge type → inverted neighbour list)` trie root entry.
#[derive(Debug, Clone, Copy)]
struct TypeEntry {
    edge_type: EdgeTypeId,
    /// Where the entry's list starts in `DirIndex::neighbor_pool`; it ends
    /// where the next entry's starts (lists are laid out in entry order).
    start: u32,
}

/// The flattened OTIL forest for one direction.
#[derive(Debug)]
struct DirIndex {
    /// `vertex_offsets[v]..vertex_offsets[v+1]` indexes `type_entries`.
    vertex_offsets: Vec<u32>,
    /// Per vertex: entries ordered by edge type (the "ordered" of OTIL),
    /// followed by one sentinel whose `start` is the pool length so that
    /// every real entry has a successor.
    type_entries: Vec<TypeEntry>,
    /// Sorted neighbour ids per type entry (the inverted lists).
    neighbor_pool: Vec<VertexId>,
    /// `type_offsets[t]..type_offsets[t+1]` indexes `type_vertices`.
    type_offsets: Vec<u32>,
    /// Per edge type: the sorted vertices owning a `type_entries` record
    /// for it (the root level transposed).
    type_vertices: Vec<VertexId>,
}

impl DirIndex {
    fn build(graph: &DataGraph, direction: Direction) -> Self {
        let n = graph.vertex_count();
        let mut vertex_offsets = Vec::with_capacity(n + 1);
        let mut type_entries = Vec::new();
        let mut neighbor_pool = Vec::new();
        // Scratch: (type, neighbor) pairs of one vertex.
        let mut pairs: Vec<(EdgeTypeId, VertexId)> = Vec::new();

        vertex_offsets.push(0);
        for v in graph.vertices() {
            pairs.clear();
            for entry in graph.edges(v, direction) {
                for &t in entry.types.types() {
                    pairs.push((t, entry.neighbor));
                }
            }
            // Group by type; neighbours within a type come out sorted because
            // adjacency is sorted by neighbour and the sort is stable.
            pairs.sort_by_key(|&(t, _)| t);
            let mut i = 0;
            while i < pairs.len() {
                let edge_type = pairs[i].0;
                let start = neighbor_pool.len() as u32;
                while i < pairs.len() && pairs[i].0 == edge_type {
                    neighbor_pool.push(pairs[i].1);
                    i += 1;
                }
                type_entries.push(TypeEntry { edge_type, start });
            }
            vertex_offsets.push(type_entries.len() as u32);
        }
        let (type_offsets, type_vertices) = transpose(&vertex_offsets, &type_entries);
        type_entries.push(TypeEntry {
            edge_type: EdgeTypeId(u32::MAX),
            start: neighbor_pool.len() as u32,
        });
        Self {
            vertex_offsets,
            type_entries,
            neighbor_pool,
            type_offsets,
            type_vertices,
        }
    }

    /// The range of `v`'s records in `type_entries`.
    fn entry_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.vertex_offsets[v.index()] as usize..self.vertex_offsets[v.index() + 1] as usize
    }

    /// The inverted list of `(v, edge_type)`.
    fn list(&self, v: VertexId, edge_type: EdgeTypeId) -> &[VertexId] {
        let range = self.entry_range(v);
        let entries = &self.type_entries[range.clone()];
        match entries.binary_search_by_key(&edge_type, |e| e.edge_type) {
            Ok(i) => {
                let at = range.start + i;
                let (start, end) = (self.type_entries[at].start, self.type_entries[at + 1].start);
                &self.neighbor_pool[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Every inverted list of `v` back to back (one sorted run per edge
    /// type; a neighbour reached through several types repeats).
    fn all_lists(&self, v: VertexId) -> &[VertexId] {
        let range = self.entry_range(v);
        let (start, end) = (
            self.type_entries[range.start].start,
            self.type_entries[range.end].start,
        );
        &self.neighbor_pool[start as usize..end as usize]
    }

    /// The vertices owning an inverted list for `edge_type`, sorted.
    fn vertices_with_type(&self, edge_type: EdgeTypeId) -> &[VertexId] {
        let t = edge_type.index();
        if t >= self.type_offsets.len() - 1 {
            return &[]; // a type the graph never uses
        }
        &self.type_vertices[self.type_offsets[t] as usize..self.type_offsets[t + 1] as usize]
    }
}

/// Counting-sort transpose of the trie roots: `(offsets, vertices)` with
/// `vertices[offsets[t]..offsets[t + 1]]` the owners of a type-`t` entry.
/// Owners come out ascending (vertices are visited in id order) and
/// duplicate-free (a vertex has one entry per type).
fn transpose(vertex_offsets: &[u32], type_entries: &[TypeEntry]) -> (Vec<u32>, Vec<VertexId>) {
    let type_count = type_entries
        .iter()
        .map(|e| e.edge_type.index() + 1)
        .max()
        .unwrap_or(0);
    let mut offsets = vec![0u32; type_count + 1];
    for e in type_entries {
        offsets[e.edge_type.index() + 1] += 1;
    }
    for t in 0..type_count {
        offsets[t + 1] += offsets[t];
    }
    let mut cursor = offsets.clone();
    let mut vertices = vec![VertexId(0); type_entries.len()];
    for (v, range) in vertex_offsets.windows(2).enumerate() {
        for e in &type_entries[range[0] as usize..range[1] as usize] {
            let slot = &mut cursor[e.edge_type.index()];
            vertices[*slot as usize] = VertexId::from_index(v);
            *slot += 1;
        }
    }
    (offsets, vertices)
}

impl HeapSize for DirIndex {
    fn heap_size(&self) -> usize {
        self.vertex_offsets.heap_size()
            + self.type_entries.capacity() * std::mem::size_of::<TypeEntry>()
            + self.neighbor_pool.heap_size()
            + self.type_offsets.heap_size()
            + self.type_vertices.heap_size()
    }
}

/// The outcome of a borrowed [`NeighborhoodIndex::probe`].
///
/// Single-type probes — the common case by far — resolve to an inverted
/// list that already lives in the index pool, so the matcher's hot path
/// borrows it instead of copying. Multi-type and unconstrained probes have
/// no materialized list; those spill into the caller's reusable buffer.
#[derive(Debug, PartialEq, Eq)]
#[must_use]
pub enum ProbeResult<'a> {
    /// The sorted result, borrowed straight from the index (zero copies).
    Borrowed(&'a [VertexId]),
    /// The result was computed into the `spill` buffer passed to `probe`.
    Spilled,
}

impl<'a> ProbeResult<'a> {
    /// View the result as a slice, resolving `Spilled` against the buffer
    /// that was passed to the probe.
    pub fn as_slice(&self, spill: &'a [VertexId]) -> &'a [VertexId] {
        match self {
            ProbeResult::Borrowed(list) => list,
            ProbeResult::Spilled => spill,
        }
    }
}

/// The two-sided neighbourhood index `N = {N⁺, N⁻}`.
#[derive(Debug)]
pub struct NeighborhoodIndex {
    incoming: DirIndex,
    outgoing: DirIndex,
}

impl NeighborhoodIndex {
    /// Build both directions from the data graph.
    pub fn build(graph: &DataGraph) -> Self {
        Self {
            incoming: DirIndex::build(graph, Direction::Incoming),
            outgoing: DirIndex::build(graph, Direction::Outgoing),
        }
    }

    fn dir(&self, direction: Direction) -> &DirIndex {
        match direction {
            Direction::Incoming => &self.incoming,
            Direction::Outgoing => &self.outgoing,
        }
    }

    /// The paper's `QueryNeighIndex(N, T', v)`:
    ///
    /// * `Direction::Incoming`: `{v' | (v', v) ∈ E ∧ T' ⊆ L_E(v', v)}`
    /// * `Direction::Outgoing`: `{v' | (v, v') ∈ E ∧ T' ⊆ L_E(v, v')}`
    ///
    /// Result is sorted. An empty `T'` returns every neighbour in that
    /// direction (no type constraint).
    pub fn neighbors(
        &self,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.neighbors_into(v, direction, required, &mut out);
        out
    }

    /// `QueryNeighIndex` materialized into a caller-owned buffer (cleared
    /// first). Allocation-free once `out` has warmed up to its steady-state
    /// capacity; single-type callers that can hold a borrow should prefer
    /// [`Self::probe`].
    pub fn neighbors_into(
        &self,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
        out: &mut Vec<VertexId>,
    ) {
        let dir = self.dir(direction);
        out.clear();
        match required {
            [] => {
                out.extend_from_slice(dir.all_lists(v));
                out.sort_unstable();
                out.dedup();
            }
            [t] => out.extend_from_slice(dir.list(v, *t)),
            many => {
                // Intersect the two smallest lists directly, then fold the
                // rest in place — no list-of-lists, no accumulator copies.
                let (first, second) = match smallest_two(dir, v, many) {
                    Some(pair) => pair,
                    None => return, // some required type is absent
                };
                sorted::intersect_slices_into(
                    dir.list(v, many[first]),
                    dir.list(v, many[second]),
                    out,
                );
                for (i, &t) in many.iter().enumerate() {
                    if out.is_empty() {
                        return;
                    }
                    if i != first && i != second {
                        sorted::intersect_in_place(out, dir.list(v, t));
                    }
                }
            }
        }
    }

    /// The borrowed form of `QueryNeighIndex` — the matcher's hot path.
    ///
    /// Single-type probes (the overwhelmingly common case) return
    /// [`ProbeResult::Borrowed`] pointing into the index pool without
    /// touching `spill`; multi-type and unconstrained probes compute into
    /// `spill` and return [`ProbeResult::Spilled`].
    pub fn probe<'a>(
        &'a self,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
        spill: &mut Vec<VertexId>,
    ) -> ProbeResult<'a> {
        if let [t] = required {
            ProbeResult::Borrowed(self.dir(direction).list(v, *t))
        } else {
            self.neighbors_into(v, direction, required, spill);
            ProbeResult::Spilled
        }
    }

    /// Cheap upper bound on `|QueryNeighIndex(N, required, v)|`, used to
    /// order intersection cascades smallest-first without materializing
    /// anything: exact for empty/single-type probes (up to duplicates in
    /// the empty case), the minimum list length for multi-type probes.
    pub fn probe_len_hint(
        &self,
        v: VertexId,
        direction: Direction,
        required: &[EdgeTypeId],
    ) -> usize {
        let dir = self.dir(direction);
        match required {
            [] => dir.all_lists(v).len(),
            [t] => dir.list(v, *t).len(),
            many => many
                .iter()
                .map(|&t| dir.list(v, t).len())
                .min()
                .unwrap_or(0),
        }
    }

    /// The inverted list of one `(vertex, direction, type)`, borrowed from
    /// the pool. This is the matcher's single-probe fast path (and the
    /// ablation benchmarks' direct handle); the returned slice is sorted
    /// and deduplicated, and callers rely on that.
    pub fn neighbors_with_type(
        &self,
        v: VertexId,
        direction: Direction,
        edge_type: EdgeTypeId,
    ) -> &[VertexId] {
        self.dir(direction).list(v, edge_type)
    }

    /// The type-major view of the trie roots: every vertex with at least
    /// one neighbour through `edge_type` in `direction`, i.e.
    /// `{v | neighbors_with_type(v, direction, edge_type) ≠ ∅}` — sorted,
    /// duplicate-free, borrowed from the index. `Outgoing` lists the
    /// subjects of the predicate, `Incoming` its objects. Empty for a type
    /// the graph never uses.
    pub fn vertices_with_type(&self, direction: Direction, edge_type: EdgeTypeId) -> &[VertexId] {
        self.dir(direction).vertices_with_type(edge_type)
    }

    /// Does `v` have any neighbour through `required` in `direction`?
    /// Answers from list lengths and first-hit intersection checks without
    /// materializing any neighbour list.
    pub fn has_neighbor(&self, v: VertexId, direction: Direction, required: &[EdgeTypeId]) -> bool {
        let dir = self.dir(direction);
        match required {
            [] => !dir.entry_range(v).is_empty(),
            [t] => !dir.list(v, *t).is_empty(),
            [a, b] => sorted::intersects(dir.list(v, *a), dir.list(v, *b)),
            many => {
                let Some((first, _)) = smallest_two(dir, v, many) else {
                    return false;
                };
                // Walk the smallest list; a candidate in every other list is
                // a witness.
                'candidates: for cand in dir.list(v, many[first]) {
                    for (i, &t) in many.iter().enumerate() {
                        if i != first && dir.list(v, t).binary_search(cand).is_err() {
                            continue 'candidates;
                        }
                    }
                    return true;
                }
                false
            }
        }
    }
}

/// Indices (into `many`) of the two shortest inverted lists, or `None`
/// when the shortest is empty (the intersection is then trivially empty).
fn smallest_two(dir: &DirIndex, v: VertexId, many: &[EdgeTypeId]) -> Option<(usize, usize)> {
    debug_assert!(many.len() >= 2);
    let len_of = |i: usize| dir.list(v, many[i]).len();
    let (mut first, mut second) = if len_of(0) <= len_of(1) {
        (0, 1)
    } else {
        (1, 0)
    };
    for i in 2..many.len() {
        let l = len_of(i);
        if l < len_of(first) {
            second = first;
            first = i;
        } else if l < len_of(second) {
            second = i;
        }
    }
    (len_of(first) > 0).then_some((first, second))
}

impl HeapSize for NeighborhoodIndex {
    fn heap_size(&self) -> usize {
        self.incoming.heap_size() + self.outgoing.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::paper_graph;

    #[test]
    fn paper_section_4_3_example() {
        // "to fetch all the data vertices that have the edge type t5 directed
        // towards v2, we access N⁺ for vertex v2 … gives C^N_{u0} = {v1, v7}"
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let c = n.neighbors(VertexId(2), Direction::Incoming, &[EdgeTypeId(5)]);
        assert_eq!(c, vec![VertexId(1), VertexId(7)]);
    }

    #[test]
    fn figure_3b_v2_inverted_lists() {
        // N⁺ of v2: t1→{v3}, t4→{v1}, t5→{v1,v7}, t6→{v0};
        // N⁻ of v2: t0→{v3}, t2→{v4}.
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let v2 = VertexId(2);
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Incoming, EdgeTypeId(1)),
            &[VertexId(3)]
        );
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Incoming, EdgeTypeId(4)),
            &[VertexId(1)]
        );
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Incoming, EdgeTypeId(5)),
            &[VertexId(1), VertexId(7)]
        );
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Incoming, EdgeTypeId(6)),
            &[VertexId(0)]
        );
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Outgoing, EdgeTypeId(0)),
            &[VertexId(3)]
        );
        assert_eq!(
            n.neighbors_with_type(v2, Direction::Outgoing, EdgeTypeId(2)),
            &[VertexId(4)]
        );
    }

    #[test]
    fn multi_type_constraint_intersects() {
        // Neighbours of v2 through BOTH t4 and t5 incoming: only v1 (Amy,
        // who diedIn and wasBornIn London).
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let c = n.neighbors(
            VertexId(2),
            Direction::Incoming,
            &[EdgeTypeId(4), EdgeTypeId(5)],
        );
        assert_eq!(c, vec![VertexId(1)]);
    }

    #[test]
    fn missing_type_gives_empty() {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        assert!(n
            .neighbors(VertexId(2), Direction::Incoming, &[EdgeTypeId(8)])
            .is_empty());
        assert!(!n.has_neighbor(VertexId(2), Direction::Incoming, &[EdgeTypeId(8)]));
    }

    #[test]
    fn empty_constraint_returns_all_neighbors() {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        // v2's in-neighbours: v0 (wasFormedIn), v1 (died+born), v3
        // (hasCapital), v7 (wasBornIn).
        let c = n.neighbors(VertexId(2), Direction::Incoming, &[]);
        assert_eq!(c, vec![VertexId(0), VertexId(1), VertexId(3), VertexId(7)]);
    }

    #[test]
    fn probe_borrows_single_type_lists() {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let mut spill = vec![VertexId(999)]; // must stay untouched
        let result = n.probe(
            VertexId(2),
            Direction::Incoming,
            &[EdgeTypeId(5)],
            &mut spill,
        );
        assert_eq!(
            result,
            ProbeResult::Borrowed(&[VertexId(1), VertexId(7)][..])
        );
        assert_eq!(spill, vec![VertexId(999)]);
        assert_eq!(result.as_slice(&spill), &[VertexId(1), VertexId(7)]);
    }

    #[test]
    fn probe_spills_multi_and_empty_type_probes() {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let mut spill = Vec::new();
        let result = n.probe(
            VertexId(2),
            Direction::Incoming,
            &[EdgeTypeId(4), EdgeTypeId(5)],
            &mut spill,
        );
        assert_eq!(result, ProbeResult::Spilled);
        assert_eq!(result.as_slice(&spill), &[VertexId(1)]);

        let result = n.probe(VertexId(2), Direction::Incoming, &[], &mut spill);
        assert_eq!(result, ProbeResult::Spilled);
        assert_eq!(
            result.as_slice(&spill),
            &[VertexId(0), VertexId(1), VertexId(3), VertexId(7)]
        );
    }

    #[test]
    fn len_hints_bound_actual_result_sizes() {
        let rdf = paper_graph();
        let g = rdf.graph();
        let n = NeighborhoodIndex::build(g);
        let type_sets: &[&[EdgeTypeId]] = &[
            &[],
            &[EdgeTypeId(5)],
            &[EdgeTypeId(4), EdgeTypeId(5)],
            &[EdgeTypeId(1), EdgeTypeId(4), EdgeTypeId(5)],
        ];
        for v in g.vertices() {
            for direction in [Direction::Incoming, Direction::Outgoing] {
                for &required in type_sets {
                    let exact = n.neighbors(v, direction, required).len();
                    let hint = n.probe_len_hint(v, direction, required);
                    assert!(
                        hint >= exact,
                        "hint {hint} < exact {exact} for v={v:?} {direction:?} {required:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbors_into_reuses_the_buffer() {
        let rdf = paper_graph();
        let n = NeighborhoodIndex::build(rdf.graph());
        let mut buf = Vec::new();
        n.neighbors_into(VertexId(2), Direction::Incoming, &[EdgeTypeId(5)], &mut buf);
        assert_eq!(buf, vec![VertexId(1), VertexId(7)]);
        // A second, unrelated probe into the same buffer starts clean.
        n.neighbors_into(VertexId(2), Direction::Outgoing, &[EdgeTypeId(0)], &mut buf);
        assert_eq!(buf, vec![VertexId(3)]);
    }

    #[test]
    fn has_neighbor_agrees_with_materialized_probes() {
        let rdf = paper_graph();
        let g = rdf.graph();
        let n = NeighborhoodIndex::build(g);
        let mut type_sets: Vec<Vec<EdgeTypeId>> = vec![vec![]];
        for a in 0..9u32 {
            type_sets.push(vec![EdgeTypeId(a)]);
            for b in a + 1..9 {
                type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b)]);
                for c in b + 1..9 {
                    type_sets.push(vec![EdgeTypeId(a), EdgeTypeId(b), EdgeTypeId(c)]);
                }
            }
        }
        for v in g.vertices() {
            for direction in [Direction::Incoming, Direction::Outgoing] {
                for required in &type_sets {
                    assert_eq!(
                        n.has_neighbor(v, direction, required),
                        !n.neighbors(v, direction, required).is_empty(),
                        "v={v:?} {direction:?} {required:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn vertices_with_type_is_the_transposed_root_level() {
        // Brute force: v owns a type-t list iff that list is non-empty.
        let rdf = paper_graph();
        let g = rdf.graph();
        let n = NeighborhoodIndex::build(g);
        for direction in [Direction::Incoming, Direction::Outgoing] {
            // One past the largest type id: unknown types answer empty.
            for t in (0..=9u32).map(EdgeTypeId) {
                let expected: Vec<VertexId> = g
                    .vertices()
                    .filter(|&v| !n.neighbors_with_type(v, direction, t).is_empty())
                    .collect();
                assert_eq!(
                    n.vertices_with_type(direction, t),
                    expected,
                    "{direction:?} {t}"
                );
            }
        }
        // §4.2's example again, now exact: the subjects of t5 (wasBornIn).
        assert_eq!(
            n.vertices_with_type(Direction::Outgoing, EdgeTypeId(5)),
            &[VertexId(1), VertexId(7)]
        );
        assert!(n
            .vertices_with_type(Direction::Outgoing, EdgeTypeId(u32::MAX))
            .is_empty());
    }

    #[test]
    fn agrees_with_adjacency_scan() {
        // Oracle: filter the raw adjacency by multi-edge containment.
        let rdf = paper_graph();
        let g = rdf.graph();
        let n = NeighborhoodIndex::build(g);
        for v in g.vertices() {
            for direction in [Direction::Incoming, Direction::Outgoing] {
                for t in 0..9u32 {
                    let required = [EdgeTypeId(t)];
                    let mut expected: Vec<VertexId> = g
                        .edges(v, direction)
                        .iter()
                        .filter(|e| e.types.contains_all(&required))
                        .map(|e| e.neighbor)
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(
                        n.neighbors(v, direction, &required),
                        expected,
                        "v={v:?} dir={direction:?} t={t}"
                    );
                }
            }
        }
    }
}
