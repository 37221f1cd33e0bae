//! The vertex neighbourhood index `N` (paper §4.3, Fig. 3).
//!
//! For every data vertex the paper builds two OTIL structures (Ordered Trie
//! with Inverted Lists, after Terrovitis et al. \[13\]): `N⁺` over incoming
//! multi-edges and `N⁻` over outgoing ones. Each ordered multi-edge is
//! inserted at the root, and *every edge type keeps an inverted list of the
//! neighbour vertices reached through it* (Fig. 3b).
//!
//! The query `QueryNeighIndex(N, T', v)` asks for all neighbours `v'` of `v`
//! whose multi-edge towards/from `v` is a superset of `T'`; with per-type
//! inverted lists that is exactly the intersection of the lists of every
//! `t ∈ T'` — the operation Algorithms 2 and 4 are built on.
//!
//! The OTIL is the logical view; the layout is one edge table per
//! direction. Each vertex owns a row with one entry per edge instance, held
//! in two parallel pools, `types` and `neighbors`, and sorted by
//! `(type, neighbour)`. A trie root is then the run of a row's entries that
//! share a type, and its inverted list is the `neighbors` of that run: one
//! contiguous, sorted slice of the pool, borrowed as it is. The row's
//! `neighbors` as a whole are its inverted lists back to back. Almost every
//! list holds a single neighbour on real data, so a table row costs less
//! than a root with its own list offset. With `|V|` vertices, `|T|` edge
//! types, `I` edge instances and `R` roots (one per vertex and distinct
//! type), a direction costs `4(|V| + 1) + 8I + 4(|T| + 1) + 4R` bytes: the
//! row offsets, the two pools, and the type-major transpose below.
//!
//! A lookup `N(v, t)` finds the start of `t`'s run in the row's `types` by
//! binary search, and its end by galloping from there (exponential search:
//! probe 1, 2, 4, … entries ahead, then binary search the last gap). A
//! one-neighbour run costs three comparisons past the start, and a long run,
//! as on a hub's incoming row, a logarithm of its own length rather than of
//! the row's. The table is filled in one pass over the adjacency, after a
//! counting pass, so every pool is allocated once at its exact size.
//!
//! The roots are also kept **type-major**
//! ([`NeighborhoodIndex::vertices_with_type`]): per direction and edge type,
//! the sorted list of vertices that have a root for it — a counting-sort
//! transpose of the rows' type runs, placed during the filling pass. That
//! is the exact incidence list the matcher seeds a component from ("every
//! vertex with an outgoing `t`"), where the 8-field synopsis of `S` can only
//! say "at least one outgoing edge, type ids in this range".

use amber_multigraph::{DataGraph, Direction, EdgeTypeId, VertexId};
use amber_util::{sorted, Csr, CsrBuilder, CsrScatter, HeapSize};
use std::ops::Range;

/// The edge table of one direction.
#[derive(Debug)]
struct DirIndex {
    /// Per vertex: the type of each of its edge instances, ascending, so
    /// that a root is a run of equal types (the "ordered" of OTIL).
    types: Csr<EdgeTypeId>,
    /// Parallel to `types`' pool: the neighbour of each edge instance,
    /// ascending within a type run (the inverted lists).
    neighbors: Box<[VertexId]>,
    /// Per edge type: the sorted vertices owning a root for it (the roots
    /// transposed).
    type_vertices: Csr<VertexId>,
}

impl DirIndex {
    fn build(graph: &DataGraph, direction: Direction) -> Self {
        // Counting pass: a vertex owns one root per distinct type among
        // its edges; `last_owner[t]` is the last vertex counted for t.
        let mut last_owner = vec![u32::MAX; graph.edge_type_count()];
        let mut owners = vec![0usize; graph.edge_type_count()];
        for v in graph.vertices() {
            for entry in graph.edges(v, direction) {
                let t = entry.edge_type().index();
                if std::mem::replace(&mut last_owner[t], v.0) != v.0 {
                    owners[t] += 1;
                }
            }
        }
        // Every edge instance is one entry per direction.
        let instances = graph.edge_instance_count();
        let mut types = CsrBuilder::with_capacity(graph.vertex_count(), instances);
        let mut neighbors = Vec::with_capacity(instances);
        let mut type_vertices = CsrScatter::new(owners, VertexId(0));
        // Scratch: (type, neighbor) pairs of one vertex.
        let mut pairs: Vec<(EdgeTypeId, VertexId)> = Vec::new();
        for v in graph.vertices() {
            pairs.clear();
            pairs.extend(
                graph
                    .edges(v, direction)
                    .iter()
                    .map(|e| (e.edge_type(), e.neighbor)),
            );
            // Group by type, neighbours ascending within a type (each
            // neighbour occurs once per type, so the pairs are distinct).
            pairs.sort_unstable();
            for run in pairs.chunk_by(|a, b| a.0 == b.0) {
                // Vertices are visited in id order: each row comes out sorted.
                type_vertices.place(run[0].0.index(), v);
            }
            for &(edge_type, neighbor) in &pairs {
                types.push(edge_type);
                neighbors.push(neighbor);
            }
            types.end_row();
        }
        Self {
            types: types.finish(),
            neighbors: neighbors.into_boxed_slice(),
            type_vertices: type_vertices.finish(),
        }
    }

    /// The inverted list of `(v, edge_type)`.
    #[inline]
    fn list(&self, v: VertexId, edge_type: EdgeTypeId) -> &[VertexId] {
        let row = self.types.range(v.index());
        let run = equal_range(&self.types.items()[row.clone()], edge_type);
        &self.neighbors[row.start + run.start..row.start + run.end]
    }

    /// Every inverted list of `v` back to back (one sorted run per edge
    /// type; a neighbour reached through several types repeats).
    fn all_lists(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.types.range(v.index())]
    }

    /// The vertices owning an inverted list for `edge_type`, sorted.
    fn vertices_with_type(&self, edge_type: EdgeTypeId) -> &[VertexId] {
        match edge_type.index() {
            t if t < self.type_vertices.rows() => self.type_vertices.row(t),
            _ => &[], // a type the graph never uses
        }
    }
}

/// The positions of `t` in the sorted `types`: a binary search for the
/// first, then a gallop for the end of the run.
#[inline]
fn equal_range(types: &[EdgeTypeId], t: EdgeTypeId) -> Range<usize> {
    let start = types.partition_point(|&x| x < t);
    start..start + run_len(&types[start..], t)
}

/// How many leading entries of `rest` (sorted, none below `t`) equal `t`.
/// Gallops: checks entries 0, 2, 6, 14, … (each step twice the last)
/// until one differs or the slice ends, then binary searches the last
/// step's window.
#[inline]
fn run_len(rest: &[EdgeTypeId], t: EdgeTypeId) -> usize {
    // Invariant: `rest[..known]` all equal `t`.
    let mut known = 0;
    let mut step = 1;
    while known + step <= rest.len() && rest[known + step - 1] == t {
        known += step;
        step *= 2;
    }
    // The run ends before `known + step - 1` (or at the slice's end).
    let window = &rest[known..rest.len().min(known + step - 1)];
    known + window.partition_point(|&x| x == t)
}

impl HeapSize for DirIndex {
    fn heap_size(&self) -> usize {
        self.types.heap_size() + self.neighbors.heap_size() + self.type_vertices.heap_size()
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
            [] => !dir.all_lists(v).is_empty(),
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

    /// Is there an edge `from → to` carrying every type of `required`
    /// (`required ⊆ L_E(from, to)`)? An empty `required` asks for some
    /// edge `from → to`. Reads `N⁻`: `to` is looked up in each list
    /// `N⁻(from, t)`, so no neighbour list is materialized.
    pub fn has_edge(&self, from: VertexId, to: VertexId, required: &[EdgeTypeId]) -> bool {
        let out = &self.outgoing;
        match required {
            [] => out.all_lists(from).contains(&to),
            _ => required
                .iter()
                .all(|&t| out.list(from, t).binary_search(&to).is_ok()),
        }
    }

    /// `|V|`: the number of vertices the index has a row for.
    pub fn vertex_count(&self) -> usize {
        self.outgoing.types.rows()
    }
}

/// Indices (into `many`) of the two shortest inverted lists, or `None`
/// when the shortest is empty (the intersection is then trivially empty).
fn smallest_two(dir: &DirIndex, v: VertexId, many: &[EdgeTypeId]) -> Option<(usize, usize)> {
    debug_assert!(many.len() >= 2);
    // `(index, length)`: each list is looked up once.
    let len_of = |i: usize| (i, dir.list(v, many[i]).len());
    let (mut first, mut second) = (len_of(0), len_of(1));
    if second.1 < first.1 {
        std::mem::swap(&mut first, &mut second);
    }
    for i in 2..many.len() {
        let next = len_of(i);
        if next.1 < first.1 {
            second = first;
            first = next;
        } else if next.1 < second.1 {
            second = next;
        }
    }
    (first.1 > 0).then_some((first.0, second.0))
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
    fn the_gallop_finds_every_run_end() {
        // Runs of type 10, 20, … with the lengths below, then probes
        // before, on, between and after them, against a linear count.
        let lengths = [1usize, 2, 3, 4, 5, 7, 8, 9, 1000];
        let mut row = Vec::new();
        for (i, &len) in lengths.iter().enumerate() {
            row.extend(std::iter::repeat_n(EdgeTypeId(10 * (i as u32 + 1)), len));
        }
        let last = 10 * lengths.len() as u32;
        for t in (0..=last + 10).map(EdgeTypeId) {
            let start = row.iter().take_while(|&&x| x < t).count();
            let len = row.iter().filter(|&&x| x == t).count();
            assert_eq!(equal_range(&row, t), start..start + len, "{t}");
        }
        // Every run seen from its own start, as a prefix of a suffix.
        let mut start = 0;
        for (i, &len) in lengths.iter().enumerate() {
            let t = EdgeTypeId(10 * (i as u32 + 1));
            assert_eq!(run_len(&row[start..], t), len, "{t}");
            assert_eq!(run_len(&row[start..start + len], t), len, "{t} alone");
            start += len;
        }
        assert_eq!(equal_range(&[], EdgeTypeId(3)), 0..0);
    }

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
                    let expected: Vec<VertexId> =
                        g.neighbors_with(v, direction, &required).collect();
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
