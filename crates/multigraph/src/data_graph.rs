//! The immutable data multigraph `G` (paper Definition 1, Fig. 1c).
//!
//! Directed, vertex-attributed: vertices are mapped subject/object IRIs,
//! every directed vertex pair carries a *multi-edge* (a set of edge types),
//! and each vertex owns a set of attributes (mapped `<predicate, literal>`
//! pairs). Adjacency is stored twice (outgoing and incoming), sorted by
//! neighbour id, so both edge directions resolve with a binary search.
//! `DataGraph::assemble` builds all of it from flat, unordered id tuples,
//! bucketing them by source vertex (a counting sort) and sorting each
//! vertex's short bucket on its own.
//!
//! Layout: each of the three per-vertex structures (outgoing adjacency,
//! incoming adjacency, attribute sets) is one [`Csr`] — one exact-size
//! item pool plus `u32` row offsets — so the graph makes six allocations
//! however many vertices it has, and its heap-byte ledger is what it
//! occupies. A [`MultiEdge`] with one type (nearly all of them) is held
//! inline in its [`AdjEntry`]; only multi-type edges own a box.

use crate::ids::{AttrId, EdgeTypeId, VertexId};
use amber_util::{Csr, CsrBuilder, CsrScatter, HeapSize};

/// Edge direction relative to a vertex.
///
/// The paper labels incoming edges `+` (positive, the default) and outgoing
/// edges `-` (negative) — §2.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `+`: an edge arriving at the vertex.
    Incoming,
    /// `-`: an edge leaving the vertex.
    Outgoing,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Self {
        match self {
            Direction::Incoming => Direction::Outgoing,
            Direction::Outgoing => Direction::Incoming,
        }
    }

    /// Paper notation: `+` for incoming, `-` for outgoing.
    pub fn sign(self) -> char {
        match self {
            Direction::Incoming => '+',
            Direction::Outgoing => '-',
        }
    }
}

/// A multi-edge: the sorted, deduplicated set of edge types between one
/// ordered vertex pair (paper §2.1.1 — "multiple edges (predicates) can
/// appear between the same pair of vertices").
///
/// Almost every multi-edge of real data carries one type (DBpedia-like
/// data: 603,880 type instances in 603,246 multi-edges), so a single type
/// is held inline and owns no heap; two or more live in a boxed slice.
/// Equality, order and hashing are those of [`Self::types`], whichever
/// form holds them.
#[derive(Debug, Clone)]
pub struct MultiEdge(Types);

#[derive(Debug, Clone)]
enum Types {
    One(EdgeTypeId),
    Many(Box<[EdgeTypeId]>),
}

impl MultiEdge {
    /// Build from an arbitrary list of types (sorted + deduplicated here).
    pub fn new(mut types: Vec<EdgeTypeId>) -> Self {
        types.sort_unstable();
        types.dedup();
        match *types {
            [t] => Self(Types::One(t)),
            _ => Self(Types::Many(types.into_boxed_slice())),
        }
    }

    /// The sorted edge types.
    #[inline]
    pub fn types(&self) -> &[EdgeTypeId] {
        match &self.0 {
            Types::One(t) => std::slice::from_ref(t),
            Types::Many(types) => types,
        }
    }

    /// Number of edge types in the multi-edge (its cardinality, the paper's
    /// `|σ(u)_j|`).
    pub fn len(&self) -> usize {
        self.types().len()
    }

    /// `true` when the multi-edge carries no types (never stored).
    pub fn is_empty(&self) -> bool {
        self.types().is_empty()
    }

    /// Does this multi-edge contain every type of `other`? (the `⊆` of
    /// Definition 2, condition 2)
    pub fn contains_all(&self, other: &[EdgeTypeId]) -> bool {
        amber_util::sorted::is_subset(other, self.types())
    }

    /// Membership test for one type.
    pub fn contains(&self, t: EdgeTypeId) -> bool {
        self.types().binary_search(&t).is_ok()
    }
}

// By `types()`, not derived: a derived order would rank the inline form
// before the boxed one whatever the types.
impl PartialEq for MultiEdge {
    fn eq(&self, other: &Self) -> bool {
        self.types() == other.types()
    }
}

impl Eq for MultiEdge {}

impl PartialOrd for MultiEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MultiEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.types().cmp(other.types())
    }
}

impl std::hash::Hash for MultiEdge {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.types().hash(state);
    }
}

impl HeapSize for MultiEdge {
    fn heap_size(&self) -> usize {
        match &self.0 {
            Types::One(_) => 0,
            Types::Many(types) => types.heap_size(),
        }
    }
}

impl FromIterator<EdgeTypeId> for MultiEdge {
    fn from_iter<I: IntoIterator<Item = EdgeTypeId>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// One adjacency entry: a neighbour and the multi-edge shared with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbouring vertex.
    pub neighbor: VertexId,
    /// The multi-edge between the two vertices (direction given by which
    /// adjacency list the entry lives in).
    pub types: MultiEdge,
}

impl HeapSize for AdjEntry {
    fn heap_size(&self) -> usize {
        self.types.heap_size()
    }
}

/// The data multigraph `G = (V, E, L_V, L_E)`.
#[derive(Debug, Clone, Default)]
pub struct DataGraph {
    /// Outgoing adjacency, one row per vertex, sorted by neighbour.
    out_adj: Csr<AdjEntry>,
    /// Incoming adjacency, one row per vertex, sorted by neighbour.
    in_adj: Csr<AdjEntry>,
    /// Sorted attribute set, one row per vertex (`L_V`).
    attrs: Csr<AttrId>,
    /// Count of `(pair, type)` edges, i.e. resource triples.
    edge_instance_count: usize,
    /// Number of distinct edge types used (`|T|`).
    edge_type_count: usize,
}

impl DataGraph {
    /// Assemble a graph from flat id tuples: one `(from, to, type)` per
    /// edge instance and one `(vertex, attribute)` per attribute, in any
    /// order, repeats allowed. Every id must lie below `vertex_count`.
    ///
    /// This is the one place adjacency is built — the triple builder and
    /// the snapshot loader both end here. The tuples are sorted
    /// ([`sort_by_row`]: bucketed by their first vertex, then each bucket
    /// sorted on its own) and deduplicated, which groups each vertex
    /// pair's types into one sorted run. A counting pass takes both degrees
    /// of every vertex; a second pass cuts the runs into multi-edges in
    /// `(from, to)` order, appending each to the outgoing pool and placing
    /// its mirror in the incoming pool by counting sort, so both come out
    /// sorted by neighbour and at their exact size. The sorted attribute
    /// tuples are cut into rows the same way.
    pub(crate) fn assemble(
        vertex_count: usize,
        mut edges: Vec<(VertexId, VertexId, EdgeTypeId)>,
        mut attrs: Vec<(VertexId, AttrId)>,
        edge_type_count: usize,
    ) -> Self {
        sort_by_row(&mut edges, vertex_count, |&(from, _, _)| from.index());
        edges.dedup();
        let same_pair = |a: &(VertexId, VertexId, EdgeTypeId),
                         b: &(VertexId, VertexId, EdgeTypeId)| {
            (a.0, a.1) == (b.0, b.1)
        };

        let mut out_degree = vec![0usize; vertex_count];
        let mut in_degree = vec![0usize; vertex_count];
        for pair in edges.chunk_by(same_pair) {
            out_degree[pair[0].0.index()] += 1;
            in_degree[pair[0].1.index()] += 1;
        }
        let edge_pair_count = out_degree.iter().sum();
        let mut out_adj = CsrBuilder::with_capacity(vertex_count, edge_pair_count);
        let placeholder = AdjEntry {
            neighbor: VertexId(0),
            types: MultiEdge(Types::One(EdgeTypeId(0))),
        };
        let mut in_adj = CsrScatter::new(in_degree, placeholder);
        let mut pairs = edges.chunk_by(same_pair);
        for (from, degree) in out_degree.into_iter().enumerate() {
            for pair in pairs.by_ref().take(degree) {
                let types = match *pair {
                    [(_, _, t)] => MultiEdge(Types::One(t)),
                    _ => MultiEdge(Types::Many(pair.iter().map(|&(_, _, t)| t).collect())),
                };
                let (_, to, _) = pair[0];
                in_adj.place(
                    to.index(),
                    AdjEntry {
                        neighbor: VertexId::from_index(from),
                        types: types.clone(),
                    },
                );
                out_adj.push(AdjEntry {
                    neighbor: to,
                    types,
                });
            }
            out_adj.end_row();
        }

        sort_by_row(&mut attrs, vertex_count, |&(owner, _)| owner.index());
        attrs.dedup();
        let mut attr_rows = CsrBuilder::with_capacity(vertex_count, attrs.len());
        let mut rest = attrs.as_slice();
        for v in 0..vertex_count {
            let mine = rest
                .iter()
                .take_while(|(owner, _)| owner.index() == v)
                .count();
            let (mine, tail) = rest.split_at(mine);
            mine.iter().for_each(|&(_, attr)| attr_rows.push(attr));
            attr_rows.end_row();
            rest = tail;
        }
        assert!(rest.is_empty(), "attribute owner beyond the vertex count");

        Self {
            out_adj: out_adj.finish(),
            in_adj: in_adj.finish(),
            attrs: attr_rows.finish(),
            edge_instance_count: edges.len(),
            edge_type_count,
        }
    }

    /// Number of vertices `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.out_adj.rows()
    }

    /// Number of directed vertex pairs carrying a multi-edge (`|E|` — the
    /// "# Edges" column of Table 4).
    pub fn edge_pair_count(&self) -> usize {
        self.out_adj.items().len()
    }

    /// Number of `(pair, edge-type)` instances — the resource-triple count.
    pub fn edge_instance_count(&self) -> usize {
        self.edge_instance_count
    }

    /// Number of distinct edge types (`|T|` — "# Edge types" of Table 4).
    pub fn edge_type_count(&self) -> usize {
        self.edge_type_count
    }

    /// Iterate all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// The outgoing adjacency of `v` (sorted by neighbour).
    pub fn out_edges(&self, v: VertexId) -> &[AdjEntry] {
        self.out_adj.row(v.index())
    }

    /// The incoming adjacency of `v` (sorted by neighbour).
    pub fn in_edges(&self, v: VertexId) -> &[AdjEntry] {
        self.in_adj.row(v.index())
    }

    /// Adjacency of `v` in the given direction.
    pub fn edges(&self, v: VertexId, direction: Direction) -> &[AdjEntry] {
        match direction {
            Direction::Incoming => self.in_edges(v),
            Direction::Outgoing => self.out_edges(v),
        }
    }

    /// The multi-edge of the directed pair `(from, to)`, if present.
    pub fn multi_edge(&self, from: VertexId, to: VertexId) -> Option<&MultiEdge> {
        let adj = self.out_edges(from);
        adj.binary_search_by_key(&to, |e| e.neighbor)
            .ok()
            .map(|i| &adj[i].types)
    }

    /// Does `(from, to)` carry every type in (sorted) `required`?
    /// (Definition 2, condition 2.)
    pub fn has_multi_edge(&self, from: VertexId, to: VertexId, required: &[EdgeTypeId]) -> bool {
        self.multi_edge(from, to)
            .is_some_and(|m| m.contains_all(required))
    }

    /// The sorted attribute set of `v` (`L_V(v)`).
    pub fn attributes(&self, v: VertexId) -> &[AttrId] {
        self.attrs.row(v.index())
    }

    /// Does `v` own every attribute in (sorted) `required`?
    /// (Definition 2, condition 1.)
    pub fn has_attributes(&self, v: VertexId, required: &[AttrId]) -> bool {
        amber_util::sorted::is_subset(required, self.attributes(v))
    }

    /// Undirected degree: number of distinct neighbours over both directions.
    pub fn degree(&self, v: VertexId) -> usize {
        let out = self.out_edges(v).iter().map(|e| e.neighbor);
        let inc = self.in_edges(v).iter().map(|e| e.neighbor);
        // Both lists are sorted; count the union by merging.
        let mut count = 0;
        let mut out = out.peekable();
        let mut inc = inc.peekable();
        loop {
            match (out.peek(), inc.peek()) {
                (Some(a), Some(b)) => {
                    use std::cmp::Ordering::*;
                    match a.cmp(b) {
                        Less => {
                            out.next();
                        }
                        Greater => {
                            inc.next();
                        }
                        Equal => {
                            out.next();
                            inc.next();
                        }
                    }
                    count += 1;
                }
                (Some(_), None) => {
                    out.next();
                    count += 1;
                }
                (None, Some(_)) => {
                    inc.next();
                    count += 1;
                }
                (None, None) => break,
            }
        }
        count
    }
}

/// Sort `tuples` into the order `sort_unstable` gives, where `row` (below
/// `rows`) is each tuple's leading field: a counting sort by row into a
/// second buffer, which replaces the first, then a comparison sort inside
/// each row. Rows are short — a vertex's edges — so the per-row sorts are
/// small, where one sort over all tuples is `O(n log n)` on cache-cold
/// data. Tuples already in order (a snapshot's are) are left as they are
/// after one pass that finds so.
fn sort_by_row<T: Copy + Ord>(tuples: &mut Vec<T>, rows: usize, row: impl Fn(&T) -> usize) {
    if tuples.is_sorted() {
        return;
    }
    let first = tuples[0];
    assert!(u32::try_from(tuples.len()).is_ok(), "more than 2³² tuples");
    // `next[r]`: the slot row `r`'s next tuple goes to; after the scatter,
    // one past the row's last slot.
    let mut next = vec![0u32; rows];
    for tuple in tuples.iter() {
        next[row(tuple)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut sorted = vec![first; tuples.len()];
    for &tuple in tuples.iter() {
        let slot = &mut next[row(&tuple)];
        sorted[*slot as usize] = tuple;
        *slot += 1;
    }
    *tuples = sorted;
    let mut start = 0;
    for end in next {
        tuples[start..end as usize].sort_unstable();
        start = end as usize;
    }
}

impl DataGraph {
    /// Heap bytes of the two adjacency structures (multi-edges included).
    pub fn adjacency_heap_size(&self) -> usize {
        self.out_adj.heap_size() + self.in_adj.heap_size()
    }

    /// Heap bytes of the attribute lists.
    pub fn attribute_heap_size(&self) -> usize {
        self.attrs.heap_size()
    }
}

impl HeapSize for DataGraph {
    fn heap_size(&self) -> usize {
        self.adjacency_heap_size() + self.attribute_heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ids: &[u32]) -> MultiEdge {
        MultiEdge::new(ids.iter().map(|&i| EdgeTypeId(i)).collect())
    }

    fn tiny_graph() -> DataGraph {
        // v0 --{t0,t1}--> v1, v1 --{t0}--> v2, v0 --{t2}--> v2, v2 --{t1}--> v2 (self loop),
        // handed over unsorted and with repeats.
        let e = |from, to, t| (VertexId(from), VertexId(to), EdgeTypeId(t));
        let a = |v, attr| (VertexId(v), AttrId(attr));
        DataGraph::assemble(
            3,
            vec![
                e(2, 2, 1),
                e(0, 2, 2),
                e(0, 1, 1),
                e(1, 2, 0),
                e(0, 1, 0),
                e(0, 1, 1),
            ],
            vec![a(2, 1), a(0, 1), a(0, 0), a(0, 1)],
            3,
        )
    }

    #[test]
    fn assembles_sorted_exact_size_lists() {
        let g = tiny_graph();
        let neighbors = |adj: &[AdjEntry]| adj.iter().map(|e| e.neighbor.0).collect::<Vec<_>>();
        assert_eq!(neighbors(g.out_edges(VertexId(0))), [1, 2]);
        assert_eq!(neighbors(g.in_edges(VertexId(2))), [0, 1, 2]);
        assert!(g.in_edges(VertexId(0)).is_empty());
        assert_eq!(g.in_edges(VertexId(1))[0].types, t(&[0, 1]));
        assert_eq!(g.attributes(VertexId(0)), [AttrId(0), AttrId(1)]);
        assert!(g.attributes(VertexId(1)).is_empty());
        assert_eq!(g.attributes(VertexId(2)), [AttrId(1)]);
    }

    #[test]
    fn counts() {
        let g = tiny_graph();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_pair_count(), 4);
        assert_eq!(g.edge_instance_count(), 5);
        assert_eq!(g.edge_type_count(), 3);
    }

    #[test]
    fn multi_edge_lookup() {
        let g = tiny_graph();
        assert_eq!(g.multi_edge(VertexId(0), VertexId(1)), Some(&t(&[0, 1])));
        assert_eq!(g.multi_edge(VertexId(1), VertexId(0)), None);
        assert!(g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(1)]));
        assert!(!g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(2)]));
        assert!(g.has_multi_edge(VertexId(0), VertexId(1), &[]));
    }

    #[test]
    fn attribute_lookup() {
        let g = tiny_graph();
        assert!(g.has_attributes(VertexId(0), &[AttrId(0)]));
        assert!(g.has_attributes(VertexId(0), &[AttrId(0), AttrId(1)]));
        assert!(!g.has_attributes(VertexId(1), &[AttrId(0)]));
        assert!(g.has_attributes(VertexId(1), &[]));
    }

    #[test]
    fn degree_counts_distinct_neighbors_including_self() {
        let g = tiny_graph();
        assert_eq!(g.degree(VertexId(0)), 2); // v1, v2
        assert_eq!(g.degree(VertexId(1)), 2); // v0, v2
        assert_eq!(g.degree(VertexId(2)), 3); // v0, v1, v2(self)
    }

    #[test]
    fn multi_edge_normalizes() {
        let m = MultiEdge::new(vec![EdgeTypeId(3), EdgeTypeId(1), EdgeTypeId(3)]);
        assert_eq!(m.types(), &[EdgeTypeId(1), EdgeTypeId(3)]);
        assert!(m.contains(EdgeTypeId(3)));
        assert!(!m.contains(EdgeTypeId(2)));
        assert!(m.contains_all(&[EdgeTypeId(1)]));
        assert!(!m.contains_all(&[EdgeTypeId(1), EdgeTypeId(2)]));
    }

    #[test]
    fn one_type_is_inline_and_the_entry_stays_24_bytes() {
        let one = t(&[4]);
        let two = t(&[4, 1]);
        assert_eq!((one.heap_size(), two.heap_size()), (0, 8));
        assert_eq!(one.types(), [EdgeTypeId(4)]);
        assert_eq!(two.types(), [EdgeTypeId(1), EdgeTypeId(4)]);
        assert!(t(&[]).is_empty());
        // The one-type form sits in the box's length word, behind the
        // null-pointer niche: no tag word is added.
        assert_eq!(std::mem::size_of::<MultiEdge>(), 16);
        assert_eq!(std::mem::size_of::<AdjEntry>(), 24);
    }

    proptest::proptest! {
        #[test]
        fn sort_by_row_orders_as_a_full_sort(
            tuples in proptest::prop::collection::vec((0..7usize, 0..5u32, 0..3u32), 0..60)
        ) {
            let mut expected = tuples.clone();
            expected.sort_unstable();
            let mut sorted = tuples;
            sort_by_row(&mut sorted, 7, |&(row, _, _)| row);
            assert_eq!(sorted, expected);
        }
    }

    #[test]
    fn direction_flip_and_sign() {
        assert_eq!(Direction::Incoming.flip(), Direction::Outgoing);
        assert_eq!(Direction::Outgoing.flip(), Direction::Incoming);
        assert_eq!(Direction::Incoming.sign(), '+');
        assert_eq!(Direction::Outgoing.sign(), '-');
    }
}
