//! The immutable data multigraph `G` (paper Definition 1, Fig. 1c).
//!
//! Directed, vertex-attributed: vertices are mapped subject/object IRIs,
//! every directed vertex pair carries a *multi-edge* (a set of edge types),
//! and each vertex owns a set of attributes (mapped `<predicate, literal>`
//! pairs). Adjacency is stored twice (outgoing and incoming), sorted by
//! neighbour id, so both edge directions resolve with a binary search.
//! `DataGraph::assemble` builds all of it from flat, unordered id tuples.

use crate::ids::{AttrId, EdgeTypeId, VertexId};
use amber_util::HeapSize;

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
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MultiEdge(Box<[EdgeTypeId]>);

impl MultiEdge {
    /// Build from an arbitrary list of types (sorted + deduplicated here).
    pub fn new(mut types: Vec<EdgeTypeId>) -> Self {
        types.sort_unstable();
        types.dedup();
        Self(types.into_boxed_slice())
    }

    /// The sorted edge types.
    pub fn types(&self) -> &[EdgeTypeId] {
        &self.0
    }

    /// Number of edge types in the multi-edge (its cardinality, the paper's
    /// `|σ(u)_j|`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the multi-edge carries no types (never stored).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Does this multi-edge contain every type of `other`? (the `⊆` of
    /// Definition 2, condition 2)
    pub fn contains_all(&self, other: &[EdgeTypeId]) -> bool {
        amber_util::sorted::is_subset(other, &self.0)
    }

    /// Membership test for one type.
    pub fn contains(&self, t: EdgeTypeId) -> bool {
        self.0.binary_search(&t).is_ok()
    }
}

impl HeapSize for MultiEdge {
    fn heap_size(&self) -> usize {
        self.0.heap_size()
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
    /// Outgoing adjacency per vertex, sorted by neighbour.
    out_adj: Vec<Box<[AdjEntry]>>,
    /// Incoming adjacency per vertex, sorted by neighbour.
    in_adj: Vec<Box<[AdjEntry]>>,
    /// Sorted attribute set per vertex (`L_V`).
    attrs: Vec<Box<[AttrId]>>,
    /// Count of directed vertex pairs with at least one edge (`|E|`).
    edge_pair_count: usize,
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
    /// the snapshot loader both end here. The tuples are sorted and
    /// deduplicated, which groups each vertex pair's types into one sorted
    /// run; a counting pass sizes every per-vertex list, so each is
    /// allocated once at its final length; a second pass cuts the runs into
    /// multi-edges, visiting pairs in `(from, to)` order so both the
    /// outgoing and the incoming lists come out sorted by neighbour.
    pub(crate) fn assemble(
        vertex_count: usize,
        mut edges: Vec<(VertexId, VertexId, EdgeTypeId)>,
        mut attrs: Vec<(VertexId, AttrId)>,
        edge_type_count: usize,
    ) -> Self {
        edges.sort_unstable();
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
        let sized = |degrees: Vec<usize>| -> Vec<Vec<AdjEntry>> {
            degrees.into_iter().map(Vec::with_capacity).collect()
        };
        let (mut out_adj, mut in_adj) = (sized(out_degree), sized(in_degree));
        for pair in edges.chunk_by(same_pair) {
            let (from, to, _) = pair[0];
            let types = MultiEdge(pair.iter().map(|&(_, _, t)| t).collect());
            out_adj[from.index()].push(AdjEntry {
                neighbor: to,
                types: types.clone(),
            });
            in_adj[to.index()].push(AdjEntry {
                neighbor: from,
                types,
            });
        }
        // Filled to capacity, so boxing does not reallocate.
        let boxed = |adj: Vec<Vec<AdjEntry>>| -> Vec<Box<[AdjEntry]>> {
            adj.into_iter().map(Vec::into_boxed_slice).collect()
        };

        attrs.sort_unstable();
        attrs.dedup();
        let mut rest = attrs.as_slice();
        let attrs = (0..vertex_count)
            .map(|v| {
                let mine = rest.iter().take_while(|(owner, _)| owner.index() == v);
                let (mine, tail) = rest.split_at(mine.count());
                rest = tail;
                mine.iter().map(|&(_, attr)| attr).collect()
            })
            .collect();
        assert!(rest.is_empty(), "attribute owner beyond the vertex count");

        Self {
            out_adj: boxed(out_adj),
            in_adj: boxed(in_adj),
            attrs,
            edge_pair_count,
            edge_instance_count: edges.len(),
            edge_type_count,
        }
    }

    /// Number of vertices `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed vertex pairs carrying a multi-edge (`|E|` — the
    /// "# Edges" column of Table 4).
    pub fn edge_pair_count(&self) -> usize {
        self.edge_pair_count
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
        &self.out_adj[v.index()]
    }

    /// The incoming adjacency of `v` (sorted by neighbour).
    pub fn in_edges(&self, v: VertexId) -> &[AdjEntry] {
        &self.in_adj[v.index()]
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
        let adj = &self.out_adj[from.index()];
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
        &self.attrs[v.index()]
    }

    /// Does `v` own every attribute in (sorted) `required`?
    /// (Definition 2, condition 1.)
    pub fn has_attributes(&self, v: VertexId, required: &[AttrId]) -> bool {
        amber_util::sorted::is_subset(required, &self.attrs[v.index()])
    }

    /// Undirected degree: number of distinct neighbours over both directions.
    pub fn degree(&self, v: VertexId) -> usize {
        let out = self.out_adj[v.index()].iter().map(|e| e.neighbor);
        let inc = self.in_adj[v.index()].iter().map(|e| e.neighbor);
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

impl DataGraph {
    /// Heap bytes of the two adjacency structures (multi-edges included).
    pub fn adjacency_heap_size(&self) -> usize {
        self.out_adj.heap_size() + self.in_adj.heap_size()
    }

    /// Heap bytes of the per-vertex attribute lists.
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
    fn direction_flip_and_sign() {
        assert_eq!(Direction::Incoming.flip(), Direction::Outgoing);
        assert_eq!(Direction::Outgoing.flip(), Direction::Incoming);
        assert_eq!(Direction::Incoming.sign(), '+');
        assert_eq!(Direction::Outgoing.sign(), '-');
    }
}
