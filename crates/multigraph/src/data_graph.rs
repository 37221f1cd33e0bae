//! The immutable data multigraph `G` (paper Definition 1, Fig. 1c).
//!
//! Directed, vertex-attributed: vertices are mapped subject/object IRIs,
//! every directed vertex pair carries a *multi-edge* (a set of edge types),
//! and each vertex owns a set of attributes (mapped `<predicate, literal>`
//! pairs). Adjacency is stored twice (outgoing and incoming) as one 8-byte
//! [`AdjEntry`] per edge instance — a neighbour and one edge type — sorted
//! by `(neighbour, type)`. A multi-edge is therefore the run of entries
//! that share a neighbour ([`DataGraph::multi_edges`]), its types in
//! ascending order, and one binary search finds an edge instance.
//! `DataGraph::assemble` builds all of it from flat, unordered id tuples,
//! bucketing them by source vertex (a counting sort) and sorting each
//! vertex's short bucket on its own.
//!
//! Layout: each of the three per-vertex structures (outgoing adjacency,
//! incoming adjacency, attribute sets) is one [`Csr`] — one exact-size
//! item pool plus `u32` row offsets — so the graph makes six allocations
//! however many vertices it has, and its heap-byte ledger is what it
//! occupies: `8` bytes per edge instance and direction, `4` per attribute,
//! and `4` per vertex and structure for the offsets.

use crate::ids::{AttrId, EdgeTypeId, VertexId};
use amber_util::{Csr, CsrScatter, HeapSize};

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

/// The one edge type of an [`AdjEntry`]. [`Self::types`] reads it as the
/// type set of a one-type multi-edge, so code that walks the types of
/// each entry sees every edge instance once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OneType(pub EdgeTypeId);

impl OneType {
    /// The type as a one-element slice.
    #[inline]
    pub fn types(&self) -> &[EdgeTypeId] {
        std::slice::from_ref(&self.0)
    }
}

/// One adjacency entry: an edge instance, seen from one of its ends.
/// Entries order by `(neighbor, type)`, the order of every adjacency row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdjEntry {
    /// The neighbouring vertex.
    pub neighbor: VertexId,
    /// The edge type (direction given by which adjacency list the entry
    /// lives in).
    pub types: OneType,
}

impl AdjEntry {
    /// The entry's edge type.
    #[inline]
    pub fn edge_type(&self) -> EdgeTypeId {
        self.types.0
    }
}

impl HeapSize for AdjEntry {
    fn heap_size(&self) -> usize {
        0
    }
}

/// The data multigraph `G = (V, E, L_V, L_E)`.
#[derive(Debug, Clone, Default)]
pub struct DataGraph {
    /// Outgoing adjacency, one row per vertex, sorted by `(neighbour, type)`.
    out_adj: Csr<AdjEntry>,
    /// Incoming adjacency, one row per vertex, sorted by `(neighbour, type)`.
    in_adj: Csr<AdjEntry>,
    /// Sorted attribute set, one row per vertex (`L_V`).
    attrs: Csr<AttrId>,
    /// Number of directed vertex pairs carrying an edge (`|E|`).
    edge_pair_count: usize,
    /// Number of distinct edge types used (`|T|`).
    edge_type_count: usize,
}

impl DataGraph {
    /// Assemble a graph from flat id tuples: one `(from, to, type)` per
    /// edge instance and one `(vertex, attribute)` per attribute, in any
    /// order, repeats allowed. Every id must lie below `vertex_count`.
    ///
    /// This is the one place adjacency is built — the triple builder and
    /// the snapshot loader both end here. A counting pass takes each
    /// vertex's out-degree, and each tuple is placed in its source's
    /// outgoing row as a `(to, type)` entry (a counting sort straight into
    /// the pool); each row, short, is then sorted and rid of repeats in
    /// place ([`CsrScatter::finish_sorted_sets`]). The incoming rows are
    /// the outgoing ones transposed by a second counting sort: walking the
    /// sources in id order keeps every incoming row in `(from, type)`
    /// order. Attributes are placed in their owner's row the same way. No
    /// pool is copied, and each ends at its exact size.
    pub(crate) fn assemble(
        vertex_count: usize,
        edges: Vec<(VertexId, VertexId, EdgeTypeId)>,
        attrs: Vec<(VertexId, AttrId)>,
        edge_type_count: usize,
    ) -> Self {
        let placeholder = AdjEntry {
            neighbor: VertexId(0),
            types: OneType(EdgeTypeId(0)),
        };
        let mut out_adj = CsrScatter::new(
            row_lengths(vertex_count, edges.iter().map(|&(from, _, _)| from)),
            placeholder,
        );
        for (from, to, t) in edges {
            out_adj.place(
                from.index(),
                AdjEntry {
                    neighbor: to,
                    types: OneType(t),
                },
            );
        }
        let out_adj = out_adj.finish_sorted_sets();

        let mut in_adj = CsrScatter::new(
            row_lengths(vertex_count, out_adj.items().iter().map(|e| e.neighbor)),
            placeholder,
        );
        let mut edge_pair_count = 0;
        for from in 0..vertex_count {
            let row = out_adj.row(from);
            edge_pair_count += row.chunk_by(|a, b| a.neighbor == b.neighbor).count();
            for entry in row {
                in_adj.place(
                    entry.neighbor.index(),
                    AdjEntry {
                        neighbor: VertexId::from_index(from),
                        types: entry.types,
                    },
                );
            }
        }

        let mut attr_rows = CsrScatter::new(
            row_lengths(vertex_count, attrs.iter().map(|&(owner, _)| owner)),
            AttrId(0),
        );
        for (owner, attr) in attrs {
            attr_rows.place(owner.index(), attr);
        }

        Self {
            out_adj,
            in_adj: in_adj.finish(),
            attrs: attr_rows.finish_sorted_sets(),
            edge_pair_count,
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
        self.edge_pair_count
    }

    /// Number of `(pair, edge-type)` instances — the resource-triple count.
    pub fn edge_instance_count(&self) -> usize {
        self.out_adj.items().len()
    }

    /// Number of distinct edge types (`|T|` — "# Edge types" of Table 4).
    pub fn edge_type_count(&self) -> usize {
        self.edge_type_count
    }

    /// Iterate all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// The outgoing edge instances of `v`, sorted by `(neighbour, type)`.
    pub fn out_edges(&self, v: VertexId) -> &[AdjEntry] {
        self.out_adj.row(v.index())
    }

    /// The incoming edge instances of `v`, sorted by `(neighbour, type)`.
    pub fn in_edges(&self, v: VertexId) -> &[AdjEntry] {
        self.in_adj.row(v.index())
    }

    /// Edge instances of `v` in the given direction.
    pub fn edges(&self, v: VertexId, direction: Direction) -> &[AdjEntry] {
        match direction {
            Direction::Incoming => self.in_edges(v),
            Direction::Outgoing => self.out_edges(v),
        }
    }

    /// The multi-edges of `v` in the given direction, by ascending
    /// neighbour: each is the run of entries that share a neighbour, its
    /// types ascending.
    pub fn multi_edges(
        &self,
        v: VertexId,
        direction: Direction,
    ) -> impl Iterator<Item = &[AdjEntry]> + '_ {
        self.edges(v, direction)
            .chunk_by(|a, b| a.neighbor == b.neighbor)
    }

    /// The neighbours of `v` in `direction` whose multi-edge carries every
    /// type of (sorted) `required`, ascending — a scan of `v`'s row, which
    /// the neighbourhood index `N` answers by list intersections instead.
    pub fn neighbors_with<'a>(
        &'a self,
        v: VertexId,
        direction: Direction,
        required: &'a [EdgeTypeId],
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.multi_edges(v, direction)
            .filter(|run| {
                required
                    .iter()
                    .all(|&t| run.binary_search_by_key(&t, AdjEntry::edge_type).is_ok())
            })
            .map(|run| run[0].neighbor)
    }

    /// The multi-edge of the directed pair `(from, to)`: its run of
    /// entries, one per type, ascending; empty when the pair has no edge.
    pub fn multi_edge(&self, from: VertexId, to: VertexId) -> &[AdjEntry] {
        let row = self.out_edges(from);
        let start = row.partition_point(|e| e.neighbor < to);
        let len = row[start..].partition_point(|e| e.neighbor == to);
        &row[start..start + len]
    }

    /// Does `(from, to)` carry every type in `required`? With no type
    /// required, does it carry an edge at all? (Definition 2, condition 2.)
    pub fn has_multi_edge(&self, from: VertexId, to: VertexId, required: &[EdgeTypeId]) -> bool {
        let row = self.out_edges(from);
        match required {
            [] => !self.multi_edge(from, to).is_empty(),
            _ => required.iter().all(|&t| {
                let instance = AdjEntry {
                    neighbor: to,
                    types: OneType(t),
                };
                row.binary_search(&instance).is_ok()
            }),
        }
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
        let neighbors = |direction| self.multi_edges(v, direction).map(|run| run[0].neighbor);
        let mut out = neighbors(Direction::Outgoing).peekable();
        let mut inc = neighbors(Direction::Incoming).peekable();
        // Both sequences are sorted and distinct; count the union by merging.
        let mut count = 0;
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

/// How many of `owners` fall on each of the `rows` vertices.
fn row_lengths(rows: usize, owners: impl Iterator<Item = VertexId>) -> Vec<usize> {
    let mut lengths = vec![0; rows];
    owners.for_each(|v| lengths[v.index()] += 1);
    lengths
}

impl DataGraph {
    /// Heap bytes of the two adjacency structures.
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

    /// The types of a run of entries.
    fn t(run: &[AdjEntry]) -> Vec<u32> {
        run.iter().map(|e| e.edge_type().0).collect()
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
        assert_eq!(neighbors(g.out_edges(VertexId(0))), [1, 1, 2]);
        assert_eq!(neighbors(g.in_edges(VertexId(2))), [0, 1, 2]);
        assert!(g.in_edges(VertexId(0)).is_empty());
        assert_eq!(t(g.in_edges(VertexId(1))), [0, 1]);
        let runs: Vec<Vec<u32>> = g
            .multi_edges(VertexId(0), Direction::Outgoing)
            .map(t)
            .collect();
        assert_eq!(runs, [vec![0, 1], vec![2]]);
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
        assert_eq!(t(g.multi_edge(VertexId(0), VertexId(1))), [0, 1]);
        assert_eq!(t(g.multi_edge(VertexId(0), VertexId(2))), [2]);
        assert!(g.multi_edge(VertexId(1), VertexId(0)).is_empty());
        assert!(g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(1)]));
        assert!(g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(0), EdgeTypeId(1)]));
        assert!(!g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(2)]));
        assert!(!g.has_multi_edge(VertexId(0), VertexId(1), &[EdgeTypeId(1), EdgeTypeId(2)]));
        assert!(g.has_multi_edge(VertexId(0), VertexId(1), &[]));
        assert!(!g.has_multi_edge(VertexId(1), VertexId(0), &[]));
        assert!(g.has_multi_edge(VertexId(2), VertexId(2), &[EdgeTypeId(1)]));
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
    fn an_entry_is_eight_bytes_and_reads_as_one_type() {
        assert_eq!(std::mem::size_of::<AdjEntry>(), 8);
        let entry = AdjEntry {
            neighbor: VertexId(3),
            types: OneType(EdgeTypeId(4)),
        };
        assert_eq!(entry.types.types(), [EdgeTypeId(4)]);
        assert_eq!(entry.edge_type(), EdgeTypeId(4));
    }

    #[test]
    fn direction_flip_and_sign() {
        assert_eq!(Direction::Incoming.flip(), Direction::Outgoing);
        assert_eq!(Direction::Outgoing.flip(), Direction::Incoming);
        assert_eq!(Direction::Incoming.sign(), '+');
        assert_eq!(Direction::Outgoing.sign(), '-');
    }
}
