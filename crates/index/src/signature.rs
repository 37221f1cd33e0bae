//! The vertex signature index `S` (paper §4.2).
//!
//! Every data vertex's signature is condensed to its 8-field synopsis and
//! stored in the [`RTree`]; `QuerySynIndex(u, S)` (Algorithm 3, line 4)
//! computes the synopsis of the query vertex and reports the dominating
//! data vertices — a superset of all valid candidates (Lemma 1).

use crate::rtree::{Entry, RTree};
use amber_multigraph::{DataGraph, Synopsis, VertexId};
use amber_util::HeapSize;

/// The signature index `S`: one synopsis per data vertex, R-tree organised.
#[derive(Debug)]
pub struct SignatureIndex {
    rtree: RTree,
    /// Per-vertex synopses in id order (kept for the linear-scan ablation
    /// and for `synopsis_of`).
    synopses: Vec<Synopsis>,
}

impl SignatureIndex {
    /// Compute all synopses and bulk-load the R-tree.
    pub fn build(graph: &DataGraph) -> Self {
        let synopses: Vec<Synopsis> = graph
            .vertices()
            .map(|v| Synopsis::of_data_vertex(graph, v))
            .collect();
        let entries: Vec<Entry> = synopses
            .iter()
            .enumerate()
            .map(|(i, &synopsis)| Entry {
                synopsis,
                vertex: VertexId::from_index(i),
            })
            .collect();
        Self {
            rtree: RTree::bulk_load(entries),
            synopses,
        }
    }

    /// `C^S_u`: sorted candidates whose synopsis dominates the query's
    /// (Lemma 1 guarantees this is a superset of the valid matches).
    pub fn candidates(&self, query: &Synopsis) -> Vec<VertexId> {
        self.rtree.dominating(query)
    }

    /// Ablation variant: same answer via a linear scan of the synopsis
    /// table (no R-tree pruning).
    pub fn candidates_linear(&self, query: &Synopsis) -> Vec<VertexId> {
        self.synopses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dominates(query))
            .map(|(i, _)| VertexId::from_index(i))
            .collect()
    }

    /// The stored synopsis of a data vertex.
    pub fn synopsis_of(&self, v: VertexId) -> Synopsis {
        self.synopses[v.index()]
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.synopses.len()
    }

    /// `true` when the graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.synopses.is_empty()
    }

    /// R-tree height (diagnostics).
    pub fn height(&self) -> usize {
        self.rtree.height()
    }
}

impl HeapSize for SignatureIndex {
    fn heap_size(&self) -> usize {
        self.rtree.heap_size() + self.synopses.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::paper_graph;
    use amber_multigraph::{EdgeTypeId, MultiEdge, VertexSignature};

    #[test]
    fn paper_example_c_s_u0() {
        // §4.2: query vertex u0 (σ = {-t5}) has candidates {v1, v7}.
        let rdf = paper_graph();
        let index = SignatureIndex::build(rdf.graph());
        let u0 = VertexSignature {
            incoming: vec![],
            outgoing: vec![MultiEdge::new(vec![EdgeTypeId(5)])],
        };
        let c = index.candidates(&u0.synopsis());
        assert_eq!(c, vec![VertexId(1), VertexId(7)]);
    }

    #[test]
    fn linear_scan_agrees_with_rtree() {
        let rdf = paper_graph();
        let index = SignatureIndex::build(rdf.graph());
        // Try the signature of every data vertex as a query — the vertex
        // itself must always be among its own candidates.
        for v in rdf.graph().vertices() {
            let q = index.synopsis_of(v);
            let rt = index.candidates(&q);
            let lin = index.candidates_linear(&q);
            assert_eq!(rt, lin, "query from {v:?}");
            assert!(rt.contains(&v), "{v:?} must dominate itself");
        }
    }

    #[test]
    fn zero_synopsis_matches_all_vertices() {
        let rdf = paper_graph();
        let index = SignatureIndex::build(rdf.graph());
        // The zero synopsis (an unconstrained vertex) is dominated by every
        // vertex whose negated-min fields are ≥ 0 … which in general is not
        // all of them; assert agreement with the oracle instead.
        let q = Synopsis::zero();
        assert_eq!(index.candidates(&q), index.candidates_linear(&q));
    }

    #[test]
    fn unmatchable_signature_yields_nothing() {
        let rdf = paper_graph();
        let index = SignatureIndex::build(rdf.graph());
        // No vertex has 10 incoming types.
        let q = Synopsis([10, 10, 0, 8, 0, 0, 0, 0]);
        assert!(index.candidates(&q).is_empty());
    }

    #[test]
    fn empty_graph_index() {
        let rdf = amber_multigraph::RdfGraph::from_triples([]);
        let index = SignatureIndex::build(rdf.graph());
        assert!(index.is_empty());
        assert!(index.candidates(&Synopsis::zero()).is_empty());
    }
}
