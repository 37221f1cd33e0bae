//! The vertex signature index `S` (paper §4.2).
//!
//! Every data vertex's signature is condensed to its 8-field synopsis and
//! indexed by the [`RTree`]; `QuerySynIndex(u, S)` (Algorithm 3, line 4)
//! computes the synopsis of the query vertex and reports the dominating
//! data vertices — a superset of all valid candidates (Lemma 1).
//!
//! Each synopsis is stored once, in an id-ordered table of eight `u32`
//! fields per vertex; the R-tree holds vertex ids only and reads points
//! through the table. A data synopsis narrows losslessly: `f1`, `f2` are
//! counts and `f4` a type id, and `f3 = −min type id` is held as the type
//! id and negated on read.

use crate::rtree::RTree;
use amber_multigraph::signature::SYNOPSIS_DIMS;
use amber_multigraph::{DataGraph, Synopsis, VertexId};
use amber_util::HeapSize;

/// One table row: a data synopsis with `f3` held as the minimum type id.
type Row = [u32; SYNOPSIS_DIMS];

/// The table row of a data synopsis. Panics on a field no data vertex can
/// have (a negative count, a positive `f3`, or one past `u32`).
fn narrow(synopsis: &Synopsis) -> Row {
    let plain = |field: i64| u32::try_from(field).ok();
    let negated = |field: i64| field.checked_neg().and_then(plain);
    let [i1, i2, i3, i4, o1, o2, o3, o4] = synopsis.0;
    [
        plain(i1),
        plain(i2),
        negated(i3),
        plain(i4),
        plain(o1),
        plain(o2),
        negated(o3),
        plain(o4),
    ]
    .map(|field| field.expect("a data synopsis field is a u32 count or type id"))
}

/// The synopsis of a table row, bit for bit the one [`narrow`] was given.
#[inline]
fn widen(row: &Row) -> Synopsis {
    let field = |i: usize| i64::from(row[i]);
    Synopsis([
        field(0),
        field(1),
        -field(2),
        field(3),
        field(4),
        field(5),
        -field(6),
        field(7),
    ])
}

/// The signature index `S`: one synopsis per data vertex, R-tree organised.
#[derive(Debug)]
pub struct SignatureIndex {
    /// Per-vertex synopses in id order (read by `synopsis_of`, the
    /// linear-scan ablation and the R-tree's leaf scans).
    table: Box<[Row]>,
    rtree: RTree,
}

impl SignatureIndex {
    /// Compute all synopses and bulk-load the R-tree.
    pub fn build(graph: &DataGraph) -> Self {
        let table: Box<[Row]> = Synopsis::of_data_vertices(graph)
            .map(|synopsis| narrow(&synopsis))
            .collect();
        let rtree = RTree::bulk_load(table.len(), |v| widen(&table[v.index()]));
        Self { table, rtree }
    }

    /// `C^S_u`: sorted candidates whose synopsis dominates the query's
    /// (Lemma 1 guarantees this is a superset of the valid matches).
    pub fn candidates(&self, query: &Synopsis) -> Vec<VertexId> {
        self.rtree.dominating(query, |v| self.synopsis_of(v))
    }

    /// Ablation variant: same answer via a linear scan of the synopsis
    /// table (no R-tree pruning).
    pub fn candidates_linear(&self, query: &Synopsis) -> Vec<VertexId> {
        self.table
            .iter()
            .enumerate()
            .filter(|(_, row)| widen(row).dominates(query))
            .map(|(i, _)| VertexId::from_index(i))
            .collect()
    }

    /// The stored synopsis of a data vertex.
    #[inline]
    pub fn synopsis_of(&self, v: VertexId) -> Synopsis {
        widen(&self.table[v.index()])
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when the graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// R-tree height (diagnostics).
    pub fn height(&self) -> usize {
        self.rtree.height()
    }
}

impl HeapSize for SignatureIndex {
    fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.table) + self.rtree.heap_size()
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
    fn narrowing_is_lossless_at_the_type_id_extremes() {
        for id in [0, 1, u32::MAX - 1, u32::MAX] {
            let id = i64::from(id);
            // One type on each side: f1 = f2 = 1, f3 = −id, f4 = id.
            let synopsis = Synopsis([1, 1, -id, id, 1, 1, -id, id]);
            assert_eq!(widen(&narrow(&synopsis)), synopsis, "type id {id}");
            assert_eq!(narrow(&synopsis)[2], id as u32);
        }
        // Types 0 and u32::MAX on one side: both ends of the range at once.
        let max = i64::from(u32::MAX);
        let wide = Synopsis([2, 2, 0, max, 0, 0, 0, 0]);
        assert_eq!(widen(&narrow(&wide)), wide);
        assert_eq!(widen(&narrow(&Synopsis::zero())), Synopsis::zero());
    }

    #[test]
    #[should_panic(expected = "u32 count or type id")]
    fn narrowing_rejects_a_query_only_field() {
        // `i64::MIN` fills an empty direction's f3 on the query side only.
        narrow(&Synopsis([0, 0, i64::MIN, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn each_synopsis_is_stored_once() {
        let rdf = paper_graph();
        let index = SignatureIndex::build(rdf.graph());
        let n = rdf.graph().vertex_count();
        // The table (32 B a vertex), the id pool (4 B) and one leaf's MBR.
        assert_eq!(index.heap_size(), n * 32 + n * 4 + 128);
    }

    #[test]
    fn empty_graph_index() {
        let rdf = amber_multigraph::RdfGraph::from_triples([]);
        let index = SignatureIndex::build(rdf.graph());
        assert!(index.is_empty());
        assert!(index.candidates(&Synopsis::zero()).is_empty());
    }
}
