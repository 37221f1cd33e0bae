//! The attribute index `A` (paper §4.1).
//!
//! An inverted list: for every attribute `a_i` (a mapped
//! `<predicate, literal>` pair) the sorted set of data vertices that carry
//! it. A query vertex `u` with attribute set `u.A` gets its candidates
//! `C^A_u` by intersecting the lists of all attributes in `u.A` — e.g. the
//! paper's `C^A_{u5} = {v0}` for `u5.A = {a1, a2}`.
//!
//! Layout: one [`Csr`] — a row of vertices per attribute in one exact-size
//! pool — built by counting sort over the graph's attribute lists (count
//! each attribute's carriers, then place every vertex in its row).

use amber_multigraph::{AttrId, RdfGraph, VertexId};
use amber_util::{sorted, Csr, CsrScatter, HeapSize};

/// Inverted list from attribute id to sorted vertex list.
#[derive(Debug, Default)]
pub struct AttributeIndex {
    lists: Csr<VertexId>,
}

impl AttributeIndex {
    /// Build from a loaded graph.
    pub fn build(rdf: &RdfGraph) -> Self {
        let graph = rdf.graph();
        let mut lengths = vec![0usize; rdf.dictionaries().attributes.len()];
        for v in graph.vertices() {
            for &attr in graph.attributes(v) {
                lengths[attr.index()] += 1;
            }
        }
        let mut lists = CsrScatter::new(lengths, VertexId(0));
        for v in graph.vertices() {
            for &attr in graph.attributes(v) {
                lists.place(attr.index(), v);
            }
        }
        // Vertices are placed in increasing id order, so each list is
        // sorted and duplicate-free (attribute sets are sets).
        let lists = lists.finish();
        debug_assert!((0..lists.rows()).all(|a| lists.row(a).windows(2).all(|w| w[0] < w[1])));
        Self { lists }
    }

    /// The sorted vertex list of one attribute (empty for unknown ids).
    pub fn vertices_with(&self, attr: AttrId) -> &[VertexId] {
        match attr.index() {
            a if a < self.lists.rows() => self.lists.row(a),
            _ => &[],
        }
    }

    /// Does `v` carry every attribute of `attrs` (`attrs ⊆ L_V(v)`)? One
    /// binary search per attribute list.
    pub fn has_attributes(&self, v: VertexId, attrs: &[AttrId]) -> bool {
        attrs
            .iter()
            .all(|&a| self.vertices_with(a).binary_search(&v).is_ok())
    }

    /// `C^A_u`: vertices carrying *all* of `attrs` (paper §4.1).
    /// Returns `None` when `attrs` is empty (no attribute constraint).
    pub fn candidates(&self, attrs: &[AttrId]) -> Option<Vec<VertexId>> {
        if attrs.is_empty() {
            return None;
        }
        let mut acc = Vec::new();
        self.candidates_into(attrs, &mut Vec::new(), &mut acc, &mut Vec::new());
        Some(acc)
    }

    /// The reusable-buffer form of [`Self::candidates`]: intersects the
    /// attribute lists smallest-first into `acc` using `order` and
    /// `scratch` as scratch space — no list-of-lists, no copy of the first
    /// list, nothing allocated in steady state. Returns `false` (and
    /// clears `acc`) when `attrs` is empty.
    pub fn candidates_into(
        &self,
        attrs: &[AttrId],
        order: &mut Vec<u32>,
        acc: &mut Vec<VertexId>,
        scratch: &mut Vec<VertexId>,
    ) -> bool {
        sorted::intersect_many_with(
            attrs.len(),
            |i| self.vertices_with(attrs[i]),
            order,
            acc,
            scratch,
        )
    }

    /// Number of indexed attributes.
    pub fn attribute_count(&self) -> usize {
        self.lists.rows()
    }
}

impl HeapSize for AttributeIndex {
    fn heap_size(&self) -> usize {
        self.lists.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::paper_graph;
    use amber_multigraph::RdfGraph;

    #[test]
    fn paper_example_c_a_u5() {
        // §4.1: u5 has {a1, a2}; the only common vertex is v0 (Music_Band).
        let rdf = paper_graph();
        let index = AttributeIndex::build(&rdf);
        let c = index.candidates(&[AttrId(1), AttrId(2)]).unwrap();
        assert_eq!(c, vec![VertexId(0)]);
    }

    #[test]
    fn single_attribute_lookup() {
        let rdf = paper_graph();
        let index = AttributeIndex::build(&rdf);
        // a0 = <hasCapacityOf,"90000"> is carried only by v4 (Wembley).
        assert_eq!(index.vertices_with(AttrId(0)), &[VertexId(4)]);
    }

    #[test]
    fn empty_constraint_returns_none() {
        let rdf = paper_graph();
        let index = AttributeIndex::build(&rdf);
        assert!(index.candidates(&[]).is_none());
    }

    #[test]
    fn unknown_attribute_yields_empty() {
        let rdf = paper_graph();
        let index = AttributeIndex::build(&rdf);
        assert_eq!(index.vertices_with(AttrId(999)), &[] as &[VertexId]);
        assert_eq!(index.candidates(&[AttrId(999)]).unwrap(), vec![]);
    }

    #[test]
    fn conflicting_attributes_intersect_to_empty() {
        let rdf = paper_graph();
        let index = AttributeIndex::build(&rdf);
        // a0 belongs to v4, a2 to v0 — no vertex has both.
        assert_eq!(index.candidates(&[AttrId(0), AttrId(2)]).unwrap(), vec![]);
    }

    #[test]
    fn shared_attribute_lists_all_carriers() {
        let rdf = RdfGraph::parse_ntriples(
            r#"
<http://x/a> <http://p/tag> "hot" .
<http://x/b> <http://p/tag> "hot" .
<http://x/c> <http://p/tag> "cold" .
"#,
        )
        .unwrap();
        let index = AttributeIndex::build(&rdf);
        let hot = rdf
            .dictionaries()
            .attribute("http://p/tag", &rdf_model::Literal::plain("hot"))
            .unwrap();
        assert_eq!(index.vertices_with(hot).len(), 2);
        assert_eq!(index.attribute_count(), 2);
    }
}
