//! Vertex signatures and synopses (paper §4.2, Definition 3, Table 3).
//!
//! The *vertex signature* `σ_v` of a vertex is the multiset of directed
//! multi-edges incident on it, split into incoming (`+`) and outgoing (`-`)
//! halves. From each half four features are extracted:
//!
//! * `f1` — maximum cardinality of a multi-edge,
//! * `f2` — number of distinct edge types,
//! * `f3` — **negated** minimum edge-type index,
//! * `f4` — maximum edge-type index.
//!
//! `f3` is stored negated so that *all eight* fields obey the same dominance
//! rule (Lemma 1): a data vertex `v` can match a query vertex `u` only if
//! `f_i(u) ≤ f_i(v)` for every field — a rectangular-containment query that
//! the R-tree index `S` answers. Empty halves are zero-filled, exactly as in
//! Table 3.

use crate::data_graph::{DataGraph, MultiEdge};
use crate::ids::VertexId;
use amber_util::HeapSize;

/// Number of synopsis fields (4 per direction).
pub const SYNOPSIS_DIMS: usize = 8;

/// The signature `σ_v`: incoming and outgoing multi-edge multisets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VertexSignature {
    /// `σ⁺`: multi-edges arriving at the vertex.
    pub incoming: Vec<MultiEdge>,
    /// `σ⁻`: multi-edges leaving the vertex.
    pub outgoing: Vec<MultiEdge>,
}

impl VertexSignature {
    /// The signature of a data vertex, read off the adjacency lists.
    pub fn of_data_vertex(graph: &DataGraph, v: VertexId) -> Self {
        Self {
            incoming: graph.in_edges(v).iter().map(|e| e.types.clone()).collect(),
            outgoing: graph.out_edges(v).iter().map(|e| e.types.clone()).collect(),
        }
    }

    /// Compute the 8-field synopsis (Table 3).
    pub fn synopsis(&self) -> Synopsis {
        let mut scratch = Vec::new();
        Synopsis::from_halves(
            direction_features(self.incoming.iter(), &mut scratch),
            direction_features(self.outgoing.iter(), &mut scratch),
        )
    }

    /// The query-side synopsis used for dominance probes.
    ///
    /// **Deviation from the paper (soundness fix).** §4.2 zero-fills all four
    /// fields of an edge-less direction, on the data *and* the query side.
    /// Zero is correct for `f1`, `f2` and `f4` (every data value is ≥ 0),
    /// but not for the negated minimum `f3`: a query vertex with *no*
    /// incoming edges imposes no incoming constraint, yet `f3⁺(u) = 0` would
    /// prune every data vertex whose smallest incoming type id is > 0
    /// (`f3⁺(v) < 0`) — a false negative that violates Lemma 1. The paper's
    /// own example (u0 vs {v1, v7}) doesn't expose this because those data
    /// vertices happen to have empty directions too. We therefore fill the
    /// query-side `f3` of an empty direction with `i64::MIN`, the identity
    /// of the dominance order. Data-side synopses keep the paper's exact
    /// zero-filling (Table 3 is reproduced verbatim by [`Self::synopsis`]).
    pub fn query_synopsis(&self) -> Synopsis {
        let mut s = self.synopsis();
        if self.incoming.is_empty() {
            s.0[2] = i64::MIN;
        }
        if self.outgoing.is_empty() {
            s.0[6] = i64::MIN;
        }
        s
    }

    /// Total number of incident edge-type instances — the paper's ranking
    /// quantity `r2(u) = Σ_j |σ(u)_j|` (§5.3).
    pub fn edge_instance_count(&self) -> usize {
        self.incoming
            .iter()
            .chain(&self.outgoing)
            .map(MultiEdge::len)
            .sum()
    }
}

/// `[f1, f2, f3, f4]` of one direction per Table 3; `distinct` is scratch.
fn direction_features<'a>(
    multi_edges: impl Iterator<Item = &'a MultiEdge>,
    distinct: &mut Vec<u32>,
) -> [i64; 4] {
    distinct.clear();
    let mut f1 = 0;
    for multi_edge in multi_edges {
        f1 = f1.max(multi_edge.len() as i64);
        distinct.extend(multi_edge.types().iter().map(|t| t.0));
    }
    distinct.sort_unstable();
    distinct.dedup();
    match (distinct.first(), distinct.last()) {
        (Some(&min), Some(&max)) => [f1, distinct.len() as i64, -i64::from(min), i64::from(max)],
        _ => [0; 4], // an empty direction is zero-filled
    }
}

/// The 8-field surrogate of a vertex signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Synopsis(pub [i64; SYNOPSIS_DIMS]);

impl Synopsis {
    /// The all-zero synopsis (a vertex with no edges).
    pub fn zero() -> Self {
        Self([0; SYNOPSIS_DIMS])
    }

    /// The synopsis of a data vertex, folded straight off the adjacency
    /// lists — equal to `VertexSignature::of_data_vertex(graph, v).synopsis()`
    /// without copying a multi-edge.
    pub fn of_data_vertex(graph: &DataGraph, v: VertexId) -> Self {
        let mut scratch = Vec::new();
        Self::from_halves(
            direction_features(graph.in_edges(v).iter().map(|e| &e.types), &mut scratch),
            direction_features(graph.out_edges(v).iter().map(|e| &e.types), &mut scratch),
        )
    }

    fn from_halves(incoming: [i64; 4], outgoing: [i64; 4]) -> Self {
        let [i1, i2, i3, i4] = incoming;
        let [o1, o2, o3, o4] = outgoing;
        Self([i1, i2, i3, i4, o1, o2, o3, o4])
    }

    /// Dominance test of Lemma 1: can a data vertex with synopsis `self`
    /// possibly match a query vertex with synopsis `query`?
    ///
    /// `true` iff `query[i] ≤ self[i]` for all `i`.
    #[inline]
    pub fn dominates(&self, query: &Synopsis) -> bool {
        self.0.iter().zip(query.0.iter()).all(|(d, q)| q <= d)
    }

    /// Field accessor.
    pub fn fields(&self) -> &[i64; SYNOPSIS_DIMS] {
        &self.0
    }
}

impl HeapSize for Synopsis {
    fn heap_size(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeTypeId;

    fn me(ids: &[u32]) -> MultiEdge {
        MultiEdge::new(ids.iter().map(|&i| EdgeTypeId(i)).collect())
    }

    #[test]
    fn empty_signature_is_zero() {
        let sig = VertexSignature::default();
        assert_eq!(sig.synopsis(), Synopsis::zero());
        assert_eq!(sig.edge_instance_count(), 0);
    }

    #[test]
    fn paper_v2_synopsis() {
        // σ_v2 = σ⁺ {{t1},{t5},{t6},{t4,t5}}, σ⁻ {{t0},{t2}} — Table 3 row v2:
        // f⁺ = (2, 4, -1, 6), f⁻ = (1, 2, 0, 2).
        let sig = VertexSignature {
            incoming: vec![me(&[1]), me(&[5]), me(&[6]), me(&[4, 5])],
            outgoing: vec![me(&[0]), me(&[2])],
        };
        assert_eq!(sig.synopsis(), Synopsis([2, 4, -1, 6, 1, 2, 0, 2]));
        assert_eq!(sig.edge_instance_count(), 7);
    }

    #[test]
    fn paper_v1_synopsis() {
        // σ_v1 = σ⁻ {{t3},{t7},{t8},{t4,t5}} — Table 3: f⁺ zero, f⁻ = (2,5,-3,8).
        let sig = VertexSignature {
            incoming: vec![],
            outgoing: vec![me(&[3]), me(&[7]), me(&[8]), me(&[4, 5])],
        };
        assert_eq!(sig.synopsis(), Synopsis([0, 0, 0, 0, 2, 5, -3, 8]));
    }

    #[test]
    fn paper_v8_synopsis_min_type_zero() {
        // σ_v8 = σ⁺ {{t0}} — f3 = -0 = 0: Table 3 row v8 = (1,1,0,0,0,0,0,0).
        let sig = VertexSignature {
            incoming: vec![me(&[0])],
            outgoing: vec![],
        };
        assert_eq!(sig.synopsis(), Synopsis([1, 1, 0, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn borrowed_synopsis_equals_the_signature_route() {
        let rdf = crate::paper::paper_graph();
        for v in rdf.graph().vertices() {
            assert_eq!(
                Synopsis::of_data_vertex(rdf.graph(), v),
                VertexSignature::of_data_vertex(rdf.graph(), v).synopsis(),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn dominance_is_reflexive_and_antitone() {
        let s = Synopsis([2, 4, -1, 6, 1, 2, 0, 2]);
        assert!(s.dominates(&s));
        assert!(s.dominates(&Synopsis::zero()) || s.0.iter().any(|&f| f < 0));
        // A query needing more types than the data vertex has is rejected.
        let bigger = Synopsis([3, 4, -1, 6, 1, 2, 0, 2]);
        assert!(!s.dominates(&bigger));
        assert!(bigger.dominates(&s));
    }

    #[test]
    fn paper_u0_candidates_prune_correctly() {
        // §4.2 example: query vertex u0 with σ⁻ = {{t5}} must match v1 and
        // v7 but prune v6 (whose out types are {t3}).
        let u0 = VertexSignature {
            incoming: vec![],
            outgoing: vec![me(&[5])],
        }
        .synopsis();
        let v1 = Synopsis([0, 0, 0, 0, 2, 5, -3, 8]);
        let v7 = Synopsis([0, 0, 0, 0, 1, 3, 0, 5]);
        let v6 = Synopsis([1, 1, -8, 8, 1, 1, -3, 3]);
        assert!(v1.dominates(&u0));
        assert!(v7.dominates(&u0));
        assert!(!v6.dominates(&u0));
    }

    #[test]
    fn query_synopsis_does_not_prune_unconstrained_directions() {
        // Soundness fix: a query vertex with no incoming edges must accept a
        // data vertex whose incoming types start above 0. The paper's
        // zero-filled query synopsis would wrongly prune it.
        let query = VertexSignature {
            incoming: vec![],
            outgoing: vec![me(&[5])],
        };
        let data = VertexSignature {
            incoming: vec![me(&[1])], // f3⁺ = -1 < 0
            outgoing: vec![me(&[5])],
        }
        .synopsis();
        // The paper's plain synopsis: false negative.
        assert!(!data.dominates(&query.synopsis()));
        // The fixed query synopsis: accepted.
        assert!(data.dominates(&query.query_synopsis()));
    }

    #[test]
    fn query_synopsis_equals_synopsis_when_both_directions_present() {
        let sig = VertexSignature {
            incoming: vec![me(&[1])],
            outgoing: vec![me(&[2])],
        };
        assert_eq!(sig.synopsis(), sig.query_synopsis());
    }

    #[test]
    fn negated_min_rejects_smaller_query_types() {
        // Query requires incoming type t0; data vertex only has incoming t2.
        // Without the f3 negation this would (wrongly) pass.
        let query = VertexSignature {
            incoming: vec![me(&[0])],
            outgoing: vec![],
        }
        .synopsis();
        let data = VertexSignature {
            incoming: vec![me(&[2])],
            outgoing: vec![],
        }
        .synopsis();
        assert!(!data.dominates(&query));
    }
}
