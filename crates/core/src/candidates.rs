//! `ProcessVertex` (paper Algorithm 1) — candidate solutions from vertex
//! attributes and IRI constraints.
//!
//! For a query vertex `u`:
//!
//! * `C^A_u` — vertices owning every attribute of `u.A` (index `A`, §4.1),
//! * `C^I_u` — for every IRI vertex in `u.R`, the neighbours of its (unique)
//!   data vertex through the required multi-edge (index `N`, §4.3);
//!   intersected across all IRI vertices,
//! * the result is `C^A_u ∩ C^I_u` (Algorithm 1, line 5).
//!
//! These sets depend only on the query, so the matcher computes them once
//! per vertex and reuses them at every recursion step (the paper re-invokes
//! `ProcessVertex` per candidate; the cached form is observationally
//! identical).

use crate::seeds::SeedCache;
use amber_index::IndexSet;
use amber_multigraph::{DataGraph, QVertexId, QueryGraph, VertexId};
use amber_util::sorted;

/// The per-vertex constraint computed by `ProcessVertex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `u.A = ∅` and `u.R = ∅`: any data vertex passes this stage.
    Unconstrained,
    /// Sorted whitelist of data vertices.
    Candidates(Vec<VertexId>),
}

impl Constraint {
    /// Does `v` satisfy the constraint?
    pub fn admits(&self, v: VertexId) -> bool {
        match self {
            Constraint::Unconstrained => true,
            Constraint::Candidates(c) => c.binary_search(&v).is_ok(),
        }
    }

    /// Intersect a sorted candidate list with the constraint, in place: a
    /// retain-style compaction with galloping membership tests, so the hot
    /// path neither allocates nor copies. `Unconstrained` short-circuits.
    pub fn filter(&self, candidates: &mut Vec<VertexId>) {
        match self {
            Constraint::Unconstrained => {}
            Constraint::Candidates(allowed) => sorted::intersect_in_place(candidates, allowed),
        }
    }

    /// `true` when the constraint admits no vertex at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, Constraint::Candidates(c) if c.is_empty())
    }
}

/// Algorithm 1: compute the attribute/IRI constraint of `u` with
/// transient state (no seed memoization). One-shot callers and tests use
/// this; the session path goes through [`process_vertex_seeded`].
pub fn process_vertex(qg: &QueryGraph, u: QVertexId, index: &IndexSet) -> Constraint {
    process_vertex_seeded(qg, u, index, &mut SeedCache::disabled())
}

/// Algorithm 1 against a session [`SeedCache`]: the attribute-set lookup
/// and every IRI-constraint OTIL probe resolve through the cache (each in
/// its own key space), so constant-heavy query streams stop recomputing
/// their seed candidates on every repeat.
pub fn process_vertex_seeded(
    qg: &QueryGraph,
    u: QVertexId,
    index: &IndexSet,
    seeds: &mut SeedCache,
) -> Constraint {
    let vertex = qg.vertex(u);

    // C^A_u (lines 1-2).
    let from_attrs: Option<Vec<VertexId>> = seeds.attr_candidates(&index.attribute, &vertex.attrs);

    // C^I_u (lines 3-4): each IRI vertex u^iri has exactly one data vertex;
    // candidates are its neighbours through the required multi-edge, in the
    // direction *seen from the IRI vertex* (constraint directions are stored
    // relative to the query vertex, hence the flip).
    let mut from_iris: Option<Vec<VertexId>> = None;
    for c in &vertex.iri_constraints {
        let neighbors = seeds.iri_neighbors(
            &index.neighborhood,
            c.data_vertex,
            c.direction.flip(),
            c.types.types(),
        );
        match &mut from_iris {
            None => from_iris = Some(neighbors.to_vec()),
            Some(acc) => sorted::intersect_in_place(acc, neighbors),
        }
        if from_iris.as_ref().is_some_and(Vec::is_empty) {
            break; // already empty, no point intersecting further
        }
    }

    // Merge (line 5).
    match (from_attrs, from_iris) {
        (None, None) => Constraint::Unconstrained,
        (Some(a), None) => Constraint::Candidates(a),
        (None, Some(i)) => Constraint::Candidates(i),
        (Some(a), Some(i)) => Constraint::Candidates(sorted::intersect(&a, &i)),
    }
}

/// Per-candidate structural check not covered by `ProcessVertex`: required
/// self-loop types (`?x p ?x`).
pub fn satisfies_self_loop(qg: &QueryGraph, u: QVertexId, graph: &DataGraph, v: VertexId) -> bool {
    match &qg.vertex(u).self_loop {
        None => true,
        Some(types) => graph.has_multi_edge(v, v, types.types()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_sparql::parse_select;

    fn setup() -> (amber_multigraph::RdfGraph, QueryGraph, IndexSet) {
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        (rdf, qg, index)
    }

    #[test]
    fn paper_c_a_u5_is_v0() {
        // §4.1 example: the attribute set {a1, a2} of X5 admits only v0.
        let (_, qg, index) = setup();
        let u5 = qg.vertex_by_name("X5").unwrap();
        assert_eq!(
            process_vertex(&qg, u5, &index),
            Constraint::Candidates(vec![VertexId(0)])
        );
    }

    #[test]
    fn paper_c_i_u3_is_v1() {
        // §5.1 example: X3 is connected to the United_States IRI vertex via
        // an outgoing livedIn edge; looking *from* v5 through incoming
        // livedIn gives {v1, v6}; no attribute on X3 → constraint {v1, v6}.
        // (The paper's narrower {v1} folds in other pruning; Algorithm 1
        // alone yields the in-neighbours of v5 through t3.)
        let (_, qg, index) = setup();
        let u3 = qg.vertex_by_name("X3").unwrap();
        let c = process_vertex(&qg, u3, &index);
        assert_eq!(c, Constraint::Candidates(vec![VertexId(1), VertexId(6)]));
    }

    #[test]
    fn unconstrained_vertices() {
        let (_, qg, index) = setup();
        for name in ["X0", "X1", "X2", "X6"] {
            let u = qg.vertex_by_name(name).unwrap();
            assert_eq!(
                process_vertex(&qg, u, &index),
                Constraint::Unconstrained,
                "{name} has neither attributes nor IRI constraints"
            );
        }
    }

    #[test]
    fn constraint_filter_and_admit() {
        let c = Constraint::Candidates(vec![VertexId(1), VertexId(4), VertexId(7)]);
        assert!(c.admits(VertexId(4)));
        assert!(!c.admits(VertexId(5)));
        let mut cands = vec![VertexId(0), VertexId(4), VertexId(5), VertexId(7)];
        c.filter(&mut cands);
        assert_eq!(cands, vec![VertexId(4), VertexId(7)]);

        let u = Constraint::Unconstrained;
        assert!(u.admits(VertexId(99)));
        let mut cands = vec![VertexId(3)];
        u.filter(&mut cands);
        assert_eq!(cands, vec![VertexId(3)]);
        assert!(!u.is_empty());
        assert!(Constraint::Candidates(vec![]).is_empty());
    }

    #[test]
    fn self_loop_check() {
        // Paper data has no self loops; any self-loop query constraint fails.
        let rdf = paper_graph();
        let y = amber_multigraph::paper::PREFIX_Y;
        let qg = QueryGraph::build(
            &parse_select(&format!("SELECT * WHERE {{ ?a <{y}livedIn> ?a . }}")).unwrap(),
            &rdf,
        )
        .unwrap();
        let u = qg.vertex_by_name("a").unwrap();
        for v in rdf.graph().vertices() {
            assert!(!satisfies_self_loop(&qg, u, rdf.graph(), v));
        }
        // And a graph with a self loop passes.
        let rdf2 = amber_multigraph::RdfGraph::parse_ntriples(
            "<http://x/a> <http://p/likes> <http://x/a> .",
        )
        .unwrap();
        let qg2 = QueryGraph::build(
            &parse_select("SELECT * WHERE { ?a <http://p/likes> ?a . }").unwrap(),
            &rdf2,
        )
        .unwrap();
        let u2 = qg2.vertex_by_name("a").unwrap();
        assert!(satisfies_self_loop(&qg2, u2, rdf2.graph(), VertexId(0)));
    }
}
