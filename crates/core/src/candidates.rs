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

use crate::matcher::{ProcessScratch, SearchArenas};
use amber_index::{IndexSet, NeighborhoodIndex};
use amber_multigraph::{QVertexId, QueryGraph, VertexId};
use amber_util::fault::{self, FaultPoint};
use amber_util::sorted;
use std::ops::Range;

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

/// Algorithm 1: the attribute/IRI constraint of `u`, as an owned list
/// (plan construction keeps each whitelist in its plan's pool instead;
/// both run one implementation, with the `ProcessVertex` scratch of
/// `arenas`).
pub fn process_vertex(
    qg: &QueryGraph,
    u: QVertexId,
    index: &IndexSet,
    arenas: &mut SearchArenas,
) -> Constraint {
    let mut whitelist = Vec::new();
    match process_vertex_into(qg, u, index, &mut arenas.process, &mut whitelist) {
        None => Constraint::Unconstrained,
        Some(_) => Constraint::Candidates(whitelist),
    }
}

/// Algorithm 1 appended to `pool`: `None` when `u` is unconstrained,
/// otherwise the range of `pool` its sorted whitelist now occupies. A
/// single-type IRI constraint borrows its inverted list from the OTIL
/// pool; an attribute set or a multi-type constraint is computed into
/// `scratch` (a session's arenas keep it warm across queries).
pub(crate) fn process_vertex_into(
    qg: &QueryGraph,
    u: QVertexId,
    index: &IndexSet,
    scratch: &mut ProcessScratch,
    pool: &mut Vec<VertexId>,
) -> Option<Range<usize>> {
    let vertex = qg.vertex(u);
    let ProcessScratch {
        order,
        acc,
        scratch,
    } = scratch;
    let start = pool.len();

    // C^A_u (lines 1-2).
    let from_attrs = !vertex.attrs.is_empty();
    if from_attrs {
        let _ = fault::inject(FaultPoint::IndexProbe);
        index
            .attribute
            .candidates_into(vertex.attrs, order, acc, scratch);
        pool.extend_from_slice(acc);
    }

    // C^I_u (lines 3-4): each IRI vertex u^iri has exactly one data vertex;
    // candidates are its neighbours through the required multi-edge, in the
    // direction *seen from the IRI vertex* (constraint directions are stored
    // relative to the query vertex, hence the flip).
    let iris = pool.len();
    let mut from_iris = false;
    for c in vertex.iri_constraints {
        let (v, direction) = (c.data_vertex, c.direction.flip());
        let neighbors = match qg.types(c.types) {
            [t] => index.neighborhood.neighbors_with_type(v, direction, *t),
            types => {
                let _ = fault::inject(FaultPoint::IndexProbe);
                index.neighborhood.neighbors_into(v, direction, types, acc);
                acc.as_slice()
            }
        };
        if from_iris {
            sorted::intersect_slices_into(&pool[iris..], neighbors, scratch);
            pool.truncate(iris);
            pool.extend_from_slice(scratch);
        } else {
            pool.extend_from_slice(neighbors);
            from_iris = true;
        }
        if pool.len() == iris {
            break; // already empty, no point intersecting further
        }
    }

    // Merge (line 5).
    if from_attrs && from_iris {
        sorted::intersect_slices_into(&pool[start..iris], &pool[iris..], scratch);
        pool.truncate(start);
        pool.extend_from_slice(scratch);
    }
    (from_attrs || from_iris).then_some(start..pool.len())
}

/// Per-candidate structural check not covered by `ProcessVertex`: required
/// self-loop types (`?x p ?x`), answered by `N` (`v ∈ N⁻(v, t)` per `t`).
pub fn satisfies_self_loop(
    qg: &QueryGraph,
    u: QVertexId,
    n: &NeighborhoodIndex,
    v: VertexId,
) -> bool {
    match qg.self_loop(u) {
        None => true,
        Some(types) => n.has_edge(v, v, types),
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
            process_vertex(&qg, u5, &index, &mut SearchArenas::new()),
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
        let c = process_vertex(&qg, u3, &index, &mut SearchArenas::new());
        assert_eq!(c, Constraint::Candidates(vec![VertexId(1), VertexId(6)]));
    }

    #[test]
    fn unconstrained_vertices() {
        let (_, qg, index) = setup();
        for name in ["X0", "X1", "X2", "X6"] {
            let u = qg.vertex_by_name(name).unwrap();
            assert_eq!(
                process_vertex(&qg, u, &index, &mut SearchArenas::new()),
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
        let n = IndexSet::build(&rdf).neighborhood;
        for v in rdf.graph().vertices() {
            assert!(!satisfies_self_loop(&qg, u, &n, v));
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
        let n2 = IndexSet::build(&rdf2).neighborhood;
        assert!(satisfies_self_loop(&qg2, u2, &n2, VertexId(0)));
    }
}
