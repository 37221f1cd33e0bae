//! The no-index graph backtracking baseline (gStore / TurboHom++ stand-in).
//!
//! Same multigraph, same homomorphism semantics as AMbER — but with
//! **none** of its machinery: no attribute index, no signature R-tree, no
//! OTIL neighbourhood index, and no core–satellite decomposition. The query
//! vertices are matched one at a time in degree order over the raw
//! adjacency lists, and every degree-1 vertex is enumerated explicitly
//! instead of being batch-resolved as a satellite set. The paper positions
//! TurboHom++ exactly here: "unlike our approach, TurboHom++ does not index
//! the RDF graph" (§6). Benchmarked against AMbER, this isolates the
//! contribution of `I = {A, S, N}` + the decomposition.

use crate::common::{RowCollector, UNBOUND};
use amber::{EngineError, ExecOptions, QueryOutcome, SparqlEngine};
use amber_multigraph::{
    DataGraph, Direction, GroundCheck, QVertexId, QueryGraph, RdfGraph, VertexId,
};
use amber_util::{Deadline, Stopwatch};
use std::sync::Arc;

/// The plain backtracking engine.
pub struct BacktrackingEngine {
    rdf: Arc<RdfGraph>,
}

impl BacktrackingEngine {
    /// Wrap a loaded graph; no auxiliary structures are built.
    pub fn new(rdf: Arc<RdfGraph>) -> Self {
        Self { rdf }
    }

    /// Local (non-edge) constraints of one query vertex against a data
    /// vertex, checked directly on the graph.
    fn local_ok(&self, qg: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        let graph = self.rdf.graph();
        let vertex = qg.vertex(u);
        if !graph.has_attributes(v, &vertex.attrs) {
            return false;
        }
        for c in &vertex.iri_constraints {
            let ok = match c.direction {
                Direction::Incoming => graph.has_multi_edge(c.data_vertex, v, c.types.types()),
                Direction::Outgoing => graph.has_multi_edge(v, c.data_vertex, c.types.types()),
            };
            if !ok {
                return false;
            }
        }
        if let Some(types) = &vertex.self_loop {
            if !graph.has_multi_edge(v, v, types.types()) {
                return false;
            }
        }
        true
    }

    /// Order all variable vertices: highest degree first, then connected
    /// expansion (the standard backtracking heuristic, no satellites).
    fn order_vertices(qg: &QueryGraph) -> Vec<QVertexId> {
        let mut remaining: Vec<QVertexId> = qg.vertex_ids().collect();
        let mut order: Vec<QVertexId> = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let connected: Vec<QVertexId> = remaining
                .iter()
                .copied()
                .filter(|&u| qg.adjacency(u).iter().any(|a| order.contains(&a.neighbor)))
                .collect();
            let pool = if order.is_empty() || connected.is_empty() {
                &remaining
            } else {
                &connected
            };
            let next = *pool
                .iter()
                .max_by_key(|&&u| (qg.degree(u), std::cmp::Reverse(u)))
                .expect("pool is non-empty");
            remaining.retain(|&u| u != next);
            order.push(next);
        }
        order
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        qg: &QueryGraph,
        order: &[QVertexId],
        depth: usize,
        assignment: &mut Vec<u32>,
        collector: &mut RowCollector,
        deadline: &Deadline,
        timed_out: &mut bool,
    ) {
        if *timed_out || deadline.exceeded() {
            *timed_out = true;
            return;
        }
        let Some(&u) = order.get(depth) else {
            collector.record(assignment);
            return;
        };
        let graph = self.rdf.graph();

        // Candidates from already-matched neighbours (adjacency scans), or a
        // full vertex scan when none is matched yet.
        let candidates = self.candidates_for(qg, graph, u, assignment);
        for v in candidates {
            if !self.local_ok(qg, u, v) {
                continue;
            }
            if !self.edges_to_matched_ok(qg, graph, u, v, assignment) {
                continue;
            }
            assignment[u.index()] = v.0;
            self.recurse(
                qg,
                order,
                depth + 1,
                assignment,
                collector,
                deadline,
                timed_out,
            );
            if *timed_out {
                return;
            }
        }
        assignment[u.index()] = UNBOUND;
    }

    /// A candidate pool for `u`: neighbours of one matched neighbour (the
    /// one with the smallest adjacency, scanned directly), or all vertices.
    fn candidates_for(
        &self,
        qg: &QueryGraph,
        graph: &DataGraph,
        u: QVertexId,
        assignment: &[u32],
    ) -> Vec<VertexId> {
        let mut best: Option<Vec<VertexId>> = None;
        for adj in qg.adjacency(u) {
            let matched = assignment[adj.neighbor.index()];
            if matched == UNBOUND {
                continue;
            }
            let types = qg.edges()[adj.edge].types.types();
            // Edge direction relative to u: Incoming means neighbour → u, so
            // u's candidates are out-neighbours of the matched vertex.
            let scan_dir = adj.direction.flip();
            let pool: Vec<VertexId> = graph
                .neighbors_with(VertexId(matched), scan_dir, types)
                .collect();
            if best.as_ref().is_none_or(|b| pool.len() < b.len()) {
                best = Some(pool);
            }
        }
        best.unwrap_or_else(|| graph.vertices().collect())
    }

    /// Verify every edge between `u` and already-matched vertices.
    fn edges_to_matched_ok(
        &self,
        qg: &QueryGraph,
        graph: &DataGraph,
        u: QVertexId,
        v: VertexId,
        assignment: &[u32],
    ) -> bool {
        for adj in qg.adjacency(u) {
            let matched = assignment[adj.neighbor.index()];
            if matched == UNBOUND {
                continue;
            }
            let types = qg.edges()[adj.edge].types.types();
            let ok = match adj.direction {
                // Incoming relative to u: edge neighbour → u.
                Direction::Incoming => graph.has_multi_edge(VertexId(matched), v, types),
                Direction::Outgoing => graph.has_multi_edge(v, VertexId(matched), types),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    fn ground_checks_pass(&self, qg: &QueryGraph) -> bool {
        let graph = self.rdf.graph();
        qg.ground_checks().iter().all(|check| match check {
            GroundCheck::Edge { from, to, types } => {
                graph.has_multi_edge(*from, *to, types.types())
            }
            GroundCheck::Attribute { vertex, attrs } => graph.has_attributes(*vertex, attrs),
        })
    }
}

impl SparqlEngine for BacktrackingEngine {
    fn name(&self) -> &'static str {
        "Backtracking"
    }

    fn execute_query(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        let sw = Stopwatch::start();
        let qg = QueryGraph::build(query, &self.rdf)?;
        let variables: Vec<Box<str>> = qg.output_vars().to_vec();
        if qg.is_unsatisfiable() || !self.ground_checks_pass(&qg) {
            return Ok(QueryOutcome::empty(variables, sw.elapsed()));
        }

        let output_slots: Vec<usize> = qg
            .output_vars()
            .iter()
            .map(|name| {
                qg.vertex_by_name(name)
                    .expect("validated projection")
                    .index()
            })
            .collect();
        let mut collector = RowCollector::new(
            output_slots,
            options.max_results,
            qg.distinct(),
            options.count_only,
        );

        let order = Self::order_vertices(&qg);
        let deadline = Deadline::new(options.timeout);
        let mut assignment = vec![UNBOUND; qg.vertex_count()];
        let mut timed_out = false;
        self.recurse(
            &qg,
            &order,
            0,
            &mut assignment,
            &mut collector,
            &deadline,
            &mut timed_out,
        );
        Ok(collector.into_outcome(variables, timed_out, sw.elapsed(), &self.rdf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text, PREFIX_X, PREFIX_Y};

    fn engine() -> BacktrackingEngine {
        BacktrackingEngine::new(Arc::new(paper_graph()))
    }

    #[test]
    fn paper_query_counts_two() {
        let out = engine()
            .execute_sparql(&paper_query_text(), &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 2);
        assert_eq!(out.bindings.len(), 2);
    }

    #[test]
    fn ordering_starts_at_max_degree() {
        let rdf = paper_graph();
        let qg = QueryGraph::build(
            &amber_sparql::parse_select(&paper_query_text()).unwrap(),
            &rdf,
        )
        .unwrap();
        let order = BacktrackingEngine::order_vertices(&qg);
        assert_eq!(qg.vertex(order[0]).name.as_ref(), "X1"); // degree 5
        assert_eq!(order.len(), 7);
    }

    #[test]
    fn homomorphism_allows_repeated_data_vertices() {
        // ?a wasBornIn ?c . ?b wasBornIn ?c — (Amy,Amy), (Amy,Nolan),
        // (Nolan,Amy), (Nolan,Nolan): 4 embeddings, no injectivity.
        let q = format!(
            "SELECT * WHERE {{ ?a <{PREFIX_Y}wasBornIn> ?c . ?b <{PREFIX_Y}wasBornIn> ?c . }}"
        );
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 4);
    }

    #[test]
    fn iri_constraint_only_query() {
        let q = format!("SELECT ?p WHERE {{ ?p <{PREFIX_Y}livedIn> <{PREFIX_X}United_States> . }}");
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 2);
    }

    #[test]
    fn timeout_is_reported() {
        let out = engine()
            .execute_sparql(
                &paper_query_text(),
                &ExecOptions::default().with_timeout(std::time::Duration::ZERO),
            )
            .unwrap();
        assert!(out.timed_out());
    }
}
