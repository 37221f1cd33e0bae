//! The scan-join baseline: no indexes, (almost) no planning.
//!
//! Evaluates the query multigraph constraint by constraint, extending
//! partial assignments depth-first. Every edge constraint triggers a scan
//! of the *entire* edge list (restricted only by already bound endpoints
//! through the raw adjacency). This is deliberately the weakest
//! architecture in the line-up — the role Apache Jena plays in the paper's
//! figures — and doubles as the correctness oracle for the cross-engine
//! agreement tests because its code path is trivially auditable.
//!
//! The only concession to ordering is a **static constant-first step
//! reorder** (`steps_of`): IRI-constraint steps run before edge scans
//! (each is a single adjacency walk from a *constant* data vertex, binding
//! its variable immediately), and edge steps chain greedily off
//! already-touched variables. There is still no cost model, no statistics
//! and no per-query search — just one pass over the step list — but it
//! stops the engine from discovering a constant-heavy query's selectivity
//! last and blowing its budget on full edge scans, which is what kept it
//! out of the heavy-constant agreement tests as an oracle.

use crate::common::{RowCollector, UNBOUND};
use amber::{EngineError, ExecOptions, QueryOutcome, SparqlEngine};
use amber_multigraph::{Direction, GroundCheck, QVertexId, QueryGraph, RdfGraph, Span, VertexId};
use amber_util::{Deadline, Stopwatch};
use std::sync::Arc;

/// One evaluation step over the partial assignment.
#[derive(Debug)]
enum Step {
    /// A variable-variable edge `from → to` with required types.
    Edge {
        from: QVertexId,
        to: QVertexId,
        types: Span,
    },
    /// Attribute constraint on a variable.
    Attrs { vertex: QVertexId },
    /// IRI constraint on a variable.
    Iri {
        vertex: QVertexId,
        constraint: usize,
    },
    /// Self loop on a variable.
    SelfLoop { vertex: QVertexId },
}

/// The naive scan + join engine.
pub struct ScanJoinEngine {
    rdf: Arc<RdfGraph>,
}

impl ScanJoinEngine {
    /// Wrap a loaded graph (no auxiliary structures are built — that is the
    /// point of this baseline).
    pub fn new(rdf: Arc<RdfGraph>) -> Self {
        Self { rdf }
    }

    fn ground_checks_pass(&self, qg: &QueryGraph) -> bool {
        let graph = self.rdf.graph();
        qg.ground_checks().iter().all(|check| match *check {
            GroundCheck::Edge { from, to, types } => {
                graph.has_multi_edge(from, to, qg.types(types))
            }
            GroundCheck::Attribute { vertex, attrs } => {
                graph.has_attributes(vertex, qg.attributes(attrs))
            }
        })
    }

    /// Depth-first constraint evaluation.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        qg: &QueryGraph,
        steps: &[Step],
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
        let Some(step) = steps.get(depth) else {
            collector.record(assignment);
            return;
        };
        let graph = self.rdf.graph();
        match step {
            Step::Edge { from, to, types } => {
                let types = qg.types(*types);
                let (bf, bt) = (assignment[from.index()], assignment[to.index()]);
                match (bf, bt) {
                    (UNBOUND, UNBOUND) => {
                        // Full scan of every directed pair.
                        for v in graph.vertices() {
                            for w in graph.neighbors_with(v, Direction::Outgoing, types) {
                                if *timed_out || deadline.exceeded() {
                                    *timed_out = true;
                                    return;
                                }
                                // A self-directed data edge can match a
                                // from≠to query edge (homomorphism), but the
                                // two slots must then hold the same vertex —
                                // which the assignment naturally records.
                                assignment[from.index()] = v.0;
                                assignment[to.index()] = w.0;
                                self.recurse(
                                    qg,
                                    steps,
                                    depth + 1,
                                    assignment,
                                    collector,
                                    deadline,
                                    timed_out,
                                );
                            }
                        }
                        assignment[from.index()] = UNBOUND;
                        assignment[to.index()] = UNBOUND;
                    }
                    (v, UNBOUND) if v != UNBOUND => {
                        for w in graph.neighbors_with(VertexId(v), Direction::Outgoing, types) {
                            assignment[to.index()] = w.0;
                            self.recurse(
                                qg,
                                steps,
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
                        assignment[to.index()] = UNBOUND;
                    }
                    (UNBOUND, v) => {
                        for w in graph.neighbors_with(VertexId(v), Direction::Incoming, types) {
                            assignment[from.index()] = w.0;
                            self.recurse(
                                qg,
                                steps,
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
                        assignment[from.index()] = UNBOUND;
                    }
                    (vf, vt) => {
                        if graph.has_multi_edge(VertexId(vf), VertexId(vt), types) {
                            self.recurse(
                                qg,
                                steps,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                        }
                    }
                }
            }
            Step::Attrs { vertex } => {
                let attrs = qg.vertex(*vertex).attrs;
                match assignment[vertex.index()] {
                    UNBOUND => {
                        // Full vertex scan.
                        for v in graph.vertices() {
                            if *timed_out || deadline.exceeded() {
                                *timed_out = true;
                                return;
                            }
                            if graph.has_attributes(v, attrs) {
                                assignment[vertex.index()] = v.0;
                                self.recurse(
                                    qg,
                                    steps,
                                    depth + 1,
                                    assignment,
                                    collector,
                                    deadline,
                                    timed_out,
                                );
                            }
                        }
                        assignment[vertex.index()] = UNBOUND;
                    }
                    v => {
                        if graph.has_attributes(VertexId(v), attrs) {
                            self.recurse(
                                qg,
                                steps,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                        }
                    }
                }
            }
            Step::Iri { vertex, constraint } => {
                let c = &qg.vertex(*vertex).iri_constraints[*constraint];
                let types = qg.types(c.types);
                match assignment[vertex.index()] {
                    UNBOUND => {
                        // Scan the adjacency of the IRI's data vertex.
                        let dir = match c.direction {
                            // constraint Incoming = edge iri→var: candidates
                            // are out-neighbours of the IRI vertex.
                            Direction::Incoming => Direction::Outgoing,
                            Direction::Outgoing => Direction::Incoming,
                        };
                        for w in graph.neighbors_with(c.data_vertex, dir, types) {
                            assignment[vertex.index()] = w.0;
                            self.recurse(
                                qg,
                                steps,
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
                        assignment[vertex.index()] = UNBOUND;
                    }
                    v => {
                        let ok = match c.direction {
                            Direction::Incoming => {
                                graph.has_multi_edge(c.data_vertex, VertexId(v), types)
                            }
                            Direction::Outgoing => {
                                graph.has_multi_edge(VertexId(v), c.data_vertex, types)
                            }
                        };
                        if ok {
                            self.recurse(
                                qg,
                                steps,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                        }
                    }
                }
            }
            Step::SelfLoop { vertex } => {
                let types = qg
                    .self_loop(*vertex)
                    .expect("self-loop step only for self-loop vertices");
                match assignment[vertex.index()] {
                    UNBOUND => {
                        for v in graph.vertices() {
                            if graph.has_multi_edge(v, v, types) {
                                assignment[vertex.index()] = v.0;
                                self.recurse(
                                    qg,
                                    steps,
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
                        }
                        assignment[vertex.index()] = UNBOUND;
                    }
                    v => {
                        if graph.has_multi_edge(VertexId(v), VertexId(v), types) {
                            self.recurse(
                                qg,
                                steps,
                                depth + 1,
                                assignment,
                                collector,
                                deadline,
                                timed_out,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Build the step list with the constant-first static reorder:
///
/// 1. **IRI-constraint steps first** (most-constant patterns): each scans
///    the adjacency of one *constant* data vertex and binds its variable —
///    the cheapest, most selective step available without any index.
/// 2. **Edge steps greedily chained**: among the remaining edges, always
///    prefer (in declaration order) one with an endpoint already touched by
///    an earlier step, so scans run against a bound endpoint instead of the
///    full edge list whenever the query's shape allows it.
/// 3. **Attribute and self-loop steps last**, as before — by then their
///    variables are almost always bound, degrading them to O(1) filters.
///
/// Steps are commutative filters, so any order is semantically identical;
/// this one just front-loads selectivity. No cost model, no statistics —
/// still not a planner.
fn steps_of(qg: &QueryGraph) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut touched = vec![false; qg.vertex_count()];
    for u in qg.vertex_ids() {
        for (i, _) in qg.vertex(u).iri_constraints.iter().enumerate() {
            steps.push(Step::Iri {
                vertex: u,
                constraint: i,
            });
            touched[u.index()] = true;
        }
    }

    let mut remaining: Vec<&amber_multigraph::QueryEdge> = qg.edges().iter().collect();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|e| touched[e.from.index()] || touched[e.to.index()])
            .unwrap_or(0);
        let edge = remaining.remove(pick);
        touched[edge.from.index()] = true;
        touched[edge.to.index()] = true;
        steps.push(Step::Edge {
            from: edge.from,
            to: edge.to,
            types: edge.types,
        });
    }

    for u in qg.vertex_ids() {
        let vertex = qg.vertex(u);
        if !vertex.attrs.is_empty() {
            steps.push(Step::Attrs { vertex: u });
        }
        if vertex.self_loop.is_some() {
            steps.push(Step::SelfLoop { vertex: u });
        }
    }
    steps
}

impl SparqlEngine for ScanJoinEngine {
    fn name(&self) -> &'static str {
        "ScanJoin"
    }

    fn execute_query(
        &self,
        query: &amber_sparql::SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        let sw = Stopwatch::start();
        let qg = QueryGraph::build(query, &self.rdf)?;
        let variables: Vec<Box<str>> = qg.output_vars().map(Box::from).collect();
        if qg.is_unsatisfiable() || !self.ground_checks_pass(&qg) {
            return Ok(QueryOutcome::empty(variables, sw.elapsed()));
        }

        let output_slots: Vec<usize> = qg.projection().iter().map(|u| u.index()).collect();
        let mut collector = RowCollector::new(
            output_slots,
            options.max_results,
            qg.distinct(),
            options.count_only,
        );

        let steps = steps_of(&qg);
        let deadline = Deadline::new(options.timeout);
        let mut assignment = vec![UNBOUND; qg.vertex_count()];
        let mut timed_out = false;
        self.recurse(
            &qg,
            &steps,
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

    fn engine() -> ScanJoinEngine {
        ScanJoinEngine::new(Arc::new(paper_graph()))
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
    fn simple_star() {
        let q = format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . ?p <{PREFIX_Y}diedIn> ?c . }}"
        );
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 1); // only Amy born+died in London
    }

    #[test]
    fn iri_constraint_unbound_var() {
        let q = format!("SELECT ?p WHERE {{ ?p <{PREFIX_Y}livedIn> <{PREFIX_X}United_States> . }}");
        let out = engine()
            .execute_sparql(&q, &ExecOptions::default())
            .unwrap();
        assert_eq!(out.embedding_count, 2); // Amy, Blake
    }

    #[test]
    fn timeout_reports_timed_out() {
        let out = engine()
            .execute_sparql(
                &paper_query_text(),
                &ExecOptions::default().with_timeout(std::time::Duration::ZERO),
            )
            .unwrap();
        assert!(out.timed_out());
    }

    #[test]
    fn steps_put_iri_constraints_before_edges_and_chain_edges() {
        let rdf = paper_graph();
        // Declaration order is adversarial: the unrestricted ?a/?b scan
        // comes first, the constant pattern last. The reorder must flip
        // that and then chain ?p's edge off the IRI-bound ?p.
        let q = format!(
            "SELECT * WHERE {{ ?a <{PREFIX_Y}isPartOf> ?b . \
             ?p <{PREFIX_Y}diedIn> ?c . \
             ?p <{PREFIX_Y}livedIn> <{PREFIX_X}United_States> . }}"
        );
        let qg =
            amber_multigraph::QueryGraph::build(&amber_sparql::parse_select(&q).unwrap(), &rdf)
                .unwrap();
        let steps = steps_of(&qg);
        assert!(
            matches!(steps[0], Step::Iri { .. }),
            "first step must be the constant pattern, got {:?}",
            steps[0]
        );
        // The edge touching the IRI-bound variable (?p diedIn ?c) must be
        // scanned before the fully unbound ?a isPartOf ?b edge.
        let p = qg.vertex_by_name("p").unwrap();
        let edge_positions: Vec<bool> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Edge { from, .. } => Some(*from == p),
                _ => None,
            })
            .collect();
        assert_eq!(edge_positions, vec![true, false]);
    }

    #[test]
    fn constant_heavy_query_answers_within_tight_budget() {
        // Before the reorder this shape (constants declared last) forced a
        // full-edge-scan prefix; now it must answer almost instantly.
        let q = format!(
            "SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . \
             ?p <{PREFIX_Y}livedIn> <{PREFIX_X}United_States> . \
             ?c <{PREFIX_Y}isPartOf> <{PREFIX_X}England> . }}"
        );
        let out = engine()
            .execute_sparql(
                &q,
                &ExecOptions::default().with_timeout(std::time::Duration::from_secs(5)),
            )
            .unwrap();
        assert!(!out.timed_out());
        assert_eq!(out.embedding_count, 1); // Amy (born London ⊂ England, lived US)
    }

    #[test]
    fn unsat_query_is_empty_completed() {
        let out = engine()
            .execute_sparql(
                "SELECT * WHERE { ?a <http://nope/p> ?b . }",
                &ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(out.embedding_count, 0);
        assert!(!out.timed_out());
    }
}
