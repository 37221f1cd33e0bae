//! Query-plan introspection (`EXPLAIN`-style diagnostics).
//!
//! AMbER's "plan" is the structure §5 derives before matching: the
//! connected components, each component's core/satellite decomposition, the
//! core order chosen by the `(r1, r2)` heuristics, the seed candidate count
//! and the type-incidence lists it was intersected from, and the per-vertex
//! constraint summary. Exposing it
//! makes the engine debuggable (why is this query slow?) and is what the
//! ablation benchmarks and several tests hook into.

use crate::candidates::{process_vertex, Constraint};
use crate::decompose::Decomposition;
use crate::matcher::{multi_type_edges_of, ComponentMatcher, SeedList};
use crate::plan::PreparedPlan;
use amber_index::IndexSet;
use amber_multigraph::{Direction, EdgeTypeId, QVertexId, QueryGraph, RdfGraph};
use std::fmt;

/// The plan of one connected component.
#[derive(Debug, Clone)]
pub struct ComponentPlan {
    /// Core variable names in matching order (`U_c^ord`).
    pub core_order: Vec<String>,
    /// Satellites attached to each ordered core vertex.
    pub satellites: Vec<Vec<String>>,
    /// Number of seed candidates for the initial vertex (`|CandInit|`:
    /// the seed lists ∩ `ProcessVertex`).
    pub initial_candidates: usize,
    /// The type-incidence lists the seed set was intersected from, shortest
    /// first; empty when the synopsis index seeded the component (initial
    /// vertex without a typed edge).
    pub seed_lists: Vec<SeedList>,
    /// The seed vertex's multi-type edges to other variables: a seed
    /// candidate owns each on a single neighbour.
    pub seed_multi_edges: Vec<(Direction, Vec<EdgeTypeId>)>,
    /// Per-variable constraint summary: `(name, attrs, iri constraints,
    /// constrained-candidate count if any)`.
    pub vertex_constraints: Vec<VertexConstraintSummary>,
}

/// Constraint summary of one query vertex.
#[derive(Debug, Clone)]
pub struct VertexConstraintSummary {
    /// Variable name.
    pub variable: String,
    /// Number of attribute requirements (`|u.A|`).
    pub attributes: usize,
    /// Number of attached IRI vertices (`|u.R|`).
    pub iri_constraints: usize,
    /// `Some(n)` when `ProcessVertex` yields a finite candidate list.
    pub candidate_count: Option<usize>,
}

/// The full plan of a query.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// `Some(reason)` when the query is unsatisfiable on this data.
    pub unsatisfiable: Option<String>,
    /// Number of ground (variable-free) checks.
    pub ground_checks: usize,
    /// `|V|` of the data graph — what a seed candidate count is "of".
    pub data_vertices: usize,
    /// Per-component plans.
    pub components: Vec<ComponentPlan>,
    /// The prepared-plan cache fingerprint (whitespace/variable-name
    /// insensitive canonical hash) when the plan was derived through
    /// [`QueryPlan::explain_prepared`] — two queries printing the same
    /// fingerprint share one cached plan, and verbatim repeats are
    /// result-cache eligible. `None` for the legacy entry points.
    pub fingerprint: Option<u64>,
    /// `true` when prepare proved the answer empty without being
    /// *unsatisfiable* — a variable-free (ground) pattern is absent from
    /// the data, so the plan carries no components and execution
    /// short-circuits.
    pub failed_ground_check: bool,
}

impl QueryPlan {
    /// Derive the plan the matcher would execute.
    pub fn explain(qg: &QueryGraph, rdf: &RdfGraph, index: &IndexSet) -> Self {
        if let Some(reason) = qg.unsat_reason() {
            return Self {
                unsatisfiable: Some(reason.to_string()),
                ground_checks: qg.ground_checks().len(),
                data_vertices: rdf.graph().vertex_count(),
                components: Vec::new(),
                fingerprint: None,
                failed_ground_check: false,
            };
        }
        let components = qg
            .connected_components()
            .into_iter()
            .map(|component| {
                let decomp = Decomposition::of_component(qg, &component);
                let matcher = ComponentMatcher::new(qg, rdf.graph(), index, &component);
                let core_order: Vec<String> = matcher
                    .core_order()
                    .iter()
                    .map(|&u| qg.vertex(u).name.to_string())
                    .collect();
                let satellites = matcher
                    .core_order()
                    .iter()
                    .map(|&u| {
                        decomp
                            .satellites_of(u)
                            .iter()
                            .map(|&s| qg.vertex(s).name.to_string())
                            .collect()
                    })
                    .collect();
                let vertex_constraints = component
                    .iter()
                    .map(|&u| {
                        let vertex = qg.vertex(u);
                        let candidate_count = match process_vertex(qg, u, index) {
                            Constraint::Unconstrained => None,
                            Constraint::Candidates(c) => Some(c.len()),
                        };
                        VertexConstraintSummary {
                            variable: vertex.name.to_string(),
                            attributes: vertex.attrs.len(),
                            iri_constraints: vertex.iri_constraints.len(),
                            candidate_count,
                        }
                    })
                    .collect();
                ComponentPlan {
                    core_order,
                    satellites,
                    initial_candidates: matcher.initial_candidates().len(),
                    seed_lists: matcher.seed_lists().to_vec(),
                    seed_multi_edges: seed_multi_edges(qg, matcher.core_order()[0]),
                    vertex_constraints,
                }
            })
            .collect();
        Self {
            unsatisfiable: None,
            ground_checks: qg.ground_checks().len(),
            data_vertices: rdf.graph().vertex_count(),
            components,
            fingerprint: None,
            failed_ground_check: false,
        }
    }

    /// Derive the plan report straight from a [`PreparedPlan`] — nothing
    /// is rebuilt: core orders, decompositions, seed candidate counts, and
    /// constraint sizes all come from the prepared components, and the
    /// cache fingerprint is surfaced so repeated-stream cacheability is
    /// inspectable before running the query.
    pub fn explain_prepared(plan: &PreparedPlan) -> Self {
        let qg = plan.query_graph();
        if let Some(reason) = qg.unsat_reason() {
            return Self {
                unsatisfiable: Some(reason.to_string()),
                ground_checks: qg.ground_checks().len(),
                data_vertices: plan.data_vertices(),
                components: Vec::new(),
                fingerprint: Some(plan.fingerprint()),
                failed_ground_check: false,
            };
        }
        let components = plan
            .components()
            .iter()
            .map(|prep| {
                let decomp = prep.decomposition();
                let core_order: Vec<String> = prep
                    .core_order()
                    .iter()
                    .map(|&u| plan.source_name(u).to_string())
                    .collect();
                let satellites = prep
                    .core_order()
                    .iter()
                    .map(|&u| {
                        decomp
                            .satellites_of(u)
                            .iter()
                            .map(|&s| plan.source_name(s).to_string())
                            .collect()
                    })
                    .collect();
                let mut members: Vec<_> = decomp.core.iter().chain(&decomp.satellites).collect();
                members.sort_unstable();
                let vertex_constraints = members
                    .into_iter()
                    .map(|&u| {
                        let vertex = qg.vertex(u);
                        VertexConstraintSummary {
                            variable: plan.source_name(u).to_string(),
                            attributes: vertex.attrs.len(),
                            iri_constraints: vertex.iri_constraints.len(),
                            candidate_count: prep.constrained_candidate_count(u),
                        }
                    })
                    .collect();
                ComponentPlan {
                    core_order,
                    satellites,
                    initial_candidates: prep.initial_candidates().len(),
                    seed_lists: prep.seed_lists().to_vec(),
                    seed_multi_edges: seed_multi_edges(qg, prep.core_order()[0]),
                    vertex_constraints,
                }
            })
            .collect();
        Self {
            unsatisfiable: None,
            ground_checks: qg.ground_checks().len(),
            data_vertices: plan.data_vertices(),
            components,
            fingerprint: Some(plan.fingerprint()),
            failed_ground_check: plan.statically_empty(),
        }
    }
}

/// Line-oriented builder for every `EXPLAIN`-family diagnostic surface.
///
/// The chaos banner, the unsatisfiable/statically-empty verdicts, the
/// fingerprint line, the per-component plan summary, and the
/// flight-recorder span tree all used to
/// print from separate call sites; routing them through one builder
/// keeps the output byte-stable and golden-testable.
/// `QueryPlan`'s `Display` delegates here, and
/// [`AmberEngine::explain_analyze`](crate::AmberEngine::explain_analyze)
/// composes [`Self::plan`] with [`Self::span_tree`].
#[derive(Debug, Default)]
pub struct Explain {
    out: String,
}

impl Explain {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chaos banner, if fault injection is armed for this process.
    pub fn chaos_banner(&mut self) -> &mut Self {
        if let Some(spec) = amber_util::fault::active_spec() {
            self.out.push_str(&format!(
                "CHAOS ACTIVE: {spec} (fault injection armed; see docs/robustness.md)\n"
            ));
        }
        self
    }

    /// The fingerprint line (plan-cache key).
    pub fn fingerprint(&mut self, fingerprint: u64) -> &mut Self {
        self.out.push_str(&format!(
            "plan fingerprint: {fingerprint:#018x} (plan-cache key; verbatim repeats are result-cacheable)\n"
        ));
        self
    }

    /// The full plan summary: banner, verdicts, fingerprint, components.
    pub fn plan(&mut self, plan: &QueryPlan) -> &mut Self {
        self.chaos_banner();
        if let Some(reason) = &plan.unsatisfiable {
            self.out.push_str(&format!("UNSATISFIABLE: {reason}\n"));
            return self;
        }
        if let Some(fingerprint) = plan.fingerprint {
            self.fingerprint(fingerprint);
        }
        if plan.ground_checks > 0 {
            self.out
                .push_str(&format!("ground checks: {}\n", plan.ground_checks));
        }
        if plan.failed_ground_check {
            self.out.push_str(
                "STATICALLY EMPTY: a ground (variable-free) pattern is absent from the data — \
                 no component plans were built\n",
            );
        }
        for (i, component) in plan.components.iter().enumerate() {
            self.out.push_str(&format!("component {i}:\n"));
            self.out.push_str(&format!(
                "  core order: {}\n",
                component.core_order.join(" → ")
            ));
            self.out.push_str(&format!(
                "  seed candidates: {} of {} via {}\n",
                component.initial_candidates,
                plan.data_vertices,
                seed_derivation(component)
            ));
            for (core, sats) in component.core_order.iter().zip(&component.satellites) {
                if !sats.is_empty() {
                    self.out
                        .push_str(&format!("  satellites of ?{core}: {}\n", sats.join(", ")));
                }
            }
            for c in &component.vertex_constraints {
                if c.attributes > 0 || c.iri_constraints > 0 {
                    self.out.push_str(&format!(
                        "  ?{}: {} attribute(s), {} IRI constraint(s)",
                        c.variable, c.attributes, c.iri_constraints
                    ));
                    if let Some(n) = c.candidate_count {
                        self.out.push_str(&format!(" → {n} candidate(s)"));
                    }
                    self.out.push('\n');
                }
            }
        }
        self
    }

    /// The flight-recorder span tree of one executed query (the
    /// `EXPLAIN ANALYZE` section).
    pub fn span_tree(&mut self, trace: &amber_obs::QueryTrace) -> &mut Self {
        self.out.push_str(&trace.render());
        self
    }

    /// Compose a plan summary with an executed trace — the
    /// `EXPLAIN ANALYZE`-style report.
    pub fn analyze(plan: &QueryPlan, trace: &amber_obs::QueryTrace) -> String {
        let mut explain = Explain::new();
        explain.plan(plan);
        explain.span_tree(trace);
        explain.render()
    }

    /// The accumulated report text.
    pub fn render(&self) -> String {
        self.out.clone()
    }
}

fn seed_multi_edges(qg: &QueryGraph, u_init: QVertexId) -> Vec<(Direction, Vec<EdgeTypeId>)> {
    multi_type_edges_of(qg, u_init)
        .map(|(direction, types)| (direction, types.to_vec()))
        .collect()
}

/// How a component's seed set was derived, in the paper's notation:
/// `t265⁻(412) ∩ t552⁻(388)` reads "vertices with an outgoing `t265`
/// (412 of them) ∩ vertices with an outgoing `t552`"; a constrained seed
/// vertex adds `∩ ProcessVertex(n)`, a multi-type edge `∩ {t1,t2}⁻`
/// (both types towards one neighbour).
fn seed_derivation(component: &ComponentPlan) -> String {
    if component.seed_lists.is_empty() {
        return "synopsis fallback".to_string();
    }
    let sign = |direction: Direction| match direction {
        Direction::Incoming => '⁺',
        Direction::Outgoing => '⁻',
    };
    let mut terms: Vec<String> = component
        .seed_lists
        .iter()
        .map(|l| format!("{}{}({})", l.edge_type, sign(l.direction), l.len))
        .collect();
    let seed_vertex = component.core_order.first();
    let constrained = component
        .vertex_constraints
        .iter()
        .find(|c| Some(&c.variable) == seed_vertex)
        .and_then(|c| c.candidate_count);
    if let Some(n) = constrained {
        terms.push(format!("ProcessVertex({n})"));
    }
    for (direction, types) in &component.seed_multi_edges {
        let types: Vec<String> = types.iter().map(ToString::to_string).collect();
        terms.push(format!("{{{}}}{}", types.join(","), sign(*direction)));
    }
    terms.join(" ∩ ")
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut explain = Explain::new();
        explain.plan(self);
        f.write_str(&explain.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_sparql::parse_select;

    #[test]
    fn paper_query_plan() {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let plan = QueryPlan::explain(&qg, &rdf, &index);
        assert!(plan.unsatisfiable.is_none());
        assert_eq!(plan.components.len(), 1);
        let component = &plan.components[0];
        assert_eq!(component.core_order, vec!["X1", "X3", "X5"]);
        // §4.2 narrows X1's seed to exactly {v2} (London).
        assert_eq!(component.initial_candidates, 1);
        // X5 has 2 attributes constraining it to a single candidate (v0).
        let x5 = component
            .vertex_constraints
            .iter()
            .find(|c| c.variable == "X5")
            .unwrap();
        assert_eq!(x5.attributes, 2);
        assert_eq!(x5.candidate_count, Some(1));

        let text = plan.to_string();
        assert!(text.contains("core order: X1 → X3 → X5\n"), "{text}");
        // X1 is London: the object of diedIn (t4: Amy only) and wasBornIn
        // (t5) and the subject of isPartOf (t2) — 9 data vertices in all.
        // X1 is London: of the 9 data vertices only v2 is the object of
        // hasCapital (t1), diedIn (t4), wasBornIn (t5) and wasFormedIn (t6)
        // and the subject of isPartOf (t2) and hasStadium (t0); ?X3 reaches
        // it through the multi-edge {diedIn, wasBornIn}.
        assert!(
            text.contains(
                "  seed candidates: 1 of 9 via t1⁺(1) ∩ t2⁻(1) ∩ t4⁺(1) ∩ t5⁺(1) ∩ t6⁺(1) \
                 ∩ t0⁻(2) ∩ {t4,t5}⁺\n"
            ),
            "{text}"
        );
        assert!(text.contains("satellites of ?X1"));
    }

    #[test]
    fn explain_prepared_matches_legacy_and_adds_fingerprint() {
        use crate::engine::AmberEngine;
        let rdf = paper_graph();
        let engine = AmberEngine::from_graph(rdf);
        let query = parse_select(&paper_query_text()).unwrap();
        let prepared = engine.prepare(&query).unwrap();
        let plan = QueryPlan::explain_prepared(&prepared);
        assert_eq!(plan.fingerprint, Some(prepared.fingerprint()));
        assert_eq!(plan.components.len(), 1);
        // The prepared report must agree with the legacy derivation over
        // the *source* query graph — including the source variable
        // spellings (the prepared qg itself is canonical internally).
        let source_qg = amber_multigraph::QueryGraph::build(&query, engine.rdf()).unwrap();
        let legacy = QueryPlan::explain(&source_qg, engine.rdf(), engine.index());
        let (a, b) = (&plan.components[0], &legacy.components[0]);
        assert_eq!(a.core_order, b.core_order);
        assert_eq!(a.satellites, b.satellites);
        assert_eq!(a.initial_candidates, b.initial_candidates);
        assert_eq!(a.seed_lists, b.seed_lists);
        assert_eq!(a.seed_multi_edges, b.seed_multi_edges);
        assert_eq!(plan.data_vertices, legacy.data_vertices);
        let text = plan.to_string();
        assert!(text.contains("plan fingerprint: 0x"));
    }

    #[test]
    fn explain_reports_active_chaos_spec() {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let plan = QueryPlan::explain(&qg, &rdf, &index);
        {
            let _guard = amber_util::fault::override_spec("7:matcher-candidate=delay@64")
                .expect("spec parses");
            let text = plan.to_string();
            assert!(
                text.contains("CHAOS ACTIVE: 7:matcher-candidate=delay@64"),
                "armed EXPLAIN must surface the spec: {text}"
            );
        }
        // Guard dropped: the ambient configuration returns (no banner in a
        // normal run; the env-derived spec's banner under an AMBER_CHAOS
        // test lane).
        match amber_util::fault::active_spec() {
            None => assert!(!plan.to_string().contains("CHAOS ACTIVE")),
            Some(ambient) => {
                assert!(plan
                    .to_string()
                    .contains(&format!("CHAOS ACTIVE: {ambient}")))
            }
        }
    }

    #[test]
    fn explain_analyze_appends_the_span_tree_golden() {
        use crate::engine::AmberEngine;
        let _on = amber_obs::force_enabled(true);
        let engine = AmberEngine::from_graph(paper_graph());
        let query = parse_select(&paper_query_text()).unwrap();
        let options = crate::options::ExecOptions::batch();
        let mut session = engine.create_session(&options);
        let (outcome, text) = engine
            .explain_analyze(&query, &options, &mut session)
            .unwrap();
        assert_eq!(outcome.status, crate::result::QueryStatus::Completed);
        // Plan section (identical to Display) followed by the recorded
        // span tree — all through the one `Explain` builder.
        assert!(text.contains("plan fingerprint: 0x"), "{text}");
        assert!(text.contains("core order: X1 → X3 → X5"), "{text}");
        assert!(text.contains("query \"prepared 0x"), "{text}");
        assert!(text.contains("completed in"), "{text}");
        assert!(text.contains("execute"), "{text}");
        assert!(text.contains("component[0]"), "{text}");
        assert!(text.contains("caches:"), "{text}");
        // The tracing knob is restored: a plain follow-up query records
        // no new trace.
        let before = session.flight_recorder().traces().count();
        engine
            .execute_in_session(&query, &options, &mut session)
            .unwrap();
        assert_eq!(session.flight_recorder().traces().count(), before);
    }

    #[test]
    fn builder_composes_the_same_bytes_as_display() {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let plan = QueryPlan::explain(&qg, &rdf, &index);
        let mut explain = Explain::new();
        explain.plan(&plan);
        assert_eq!(explain.render(), plan.to_string());
    }

    #[test]
    fn failed_ground_check_is_reported_not_silent() {
        use crate::engine::AmberEngine;
        use amber_multigraph::paper::{PREFIX_X, PREFIX_Y};
        let engine = AmberEngine::from_graph(paper_graph());
        // A false ground pattern (England is not part of London) next to a
        // satisfiable variable pattern: prepare proves the answer empty.
        let q = format!(
            "SELECT * WHERE {{ <{PREFIX_X}England> <{PREFIX_Y}isPartOf> <{PREFIX_X}London> . \
             ?p <{PREFIX_Y}wasBornIn> <{PREFIX_X}London> . }}"
        );
        let prepared = engine.prepare(&parse_select(&q).unwrap()).unwrap();
        assert!(prepared.statically_empty());
        let plan = QueryPlan::explain_prepared(&prepared);
        assert!(plan.unsatisfiable.is_none());
        assert!(plan.failed_ground_check);
        assert!(plan.to_string().contains("STATICALLY EMPTY"));
    }

    #[test]
    fn unsatisfiable_plan_reports_reason() {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        let qg = QueryGraph::build(
            &parse_select("SELECT * WHERE { ?a <http://nope/p> ?b . }").unwrap(),
            &rdf,
        )
        .unwrap();
        let plan = QueryPlan::explain(&qg, &rdf, &index);
        assert!(plan.unsatisfiable.is_some());
        assert!(plan.to_string().contains("UNSATISFIABLE"));
    }
}
