//! Differential property test for the zero-allocation candidate pipeline.
//!
//! The production [`ComponentMatcher`] runs its whole recursion in reused
//! per-depth scratch arenas with borrowed OTIL probes; this test pins its
//! observable behaviour to a retained naive reference that evaluates the
//! same algorithms (paper Algorithms 2–4) with freshly allocated owned
//! vectors at every step — the shape of the pre-arena implementation. On
//! randomized synthetic graphs and workloads (star = satellite-heavy,
//! complex = deep cascades, plus handwritten multi-type-edge queries) both
//! must produce byte-identical `ComponentMatch` counts and solutions.

use amber::candidates::{process_vertex, Constraint};
use amber::decompose::Decomposition;
use amber::matcher::{
    ComponentMatch, ComponentMatcher, ComponentPrep, ComponentSolution, MatchConfig, SearchArenas,
};
use amber::ordering::order_core_vertices;
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_index::IndexSet;
use amber_multigraph::{DataGraph, Direction, QVertexId, QueryGraph, RdfGraph, VertexId};
use amber_sparql::parse_select;
use amber_util::{sorted, Deadline};

// ---------------------------------------------------------------------------
// The retained naive reference: owned vectors everywhere, no scratch reuse,
// no probe ordering — deliberately the simplest faithful rendition of
// Algorithms 2–4.
// ---------------------------------------------------------------------------

struct Reference<'a> {
    graph: &'a DataGraph,
    index: &'a IndexSet,
    qg: &'a QueryGraph,
    order: Vec<QVertexId>,
    decomp: Decomposition,
    constraints: Vec<Constraint>,
}

impl<'a> Reference<'a> {
    fn new(
        qg: &'a QueryGraph,
        graph: &'a DataGraph,
        index: &'a IndexSet,
        component: &[QVertexId],
    ) -> Self {
        let decomp = Decomposition::of_component(qg, component);
        let order = order_core_vertices(qg, &decomp);
        let mut arenas = SearchArenas::new();
        let constraints = qg
            .vertex_ids()
            .map(|u| process_vertex(qg, u, index, &mut arenas))
            .collect();
        Self {
            graph,
            index,
            qg,
            order,
            decomp,
            constraints,
        }
    }

    fn refine(&self, u: QVertexId, mut candidates: Vec<VertexId>) -> Vec<VertexId> {
        self.constraints[u.index()].filter(&mut candidates);
        // The self-loop check reads the adjacency, not the index under test.
        if let Some(types) = self.qg.self_loop(u) {
            candidates.retain(|&v| self.graph.has_multi_edge(v, v, types));
        }
        candidates
    }

    /// Probes of `u` seen from already-matched core `prior` (owned lists).
    fn probe_from(
        &self,
        prior: QVertexId,
        prior_match: VertexId,
        u: QVertexId,
    ) -> Vec<Vec<VertexId>> {
        let mut lists = Vec::new();
        for adj in self.qg.adjacency(prior) {
            if adj.neighbor != u {
                continue;
            }
            let edge = &self.qg.edges()[adj.edge];
            // adj.direction is relative to `prior`, which is the probed side.
            lists.push(self.index.neighborhood.neighbors(
                prior_match,
                adj.direction,
                self.qg.types(edge.types),
            ));
        }
        lists
    }

    fn run(&self) -> ComponentMatch {
        let u_init = self.order[0];
        let initial = self.refine(
            u_init,
            self.index
                .signature
                .candidates(&self.qg.query_synopsis(u_init, &mut Vec::new())),
        );
        let mut result = ComponentMatch::default();
        let mut assignment: Vec<(QVertexId, VertexId)> = Vec::new();
        for &v in &initial {
            self.descend(0, v, &mut assignment, &mut Vec::new(), &mut result);
        }
        result
    }

    fn descend(
        &self,
        pos: usize,
        v: VertexId,
        assignment: &mut Vec<(QVertexId, VertexId)>,
        satellite_sets: &mut Vec<(QVertexId, Vec<VertexId>)>,
        result: &mut ComponentMatch,
    ) {
        let u = self.order[pos];
        // Algorithm 2: resolve every satellite of u independently.
        let sats_before = satellite_sets.len();
        for &s in self.decomp.satellites_of(u) {
            let mut acc: Option<Vec<VertexId>> = None;
            for list in self.probe_from(u, v, s) {
                acc = Some(match acc {
                    None => list,
                    Some(prev) => intersect(&prev, &list),
                });
            }
            let resolved = self.refine(s, acc.expect("satellite touches its core"));
            if resolved.is_empty() {
                satellite_sets.truncate(sats_before);
                return;
            }
            satellite_sets.push((s, resolved));
        }
        assignment.push((u, v));

        if pos + 1 == self.order.len() {
            let solution = ComponentSolution {
                core: assignment.clone(),
                satellites: satellite_sets.clone(),
            };
            result.count = result.count.saturating_add(solution.embedding_count());
            result.solutions.push(solution);
        } else {
            // Algorithm 4 lines 5-8 for the next vertex, in plan order.
            let next = self.order[pos + 1];
            let mut acc: Option<Vec<VertexId>> = None;
            for &(prior, prior_match) in assignment.iter() {
                for list in self.probe_from(prior, prior_match, next) {
                    acc = Some(match acc {
                        None => list,
                        Some(prev) => intersect(&prev, &list),
                    });
                }
            }
            let candidates = self.refine(next, acc.expect("ordered vertex touches an earlier one"));
            for &cand in &candidates {
                self.descend(pos + 1, cand, assignment, satellite_sets, result);
            }
        }
        assignment.pop();
        satellite_sets.truncate(sats_before);
    }
}

/// `a ∩ b` into a fresh vector: the reference owns every intermediate.
fn intersect(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    sorted::intersect_slices_into(a, b, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Differential driver.
// ---------------------------------------------------------------------------

fn assert_matcher_equals_reference(rdf: &RdfGraph, qg: &QueryGraph, context: &str) {
    if qg.is_unsatisfiable() {
        return;
    }
    let index = IndexSet::build(rdf);
    let deadline = Deadline::unlimited();
    let config = MatchConfig::new(&deadline, None);
    for component in qg.connected_components().iter() {
        let prep = ComponentPrep::build(qg, &index, component, &mut SearchArenas::new());
        let fast = ComponentMatcher::new(qg, &index, &prep).run(
            prep.initial_candidates(),
            &config,
            &mut SearchArenas::new(),
        );
        assert!(!fast.timed_out);
        let reference = Reference::new(qg, rdf.graph(), &index, component).run();
        assert_eq!(
            fast.count, reference.count,
            "count mismatch on {context} component {component:?}"
        );
        // Solutions must agree as *sets*: the zero-alloc matcher visits
        // candidates in selectivity order, so within one recursion level the
        // enumeration order may legally differ from the reference's.
        let mut fast_solutions = fast.solutions;
        let mut reference_solutions = reference.solutions;
        let key = |s: &ComponentSolution| format!("{s:?}");
        fast_solutions.sort_by_key(key);
        reference_solutions.sort_by_key(key);
        assert_eq!(
            fast_solutions, reference_solutions,
            "solution mismatch on {context} component {component:?}"
        );
    }
}

fn small_synthetic(seed: u64) -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://diff/e/".into(),
        predicate_namespace: "http://diff/p/".into(),
        entities_per_scale: 160,
        resource_predicates: 7,
        literal_predicates: 4,
        mean_out_degree: 5.0,
        attachment_bias: 0.75,
        predicate_skew: 1.0,
        attribute_probability: 0.5,
        max_attributes: 3,
        literal_values: 12,
    };
    RdfGraph::from_triples(&synthetic::generate(&config, seed))
}

#[test]
fn satellite_heavy_star_workloads_agree() {
    let mut checked = 0;
    for seed in 0..4u64 {
        let rdf = small_synthetic(seed);
        let mut generator = WorkloadGenerator::new(&rdf, 100 + seed);
        for size in [3, 6, 10] {
            let config = WorkloadConfig::new(QueryShape::Star, size);
            for q in generator.generate_many(&config, 3) {
                let qg = QueryGraph::build(&q.query, &rdf).unwrap();
                assert_matcher_equals_reference(&rdf, &qg, &q.text);
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "only {checked} star queries generated");
}

#[test]
fn complex_workloads_agree() {
    let mut checked = 0;
    for seed in 0..4u64 {
        let rdf = small_synthetic(10 + seed);
        let mut generator = WorkloadGenerator::new(&rdf, 200 + seed);
        for size in [4, 7] {
            let mut config = WorkloadConfig::new(QueryShape::Complex, size);
            config.constant_iri_probability = 0.3; // exercise IRI constraints
            for q in generator.generate_many(&config, 3) {
                let qg = QueryGraph::build(&q.query, &rdf).unwrap();
                assert_matcher_equals_reference(&rdf, &qg, &q.text);
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "only {checked} complex queries generated");
}

#[test]
fn multi_type_edge_queries_agree() {
    // A dense graph over few vertices/predicates so that vertex pairs carry
    // several parallel edge types — the spill path of the borrowed probe
    // API (multi-type `QueryNeighIndex`) must stay exact.
    let mut state = 0xA5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut doc = String::new();
    for _ in 0..400 {
        let s = next() % 14;
        let p = next() % 5;
        let o = next() % 14;
        doc.push_str(&format!(
            "<http://m/v{s}> <http://m/p{p}> <http://m/v{o}> .\n"
        ));
    }
    let rdf = RdfGraph::parse_ntriples(&doc).unwrap();

    let queries = [
        // Parallel types on a core-core edge.
        "SELECT * WHERE { ?a <http://m/p0> ?b . ?a <http://m/p1> ?b . ?b <http://m/p2> ?c . }",
        // Parallel types on a satellite edge.
        "SELECT * WHERE { ?a <http://m/p0> ?b . ?b <http://m/p1> ?c . ?b <http://m/p3> ?c . \
                          ?c <http://m/p2> ?d . ?c <http://m/p4> ?d . }",
        // Triple-type multi-edge plus both-direction satellite probes.
        "SELECT * WHERE { ?a <http://m/p0> ?b . ?a <http://m/p1> ?b . ?a <http://m/p2> ?b . \
                          ?b <http://m/p0> ?c . ?c <http://m/p1> ?b . }",
        // Constant endpoints on a multi-type edge.
        "SELECT * WHERE { ?a <http://m/p0> ?b . ?a <http://m/p1> ?b . \
                          ?a <http://m/p2> <http://m/v3> . }",
    ];
    for text in queries {
        let query = parse_select(text).unwrap();
        let qg = QueryGraph::build(&query, &rdf).unwrap();
        assert_matcher_equals_reference(&rdf, &qg, text);
    }

    // Sanity: the handcrafted graph really produces multi-type data edges.
    let g = rdf.graph();
    let has_multi = g.vertices().any(|v| {
        g.multi_edges(v, Direction::Outgoing)
            .any(|run| run.len() >= 2)
    });
    assert!(has_multi, "graph generator no longer yields multi-edges");
}

#[test]
fn probe_directions_cover_both_orientations() {
    // Chains written against and along edge direction force Incoming and
    // Outgoing probes through both the borrowed and spilled paths.
    let rdf = small_synthetic(42);
    let mut generator = WorkloadGenerator::new(&rdf, 4242);
    let config = WorkloadConfig::new(QueryShape::Complex, 5);
    let mut checked = 0;
    for q in generator.generate_many(&config, 6) {
        let qg = QueryGraph::build(&q.query, &rdf).unwrap();
        assert_matcher_equals_reference(&rdf, &qg, &q.text);
        checked += 1;
    }
    assert!(
        checked > 0,
        "workload generation produced nothing to compare"
    );
}
