//! Matching-strategy ablations:
//!
//! * `decomposition` — AMbER's core–satellite batch resolution (Lemma 2)
//!   vs the Backtracking baseline that enumerates every degree-1 vertex
//!   explicitly, on star queries (where the paper's win is largest);
//! * `ordering` — the `(r1, r2)` heuristic of §5.3 vs a reversed core
//!   order, holding everything else fixed;
//! * `probe_api` — the zero-allocation borrowed probe path
//!   (`NeighborhoodIndex::probe` + reused spill buffer) vs the owned
//!   `neighbors` path that allocates a fresh vector per probe, replayed
//!   over the probe stream of a synthetic multi-edge workload.

use amber::matcher::{ComponentMatcher, MatchConfig};
use amber::{AmberEngine, ExecOptions, SparqlEngine};
use amber_baselines::BacktrackingEngine;
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_index::IndexSet;
use amber_multigraph::{QueryGraph, RdfGraph};
use amber_util::Deadline;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn decomposition_ablation(c: &mut Criterion) {
    let rdf = Arc::new(RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 2016)));
    let amber = AmberEngine::from_graph(Arc::clone(&rdf));
    let backtracking = BacktrackingEngine::new(Arc::clone(&rdf));
    let queries = WorkloadGenerator::new(&rdf, 5)
        .generate_many(&WorkloadConfig::new(QueryShape::Star, 12), 5);
    let options = ExecOptions::benchmark(Duration::from_millis(250));

    let mut group = c.benchmark_group("decomposition_star12");
    group.sample_size(10);
    group.bench_function("amber_satellites", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(
                    amber
                        .execute_query(&q.query, &options)
                        .unwrap()
                        .embedding_count,
                );
            }
        })
    });
    group.bench_function("backtracking_enumerate", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(
                    backtracking
                        .execute_query(&q.query, &options)
                        .unwrap()
                        .embedding_count,
                );
            }
        })
    });
    group.finish();
}

fn ordering_ablation(c: &mut Criterion) {
    let rdf = RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 2016));
    let index = IndexSet::build(&rdf);
    let queries = WorkloadGenerator::new(&rdf, 17)
        .generate_many(&WorkloadConfig::new(QueryShape::Complex, 12), 5);

    let prepared: Vec<QueryGraph> = queries
        .iter()
        .map(|q| QueryGraph::build(&q.query, &rdf).unwrap())
        .filter(|qg| !qg.is_unsatisfiable())
        .collect();

    let run_with = |reverse: bool| {
        for qg in &prepared {
            for component in qg.connected_components() {
                let matcher = if reverse {
                    let paper = ComponentMatcher::new(qg, rdf.graph(), &index, &component);
                    let mut order = paper.core_order().to_vec();
                    // Reverse, then rotate until the prefix stays connected
                    // (a worst-ish legal order).
                    order.reverse();
                    let connected_order = make_connected(qg, order);
                    ComponentMatcher::new_with_order(
                        qg,
                        rdf.graph(),
                        &index,
                        &component,
                        connected_order,
                    )
                } else {
                    ComponentMatcher::new(qg, rdf.graph(), &index, &component)
                };
                let deadline = Deadline::new(Some(Duration::from_millis(250)));
                let result = matcher.run(&MatchConfig::new(&deadline, Some(0)));
                black_box(result.count);
            }
        }
    };

    let mut group = c.benchmark_group("ordering_complex12");
    group.sample_size(10);
    group.bench_function("paper_r1_r2", |b| b.iter(|| run_with(false)));
    group.bench_function("reversed", |b| b.iter(|| run_with(true)));
    group.finish();
}

/// Greedily permute `wish` into an order whose every element touches the
/// prefix (required by the matcher).
fn make_connected(
    qg: &QueryGraph,
    wish: Vec<amber_multigraph::QVertexId>,
) -> Vec<amber_multigraph::QVertexId> {
    let mut remaining = wish;
    let mut order = vec![remaining.remove(0)];
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&u| qg.adjacency(u).iter().any(|a| order.contains(&a.neighbor)))
            .unwrap_or(0);
        order.push(remaining.remove(pos));
    }
    order
}

fn probe_api_ablation(c: &mut Criterion) {
    use amber_datagen::synthetic::{self, SyntheticConfig};
    use amber_multigraph::{Direction, EdgeTypeId, VertexId};

    // A dense multi-edge graph: few predicates over many entities, so
    // vertex pairs routinely carry parallel edge types and multi-type
    // probes have non-trivial intersections.
    let config = SyntheticConfig {
        entity_namespace: "http://probe/e/".into(),
        predicate_namespace: "http://probe/p/".into(),
        entities_per_scale: 4_000,
        resource_predicates: 8,
        literal_predicates: 4,
        mean_out_degree: 8.0,
        attachment_bias: 0.8,
        predicate_skew: 1.0,
        attribute_probability: 0.4,
        max_attributes: 3,
        literal_values: 40,
    };
    let rdf = RdfGraph::from_triples(&synthetic::generate(&config, 2024));
    let graph = rdf.graph();
    let index = IndexSet::build(&rdf);
    let n = &index.neighborhood;

    // The replayed probe stream mirrors what the matcher issues: mostly
    // single-type probes, plus the multi-type probes of parallel edges.
    let mut probes: Vec<(VertexId, Direction, Vec<EdgeTypeId>)> = Vec::new();
    for v in graph.vertices() {
        for direction in [Direction::Incoming, Direction::Outgoing] {
            for entry in graph.edges(v, direction) {
                let types = entry.types.types();
                probes.push((v, direction, vec![types[0]]));
                if types.len() >= 2 {
                    probes.push((v, direction, types.to_vec()));
                }
            }
        }
    }

    let mut group = c.benchmark_group("probe_api_multi_edge");
    group.sample_size(20);
    group.bench_function("owned_neighbors", |b| {
        b.iter(|| {
            let mut touched = 0usize;
            for (v, direction, types) in &probes {
                touched += black_box(n.neighbors(*v, *direction, types)).len();
            }
            black_box(touched)
        })
    });
    group.bench_function("borrowed_probe", |b| {
        let mut spill = Vec::new();
        b.iter(|| {
            let mut touched = 0usize;
            for (v, direction, types) in &probes {
                let result = n.probe(*v, *direction, types, &mut spill);
                touched += black_box(result.as_slice(&spill)).len();
            }
            black_box(touched)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    decomposition_ablation,
    ordering_ablation,
    probe_api_ablation
);
criterion_main!(benches);
