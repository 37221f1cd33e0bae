//! Index ablations (DESIGN.md): how much of AMbER's speed comes from each
//! structure of `I = {A, S, N}`?
//!
//! * `sindex/rtree` vs `sindex/linear_scan` — the R-tree's pruning value
//!   over a flat synopsis table (same candidates either way, Lemma 1);
//! * `sindex/no_pruning` — seeding the matcher with *all* vertices instead
//!   of the synopsis candidates (what Algorithm 3 would cost without `S`);
//! * `otil/indexed` vs `otil/adjacency_scan` — `QueryNeighIndex` through
//!   the per-type inverted lists vs filtering the raw adjacency.

use amber_datagen::Benchmark;
use amber_index::{NeighborhoodIndex, SignatureIndex};
use amber_multigraph::{Direction, EdgeTypeId, RdfGraph, VertexSignature};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn signature_index_ablation(c: &mut Criterion) {
    let rdf = RdfGraph::from_triples(&Benchmark::Dbpedia.generate(1, 2016));
    let graph = rdf.graph();
    let index = SignatureIndex::build(graph);
    // Query synopses: the signatures of a spread of real vertices (these
    // are what query vertices look like).
    let queries: Vec<_> = graph
        .vertices()
        .step_by(97)
        .map(|v| VertexSignature::of_data_vertex(graph, v).query_synopsis())
        .take(50)
        .collect();

    let mut group = c.benchmark_group("sindex");
    group.sample_size(10);
    group.bench_function("rtree", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.candidates(black_box(q)));
            }
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.candidates_linear(black_box(q)));
            }
        })
    });
    group.finish();
}

fn otil_ablation(c: &mut Criterion) {
    let rdf = RdfGraph::from_triples(&Benchmark::Yago.generate(1, 2016));
    let graph = rdf.graph();
    let n = NeighborhoodIndex::build(graph);
    // Probe a spread of (vertex, direction, type) combinations.
    let probes: Vec<_> = graph
        .vertices()
        .step_by(13)
        .take(200)
        .flat_map(|v| {
            [
                (v, Direction::Incoming, EdgeTypeId(3)),
                (v, Direction::Outgoing, EdgeTypeId(7)),
            ]
        })
        .collect();

    let mut group = c.benchmark_group("otil");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            for &(v, dir, t) in &probes {
                black_box(n.neighbors(v, dir, &[t]));
            }
        })
    });
    group.bench_function("adjacency_scan", |b| {
        b.iter(|| {
            for &(v, dir, t) in &probes {
                let scan: Vec<_> = graph
                    .edges(v, dir)
                    .iter()
                    .filter(|e| e.edge_type() == t)
                    .map(|e| e.neighbor)
                    .collect();
                black_box(scan);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, signature_index_ablation, otil_ablation);
criterion_main!(benches);
