//! Index ablations (DESIGN.md): how much of AMbER's speed comes from each
//! structure of `I = {A, S, N}`?
//!
//! * `sindex/rtree` vs `sindex/linear_scan` — the R-tree's pruning value
//!   over a flat synopsis table (same candidates either way, Lemma 1);
//! * `sindex/no_pruning` — seeding the matcher with *all* vertices instead
//!   of the synopsis candidates (what Algorithm 3 would cost without `S`);
//! * `otil/indexed` vs `otil/adjacency_scan` — `QueryNeighIndex` through
//!   the per-type inverted lists vs filtering the raw adjacency;
//! * `otil/long_rows_*` — borrowed single-type lookups on the longest
//!   rows (LUBM's incoming hubs), where a type's run in the edge table is
//!   long and the lookup's cost is the run search, not the row's start.

use amber_datagen::Benchmark;
use amber_index::{NeighborhoodIndex, SignatureIndex};
use amber_multigraph::{DataGraph, Direction, EdgeTypeId, RdfGraph, VertexId, VertexSignature};
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
    for benchmark in [Benchmark::Lubm, Benchmark::Dbpedia] {
        let rdf = RdfGraph::from_triples(&benchmark.generate(4, 2016));
        let graph = rdf.graph();
        let n = NeighborhoodIndex::build(graph);
        let probes = longest_row_probes(graph, 64);
        let id = format!("long_rows_{benchmark:?} ({} probes)", probes.len());
        group.bench_function(id.as_str(), |b| {
            b.iter(|| {
                for &(v, dir, t) in &probes {
                    black_box(n.neighbors_with_type(v, dir, t));
                }
            })
        });
    }
    group.finish();
}

/// Every `(vertex, direction, type)` of the `rows` longest rows per
/// direction, once per distinct type in the row.
fn longest_row_probes(graph: &DataGraph, rows: usize) -> Vec<(VertexId, Direction, EdgeTypeId)> {
    let mut probes = Vec::new();
    for dir in [Direction::Incoming, Direction::Outgoing] {
        let mut longest: Vec<VertexId> = graph.vertices().collect();
        longest.sort_by_key(|&v| std::cmp::Reverse(graph.edges(v, dir).len()));
        for &v in longest.iter().take(rows) {
            let mut types: Vec<EdgeTypeId> =
                graph.edges(v, dir).iter().map(|e| e.edge_type()).collect();
            types.sort_unstable();
            types.dedup();
            probes.extend(types.into_iter().map(|t| (v, dir, t)));
        }
    }
    probes
}

criterion_group!(benches, signature_index_ablation, otil_ablation);
criterion_main!(benches);
