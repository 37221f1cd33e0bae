//! Index ablations (DESIGN.md): how much of AMbER's speed comes from each
//! structure of `I = {A, S, N}`?
//!
//! * `sindex/rtree` vs `sindex/linear_scan` — the R-tree's pruning value
//!   over a flat synopsis table (same candidates either way, Lemma 1);
//! * `sindex/no_pruning` — seeding the matcher with *all* vertices instead
//!   of the synopsis candidates (what Algorithm 3 would cost without `S`);
//! * `otil/indexed` vs `otil/adjacency_scan` — a single-type
//!   `QueryNeighIndex` borrowed from the edge table vs filtering the raw
//!   adjacency row, both allocation-free, on the longest rows of the
//!   YAGO-like graph (where a scan has entries to skip);
//! * `otil/long_rows_*` — borrowed single-type lookups on the longest
//!   rows (LUBM's incoming hubs), where a type's run in the edge table is
//!   long and the lookup's cost is the run search, not the row's start;
//! * `check/index_*` vs `check/adjacency_*` — the edge check the plan and
//!   the search answer ground patterns and self-loops with
//!   (`NeighborhoodIndex::has_edge`) vs the adjacency's
//!   `DataGraph::has_multi_edge`, on one sample of present and absent
//!   `(from, to, types)` triples.

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
    let probes = longest_row_probes(graph, 20);
    let entries: usize = probes
        .iter()
        .map(|&(v, dir, _)| graph.edges(v, dir).len())
        .sum();

    let mut group = c.benchmark_group("otil");
    group.sample_size(10);
    let id = |case: &str| {
        format!(
            "{case} ({} probes, {:.1} entries per row)",
            probes.len(),
            entries as f64 / probes.len() as f64
        )
    };
    group.bench_function(id("indexed").as_str(), |b| {
        b.iter(|| {
            let mut found = 0;
            for &(v, dir, t) in &probes {
                found += black_box(n.neighbors_with_type(v, dir, t)).len();
            }
            found
        })
    });
    group.bench_function(id("adjacency_scan").as_str(), |b| {
        // The scan's answer, like the index's, is the sorted neighbour
        // list (rows are sorted by neighbour), built in a reused buffer.
        let mut list = Vec::new();
        b.iter(|| {
            let mut found = 0;
            for &(v, dir, t) in &probes {
                list.clear();
                list.extend(
                    graph
                        .edges(v, dir)
                        .iter()
                        .filter(|e| e.edge_type() == t)
                        .map(|e| e.neighbor),
                );
                found += black_box(&list).len();
            }
            found
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

fn edge_check_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("check");
    group.sample_size(10);
    for benchmark in [Benchmark::Lubm, Benchmark::Dbpedia] {
        let rdf = RdfGraph::from_triples(&benchmark.generate(4, 2016));
        let graph = rdf.graph();
        let n = NeighborhoodIndex::build(graph);
        let checks = edge_checks(graph, 2_000);
        let present = checks
            .iter()
            .filter(|(from, to, types)| graph.has_multi_edge(*from, *to, types))
            .count();
        let id = |case: &str| {
            format!(
                "{case}_{benchmark:?} ({present} present, {} absent)",
                checks.len() - present
            )
        };
        group.bench_function(id("index").as_str(), |b| {
            b.iter(|| {
                let checks = black_box(&checks);
                checks
                    .iter()
                    .filter(|(from, to, types)| n.has_edge(*from, *to, types))
                    .count()
            })
        });
        group.bench_function(id("adjacency").as_str(), |b| {
            b.iter(|| {
                let checks = black_box(&checks);
                checks
                    .iter()
                    .filter(|(from, to, types)| graph.has_multi_edge(*from, *to, types))
                    .count()
            })
        });
    }
    group.finish();
}

/// Up to `len` edge checks, half present and half absent: each multi-edge
/// `from → to` of a spread of vertices with all its types, then the same
/// pair reversed (kept only where no such edge exists) and the pair with
/// one of its types swapped for the next type id.
fn edge_checks(graph: &DataGraph, len: usize) -> Vec<(VertexId, VertexId, Vec<EdgeTypeId>)> {
    let (mut present, mut absent) = (Vec::new(), Vec::new());
    let step = (graph.vertex_count() / len).max(1);
    for v in graph.vertices().step_by(step) {
        for run in graph.multi_edges(v, Direction::Outgoing).take(2) {
            let to = run[0].neighbor;
            let types: Vec<EdgeTypeId> = run.iter().map(|e| e.edge_type()).collect();
            let other = EdgeTypeId((types[0].0 + 1) % graph.edge_type_count() as u32);
            for (from, to, types) in [(to, v, types.clone()), (v, to, vec![other])] {
                if !graph.has_multi_edge(from, to, &types) {
                    absent.push((from, to, types));
                }
            }
            present.push((v, to, types));
        }
    }
    present.truncate(len / 2);
    absent.truncate(len / 2);
    present.extend(absent);
    present
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

criterion_group!(
    benches,
    signature_index_ablation,
    otil_ablation,
    edge_check_ablation
);
criterion_main!(benches);
