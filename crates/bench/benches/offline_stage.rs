//! Offline-stage microbenchmarks (Table 5's quantities): multigraph
//! database construction and per-index build time for each benchmark, and
//! the read cost of the dictionaries those builds leave behind.

use amber_datagen::Benchmark;
use amber_index::{AttributeIndex, IndexSet, NeighborhoodIndex, SignatureIndex};
use amber_multigraph::{AttrId, RdfGraph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn offline_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline");
    group.sample_size(10);
    for bench in Benchmark::ALL {
        let triples = bench.generate(1, 2016);
        group.bench_with_input(
            BenchmarkId::new("database_build", bench.name()),
            &triples,
            |b, triples| b.iter(|| black_box(RdfGraph::from_triples(black_box(triples)))),
        );
        let rdf = RdfGraph::from_triples(&triples);
        group.bench_with_input(
            BenchmarkId::new("index_ensemble_build", bench.name()),
            &rdf,
            |b, rdf| b.iter(|| black_box(IndexSet::build(black_box(rdf)))),
        );
        group.bench_with_input(
            BenchmarkId::new("attribute_index", bench.name()),
            &rdf,
            |b, rdf| b.iter(|| black_box(AttributeIndex::build(black_box(rdf)))),
        );
        group.bench_with_input(
            BenchmarkId::new("signature_index", bench.name()),
            &rdf,
            |b, rdf| b.iter(|| black_box(SignatureIndex::build(black_box(rdf.graph())))),
        );
        group.bench_with_input(
            BenchmarkId::new("neighborhood_index", bench.name()),
            &rdf,
            |b, rdf| b.iter(|| black_box(NeighborhoodIndex::build(black_box(rdf.graph())))),
        );
    }
    group.finish();
}

/// Operations per sample in [`dictionary`]: a sample's time in µs reads as
/// ns per operation.
const OPS: usize = 1_000;

/// Forward and inverse lookups on the dictionaries of the DBpedia-like
/// graph at scale 4, `OPS` spread-out keys per sample: `get` hits and
/// misses on `Mv`, `Dictionaries::attribute` hits, and the inverse maps
/// `resolve` (`Mv⁻¹`) and `resolve_attribute` (`Ma⁻¹`).
fn dictionary(c: &mut Criterion) {
    let triples = Benchmark::Dbpedia.generate(4, 2016);
    let rdf = RdfGraph::from_triples(&triples);
    let dicts = rdf.dictionaries();
    let spread = |len: usize| (0..OPS).map(move |i| (i * len / OPS) as u32);
    let vertex_ids: Vec<u32> = spread(dicts.vertices.len()).collect();
    let vertex_keys: Vec<String> = vertex_ids
        .iter()
        .map(|&v| dicts.vertices.resolve(v).unwrap().to_owned())
        .collect();
    let absent_keys: Vec<String> = vertex_keys.iter().map(|k| format!("{k}#absent")).collect();
    let literals: Vec<_> = triples
        .iter()
        .filter_map(|t| Some((t.predicate.as_str(), t.object.as_literal()?)))
        .collect();
    let pairs: Vec<_> = spread(literals.len())
        .map(|i| literals[i as usize])
        .collect();
    let attribute_ids: Vec<AttrId> = spread(dicts.attributes.len()).map(AttrId).collect();

    let mut group = c.benchmark_group("dictionary");
    group.sample_size(50);
    group.bench_function(format!("mv_get_hit_x{OPS}"), |b| {
        b.iter(|| {
            vertex_keys
                .iter()
                .filter_map(|k| dicts.vertices.get(k))
                .count()
        })
    });
    group.bench_function(format!("mv_get_miss_x{OPS}"), |b| {
        b.iter(|| {
            absent_keys
                .iter()
                .filter_map(|k| dicts.vertices.get(k))
                .count()
        })
    });
    group.bench_function(format!("attribute_hit_x{OPS}"), |b| {
        b.iter(|| {
            pairs
                .iter()
                .filter_map(|(p, l)| dicts.attribute(p, l))
                .count()
        })
    });
    group.bench_function(format!("mv_resolve_x{OPS}"), |b| {
        b.iter(|| {
            vertex_ids
                .iter()
                .map(|&v| dicts.vertices.resolve(v).map_or(0, str::len))
                .sum::<usize>()
        })
    });
    group.bench_function(format!("resolve_attribute_x{OPS}"), |b| {
        b.iter(|| {
            attribute_ids
                .iter()
                .map(|&a| {
                    dicts
                        .resolve_attribute(a)
                        .map_or(0, |(p, l)| p.len() + l.len())
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, offline_stage, dictionary);
criterion_main!(benches);
