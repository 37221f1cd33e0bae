//! The per-table / per-figure experiment drivers.

use crate::report::{fmt_ms, sweep_tables, workload_table};
use crate::runner::{build_engines, load_benchmark, run_workload, HarnessConfig, WorkloadOutcome};
use amber::AmberEngine;
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use amber_util::heap_size::format_bytes;
use amber_util::{HeapSize, Stopwatch};
use std::fmt::Write as _;
use std::sync::Arc;

/// **Table 1** — average time for complex 50-triple queries on DBPEDIA.
///
/// Paper values (full-scale DBPEDIA, 200 queries, 60 s budget):
/// AMbER 1.56 s, gStore 11.96 s, Virtuoso 20.45 s, x-RDF-3X > 60 s.
/// The reproduction checks the *ordering*, not the absolute numbers.
pub fn table1(config: &HarnessConfig) -> String {
    let rdf = load_benchmark(Benchmark::Dbpedia, config);
    let engines = build_engines(Arc::clone(&rdf), config);
    let mut gen = WorkloadGenerator::new(&rdf, config.seed);
    let queries = gen.generate_many(
        &WorkloadConfig::new(QueryShape::Complex, 50),
        config.queries_per_size.max(20),
    );
    let outcome = run_workload(&engines, &queries, config);
    let mut out = String::new();
    writeln!(
        out,
        "## Table 1 — complex 50-triple queries on DBPEDIA ({} queries, {:?} budget)\n",
        queries.len(),
        config.timeout
    )
    .unwrap();
    out.push_str(&workload_table(&outcome));
    out
}

/// **Table 4** — benchmark statistics.
pub fn table4(config: &HarnessConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Table 4 — benchmark statistics (scale {}, seed {})\n",
        config.scale, config.seed
    )
    .unwrap();
    writeln!(
        out,
        "| Dataset | # Triples | # Vertices | # Edges | # Edge types |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|").unwrap();
    let mut topology = String::new();
    for bench in Benchmark::ALL {
        let rdf = load_benchmark(bench, config);
        let stats = rdf.stats();
        writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            bench.name(),
            stats.triples,
            stats.vertices,
            stats.edges,
            stats.edge_types
        )
        .unwrap();
        let degrees = amber_multigraph::analysis::degree_stats(&rdf);
        let skew = amber_multigraph::analysis::predicate_skew(&rdf);
        writeln!(
            topology,
            "| {} | {} | {:.1} | {} | {} | {:.0}% |",
            bench.name(),
            degrees.max,
            degrees.mean,
            degrees.p99,
            degrees.hubs_50,
            skew * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "
Topology (workload-relevant characteristics, §7.2):
"
    )
    .unwrap();
    writeln!(
        out,
        "| Dataset | max degree | mean | p99 | ≥50-triple hubs | top-10% predicate share |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|").unwrap();
    out.push_str(&topology);
    out
}

/// **Table 5** — offline stage: database and index construction time and
/// memory.
pub fn table5(config: &HarnessConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Table 5 — offline stage: database and index construction (scale {})\n",
        config.scale
    )
    .unwrap();
    writeln!(
        out,
        "| Dataset | DB build time | DB size | Index build time | Index size |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|").unwrap();
    for bench in Benchmark::ALL {
        let triples = bench.generate(config.scale, config.seed);
        let sw = Stopwatch::start();
        let rdf = RdfGraph::from_triples(&triples);
        let db_time = sw.elapsed();
        let db_bytes = rdf.heap_size();
        let engine = AmberEngine::from_graph(rdf);
        let stats = engine.offline_stats();
        writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            bench.name(),
            fmt_ms(db_time.as_secs_f64() * 1e3),
            format_bytes(db_bytes),
            fmt_ms(stats.index_build_time.as_secs_f64() * 1e3),
            format_bytes(stats.index_bytes),
        )
        .unwrap();
    }
    out
}

/// **Figures 6–11** — one (benchmark, shape) sweep over query sizes:
/// sub-figure (a) average time, sub-figure (b) % unanswered.
pub fn figures(benchmark: Benchmark, shape: QueryShape, config: &HarnessConfig) -> String {
    let rdf = load_benchmark(benchmark, config);
    let engines = build_engines(Arc::clone(&rdf), config);
    let mut gen = WorkloadGenerator::new(&rdf, config.seed);
    let mut sweep: Vec<(usize, WorkloadOutcome)> = Vec::new();
    for &size in &config.sizes {
        let queries = gen.generate_many(&WorkloadConfig::new(shape, size), config.queries_per_size);
        if queries.is_empty() {
            continue;
        }
        sweep.push((size, run_workload(&engines, &queries, config)));
    }
    let figure_number = figure_number(benchmark, shape);
    sweep_tables(
        &format!(
            "Figure {figure_number} — {} queries on {} ({} queries/size, {:?} budget)",
            shape.name(),
            benchmark.name(),
            config.queries_per_size,
            config.timeout
        ),
        &sweep,
    )
}

/// Differential-correctness sweep: run generated workloads through every
/// engine and verify the embedding counts agree (the cross-engine oracle
/// the test suite uses, exposed as a harness command for ad-hoc auditing).
/// Returns a markdown report; panics on the first disagreement.
pub fn agreement(config: &HarnessConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "## Cross-engine agreement audit (scale {}, seed {})\n",
        config.scale, config.seed
    )
    .unwrap();
    writeln!(
        out,
        "| dataset | shape | size | queries | compared | agreed |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|").unwrap();
    for bench in Benchmark::ALL {
        let rdf = load_benchmark(bench, config);
        let engines = build_engines(Arc::clone(&rdf), config);
        let mut gen = WorkloadGenerator::new(&rdf, config.seed ^ 0xa9ee);
        for shape in [QueryShape::Star, QueryShape::Complex] {
            for &size in &config.sizes {
                let queries =
                    gen.generate_many(&WorkloadConfig::new(shape, size), config.queries_per_size);
                let mut compared = 0usize;
                for q in &queries {
                    let options = amber::ExecOptions::benchmark(config.timeout);
                    let counts: Vec<(String, Option<u128>)> = engines
                        .iter()
                        .map(|e| {
                            let outcome = e
                                .execute_query(&q.query, &options)
                                .unwrap_or_else(|err| panic!("{} failed: {err}", e.name()));
                            (
                                e.name().to_string(),
                                (!outcome.timed_out()).then_some(outcome.embedding_count),
                            )
                        })
                        .collect();
                    let answered: Vec<_> = counts
                        .iter()
                        .filter_map(|(n, c)| c.map(|c| (n, c)))
                        .collect();
                    if answered.len() >= 2 {
                        compared += 1;
                        let reference = answered[0].1;
                        for (name, count) in &answered {
                            assert_eq!(
                                *count,
                                reference,
                                "{name} disagrees on {} {} size {size}:\n{}",
                                bench.name(),
                                shape.name(),
                                q.text
                            );
                        }
                    }
                }
                writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | ✓ |",
                    bench.name(),
                    shape.name(),
                    size,
                    queries.len(),
                    compared
                )
                .unwrap();
            }
        }
    }
    out
}

/// The paper's figure numbering: 6/7 DBPEDIA, 8/9 YAGO, 10/11 LUBM
/// (star first, then complex).
pub fn figure_number(benchmark: Benchmark, shape: QueryShape) -> usize {
    let base = match benchmark {
        Benchmark::Dbpedia => 6,
        Benchmark::Yago => 8,
        Benchmark::Lubm => 10,
    };
    base + usize::from(shape == QueryShape::Complex)
}

/// Run the complete suite (all tables, all figures) and return one markdown
/// document — what `EXPERIMENTS.md` records.
pub fn run_all(config: &HarnessConfig) -> String {
    let mut out = String::new();
    writeln!(out, "{}", table4(config)).unwrap();
    writeln!(out, "{}", table5(config)).unwrap();
    writeln!(out, "{}", table1(config)).unwrap();
    for bench in Benchmark::ALL {
        for shape in [QueryShape::Star, QueryShape::Complex] {
            writeln!(out, "{}", figures(bench, shape, config)).unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: 1,
            queries_per_size: 2,
            sizes: vec![5, 10],
            timeout: Duration::from_millis(500),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn figure_numbering_matches_paper() {
        assert_eq!(figure_number(Benchmark::Dbpedia, QueryShape::Star), 6);
        assert_eq!(figure_number(Benchmark::Dbpedia, QueryShape::Complex), 7);
        assert_eq!(figure_number(Benchmark::Yago, QueryShape::Star), 8);
        assert_eq!(figure_number(Benchmark::Yago, QueryShape::Complex), 9);
        assert_eq!(figure_number(Benchmark::Lubm, QueryShape::Star), 10);
        assert_eq!(figure_number(Benchmark::Lubm, QueryShape::Complex), 11);
    }

    #[test]
    fn table4_renders_all_benchmarks() {
        let out = table4(&tiny());
        for b in Benchmark::ALL {
            assert!(out.contains(b.name()), "{out}");
        }
    }

    #[test]
    fn table5_renders_sizes() {
        let out = table5(&tiny());
        assert!(out.contains("Index build time"));
        assert!(out.contains("LUBM"));
    }

    #[test]
    fn lubm_figure_cell_runs() {
        let out = figures(Benchmark::Lubm, QueryShape::Star, &tiny());
        assert!(out.contains("Figure 10"));
        assert!(out.contains("AMbER"));
    }
}
