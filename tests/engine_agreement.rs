//! Cross-engine agreement: AMbER and the three baseline architectures must
//! produce identical embedding counts on every query — the strongest
//! correctness check in the repository, because the four implementations
//! share no evaluation code (only the data model).
//!
//! The default run takes one query size per shape and generator plus the
//! constant-injection cell. The full matrix (two sizes per shape) is
//! `#[ignore]`d out of the default run; run it with
//! `cargo test --release --test engine_agreement -- --ignored`.

use amber::ExecOptions;
use amber_baselines::all_engines;
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use std::sync::Arc;
use std::time::Duration;

fn agree_on_workload(
    benchmark: Benchmark,
    shape: QueryShape,
    sizes: &[usize],
    seed: u64,
    budget: Duration,
) {
    let triples = benchmark.generate(1, seed);
    let rdf = Arc::new(RdfGraph::from_triples(&triples));
    let engines = all_engines(Arc::clone(&rdf));
    // Count-only to avoid materialization differences. Some generated
    // queries legitimately have astronomical embedding counts that no
    // engine can enumerate in the budget (the paper itself reports AMbER
    // timing out on a tail of the complex workload, Fig. 7b/9b/11b) — such
    // cells are skipped; the assertion is agreement among the engines that
    // *did* answer.
    let options = ExecOptions::benchmark(budget);

    let mut any_compared = false;
    let mut generator = WorkloadGenerator::new(&rdf, seed ^ 0x5eed);
    for &size in sizes {
        for shape_query in generator.generate_many(&WorkloadConfig::new(shape, size), 2) {
            let mut answered: Vec<(String, u128)> = Vec::new();
            for engine in &engines {
                let outcome = engine
                    .execute_query(&shape_query.query, &options)
                    .unwrap_or_else(|e| {
                        panic!("{} failed: {e}\n{}", engine.name(), shape_query.text)
                    });
                if !outcome.timed_out() {
                    answered.push((engine.name().to_string(), outcome.embedding_count));
                }
            }
            let Some(&(_, reference)) = answered.first() else {
                continue;
            };
            for (name, count) in &answered {
                assert_eq!(
                    *count,
                    reference,
                    "{name} disagrees on {} {:?} size {size}:\n{}",
                    benchmark.name(),
                    shape,
                    shape_query.text
                );
            }
            // Generated queries embed their seed entities: never empty.
            assert!(
                reference > 0,
                "generated query has no embeddings:\n{}",
                shape_query.text
            );
            if answered.len() >= 2 {
                any_compared = true;
            }
        }
    }
    assert!(
        any_compared,
        "no query was answered by two or more engines — the cell proves nothing"
    );
}

/// Every generator and shape, with its seed and the sizes of the full
/// matrix; the default run takes the first size only.
const MATRIX: &[(Benchmark, QueryShape, [usize; 2], u64)] = &[
    (Benchmark::Lubm, QueryShape::Star, [4, 8], 11),
    (Benchmark::Lubm, QueryShape::Complex, [6, 10], 12),
    (Benchmark::Yago, QueryShape::Star, [4, 8], 13),
    (Benchmark::Yago, QueryShape::Complex, [6, 10], 14),
    (Benchmark::Dbpedia, QueryShape::Star, [4, 8], 15),
    (Benchmark::Dbpedia, QueryShape::Complex, [6, 10], 16),
];

fn agree_on_cell(benchmark: Benchmark, shape: QueryShape) {
    let &(_, _, sizes, seed) = MATRIX
        .iter()
        .find(|(b, s, ..)| *b == benchmark && *s == shape)
        .expect("a matrix cell");
    // A baseline that blows this budget proves nothing in either run, so
    // the default run does not wait as long for one.
    agree_on_workload(benchmark, shape, &sizes[..1], seed, Duration::from_secs(2));
}

#[test]
fn agreement_lubm_star() {
    agree_on_cell(Benchmark::Lubm, QueryShape::Star);
}

#[test]
fn agreement_lubm_complex() {
    agree_on_cell(Benchmark::Lubm, QueryShape::Complex);
}

#[test]
fn agreement_yago_star() {
    agree_on_cell(Benchmark::Yago, QueryShape::Star);
}

#[test]
fn agreement_yago_complex() {
    agree_on_cell(Benchmark::Yago, QueryShape::Complex);
}

#[test]
fn agreement_dbpedia_star() {
    agree_on_cell(Benchmark::Dbpedia, QueryShape::Star);
}

#[test]
fn agreement_dbpedia_complex() {
    agree_on_cell(Benchmark::Dbpedia, QueryShape::Complex);
}

#[test]
#[ignore = "the full matrix; run with --release -- --ignored"]
fn agreement_full_matrix() {
    for &(benchmark, shape, sizes, seed) in MATRIX {
        agree_on_workload(benchmark, shape, &sizes, seed, Duration::from_secs(10));
    }
}

#[test]
fn agreement_with_heavy_constant_injection() {
    // Constants exercise IRI-vertex constraints and ground checks.
    let triples = Benchmark::Lubm.generate(1, 77);
    let rdf = Arc::new(RdfGraph::from_triples(&triples));
    let engines = all_engines(Arc::clone(&rdf));
    let options = ExecOptions::benchmark(Duration::from_secs(30));
    let mut generator = WorkloadGenerator::new(&rdf, 78);
    let mut config = WorkloadConfig::new(QueryShape::Complex, 8);
    config.constant_iri_probability = 0.8;
    for q in generator.generate_many(&config, 5) {
        // As in `agree_on_workload`, a timed-out engine carries a partial
        // count that proves nothing, so only completed runs are compared.
        // AMbER — the system under test — must always finish, and since the
        // scan-join baseline gained its constant-first step reorder it is
        // required to finish here too: constant-heavy queries are exactly
        // the shape the reorder fixes, and its trivially auditable code
        // path is the oracle this cell exists for.
        let mut counts: Vec<u128> = Vec::new();
        let mut amber_answered = false;
        let mut scanjoin_answered = false;
        for engine in &engines {
            let out = engine.execute_query(&q.query, &options).expect("executes");
            if !out.timed_out() {
                amber_answered |= engine.name() == "AMbER";
                scanjoin_answered |= engine.name() == "ScanJoin";
                counts.push(out.embedding_count);
            }
        }
        assert!(amber_answered, "AMbER blew its budget on\n{}", q.text);
        assert!(
            scanjoin_answered,
            "ScanJoin (constant-first oracle) blew its budget on\n{}",
            q.text
        );
        assert!(
            counts.len() >= 2,
            "fewer than two engines answered\n{}",
            q.text
        );
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "disagreement {counts:?} on\n{}",
            q.text
        );
    }
}
