//! Larger-scale stress tests, `#[ignore]`d by default.
//!
//! Run explicitly with:
//!
//! ```sh
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! These approach the paper's workload sizes (hundreds of queries,
//! 200 K-triple datasets) and exist to catch scaling regressions the
//! seconds-long default suite cannot see.

use amber::{AmberEngine, ExecOptions, QueryOutcome, QueryRequest, QueryStatus, SparqlEngine};
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use std::sync::Arc;
use std::time::Duration;

#[test]
#[ignore = "minutes-long; run with --ignored"]
fn lubm_scale_10_star_sweep() {
    let rdf = Arc::new(RdfGraph::from_triples(&Benchmark::Lubm.generate(10, 1)));
    assert!(rdf.stats().triples > 20_000);
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut gen = WorkloadGenerator::new(&rdf, 2);
    let options = ExecOptions::benchmark(Duration::from_secs(60));
    for size in [10, 20, 30, 40, 50] {
        let queries = gen.generate_many(&WorkloadConfig::new(QueryShape::Star, size), 50);
        assert!(!queries.is_empty(), "no size-{size} stars at scale 10");
        let mut answered = 0;
        for q in &queries {
            let outcome = engine.execute_query(&q.query, &options).unwrap();
            if !outcome.timed_out() {
                answered += 1;
                assert!(outcome.embedding_count > 0, "{}", q.text);
            }
        }
        // The paper's robustness claim: AMbER answers >98% of star queries.
        assert!(
            answered * 100 >= queries.len() * 98,
            "size {size}: only {answered}/{} answered",
            queries.len()
        );
    }
}

#[test]
#[ignore = "minutes-long; run with --ignored"]
fn dbpedia_scale_5_table1_style() {
    let rdf = Arc::new(RdfGraph::from_triples(&Benchmark::Dbpedia.generate(5, 3)));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut gen = WorkloadGenerator::new(&rdf, 4);
    let queries = gen.generate_many(&WorkloadConfig::new(QueryShape::Complex, 50), 100);
    let options = ExecOptions::benchmark(Duration::from_secs(60));
    let mut answered = 0;
    for q in &queries {
        if !engine
            .execute_query(&q.query, &options)
            .unwrap()
            .timed_out()
        {
            answered += 1;
        }
    }
    assert!(
        answered * 100 >= queries.len() * 85,
        "complex-50 robustness: {answered}/{}",
        queries.len()
    );
}

#[test]
#[ignore = "minutes-long; run with --ignored"]
fn batch_session_at_scale_with_evicting_cache() {
    // A paper-scale repeated-workload stream through one session, with
    // a result cache small enough to evict continuously mid-batch: the
    // batch must stay answer-identical to one-shot execution and keep the robustness
    // bar, whatever the eviction churn does.
    let rdf = Arc::new(RdfGraph::from_triples(&Benchmark::Lubm.generate(10, 6)));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut gen = WorkloadGenerator::new(&rdf, 7);
    let mut base = gen.generate_many(&WorkloadConfig::new(QueryShape::Star, 20), 20);
    base.extend(gen.generate_many(&WorkloadConfig::new(QueryShape::Complex, 10), 20));
    assert!(base.len() >= 30, "workload generation came up short");
    // Repeat the stream so the cache actually gets re-use pressure.
    let queries: Vec<_> = base
        .iter()
        .chain(base.iter())
        .map(|q| q.query.clone())
        .collect();

    for cache_capacity in [0usize, 8, 4096] {
        let options =
            ExecOptions::benchmark(Duration::from_secs(15)).with_result_cache(cache_capacity);
        let requests: Vec<QueryRequest<'_>> = queries
            .iter()
            .map(|q| QueryRequest::parsed(q).with_options(options.clone()))
            .collect();
        let mut session = engine.create_session(&options);
        let outcomes: Vec<QueryOutcome> = requests
            .iter()
            .map(|request| {
                engine
                    .run_in(request, &mut session)
                    .unwrap_or_else(|e| panic!("capacity {cache_capacity}: {e}"))
            })
            .collect();
        let completed = outcomes
            .iter()
            .filter(|o| o.status == QueryStatus::Completed)
            .count();
        // The complex half of the stream has the paper's heavy tail (the
        // same few queries blow any budget on every repeat), so the bar
        // matches the complex-workload precedent above, not the star one.
        assert!(
            completed * 100 >= queries.len() * 85,
            "capacity {cache_capacity}: only {completed}/{} answered",
            queries.len()
        );
        let results = session.result_stats();
        assert!(results.entries <= cache_capacity);
        // Spot-check batch outcomes against one-shot execution. Either run
        // may hit the budget independently; partial counts prove nothing.
        for (request, batched) in requests.iter().zip(&outcomes).step_by(13) {
            if batched.timed_out() {
                continue;
            }
            let solo = engine.run(request).unwrap();
            if !solo.timed_out() {
                assert_eq!(batched.embedding_count, solo.embedding_count);
            }
        }
        // The tiny capacity must actually have been under pressure.
        if cache_capacity == 8 && results.misses > 8 {
            assert!(results.evictions > 0);
        }
    }
}

#[test]
#[ignore = "minutes-long; run with --ignored"]
fn snapshot_round_trip_at_scale() {
    let rdf = RdfGraph::from_triples(&Benchmark::Yago.generate(10, 5));
    let image = rdf.to_snapshot();
    let restored = RdfGraph::from_snapshot(&image).unwrap();
    assert_eq!(rdf.stats(), restored.stats());
    // Snapshot is not wildly larger than the in-memory representation.
    assert!(image.len() < 4 * amber_util::HeapSize::heap_size(&rdf).max(1));
}
