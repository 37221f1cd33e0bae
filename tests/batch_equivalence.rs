//! Differential property test for the batch-execution subsystem.
//!
//! A batch runs many queries through `run_in` on one shared
//! [`QuerySession`] —
//! long-lived arenas plus cross-query seed, plan and result caches. Nothing
//! about that sharing may be observable in the results: over randomized
//! query streams (duplicates and permutations included, so cache reuse and
//! arena high-water reuse actually trigger) every per-query outcome must be
//! identical to a fresh sequential `run` call, with the plan and
//! result caches disabled, tiny (evicting mid-batch), and large.

use amber::{
    AmberEngine, CancelToken, ExecOptions, QueryOutcome, QueryRequest, QuerySession, QueryStatus,
};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{GeneratedQuery, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A small but multi-edge-rich synthetic graph (parallel predicates between
/// entity pairs exercise the multi-type spill path).
fn dense_graph(seed: u64) -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://batch/e/".into(),
        predicate_namespace: "http://batch/p/".into(),
        entities_per_scale: 140,
        resource_predicates: 6,
        literal_predicates: 3,
        mean_out_degree: 6.0,
        attachment_bias: 0.8,
        predicate_skew: 1.0,
        attribute_probability: 0.4,
        max_attributes: 3,
        literal_values: 10,
    };
    RdfGraph::from_triples(&synthetic::generate(&config, seed))
}

/// A stream with duplicates and a seeded permutation: `base` queries, each
/// repeated `dup` times, shuffled.
fn build_stream(base: &[GeneratedQuery], dup: usize, shuffle_seed: u64) -> Vec<GeneratedQuery> {
    let mut stream: Vec<GeneratedQuery> = Vec::with_capacity(base.len() * dup);
    for _ in 0..dup {
        stream.extend(base.iter().cloned());
    }
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    stream.shuffle(&mut rng);
    stream
}

/// The observable fingerprint of one outcome: count, timeout flag,
/// projection variables, order-normalized bindings.
type Fingerprint = (u128, bool, Vec<Box<str>>, Vec<Vec<Box<str>>>);

fn normalized(outcome: &QueryOutcome) -> Fingerprint {
    let mut rows = outcome.bindings.to_vec();
    rows.sort();
    (
        outcome.embedding_count,
        outcome.timed_out(),
        outcome.variables.clone(),
        rows,
    )
}

/// Run `stream` through one fresh session and check every outcome against
/// a sequential `run`. Returns the session, whose counters are the
/// batch's, and how many of its queries completed within budget.
fn assert_batch_equals_sequential(
    engine: &AmberEngine,
    stream: &[GeneratedQuery],
    options: &ExecOptions,
    context: &str,
) -> (QuerySession, usize) {
    let requests: Vec<QueryRequest<'_>> = stream
        .iter()
        .map(|q| QueryRequest::parsed(&q.query).with_options(options.clone()))
        .collect();
    let mut session = engine.create_session(options);
    let (mut completed, mut timed_out) = (0, 0);
    for (generated, request) in stream.iter().zip(&requests) {
        let batched = engine
            .run_in(request, &mut session)
            .unwrap_or_else(|e| panic!("batch failed on {}: {e}", generated.text));
        match batched.status {
            QueryStatus::Completed => completed += 1,
            QueryStatus::TimedOut => timed_out += 1,
            _ => {}
        }
        let solo = engine
            .run(request)
            .unwrap_or_else(|e| panic!("sequential failed on {}: {e}", generated.text));
        assert_eq!(
            normalized(&batched),
            normalized(&solo),
            "{context}: batch vs sequential diverged on\n{}",
            generated.text
        );
    }
    // Aggregate bookkeeping must stay coherent too.
    assert_eq!(completed + timed_out, stream.len(), "{context}");
    assert_eq!(session.queries_executed(), stream.len() as u64, "{context}");
    let rate = session.seed_stats().hit_rate();
    assert!((0.0..=1.0).contains(&rate), "{context}: hit rate {rate}");
    (session, completed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_outcomes_equal_sequential_execution(
        graph_seed in 0u64..500,
        workload_seed in 0u64..500,
        shuffle_seed in any::<u64>(),
        dup in 1usize..4,
        star_size in 3usize..6,
        complex_size in 4usize..7,
    ) {
        let rdf = Arc::new(dense_graph(graph_seed));
        let engine = AmberEngine::from_graph(Arc::clone(&rdf));

        let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
        let mut base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, star_size), 2);
        let mut complex_config = WorkloadConfig::new(QueryShape::Complex, complex_size);
        complex_config.constant_iri_probability = 0.4; // exercise IRI constraints
        base.extend(generator.generate_many(&complex_config, 2));
        prop_assume!(!base.is_empty());

        let stream = build_stream(&base, dup, shuffle_seed);
        // Cache disabled, evicting-tiny, and comfortably large: results must
        // be identical in all three regimes. Materialization is capped (the
        // enumeration order is deterministic, so capped bindings still
        // compare exactly); counting is never capped.
        for capacity in [0usize, 2, 4096] {
            let options = ExecOptions::default()
                .with_max_results(200)
                .with_plan_cache(capacity)
                .with_result_cache(capacity);
            assert_batch_equals_sequential(
                &engine,
                &stream,
                &options,
                &format!("cache capacity {capacity}, dup {dup}"),
            );
        }
    }
}

/// Besides the answers, the cache counters of a repeat stream are exact:
/// each distinct query derives one plan and computes one result, and every
/// repeat hits both caches (the plan is looked up first; its key finds the
/// result). With the caches off, every seed probe of a repeat hits the
/// session's seed cache, and an armed but never-reached governor (4 GiB
/// and a live cancel token, polled at every checkpoint) degrades nothing.
#[test]
fn batch_equivalence_holds_on_complex_streams() {
    const REPEATS: usize = 3;
    let rdf = Arc::new(dense_graph(7));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, 77);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Complex, 5), 3);
    let distinct = base
        .iter()
        .map(|q| q.text.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(distinct > 1, "the stream needs distinct queries");
    let stream = build_stream(&base, REPEATS, 0xF00D);
    let repeats = stream.len() - distinct;
    let with_caches = |capacity: usize| {
        ExecOptions::default()
            .with_max_results(200)
            .with_plan_cache(capacity)
            .with_result_cache(capacity)
    };

    let (cached, _) = assert_batch_equals_sequential(&engine, &stream, &with_caches(256), "cached");
    let cached = cached.plan_stats();
    let (plans, results) = (&cached.plans, &cached.results);
    assert_eq!(
        (plans.misses as usize, plans.hits as usize),
        (distinct, repeats)
    );
    assert_eq!(
        (results.misses as usize, results.hits as usize),
        (distinct, repeats)
    );

    let once = assert_batch_equals_sequential(&engine, &base, &with_caches(0), "one pass")
        .0
        .seed_stats();
    let uncached = assert_batch_equals_sequential(&engine, &stream, &with_caches(0), "uncached")
        .0
        .seed_stats();
    let probes = once.hits + once.misses;
    assert!(probes > 0, "the complex queries probe seeds");
    assert_eq!(uncached.misses, once.misses);
    assert_eq!(
        uncached.hits,
        REPEATS as u64 * probes - once.misses,
        "every probe after a query's first run hits"
    );

    let governed = with_caches(256)
        .with_memory_budget(4 << 30)
        .with_cancel(CancelToken::new());
    let (governed, completed) =
        assert_batch_equals_sequential(&engine, &stream, &governed, "governed");
    assert_eq!(completed, stream.len());
    assert_eq!(governed.search_stats().degradation_steps, 0);
}

#[test]
fn batch_count_only_and_max_results_modes_match_sequential() {
    let rdf = Arc::new(dense_graph(11));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, 1111);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, 4), 3);
    assert!(!base.is_empty());
    let stream = build_stream(&base, 2, 42);
    for options in [
        ExecOptions::batch().counting(),
        ExecOptions::batch().with_max_results(1),
    ] {
        assert_batch_equals_sequential(&engine, &stream, &options, "mode sweep");
    }
}
