//! Differential property test for the batch-execution subsystem.
//!
//! `execute_batch` runs many queries over one shared [`QuerySession`] —
//! long-lived arenas plus cross-query seed, plan and result caches. Nothing
//! about that sharing may be observable in the results: over randomized
//! query streams (duplicates and permutations included, so cache reuse and
//! arena high-water reuse actually trigger) every per-query outcome must be
//! identical to a fresh sequential `execute_parsed` call, with the plan and
//! result caches disabled, tiny (evicting mid-batch), and large.

use amber::{AmberEngine, ExecOptions, QueryOutcome};
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

fn assert_batch_equals_sequential(
    engine: &AmberEngine,
    stream: &[GeneratedQuery],
    options: &ExecOptions,
    context: &str,
) {
    let queries: Vec<_> = stream.iter().map(|q| q.query.clone()).collect();
    let batch = engine.execute_batch(&queries, options);
    assert_eq!(batch.outcomes.len(), stream.len(), "{context}");
    assert_eq!(batch.stats.errors, 0, "{context}");
    for (generated, outcome) in stream.iter().zip(&batch.outcomes) {
        let batched = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("batch failed on {}: {e}", generated.text));
        let solo = engine
            .execute_parsed(&generated.query, options)
            .unwrap_or_else(|e| panic!("sequential failed on {}: {e}", generated.text));
        assert_eq!(
            normalized(batched),
            normalized(&solo),
            "{context}: batch vs sequential diverged on\n{}",
            generated.text
        );
    }
    // Aggregate bookkeeping must stay coherent too.
    assert_eq!(
        batch.stats.completed + batch.stats.timed_out,
        stream.len(),
        "{context}"
    );
    let rate = batch.stats.seeds.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "{context}: hit rate {rate}");
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

#[test]
fn batch_equivalence_holds_on_complex_streams() {
    let rdf = Arc::new(dense_graph(7));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, 77);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Complex, 5), 3);
    assert!(!base.is_empty());
    let stream = build_stream(&base, 3, 0xF00D);
    for capacity in [0usize, 256] {
        let options = ExecOptions::default()
            .with_max_results(200)
            .with_plan_cache(capacity)
            .with_result_cache(capacity);
        assert_batch_equals_sequential(
            &engine,
            &stream,
            &options,
            &format!("complex, cache capacity {capacity}"),
        );
    }
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
