//! Execution-option matrix across all engines: count-only, max_results,
//! DISTINCT, plan/result-cache capacity — every engine must expose
//! the same observable behaviour for every combination, and AMbER's batch
//! entry point must expose the same behaviour as its one-shot path.

use amber::{AmberEngine, ExecOptions};
use amber_baselines::all_engines;
use amber_multigraph::paper::{paper_graph, PREFIX_Y};
use amber_multigraph::RdfGraph;
use std::sync::Arc;

fn query() -> String {
    // 2 people born in London × 1 city = 2 embeddings; projection on the
    // city collapses to 1 distinct row.
    format!("SELECT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}")
}

fn distinct_query() -> String {
    format!("SELECT DISTINCT ?c WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}")
}

fn rdf() -> Arc<RdfGraph> {
    Arc::new(paper_graph())
}

#[test]
fn count_only_is_count_equal_and_binding_free() {
    for engine in all_engines(rdf()) {
        let full = engine
            .execute_sparql(&query(), &ExecOptions::default())
            .unwrap();
        let counted = engine
            .execute_sparql(&query(), &ExecOptions::default().counting())
            .unwrap();
        assert_eq!(
            full.embedding_count,
            counted.embedding_count,
            "{}",
            engine.name()
        );
        assert_eq!(full.embedding_count, 2, "{}", engine.name());
        assert!(counted.bindings.is_empty(), "{}", engine.name());
        assert_eq!(full.bindings.len(), 2, "{}", engine.name());
    }
}

#[test]
fn max_results_caps_bindings_uniformly() {
    for engine in all_engines(rdf()) {
        let capped = engine
            .execute_sparql(&query(), &ExecOptions::default().with_max_results(1))
            .unwrap();
        assert_eq!(
            capped.embedding_count,
            2,
            "{} count unaffected",
            engine.name()
        );
        assert_eq!(capped.bindings.len(), 1, "{} rows capped", engine.name());
    }
}

#[test]
fn distinct_collapses_rows_uniformly() {
    for engine in all_engines(rdf()) {
        let outcome = engine
            .execute_sparql(&distinct_query(), &ExecOptions::default())
            .unwrap();
        assert_eq!(
            outcome.embedding_count,
            2,
            "{} keeps bag-semantics count",
            engine.name()
        );
        assert_eq!(outcome.bindings.len(), 1, "{} dedups rows", engine.name());
    }
}

#[test]
fn variables_order_matches_projection() {
    let q = format!(
        "SELECT ?c ?p WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}" // reversed order
    );
    for engine in all_engines(rdf()) {
        let outcome = engine.execute_sparql(&q, &ExecOptions::default()).unwrap();
        assert_eq!(
            outcome.variables,
            vec![Box::from("c"), Box::from("p")],
            "{}",
            engine.name()
        );
        for row in &outcome.bindings {
            assert!(row[0].contains("London"), "{} column order", engine.name());
        }
    }
}

#[test]
fn batch_knob_matrix_matches_one_shot_execution() {
    // Sweep the plan/result cache knobs (including capacity 0 = disabled
    // and a capacity of 1 that forces eviction mid-batch) against every
    // option combination the one-shot path supports.
    let engine = AmberEngine::from_graph(rdf());
    let texts = [query(), distinct_query(), query()];
    let queries: Vec<_> = texts
        .iter()
        .map(|t| amber_sparql::parse_select(t).unwrap())
        .collect();
    let option_matrix = [
        ExecOptions::default(),
        ExecOptions::default().counting(),
        ExecOptions::default().with_max_results(1),
        ExecOptions::batch(),
    ];
    for base in option_matrix {
        for capacity in [0usize, 1, 4096] {
            let options = base
                .clone()
                .with_plan_cache(capacity)
                .with_result_cache(capacity);
            let batch = engine.execute_batch(&queries, &options);
            assert_eq!(batch.stats.queries, queries.len());
            assert_eq!(batch.stats.errors, 0);
            for (query, outcome) in queries.iter().zip(&batch.outcomes) {
                let batched = outcome.as_ref().unwrap();
                let solo = engine.execute_parsed(query, &options).unwrap();
                assert_eq!(
                    batched.embedding_count, solo.embedding_count,
                    "capacity {capacity}"
                );
                assert_eq!(batched.bindings.len(), solo.bindings.len());
                let mut a = batched.bindings.to_vec();
                let mut b = solo.bindings.to_vec();
                a.sort();
                b.sort();
                assert_eq!(a, b, "capacity {capacity}");
            }
            // Counter coherence: with the caches disabled nothing may be
            // memoized; with them enabled the hit rate stays a probability.
            for stats in [&batch.stats.plans.plans, &batch.stats.plans.results] {
                if capacity == 0 {
                    assert_eq!(stats.hits + stats.misses, 0);
                    assert_eq!(stats.entries, 0);
                }
                assert!((0.0..=1.0).contains(&stats.hit_rate()));
                assert!(stats.entries <= capacity);
            }
        }
    }
}

#[test]
fn select_star_projects_all_pattern_variables() {
    let q = format!("SELECT * WHERE {{ ?p <{PREFIX_Y}wasBornIn> ?c . }}");
    for engine in all_engines(rdf()) {
        let outcome = engine.execute_sparql(&q, &ExecOptions::default()).unwrap();
        assert_eq!(outcome.variables.len(), 2, "{}", engine.name());
    }
}
