//! Differential property test for the prepared-plan subsystem.
//!
//! A [`PreparedPlan`](amber::PreparedPlan) freezes the query multigraph,
//! decomposition, processing order, and seed candidates; the plan cache
//! additionally *shares* one plan across alpha-equivalent repeats, and the
//! result cache serves whole completed outcomes verbatim. Nothing about
//! any of that may be observable in the results: over randomized streams
//! that mix duplicates, **variable-renamed** variants (which hit the same
//! cached plan), and **triple-reordered** variants (which key separately),
//! every outcome must be identical to a fresh cache-free
//! `run`, with the plan/result caches disabled, capacity-1
//! (evicting constantly), and comfortably large.

use amber::{AmberEngine, ExecOptions, QueryOutcome, QueryRequest};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{GeneratedQuery, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use amber_sparql::{Projection, SelectQuery, TermPattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

fn dense_graph(seed: u64) -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://plan/e/".into(),
        predicate_namespace: "http://plan/p/".into(),
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

/// Rename every variable `x` → `r<salt>_x` (alpha-equivalent: must share
/// the original's cached plan while keeping its own headers).
fn rename_vars(query: &SelectQuery, salt: u64) -> SelectQuery {
    let rename = |name: &str| -> Box<str> { format!("r{salt}_{name}").into() };
    let term = |t: &TermPattern| match t {
        TermPattern::Variable(v) => TermPattern::Variable(rename(v)),
        constant => constant.clone(),
    };
    SelectQuery {
        projection: match &query.projection {
            Projection::Star => Projection::Star,
            Projection::Variables(vars) => {
                Projection::Variables(vars.iter().map(|v| rename(v)).collect())
            }
        },
        distinct: query.distinct,
        patterns: query
            .patterns
            .iter()
            .map(|p| amber_sparql::TriplePattern {
                subject: term(&p.subject),
                predicate: term(&p.predicate),
                object: term(&p.object),
            })
            .collect(),
    }
}

/// Shuffle the triple patterns (semantically equal; keys separately in the
/// plan cache — must still answer correctly, just colder).
fn reorder_patterns(query: &SelectQuery, seed: u64) -> SelectQuery {
    let mut reordered = query.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    reordered.patterns.shuffle(&mut rng);
    reordered
}

/// Observable fingerprint: count, timeout flag, headers, order-normalized
/// rows.
type Observed = (u128, bool, Vec<Box<str>>, Vec<Vec<Box<str>>>);

fn normalized(outcome: &QueryOutcome) -> Observed {
    let mut rows = outcome.bindings.to_vec();
    rows.sort();
    (
        outcome.embedding_count,
        outcome.timed_out(),
        outcome.variables.clone(),
        rows,
    )
}

/// Every query of `stream`, executed through one warm session with the
/// given plan/result cache capacities, must match a fresh cache-free
/// execution.
fn assert_prepared_equals_unprepared(
    engine: &AmberEngine,
    stream: &[SelectQuery],
    plan_capacity: usize,
    result_capacity: usize,
    context: &str,
) {
    let cached = ExecOptions::default()
        .with_max_results(200)
        .with_plan_cache(plan_capacity)
        .with_result_cache(result_capacity);
    let bare = ExecOptions::default().with_max_results(200);
    let mut session = engine.create_session(&cached);
    for query in stream {
        let via_cache = engine
            .run_in(
                &QueryRequest::parsed(query).with_options(cached.clone()),
                &mut session,
            )
            .unwrap_or_else(|e| panic!("{context}: cached execution failed: {e}"));
        let fresh = engine
            .run(&QueryRequest::parsed(query).with_options(bare.clone()))
            .expect("fresh execution succeeds");
        assert_eq!(
            normalized(&via_cache),
            normalized(&fresh),
            "{context}: prepared/cached diverged from unprepared"
        );
    }
}

/// A stream interleaving originals, renamed variants, reordered variants,
/// and duplicates.
fn build_stream(base: &[GeneratedQuery], shuffle_seed: u64) -> Vec<SelectQuery> {
    let mut stream = Vec::new();
    for (i, generated) in base.iter().enumerate() {
        let q = &generated.query;
        stream.push(q.clone());
        stream.push(rename_vars(q, i as u64));
        stream.push(reorder_patterns(q, shuffle_seed ^ i as u64));
        stream.push(q.clone()); // verbatim repeat → result-cache hit
        stream.push(rename_vars(q, i as u64)); // repeat of the renamed form
    }
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    stream.shuffle(&mut rng);
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prepared_outcomes_equal_unprepared_execution(
        graph_seed in 0u64..500,
        workload_seed in 0u64..500,
        shuffle_seed in any::<u64>(),
        star_size in 3usize..6,
        complex_size in 4usize..7,
    ) {
        let rdf = Arc::new(dense_graph(graph_seed));
        let engine = AmberEngine::from_graph(Arc::clone(&rdf));

        let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
        let mut base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, star_size), 2);
        let mut complex_config = WorkloadConfig::new(QueryShape::Complex, complex_size);
        complex_config.constant_iri_probability = 0.4;
        base.extend(generator.generate_many(&complex_config, 2));
        prop_assume!(!base.is_empty());

        let stream = build_stream(&base, shuffle_seed);
        // Disabled, constantly-evicting, and comfortably large caches must
        // all be observationally identical — including the asymmetric
        // combinations (plan cache without result cache and vice versa).
        for (plan_capacity, result_capacity) in [(0, 0), (1, 1), (256, 0), (0, 256), (256, 256)] {
            assert_prepared_equals_unprepared(
                &engine,
                &stream,
                plan_capacity,
                result_capacity,
                &format!("plan {plan_capacity} / result {result_capacity}"),
            );
        }
    }
}

#[test]
fn plan_equivalence_holds_on_a_fixed_complex_stream() {
    let rdf = Arc::new(dense_graph(13));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, 1313);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Complex, 5), 3);
    assert!(!base.is_empty());
    let stream = build_stream(&base, 0xBEEF);
    for (plan_capacity, result_capacity) in [(1, 1), (256, 256)] {
        assert_prepared_equals_unprepared(
            &engine,
            &stream,
            plan_capacity,
            result_capacity,
            &format!("fixed stream, plan {plan_capacity} / result {result_capacity}"),
        );
    }
}

#[test]
fn renamed_queries_share_plans_but_keep_their_headers() {
    let rdf = Arc::new(dense_graph(29));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, 2929);
    let base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, 4), 2);
    assert!(!base.is_empty());
    let original = base[0].query.clone();
    let renamed = rename_vars(&original, 7);
    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    let mut run = |query: &SelectQuery| {
        let request = QueryRequest::parsed(query).with_options(options.clone());
        engine.run_in(&request, &mut session).unwrap()
    };
    let (a, b) = (run(&original), run(&renamed));
    let plans = session.plan_stats().plans;
    assert_eq!(plans.misses, 1, "one plan derivation");
    assert_eq!(plans.hits, 1, "the renamed twin reuses it");
    assert_eq!(a.embedding_count, b.embedding_count);
    let (mut rows_a, mut rows_b) = (a.bindings.to_vec(), b.bindings.to_vec());
    rows_a.sort();
    rows_b.sort();
    assert_eq!(rows_a, rows_b, "same answers under either spelling");
    assert_ne!(a.variables, b.variables, "each keeps its own headers");
    for (ours, theirs) in a.variables.iter().zip(&b.variables) {
        assert_eq!(&rename_vars_name(ours, 7), theirs.as_ref());
    }
}

/// The header-side twin of `rename_vars`.
fn rename_vars_name(name: &str, salt: u64) -> String {
    format!("r{salt}_{name}")
}
