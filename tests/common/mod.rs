//! The one session-equivalence harness: `run_in` on one warm
//! [`QuerySession`] must answer exactly as a fresh one-shot `run`.
//!
//! A session carries long-lived arenas plus a cross-query result cache,
//! which serves whole completed outcomes to repeats and
//! *shares* one entry across alpha-equivalent spellings. Nothing about any
//! of that may be observable in the results. Streams mix verbatim
//! duplicates, **variable-renamed** twins (which hit the original's cached
//! entry but keep their own headers), **triple-reordered** variants and a
//! seeded permutation, so cache reuse, eviction and arena high-water reuse
//! all trigger. The modes are result-cache capacities {0 (disabled),
//! 1 (evicting constantly), 256}, each with capped materialization,
//! count-only, and `max_results(1)`.
//!
//! `tests/batch_equivalence.rs`, `tests/plan_equivalence.rs`,
//! `tests/session_equivalence.rs` and
//! `options_matrix::batch_knob_matrix_matches_one_shot_execution` all run
//! through it; each test crate uses a subset, hence the `dead_code` allow.

#![allow(dead_code)]

use amber::{AmberEngine, ExecOptions, QueryOutcome, QueryRequest, QuerySession};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{GeneratedQuery, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use amber_sparql::{Projection, SelectQuery, TermPattern};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// A small but multi-edge-rich synthetic graph (parallel predicates between
/// entity pairs exercise the multi-type spill path).
pub fn dense_graph(seed: u64) -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://session/e/".into(),
        predicate_namespace: "http://session/p/".into(),
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
/// the original's cached entry while keeping its own headers).
pub fn rename_vars(query: &SelectQuery, salt: u64) -> SelectQuery {
    let term = |t: &TermPattern| match t {
        TermPattern::Variable(v) => TermPattern::Variable(rename_var(v, salt).into()),
        constant => constant.clone(),
    };
    SelectQuery {
        projection: match &query.projection {
            Projection::Star => Projection::Star,
            Projection::Variables(vars) => {
                Projection::Variables(vars.iter().map(|v| rename_var(v, salt).into()).collect())
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

/// The name [`rename_vars`] gives variable `name`.
pub fn rename_var(name: &str, salt: u64) -> String {
    format!("r{salt}_{name}")
}

/// Shuffle the triple patterns (semantically equal; keys separately in the
/// result cache — must still answer correctly, just colder).
pub fn reorder_patterns(query: &SelectQuery, seed: u64) -> SelectQuery {
    let mut reordered = query.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    reordered.patterns.shuffle(&mut rng);
    reordered
}

/// A seeded permutation of `base`, each query repeated `dup` times
/// verbatim; with `twins`, each also appears renamed (twice: the twin and
/// its own repeat) and triple-reordered.
pub fn build_stream(
    base: &[GeneratedQuery],
    dup: usize,
    twins: bool,
    shuffle_seed: u64,
) -> Vec<SelectQuery> {
    let mut stream = Vec::new();
    for (i, generated) in base.iter().enumerate() {
        let q = &generated.query;
        stream.extend(std::iter::repeat_n(q, dup).cloned());
        if twins {
            stream.push(rename_vars(q, i as u64));
            stream.push(rename_vars(q, i as u64));
            stream.push(reorder_patterns(q, shuffle_seed ^ i as u64));
        }
    }
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    stream.shuffle(&mut rng);
    stream
}

/// Capped materialization at each result-cache capacity (the enumeration
/// order is deterministic, so capped bindings still compare exactly;
/// counting is never capped).
pub fn materializing_modes() -> Vec<ExecOptions> {
    at_every_capacity(&[ExecOptions::default().with_max_results(200)])
}

/// Count-only and a one-row cap at each result-cache capacity.
pub fn bounded_modes() -> Vec<ExecOptions> {
    at_every_capacity(&[
        ExecOptions::default().counting(),
        ExecOptions::default().with_max_results(1),
    ])
}

/// Every mode a stream runs in: [`materializing_modes`] and
/// [`bounded_modes`].
pub fn modes() -> Vec<ExecOptions> {
    let mut modes = materializing_modes();
    modes.extend(bounded_modes());
    modes
}

fn at_every_capacity(bases: &[ExecOptions]) -> Vec<ExecOptions> {
    let mut modes = Vec::new();
    for capacity in [0, 1, 256] {
        for base in bases {
            modes.push(base.clone().with_result_cache(capacity));
        }
    }
    modes
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

/// Run `stream` through one fresh session made with `options` and check
/// every outcome against a one-shot `run` of the same request. Returns the
/// session, whose counters are the stream's.
pub fn assert_session_equals_one_shot(
    engine: &AmberEngine,
    stream: &[SelectQuery],
    options: &ExecOptions,
    context: &str,
) -> QuerySession {
    let mut session = engine.create_session(options);
    for query in stream {
        let request = QueryRequest::parsed(query).with_options(options.clone());
        let warm = engine
            .run_in(&request, &mut session)
            .unwrap_or_else(|e| panic!("{context}: session run failed on {query:?}: {e}"));
        let solo = engine
            .run(&request)
            .unwrap_or_else(|e| panic!("{context}: one-shot run failed on {query:?}: {e}"));
        assert_eq!(
            normalized(&warm),
            normalized(&solo),
            "{context}: session vs one-shot diverged on\n{query:?}"
        );
    }
    // Aggregate bookkeeping must stay coherent too.
    assert_eq!(session.queries_executed(), stream.len() as u64, "{context}");
    // With the result cache disabled nothing may be memoized; with it
    // enabled the hit rate stays a probability and the entries fit.
    let results = session.result_stats();
    let capacity = options.result_cache_capacity;
    if capacity == 0 {
        assert_eq!(results.hits + results.misses, 0, "{context}");
        assert_eq!(results.entries, 0, "{context}");
    }
    assert!((0.0..=1.0).contains(&results.hit_rate()), "{context}");
    assert!(results.entries <= capacity, "{context}: {results:?}");
    session
}

/// Run `stream` in each of `modes`.
pub fn assert_equal_in_modes(
    engine: &AmberEngine,
    stream: &[SelectQuery],
    modes: &[ExecOptions],
    context: &str,
) {
    for options in modes {
        let mode = format!(
            "{context}, result cache {}, count-only {}, max_results {:?}",
            options.result_cache_capacity, options.count_only, options.max_results
        );
        assert_session_equals_one_shot(engine, stream, options, &mode);
    }
}

/// Run `stream` in every mode of [`modes`].
pub fn assert_equal_in_every_mode(engine: &AmberEngine, stream: &[SelectQuery], context: &str) {
    assert_equal_in_modes(engine, stream, &modes(), context);
}

/// The random base of a property case: an engine over a seeded
/// [`dense_graph`] and two stars plus two complex queries from it (the
/// complex ones with IRI constants, to exercise IRI constraints).
pub fn random_base(
    graph_seed: u64,
    workload_seed: u64,
    star_size: usize,
    complex_size: usize,
) -> (AmberEngine, Vec<GeneratedQuery>) {
    let rdf = Arc::new(dense_graph(graph_seed));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
    let mut base = generator.generate_many(&WorkloadConfig::new(QueryShape::Star, star_size), 2);
    let mut complex_config = WorkloadConfig::new(QueryShape::Complex, complex_size);
    complex_config.constant_iri_probability = 0.4;
    base.extend(generator.generate_many(&complex_config, 2));
    (engine, base)
}

/// An engine over `dense_graph(graph_seed)` and `count` generated queries
/// of `shape` and `size`.
pub fn fixed_base(
    graph_seed: u64,
    workload_seed: u64,
    shape: QueryShape,
    size: usize,
    count: usize,
) -> (AmberEngine, Vec<GeneratedQuery>) {
    let rdf = Arc::new(dense_graph(graph_seed));
    let engine = AmberEngine::from_graph(Arc::clone(&rdf));
    let mut generator = WorkloadGenerator::new(&rdf, workload_seed);
    let base = generator.generate_many(&WorkloadConfig::new(shape, size), count);
    assert!(!base.is_empty());
    (engine, base)
}
