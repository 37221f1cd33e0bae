//! Session reuse beyond the answers: the result cache's exact counters on
//! a repeat stream, and alpha-equivalent twins sharing one entry while
//! keeping their own headers. The answer-equivalence cells over random and
//! fixed streams are `tests/batch_equivalence.rs` and
//! `tests/plan_equivalence.rs`; all of them share `tests/common`.

mod common;

use amber::{ExecOptions, QueryRequest};
use amber_datagen::QueryShape;
use amber_sparql::SelectQuery;
use common::{assert_session_equals_one_shot, build_stream, fixed_base, rename_var, rename_vars};

/// Besides the answers, the cache counters of a repeat stream are exact:
/// each distinct query misses the result cache once (one plan, one
/// execution), and every repeat hits it before planning. With the result
/// cache off, every query of the stream runs and counts one bypass.
#[test]
fn a_repeat_stream_counts_its_cache_hits_exactly() {
    const REPEATS: usize = 3;
    let (engine, base) = fixed_base(7, 77, QueryShape::Complex, 5, 3);
    let distinct = base
        .iter()
        .map(|q| q.text.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(distinct > 1, "the stream needs distinct queries");
    let stream = build_stream(&base, REPEATS, false, 0xF00D);
    let repeats = stream.len() - distinct;
    let with_caches = |capacity: usize| {
        ExecOptions::default()
            .with_max_results(200)
            .with_result_cache(capacity)
    };

    let cached = assert_session_equals_one_shot(&engine, &stream, &with_caches(256), "cached");
    let results = cached.result_stats();
    assert_eq!(
        (results.misses as usize, results.hits as usize),
        (distinct, repeats)
    );

    let uncached = assert_session_equals_one_shot(&engine, &stream, &with_caches(0), "uncached")
        .result_stats();
    assert_eq!(
        (uncached.hits, uncached.misses, uncached.bypasses),
        (0, 0, stream.len() as u64),
        "every query of an uncached session runs and bypasses"
    );
}

#[test]
fn renamed_queries_share_plans_but_keep_their_headers() {
    let (engine, base) = fixed_base(29, 2929, QueryShape::Star, 4, 2);
    let original = base[0].query.clone();
    let renamed = rename_vars(&original, 7);
    let options = ExecOptions::batch();
    let mut session = engine.create_session(&options);
    let mut run = |query: &SelectQuery| {
        let request = QueryRequest::parsed(query).with_options(options.clone());
        engine.run_in(&request, &mut session).unwrap()
    };
    let (a, b) = (run(&original), run(&renamed));
    let results = session.result_stats();
    assert_eq!(results.misses, 1, "one plan and one execution");
    assert_eq!(results.hits, 1, "the renamed twin shares the entry");
    assert_eq!(results.entries, 1);
    assert_eq!(a.embedding_count, b.embedding_count);
    let (mut rows_a, mut rows_b) = (a.bindings.to_vec(), b.bindings.to_vec());
    rows_a.sort();
    rows_b.sort();
    assert_eq!(rows_a, rows_b, "same answers under either spelling");
    assert_ne!(a.variables, b.variables, "each keeps its own headers");
    for (ours, theirs) in a.variables.iter().zip(&b.variables) {
        assert_eq!(rename_var(ours, 7), theirs.as_ref());
    }
}
