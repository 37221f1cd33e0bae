//! A batch — many queries through `run_in` on one warm session — answers
//! every query exactly as a fresh one-shot `run`, in the bounded modes
//! (count-only and a one-row cap) at every result-cache capacity. Streams
//! and modes come from the shared session-equivalence harness in
//! `tests/common`.

mod common;

use amber_datagen::QueryShape;
use common::{assert_equal_in_every_mode, assert_equal_in_modes, bounded_modes, build_stream};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random streams of duplicates, renamed and reordered twins in a
    /// seeded permutation, in every bounded mode. (`plan_equivalence`
    /// runs the same streams in the materializing modes.)
    #[test]
    fn batch_outcomes_equal_sequential_execution(
        graph_seed in 0u64..500,
        workload_seed in 0u64..500,
        shuffle_seed in any::<u64>(),
        dup in 1usize..4,
        star_size in 3usize..6,
        complex_size in 4usize..7,
    ) {
        let (engine, base) = common::random_base(graph_seed, workload_seed, star_size, complex_size);
        prop_assume!(!base.is_empty());
        let stream = build_stream(&base, dup, true, shuffle_seed);
        assert_equal_in_modes(&engine, &stream, &bounded_modes(), &format!("dup {dup}"));
    }
}

/// A fixed star stream with verbatim duplicates only, in every mode.
#[test]
fn batch_count_only_and_max_results_modes_match_sequential() {
    let (engine, base) = common::fixed_base(11, 1111, QueryShape::Star, 4, 3);
    let stream = build_stream(&base, 2, false, 42);
    assert_equal_in_every_mode(&engine, &stream, "star stream");
}
