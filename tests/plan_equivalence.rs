//! Plan and result reuse is unobservable: a warm session that answers
//! repeats and alpha-equivalent twins from its result cache materializes
//! exactly what a fresh one-shot `run` does, with the cache disabled,
//! evicting constantly, and large. Streams and modes come from the shared
//! session-equivalence harness in `tests/common`.

mod common;

use amber_datagen::QueryShape;
use common::{
    assert_equal_in_every_mode, assert_equal_in_modes, build_stream, materializing_modes,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random streams of duplicates, renamed and reordered twins in a
    /// seeded permutation, in every materializing mode. (`batch_equivalence`
    /// runs the same streams in the bounded modes.)
    #[test]
    fn prepared_outcomes_equal_unprepared_execution(
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
        assert_equal_in_modes(&engine, &stream, &materializing_modes(), &format!("dup {dup}"));
    }
}

/// A fixed complex stream with every twin kind, in every mode.
#[test]
fn plan_equivalence_holds_on_a_fixed_complex_stream() {
    let (engine, base) = common::fixed_base(13, 1313, QueryShape::Complex, 5, 3);
    let stream = build_stream(&base, 2, true, 0xBEEF);
    assert_equal_in_every_mode(&engine, &stream, "complex stream with twins");
}
