//! Differential suite pinning the set-algebra kernels to the scalar
//! reference implementation.
//!
//! Every level the host can run (`scalar`, `avx2`) is exercised on the
//! *same* adversarial inputs: lengths straddling the SIMD block size (8
//! lanes) and the 16× gallop cutoff, empty/singleton extremes, dense
//! all-hit runs and disjoint all-miss runs. The scalar-only predicates
//! (`intersects`, `is_subset`) run on the same inputs once. A divergence
//! anywhere fails with the offending level and inputs.

use amber_util::sorted::kernels::{self, KernelLevel};
use amber_util::sorted::{self, scalar};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Every kernel level this host can execute (always includes Scalar).
fn runnable_levels() -> Vec<KernelLevel> {
    [KernelLevel::Scalar, KernelLevel::Avx2]
        .into_iter()
        .filter(|&level| kernels::available(level))
        .collect()
}

fn norm(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Check both intersection kernels of one level against the scalar oracle.
fn check_level(level: KernelLevel, a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
    // Oracle: the pure generic reference, no strategy layer involved.
    let mut expect_intersect = Vec::new();
    scalar::merge_intersect(a, b, &mut expect_intersect);

    let mut got = vec![0xDEAD_BEEFu32]; // dirty buffer: must be cleared
    kernels::intersect_into_at(level, a, b, &mut got);
    prop_assert_eq!(
        &got,
        &expect_intersect,
        "intersect_into diverged at {:?}: a={:?} b={:?}",
        level,
        a,
        b
    );

    let mut acc = a.to_vec();
    kernels::intersect_in_place_at(level, &mut acc, b);
    prop_assert_eq!(
        &acc,
        &expect_intersect,
        "intersect_in_place diverged at {:?}: a={:?} b={:?}",
        level,
        a,
        b
    );
    Ok(())
}

/// Check the scalar predicates' strategy layer (merge or gallop) against
/// the plain merge oracles.
fn check_predicates(a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
    let mut expect_intersect = Vec::new();
    scalar::merge_intersect(a, b, &mut expect_intersect);
    prop_assert_eq!(
        sorted::intersects(a, b),
        !expect_intersect.is_empty(),
        "intersects diverged: a={:?} b={:?}",
        a,
        b
    );
    prop_assert_eq!(
        sorted::is_subset(a, b),
        scalar::is_subset(a, b),
        "is_subset diverged: needle={:?} hay={:?}",
        a,
        b
    );
    Ok(())
}

/// Every check on `(a, b)` and on `(b, a)`: argument order must not matter
/// for the symmetric kernels, and `is_subset` takes both directions.
fn check_all(a: &[u32], b: &[u32]) -> Result<(), TestCaseError> {
    for level in runnable_levels() {
        check_level(level, a, b)?;
        check_level(level, b, a)?;
    }
    check_predicates(a, b)?;
    check_predicates(b, a)
}

/// Sorted-deduplicated input classes: the length buckets straddle the
/// 8-lane block size and the 16-element SIMD threshold; the value
/// ranges set up dense (all-hit-ish) and sparse (all-miss-ish) regimes.
fn list_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(0u32..40, 0..4), // empty / singleton / tiny
        prop::collection::vec(0u32..60, 2..11), // straddles one 8-lane block
        prop::collection::vec(0u32..200, 12..20), // straddles SIMD_MIN_LEN (16)
        prop::collection::vec(0u32..400, 56..72), // multi-block, dense hits
        prop::collection::vec(0u32..1_000_000, 56..72), // multi-block, sparse
        prop::collection::vec(0u32..4000, 220..300), // long, interleaved runs
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn all_levels_match_scalar_reference(
        raw_a in list_strategy(),
        raw_b in list_strategy(),
    ) {
        check_all(&norm(raw_a), &norm(raw_b))?;
    }

    #[test]
    fn skew_straddling_the_gallop_cutoff(
        small in prop::collection::vec(0u32..100_000, 1..9),
        large in prop::collection::vec(0u32..100_000, 100..180),
        extra in 0u32..100_000,
    ) {
        // |large| / |small| lands on both sides of GALLOP_RATIO (16):
        // e.g. 8 vs 100 gallops, 8 vs 127 gallops, 8 vs 120/121 straddles.
        let mut small = norm(small);
        let large = norm(large);
        // Plant one guaranteed hit and one guaranteed miss.
        if let Some(&hit) = large.first() {
            small.push(hit);
        }
        small.push(extra);
        check_all(&norm(small), &large)?;
    }

    #[test]
    fn true_subsets_and_near_subsets(
        hay in prop::collection::vec(0u32..10_000, 1..120),
        keep_mask in any::<u64>(),
        intruder in 0u32..10_000,
    ) {
        let hay = norm(hay);
        // A genuine subset: every element whose index bit survives the mask.
        let needle: Vec<u32> = hay
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask & (1 << (i % 64)) != 0)
            .map(|(_, &x)| x)
            .collect();
        prop_assert!(
            sorted::is_subset(&needle, &hay),
            "true subset rejected: needle={:?} hay={:?}",
            &needle, &hay
        );
        // Poison the needle with one element missing from the haystack;
        // the subset check must then fail.
        if !hay.contains(&intruder) {
            let poisoned = norm([needle.clone(), vec![intruder]].concat());
            prop_assert!(
                !sorted::is_subset(&poisoned, &hay),
                "poisoned subset accepted: needle={:?} hay={:?}",
                &poisoned, &hay
            );
        }
    }
}

/// Handpicked extremes that random sampling can miss: exact block-size
/// lengths, identical inputs (all-hit), shifted copies (all-miss), and the
/// gallop boundary at 16× and skews far past it.
#[test]
fn crafted_adversarial_cases() {
    // The size pairs below sit on these cutoffs, so they also pin which
    // strategy (merge, SIMD block, gallop) each shape takes.
    assert_eq!(kernels::GALLOP_RATIO, 16);
    assert_eq!(kernels::SIMD_MIN_LEN, 16);
    let evens: Vec<u32> = (0..64).map(|x| x * 2).collect();
    let odds: Vec<u32> = (0..64).map(|x| x * 2 + 1).collect();
    let mut cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
        (vec![], vec![]),
        (vec![], vec![1]),
        (vec![5], vec![5]),
        (vec![5], vec![6]),
        (evens.clone(), evens.clone()), // identical: all-hit
        (evens.clone(), odds.clone()),  // interleaved: all-miss
        (evens, (64..128).collect()),   // disjoint ranges
    ];
    // Every length pair around the block sizes and the SIMD threshold…
    for a_len in [3usize, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
        for b_len in [4usize, 8, 16, 17, 64] {
            // …in dense and shifted (miss-heavy) variants.
            cases.push(((0..a_len as u32).collect(), (0..b_len as u32).collect()));
            cases.push((
                (0..a_len as u32).map(|x| x * 3).collect(),
                (0..b_len as u32).map(|x| x * 3 + 1).collect(),
            ));
        }
    }
    // The exact gallop boundary (16×) and skews far past it, over one small
    // list.
    for ratio in [15usize, 16, 17, 255, 256, 257] {
        let small: Vec<u32> = (0..8u32).map(|x| x * 1000).collect();
        let large: Vec<u32> = (0..(8 * ratio) as u32).map(|x| x * 31).collect();
        cases.push((small, large));
    }
    for (a, b) in &cases {
        check_all(a, b).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The dispatcher must resolve to something runnable.
#[test]
fn dispatched_level_is_runnable() {
    let level = kernels::level();
    assert!(kernels::available(level));
}
