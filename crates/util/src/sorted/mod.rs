//! Set algebra over sorted, deduplicated slices.
//!
//! The neighbourhood index `N` (OTIL) and the attribute index `A` both store
//! candidate vertex lists as sorted `u32`-shaped slices; query evaluation is
//! then a cascade of intersections (paper §4.1, §4.3, Algorithm 4 line 7).
//! These kernels are the hot path of the whole engine, so they are
//! specialized three ways:
//!
//! * [`kernels`] — runtime-dispatched SSE2/AVX2 block kernels over `u32`
//!   with an adaptive merge/gallop/SIMD strategy per call;
//! * [`scalar`] — the portable generic reference the kernels are pinned to
//!   (differential tests) and fall back on (non-x86-64 hosts);
//! * this module — the typed public API. The id newtypes used across the
//!   workspace (`VertexId`, `EdgeTypeId`, …) implement [`U32Rep`], so their
//!   slices are reinterpreted as `&[u32]` and run on the fast layer with no
//!   per-call conversion.

pub mod kernels;
pub mod scalar;

pub use kernels::KernelLevel;

/// Marker for element types with the exact memory layout **and ordering**
/// of `u32`, so slices of them can be reinterpreted as `&[u32]` and fed to
/// the SIMD kernels.
///
/// # Safety
///
/// Implementors must be `#[repr(transparent)]` wrappers around a single
/// `u32` field (or `u32` itself) whose `Ord` agrees with the wrapped
/// integer's unsigned order. Anything else makes the slice casts below
/// unsound or the kernel results wrong.
// SAFETY: the contract above is the whole invariant: size 4, alignment 4
// and `u32` order. The casts below rely on it, and each checks the layout
// half with a `debug_assert!`.
pub unsafe trait U32Rep: Ord + Copy {}

// SAFETY: `u32` trivially has its own layout and order.
unsafe impl U32Rep for u32 {}

#[inline]
fn as_u32s<T: U32Rep>(s: &[T]) -> &[u32] {
    debug_assert!(same_layout_as_u32::<T>());
    // SAFETY: `U32Rep` guarantees identical layout, size and alignment.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u32>(), s.len()) }
}

/// The layout half of the [`U32Rep`] contract.
fn same_layout_as_u32<T>() -> bool {
    std::mem::size_of::<T>() == std::mem::size_of::<u32>()
        && std::mem::align_of::<T>() == std::mem::align_of::<u32>()
}

/// Run `f` on `v`'s allocation viewed as a `Vec<u32>`, then hand the
/// (possibly reallocated) buffer back. The *struct* `Vec<T>` is never
/// reinterpreted — only the element buffer is, which `U32Rep` makes
/// sound (identical element size/alignment keeps the allocation
/// compatible with both types). Panic-safe: if `f` unwinds, the buffer
/// is freed exactly once as `Vec<u32>` and `v` is left empty.
#[inline]
fn with_vec_u32<T: U32Rep, R>(v: &mut Vec<T>, f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
    debug_assert!(same_layout_as_u32::<T>());
    let taken = std::mem::take(v);
    let mut ptr = std::mem::ManuallyDrop::new(taken);
    // SAFETY: ptr/len/capacity come from a live Vec<T> whose elements are
    // layout-identical to u32 (`U32Rep`); the source Vec is ManuallyDrop,
    // so exactly one owner of the allocation exists at any time.
    let mut u =
        unsafe { Vec::from_raw_parts(ptr.as_mut_ptr().cast::<u32>(), ptr.len(), ptr.capacity()) };
    let result = f(&mut u);
    let mut u = std::mem::ManuallyDrop::new(u);
    // SAFETY: symmetric to the cast above; `u` is the sole owner.
    *v = unsafe { Vec::from_raw_parts(u.as_mut_ptr().cast::<T>(), u.len(), u.capacity()) };
    result
}

/// Intersect two sorted deduplicated slices into a fresh vector.
///
/// Dispatches through the kernel suite: galloping for skewed sizes, SIMD
/// blocks for long balanced inputs, scalar merge for short ones.
pub fn intersect<T: U32Rep>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    intersect_slices_into(a, b, &mut out);
    out
}

/// Intersect two sorted slices into a caller-provided buffer (cleared
/// first) — the kernel of the matcher's probe-intersection cascades, which
/// keep all intermediates in reusable `SearchState` buffers.
pub fn intersect_slices_into<T: U32Rep>(a: &[T], b: &[T], out: &mut Vec<T>) {
    with_vec_u32(out, |out| {
        kernels::intersect_into_at(kernels::level(), as_u32s(a), as_u32s(b), out)
    });
}

/// Intersect `acc` with sorted `other` in place: survivors are compacted
/// into `acc`'s prefix with no allocation and no copy of the tail — this
/// is what `Constraint::filter` and the multi-probe folds run at every
/// recursion step. Gallops from whichever side is much smaller.
pub fn intersect_in_place<T: U32Rep>(acc: &mut Vec<T>, other: &[T]) {
    with_vec_u32(acc, |acc| {
        kernels::intersect_in_place_at(kernels::level(), acc, as_u32s(other))
    });
}

/// Do two sorted slices share at least one element? Early-exits on the
/// first hit; gallops with an exponential window when the sizes are
/// skewed. The allocation-free core of `NeighborhoodIndex::has_neighbor`.
pub fn intersects<T: U32Rep>(a: &[T], b: &[T]) -> bool {
    kernels::intersects_at(kernels::level(), as_u32s(a), as_u32s(b))
}

/// Intersect many sorted slices, smallest-first to keep intermediates
/// tiny. Returns `None` when `lists` is empty (intersection of nothing is
/// "everything", which callers must handle explicitly).
pub fn intersect_many<T: U32Rep>(lists: &[&[T]]) -> Option<Vec<T>> {
    let mut order = Vec::new();
    let mut acc = Vec::new();
    let mut scratch = Vec::new();
    intersect_many_into(lists, &mut order, &mut acc, &mut scratch).then_some(acc)
}

/// The reusable-buffer form of [`intersect_many`]: computes the
/// intersection of all `lists` into `acc` using `order` (the
/// smallest-first index permutation) and `scratch` (the fold's ping-pong
/// target) as scratch space, so steady-state callers allocate nothing.
/// Returns `false` (and clears `acc`) when `lists` is empty.
pub fn intersect_many_into<T: U32Rep>(
    lists: &[&[T]],
    order: &mut Vec<u32>,
    acc: &mut Vec<T>,
    scratch: &mut Vec<T>,
) -> bool {
    intersect_many_with(lists.len(), |i| lists[i], order, acc, scratch)
}

/// The accessor form of [`intersect_many_into`]: intersects the `count`
/// lists yielded by `list(0..count)` without materializing a list-of-lists
/// (the attribute index resolves ids to inverted lists on the fly).
/// Same contract otherwise: smallest-first fold through `order`/`scratch`,
/// `false` (with `acc` cleared) when `count` is 0.
pub fn intersect_many_with<'a, T: U32Rep + 'a>(
    count: usize,
    list: impl Fn(usize) -> &'a [T],
    order: &mut Vec<u32>,
    acc: &mut Vec<T>,
    scratch: &mut Vec<T>,
) -> bool {
    acc.clear();
    match count {
        0 => return false,
        1 => {
            acc.extend_from_slice(list(0));
            return true;
        }
        _ => {}
    }
    order.clear();
    order.extend(0..count as u32);
    order.sort_unstable_by_key(|&i| list(i as usize).len());
    // Intersect the two smallest directly (no copy of the first list),
    // then fold the rest through the out-of-place kernel, ping-ponging
    // between `acc` and `scratch`.
    intersect_slices_into(list(order[0] as usize), list(order[1] as usize), acc);
    for &i in &order[2..] {
        if acc.is_empty() {
            break;
        }
        intersect_slices_into(acc, list(i as usize), scratch);
        std::mem::swap(acc, scratch);
    }
    true
}

/// Union of two sorted deduplicated slices.
pub fn union<T: U32Rep>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    with_vec_u32(&mut out, |out| {
        kernels::union_at(kernels::level(), as_u32s(a), as_u32s(b), out)
    });
    out
}

/// Is sorted deduplicated `needle` a subset of sorted deduplicated
/// `haystack`?
pub fn is_subset<T: U32Rep>(needle: &[T], haystack: &[T]) -> bool {
    kernels::is_subset_at(kernels::level(), as_u32s(needle), as_u32s(haystack))
}

/// Binary-search membership test.
pub fn contains<T: Ord>(sorted: &[T], x: &T) -> bool {
    sorted.binary_search(x).is_ok()
}

/// Sort and deduplicate in place; the canonical form used across indexes.
pub fn normalize<T: Ord>(v: &mut Vec<T>) {
    v.sort_unstable();
    v.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1u32, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect::<u32>(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect(&[1u32, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn intersect_disjoint() {
        assert_eq!(intersect(&[1u32, 2, 3], &[4, 5, 6]), Vec::<u32>::new());
    }

    #[test]
    fn in_place_matches_allocating_intersect() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 3, 5, 7], &[2, 3, 4, 7, 9]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[5, 500, 5000, 50_000], &[5, 499, 5000]),
        ];
        for &(a, b) in cases {
            let mut acc = a.to_vec();
            intersect_in_place(&mut acc, b);
            assert_eq!(acc, intersect(a, b), "a={a:?} b={b:?}");
            let mut acc = b.to_vec();
            intersect_in_place(&mut acc, a);
            assert_eq!(acc, intersect(a, b), "flipped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn in_place_gallops_over_skewed_lists() {
        let mut small = vec![5u32, 500, 5000, 50_000, 1_000_000];
        let large: Vec<u32> = (0..100_000).collect();
        intersect_in_place(&mut small, &large);
        assert_eq!(small, vec![5, 500, 5000, 50_000]);
        // And the mirrored skew: a huge accumulator against a tiny filter.
        let mut huge: Vec<u32> = (0..100_000).collect();
        let tiny = vec![5u32, 500, 5000, 50_000, 1_000_000];
        intersect_in_place(&mut huge, &tiny);
        assert_eq!(huge, vec![5, 500, 5000, 50_000]);
    }

    #[test]
    fn slices_into_matches_intersect() {
        let mut out = vec![99u32]; // must be cleared
        intersect_slices_into(&[1u32, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn intersects_detects_common_elements() {
        assert!(intersects(&[1u32, 3, 5], &[5, 6]));
        assert!(!intersects(&[1u32, 3, 5], &[2, 4, 6]));
        assert!(!intersects::<u32>(&[], &[1]));
        assert!(!intersects::<u32>(&[1], &[]));
        // Skewed sizes take the galloping path.
        let small = [7u32, 1_000_000];
        let large: Vec<u32> = (0..100_000).map(|x| x * 2).collect();
        assert!(!intersects(&small, &large));
        let small = [8u32];
        assert!(intersects(&small, &large));
    }

    #[test]
    fn gallop_matches_merge_on_skewed_input() {
        let small = vec![5u32, 500, 5000, 50_000];
        let large: Vec<u32> = (0..100_000).collect();
        assert_eq!(intersect(&small, &large), small);
        // and from the other side
        assert_eq!(intersect(&large, &small), small);
    }

    #[test]
    fn gallop_handles_missing_elements() {
        let small = vec![1u32, 7, 1_000_001];
        let large: Vec<u32> = (0..100u32).map(|x| x * 2).collect(); // evens
        assert_eq!(intersect(&small, &large), Vec::<u32>::new());
    }

    #[test]
    fn simd_block_regime_is_exercised() {
        // Balanced lengths past SIMD_MIN_LEN with interleaved hits/misses:
        // this goes down the dispatched block path on SIMD hosts.
        let a: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..1000).map(|x| x * 5).collect();
        let expected: Vec<u32> = (0..3000u32).filter(|x| x % 15 == 0).collect();
        assert_eq!(intersect(&a, &b), expected);
        let mut acc = a.clone();
        intersect_in_place(&mut acc, &b);
        assert_eq!(acc, expected);
        assert!(intersects(&a, &b));
        assert!(is_subset(&expected, &a));
        assert!(!is_subset(&a, &b));
    }

    #[test]
    fn intersect_many_orders_by_size() {
        let a: Vec<u32> = (0..1000).collect();
        let b = vec![10u32, 20, 30];
        let c: Vec<u32> = (0..500).filter(|x| x % 10 == 0).collect();
        let got = intersect_many(&[&a, &b, &c]).unwrap();
        assert_eq!(got, vec![10, 20, 30]);
        assert_eq!(intersect_many::<u32>(&[]), None);
        assert_eq!(intersect_many(&[&b[..]]), Some(b.clone()));
    }

    #[test]
    fn intersect_many_into_reuses_buffers() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).map(|x| x * 2).collect();
        let c: Vec<u32> = (0..100).map(|x| x * 3).collect();
        let (mut order, mut acc, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        assert!(intersect_many_into(
            &[&a, &b, &c],
            &mut order,
            &mut acc,
            &mut scratch
        ));
        let expected: Vec<u32> = (0..100u32).filter(|x| x % 6 == 0).collect();
        assert_eq!(acc, expected);
        // Second call with dirty buffers must start clean.
        assert!(intersect_many_into(
            &[&b, &a],
            &mut order,
            &mut acc,
            &mut scratch
        ));
        let evens_below_100: Vec<u32> = (0..100u32).filter(|x| x % 2 == 0).collect();
        assert_eq!(acc, evens_below_100);
        assert!(!intersect_many_into::<u32>(
            &[],
            &mut order,
            &mut acc,
            &mut scratch
        ));
        assert!(acc.is_empty());
    }

    #[test]
    fn union_merges_and_dedups() {
        assert_eq!(union(&[1u32, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union::<u32>(&[], &[]), Vec::<u32>::new());
        assert_eq!(union(&[1u32], &[]), vec![1]);
        // Long enough for the block-assisted path.
        let evens: Vec<u32> = (0..200).map(|x| x * 2).collect();
        let odds: Vec<u32> = (0..200).map(|x| x * 2 + 1).collect();
        let all: Vec<u32> = (0..400).collect();
        assert_eq!(union(&evens, &odds), all);
        assert_eq!(union(&all, &evens), all);
    }

    #[test]
    fn subset_checks() {
        assert!(is_subset::<u32>(&[], &[1, 2]));
        assert!(is_subset(&[2u32, 4], &[1, 2, 3, 4]));
        assert!(!is_subset(&[2u32, 5], &[1, 2, 3, 4]));
        assert!(!is_subset(&[1u32, 2, 3], &[1, 2]));
        assert!(is_subset(&[1u32, 2], &[1, 2]));
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut v = vec![3, 1, 2, 3, 1];
        normalize(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn kernel_level_is_cached_and_available() {
        let level = kernels::level();
        assert!(kernels::available(level));
        assert_eq!(kernels::level(), level, "second lookup hits the cache");
    }
}
