//! Portable scalar reference kernels.
//!
//! Generic over any `Ord + Copy` element, no target-feature requirements,
//! no `unsafe`. [`merge_intersect`] is the *semantic definition* of the
//! AVX2 intersection in [`super::kernels`]: the differential test suite
//! pins the dispatched kernel to it, and the dispatcher falls back on the
//! merge and gallop loops here on hosts without AVX2. The existence and
//! subset checks have no SIMD counterpart; [`super::intersects`] and
//! [`super::is_subset`] pick between their merge and gallop forms.
//!
//! All inputs are sorted and deduplicated; all outputs preserve that
//! invariant.

use std::cmp::Ordering;

/// Classic two-pointer merge intersection, appending to `out`.
pub fn merge_intersect<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// One galloping step: find `x` in `large[lo..]` by exponential probing
/// from `lo` followed by a binary search of the final window.
///
/// Returns `(found, next_lo)` where `next_lo` is the resume position for
/// the *next* (strictly larger) needle: past the match when found, at the
/// insertion point otherwise. `next_lo == large.len()` means the haystack
/// is exhausted.
#[inline]
pub fn gallop_step<T: Ord + Copy>(large: &[T], mut lo: usize, x: T) -> (bool, usize) {
    // Exponential probe from the resume point…
    let mut step = 1usize;
    let mut hi = lo;
    while hi < large.len() && large[hi] < x {
        lo = hi + 1;
        hi = lo + step;
        step *= 2;
    }
    // …then a binary search of the bounded window. `large[hi]` (when in
    // range) is the first probed element `>= x`, so the window includes it.
    let hi = (hi + 1).min(large.len());
    match large[lo..hi].binary_search(&x) {
        Ok(pos) => (true, lo + pos + 1),
        Err(pos) => (false, lo + pos),
    }
}

/// Galloping intersection for skewed sizes: walk `small`, gallop through
/// `large`. Appends to `out`. O(|small| · log |large|) worst case, much
/// better when the matches cluster.
pub fn gallop_intersect<T: Ord + Copy>(small: &[T], large: &[T], out: &mut Vec<T>) {
    let mut lo = 0usize;
    for &x in small {
        let (found, next) = gallop_step(large, lo, x);
        if found {
            out.push(x);
        }
        lo = next;
        if lo >= large.len() {
            break;
        }
    }
}

/// In-place intersection: compact the survivors of `acc ∩ other` into the
/// prefix of `acc` and return the new length. Walks `acc` with a galloping
/// membership pointer into `other`.
pub fn intersect_in_place<T: Ord + Copy>(acc: &mut [T], other: &[T]) -> usize {
    let mut write = 0usize;
    let mut lo = 0usize;
    for read in 0..acc.len() {
        let x = acc[read];
        let (found, next) = gallop_step(other, lo, x);
        if found {
            acc[write] = x;
            write += 1;
        }
        lo = next;
        if lo >= other.len() {
            break;
        }
    }
    write
}

/// Do two sorted slices share an element? Merge walk with early exit.
pub fn merge_intersects<T: Ord + Copy>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

/// Existence check for skewed sizes: gallop `small` through `large` with
/// the same exponential window as [`gallop_intersect`] (a previous version
/// binary-searched the whole remaining tail per element, paying the full
/// O(n log m) even when the needles cluster at the front).
pub fn gallop_intersects<T: Ord + Copy>(small: &[T], large: &[T]) -> bool {
    let mut lo = 0usize;
    for &x in small {
        let (found, next) = gallop_step(large, lo, x);
        if found {
            return true;
        }
        lo = next;
        if lo >= large.len() {
            return false;
        }
    }
    false
}

/// Is sorted deduplicated `needle` a subset of sorted deduplicated
/// `haystack`? Linear merge walk.
pub fn is_subset<T: Ord + Copy>(needle: &[T], haystack: &[T]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut j = 0;
    for &x in needle {
        while j < haystack.len() && haystack[j] < x {
            j += 1;
        }
        if j >= haystack.len() || haystack[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Subset check for skewed sizes: gallop each needle through the haystack.
pub fn gallop_is_subset<T: Ord + Copy>(needle: &[T], haystack: &[T]) -> bool {
    let mut lo = 0usize;
    for (k, &x) in needle.iter().enumerate() {
        let (found, next) = gallop_step(haystack, lo, x);
        if !found {
            return false;
        }
        lo = next;
        if lo >= haystack.len() {
            // Haystack exhausted: only a fully-consumed needle survives.
            return k + 1 == needle.len();
        }
    }
    true
}
