//! Runtime-dispatched `u32` intersection kernels (AVX2 / scalar).
//!
//! The matcher's candidate evaluation bottoms out in sorted-`u32`
//! intersections (OTIL inverted lists, attribute lists, constraint
//! filters). This module holds the specialized fast layer:
//!
//! * a [`KernelLevel`] detected once at startup via
//!   `is_x86_feature_detected!` and cached in an atomic — an enum
//!   dispatcher rather than per-call feature detection;
//! * a branchless AVX2 block kernel for intersection over `u32` slices,
//!   out of place and in place, with the generic [`scalar`] code as the
//!   fallback (hosts without AVX2, lists shorter than [`SIMD_MIN_LEN`]);
//! * an **adaptive strategy layer**: both entry points pick merge vs.
//!   gallop vs. SIMD-block per call from the size ratio and absolute
//!   lengths (see [`GALLOP_RATIO`] and [`SIMD_MIN_LEN`]).
//!
//! All inputs are sorted and deduplicated `u32` slices; outputs preserve
//! that invariant. The `*_at` entry points take an explicit level so the
//! differential tests can pin both levels against the scalar reference on
//! one host; production callers go through [`super`]'s generic API, which
//! passes [`level()`].
//!
//! ## The block algorithm
//!
//! The SIMD intersection is the classic cyclic-comparison kernel over
//! registers of W=8 lanes: load one block from each side, compare every
//! lane of `a`'s block against all W rotations of `b`'s block (W `cmpeq` +
//! `or`s), compact the matched lanes of the `a`-block with a
//! movemask-indexed permutation table, then advance whichever block has the
//! smaller maximum (both on ties). Because the inputs are deduplicated,
//! each element pairs with at most one partner, so no match is emitted
//! twice; because blocks advance by max comparison, no match is missed (an
//! element can only equal elements in blocks that overlap its value range).
//! The scalar tail finishes the last partial blocks.

use super::scalar;
use std::sync::atomic::{AtomicU8, Ordering};

/// Gallop when one side is at least this many times longer than the other
/// (binary-merge cost ~ n+m, gallop ~ n log m; 16 is the usual rule of
/// thumb and matches what the generic code used before the kernel suite).
pub const GALLOP_RATIO: usize = 16;

/// Use the SIMD block path only when the smaller input has at least this
/// many elements — below it the block setup (two potentially partial
/// blocks plus the tail) costs more than a plain scalar merge.
pub const SIMD_MIN_LEN: usize = 16;

/// The instruction-set level the dispatched kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelLevel {
    /// Portable generic code ([`scalar`]); the level of every host without
    /// AVX2.
    Scalar = 1,
    /// 8-lane `u32` blocks (`core::arch` AVX2, runtime-detected).
    Avx2 = 2,
}

/// Is `level` executable on this host?
pub fn available(level: KernelLevel) -> bool {
    match level {
        KernelLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2 => std::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        KernelLevel::Avx2 => false,
    }
}

/// Cached dispatch decision: 0 = undetected, else a [`KernelLevel`] as u8.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The dispatched kernel level: detected once (first call) and cached.
///
/// AVX2 when `is_x86_feature_detected!` reports it, else scalar. The scalar
/// level stays reachable through the `*_at` entry points, which is how the
/// differential tests pin both against the scalar reference.
pub fn level() -> KernelLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => KernelLevel::Scalar,
        2 => KernelLevel::Avx2,
        _ => {
            let detected = if available(KernelLevel::Avx2) {
                KernelLevel::Avx2
            } else {
                KernelLevel::Scalar
            };
            LEVEL.store(detected as u8, Ordering::Relaxed);
            detected
        }
    }
}

fn assert_runnable(level: KernelLevel) {
    assert!(
        available(level),
        "kernel level {:?} is not available on this host",
        level
    );
}

// ---------------------------------------------------------------------------
// Entry points (strategy layer + dispatch).
// ---------------------------------------------------------------------------

/// `a ∩ b` into `out` (cleared first) at an explicit kernel level.
///
/// Strategy: gallop when the size ratio reaches [`GALLOP_RATIO`], scalar
/// merge when the smaller side is under [`SIMD_MIN_LEN`] (or at
/// [`KernelLevel::Scalar`]), AVX2 blocks otherwise.
pub fn intersect_into_at(level: KernelLevel, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    assert_runnable(level);
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // One up-front worst-case reservation (every small element matches)
    // for all strategies, plus one register of slack for the AVX2 kernel's
    // whole-register stores.
    out.reserve(small.len() + 8);
    if large.len() / small.len() >= GALLOP_RATIO {
        scalar::gallop_intersect(small, large, out);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 && small.len() >= SIMD_MIN_LEN {
        // SAFETY: `assert_runnable` checked the instruction set; `out` has
        // capacity for every possible write; `dst` does not alias `a`/`b`.
        let n = unsafe {
            x86::intersect_avx2::<false>(a.as_ptr(), a.len(), b.as_ptr(), b.len(), out.as_mut_ptr())
        };
        // SAFETY: the kernel initialized exactly `n <= capacity` elements.
        unsafe { out.set_len(n) };
        return;
    }
    scalar::merge_intersect(small, large, out);
}

/// `acc ∩= other` in place (no allocation, survivors compacted into the
/// prefix) at an explicit kernel level.
///
/// Strategy: gallop from whichever side is ≥ [`GALLOP_RATIO`]× smaller,
/// scalar merge-compaction for short inputs, alias-safe AVX2 blocks
/// otherwise (the block kernel writes exact match counts so compaction
/// into `acc`'s own buffer never clobbers unread elements).
pub fn intersect_in_place_at(level: KernelLevel, acc: &mut Vec<u32>, other: &[u32]) {
    assert_runnable(level);
    if acc.is_empty() {
        return;
    }
    if other.is_empty() {
        acc.clear();
        return;
    }
    if other.len() / acc.len() >= GALLOP_RATIO {
        // acc is tiny: walk it, gallop through `other`.
        let n = scalar::intersect_in_place(acc, other);
        acc.truncate(n);
        return;
    }
    if acc.len() / other.len() >= GALLOP_RATIO {
        // `other` is tiny: gallop each of its elements through acc,
        // compacting survivors into acc's prefix. Writes trail strictly
        // behind the search window (write index < resume position).
        let mut write = 0usize;
        let mut lo = 0usize;
        for &x in other {
            let (found, next) = scalar::gallop_step(acc, lo, x);
            if found {
                acc[write] = x;
                write += 1;
            }
            lo = next;
            if lo >= acc.len() {
                break;
            }
        }
        acc.truncate(write);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 && acc.len().min(other.len()) >= SIMD_MIN_LEN {
        let p = acc.as_mut_ptr();
        // SAFETY: level checked; `dst` aliases `a` which the EXACT kernel
        // supports (writes trail consumption, the live block is cached in a
        // register / spilled to the stack before the tail re-reads it).
        let n = unsafe {
            x86::intersect_avx2::<true>(p.cast_const(), acc.len(), other.as_ptr(), other.len(), p)
        };
        acc.truncate(n);
        return;
    }
    let n = merge_in_place(acc, other);
    acc.truncate(n);
}

/// Scalar merge-compaction: survivors of `acc ∩ other` into `acc`'s
/// prefix; returns the new length. Writes trail reads (`k <= i`).
fn merge_in_place(acc: &mut [u32], other: &[u32]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < acc.len() && j < other.len() {
        let x = acc[i];
        let y = other[j];
        if x == y {
            acc[k] = x;
            k += 1;
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
    k
}

// ---------------------------------------------------------------------------
// x86-64 block kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// `COMPACT8[mask][l]` = index of the `l`-th set bit of `mask` (lanes
    /// to keep, ascending); unused slots repeat lane 0 (their values are
    /// never counted). Drives `_mm256_permutevar8x32_epi32` compaction.
    static COMPACT8: [[u32; 8]; 256] = build_compact8();

    const fn build_compact8() -> [[u32; 8]; 256] {
        let mut table = [[0u32; 8]; 256];
        let mut mask = 0usize;
        while mask < 256 {
            let mut slot = 0usize;
            let mut lane = 0usize;
            while lane < 8 {
                if mask & (1 << lane) != 0 {
                    table[mask][slot] = lane as u32;
                    slot += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    }

    /// `ROTATE[r][l] = (l + r) % 8`: permutation vectors rotating an AVX2
    /// register left by `r` lanes, covering all 64 lane pairs over r=0..8.
    static ROTATE: [[u32; 8]; 8] = build_rotate();

    const fn build_rotate() -> [[u32; 8]; 8] {
        let mut table = [[0u32; 8]; 8];
        let mut r = 0usize;
        while r < 8 {
            let mut l = 0usize;
            while l < 8 {
                table[r][l] = ((l + r) % 8) as u32;
                l += 1;
            }
            r += 1;
        }
        table
    }

    /// Scalar merge-intersect over raw pointers, resuming from `(i, j, k)`.
    /// Write index trails `a`'s read index, so `dst` may alias `a`.
    ///
    /// # Safety
    /// `a[..a_len]`, `b[..b_len]` readable; `dst` writable for the final
    /// count; if `dst` aliases `a` it must be exactly `a`'s buffer.
    #[allow(clippy::too_many_arguments)] // raw resume-state kernel helper
    unsafe fn merge_tail(
        a: *const u32,
        mut i: usize,
        a_len: usize,
        b: *const u32,
        mut j: usize,
        b_len: usize,
        dst: *mut u32,
        mut k: usize,
    ) -> (usize, usize) {
        // SAFETY: the caller passes live pointers with `a[..a_len]` and
        // `b[..b_len]` readable and resume indices inside those bounds,
        // so every read below is in bounds; `dst` has room for the count.
        debug_assert!(!a.is_null() && !b.is_null() && !dst.is_null());
        debug_assert!(i <= a_len && j <= b_len);
        while i < a_len && j < b_len {
            let x = *a.add(i);
            let y = *b.add(j);
            if x == y {
                *dst.add(k) = x;
                k += 1;
                i += 1;
                j += 1;
            } else if x < y {
                i += 1;
            } else {
                j += 1;
            }
        }
        (k, j)
    }

    /// 8-lane AVX2 block intersection. With `EXACT = false`, matches are
    /// stored as whole registers (fastest; `dst` must not alias the
    /// inputs and needs 7 lanes of slack). With `EXACT = true`, exactly
    /// `count` lanes are copied per block and `dst` may alias `a`'s
    /// buffer: writes can then only touch indices below the next unread
    /// `a` position (emitted matches from `a[..i+8]` number at most
    /// `i+8`), and the live block is kept in a register and spilled to
    /// the stack before the tail re-reads it.
    ///
    /// # Safety
    /// AVX2 must be available. `a[..a_len]` / `b[..b_len]` readable,
    /// `dst` writable for `min(a_len, b_len)` elements (+7 slack when
    /// `!EXACT`); aliasing per the above.
    #[target_feature(enable = "avx2")]
    pub unsafe fn intersect_avx2<const EXACT: bool>(
        a: *const u32,
        a_len: usize,
        b: *const u32,
        b_len: usize,
        dst: *mut u32,
    ) -> usize {
        // SAFETY: the caller checked AVX2 (`assert_runnable`), and passes
        // readable `a[..a_len]`/`b[..b_len]` and a `dst` with room for
        // `min(a_len, b_len)` (+7 slack unless `EXACT`). Only `EXACT` may
        // write into `a`'s own buffer; block loads stay below `len - 7`.
        debug_assert!(std::is_x86_feature_detected!("avx2"));
        debug_assert!(EXACT || !std::ptr::eq(dst.cast_const(), a));
        let mut i = 0usize;
        let mut j = 0usize;
        let mut k = 0usize;
        let mut spill = [0u32; 8];
        let mut live = false;
        if a_len >= 8 && b_len >= 8 {
            let mut va = _mm256_loadu_si256(a as *const __m256i);
            live = true;
            loop {
                let vb = _mm256_loadu_si256(b.add(j) as *const __m256i);
                let mut eq = _mm256_cmpeq_epi32(va, vb);
                for rot in &ROTATE[1..] {
                    let idx = _mm256_loadu_si256(rot.as_ptr() as *const __m256i);
                    let vbr = _mm256_permutevar8x32_epi32(vb, idx);
                    eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, vbr));
                }
                let mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as usize;
                if mask != 0 {
                    let perm = _mm256_loadu_si256(COMPACT8[mask].as_ptr() as *const __m256i);
                    let packed = _mm256_permutevar8x32_epi32(va, perm);
                    let count = mask.count_ones() as usize;
                    if EXACT {
                        let mut tmp = [0u32; 8];
                        _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, packed);
                        core::ptr::copy_nonoverlapping(tmp.as_ptr(), dst.add(k), count);
                    } else {
                        _mm256_storeu_si256(dst.add(k) as *mut __m256i, packed);
                    }
                    k += count;
                }
                let a_max = *a.add(i + 7);
                let b_max = *b.add(j + 7);
                if b_max <= a_max {
                    j += 8;
                    if j + 8 > b_len {
                        break;
                    }
                }
                if a_max <= b_max {
                    i += 8;
                    live = false;
                    if i + 8 > a_len {
                        break;
                    }
                    va = _mm256_loadu_si256(a.add(i) as *const __m256i);
                    live = true;
                }
            }
            if live {
                _mm256_storeu_si256(spill.as_mut_ptr() as *mut __m256i, va);
            }
        }
        if live {
            // The current `a` block may have been partially overwritten by
            // compaction (EXACT in-place); finish it from the stack copy.
            // Re-emission is impossible: already-matched lanes paired with
            // `b` elements before `j`, all strictly below `b[j..]`.
            let (k2, j2) = merge_tail(spill.as_ptr(), 0, 8, b, j, b_len, dst, k);
            k = k2;
            j = j2;
            i += 8;
        }
        let (k3, _) = merge_tail(a, i, a_len, b, j, b_len, dst, k);
        k3
    }
}
