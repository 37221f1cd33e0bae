//! Allocation guard on the load path.
//!
//! `AmberEngine::load_ntriples` scans the text once and appends id tuples
//! to flat vectors; the dictionaries, the graph's pools and the indexes
//! grow by doubling or are allocated at their exact size. The number of
//! allocations grows with the logarithm of the input, not with its
//! triples or vertices, and the bytes allocated on
//! the way stay within a small multiple of the bytes the loaded engine
//! keeps (its resident ledger; the bytes stand in for peak memory, which
//! a test cannot read per thread). A counting allocator holds both, on
//! both generators, at scales 1 and 8: an allocation per triple or per
//! vertex would add thousands of calls between them, and a transient copy
//! of the input's size would add half a ledger.
//!
//! This file is its own test binary: the global allocator below counts
//! per thread, so the harness's other threads do not disturb a count.

use amber::AmberEngine;
use amber_datagen::Benchmark;
use rdf_model::write_ntriples;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(calls, bytes)` allocated on this thread.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain thread-local cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One load of `benchmark` at `scale`.
struct Load {
    /// Allocation calls.
    calls: usize,
    /// Bytes those calls asked for (all of them).
    bytes: usize,
    /// The loaded engine's resident ledger.
    ledger: usize,
    triples: usize,
    vertices: usize,
}

fn load(benchmark: Benchmark, scale: u32) -> Load {
    let text = write_ntriples(&benchmark.generate(scale, 1));
    let (calls_before, bytes_before) = ALLOCATED.with(Cell::get);
    let engine = AmberEngine::load_ntriples(&text).unwrap();
    let (calls_after, bytes_after) = ALLOCATED.with(Cell::get);
    let offline = engine.offline_stats();
    Load {
        calls: calls_after - calls_before,
        bytes: bytes_after - bytes_before,
        ledger: offline.database_bytes + offline.index_bytes,
        triples: engine.rdf().triple_count(),
        vertices: engine.rdf().graph().vertex_count(),
    }
}

/// Allocation calls one load may make: measured 179–206 on DBpedia and
/// 150–172 on LUBM (scales 1 and 8), so a margin of about a sixth.
const MAX_CALLS: usize = 240;
/// How many of those calls going from scale 1 to 8 may add: measured 27
/// on DBpedia and 22 on LUBM, for 110 k and 15 k more triples.
const MAX_ADDED_CALLS: usize = 48;
/// Bytes one load may allocate per byte of its resident ledger: measured
/// 1.55–1.72, LUBM at scale 1 the highest. The ratio rises whenever the
/// ledger shrinks by more than the bytes allocated on the way, as it did
/// (from 1.52–1.64) when the adjacency entry went from 24 to 8 bytes.
const MAX_BYTES_PER_LEDGER_BYTE: f64 = 1.75;

#[test]
fn a_load_allocates_per_structure_not_per_triple() {
    for benchmark in [Benchmark::Dbpedia, Benchmark::Lubm] {
        let small = load(benchmark, 1);
        let large = load(benchmark, 8);
        eprintln!(
            "{benchmark:?}: {} → {} triples, {} → {} vertices, {} → {} calls, \
             {:.3} / {:.3} bytes per ledger byte",
            small.triples,
            large.triples,
            small.vertices,
            large.vertices,
            small.calls,
            large.calls,
            small.bytes as f64 / small.ledger as f64,
            large.bytes as f64 / large.ledger as f64,
        );
        assert!(large.vertices >= 4 * small.vertices && large.triples >= 4 * small.triples);
        assert!(
            large.calls <= MAX_CALLS && large.calls - small.calls <= MAX_ADDED_CALLS,
            "{benchmark:?}: {} calls at scale 1, {} at scale 8",
            small.calls,
            large.calls
        );
        for (scale, load) in [(1, &small), (8, &large)] {
            let ratio = load.bytes as f64 / load.ledger as f64;
            assert!(
                ratio <= MAX_BYTES_PER_LEDGER_BYTE,
                "{benchmark:?} scale {scale}: {} bytes allocated for a {}-byte ledger ({ratio:.3}×)",
                load.bytes,
                load.ledger
            );
        }
    }
}
