//! Allocation guard on component preparation.
//!
//! A seed vertex constrained by constants alone (a single-variable star)
//! is seeded from its `ProcessVertex` whitelist, read against the stored
//! synopses one vertex at a time. Walking the synopsis R-tree instead
//! collects every dominating vertex — a large share of |V| — before the
//! whitelist cuts it down, and its result alone costs 4 bytes per vertex.
//! A counting allocator holds the bytes preparation allocates to a bound
//! that grows with the whitelist, not with the graph.
//!
//! This file is its own test binary: the global allocator below counts
//! per thread, so the harness's other threads do not disturb a count.

mod constant_star;

use amber::candidates::{process_vertex, Constraint};
use amber::matcher::{ComponentPrep, SearchArenas};
use amber_datagen::Benchmark;
use amber_index::IndexSet;
use amber_multigraph::{QueryGraph, RdfGraph};
use amber_sparql::parse_select;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes));
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

/// Bytes `f` allocates on this thread, with its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let value = f();
    (value, ALLOCATED.with(Cell::get) - before)
}

/// Preparation's fixed cost (plans, probe tables, the query synopsis) plus
/// a few words per whitelisted vertex.
const FIXED_BYTES: usize = 2048;
const BYTES_PER_WHITELISTED: usize = 16;

/// The synopsis-dominating vertices of `?x` in `text` — what the R-tree
/// walk would collect for it.
fn dominating(rdf: &RdfGraph, index: &IndexSet, text: &str) -> usize {
    let qg = QueryGraph::build(&parse_select(text).unwrap(), rdf).unwrap();
    let x = qg.vertex_by_name("x").unwrap();
    index
        .signature
        .candidates(&qg.signature(x).query_synopsis())
        .len()
}

#[test]
fn preparing_a_constant_star_allocates_by_its_whitelist_not_by_the_graph() {
    for seed in [1u64, 7, 23] {
        let triples = Benchmark::Dbpedia.generate(2, seed);
        let rdf = RdfGraph::from_triples(&triples);
        let index = IndexSet::build(&rdf);
        // The star the R-tree walk costs most on, among the first twenty.
        let (dominating, text) = constant_star::constant_stars(&triples)
            .take(20)
            .map(|text| (dominating(&rdf, &index, &text), text))
            .max()
            .expect("the data has constant stars");
        let qg = QueryGraph::build(&parse_select(&text).unwrap(), &rdf).unwrap();
        let components = qg.connected_components();
        assert_eq!(components.len(), 1, "seed {seed}: {text}");
        let x = qg.vertex_by_name("x").unwrap();
        let Constraint::Candidates(whitelist) =
            process_vertex(&qg, x, &index, &mut SearchArenas::new())
        else {
            panic!("seed {seed}: ?x is constrained by constants: {text}");
        };
        let bound = FIXED_BYTES + BYTES_PER_WHITELISTED * whitelist.len();
        assert!(
            4 * dominating > bound,
            "seed {seed}: the R-tree walk ({dominating} vertices) fits the bound {bound}"
        );

        let (prep, bytes) = allocated_by(|| {
            ComponentPrep::build(&qg, &index, &components[0], &mut SearchArenas::new())
        });
        assert!(!prep.initial_candidates().is_empty(), "seed {seed}: {text}");
        assert!(
            bytes <= bound,
            "seed {seed}: preparing {text} allocated {bytes} B; the whitelist of {} \
             allows {bound} B ({dominating} vertices dominate its synopsis)",
            whitelist.len()
        );
    }
}
