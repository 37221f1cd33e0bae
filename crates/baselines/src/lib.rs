#![warn(missing_docs)]
//! Baseline SPARQL engines — the paper's competitors, re-implemented.
//!
//! The evaluation (§7) compares AMbER against Virtuoso, x-RDF-3X, Apache
//! Jena and gStore (TurboHom++ was unavailable to the authors too). None of
//! those binaries exist in this environment, so each *architecture* is
//! re-implemented over the same data model:
//!
//! * [`ScanJoinEngine`] — per-pattern full scans plus hash joins, no indexes
//!   and no planning. The slow sanity oracle; fills Jena's role (slowest
//!   engine in every figure) and doubles as the correctness reference in
//!   the cross-engine agreement tests.
//! * [`TripleStoreEngine`] — ID-encoded triples in all six sort permutations
//!   (SPO…OPS) with binary-search range scans and greedy selectivity-ordered
//!   index-nested-loop joins: the relational architecture of x-RDF-3X /
//!   Virtuoso.
//! * [`BacktrackingEngine`] — homomorphic backtracking over the raw
//!   adjacency of the very same multigraph, but with **none** of AMbER's
//!   `A`/`S`/`N` indexes and **no** core–satellite decomposition: the
//!   graph-store architecture (gStore / TurboHom++), isolating exactly the
//!   contribution under test.
//!
//! **Semantics alignment.** All engines evaluate the multigraph semantics of
//! §2.3 (variables range over resource vertices; constant-literal objects
//! are attribute constraints). This keeps every engine's answer count
//! identical on every query — which the agreement tests assert — so the
//! benchmark measures *architecture*, not semantic drift.

pub mod backtracking;
mod common;
pub mod scan_join;
pub mod triple_store;

pub use backtracking::BacktrackingEngine;
pub use scan_join::ScanJoinEngine;
pub use triple_store::TripleStoreEngine;

use amber::{EngineError, ExecOptions, QueryOutcome, SparqlEngine};
use amber_multigraph::RdfGraph;
use std::sync::Arc;

/// Every engine in the workspace, instantiated over one shared graph —
/// convenience for the harness and the agreement tests. AMbER itself is
/// element 0.
pub fn all_engines(rdf: Arc<RdfGraph>) -> Vec<Box<dyn SparqlEngine + Send + Sync>> {
    vec![
        Box::new(amber::AmberEngine::from_graph(Arc::clone(&rdf))),
        Box::new(TripleStoreEngine::new(Arc::clone(&rdf))),
        Box::new(BacktrackingEngine::new(Arc::clone(&rdf))),
        Box::new(ScanJoinEngine::new(rdf)),
    ]
}

/// Execute a query on every engine and assert they agree on the embedding
/// count (test helper; panics on disagreement).
pub fn assert_engines_agree(rdf: Arc<RdfGraph>, sparql: &str) -> u128 {
    let options = ExecOptions::default();
    let engines = all_engines(rdf);
    let mut counts: Vec<(String, Result<QueryOutcome, EngineError>)> = Vec::new();
    for engine in &engines {
        counts.push((
            engine.name().to_string(),
            engine.execute_sparql(sparql, &options),
        ));
    }
    let reference = counts[0]
        .1
        .as_ref()
        .unwrap_or_else(|e| panic!("{} failed: {e}", counts[0].0))
        .embedding_count;
    for (name, outcome) in &counts {
        let outcome = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(
            outcome.embedding_count, reference,
            "engine {name} disagrees on {sparql}"
        );
    }
    reference
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};

    #[test]
    fn all_engines_agree_on_paper_query() {
        let rdf = Arc::new(paper_graph());
        let count = assert_engines_agree(rdf, &paper_query_text());
        assert_eq!(count, 2);
    }

    #[test]
    fn engine_names_are_distinct() {
        let rdf = Arc::new(paper_graph());
        let engines = all_engines(rdf);
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
