#![warn(missing_docs)]
//! The AMbER index ensemble `I = {A, S, N}` (paper §4).
//!
//! Built once, offline, over the data multigraph `G`:
//!
//! * [`attribute::AttributeIndex`] (`A`, §4.1) — an inverted list from each
//!   vertex attribute to the sorted set of vertices carrying it,
//! * [`signature::SignatureIndex`] (`S`, §4.2) — the 8-field synopsis of
//!   every vertex signature, stored once in an id-ordered `u32` table and
//!   indexed by an [`rtree::RTree`]; answers the dominance ("rectangular
//!   containment") queries of Lemma 1,
//! * [`otil::NeighborhoodIndex`] (`N`, §4.3) — per-vertex Ordered-Trie-with-
//!   Inverted-List structures (`N⁺` incoming, `N⁻` outgoing), laid out as
//!   one edge table per direction (rows of `(type, neighbour)` entries);
//!   answers "neighbours of `v` through multi-edge ⊇ `T'`".
//!
//! [`IndexSet::build`] assembles all three and records per-index build time
//! (the quantities of the paper's Table 5).

pub mod attribute;
pub mod otil;
pub mod rtree;
pub mod signature;

use amber_multigraph::RdfGraph;
use amber_util::HeapSize;
use std::time::Duration;

pub use attribute::AttributeIndex;
pub use otil::NeighborhoodIndex;
pub use rtree::RTree;
pub use signature::SignatureIndex;

/// The full index ensemble `I := {A, S, N}`.
#[derive(Debug)]
pub struct IndexSet {
    /// `A` — attribute inverted lists.
    pub attribute: AttributeIndex,
    /// `S` — signature synopsis R-tree.
    pub signature: SignatureIndex,
    /// `N` — neighbourhood OTIL index.
    pub neighborhood: NeighborhoodIndex,
    build_stats: BuildStats,
}

/// Build-time measurements per index (Table 5's "Index I" columns).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Wall-clock time to build `A`.
    pub attribute_time: Duration,
    /// Wall-clock time to build `S`.
    pub signature_time: Duration,
    /// Wall-clock time to build `N`.
    pub neighborhood_time: Duration,
}

impl BuildStats {
    /// Total build time of the ensemble.
    pub fn total_time(&self) -> Duration {
        self.attribute_time + self.signature_time + self.neighborhood_time
    }
}

impl IndexSet {
    /// Build all three indexes over a loaded graph.
    pub fn build(rdf: &RdfGraph) -> Self {
        let sw = amber_util::Stopwatch::start();
        let attribute = AttributeIndex::build(rdf);
        let attribute_time = sw.elapsed();

        let sw = amber_util::Stopwatch::start();
        let signature = SignatureIndex::build(rdf.graph());
        let signature_time = sw.elapsed();

        let sw = amber_util::Stopwatch::start();
        let neighborhood = NeighborhoodIndex::build(rdf.graph());
        let neighborhood_time = sw.elapsed();

        Self {
            attribute,
            signature,
            neighborhood,
            build_stats: BuildStats {
                attribute_time,
                signature_time,
                neighborhood_time,
            },
        }
    }

    /// Build-time measurements.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }
}

impl HeapSize for IndexSet {
    fn heap_size(&self) -> usize {
        self.attribute.heap_size() + self.signature.heap_size() + self.neighborhood.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::paper_graph;

    #[test]
    fn builds_all_three_indexes_on_paper_graph() {
        let rdf = paper_graph();
        let index = IndexSet::build(&rdf);
        assert!(index.heap_size() > 0);
        assert!(index.build_stats().total_time() >= Duration::ZERO);
    }
}
