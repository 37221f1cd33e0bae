#![warn(missing_docs)]
//! Synthetic RDF benchmarks and SPARQL workloads (paper §7.1–§7.2).
//!
//! The paper evaluates on DBPEDIA, YAGO and LUBM100. Those dumps are not
//! available here, so this crate generates synthetic stand-ins that
//! reproduce the *paper-relevant* characteristics of each benchmark
//! (Table 4): predicate diversity, hub-heavy scale-free topology, and
//! literal-attribute density. See DESIGN.md for the substitution rationale.
//!
//! * [`lubm`] — a re-implementation of the LUBM university-domain generator
//!   (LUBM is itself synthetic): 13 resource predicates, deep class
//!   hierarchy encoded via `rdf:type` edges.
//! * [`synthetic`] — the scale-free generator core (preferential
//!   attachment + Zipf predicate skew) parameterized by
//!   [`synthetic::SyntheticConfig`].
//! * [`dbpedia`] / [`yago`] — presets of the scale-free core matching the
//!   two real-world benchmarks' predicate counts (hundreds vs 44).
//! * [`workload`] — the query workload generator of §7.2: star-shaped and
//!   complex-shaped queries of sizes 10–50 extracted from the generated
//!   data (hence guaranteed satisfiable), with literal and constant-IRI
//!   injection.
//! * [`skewed`] — deterministic skewed-recursion workloads (one giant
//!   hub seed among thousands of trivial seeds, plus uniform and
//!   single-seed controls) with closed-form embedding counts.

pub mod dbpedia;
pub mod lubm;
pub mod skewed;
pub mod synthetic;
pub mod workload;

use rdf_model::Triple;

pub use workload::{GeneratedQuery, QueryShape, WorkloadConfig, WorkloadGenerator};

/// The three benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// DBPEDIA-like: hundreds of predicates, strong hubs (§7.1: 676 types).
    Dbpedia,
    /// YAGO-like: 44 predicates, fact-style.
    Yago,
    /// LUBM-like: 13 predicates, university schema.
    Lubm,
}

impl Benchmark {
    /// All benchmarks, in the paper's presentation order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Dbpedia, Benchmark::Yago, Benchmark::Lubm];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Dbpedia => "DBPEDIA",
            Benchmark::Yago => "YAGO",
            Benchmark::Lubm => "LUBM",
        }
    }

    /// Generate the tripleset at the given scale, deterministically in
    /// `seed`.
    ///
    /// Scale guidance: `1` is a smoke-test size (≈ thousands of triples),
    /// `10`–`50` are laptop benchmark sizes, and a few hundred approaches
    /// paper-shape (millions of triples need minutes and gigabytes).
    pub fn generate(&self, scale: u32, seed: u64) -> Vec<Triple> {
        match self {
            Benchmark::Dbpedia => dbpedia::generate(scale, seed),
            Benchmark::Yago => synthetic::generate(&synthetic::SyntheticConfig::yago(scale), seed),
            Benchmark::Lubm => lubm::generate(scale, seed),
        }
    }
}

/// YAGO preset (re-exported at the crate root for symmetry).
pub mod yago {
    use super::*;

    /// Generate the YAGO-like benchmark.
    pub fn generate(scale: u32, seed: u64) -> Vec<Triple> {
        synthetic::generate(&synthetic::SyntheticConfig::yago(scale), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::RdfGraph;

    #[test]
    fn benchmarks_generate_deterministically() {
        for bench in Benchmark::ALL {
            let a = bench.generate(1, 42);
            let b = bench.generate(1, 42);
            assert_eq!(a, b, "{} must be seed-deterministic", bench.name());
            let c = bench.generate(1, 43);
            assert_ne!(a, c, "{} must vary with the seed", bench.name());
        }
    }

    #[test]
    fn benchmark_shapes_match_paper_profile() {
        // Predicate-diversity ordering of Table 4:
        // DBPEDIA (676) > YAGO (44) > LUBM (13).
        let counts: Vec<usize> = Benchmark::ALL
            .iter()
            .map(|b| {
                let rdf = RdfGraph::from_triples(&b.generate(1, 7));
                rdf.stats().edge_types
            })
            .collect();
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2],
            "edge-type diversity must order DBPEDIA > YAGO > LUBM, got {counts:?}"
        );
        // LUBM's fixed schema: exactly 13 resource predicates (Table 4).
        assert_eq!(counts[2], 13);
    }

    #[test]
    fn scale_increases_size() {
        let small = Benchmark::Dbpedia.generate(1, 1).len();
        let large = Benchmark::Dbpedia.generate(3, 1).len();
        assert!(large > 2 * small, "scale 3 ≫ scale 1 ({large} vs {small})");
    }
}
