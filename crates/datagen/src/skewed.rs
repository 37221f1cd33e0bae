//! Skewed-recursion workloads.
//!
//! *Recursion skew* — one seed whose recursion subtree dwarfs the others —
//! is what this module generates: graphs whose seed-candidate population
//! has exactly that shape, deterministic and with a closed-form embedding
//! count, so tests get a search-heavy query with a known answer and can
//! dial skew up and down. (It was built to compare the intra-query
//! schedulers PR 17 removed; the chunking remarks below describe what a
//! static partition of the seeds would do.)
//!
//! * **hub seeds** — each hub `h` answers the [`chain_query`] with a
//!   two-level fan-out: `children` middle vertices (reached over a
//!   *double* edge, so the matcher materializes the candidate list)
//!   each reaching the hub's `grandchildren` tail vertices. One hub contributes `children × grandchildren` embeddings
//!   and about `1 + children + children × grandchildren` search-tree
//!   nodes;
//! * **trivial seeds** — pass the signature/seed filters (they carry the
//!   full `in:{first}, out:{childA, childB}` synopsis) but dead-end two
//!   levels down: ~2 nodes each, 0 embeddings.
//!
//! [`SkewedConfig::skewed`] (1 giant hub + thousands of trivial seeds) is
//! the adversarial case for static chunking: whichever chunk holds the hub
//! carries essentially all the work. [`SkewedConfig::uniform`] (many equal
//! small hubs, no trivial seeds) is the fairness control where static
//! chunking is already optimal.

use rdf_model::{Iri, Triple};

/// Parameters of the skewed-recursion generator.
#[derive(Debug, Clone)]
pub struct SkewedConfig {
    /// Namespace for entity IRIs.
    pub entity_namespace: String,
    /// Namespace for predicate IRIs.
    pub predicate_namespace: String,
    /// Heavy seeds: each hub carries a full two-level subtree.
    pub hubs: usize,
    /// Middle-level fan-out per hub (size of the splittable candidate
    /// list at recursion depth 1).
    pub children: usize,
    /// Tail fan-out per hub (every child of a hub reaches all of the hub's
    /// grandchildren, so hub work is `children × grandchildren` nodes).
    pub grandchildren: usize,
    /// Seeds that pass the seed filter but die two recursion levels down.
    pub trivial_seeds: usize,
}

impl SkewedConfig {
    /// The adversarial preset: one giant hub among thousands of trivial
    /// seeds. Static chunking puts the hub plus a 1/`threads` share of the
    /// trivial seeds in one chunk, so its worker runs ~`hub_nodes` while
    /// the rest idle after microseconds.
    pub fn skewed() -> Self {
        Self {
            entity_namespace: "http://skew/e/".into(),
            predicate_namespace: "http://skew/p/".into(),
            hubs: 1,
            children: 128,
            grandchildren: 128,
            trivial_seeds: 4_000,
        }
    }

    /// The fairness control: many equal small hubs and no trivial seeds —
    /// every chunk carries the same work, so static chunking is already
    /// an optimal schedule and dynamic scheduling can only pay overhead.
    pub fn uniform() -> Self {
        Self {
            entity_namespace: "http://skew/e/".into(),
            predicate_namespace: "http://skew/p/".into(),
            hubs: 512,
            children: 4,
            grandchildren: 8,
            trivial_seeds: 0,
        }
    }

    /// The single-seed stress: exactly one (heavy) initial candidate.
    /// Fork-per-chunk cannot parallelize this at all (it falls back to the
    /// sequential path); only subtree splitting can.
    pub fn single_seed() -> Self {
        Self {
            trivial_seeds: 0,
            ..Self::skewed()
        }
    }

    /// Embeddings the [`chain_query`] has on [`generate`]'s output:
    /// `hubs × children × grandchildren` (trivial seeds contribute none).
    pub fn expected_embeddings(&self) -> u128 {
        (self.hubs as u128) * (self.children as u128) * (self.grandchildren as u128)
    }

    /// Seed candidates of the chain query's initial core vertex:
    /// every hub and every trivial seed passes `ProcessVertex` + signature.
    pub fn expected_seeds(&self) -> usize {
        self.hubs + self.trivial_seeds
    }

    fn entity(&self, name: impl std::fmt::Display) -> Iri {
        Iri::new(format!("{}{name}", self.entity_namespace))
    }

    fn predicate(&self, name: &str) -> Iri {
        Iri::new(format!("{}{name}", self.predicate_namespace))
    }
}

/// Predicate local names of the chain query, in chain order. `childA` and
/// `childB` are *parallel* predicates over the same vertex pairs: the
/// query requires both, which keeps the depth-1 candidate list off the
/// matcher's borrow-only fast path and therefore splittable.
const P_FIRST: &str = "first";
const P_CHILD_A: &str = "childA";
const P_CHILD_B: &str = "childB";
const P_GRAND: &str = "grand";
const P_TAIL: &str = "tail";

/// The 5-pattern chain query the generated graphs are built for:
///
/// ```sparql
/// SELECT * WHERE {
///   ?x0 <first>  ?x1 .   # satellite x0 of the initial core x1
///   ?x1 <childA> ?x2 .   # double edge: materialized, splittable level
///   ?x1 <childB> ?x2 .
///   ?x2 <grand>  ?x3 .   # fast-path (borrowed-list) level
///   ?x3 <tail>   ?x4 .   # satellite x4 of the last core x3
/// }
/// ```
///
/// Cores are `x1 → x2 → x3` (the ordering heuristics pick `x1` first: it
/// ties `x3` on satellite count and wins on edge instances), so the seed
/// loop runs over `x1`'s candidates — the hub/trivial population.
pub fn chain_query(config: &SkewedConfig) -> String {
    let p = |name: &str| format!("{}{name}", config.predicate_namespace);
    format!(
        "SELECT * WHERE {{ ?x0 <{}> ?x1 . ?x1 <{}> ?x2 . ?x1 <{}> ?x2 . \
         ?x2 <{}> ?x3 . ?x3 <{}> ?x4 . }}",
        p(P_FIRST),
        p(P_CHILD_A),
        p(P_CHILD_B),
        p(P_GRAND),
        p(P_TAIL)
    )
}

/// Generate the tripleset (deterministic; no randomness needed — skew is
/// structural, not sampled).
pub fn generate(config: &SkewedConfig) -> Vec<Triple> {
    let mut triples = Vec::new();
    let first = config.predicate(P_FIRST);
    let child_a = config.predicate(P_CHILD_A);
    let child_b = config.predicate(P_CHILD_B);
    let grand = config.predicate(P_GRAND);
    let tail = config.predicate(P_TAIL);

    for h in 0..config.hubs {
        let hub = config.entity(format_args!("hub{h}"));
        // x0 candidate for this hub.
        triples.push(Triple::new(
            config.entity(format_args!("src{h}")),
            first.clone(),
            hub.clone(),
        ));
        // Middle level: the hub reaches every child over BOTH parallel
        // predicates (the double query edge requires the intersection).
        for c in 0..config.children {
            let child = config.entity(format_args!("mid{h}_{c}"));
            triples.push(Triple::new(hub.clone(), child_a.clone(), child.clone()));
            triples.push(Triple::new(hub.clone(), child_b.clone(), child.clone()));
            // Tail level: every child reaches ALL of this hub's
            // grandchildren (shared set — work scales as children ×
            // grandchildren with only children + grandchildren vertices).
            for g in 0..config.grandchildren {
                let grandchild = config.entity(format_args!("leaf{h}_{g}"));
                triples.push(Triple::new(child.clone(), grand.clone(), grandchild));
            }
        }
        // x4 satellite of each grandchild.
        for g in 0..config.grandchildren {
            let grandchild = config.entity(format_args!("leaf{h}_{g}"));
            triples.push(Triple::new(
                grandchild,
                tail.clone(),
                config.entity(format_args!("end{h}_{g}")),
            ));
        }
    }

    // Trivial seeds: same synopsis as a hub (in: first, out: childA+childB)
    // but their sole child has no outgoing `grand` edge, so the recursion
    // dead-ends at depth 2 after ~2 nodes.
    for t in 0..config.trivial_seeds {
        let seed = config.entity(format_args!("triv{t}"));
        let dead_end = config.entity(format_args!("trivmid{t}"));
        triples.push(Triple::new(
            config.entity(format_args!("trivsrc{t}")),
            first.clone(),
            seed.clone(),
        ));
        triples.push(Triple::new(seed.clone(), child_a.clone(), dead_end.clone()));
        triples.push(Triple::new(seed, child_b.clone(), dead_end));
    }

    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::RdfGraph;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let config = SkewedConfig::skewed();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a, b);
        // hubs × (1 src + 2·children + children·grandchildren + grandchildren tails)
        //   + trivial × 3
        let per_hub =
            1 + 2 * config.children + config.children * config.grandchildren + config.grandchildren;
        assert_eq!(a.len(), config.hubs * per_hub + config.trivial_seeds * 3);
    }

    #[test]
    fn query_parses_and_matches_the_graph_predicates() {
        let config = SkewedConfig::uniform();
        let rdf = RdfGraph::from_triples(&generate(&config));
        let query = amber_sparql::parse_select(&chain_query(&config)).unwrap();
        let qg = amber_multigraph::QueryGraph::build(&query, &rdf).unwrap();
        assert!(!qg.is_unsatisfiable());
        assert_eq!(qg.connected_components().len(), 1);
    }

    #[test]
    fn presets_have_the_advertised_shape() {
        let skewed = SkewedConfig::skewed();
        assert_eq!(skewed.hubs, 1);
        assert!(skewed.trivial_seeds > 1_000);
        let uniform = SkewedConfig::uniform();
        assert!(uniform.hubs > 100);
        assert_eq!(uniform.trivial_seeds, 0);
        let single = SkewedConfig::single_seed();
        assert_eq!(single.expected_seeds(), 1);
        // Closed-form embedding counts.
        assert_eq!(
            skewed.expected_embeddings(),
            (skewed.children * skewed.grandchildren) as u128
        );
    }

    #[test]
    fn trivial_seeds_share_the_hub_synopsis() {
        // Both hub and trivial seeds must survive the signature-index seed
        // filter: in-edge `first`, out-edges `childA` and `childB`.
        let config = SkewedConfig {
            hubs: 1,
            children: 2,
            grandchildren: 2,
            trivial_seeds: 2,
            ..SkewedConfig::skewed()
        };
        let rdf = RdfGraph::from_triples(&generate(&config));
        let g = rdf.graph();
        let seeds: Vec<_> = g
            .vertices()
            .filter(|&v| {
                let has_in = !g.in_edges(v).is_empty();
                let outs = g.out_edges(v).len();
                has_in && outs >= 2
            })
            .collect();
        assert!(seeds.len() >= config.expected_seeds());
    }
}
