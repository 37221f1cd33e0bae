//! Scale-free RDF generator core (DBpedia/YAGO stand-ins).
//!
//! Real-world knowledge graphs share two traits the paper's evaluation
//! leans on: heavy-tailed entity degrees (hub entities with thousands of
//! incident triples — these seed the size-50 star queries of §7.2) and
//! Zipf-skewed predicate usage (a few predicates dominate). Both emerge
//! here from preferential attachment: object endpoints are sampled from an
//! *endpoint pool* that contains every previously used endpoint once per
//! occurrence, so the probability of picking an entity is proportional to
//! its current degree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::{Iri, Literal, Triple};

/// Parameters of the scale-free generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Namespace for entity IRIs.
    pub entity_namespace: String,
    /// Namespace for predicate IRIs.
    pub predicate_namespace: String,
    /// Number of entities per scale unit.
    pub entities_per_scale: usize,
    /// Number of resource predicates (Table 4's "# Edge types").
    pub resource_predicates: usize,
    /// Number of literal predicates (become vertex attributes).
    pub literal_predicates: usize,
    /// Mean outgoing resource triples per entity.
    pub mean_out_degree: f64,
    /// Probability that an object is drawn by preferential attachment
    /// (otherwise uniformly at random).
    pub attachment_bias: f64,
    /// Zipf-ish skew of predicate choice (higher = more skewed).
    pub predicate_skew: f64,
    /// Probability that an entity carries literal attributes at all.
    pub attribute_probability: f64,
    /// Max literal attributes per entity.
    pub max_attributes: usize,
    /// Number of distinct literal values per literal predicate (smaller =
    /// more vertices share an attribute).
    pub literal_values: usize,
}

impl SyntheticConfig {
    /// DBPEDIA-like preset: 676 predicates (Table 4), strong hubs, rich
    /// infobox attributes.
    pub fn dbpedia(scale: u32) -> Self {
        Self {
            entity_namespace: "http://dbpedia.org/resource/".into(),
            predicate_namespace: "http://dbpedia.org/ontology/".into(),
            entities_per_scale: 2_000,
            resource_predicates: 676,
            literal_predicates: 120,
            mean_out_degree: 6.0,
            attachment_bias: 0.8,
            predicate_skew: 1.1,
            attribute_probability: 0.6,
            max_attributes: 5,
            literal_values: 400,
        }
        .scaled(scale)
    }

    /// YAGO-like preset: 44 predicates (Table 4), flatter skew.
    pub fn yago(scale: u32) -> Self {
        Self {
            entity_namespace: "http://yago-knowledge.org/resource/".into(),
            predicate_namespace: "http://yago-knowledge.org/property/".into(),
            entities_per_scale: 2_500,
            resource_predicates: 44,
            literal_predicates: 30,
            mean_out_degree: 4.5,
            attachment_bias: 0.7,
            predicate_skew: 0.9,
            attribute_probability: 0.5,
            max_attributes: 3,
            literal_values: 250,
        }
        .scaled(scale)
    }

    fn scaled(mut self, scale: u32) -> Self {
        self.entities_per_scale *= scale.max(1) as usize;
        self
    }
}

/// Generate the tripleset.
pub fn generate(config: &SyntheticConfig, seed: u64) -> Vec<Triple> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.entities_per_scale;
    let entity = |i: usize| format!("{}Entity_{i}", config.entity_namespace);
    let predicate = |i: usize| format!("{}relation_{i}", config.predicate_namespace);
    let literal_predicate = |i: usize| format!("{}property_{i}", config.predicate_namespace);

    // Zipf-ish predicate sampler via inverse-power transform.
    let sample_predicate = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let skew = config.predicate_skew;
        let idx = (u.powf(1.0 + skew) * config.resource_predicates as f64) as usize;
        idx.min(config.resource_predicates - 1)
    };

    let mut triples = Vec::with_capacity((n as f64 * config.mean_out_degree) as usize + n);
    // Preferential-attachment endpoint pool.
    let mut endpoint_pool: Vec<usize> = Vec::with_capacity(triples.capacity());

    for s in 0..n {
        // Out-degree ~ geometric around the configured mean.
        let p = 1.0 / config.mean_out_degree;
        let mut degree = 1;
        while degree < 200 && rng.gen_range(0.0..1.0) > p {
            degree += 1;
        }
        for _ in 0..degree {
            let o = if !endpoint_pool.is_empty() && rng.gen_range(0.0..1.0) < config.attachment_bias
            {
                endpoint_pool[rng.gen_range(0..endpoint_pool.len())]
            } else {
                rng.gen_range(0..n)
            };
            let pred = sample_predicate(&mut rng);
            triples.push(Triple::new(
                Iri::new(entity(s)),
                Iri::new(predicate(pred)),
                Iri::new(entity(o)),
            ));
            endpoint_pool.push(s);
            endpoint_pool.push(o);
        }

        // Literal attributes (infobox-style).
        if rng.gen_range(0.0..1.0) < config.attribute_probability {
            let count = rng.gen_range(1..=config.max_attributes);
            for _ in 0..count {
                let lp = rng.gen_range(0..config.literal_predicates);
                let value = rng.gen_range(0..config.literal_values);
                triples.push(Triple::new(
                    Iri::new(entity(s)),
                    Iri::new(literal_predicate(lp)),
                    Literal::plain(format!("value_{value}")),
                ));
            }
        }
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::RdfGraph;

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::yago(1);
        assert_eq!(generate(&cfg, 5), generate(&cfg, 5));
        assert_ne!(generate(&cfg, 5), generate(&cfg, 6));
    }

    #[test]
    fn respects_predicate_budgets() {
        let cfg = SyntheticConfig::yago(1);
        let rdf = RdfGraph::from_triples(&generate(&cfg, 1));
        let stats = rdf.stats();
        assert!(stats.edge_types <= cfg.resource_predicates);
        // At this size all 44 predicates should actually appear.
        assert_eq!(stats.edge_types, 44);
        assert!(stats.attributes > 0);
    }

    #[test]
    fn produces_hub_entities() {
        // Preferential attachment must create at least one entity with ≥ 50
        // incident triples — the prerequisite for size-50 star queries.
        let cfg = SyntheticConfig::dbpedia(1);
        let rdf = RdfGraph::from_triples(&generate(&cfg, 2));
        let g = rdf.graph();
        let max_degree = g
            .vertices()
            .map(|v| g.out_edges(v).len() + g.in_edges(v).len() + g.attributes(v).len())
            .max()
            .unwrap();
        assert!(max_degree >= 50, "max incident triples = {max_degree}");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let cfg = SyntheticConfig::dbpedia(1);
        let rdf = RdfGraph::from_triples(&generate(&cfg, 3));
        let g = rdf.graph();
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees[0] as f64;
        let median = degrees[degrees.len() / 2] as f64;
        assert!(
            top > 10.0 * median.max(1.0),
            "hubs should dwarf the median (top {top}, median {median})"
        );
    }
}
