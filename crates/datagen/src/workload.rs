//! SPARQL workload generation (paper §7.2).
//!
//! Queries are extracted from the loaded data itself, so every generated
//! query has at least one embedding (the identity assignment over its seed
//! entities) — matching the paper's methodology:
//!
//! * **star-shaped**: pick a random *initial entity* present in at least
//!   `k` triples; choose `k` of its incident triples at random — the entity
//!   becomes the central variable, the other endpoints the rays;
//! * **complex-shaped**: navigate the neighbourhood of the initial entity
//!   through predicate links until `k` triples are collected;
//! * in both, object literals are injected as constants and a fraction of
//!   the IRI endpoints stay constant; the rest become variables.

use amber_multigraph::{AttrId, EdgeTypeId, RdfGraph, VertexId};
use amber_sparql::{Projection, SelectQuery, TermPattern, TriplePattern};
use amber_util::{FxHashMap, FxHashSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Star or complex (paper §7.2's two query sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// One central variable with `k` rays.
    Star,
    /// A neighbourhood walk of `k` triples.
    Complex,
}

impl QueryShape {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            QueryShape::Star => "Star-Shaped",
            QueryShape::Complex => "Complex-Shaped",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Query shape.
    pub shape: QueryShape,
    /// Number of triple patterns `k` (the paper sweeps 10–50).
    pub size: usize,
    /// Probability that an IRI endpoint is kept constant instead of
    /// becoming a variable.
    pub constant_iri_probability: f64,
    /// Sampling attempts before giving up on a seed entity.
    pub max_attempts: usize,
}

impl WorkloadConfig {
    /// Paper-style defaults for the given shape and size.
    pub fn new(shape: QueryShape, size: usize) -> Self {
        Self {
            shape,
            size,
            constant_iri_probability: 0.15,
            max_attempts: 2_000,
        }
    }
}

/// One generated query plus its provenance.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The parsed form (what engines execute).
    pub query: SelectQuery,
    /// Canonical SPARQL text (what a user would have typed).
    pub text: String,
    /// Shape it was generated as.
    pub shape: QueryShape,
    /// Number of triple patterns.
    pub size: usize,
    /// The seed entity (IRI) the query was grown from.
    pub seed_entity: String,
}

/// One incident "triple unit" of an entity in the multigraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Unit {
    /// `(entity) -[t]-> (neighbor)`
    Out(VertexId, EdgeTypeId),
    /// `(neighbor) -[t]-> (entity)`
    In(VertexId, EdgeTypeId),
    /// `(entity) -[pred]-> "literal"`
    Attr(AttrId),
}

/// Canonical identity of the underlying data triple (for deduplication: a
/// self-loop shows up both as `Out` and `In`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TripleKey {
    Edge(VertexId, EdgeTypeId, VertexId),
    Attr(VertexId, AttrId),
}

fn unit_key(entity: VertexId, unit: Unit) -> TripleKey {
    match unit {
        Unit::Out(n, t) => TripleKey::Edge(entity, t, n),
        Unit::In(n, t) => TripleKey::Edge(n, t, entity),
        Unit::Attr(a) => TripleKey::Attr(entity, a),
    }
}

/// Generates workloads over one loaded graph.
pub struct WorkloadGenerator<'g> {
    rdf: &'g RdfGraph,
    rng: StdRng,
}

impl<'g> WorkloadGenerator<'g> {
    /// A deterministic generator over `rdf`.
    pub fn new(rdf: &'g RdfGraph, seed: u64) -> Self {
        Self {
            rdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate one query, or `None` when the data cannot support the
    /// requested shape/size (e.g. no entity with `size` incident triples).
    pub fn generate(&mut self, config: &WorkloadConfig) -> Option<GeneratedQuery> {
        match config.shape {
            QueryShape::Star => self.star(config),
            QueryShape::Complex => self.complex(config),
        }
    }

    /// Generate `n` queries (fewer if the data runs out of seeds).
    pub fn generate_many(&mut self, config: &WorkloadConfig, n: usize) -> Vec<GeneratedQuery> {
        (0..n).filter_map(|_| self.generate(config)).collect()
    }

    /// All incident units of an entity.
    fn units_of(&self, v: VertexId) -> Vec<Unit> {
        let g = self.rdf.graph();
        let mut units = Vec::new();
        for e in g.out_edges(v) {
            units.push(Unit::Out(e.neighbor, e.edge_type()));
        }
        for e in g.in_edges(v) {
            units.push(Unit::In(e.neighbor, e.edge_type()));
        }
        for &a in g.attributes(v) {
            units.push(Unit::Attr(a));
        }
        units
    }

    /// §7.2 star generation.
    fn star(&mut self, config: &WorkloadConfig) -> Option<GeneratedQuery> {
        let n = self.rdf.graph().vertex_count();
        if n == 0 {
            return None;
        }
        // Find an initial entity "present in at least k triples".
        let mut seed_entity = None;
        for _ in 0..config.max_attempts {
            let v = VertexId(self.rng.gen_range(0..n as u32));
            if self.units_of(v).len() >= config.size {
                seed_entity = Some(v);
                break;
            }
        }
        // Deterministic fallback: densest vertex.
        let center = match seed_entity {
            Some(v) => v,
            None => {
                let v = self
                    .rdf
                    .graph()
                    .vertices()
                    .max_by_key(|&v| self.units_of(v).len())?;
                if self.units_of(v).len() < config.size {
                    return None;
                }
                v
            }
        };

        let mut units = self.units_of(center);
        units.shuffle(&mut self.rng);
        // Deduplicate canonical triples (self loops appear twice).
        let mut seen: FxHashSet<TripleKey> = FxHashSet::default();
        units.retain(|&u| seen.insert(unit_key(center, u)));
        if units.len() < config.size {
            return None;
        }
        units.truncate(config.size);

        let mut builder = PatternBuilder::new(self.rdf, config.constant_iri_probability);
        let center_term = builder.variable_for(center);
        for unit in units {
            builder.push_unit(center, center_term.clone(), unit, &mut self.rng);
        }
        Some(builder.finish(QueryShape::Star, config.size, self.rdf.vertex_name(center)))
    }

    /// §7.2 complex generation: neighbourhood navigation.
    fn complex(&mut self, config: &WorkloadConfig) -> Option<GeneratedQuery> {
        let n = self.rdf.graph().vertex_count();
        if n == 0 {
            return None;
        }
        'restart: for _ in 0..config.max_attempts {
            let initial = VertexId(self.rng.gen_range(0..n as u32));
            if self.units_of(initial).is_empty() {
                continue;
            }
            let mut builder = PatternBuilder::new(self.rdf, config.constant_iri_probability);
            let mut used: FxHashSet<TripleKey> = FxHashSet::default();
            // Entities eligible for expansion (variables only).
            let mut frontier: Vec<VertexId> = vec![initial];
            builder.variable_for(initial);

            while builder.pattern_count() < config.size {
                if frontier.is_empty() {
                    continue 'restart; // walked into a dead end
                }
                let idx = self.rng.gen_range(0..frontier.len());
                let entity = frontier[idx];
                let fresh: Vec<Unit> = self
                    .units_of(entity)
                    .into_iter()
                    .filter(|&u| !used.contains(&unit_key(entity, u)))
                    .collect();
                let Some(&unit) = fresh.as_slice().choose(&mut self.rng) else {
                    frontier.swap_remove(idx);
                    continue;
                };
                used.insert(unit_key(entity, unit));
                let entity_term = builder.variable_for(entity);
                let new_variable = builder.push_unit(entity, entity_term, unit, &mut self.rng);
                if let Some(v) = new_variable {
                    frontier.push(v);
                }
            }
            return Some(builder.finish(
                QueryShape::Complex,
                config.size,
                self.rdf.vertex_name(initial),
            ));
        }
        None
    }
}

/// Accumulates triple patterns while tracking the entity → variable map.
struct PatternBuilder<'g> {
    rdf: &'g RdfGraph,
    constant_probability: f64,
    var_map: FxHashMap<VertexId, usize>,
    patterns: Vec<TriplePattern>,
}

impl<'g> PatternBuilder<'g> {
    fn new(rdf: &'g RdfGraph, constant_probability: f64) -> Self {
        Self {
            rdf,
            constant_probability,
            var_map: FxHashMap::default(),
            patterns: Vec::new(),
        }
    }

    fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// The variable term of an entity (allocating `?X{i}` on first use).
    fn variable_for(&mut self, v: VertexId) -> TermPattern {
        let next = self.var_map.len();
        let idx = *self.var_map.entry(v).or_insert(next);
        TermPattern::var(format!("X{idx}"))
    }

    /// Term for the far endpoint of a unit: reuse its variable if the
    /// entity was seen before, otherwise flip a (biased) coin between a
    /// fresh variable and a constant IRI. Returns `Some(vertex)` when a new
    /// variable was introduced (it becomes walkable frontier).
    fn endpoint(&mut self, v: VertexId, rng: &mut StdRng) -> (TermPattern, Option<VertexId>) {
        if let Some(&idx) = self.var_map.get(&v) {
            return (TermPattern::var(format!("X{idx}")), None);
        }
        if rng.gen_range(0.0..1.0) < self.constant_probability {
            (TermPattern::iri(self.rdf.vertex_name(v)), None)
        } else {
            (self.variable_for(v), Some(v))
        }
    }

    /// Append the pattern for one unit; returns a newly-introduced variable
    /// endpoint, if any.
    fn push_unit(
        &mut self,
        entity: VertexId,
        entity_term: TermPattern,
        unit: Unit,
        rng: &mut StdRng,
    ) -> Option<VertexId> {
        match unit {
            Unit::Out(neighbor, t) => {
                let predicate = TermPattern::iri(self.rdf.edge_type_name(t));
                let (object, fresh) = self.endpoint(neighbor, rng);
                self.patterns
                    .push(TriplePattern::new(entity_term, predicate, object));
                fresh
            }
            Unit::In(neighbor, t) => {
                let predicate = TermPattern::iri(self.rdf.edge_type_name(t));
                let (subject, fresh) = self.endpoint(neighbor, rng);
                self.patterns
                    .push(TriplePattern::new(subject, predicate, entity_term));
                fresh
            }
            Unit::Attr(attr) => {
                let (pred, literal_nt) = self
                    .rdf
                    .dictionaries()
                    .resolve_attribute(attr)
                    .expect("attribute from this graph");
                let literal =
                    rdf_model::parse_literal(literal_nt).expect("stored literal is valid NT");
                self.patterns.push(TriplePattern::new(
                    entity_term,
                    TermPattern::iri(pred),
                    TermPattern::Literal(literal),
                ));
                let _ = entity;
                None
            }
        }
    }

    fn finish(self, shape: QueryShape, size: usize, seed_entity: &str) -> GeneratedQuery {
        debug_assert_eq!(self.patterns.len(), size);
        let query = SelectQuery {
            projection: Projection::Star,
            distinct: false,
            patterns: self.patterns,
        };
        let text = amber_sparql::to_sparql(&query);
        GeneratedQuery {
            query,
            text,
            shape,
            size,
            seed_entity: seed_entity.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    fn graph() -> RdfGraph {
        RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 99))
    }

    #[test]
    fn star_queries_have_a_center() {
        let rdf = graph();
        let mut gen = WorkloadGenerator::new(&rdf, 1);
        let q = gen
            .generate(&WorkloadConfig::new(QueryShape::Star, 10))
            .expect("LUBM has hubs");
        assert_eq!(q.query.patterns.len(), 10);
        // X0 (the center) must appear in every pattern.
        for p in &q.query.patterns {
            let mentions_center = p.variables().any(|v| v == "X0");
            assert!(mentions_center, "star ray without center: {p}");
        }
        // Text parses back to the same AST.
        assert_eq!(amber_sparql::parse_select(&q.text).unwrap(), q.query);
    }

    #[test]
    fn complex_queries_are_connected() {
        let rdf = graph();
        let mut gen = WorkloadGenerator::new(&rdf, 2);
        let q = gen
            .generate(&WorkloadConfig::new(QueryShape::Complex, 15))
            .expect("walk succeeds");
        assert_eq!(q.query.patterns.len(), 15);
        let qg = amber_multigraph::QueryGraph::build(&q.query, &rdf).unwrap();
        assert_eq!(
            qg.connected_components().len(),
            1,
            "complex walks produce connected queries"
        );
    }

    #[test]
    fn generated_queries_are_satisfiable_by_construction() {
        let rdf = graph();
        let mut gen = WorkloadGenerator::new(&rdf, 3);
        for shape in [QueryShape::Star, QueryShape::Complex] {
            for size in [5, 10, 20] {
                let Some(q) = gen.generate(&WorkloadConfig::new(shape, size)) else {
                    panic!("generation failed for {shape:?} size {size}");
                };
                let qg = amber_multigraph::QueryGraph::build(&q.query, &rdf).unwrap();
                assert!(
                    !qg.is_unsatisfiable(),
                    "{:?} size {size}: {}",
                    shape,
                    q.text
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let rdf = graph();
        let config = WorkloadConfig::new(QueryShape::Star, 10);
        let a = WorkloadGenerator::new(&rdf, 5).generate_many(&config, 5);
        let b = WorkloadGenerator::new(&rdf, 5).generate_many(&config, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn size_50_stars_exist_on_benchmarks() {
        for bench in Benchmark::ALL {
            let rdf = RdfGraph::from_triples(&bench.generate(1, 123));
            let mut gen = WorkloadGenerator::new(&rdf, 7);
            let q = gen.generate(&WorkloadConfig::new(QueryShape::Star, 50));
            assert!(q.is_some(), "{} must support size-50 stars", bench.name());
        }
    }

    #[test]
    fn constants_are_injected() {
        let rdf = graph();
        let mut gen = WorkloadGenerator::new(&rdf, 11);
        let mut config = WorkloadConfig::new(QueryShape::Complex, 20);
        config.constant_iri_probability = 0.9;
        let q = gen.generate(&config).unwrap();
        let has_constant_iri = q.query.patterns.iter().any(|p| {
            matches!(&p.subject, TermPattern::Iri(_)) || matches!(&p.object, TermPattern::Iri(_))
        });
        assert!(
            has_constant_iri,
            "high constant probability must inject IRIs:\n{}",
            q.text
        );
    }
}
