#![forbid(unsafe_code)]
//! Streaming construction of the data multigraph from RDF triples
//! (the paper's offline transformation, §2.1.1).
//!
//! The four transformation protocols of §2.1.1:
//!
//! 1. a subject is always a vertex,
//! 2. a predicate is always an edge (type),
//! 3. an IRI object is a vertex,
//! 4. a literal object is folded with its predicate into a vertex attribute
//!    `<p, o>` of the subject.
//!
//! [`GraphConfig::literals_as_vertices`] switches protocol 4 off and
//! materializes literals as vertices instead — the extension mode discussed
//! in DESIGN.md (full-SPARQL semantics for variable objects over literals).
//!
//! The builder *encodes once, then sorts ids*: each triple's terms are
//! interned straight from borrowed text ([`TripleRef`] — the N-Triples
//! scanner's output, or a view of an owned [`Triple`]) and the triple is
//! appended as a tuple of ids to one of two flat vectors. A run of triples
//! with one IRI subject (how subject-sorted dumps are written) probes the
//! vertex dictionary for that subject once: the builder remembers the last
//! IRI subject's vertex and compares the next subject with its text.
//! [`GraphBuilder::finish`] hands the tuples to `DataGraph::assemble`,
//! which places them in per-vertex rows (a counting sort by source vertex)
//! and sorts and deduplicates each row in place. Ids are assigned in first-seen
//! order: subject vertex, then object vertex and edge type, or attribute.

use crate::data_graph::DataGraph;
use crate::dictionary::{write_attribute_key, Dictionaries};
use crate::ids::{AttrId, EdgeTypeId, VertexId};
use amber_util::HeapSize;
use rdf_model::{LiteralRef, NtParseError, NtScanner, ObjectRef, SubjectRef, Triple, TripleRef};

/// Construction options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphConfig {
    /// When `true`, literal objects become vertices (keyed by their
    /// N-Triples form) instead of vertex attributes. Default: `false`
    /// (the paper's model).
    pub literals_as_vertices: bool,
}

/// Accumulates triples and finalizes into an [`RdfGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    config: GraphConfig,
    dicts: Dictionaries,
    /// One `(from, to, type)` per resource triple, as consumed.
    edges: Vec<(VertexId, VertexId, EdgeTypeId)>,
    /// One `(vertex, attribute)` per literal triple, as consumed.
    attrs: Vec<(VertexId, AttrId)>,
    /// Reused buffer for the keys that are composed rather than borrowed:
    /// `_:label`, `predicate\0literal`, a literal vertex's N-Triples form.
    key: String,
    /// The vertex of the last IRI subject; its text is its dictionary key.
    last_subject: Option<VertexId>,
    triple_count: usize,
}

impl GraphBuilder {
    /// A builder with the paper's default transformation.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with explicit [`GraphConfig`].
    pub fn with_config(config: GraphConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Pre-intern a vertex, pinning its id to the current dictionary size.
    ///
    /// Lets tests and generators reproduce a specific id assignment (e.g.
    /// the exact `v0…v8` of the paper's Table 2a) regardless of triple
    /// order.
    pub fn declare_vertex(&mut self, key: &str) -> VertexId {
        VertexId(self.dicts.vertices.intern(key))
    }

    /// Pre-intern an edge type (see [`GraphBuilder::declare_vertex`]).
    pub fn declare_edge_type(&mut self, predicate: &str) -> EdgeTypeId {
        EdgeTypeId(self.dicts.edge_types.intern(predicate))
    }

    /// Pre-intern an attribute (see [`GraphBuilder::declare_vertex`]).
    pub fn declare_attribute(&mut self, predicate: &str, literal: &rdf_model::Literal) -> AttrId {
        self.attribute(predicate, literal.into())
    }

    fn attribute(&mut self, predicate: &str, literal: LiteralRef<'_>) -> AttrId {
        self.key.clear();
        write_attribute_key(&mut self.key, predicate, literal);
        AttrId(self.dicts.attributes.intern(&self.key))
    }

    /// The vertex of a blank node: keyed `_:label`, so it cannot collide
    /// with an IRI spelled like the label.
    fn blank_vertex(&mut self, label: &str) -> VertexId {
        self.key.clear();
        self.key.push_str("_:");
        self.key.push_str(label);
        VertexId(self.dicts.vertices.intern(&self.key))
    }

    /// The vertex of an IRI subject: the last one's again, or a lookup.
    fn subject_vertex(&mut self, iri: &str) -> VertexId {
        if let Some(last) = self.last_subject {
            if self.dicts.vertices.resolve(last.0) == Some(iri) {
                return last;
            }
        }
        let subject = self.declare_vertex(iri);
        self.last_subject = Some(subject);
        subject
    }

    /// Add one RDF triple.
    pub fn add_triple(&mut self, triple: &Triple) {
        self.add_triple_ref(triple.into());
    }

    /// Add one RDF triple whose terms are borrowed.
    pub fn add_triple_ref(&mut self, triple: TripleRef<'_>) {
        self.triple_count += 1;
        let subject = match triple.subject {
            SubjectRef::Iri(iri) => self.subject_vertex(iri),
            SubjectRef::Blank(label) => self.blank_vertex(label),
        };
        let object = match triple.object {
            ObjectRef::Literal(literal) if !self.config.literals_as_vertices => {
                // Protocol 4: <predicate, literal> becomes an attribute of
                // the subject vertex.
                let attr = self.attribute(triple.predicate, literal);
                self.attrs.push((subject, attr));
                return;
            }
            ObjectRef::Literal(literal) => {
                // Extension mode: a vertex keyed by the N-Triples form.
                self.key.clear();
                literal.write_ntriples(&mut self.key);
                VertexId(self.dicts.vertices.intern(&self.key))
            }
            ObjectRef::Iri(iri) => self.declare_vertex(iri),
            ObjectRef::Blank(label) => self.blank_vertex(label),
        };
        let edge_type = self.declare_edge_type(triple.predicate);
        self.edges.push((subject, object, edge_type));
    }

    /// Add many triples.
    pub fn add_triples<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        for t in triples {
            self.add_triple(t);
        }
    }

    /// Scan an N-Triples document and add its triples, interning every
    /// term from the text it was read from. On a malformed statement the
    /// triples before it stay added.
    pub fn add_ntriples(&mut self, input: &str) -> Result<(), NtParseError> {
        let mut scanner = NtScanner::new(input);
        while let Some(triple) = scanner.next_triple() {
            self.add_triple_ref(triple?);
        }
        Ok(())
    }

    /// Finalize into the immutable graph + dictionaries bundle.
    pub fn finish(mut self) -> RdfGraph {
        self.dicts.vertices.shrink_to_fit();
        self.dicts.edge_types.shrink_to_fit();
        self.dicts.attributes.shrink_to_fit();
        let graph = DataGraph::assemble(
            self.dicts.vertices.len(),
            self.edges,
            self.attrs,
            self.dicts.edge_types.len(),
        );
        RdfGraph {
            graph,
            dicts: self.dicts,
            triple_count: self.triple_count,
            config: self.config,
        }
    }
}

/// Table 4-style statistics of a loaded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// RDF triples consumed.
    pub triples: usize,
    /// `|V|`.
    pub vertices: usize,
    /// `|E|` (directed vertex pairs with a multi-edge).
    pub edges: usize,
    /// `|T|` (distinct predicates that became edge types).
    pub edge_types: usize,
    /// `|A|` (distinct `<predicate, literal>` attributes).
    pub attributes: usize,
}

/// A data multigraph together with its dictionaries — the output of the
/// offline transformation stage.
#[derive(Debug, Clone)]
pub struct RdfGraph {
    graph: DataGraph,
    dicts: Dictionaries,
    triple_count: usize,
    config: GraphConfig,
}

impl RdfGraph {
    /// Reassemble from restored parts (snapshot loading).
    pub(crate) fn from_restored(
        graph: DataGraph,
        dicts: Dictionaries,
        triple_count: usize,
        config: GraphConfig,
    ) -> Self {
        Self {
            graph,
            dicts,
            triple_count,
            config,
        }
    }

    /// Transform a tripleset with the default (paper) configuration.
    pub fn from_triples<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> Self {
        let mut builder = GraphBuilder::new();
        builder.add_triples(triples);
        builder.finish()
    }

    /// Parse and transform an N-Triples document.
    pub fn parse_ntriples(input: &str) -> Result<Self, NtParseError> {
        let mut builder = GraphBuilder::new();
        builder.add_ntriples(input)?;
        Ok(builder.finish())
    }

    /// Parse and transform a Turtle document (the subset real dumps use —
    /// see [`rdf_model::turtle`]).
    pub fn parse_turtle(input: &str) -> Result<Self, rdf_model::TurtleParseError> {
        let triples = rdf_model::parse_turtle(input)?;
        Ok(Self::from_triples(&triples))
    }

    /// The multigraph `G`.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The dictionaries (Table 2).
    pub fn dictionaries(&self) -> &Dictionaries {
        &self.dicts
    }

    /// The construction configuration.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Number of RDF triples consumed.
    pub fn triple_count(&self) -> usize {
        self.triple_count
    }

    /// Forward vertex lookup (`Mv`), by dictionary key (IRI text or
    /// `_:label`).
    pub fn vertex_by_key(&self, key: &str) -> Option<VertexId> {
        self.dicts.vertices.get(key).map(VertexId)
    }

    /// Forward edge-type lookup (`Me`) by predicate IRI.
    pub fn edge_type_by_iri(&self, iri: &str) -> Option<EdgeTypeId> {
        self.dicts.edge_types.get(iri).map(EdgeTypeId)
    }

    /// Inverse vertex lookup (`Mv⁻¹`).
    pub fn vertex_name(&self, v: VertexId) -> &str {
        self.dicts
            .vertices
            .resolve(v.0)
            .expect("vertex id from this graph")
    }

    /// Inverse edge-type lookup (`Me⁻¹`).
    pub fn edge_type_name(&self, t: EdgeTypeId) -> &str {
        self.dicts
            .edge_types
            .resolve(t.0)
            .expect("edge type id from this graph")
    }

    /// Table 4-style statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            triples: self.triple_count,
            vertices: self.graph.vertex_count(),
            edges: self.graph.edge_pair_count(),
            edge_types: self.graph.edge_type_count(),
            attributes: self.dicts.attributes.len(),
        }
    }
}

impl HeapSize for RdfGraph {
    fn heap_size(&self) -> usize {
        self.graph.heap_size() + self.dicts.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_graph::AdjEntry;
    use crate::reference::reference_snapshot;
    use rdf_model::parse_ntriples;

    const SAMPLE: &str = r#"
<http://x/London> <http://y/isPartOf> <http://x/England> .
<http://x/England> <http://y/hasCapital> <http://x/London> .
<http://x/WembleyStadium> <http://y/hasCapacityOf> "90000" .
<http://x/London> <http://y/hasStadium> <http://x/WembleyStadium> .
<http://x/London> <http://y/isPartOf> <http://x/England> .
"#;

    #[test]
    fn builds_vertices_edges_attributes() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let rdf = RdfGraph::from_triples(&triples);
        let stats = rdf.stats();
        assert_eq!(stats.triples, 5);
        assert_eq!(stats.vertices, 3); // London, England, WembleyStadium
        assert_eq!(stats.edges, 3); // L->E, E->L, L->W
        assert_eq!(stats.edge_types, 3); // isPartOf, hasCapital, hasStadium
        assert_eq!(stats.attributes, 1); // <hasCapacityOf,"90000">
    }

    #[test]
    fn duplicate_triples_collapse() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let rdf = RdfGraph::from_triples(&triples);
        let london = rdf.vertex_by_key("http://x/London").unwrap();
        let england = rdf.vertex_by_key("http://x/England").unwrap();
        let m = rdf.graph().multi_edge(london, england);
        assert_eq!(m.len(), 1, "duplicate isPartOf must not duplicate the type");
    }

    #[test]
    fn literal_objects_become_attributes() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let rdf = RdfGraph::from_triples(&triples);
        let wembley = rdf.vertex_by_key("http://x/WembleyStadium").unwrap();
        let attrs = rdf.graph().attributes(wembley);
        assert_eq!(attrs.len(), 1);
        let (pred, lit) = rdf.dictionaries().resolve_attribute(attrs[0]).unwrap();
        assert_eq!(pred, "http://y/hasCapacityOf");
        assert_eq!(lit, "\"90000\"");
        // and the literal did NOT become a vertex
        assert!(rdf.vertex_by_key("\"90000\"").is_none());
    }

    #[test]
    fn literals_as_vertices_mode() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let mut builder = GraphBuilder::with_config(GraphConfig {
            literals_as_vertices: true,
        });
        builder.add_triples(&triples);
        let rdf = builder.finish();
        assert_eq!(rdf.stats().vertices, 4); // + the "90000" literal vertex
        assert_eq!(rdf.stats().attributes, 0);
        let lit_vertex = rdf.vertex_by_key("\"90000\"").unwrap();
        let wembley = rdf.vertex_by_key("http://x/WembleyStadium").unwrap();
        assert!(!rdf.graph().multi_edge(wembley, lit_vertex).is_empty());
    }

    #[test]
    fn parse_ntriples_convenience() {
        let rdf = RdfGraph::parse_ntriples(SAMPLE).unwrap();
        assert_eq!(rdf.triple_count(), 5);
        assert!(RdfGraph::parse_ntriples("garbage").is_err());
    }

    #[test]
    fn in_out_adjacency_are_symmetric() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let rdf = RdfGraph::from_triples(&triples);
        let g = rdf.graph();
        for v in g.vertices() {
            for e in g.out_edges(v) {
                let mirror = AdjEntry {
                    neighbor: v,
                    types: e.types,
                };
                assert!(g.in_edges(e.neighbor).binary_search(&mirror).is_ok());
            }
        }
    }

    #[test]
    fn inverse_lookups_round_trip() {
        let triples = parse_ntriples(SAMPLE).unwrap();
        let rdf = RdfGraph::from_triples(&triples);
        let v = rdf.vertex_by_key("http://x/London").unwrap();
        assert_eq!(rdf.vertex_name(v), "http://x/London");
        let t = rdf.edge_type_by_iri("http://y/isPartOf").unwrap();
        assert_eq!(rdf.edge_type_name(t), "http://y/isPartOf");
    }

    #[test]
    fn blank_nodes_are_vertices() {
        let rdf = RdfGraph::parse_ntriples("_:a <http://y/knows> _:b .").unwrap();
        assert_eq!(rdf.stats().vertices, 2);
        assert!(rdf.vertex_by_key("_:a").is_some());
    }

    #[test]
    fn empty_graph() {
        let rdf = RdfGraph::from_triples([]);
        assert_eq!(rdf.stats().vertices, 0);
        assert_eq!(rdf.stats().triples, 0);
        assert_eq!(rdf.graph().vertex_count(), 0);
    }

    /// Text route, owned route and the reference agree byte for byte, in
    /// both literal modes.
    fn assert_routes_agree(doc: &str) {
        let triples = parse_ntriples(doc).expect("test documents are well-formed");
        for literals_as_vertices in [false, true] {
            let config = GraphConfig {
                literals_as_vertices,
            };
            let mut from_text = GraphBuilder::with_config(config);
            from_text.add_ntriples(doc).unwrap();
            let mut from_owned = GraphBuilder::with_config(config);
            from_owned.add_triples(&triples);
            let expected = reference_snapshot(&triples, literals_as_vertices);
            assert_eq!(
                from_text.finish().to_snapshot(),
                expected,
                "text route, {doc:?}"
            );
            assert_eq!(
                from_owned.finish().to_snapshot(),
                expected,
                "owned route, {doc:?}"
            );
        }
    }

    #[test]
    fn awkward_documents_build_the_reference_graph() {
        // duplicates, parallel multi-edges, self-loops
        assert_routes_agree(
            "<a> <p> <b> .\n<a> <q> <b> .\n<a> <p> <b> .\n<b> <p> <a> .\n<a> <p> <a> .\n<a> <q> <a> .\n<a> <p> <a> .",
        );
        // a blank node beside an IRI spelled like its label
        assert_routes_agree("_:b0 <p> <b0> .\n<b0> <p> _:b0 .\n_:b0 <q> \"x\" .\n<b0> <q> \"x\" .");
        // one literal, four spellings; and spellings that must stay apart
        assert_routes_agree(concat!(
            "<a> <p> \"\\u0041\" .\n<a> <p> \"A\" .\n<a> <p> \"\\U00000041\" .\n",
            "<a> <p> \"raw\ttab\" .\n<a> <p> \"raw\\ttab\" .\n<a> <p> \"raw\\u0009tab\" .\n",
            "<a> <p> \"A\"@en .\n<a> <p> \"A\"^^<t> .\n<a> <p> \"A\"^^<\\u0074> .\n",
            "<a> <p> \"q\\\"uote\\\\\" .\n<a> <p> \"mid\rcr\" .\n<a> <p> \"mid\\rcr\" .\n",
            "<\\u0061> <\\u0070> <\\u0062> .\n<a> <p> <b> .\n",
        ));
        // runs of one subject, broken by a blank node and by an IRI
        // spelled like the blank node's key
        assert_routes_agree(concat!(
            "<a> <p> <b> .\n<a> <q> \"x\" .\n<a> <p> <a> .\n_:a <p> <a> .\n<a> <q> _:a .\n",
            "<_:a> <p> <a> .\n<_:a> <q> \"x\" .\n<b> <p> <a> .\n<a> <p> <b> .\n<a> <r> <c> .\n",
        ));
        assert_routes_agree("");
        assert_routes_agree("# only a comment\n\n");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        #[test]
        fn generated_documents_build_the_reference_graph(
            rows in proptest::prop::collection::vec((0..6usize, 0..4usize, 0..12usize), 0..60)
        ) {
            const SUBJECTS: [&str; 6] = ["<http://v/0>", "<http://v/1>", "_:b0", "<b0>", "<http://v/\\u0031>", "_:n.1"];
            const PREDICATES: [&str; 4] = ["<http://p/0>", "<http://p/1>", "<http://p/\\u0031>", "<p>"];
            const OBJECTS: [&str; 12] = [
                "<http://v/0>", "<http://v/1>", "_:b0", "<b0>", "_:n.1",
                "\"A\"", "\"\\u0041\"", "\"A\"@en", "\"t\tab\"", "\"t\\tab\"",
                "\"5\"^^<http://t/int>", "\"é \\\"q\\\" \\\\\"",
            ];
            let doc: String = rows
                .into_iter()
                .map(|(s, p, o)| format!("{} {} {} .\n", SUBJECTS[s], PREDICATES[p], OBJECTS[o]))
                .collect();
            assert_routes_agree(&doc);
        }
    }

    #[test]
    fn declared_ids_are_pinned_before_any_triple() {
        let mut builder = GraphBuilder::new();
        assert_eq!(builder.declare_vertex("http://x/late"), VertexId(0));
        assert_eq!(builder.declare_edge_type("http://y/unused"), EdgeTypeId(0));
        let lit = rdf_model::Literal::plain("90000");
        assert_eq!(
            builder.declare_attribute("http://y/hasCapacityOf", &lit),
            AttrId(0)
        );
        builder.add_ntriples(SAMPLE).unwrap();
        let rdf = builder.finish();
        assert_eq!(rdf.vertex_by_key("http://x/late"), Some(VertexId(0)));
        assert_eq!(rdf.vertex_by_key("http://x/London"), Some(VertexId(1)));
        assert_eq!(
            rdf.edge_type_by_iri("http://y/isPartOf"),
            Some(EdgeTypeId(1))
        );
        assert_eq!(rdf.stats().attributes, 1);
        assert!(rdf.graph().out_edges(VertexId(0)).is_empty());
        assert_eq!(rdf.triple_count(), 5);
    }

    #[test]
    fn a_malformed_statement_reports_its_position() {
        let mut builder = GraphBuilder::new();
        let err = builder
            .add_ntriples("<a> <p> <b> .\n<a> <p> é oops .")
            .unwrap_err();
        assert_eq!((err.line, err.column), (2, 9));
    }
}
