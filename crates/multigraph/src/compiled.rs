//! A SPARQL query compiled to dictionary ids in one pass.
//!
//! In the paper's online stage a query *is* its query multigraph (§2.2.1):
//! variables become vertices and every constant goes through the
//! dictionaries of Table 2 — predicates through `Me`, IRIs through `Mv`,
//! `<predicate, literal>` pairs through `Ma`. [`CompiledQuery::compile`]
//! does exactly that while the byte-level scanner of `amber_sparql` reads
//! the text: the [`QuerySink`] here resolves each constant as it arrives
//! and numbers variables in first-occurrence order (subject before object,
//! pattern by pattern). That numbering *is* the canonical form — two
//! queries that differ only in whitespace, comments, prefix spellings or
//! variable names compile to the same [`QueryKey`].
//!
//! The key is a flat `u32` slice: six words per triple pattern (a tag and
//! a value for the subject, the predicate and the object; a literal object
//! folds with its predicate into one attribute id), then `DISTINCT`, the
//! number of pattern variables and the projection as variable indices.
//! A constant absent from the data makes the query statically empty; the
//! key then carries that constant's text, so two queries naming different
//! absent IRIs never share a key (and an `EXPLAIN` names the right one).
//! The 64-bit [`fingerprint`](CompiledQuery::fingerprint) is an Fx hash of
//! the key; caches use it as a bucket index and compare keys in full.
//!
//! A key holds ids of one graph's dictionaries: it means nothing against
//! another graph. [`CompiledQuery::owner`] carries an identity the caller
//! chose (the engine passes its token) so a compiled query can be refused
//! where it does not belong.

use crate::builder::RdfGraph;
use crate::dictionary::write_attribute_prefix;
use crate::query_graph::{QueryGraph, QueryGraphError};
use amber_sparql::{scan, Projection, QuerySink, SelectQuery, SparqlError, TermPattern, TermRef};
use amber_util::FxHasher;
use rdf_model::LiteralRef;
use std::hash::Hasher;

/// Term tags of the key's words (the value word follows the tag).
pub(crate) mod tag {
    /// A variable; the value is its first-occurrence index.
    pub const VARIABLE: u32 = 0;
    /// A data vertex (`Mv`).
    pub const VERTEX: u32 = 1;
    /// An edge type (`Me`).
    pub const EDGE: u32 = 2;
    /// An attribute (`Ma`): a literal object folded with its predicate.
    pub const ATTRIBUTE: u32 = 3;
    /// Constants absent from the data; the value indexes the key's texts.
    pub const UNKNOWN_VERTEX: u32 = 4;
    pub const UNKNOWN_EDGE: u32 = 5;
    pub const UNKNOWN_ATTRIBUTE: u32 = 6;
    /// The predicate slot of an attribute pattern.
    pub const NONE: u32 = 7;
}

/// Words per triple pattern in a key.
pub(crate) const TRIPLE_WORDS: usize = 6;

/// The identity of a compiled query (see the module docs): equal keys
/// denote the same query multigraph on the graph that compiled them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct QueryKey {
    words: Vec<u32>,
    /// The text of each constant absent from the data, in order of first
    /// occurrence.
    unknown: Vec<Box<str>>,
}

// By hand: `clone_from` reuses the target's buffers, so a plan owner that
// takes query after query's key stops allocating for it.
impl Clone for QueryKey {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            unknown: self.unknown.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.unknown.clone_from(&source.unknown);
    }
}

impl QueryKey {
    fn fingerprint(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for &word in &self.words {
            hasher.write_u32(word);
        }
        for text in &self.unknown {
            hasher.write_usize(text.len());
            hasher.write(text.as_bytes());
        }
        hasher.finish()
    }

    /// The key's parts: the triple words, `DISTINCT`, the pattern-variable
    /// count and the projection.
    pub(crate) fn parts(&self) -> (&[u32], bool, usize, &[u32]) {
        let words = &self.words;
        let projected = *words.last().expect("a key ends in its projection") as usize;
        let projection_start = words.len() - 1 - projected;
        (
            &words[..projection_start - 2],
            words[projection_start - 2] != 0,
            words[projection_start - 1] as usize,
            &words[projection_start..words.len() - 1],
        )
    }
}

/// A query compiled against one graph: its [`QueryKey`], fingerprint,
/// variable names and the reason it is unsatisfiable, if it is.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    key: QueryKey,
    fingerprint: u64,
    /// Variable names by index (pattern variables first, then variables
    /// only the projection names), concatenated.
    names: String,
    name_ends: Vec<u32>,
    unsat_reason: Option<String>,
    owner: u64,
}

impl CompiledQuery {
    /// Scan SPARQL text and resolve it against `rdf`'s dictionaries in one
    /// pass. `owner` is stored for the caller (see the module docs).
    pub fn compile(text: &str, rdf: &RdfGraph, owner: u64) -> Result<Self, SparqlError> {
        let mut compiler = Compiler::new(rdf);
        scan(text, &mut compiler)?;
        Ok(compiler.into_compiled(owner))
    }

    /// Compile an already-parsed query: its patterns are replayed into the
    /// same sink [`Self::compile`] uses, so text and AST give equal keys.
    /// Fails on an AST the scanner would never produce (a variable or
    /// literal predicate, a literal subject).
    pub fn from_ast(
        query: &SelectQuery,
        rdf: &RdfGraph,
        owner: u64,
    ) -> Result<Self, QueryGraphError> {
        for pattern in &query.patterns {
            match &pattern.predicate {
                TermPattern::Variable(v) => {
                    return Err(QueryGraphError::VariablePredicate(v.clone()))
                }
                TermPattern::Literal(_) => return Err(QueryGraphError::LiteralPredicate),
                TermPattern::Iri(_) => {}
            }
            if matches!(pattern.subject, TermPattern::Literal(_)) {
                return Err(QueryGraphError::LiteralSubject);
            }
        }
        let mut compiler = Compiler::new(rdf);
        for pattern in &query.patterns {
            compiler.subject(term(&pattern.subject));
            if let TermPattern::Iri(predicate) = &pattern.predicate {
                compiler.predicate(predicate);
            }
            compiler.object(term(&pattern.object));
        }
        match &query.projection {
            Projection::Star => compiler.finish(query.distinct, None),
            Projection::Variables(variables) => {
                let names: Vec<&str> = variables.iter().map(AsRef::as_ref).collect();
                compiler.finish(query.distinct, Some(&names));
            }
        }
        Ok(compiler.into_compiled(owner))
    }

    /// The id key (cache identity).
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// Fx hash of the key (cache bucket index).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The identity this query was compiled for.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Number of projected variables.
    pub fn output_len(&self) -> usize {
        self.key.parts().3.len()
    }

    /// The projected variable names as the query spelled them, in
    /// projection order (the answer's header).
    pub fn output_variables(&self) -> Vec<Box<str>> {
        self.key
            .parts()
            .3
            .iter()
            .map(|&index| self.name(index as usize).into())
            .collect()
    }

    /// `Some(reason)` when a constant of the query is absent from the data,
    /// so the answer is empty.
    pub fn unsat_reason(&self) -> Option<&str> {
        self.unsat_reason.as_deref()
    }

    /// The query multigraph, assembled from the key's ids (no dictionary
    /// lookup) into a fresh graph ([`QueryGraph::rebuild`]); its vertices
    /// carry this query's variable names.
    pub fn query_graph(&self) -> QueryGraph {
        let mut qg = QueryGraph::default();
        qg.rebuild(self);
        qg
    }

    /// The variable names, concatenated, and where each one ends.
    pub(crate) fn name_layout(&self) -> (&str, &[u32]) {
        (&self.names, &self.name_ends)
    }

    fn name(&self, index: usize) -> &str {
        let start = match index {
            0 => 0,
            _ => self.name_ends[index - 1] as usize,
        };
        &self.names[start..self.name_ends[index] as usize]
    }
}

fn term(term: &TermPattern) -> TermRef<'_> {
    match term {
        TermPattern::Variable(name) => TermRef::Variable(name),
        TermPattern::Iri(iri) => TermRef::Iri(iri),
        TermPattern::Literal(literal) => TermRef::Literal(LiteralRef::from(literal)),
    }
}

/// The sink that resolves terms to ids as the scanner delivers them.
struct Compiler<'g> {
    rdf: &'g RdfGraph,
    literals_as_vertices: bool,
    words: Vec<u32>,
    unknown: Vec<Box<str>>,
    names: String,
    name_ends: Vec<u32>,
    unsat_reason: Option<String>,
    /// The current subject, resolved.
    subject: (u32, u32),
    /// The current predicate's text.
    predicate: String,
    /// The current literal object's key: its `Ma` key, or a literal
    /// vertex's N-Triples form.
    key: String,
    /// The predicate's edge type, once an object needs it (a predicate
    /// with only literal objects is no edge type).
    edge: Option<(u32, u32)>,
    /// The predicate's id among `Ma`'s predicates, once a literal object
    /// needs it; `Some(None)` when it carries no literal in the data.
    attribute_predicate: Option<Option<u32>>,
}

impl<'g> Compiler<'g> {
    fn new(rdf: &'g RdfGraph) -> Self {
        Self {
            rdf,
            literals_as_vertices: rdf.config().literals_as_vertices,
            words: Vec::with_capacity(8 * TRIPLE_WORDS),
            unknown: Vec::new(),
            names: String::new(),
            name_ends: Vec::new(),
            unsat_reason: None,
            subject: (tag::NONE, 0),
            predicate: String::new(),
            key: String::new(),
            edge: None,
            attribute_predicate: None,
        }
    }

    /// Look up the current literal object's `Ma` key, composed in `key`
    /// (the literal's N-Triples form alone when the predicate carries no
    /// literal in the data, and the lookup fails); where the literal
    /// starts in `key`.
    fn attribute(&mut self, literal: LiteralRef<'_>) -> (Option<u32>, usize) {
        let dicts = self.rdf.dictionaries();
        let predicate = *self
            .attribute_predicate
            .get_or_insert_with(|| dicts.attribute_predicates.get(&self.predicate));
        self.key.clear();
        let known = predicate.and_then(|p| write_attribute_prefix(&mut self.key, p));
        let start = self.key.len();
        literal.write_ntriples(&mut self.key);
        let attr = known.and_then(|()| dicts.attributes.get(&self.key));
        (attr, start)
    }

    fn into_compiled(self, owner: u64) -> CompiledQuery {
        let key = QueryKey {
            words: self.words,
            unknown: self.unknown,
        };
        CompiledQuery {
            fingerprint: key.fingerprint(),
            key,
            names: self.names,
            name_ends: self.name_ends,
            unsat_reason: self.unsat_reason,
            owner,
        }
    }

    /// A variable's index, numbering it on first occurrence.
    fn variable(&mut self, name: &str) -> u32 {
        if let Some(index) = self.find_variable(name) {
            return index;
        }
        self.names.push_str(name);
        self.name_ends.push(self.names.len() as u32);
        (self.name_ends.len() - 1) as u32
    }

    fn find_variable(&self, name: &str) -> Option<u32> {
        let names = self.names.as_bytes();
        let mut start = 0;
        for (index, &end) in self.name_ends.iter().enumerate() {
            let end = end as usize;
            if end - start == name.len() && &names[start..end] == name.as_bytes() {
                return Some(index as u32);
            }
            start = end;
        }
        None
    }

    /// An absent constant: its text, once per distinct text.
    fn unknown(&mut self, tag: u32, text: &str) -> (u32, u32) {
        let index = match self.unknown.iter().position(|t| t.as_ref() == text) {
            Some(index) => index,
            None => {
                self.unknown.push(text.into());
                self.unknown.len() - 1
            }
        };
        (tag, index as u32)
    }

    fn vertex(&mut self, key: &str) -> (u32, u32) {
        match self.rdf.vertex_by_key(key) {
            Some(v) => (tag::VERTEX, v.0),
            None => self.unknown(tag::UNKNOWN_VERTEX, key),
        }
    }

    /// Only the first reason is kept, as the query graph reports one.
    fn mark_unsat(&mut self, reason: impl FnOnce(&Self) -> String) {
        if self.unsat_reason.is_none() {
            self.unsat_reason = Some(reason(self));
        }
    }

    fn mark_unknown_vertex(&mut self, (tag, value): (u32, u32)) {
        if tag == tag::UNKNOWN_VERTEX {
            self.mark_unsat(|c| {
                format!(
                    "IRI <{}> does not occur in the data",
                    c.unknown[value as usize]
                )
            });
        }
    }
}

impl QuerySink for Compiler<'_> {
    fn subject(&mut self, term: TermRef<'_>) {
        self.subject = match term {
            TermRef::Variable(name) => (tag::VARIABLE, self.variable(name)),
            TermRef::Iri(iri) => self.vertex(iri),
            TermRef::Literal(_) => unreachable!("the scanner rejects literal subjects"),
        };
    }

    fn predicate(&mut self, iri: &str) {
        self.predicate.clear();
        self.predicate.push_str(iri);
        self.edge = None;
        self.attribute_predicate = None;
    }

    fn object(&mut self, term: TermRef<'_>) {
        let subject = self.subject;
        let (predicate, object) = match term {
            // `?s <p> "lit"`: an attribute of the subject. The subject is
            // checked first, then the attribute.
            TermRef::Literal(literal) if !self.literals_as_vertices => {
                self.mark_unknown_vertex(subject);
                let object = match self.attribute(literal) {
                    (Some(attr), _) => (tag::ATTRIBUTE, attr),
                    (None, start) => {
                        self.mark_unsat(|c| {
                            format!(
                                "attribute <{}> {} does not occur in the data",
                                c.predicate,
                                &c.key[start..]
                            )
                        });
                        // The pair's text, `\0` between its halves (no
                        // IRI holds one), so each absent pair keys apart.
                        let text = format!("{}\u{0}{}", self.predicate, &self.key[start..]);
                        self.unknown(tag::UNKNOWN_ATTRIBUTE, &text)
                    }
                };
                ((tag::NONE, 0), object)
            }
            // An edge: the predicate is checked first, then the subject,
            // then the object.
            term => {
                let edge = match self.edge {
                    Some(edge) => edge,
                    None => {
                        let edge = match self.rdf.edge_type_by_iri(&self.predicate) {
                            Some(t) => (tag::EDGE, t.0),
                            None => {
                                let predicate = std::mem::take(&mut self.predicate);
                                let edge = self.unknown(tag::UNKNOWN_EDGE, &predicate);
                                self.predicate = predicate;
                                edge
                            }
                        };
                        self.edge = Some(edge);
                        edge
                    }
                };
                if edge.0 == tag::UNKNOWN_EDGE {
                    self.mark_unsat(|c| {
                        format!(
                            "predicate <{}> has no IRI or blank-node object in the data",
                            c.predicate
                        )
                    });
                }
                self.mark_unknown_vertex(subject);
                let object = match term {
                    TermRef::Variable(name) => (tag::VARIABLE, self.variable(name)),
                    TermRef::Iri(iri) => self.vertex(iri),
                    // Literals-as-vertices mode: a literal object is the
                    // vertex keyed by its N-Triples form.
                    TermRef::Literal(literal) => {
                        self.key.clear();
                        literal.write_ntriples(&mut self.key);
                        let key = std::mem::take(&mut self.key);
                        let object = self.vertex(&key);
                        self.key = key;
                        object
                    }
                };
                self.mark_unknown_vertex(object);
                (edge, object)
            }
        };
        self.words.extend_from_slice(&[
            subject.0,
            subject.1,
            predicate.0,
            predicate.1,
            object.0,
            object.1,
        ]);
    }

    fn binds(&self, variable: &str) -> bool {
        self.find_variable(variable).is_some()
    }

    fn finish(&mut self, distinct: bool, projection: Option<&[&str]>) {
        let pattern_vars = self.name_ends.len() as u32;
        self.words
            .extend_from_slice(&[u32::from(distinct), pattern_vars]);
        let projection_start = self.words.len();
        match projection {
            // `SELECT *`: the pattern variables in first-occurrence order.
            None => self.words.extend(0..pattern_vars),
            // Variables only the projection names number after the
            // pattern variables, in projection order.
            Some(variables) => {
                for variable in variables {
                    let index = self.variable(variable);
                    self.words.push(index);
                }
            }
        }
        let projected = (self.words.len() - projection_start) as u32;
        self.words.push(projected);
    }

    fn reset(&mut self) {
        *self = Self::new(self.rdf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphConfig;
    use crate::GraphBuilder;
    use amber_sparql::parse_select;

    const DATA: &str = r#"
<http://x/A> <http://p/e1> <http://x/B> .
<http://x/B> <http://p/e2> <http://x/C> .
<http://x/A> <http://p/name> "alpha" .
<http://x/A> <http://p/name> <http://x/alpha> .
"#;

    fn data(literals_as_vertices: bool) -> RdfGraph {
        let mut builder = GraphBuilder::with_config(GraphConfig {
            literals_as_vertices,
        });
        builder.add_ntriples(DATA).unwrap();
        builder.finish()
    }

    fn compile(text: &str, rdf: &RdfGraph) -> CompiledQuery {
        CompiledQuery::compile(text, rdf, 0).unwrap()
    }

    #[test]
    fn spellings_of_one_query_share_a_key() {
        let rdf = data(false);
        let a = compile(
            "SELECT * WHERE { ?a <http://p/e1> ?b . ?b <http://p/e2> ?c }",
            &rdf,
        );
        let b = compile(
            "PREFIX p: <http://p/>\nselect ?x ?y ?z { ?x p:e1 ?y . # comment\n ?y p:e2 ?z . }",
            &rdf,
        );
        assert_eq!(a.key(), b.key());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Headers stay the caller's.
        assert_eq!(
            b.output_variables(),
            vec!["x".into(), "y".into(), "z".into()]
        );
    }

    #[test]
    fn text_and_ast_compile_to_one_key() {
        let rdf = data(false);
        for text in [
            "SELECT ?b WHERE { <http://x/A> <http://p/e1> ?b ; <http://p/name> \"alpha\" }",
            "SELECT DISTINCT * WHERE { <http://x/Nope> <http://p/e9> ?b , ?c }",
        ] {
            let from_text = compile(text, &rdf);
            let from_ast = CompiledQuery::from_ast(&parse_select(text).unwrap(), &rdf, 0).unwrap();
            assert_eq!(from_text.key(), from_ast.key(), "{text}");
            assert_eq!(from_text.unsat_reason(), from_ast.unsat_reason());
        }
    }

    #[test]
    fn absent_constants_keep_queries_apart() {
        let rdf = data(false);
        let a = compile("SELECT * WHERE { ?s <http://p/e1> <http://x/Nope1> }", &rdf);
        let b = compile("SELECT * WHERE { ?s <http://p/e1> <http://x/Nope2> }", &rdf);
        assert_ne!(a.key(), b.key());
        assert!(a.unsat_reason().unwrap().contains("<http://x/Nope1>"));
        assert!(b.unsat_reason().unwrap().contains("<http://x/Nope2>"));
    }

    #[test]
    fn absent_attributes_differing_in_their_predicate_keep_apart() {
        // `"alpha"` occurs under `name` only; `e1` carries no literal, and
        // `nope` is no predicate of the data at all.
        let rdf = data(false);
        let queries = [
            ("http://p/name", "\"beta\""),
            ("http://p/e1", "\"beta\""),
            ("http://p/nope", "\"beta\""),
            ("http://p/e1", "\"alpha\""),
            ("http://p/nope", "\"alpha\""),
        ];
        let compiled: Vec<CompiledQuery> = queries
            .iter()
            .map(|(predicate, literal)| {
                let q = compile(
                    &format!("SELECT * WHERE {{ ?s <{predicate}> {literal} }}"),
                    &rdf,
                );
                assert_eq!(
                    q.unsat_reason(),
                    Some(&*format!(
                        "attribute <{predicate}> {literal} does not occur in the data"
                    ))
                );
                q
            })
            .collect();
        for (i, a) in compiled.iter().enumerate() {
            for b in &compiled[i + 1..] {
                assert_ne!(
                    a.key(),
                    b.key(),
                    "{:?} and {:?}",
                    a.unsat_reason(),
                    b.unsat_reason()
                );
            }
        }
        // The pair that does occur resolves, and keys apart from them all.
        let known = compile("SELECT * WHERE { ?s <http://p/name> \"alpha\" }", &rdf);
        assert!(known.unsat_reason().is_none());
        assert!(compiled.iter().all(|q| q.key() != known.key()));
    }

    #[test]
    fn literal_and_iri_objects_never_alias() {
        for literals_as_vertices in [false, true] {
            let rdf = data(literals_as_vertices);
            let literal = compile("SELECT * WHERE { ?x <http://p/name> \"alpha\" }", &rdf);
            let iri = compile(
                "SELECT * WHERE { ?x <http://p/name> <http://x/alpha> }",
                &rdf,
            );
            assert_ne!(
                literal.key(),
                iri.key(),
                "literals as vertices: {literals_as_vertices}"
            );
            assert!(literal.unsat_reason().is_none() && iri.unsat_reason().is_none());
        }
    }

    #[test]
    fn the_first_unknown_constant_is_the_reason() {
        let rdf = data(false);
        let q = compile(
            "SELECT * WHERE { <http://x/S> <http://p/P> <http://x/O> }",
            &rdf,
        );
        assert_eq!(
            q.unsat_reason(),
            Some("predicate <http://p/P> has no IRI or blank-node object in the data")
        );
        let q = compile("SELECT * WHERE { ?s <http://p/name> \"beta\"@en }", &rdf);
        assert_eq!(
            q.unsat_reason(),
            Some("attribute <http://p/name> \"beta\"@en does not occur in the data")
        );
    }

    #[test]
    fn a_predicate_with_only_literal_objects_is_no_edge_type() {
        // `<http://e/q>` occurs, but only as an attribute: the reason must
        // not claim it is absent from the data.
        let text = "SELECT * WHERE { ?s <http://e/q> ?o }";
        let graph = |literals_as_vertices| {
            let mut builder = GraphBuilder::with_config(GraphConfig {
                literals_as_vertices,
            });
            builder
                .add_ntriples("<http://e/s> <http://e/q> \"x\" .\n")
                .unwrap();
            builder.finish()
        };
        assert_eq!(
            compile(text, &graph(false)).unsat_reason(),
            Some("predicate <http://e/q> has no IRI or blank-node object in the data")
        );
        // With literals as vertices the literal is an object vertex.
        assert_eq!(compile(text, &graph(true)).unsat_reason(), None);
    }
}
