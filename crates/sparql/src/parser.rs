//! `parse_select`: the byte-level [`scan`] with a
//! sink that builds the owned AST.
//!
//! Grammar (paper §2.2 plus the standard conveniences real queries use) and
//! error rules are the scanner's: `PREFIX` declarations, `a` (rdf:type)
//! shorthand, `;`/`,` predicate-object lists. SPARQL operators beyond the
//! fragment (`FILTER`, `OPTIONAL`, `UNION`, `GRAPH`, `GROUP`, `ORDER`,
//! `LIMIT`, …) raise
//! [`SparqlErrorKind::Unsupported`](crate::SparqlErrorKind::Unsupported).

use crate::ast::{Projection, SelectQuery, TermPattern, TriplePattern};
use crate::error::SparqlError;
use crate::scanner::{scan, QuerySink, TermRef};

/// Parse a `SELECT … WHERE { … }` query.
pub fn parse_select(input: &str) -> Result<SelectQuery, SparqlError> {
    let mut sink = AstSink::default();
    scan(input, &mut sink)?;
    Ok(sink.query)
}

/// Copies every term into the owned AST.
#[derive(Default)]
struct AstSink {
    query: SelectQuery,
    subject: Option<TermPattern>,
    predicate: Option<TermPattern>,
}

fn owned(term: TermRef<'_>) -> TermPattern {
    match term {
        TermRef::Variable(name) => TermPattern::var(name),
        TermRef::Iri(iri) => TermPattern::iri(iri),
        TermRef::Literal(literal) => TermPattern::Literal(literal.to_literal()),
    }
}

impl QuerySink for AstSink {
    fn subject(&mut self, term: TermRef<'_>) {
        self.subject = Some(owned(term));
    }

    fn predicate(&mut self, iri: &str) {
        self.predicate = Some(TermPattern::iri(iri));
    }

    fn object(&mut self, term: TermRef<'_>) {
        let (Some(subject), Some(predicate)) = (&self.subject, &self.predicate) else {
            unreachable!("the scanner sends a subject and a predicate first")
        };
        self.query.patterns.push(TriplePattern::new(
            subject.clone(),
            predicate.clone(),
            owned(term),
        ));
    }

    fn binds(&self, variable: &str) -> bool {
        self.query
            .patterns
            .iter()
            .any(|p| p.variables().any(|v| v == variable))
    }

    fn finish(&mut self, distinct: bool, projection: Option<&[&str]>) {
        self.query.distinct = distinct;
        self.query.projection = match projection {
            None => Projection::Star,
            Some(variables) => Projection::Variables(variables.iter().map(|&v| v.into()).collect()),
        };
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SparqlErrorKind;
    use rdf_model::Literal;

    #[test]
    fn parses_paper_query_figure_2a() {
        // The running-example query of Fig. 2a (verbatim modulo prefixes).
        let query = parse_select(
            r#"
            PREFIX x: <http://dbpedia.org/resource/>
            PREFIX y: <http://dbpedia.org/ontology/>
            SELECT ?X0 ?X1 ?X2 ?X3 ?X4 ?X5 ?X6 WHERE {
                ?X0 y:livedIn ?X1 .
                ?X1 y:isPartOf ?X2 .
                ?X2 y:hasCapital ?X1 .
                ?X1 y:hasStadium ?X4 .
                ?X3 y:wasBornIn ?X1 .
                ?X3 y:diedIn ?X1 .
                ?X3 y:isMarriedTo ?X6 .
                ?X3 y:wasPartOf ?X5 .
                ?X5 y:wasFormedIn ?X1 .
                ?X4 y:hasCapacity "90000" .
                ?X5 y:hasName "MCA_Band" .
                ?X5 y:foundedIn "1934" .
                ?X3 y:livedIn x:United_States .
            }"#,
        )
        .expect("parse");
        assert_eq!(query.patterns.len(), 13);
        assert_eq!(query.output_variables().len(), 7);
        assert_eq!(
            query.patterns[0].predicate,
            TermPattern::iri("http://dbpedia.org/ontology/livedIn")
        );
        assert_eq!(
            query.patterns[12].object,
            TermPattern::iri("http://dbpedia.org/resource/United_States")
        );
        assert_eq!(
            query.patterns[9].object,
            TermPattern::Literal(Literal::plain("90000"))
        );
    }

    #[test]
    fn select_star_and_distinct() {
        let q = parse_select("SELECT DISTINCT * WHERE { ?s <http://p> ?o . }").unwrap();
        assert!(q.distinct);
        assert_eq!(q.projection, Projection::Star);
        assert_eq!(q.output_variables(), vec!["s", "o"]);
    }

    #[test]
    fn where_keyword_is_optional() {
        let q = parse_select("SELECT ?s { ?s <http://p> ?o }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn predicate_object_lists() {
        let q = parse_select(
            "SELECT * WHERE { ?s <http://p> ?a , ?b ; <http://q> ?c . ?x <http://r> ?s . }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 4);
        assert_eq!(q.patterns[0].subject, q.patterns[1].subject);
        assert_eq!(q.patterns[0].predicate, q.patterns[1].predicate);
        assert_eq!(q.patterns[2].predicate, TermPattern::iri("http://q"));
        assert_eq!(q.patterns[3].subject, TermPattern::var("x"));
    }

    #[test]
    fn rdf_type_shorthand() {
        let q = parse_select("SELECT * WHERE { ?s a <http://x/Class> . }").unwrap();
        assert_eq!(
            q.patterns[0].predicate,
            TermPattern::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        );
    }

    #[test]
    fn rejects_variable_predicate_as_unsupported() {
        let err = parse_select("SELECT * WHERE { ?s ?p ?o . }").unwrap_err();
        assert_eq!(err.kind, SparqlErrorKind::Unsupported);
        assert!(err.message.contains("predicate"));
    }

    #[test]
    fn rejects_filter_union_optional_as_unsupported() {
        for q in [
            "SELECT * WHERE { ?s <http://p> ?o . FILTER(?o > 5) }",
            "SELECT * WHERE { { ?s <http://p> ?o } UNION { ?s <http://q> ?o } }",
            "SELECT * WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://q> ?x } }",
        ] {
            match parse_select(q) {
                Err(e) => assert_eq!(e.kind, SparqlErrorKind::Unsupported, "query: {q}"),
                Ok(_) => {
                    // UNION case: '{' nested — tokenizes but must fail somehow
                    panic!("query should not parse: {q}")
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_prefix() {
        let err = parse_select("SELECT * WHERE { ?s zz:p ?o . }").unwrap_err();
        assert!(err.message.contains("unknown prefix"));
    }

    #[test]
    fn rejects_empty_where() {
        assert!(parse_select("SELECT * WHERE { }").is_err());
    }

    #[test]
    fn rejects_projection_not_in_pattern() {
        let err = parse_select("SELECT ?nope WHERE { ?s <http://p> ?o . }").unwrap_err();
        assert!(err.message.contains("nope"));
        // Reported at the projected variable itself.
        let err = parse_select("SELECT ?s\n  ?nope WHERE {\n ?s <http://p> ?o . }").unwrap_err();
        assert_eq!((err.line, err.column), (2, 3), "{err}");
        let err = parse_select("SELECT ?nope WHERE {\n ?s <p> ?o . }").unwrap_err();
        assert_eq!((err.line, err.column), (1, 8), "{err}");
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse_select("SELECT * WHERE { \"lit\" <http://p> ?o . }").unwrap_err();
        assert!(err.message.contains("subject"));
    }

    #[test]
    fn trailing_dot_optional_before_brace() {
        let q = parse_select("SELECT * WHERE { ?s <http://p> ?o }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn numeric_literal_objects() {
        let q = parse_select("SELECT * WHERE { ?s <http://p> 1934 . }").unwrap();
        let TermPattern::Literal(lit) = &q.patterns[0].object else {
            panic!("expected literal");
        };
        assert_eq!(lit.lexical(), "1934");
    }

    #[test]
    fn numeric_literals_are_typed_by_the_grammar() {
        let xsd = |t: &str| format!("http://www.w3.org/2001/XMLSchema#{t}");
        for (text, lexical, datatype) in [
            ("1e5", "1e5", xsd("double")),
            (
                "123456789012345678901",
                "123456789012345678901",
                xsd("integer"),
            ),
            (".5", ".5", xsd("decimal")),
            ("-2.50", "-2.50", xsd("decimal")),
            ("7.", "7", xsd("integer")),
        ] {
            let q = parse_select(&format!("SELECT * WHERE {{ ?s <http://p> {text} }}")).unwrap();
            assert_eq!(
                q.patterns[0].object,
                TermPattern::Literal(Literal::typed(lexical, rdf_model::Iri::new(datatype))),
                "{text}"
            );
        }
    }

    #[test]
    fn iri_subject_and_object_constants() {
        let q = parse_select(
            "SELECT ?o WHERE { <http://x/A> <http://p> ?o . ?o <http://q> <http://x/B> . }",
        )
        .unwrap();
        assert_eq!(q.patterns[0].subject, TermPattern::iri("http://x/A"));
        assert_eq!(q.patterns[1].object, TermPattern::iri("http://x/B"));
    }

    #[test]
    fn base_is_unsupported() {
        let err =
            parse_select("BASE <http://x/> SELECT * WHERE { ?s <http://p> ?o . }").unwrap_err();
        assert_eq!(err.kind, SparqlErrorKind::Unsupported);
    }

    #[test]
    fn keyword_like_names_are_not_flagged() {
        // Local names and variables that *look* like unsupported keywords
        // must not trip the pre-scan.
        let q = parse_select(
            "PREFIX x: <http://x/> SELECT ?filter WHERE { ?filter x:filter x:LIMIT . }",
        )
        .unwrap();
        assert_eq!(q.output_variables(), vec!["filter"]);
        assert_eq!(q.patterns[0].object, TermPattern::iri("http://x/LIMIT"));
    }

    #[test]
    fn keywords_inside_literals_are_not_flagged() {
        let q = parse_select("SELECT * WHERE { ?s <http://p> \"use FILTER here\" . }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse_select("select ?s where { ?s <http://p> ?o . }").unwrap();
        assert_eq!(q.output_variables(), vec!["s"]);
    }
}
