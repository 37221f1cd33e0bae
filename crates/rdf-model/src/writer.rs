//! N-Triples serialization (the inverse of [`crate::ntriples`]).

use crate::triple::Triple;
use std::fmt::Write as _;

/// Serialize triples as an N-Triples document (one statement per line,
/// trailing newline).
pub fn write_ntriples<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut out = String::new();
    for triple in triples {
        // `Display` for Triple is exactly one N-Triples statement.
        writeln!(out, "{triple}").expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntriples::parse_ntriples;
    use crate::term::{Iri, Literal};

    #[test]
    fn writes_one_statement_per_line() {
        let triples = vec![
            Triple::resource("http://a", "http://p", "http://b"),
            Triple::literal("http://a", "http://q", "42"),
        ];
        let doc = write_ntriples(&triples);
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn round_trips_through_parser() {
        let triples = vec![
            Triple::resource("http://x/London", "http://y/isPartOf", "http://x/England"),
            Triple::literal("http://x/W", "http://y/cap", "90 000 \"quoted\"\nline"),
            Triple::new(
                Iri::new("http://x/L"),
                Iri::new("http://y/name"),
                Literal::lang("Londres", "fr"),
            ),
            Triple::new(
                Iri::new("http://x/W"),
                Iri::new("http://y/cap"),
                Literal::typed("90000", Iri::new("http://www.w3.org/2001/XMLSchema#int")),
            ),
        ];
        let parsed = parse_ntriples(&write_ntriples(&triples)).expect("round trip parse");
        assert_eq!(parsed, triples);
    }

    /// Terms glued into statements: well-formed, escaped (decoding to an
    /// allowed or to a forbidden IRI character), relative, empty, and
    /// Turtle-only spellings.
    const TERMS: &[&str] = &[
        "<http://x/a>",
        "<b0>",
        "<http://x/\\u0041>",
        "<http://x/\\U0001F600\u{a0}é>",
        "<http://x/\\u0020>",
        "<http://x/\\u007B>",
        "<http://x/\\u003E>",
        "<http://x/\\u005C>",
        "<http://x/a b>",
        "<>",
        "_:b0",
        "_:a.b",
        "_:é",
        "\"plain\"",
        "\"\"",
        "\"tab\\there \\\"q\\\" \\\\\"",
        "\"\\u0041\\U0001F600\\u0000\\u000D\"",
        "\"raw\ttab\u{1}\"",
        "\"x\"@en-GB",
        "\"5\"^^<http://t/\\u0069nt>",
        "\"x\"^^<http://www.w3.org/2001/XMLSchema#string>",
        "\"bad\\q\"",
        "'single'",
        "7",
    ];

    /// `triples` written out and read back by `parse_ntriples`: the same
    /// triples (RDF 1.1 makes `"x"^^xsd:string` and `"x"` one term, and
    /// `Literal` builds both as the second).
    fn assert_round_trips(triples: &[Triple], doc: &str) {
        let text = write_ntriples(triples);
        let back = parse_ntriples(&text)
            .unwrap_or_else(|err| panic!("{err} in {text:?}, written from {doc:?}"));
        assert_eq!(back, triples, "{text:?}, written from {doc:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Whatever either reader accepts, the writer renders as text
        /// `parse_ntriples` reads back as the same triples.
        #[test]
        fn accepted_documents_render_to_text_that_reloads(
            picks in proptest::prop::collection::vec(
                (0..TERMS.len(), 0..TERMS.len(), 0..TERMS.len()), 1..4),
        ) {
            let doc: String = picks
                .iter()
                .map(|&(s, p, o)| format!("{} {} {} .\n", TERMS[s], TERMS[p], TERMS[o]))
                .collect();
            if let Ok(triples) = parse_ntriples(&doc) {
                assert_round_trips(&triples, &doc);
            }
            if let Ok(triples) = crate::turtle::parse_turtle(&doc) {
                assert_round_trips(&triples, &doc);
            }
        }
    }
}
