//! One term grammar for the three readers: an IRI or literal text, written
//! as the object of one statement, is accepted by `parse_ntriples`,
//! `parse_turtle` and `parse_select` as the same term, or refused by all
//! three with a positioned error. A term the shared lexer itself refuses
//! (`rdf_model::lex`) is refused with one message at one column of the
//! term, whichever reader reads it.

use amber_sparql::{parse_select, TermPattern};
use proptest::prelude::*;
use rdf_model::{parse_ntriples, parse_turtle, Iri, Object};

/// Pieces of an IRI's text between `<` and `>`: plain and non-ASCII
/// characters, U+00A0, escapes (decoding to an allowed or a forbidden
/// character, malformed), and the characters IRIREF forbids.
const IRI_PARTS: &[&str] = &[
    "http://x/",
    "a",
    "é",
    "\u{a0}",
    "#",
    "\\u0041",
    "\\U0001F600",
    "\\u0020",
    "\\u007B",
    "\\u0022",
    "\\u00zz",
    "\\n",
    "\\",
    "{",
    "}",
    "|",
    "^",
    "`",
    "\"",
    "<",
    ">",
    " ",
    "\t",
    "\u{1}",
    "\n",
];

/// Pieces of a literal's text between its quotes.
const STRING_PARTS: &[&str] = &[
    "a",
    "é",
    "\u{a0}",
    "'",
    "<",
    "{",
    "#",
    "\\t",
    "\\\"",
    "\\'",
    "\\\\",
    "\\b\\f\\n\\r",
    "\\u0041",
    "\\U0001F600",
    "\\u0022",
    "\\u000A",
    "\\q",
    "\\u12zz",
    "\\U0011FFFF",
    "\t",
    "\u{1}",
    "\r",
    "\n",
    "\"",
    "\\",
];

/// What may follow a literal's closing quote.
const SUFFIXES: &[&str] = &[
    "",
    "@en",
    "@en-GB",
    "@",
    "^^<http://t/int>",
    "^^<http://t/\\u0069nt>",
    "^^<>",
    "^^<http://t x>",
];

/// The messages of the shared lexer.
const LEXER_MESSAGES: &[&str] = &[
    "unterminated IRI",
    "empty IRI",
    "not allowed in IRI",
    "invalid IRI escape",
    "unterminated escape",
    "unterminated literal",
    "invalid escape",
    "invalid unicode escape digit",
    "invalid code point",
    "empty language tag",
];

const NT_PREFIX: &str = "<http://x/s> <http://x/p> ";
const SPARQL_PREFIX: &str = "SELECT ?s WHERE { ?s <http://x/p> ";

/// One reader's outcome: the object term, or the error's line, column
/// counted from the term's first character, and message.
type Outcome = Result<Object, (usize, isize, String)>;

fn relative(line: usize, column: usize, prefix: &str, message: String) -> Outcome {
    Err((
        line,
        column as isize - prefix.chars().count() as isize,
        message,
    ))
}

fn read_ntriples(term: &str) -> Outcome {
    match parse_ntriples(&format!("{NT_PREFIX}{term} .\n")) {
        Ok(triples) => Ok(triples[0].object.clone()),
        Err(err) => relative(err.line, err.column, NT_PREFIX, err.message),
    }
}

fn read_turtle(term: &str) -> Outcome {
    match parse_turtle(&format!("{NT_PREFIX}{term} .\n")) {
        Ok(triples) => Ok(triples[0].object.clone()),
        Err(err) => relative(err.line, err.column, NT_PREFIX, err.message),
    }
}

fn read_sparql(term: &str) -> Outcome {
    match parse_select(&format!("{SPARQL_PREFIX}{term} }}")) {
        Ok(query) => match &query.patterns[0].object {
            TermPattern::Iri(iri) => Ok(Object::Iri(Iri::new(iri.as_ref()))),
            TermPattern::Literal(literal) => Ok(Object::Literal(literal.clone())),
            TermPattern::Variable(v) => panic!("a variable ?{v} from {term:?}"),
        },
        Err(err) => relative(err.line, err.column, SPARQL_PREFIX, err.message),
    }
}

fn assert_readers_agree(term: &str) {
    let outcomes = [read_ntriples(term), read_turtle(term), read_sparql(term)];
    match &outcomes[0] {
        Ok(_) => assert!(
            outcomes.iter().all(|o| o == &outcomes[0]),
            "{term:?} read differently: {outcomes:?}"
        ),
        Err((_, _, message)) => {
            for outcome in &outcomes {
                let Err((line, _, _)) = outcome else {
                    panic!("{term:?} accepted by one reader only: {outcomes:?}");
                };
                assert!(*line >= 1, "{term:?}: {outcomes:?}");
            }
            // Refused by the lexer: the same message at the same place.
            if LEXER_MESSAGES.iter().any(|m| message.contains(m)) {
                assert!(
                    outcomes.iter().all(|o| o == &outcomes[0]),
                    "{term:?} refused differently: {outcomes:?}"
                );
            }
        }
    }
}

#[test]
fn named_terms_agree() {
    for term in [
        "<http://x/A>",
        "<http://x/\\u0041>",
        "<b0>",
        "<>",
        "<http://x/ >",
        "<http://x/\\u0020>",
        "<http://x/a{b>",
        "<http://x/a\"b>",
        "<http://x/\u{a0}>",
        "\"\"",
        "\"A\"",
        "\"\\u0041\"",
        "\"a\nb\"",
        "\"5\"^^<http://t x>",
    ] {
        assert_readers_agree(term);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn generated_iris_agree(parts in prop::collection::vec(0..IRI_PARTS.len(), 0..6)) {
        let body: String = parts.into_iter().map(|i| IRI_PARTS[i]).collect();
        assert_readers_agree(&format!("<{body}>"));
    }

    #[test]
    fn generated_literals_agree(
        parts in prop::collection::vec(0..STRING_PARTS.len(), 0..6),
        suffix in 0..SUFFIXES.len(),
    ) {
        let body: String = parts.into_iter().map(|i| STRING_PARTS[i]).collect();
        assert_readers_agree(&format!("\"{body}\"{}", SUFFIXES[suffix]));
    }
}
