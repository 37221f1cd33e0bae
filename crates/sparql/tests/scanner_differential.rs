//! The byte-level scanner against the parser it replaced, on hostile
//! input: every query of a corpus (the parser's unit-test queries, corner
//! cases of the old keyword pre-pass, and generated queries) is truncated,
//! flipped and extended, and `parse_select` must return what the reference
//! returns — the same AST, or an error of the same kind at the same line
//! and column with the same message — without panicking.
//!
//! Three differences are the scanner's fixes and are allowed (see
//! [`allowed_difference`]): numeric literals typed by the SPARQL grammar,
//! an unbound projected variable reported at its own position, and IRIs
//! and strings lexed by the term grammar the data readers share.

mod generated;
mod reference;

/// The reference parser's view of the crate (its modules name these).
mod ast {
    pub use amber_sparql::ast::*;
}
mod error {
    pub use amber_sparql::error::*;
}
#[path = "../src/token.rs"]
mod token;

use amber_sparql::{parse_select, to_sparql, SelectQuery, SparqlError, TermPattern};
use generated::arb_query;
use proptest::prelude::*;

const CORPUS: &[&str] = &[
    "PREFIX x: <http://dbpedia.org/resource/>\nPREFIX y: <http://dbpedia.org/ontology/>\n\
     SELECT ?X0 ?X1 ?X3 WHERE {\n  ?X0 y:livedIn ?X1 .\n  ?X1 y:isPartOf ?X2 .\n  \
     ?X3 y:wasBornIn ?X1 ; y:diedIn ?X1 .\n  ?X4 y:hasCapacity \"90000\" .\n  \
     ?X5 y:hasName \"MCA_Band\" , 'x\\'y'@en-GB .\n  ?X3 y:livedIn x:United_States.\n}",
    "SELECT DISTINCT * WHERE { ?s <http://p> ?o . }",
    "SELECT ?s { ?s <http://p> ?o }",
    "SELECT * WHERE { ?s <http://p> ?a , ?b ; <http://q> ?c . ?x <http://r> ?s . }",
    "SELECT * WHERE { ?s a <http://x/Class> . }",
    "SELECT * WHERE { ?s ?p ?o . }",
    "SELECT * WHERE { ?s <http://p> ?o . FILTER(?o > 5) }",
    "SELECT * WHERE { { ?s <http://p> ?o } UNION { ?s <http://q> ?o } }",
    "SELECT * WHERE { ?s zz:p ?o . }",
    "SELECT * WHERE { }",
    "SELECT ?nope WHERE {\n ?s <http://p> ?o . }",
    "SELECT * WHERE { \"lit\" <http://p> ?o . }",
    "SELECT * WHERE { ?s <http://p> 1934 . ?s <http://q> -2.5e3 . ?s <http://r> 7. }",
    "SELECT ?o WHERE { <http://x/A> <http://p> ?o . ?o <http://q> <http://x/B> . }",
    "BASE <http://x/> SELECT * WHERE { ?s <http://p> ?o . }",
    "PREFIX x: <http://x/> SELECT ?filter WHERE { ?filter x:filter x:LIMIT . }",
    "SELECT * WHERE { ?s <http://p> \"use FILTER here\" . }",
    "select ?s where { ?s <http://p> ?o . }",
    "SELECT $v WHERE { $v <http://p> \"a\\tb\"^^<http://t> ; <http://q> :x }",
    "PREFIX : <http://d/> SELECT * WHERE { ?a1limit:x ?o . ?s :p \"x\"@limit }",
    "SELECT * WHERE { ?s <http://p> \"5\"^^<http://t\nlimit> }",
    "SELECT * WHERE { ?s <http://p> ?o } # trailing LIMIT comment\nORDER",
    "SELECT ?x1filter WHERE { ?x1filter <http://p> ?o }",
    "PREFIX filter1: <http://f/> SELECT * WHERE { ?s filter1:p ?o }",
    "SELECT * WHERE { ?s <http://p> ?o .5 }",
    "SELECT * WHERE { ?s <http://p> \"caf\u{e9}\"@fr ; <http://q> \"\u{3b1}\\\"\" }",
    "SELECT\u{a0}*\u{3000}WHERE { ?\u{e9}t\u{e9} <http://p> ?o }",
];

/// Snippets an extension inserts.
const SNIPPETS: &[&str] = &[
    "FILTER",
    "limit",
    "1e5",
    ".5",
    ".",
    ";",
    ",",
    "}",
    "{",
    "?",
    "$x",
    ":",
    "x:",
    "a",
    "\"",
    "'",
    "<",
    ">",
    "#",
    "\n",
    "\\",
    "@",
    "^^",
    "e",
    "-",
    "+",
    "?a1limit",
    "\u{a0}",
    "\u{e9}",
    "PREFIX p: <http://p/>",
    "<http://q>",
    "\"s\"@en",
    "123456789012345678901",
];

/// Characters a flip writes over one character.
const FLIPS: &[char] = &[
    ' ', '.', ';', ',', '{', '}', '<', '>', '"', '\'', '?', ':', '#', '@', '^', '\\', '\n', 'e',
    'F', '5', '-', '\u{e9}', '\u{2003}',
];

/// Numeric tokens the two parsers type or delimit differently: a run of
/// number characters with an exponent, a leading `.digit`, or an integer
/// too long for `i64`.
fn numeric_fix_applies(input: &str) -> bool {
    let is_number_char = |c: char| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E');
    input
        .split(|c: char| !is_number_char(c))
        .filter(|run| run.bytes().any(|b| b.is_ascii_digit()))
        .any(|run| {
            let longest_digits = run
                .split(|c: char| !c.is_ascii_digit())
                .map(str::len)
                .max()
                .unwrap_or(0);
            run.contains(['e', 'E'])
                || run
                    .as_bytes()
                    .windows(2)
                    .any(|w| w[0] == b'.' && w[1].is_ascii_digit())
                || longest_digits >= 19
        })
}

/// IRIs and strings the term grammar the data readers share
/// (`rdf_model::lex`) reads differently from the old tokenizer: one that
/// is unterminated or `<>`, an IRI holding whitespace or a character
/// IRIREF forbids (`\` included: its escapes now decode), or a string
/// holding a line end or an escape other than ECHAR (`\u` now decodes).
/// The shared grammar also words its errors as N-Triples does
/// (`unterminated literal`, `character ' ' not allowed in IRI`). Terms
/// are delimited as the old tokenizer delimits them, outside comments.
fn term_fix_applies(input: &str) -> bool {
    let bytes = input.as_bytes();
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'#' => match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(newline) => i += newline + 1,
                None => return false,
            },
            b'<' => {
                let Some(len) = bytes[i + 1..].iter().position(|&b| b == b'>') else {
                    return true;
                };
                let iri = &input[i + 1..i + 1 + len];
                let irregular = |c: char| c <= ' ' || c.is_whitespace() || "<\"{}|^`\\".contains(c);
                if iri.is_empty() || iri.contains(irregular) {
                    return true;
                }
                i += len + 2;
            }
            b'"' | b'\'' => {
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'\\')
                            if matches!(
                                bytes.get(i + 1),
                                Some(b't' | b'b' | b'n' | b'r' | b'f' | b'"' | b'\'' | b'\\')
                            ) =>
                        {
                            i += 2
                        }
                        None | Some(b'\\' | b'\n') => return true,
                        Some(&b) if b == byte => break,
                        Some(_) => i += 1,
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    false
}

/// Whether two ASTs differ only in the datatypes of numeric literals.
fn same_up_to_numeric_types(a: &SelectQuery, b: &SelectQuery) -> bool {
    let lexical_only = |t: &TermPattern| match t {
        TermPattern::Literal(l) if l.lexical().bytes().any(|b| b.is_ascii_digit()) => {
            TermPattern::Literal(rdf_model::Literal::plain(l.lexical()))
        }
        other => other.clone(),
    };
    a.projection == b.projection
        && a.distinct == b.distinct
        && a.patterns.len() == b.patterns.len()
        && a.patterns.iter().zip(&b.patterns).all(|(p, q)| {
            p.subject == q.subject
                && p.predicate == q.predicate
                && lexical_only(&p.object) == lexical_only(&q.object)
        })
}

/// The two fixes the scanner makes on purpose.
fn allowed_difference(
    input: &str,
    new: &Result<SelectQuery, SparqlError>,
    old: &Result<SelectQuery, SparqlError>,
) -> bool {
    if term_fix_applies(input) {
        return true;
    }
    match (new, old) {
        // An unbound projected variable: same error, now at its position.
        (Err(a), Err(b)) if b.message.starts_with("projected variable ?") => {
            a.kind == b.kind && a.message == b.message && (b.line, b.column) == (1, 1)
        }
        (Ok(a), Ok(b)) => numeric_fix_applies(input) && same_up_to_numeric_types(a, b),
        _ => numeric_fix_applies(input),
    }
}

fn agree(input: &str) {
    let new = parse_select(input);
    let old = reference::parse_select(input);
    assert!(
        new == old || allowed_difference(input, &new, &old),
        "scanner and reference disagree on {input:?}:\n  scanner:   {new:?}\n  reference: {old:?}"
    );
}

/// The character boundaries of `text`, end included.
fn boundaries(text: &str) -> Vec<usize> {
    text.char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect()
}

#[test]
fn corpus_agrees_truncated_at_every_offset() {
    for text in CORPUS {
        for end in boundaries(text) {
            agree(&text[..end]);
        }
    }
}

#[test]
fn corpus_agrees_with_every_character_flipped() {
    for text in CORPUS {
        for (i, c) in text.char_indices() {
            for &flip in FLIPS {
                let mut mutated = String::with_capacity(text.len() + 4);
                mutated.push_str(&text[..i]);
                mutated.push(flip);
                mutated.push_str(&text[i + c.len_utf8()..]);
                agree(&mutated);
            }
        }
    }
}

#[test]
fn the_fixes_are_the_only_differences_the_corpus_shows() {
    // Pin the fixes, so the allowance above cannot hide another.
    let numeric = "SELECT * WHERE { ?s <http://p> 1e5 }";
    assert_ne!(parse_select(numeric), reference::parse_select(numeric));
    let projection = "SELECT ?nope WHERE {\n ?s <p> ?o . }";
    let (new, old) = (
        parse_select(projection).unwrap_err(),
        reference::parse_select(projection).unwrap_err(),
    );
    assert_eq!(
        ((new.line, new.column), (old.line, old.column)),
        ((1, 8), (1, 1))
    );
    // The term grammar: `\u` decodes in an IRI as in the data.
    let escaped = "SELECT * WHERE { ?s <http://p> <http://x/\\u0041> }";
    let object = |parsed: Result<amber_sparql::SelectQuery, SparqlError>| {
        parsed.unwrap().patterns[0].object.clone()
    };
    assert_eq!(
        object(parse_select(escaped)),
        TermPattern::iri("http://x/A")
    );
    assert_eq!(
        object(reference::parse_select(escaped)),
        TermPattern::iri("http://x/\\u0041")
    );
    assert!(term_fix_applies(escaped) && !term_fix_applies(CORPUS[0]));
}

/// One edit of a query text; positions wrap and snap to a character.
#[derive(Debug, Clone)]
enum Edit {
    Truncate(u32),
    Flip(u32, usize),
    Extend(u32, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<u32>().prop_map(Edit::Truncate),
        (any::<u32>(), 0..FLIPS.len()).prop_map(|(at, c)| Edit::Flip(at, c)),
        (any::<u32>(), 0..SNIPPETS.len()).prop_map(|(at, s)| Edit::Extend(at, s)),
    ]
}

fn apply(text: &str, edits: &[Edit]) -> String {
    let mut text = text.to_string();
    for edit in edits {
        let cuts = boundaries(&text);
        let at = |raw: u32| cuts[raw as usize % cuts.len()];
        match *edit {
            Edit::Truncate(raw) => text.truncate(at(raw)),
            Edit::Flip(raw, c) => {
                let i = at(raw);
                if let Some(old) = text[i..].chars().next() {
                    text.replace_range(i..i + old.len_utf8(), FLIPS[c].encode_utf8(&mut [0; 4]));
                }
            }
            Edit::Extend(raw, s) => text.insert_str(at(raw), SNIPPETS[s]),
        }
    }
    text
}

fn arb_source() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..CORPUS.len()).prop_map(|i| CORPUS[i].to_string()),
        arb_query().prop_map(|q| to_sparql(&q)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_queries_agree(
        source in arb_source(),
        edits in prop::collection::vec(arb_edit(), 1..4),
    ) {
        agree(&apply(&source, &edits));
    }

    #[test]
    fn generated_queries_agree(query in arb_query()) {
        agree(&to_sparql(&query));
    }
}
