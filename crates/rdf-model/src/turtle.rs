//! A Turtle subset parser.
//!
//! Real DBpedia/YAGO distributions ship as Turtle, which extends N-Triples
//! with `@prefix` declarations, prefixed names, the `a` keyword and
//! predicate-object list punctuation (`;`, `,`). This module parses that
//! subset — the features actual knowledge-base dumps use — and desugars
//! everything to plain [`Triple`]s:
//!
//! * `@prefix p: <ns> .` and SPARQL-style `PREFIX p: <ns>`,
//! * prefixed names in subject/predicate/object position,
//! * `a` → `rdf:type`,
//! * `;` (same subject) and `,` (same subject+predicate) lists,
//! * literals with `@lang` / `^^datatype` (including `^^prefixed:name`),
//! * numerals (`5`, `.5`, `1.5e3`), typed by their form like SPARQL's
//!   ([`numeric_datatype`]),
//! * blank node labels `_:b`,
//! * `#` comments.
//!
//! IRIs, strings (`"…"` and `'…'`), language tags and blank node labels
//! are lexed by the term grammar N-Triples and SPARQL share
//! ([`crate::lex`]): escapes decode, and a term is accepted or refused, as
//! in N-Triples, with its messages. A relative IRI (`<b0>`) is kept
//! verbatim, and `<>` is refused.
//!
//! Out of scope (rejected with a positioned error): collections `( … )`,
//! anonymous blank nodes `[ … ]`, base IRIs, and strings spanning lines.

use crate::lex::{Cursor, LexError};
use crate::prefix::PrefixMap;
use crate::term::{numeric_datatype, BlankNode, Iri, Literal, Object, Subject};
use crate::triple::Triple;
use std::fmt;

/// RDF `type` predicate, the expansion of the `a` keyword.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Parse error with 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for TurtleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Turtle parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for TurtleParseError {}

impl From<LexError> for TurtleParseError {
    fn from(err: LexError) -> Self {
        Self {
            line: err.line,
            column: err.column,
            message: err.message,
        }
    }
}

/// Parse a Turtle document into triples (prefixes resolved).
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, TurtleParseError> {
    let mut parser = TurtleParser::new(input);
    let mut triples = Vec::new();
    while let Some(batch) = parser.next_statement()? {
        triples.extend(batch);
    }
    Ok(triples)
}

/// Statement-at-a-time Turtle parser.
pub struct TurtleParser<'a> {
    cursor: Cursor<'a>,
    prefixes: PrefixMap,
    /// Where a term with an escape is unescaped into.
    scratch: String,
}

impl<'a> TurtleParser<'a> {
    /// Start parsing `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            cursor: Cursor::new(input, true),
            prefixes: PrefixMap::new(),
            scratch: String::new(),
        }
    }

    /// The prefixes declared so far.
    pub fn prefixes(&self) -> &PrefixMap {
        &self.prefixes
    }

    fn error(&self, message: impl Into<String>) -> TurtleParseError {
        self.cursor.error(message).into()
    }

    /// The character `n` characters past the cursor (line ends included).
    fn peek_nth(&self, n: usize) -> Option<char> {
        self.cursor.rest().chars().nth(n)
    }

    fn peek(&self) -> Option<char> {
        self.cursor.peek_char()
    }

    fn bump(&mut self) -> Option<char> {
        self.cursor.bump_char()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => self.cursor.pos = self.cursor.next_line(),
                _ => break,
            }
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), TurtleParseError> {
        self.skip_trivia();
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(self.error(format!("expected '{expected}', found '{c}'"))),
            None => Err(self.error(format!("expected '{expected}', found end of input"))),
        }
    }

    /// Parse the next directive or triple block; `None` at end of input.
    pub fn next_statement(&mut self) -> Result<Option<Vec<Triple>>, TurtleParseError> {
        self.skip_trivia();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        if c == '@' {
            self.directive()?;
            return Ok(Some(Vec::new()));
        }
        // SPARQL-style PREFIX (case-insensitive, no trailing dot).
        if c == 'P' || c == 'p' {
            if let Some(()) = self.try_sparql_prefix()? {
                return Ok(Some(Vec::new()));
            }
        }
        Ok(Some(self.triples_block()?))
    }

    fn directive(&mut self) -> Result<(), TurtleParseError> {
        self.expect('@')?;
        let word = self.cursor.take_while(|c| c.is_ascii_alphabetic());
        if !word.eq_ignore_ascii_case("prefix") {
            return Err(self.error(format!("unsupported directive '@{word}'")));
        }
        self.prefix_body()?;
        self.expect('.')?;
        Ok(())
    }

    /// Try to consume `PREFIX name: <iri>`; rewinds nothing on failure, so
    /// the caller only invokes this when the next token could not be a term
    /// (Turtle terms never start a statement with bare `PREFIX …:`).
    fn try_sparql_prefix(&mut self) -> Result<Option<()>, TurtleParseError> {
        let rest = self.cursor.rest();
        let word = rest.bytes().take_while(u8::is_ascii_alphabetic).count();
        // A prefixed name like `prefixed:local` must NOT be treated as the
        // keyword; require whitespace after the word.
        if !rest[..word].eq_ignore_ascii_case("prefix")
            || !self.peek_nth(6).is_some_and(char::is_whitespace)
        {
            return Ok(None);
        }
        self.cursor.pos += word;
        self.prefix_body()?;
        Ok(Some(()))
    }

    fn prefix_body(&mut self) -> Result<(), TurtleParseError> {
        self.skip_trivia();
        let name = self.cursor.take_while(|c| c != ':' && !c.is_whitespace());
        if self.peek().is_some_and(char::is_whitespace) {
            return Err(self.error("expected ':' in prefix declaration"));
        }
        self.expect(':')?;
        let iri = self.iri_ref()?;
        self.prefixes.insert(name, iri.as_str());
        Ok(())
    }

    /// `subject predicate-object-list .`
    fn triples_block(&mut self) -> Result<Vec<Triple>, TurtleParseError> {
        let subject = self.subject()?;
        let mut triples = Vec::new();
        loop {
            self.skip_trivia();
            let predicate = self.predicate()?;
            loop {
                let object = self.object()?;
                triples.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_trivia();
                if self.peek() == Some(',') {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_trivia();
            match self.peek() {
                Some(';') => {
                    // Rule [7] allows a run of ';' (`;;`, `; ;`), and a
                    // dangling run before '.'.
                    while self.peek() == Some(';') {
                        self.bump();
                        self.skip_trivia();
                    }
                    if self.peek() == Some('.') {
                        self.bump();
                        return Ok(triples);
                    }
                }
                Some('.') => {
                    self.bump();
                    return Ok(triples);
                }
                Some(c) => return Err(self.error(format!("expected ';' or '.', found '{c}'"))),
                None => return Err(self.error("unterminated triple block")),
            }
        }
    }

    fn subject(&mut self) -> Result<Subject, TurtleParseError> {
        self.skip_trivia();
        match self.peek() {
            Some('<') => Ok(Subject::Iri(self.iri_ref()?)),
            Some('_') => Ok(Subject::Blank(BlankNode::new(self.cursor.blank_node()?))),
            Some('[') => Err(self.error("anonymous blank nodes '[ … ]' are not supported")),
            Some('(') => Err(self.error("collections '( … )' are not supported")),
            Some(_) => Ok(Subject::Iri(self.prefixed_name()?)),
            None => Err(self.error("expected subject")),
        }
    }

    fn predicate(&mut self) -> Result<Iri, TurtleParseError> {
        self.skip_trivia();
        // `a` keyword (must be followed by whitespace).
        if self.peek() == Some('a') && self.peek_nth(1).is_some_and(char::is_whitespace) {
            self.bump();
            return Ok(Iri::new(RDF_TYPE));
        }
        match self.peek() {
            Some('<') => self.iri_ref(),
            Some(_) => self.prefixed_name(),
            None => Err(self.error("expected predicate")),
        }
    }

    fn object(&mut self) -> Result<Object, TurtleParseError> {
        self.skip_trivia();
        match self.peek() {
            Some('<') => Ok(Object::Iri(self.iri_ref()?)),
            Some('_') => Ok(Object::Blank(BlankNode::new(self.cursor.blank_node()?))),
            Some(quote @ ('"' | '\'')) => Ok(Object::Literal(self.literal(quote as u8)?)),
            Some(c)
                if c.is_ascii_digit()
                    || matches!(c, '-' | '+')
                    || self.after_dot().is_some_and(|n| n.is_ascii_digit()) =>
            {
                Ok(Object::Literal(self.numeric_literal()?))
            }
            Some('[') => Err(self.error("anonymous blank nodes '[ … ]' are not supported")),
            Some('(') => Err(self.error("collections '( … )' are not supported")),
            Some(_) => {
                // `true` / `false` or a prefixed name.
                let name = self.prefixed_name_raw()?;
                match name {
                    "true" | "false" => Ok(Object::Literal(Literal::typed(
                        name,
                        Iri::new("http://www.w3.org/2001/XMLSchema#boolean"),
                    ))),
                    _ => self.expand(name).map(Object::Iri),
                }
            }
            None => Err(self.error("expected object")),
        }
    }

    /// `<…>`, after any trivia.
    fn iri_ref(&mut self) -> Result<Iri, TurtleParseError> {
        self.skip_trivia();
        let iri = self.cursor.iri(&mut self.scratch)?;
        Ok(Iri::new(iri.unwrap_or(&self.scratch)))
    }

    /// A `prefix:local` token, expanded through the declared prefixes.
    fn prefixed_name(&mut self) -> Result<Iri, TurtleParseError> {
        let raw = self.prefixed_name_raw()?;
        self.expand(raw)
    }

    fn prefixed_name_raw(&mut self) -> Result<&'a str, TurtleParseError> {
        let start = self.cursor.pos;
        let mut seen_colon = false;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || (c == ':' && !seen_colon) {
                seen_colon |= c == ':';
                self.bump();
            } else if c == '.' {
                // A dot ends the statement unless followed by a name char
                // (e.g. `ex:a.b`).
                match self.peek_nth(1) {
                    Some(n) if n.is_alphanumeric() || n == '_' => {
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        if self.cursor.pos == start {
            return Err(self.error("expected a prefixed name"));
        }
        Ok(&self.cursor.text()[start..self.cursor.pos])
    }

    fn expand(&self, raw: &str) -> Result<Iri, TurtleParseError> {
        match self.prefixes.expand(raw) {
            Some(iri) => Ok(Iri::new(iri)),
            None => Err(self.error(format!("unknown prefix in '{raw}'"))),
        }
    }

    fn literal(&mut self, quote: u8) -> Result<Literal, TurtleParseError> {
        let (text, _) = self.cursor.string(quote, &mut self.scratch)?;
        let lexical: Box<str> = text.unwrap_or(&self.scratch).into();
        match self.peek() {
            Some('@') => Ok(Literal::lang(lexical, self.cursor.lang_tag()?)),
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return Err(self.error("expected '^^'"));
                }
                self.skip_trivia();
                let datatype = match self.peek() {
                    Some('<') => self.iri_ref()?,
                    _ => self.prefixed_name()?,
                };
                Ok(Literal::typed(lexical, datatype))
            }
            _ => Ok(Literal::plain(lexical)),
        }
    }

    /// The character after the next one, when the next one is a `.` (a
    /// digit there makes the dot part of a numeral, not a terminator).
    fn after_dot(&self) -> Option<char> {
        (self.peek() == Some('.'))
            .then(|| self.peek_nth(1))
            .flatten()
    }

    /// A numeral, typed by its form. A `.` belongs to it only when a digit
    /// or an exponent follows; otherwise it ends the statement.
    fn numeric_literal(&mut self) -> Result<Literal, TurtleParseError> {
        let start = self.cursor.pos;
        while let Some(c) = self.peek() {
            let fraction = self
                .after_dot()
                .is_some_and(|n| n.is_ascii_digit() || matches!(n, 'e' | 'E'));
            if !(fraction || c.is_ascii_digit() || matches!(c, '-' | '+' | 'e' | 'E')) {
                break;
            }
            self.bump();
        }
        let body = &self.cursor.text()[start..self.cursor.pos];
        match numeric_datatype(body) {
            Some(datatype) => Ok(Literal::typed(body, Iri::new(datatype))),
            None => Err(self.error(format!("invalid numeric literal '{body}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::LiteralSuffix;

    #[test]
    fn parses_paper_example_as_turtle() {
        let doc = r#"
@prefix x: <http://dbpedia.org/resource/> .
@prefix y: <http://dbpedia.org/ontology/> .

x:London y:isPartOf x:England ;
         y:hasStadium x:WembleyStadium .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London ;
                y:diedIn x:London ;
                y:wasPartOf x:Music_Band .
x:Music_Band y:hasName "MCA_Band" ;
             y:wasFoundedIn 1994 .
"#;
        let triples = parse_turtle(doc).expect("parses");
        assert_eq!(triples.len(), 8);
        assert_eq!(
            triples[0].to_string(),
            "<http://dbpedia.org/resource/London> <http://dbpedia.org/ontology/isPartOf> <http://dbpedia.org/resource/England> ."
        );
        // semicolon shares the subject
        assert_eq!(triples[1].subject, triples[0].subject);
        // numeric literal is typed
        let Object::Literal(year) = &triples[7].object else {
            panic!("expected literal");
        };
        assert_eq!(year.lexical(), "1994");
        assert!(
            matches!(year.suffix(), LiteralSuffix::Datatype(dt) if dt.as_str().ends_with("integer"))
        );
    }

    #[test]
    fn object_lists_and_a_keyword() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:s a ex:Klass ;
     ex:knows ex:a , ex:b , ex:c .
"#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 4);
        assert_eq!(triples[0].predicate, Iri::new(RDF_TYPE));
        assert!(triples[1..]
            .iter()
            .all(|t| t.predicate == Iri::new("http://ex/knows")));
    }

    #[test]
    fn sparql_style_prefix() {
        let doc = "PREFIX ex: <http://ex/>\nex:a ex:p ex:b .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].predicate, Iri::new("http://ex/p"));
    }

    #[test]
    fn language_and_datatype_literals() {
        let doc = r#"
@prefix ex: <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:label "London"@en-GB ;
     ex:count "5"^^xsd:int ;
     ex:flag true .
"#;
        let triples = parse_turtle(doc).unwrap();
        let lits: Vec<&Literal> = triples
            .iter()
            .filter_map(|t| t.object.as_literal())
            .collect();
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[0].suffix(), &LiteralSuffix::Lang("en-GB".into()));
        assert_eq!(
            lits[1].suffix(),
            &LiteralSuffix::Datatype(Iri::new("http://www.w3.org/2001/XMLSchema#int"))
        );
        assert_eq!(lits[2].lexical(), "true");
    }

    #[test]
    fn blank_nodes_parse() {
        let doc = "@prefix ex: <http://ex/> .\n_:a ex:knows _:b .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Subject::Blank(BlankNode::new("a")));
        assert_eq!(triples[0].object, Object::Blank(BlankNode::new("b")));
    }

    #[test]
    fn blank_node_labels_follow_the_ntriples_rule() {
        // A dot inside a label is part of it; a trailing one ends the
        // statement.
        let doc = "_:a.b <http://p> <http://b> .\n<http://a> <http://p> _:c.d.";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples, crate::ntriples::parse_ntriples(doc).unwrap());
        assert_eq!(triples[0].subject, Subject::Blank(BlankNode::new("a.b")));
        assert_eq!(triples[1].object, Object::Blank(BlankNode::new("c.d")));
    }

    #[test]
    fn unknown_prefix_errors_with_position() {
        let err = parse_turtle("nope:a nope:b nope:c .").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown prefix"));
    }

    #[test]
    fn unsupported_syntax_is_rejected_not_mangled() {
        for doc in [
            "@prefix ex: <http://ex/> .\nex:a ex:p [ ex:q ex:b ] .",
            "@prefix ex: <http://ex/> .\nex:a ex:p ( ex:b ex:c ) .",
            "@base <http://ex/> .",
        ] {
            assert!(parse_turtle(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn comments_and_whitespace() {
        let doc = "# header\n@prefix ex: <http://ex/> . # inline\n\nex:a ex:p ex:b . # done";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn equivalent_to_ntriples_for_shared_subset() {
        let nt =
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/q> \"lit\" .";
        let from_nt = crate::ntriples::parse_ntriples(nt).unwrap();
        let from_ttl = parse_turtle(nt).unwrap();
        assert_eq!(from_nt, from_ttl);
    }

    #[test]
    fn runs_of_semicolons_are_skipped() {
        // Rule [7]: predicateObjectList ::= verb objectList (';' (verb objectList)?)*
        let expected = parse_turtle("@prefix x: <http://x/> .\nx:a x:b x:c ; x:d x:e .").unwrap();
        for doc in [
            "@prefix x: <http://x/> .\nx:a x:b x:c ;; x:d x:e .",
            "@prefix x: <http://x/> .\nx:a x:b x:c ; ; x:d x:e .",
            "@prefix x: <http://x/> .\nx:a x:b x:c ;\n # between\n ; x:d x:e ; .",
            "@prefix x: <http://x/> .\nx:a x:b x:c ; x:d x:e ;; .",
            "@prefix x: <http://x/> .\nx:a x:b x:c ; x:d x:e ; ;.",
        ] {
            assert_eq!(parse_turtle(doc).unwrap(), expected, "{doc}");
        }
        // A run of ';' still needs a verb or the '.' after it.
        assert!(parse_turtle("@prefix x: <http://x/> .\nx:a x:b x:c ;;").is_err());
        assert!(parse_turtle("@prefix x: <http://x/> .\nx:a ; x:b x:c .").is_err());
    }

    #[test]
    fn numerals_are_typed_by_their_form() {
        let doc = "@prefix e: <http://e/> .\n\
                   e:s e:p 5 , -5 , 1.5 , .5 , 1.5e3 , 1e5 , 1.E-2 , 123456789012345678901 , 7.";
        let triples = parse_turtle(doc).unwrap();
        let typed: Vec<String> = triples
            .iter()
            .map(|t| {
                let literal = t.object.as_literal().expect("a numeral is a literal");
                let LiteralSuffix::Datatype(datatype) = literal.suffix() else {
                    panic!("untyped numeral {literal}");
                };
                let short = datatype.as_str().rsplit('#').next().unwrap();
                format!("{} {short}", literal.lexical())
            })
            .collect();
        assert_eq!(
            typed.join(", "),
            "5 integer, -5 integer, 1.5 decimal, .5 decimal, 1.5e3 double, 1e5 double, \
             1.E-2 double, 123456789012345678901 integer, 7 integer"
        );
        for bad in ["1e", "1-2", "+", "1.5.5"] {
            let doc = format!("<http://e/s> <http://e/p> {bad} .");
            let err = parse_turtle(&doc).unwrap_err();
            assert!(err.message.contains("numeric"), "{bad}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_decode_as_in_ntriples() {
        let nt = "<http://e/s\\u00e9> <http://e/p> <http://e/o\\u0041> .\n\
                  <http://e/s> <http://e/p> \"\\u0041\\U0001F600 \\b\\f\" .";
        let from_nt = crate::ntriples::parse_ntriples(nt).unwrap();
        assert_eq!(parse_turtle(nt).unwrap(), from_nt);
        assert_eq!(from_nt[0].object, Object::Iri(Iri::new("http://e/oA")));
        assert_eq!(
            from_nt[1].object.as_literal().unwrap().lexical(),
            "A\u{1F600} \u{8}\u{c}"
        );
        for (bad, message) in [
            ("<http://e/\\u00zz>", "unicode escape digit"),
            ("<http://e/\\UFFFFFFFF>", "code point"),
            ("<http://e/\\n>", "invalid IRI escape"),
            ("<http://e/a\\u0020b>", "not allowed in IRI"),
            ("<http://e/a\\u003Eb>", "not allowed in IRI"),
            ("<http://e/a\"b>", "not allowed in IRI"),
            ("<>", "empty IRI"),
            ("\"\\u12\"", "unicode escape digit"),
            ("\"\\q\"", "invalid escape"),
        ] {
            let doc = format!("<http://e/s> <http://e/p> {bad} .");
            let err = parse_turtle(&doc).unwrap_err();
            assert!(err.message.contains(message), "{bad}: {err}");
        }
    }

    #[test]
    fn dotted_local_names() {
        let doc = "@prefix ex: <http://ex/> .\nex:a.b ex:p ex:c .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject.dictionary_key(), "http://ex/a.b");
    }

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Statements a hostile document is built from: together they use
    /// every construct the parser accepts.
    const STATEMENTS: &[&str] = &[
        "e:s a e:Klass ; e:knows e:a , e:b .",
        "e:s e:n 5 , -5 , 1.5 , .5 , 1.5e3 , 1.E-2 , 123456789012345678901 , true .",
        "<http://e/s\\u00e9> e:p <http://e/o\\u0041> , \"\\u0041\\U0001F600\\t\\\"q\\\"\" .",
        "_:b1 e:label \"London\"@en-GB ; e:count \"5\"^^xsd:int ; e:raw 'single' .",
        "e:a.b e:p e:c ;; e:q \"x\"^^<http://e/dt> ; .",
        "PREFIX f: <http://f/>\nf:x f:y 7.",
        "# a comment\ne:s e:p e:o . # trailing",
    ];

    /// Byte runs spliced into a document: escape and token starts.
    const SPLICES: &[&str] = &[
        "\\u", "\\U0001", "\\", "<", ">", "\"", "'", ".", ";", ",", "@", "^^", "_:", "#", "\n",
        " ", "e:", "1e", "a ", "\u{e9}", "(", "[", "\\u003E",
    ];

    fn hostile_document(picks: &[usize]) -> String {
        let mut doc = String::from(
            "@prefix e: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n",
        );
        for &i in picks {
            doc.push_str(STATEMENTS[i]);
            doc.push('\n');
        }
        doc
    }

    /// On any input the parser returns (never panics), every error names
    /// a line and column inside the input, and every accepted triple
    /// re-parses from its N-Triples line to an equal triple.
    fn assert_turtle_invariants(input: &str) -> Result<(), TestCaseError> {
        match parse_turtle(input) {
            Ok(triples) => {
                for triple in &triples {
                    let line = triple.to_string();
                    let reparsed = crate::ntriples::parse_ntriples(&line);
                    prop_assert_eq!(
                        reparsed.as_deref(),
                        Ok(std::slice::from_ref(triple)),
                        "{} from {:?}",
                        line,
                        input
                    );
                }
            }
            Err(err) => {
                let lines = input.split('\n').count();
                prop_assert!(
                    err.line >= 1 && err.line <= lines && err.column >= 1,
                    "{:?} in {:?}",
                    err,
                    input
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Hostile bytes: truncate, flip and extend a valid document
        /// (mutated bytes are read back lossily, as the input is `&str`).
        #[test]
        fn hostile_turtle_keeps_the_parser_invariants(
            picks in prop::collection::vec(0..STATEMENTS.len(), 1..5),
            (cut, flip) in (0usize..1024, 0usize..1024),
            (byte, splice) in (0u8..=255, 0..SPLICES.len()),
        ) {
            let doc = hostile_document(&picks);
            prop_assert!(parse_turtle(&doc).is_ok(), "{:?}", parse_turtle(&doc));
            assert_turtle_invariants(&doc)?;

            let bytes = doc.as_bytes();
            let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
            assert_turtle_invariants(&lossy(&bytes[..cut % (bytes.len() + 1)]))?;

            let at = flip % bytes.len();
            let mut flipped = bytes.to_vec();
            flipped[at] = byte;
            assert_turtle_invariants(&lossy(&flipped))?;

            let mut extended = bytes[..at].to_vec();
            extended.extend_from_slice(SPLICES[splice].as_bytes());
            extended.extend_from_slice(&bytes[at..]);
            assert_turtle_invariants(&lossy(&extended))?;
        }
    }
}
