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
//! * blank node labels `_:b`,
//! * `#` comments.
//!
//! Out of scope (rejected with a positioned error): collections `( … )`,
//! anonymous blank nodes `[ … ]`, base IRIs, and multi-line literals.

use crate::prefix::PrefixMap;
use crate::term::{BlankNode, Iri, Literal, Object, Subject};
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
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    column: usize,
    prefixes: PrefixMap,
}

impl<'a> TurtleParser<'a> {
    /// Start parsing `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            chars: input.chars().peekable(),
            line: 1,
            column: 1,
            prefixes: PrefixMap::new(),
        }
    }

    /// The prefixes declared so far.
    pub fn prefixes(&self) -> &PrefixMap {
        &self.prefixes
    }

    fn error(&self, message: impl Into<String>) -> TurtleParseError {
        TurtleParseError {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
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
        let word = self.bare_word();
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
        // Peek the bare word without consuming non-word characters.
        let mut clone = self.chars.clone();
        let mut word = String::new();
        while let Some(&c) = clone.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c);
                clone.next();
            } else {
                break;
            }
        }
        if !word.eq_ignore_ascii_case("prefix") || word.len() != 6 {
            return Ok(None);
        }
        // A prefixed name like `prefixed:local` must NOT be treated as the
        // keyword; require whitespace after the word.
        if !matches!(clone.peek(), Some(c) if c.is_whitespace()) {
            return Ok(None);
        }
        for _ in 0..word.len() {
            self.bump();
        }
        self.prefix_body()?;
        Ok(Some(()))
    }

    fn prefix_body(&mut self) -> Result<(), TurtleParseError> {
        self.skip_trivia();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return Err(self.error("expected ':' in prefix declaration"));
            }
            name.push(c);
            self.bump();
        }
        self.expect(':')?;
        self.skip_trivia();
        let iri = self.iri_ref()?;
        self.prefixes.insert(&name, iri.as_str());
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
            Some('_') => Ok(Subject::Blank(self.blank_node()?)),
            Some('[') => Err(self.error("anonymous blank nodes '[ … ]' are not supported")),
            Some('(') => Err(self.error("collections '( … )' are not supported")),
            Some(_) => Ok(Subject::Iri(self.prefixed_name()?)),
            None => Err(self.error("expected subject")),
        }
    }

    fn predicate(&mut self) -> Result<Iri, TurtleParseError> {
        self.skip_trivia();
        // `a` keyword (must be followed by whitespace).
        if self.peek() == Some('a') {
            let mut clone = self.chars.clone();
            clone.next();
            if matches!(clone.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
                return Ok(Iri::new(RDF_TYPE));
            }
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
            Some('_') => Ok(Object::Blank(self.blank_node()?)),
            Some('"') | Some('\'') => Ok(Object::Literal(self.literal()?)),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(Object::Literal(self.numeric_literal()?))
            }
            Some('[') => Err(self.error("anonymous blank nodes '[ … ]' are not supported")),
            Some('(') => Err(self.error("collections '( … )' are not supported")),
            Some(_) => {
                // `true` / `false` or a prefixed name.
                let saved = (self.line, self.column);
                let name = self.prefixed_name_raw()?;
                match name.as_str() {
                    "true" | "false" => Ok(Object::Literal(Literal::typed(
                        name,
                        Iri::new("http://www.w3.org/2001/XMLSchema#boolean"),
                    ))),
                    _ => {
                        let _ = saved;
                        self.expand(&name).map(Object::Iri)
                    }
                }
            }
            None => Err(self.error("expected object")),
        }
    }

    fn iri_ref(&mut self) -> Result<Iri, TurtleParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if c.is_whitespace() => return Err(self.error("whitespace inside IRI")),
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI")),
            }
        }
        Ok(Iri::new(iri))
    }

    fn blank_node(&mut self) -> Result<BlankNode, TurtleParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(BlankNode::new(label))
    }

    fn bare_word(&mut self) -> String {
        let mut word = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() {
                word.push(c);
                self.bump();
            } else {
                break;
            }
        }
        word
    }

    /// A `prefix:local` token, expanded through the declared prefixes.
    fn prefixed_name(&mut self) -> Result<Iri, TurtleParseError> {
        let raw = self.prefixed_name_raw()?;
        self.expand(&raw)
    }

    fn prefixed_name_raw(&mut self) -> Result<String, TurtleParseError> {
        let mut raw = String::new();
        let mut seen_colon = false;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || (c == ':' && !seen_colon) {
                seen_colon |= c == ':';
                raw.push(c);
                self.bump();
            } else if c == '.' {
                // A dot ends the statement unless followed by a name char
                // (e.g. `ex:a.b`).
                let mut clone = self.chars.clone();
                clone.next();
                match clone.peek() {
                    Some(&n) if n.is_alphanumeric() || n == '_' => {
                        raw.push('.');
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        if raw.is_empty() {
            return Err(self.error("expected a prefixed name"));
        }
        Ok(raw)
    }

    fn expand(&self, raw: &str) -> Result<Iri, TurtleParseError> {
        match self.prefixes.expand(raw) {
            Some(iri) => Ok(Iri::new(iri)),
            None => Err(self.error(format!("unknown prefix in '{raw}'"))),
        }
    }

    fn literal(&mut self) -> Result<Literal, TurtleParseError> {
        let quote = self.bump().expect("caller saw a quote");
        let mut lexical = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some('\\') => match self.bump() {
                    Some('t') => lexical.push('\t'),
                    Some('n') => lexical.push('\n'),
                    Some('r') => lexical.push('\r'),
                    Some('"') => lexical.push('"'),
                    Some('\'') => lexical.push('\''),
                    Some('\\') => lexical.push('\\'),
                    Some(c) => return Err(self.error(format!("invalid escape '\\{c}'"))),
                    None => return Err(self.error("unterminated literal")),
                },
                Some('\n') => return Err(self.error("multi-line literals are not supported")),
                Some(c) => lexical.push(c),
                None => return Err(self.error("unterminated literal")),
            }
        }
        match self.peek() {
            Some('@') => {
                self.bump();
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err(self.error("empty language tag"));
                }
                Ok(Literal::lang(lexical, lang))
            }
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

    fn numeric_literal(&mut self) -> Result<Literal, TurtleParseError> {
        let mut body = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '-' || c == '+' || c == 'e' || c == 'E' {
                body.push(c);
                self.bump();
            } else if c == '.' {
                // A dot is part of the number only when followed by a digit.
                let mut clone = self.chars.clone();
                clone.next();
                if matches!(clone.peek(), Some(d) if d.is_ascii_digit()) {
                    body.push('.');
                    self.bump();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if body.parse::<i64>().is_ok() {
            Ok(Literal::typed(
                body,
                Iri::new("http://www.w3.org/2001/XMLSchema#integer"),
            ))
        } else if body.parse::<f64>().is_ok() {
            Ok(Literal::typed(
                body,
                Iri::new("http://www.w3.org/2001/XMLSchema#decimal"),
            ))
        } else {
            Err(self.error(format!("invalid numeric literal '{body}'")))
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
    fn dotted_local_names() {
        let doc = "@prefix ex: <http://ex/> .\nex:a.b ex:p ex:c .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject.dictionary_key(), "http://ex/a.b");
    }
}
