//! A line-oriented W3C N-Triples parser.
//!
//! N-Triples is the format the paper's datasets ship in (Fig. 1a): one
//! triple per line, `#` comments, `\uXXXX`/`\UXXXXXXXX` escapes, language
//! tags and datatype suffixes. Errors carry `line:column` positions, the
//! column counted in characters.
//!
//! The parser is hand-written and reads each byte of the document once:
//!
//! * [`NtScanner`] walks the input statement by statement and yields
//!   [`TripleRef`]s whose terms *borrow the input*. There is no separate
//!   line split: a statement's own terms and separators find where its
//!   line ends (`\n`, or `\r\n` with the `\r` dropped; a bare `\r` is an
//!   ordinary byte), exactly where [`str::lines`] would cut. Each term is
//!   lexed by the term grammar the three readers share ([`crate::lex`]):
//!   only a term containing a `\` escape is unescaped, into a scratch
//!   `String` the scanner reuses for every line (one per term position),
//!   so a document without escapes is scanned without allocating.
//! * [`NtParser`] / [`parse_ntriples`] are that scanner plus a copy of each
//!   triple into an owned [`Triple`].
//!
//! The character-by-character parser this replaced is kept as the test
//! oracle (`tests::reference`): accepted documents, and the line, column
//! and message of every rejection, are pinned to it. The one difference is
//! the shared grammar's: an escape that decodes to a character IRIREF
//! forbids (`<http://x/ >`) is refused, as the written character is.

use crate::lex::{Cursor, LexError};
use crate::term::{Literal, LiteralRef, LiteralSuffixRef, ObjectRef, SubjectRef, XSD_STRING};
use crate::triple::{Triple, TripleRef};
use std::fmt;

/// Parse a full N-Triples document into triples.
///
/// Stops at the first malformed statement and reports its position.
pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>, NtParseError> {
    NtParser::new(input).collect()
}

/// Parse a single literal in N-Triples syntax (`"lex"`, `"lex"@lang`,
/// `"lex"^^<dt>`), e.g. the literal half of a stored attribute key.
pub fn parse_literal(input: &str) -> Result<Literal, NtParseError> {
    let (mut lexical, mut datatype) = (String::new(), String::new());
    // The whole input is one "line": a line feed in it is an ordinary byte.
    let mut cursor = Cursor::new(input, false);
    let literal = literal(&mut cursor, &mut lexical, &mut datatype)?.to_literal();
    skip_ws(&mut cursor);
    if !cursor.at_end() {
        return Err(cursor.error("trailing content after literal").into());
    }
    Ok(literal)
}

/// Parse error with a 1-based `line:column` position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// 1-based column (in characters) where parsing failed.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for NtParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for NtParseError {}

impl From<LexError> for NtParseError {
    fn from(err: LexError) -> Self {
        Self {
            line: err.line,
            column: err.column,
            message: err.message,
        }
    }
}

/// Streaming parser: an iterator of `Result<Triple, NtParseError>`.
pub struct NtParser<'a> {
    scanner: NtScanner<'a>,
}

impl<'a> NtParser<'a> {
    /// Parse `input` lazily, line by line.
    pub fn new(input: &'a str) -> Self {
        Self {
            scanner: NtScanner::new(input),
        }
    }
}

impl Iterator for NtParser<'_> {
    type Item = Result<Triple, NtParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.scanner.next_triple()?.map(|triple| triple.to_triple()))
    }
}

/// Streaming scanner: yields one borrowed [`TripleRef`] per statement.
///
/// Not an [`Iterator`] because a yielded triple may borrow the scanner's
/// scratch buffers, which the next call overwrites.
pub struct NtScanner<'a> {
    input: &'a str,
    /// Byte offset where the next line starts.
    next_line: usize,
    line_no: usize,
    scratch: Scratch,
}

/// Where a term that had escapes is unescaped into: one reused buffer each
/// for the subject, the predicate, the object (an IRI or a literal's
/// lexical form) and a literal's datatype.
type Scratch = [String; 4];

impl<'a> NtScanner<'a> {
    /// Scan `input` lazily, line by line.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            next_line: 0,
            line_no: 0,
            scratch: Scratch::default(),
        }
    }

    /// The next statement, skipping blank and comment lines; `None` at the
    /// end of the input. After a malformed statement, the next call goes on
    /// with the line after it.
    pub fn next_triple(&mut self) -> Option<Result<TripleRef<'_>, NtParseError>> {
        while self.next_line < self.input.len() {
            self.line_no += 1;
            // The cursor starts at the line, so its positions are the line's.
            let line_start = self.next_line;
            let mut cursor = Cursor::new(&self.input[line_start..], true);
            skip_ws(&mut cursor);
            if cursor.at_end() || cursor.peek() == Some(b'#') {
                self.next_line = line_start + cursor.next_line();
                continue;
            }
            let mut triple = statement(&mut cursor, &mut self.scratch);
            self.next_line = line_start + cursor.next_line();
            if let Err(err) = &mut triple {
                // The cursor's text starts at the line: its errors read line 1.
                err.line = self.line_no;
            }
            return Some(triple);
        }
        None
    }
}

fn skip_ws(cursor: &mut Cursor<'_>) {
    // Neither byte ends a line.
    while matches!(cursor.byte(), Some(b' ' | b'\t')) {
        cursor.pos += 1;
    }
}

/// The character at the cursor, for an error message (a byte is present).
fn found(cursor: &Cursor<'_>) -> char {
    cursor.peek_char().expect("a byte is present")
}

/// `subject predicate object .` with optional trailing comment. A term
/// borrows the input, or its scratch buffer if it had an escape.
fn statement<'x>(
    cursor: &mut Cursor<'x>,
    scratch: &'x mut Scratch,
) -> Result<TripleRef<'x>, NtParseError> {
    let [subject, predicate, object, datatype] = scratch;
    let subject = match cursor.peek() {
        Some(b'<') => SubjectRef::Iri(cursor.iri(subject)?.unwrap_or(subject)),
        Some(b'_') => SubjectRef::Blank(cursor.blank_node()?),
        Some(_) => {
            let message = format!(
                "expected IRI or blank node subject, found '{}'",
                found(cursor)
            );
            return Err(cursor.error(message).into());
        }
        None => return Err(cursor.error("expected subject, found end of line").into()),
    };
    skip_ws(cursor);
    let predicate = cursor.iri(predicate)?.unwrap_or(predicate);
    skip_ws(cursor);
    let object = match cursor.peek() {
        Some(b'<') => ObjectRef::Iri(cursor.iri(object)?.unwrap_or(object)),
        Some(b'_') => ObjectRef::Blank(cursor.blank_node()?),
        Some(b'"') => ObjectRef::Literal(literal(cursor, object, datatype)?),
        Some(_) => {
            let c = found(cursor);
            let message = format!("expected IRI, blank node or literal object, found '{c}'");
            return Err(cursor.error(message).into());
        }
        None => return Err(cursor.error("expected object, found end of line").into()),
    };
    skip_ws(cursor);
    cursor.expect(b'.')?;
    skip_ws(cursor);
    match cursor.peek() {
        None | Some(b'#') => {} // end of line or trailing comment
        Some(_) => {
            let message = format!("unexpected trailing content '{}'", found(cursor));
            return Err(cursor.error(message).into());
        }
    }
    Ok(TripleRef {
        subject,
        predicate,
        object,
    })
}

/// `"…"`, `"…"@lang` or `"…"^^<datatype>`.
fn literal<'x>(
    cursor: &mut Cursor<'x>,
    lexical: &'x mut String,
    datatype: &'x mut String,
) -> Result<LiteralRef<'x>, LexError> {
    let token_start = cursor.pos;
    let (text, control) = cursor.string(b'"', lexical)?;
    // Whether the token, as written, is the canonical form.
    let mut canonical = text.is_some() && !control;
    let suffix = match cursor.peek() {
        Some(b'@') => LiteralSuffixRef::Lang(cursor.lang_tag()?),
        Some(b'^') => {
            cursor.pos += 1;
            cursor.expect(b'^')?;
            let iri = cursor.iri(datatype)?;
            // An escape is not the canonical spelling, and the canonical
            // form of an `xsd:string` omits its datatype.
            canonical &= iri.is_some_and(|iri| iri != XSD_STRING);
            LiteralSuffixRef::Datatype(iri.unwrap_or(datatype))
        }
        _ => LiteralSuffixRef::None,
    };
    let literal = LiteralRef::new(text.unwrap_or(lexical), suffix);
    Ok(match canonical {
        true => literal.with_canonical_source(&cursor.text()[token_start..cursor.pos]),
        false => literal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{plain_run, ByteClass, IRI, LITERAL, LITERAL_SINGLE, PLAIN};
    use crate::term::{BlankNode, Iri, LiteralSuffix, Object, Subject};

    /// The character-by-character parser this module replaced, kept as the
    /// oracle of the differential tests below.
    mod reference {
        use super::super::NtParseError;
        use crate::term::{BlankNode, Iri, Literal, Object, Subject};
        use crate::triple::Triple;

        pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>, NtParseError> {
            let mut triples = Vec::new();
            for (index, line) in input.lines().enumerate() {
                let mut scanner = Scanner::new(line, index + 1);
                scanner.skip_ws();
                if scanner.at_end() || scanner.peek() == Some('#') {
                    continue; // blank or comment line
                }
                triples.push(scanner.statement()?);
            }
            Ok(triples)
        }

        pub fn parse_literal(input: &str) -> Result<Literal, NtParseError> {
            let mut scanner = Scanner::new(input, 1);
            let literal = scanner.literal()?;
            scanner.skip_ws();
            if !scanner.at_end() {
                return Err(scanner.error("trailing content after literal"));
            }
            Ok(literal)
        }

        /// Character scanner over a single line.
        struct Scanner {
            chars: Vec<char>,
            pos: usize,
            line: usize,
        }

        impl Scanner {
            fn new(line: &str, line_no: usize) -> Self {
                Self {
                    chars: line.chars().collect(),
                    pos: 0,
                    line: line_no,
                }
            }

            fn error(&self, message: impl Into<String>) -> NtParseError {
                NtParseError {
                    line: self.line,
                    column: self.pos + 1,
                    message: message.into(),
                }
            }

            fn at_end(&self) -> bool {
                self.pos >= self.chars.len()
            }

            fn peek(&self) -> Option<char> {
                self.chars.get(self.pos).copied()
            }

            fn bump(&mut self) -> Option<char> {
                let c = self.peek();
                if c.is_some() {
                    self.pos += 1;
                }
                c
            }

            fn expect(&mut self, expected: char) -> Result<(), NtParseError> {
                match self.bump() {
                    Some(c) if c == expected => Ok(()),
                    Some(c) => Err(self.error(format!("expected '{expected}', found '{c}'"))),
                    None => Err(self.error(format!("expected '{expected}', found end of line"))),
                }
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(c) if c == ' ' || c == '\t') {
                    self.pos += 1;
                }
            }

            /// `subject predicate object .` with optional trailing comment.
            fn statement(&mut self) -> Result<Triple, NtParseError> {
                let subject = self.subject()?;
                self.skip_ws();
                let predicate = self.iri()?;
                self.skip_ws();
                let object = self.object()?;
                self.skip_ws();
                self.expect('.')?;
                self.skip_ws();
                match self.peek() {
                    None => {}
                    Some('#') => {} // trailing comment
                    Some(c) => return Err(self.error(format!("unexpected trailing content '{c}'"))),
                }
                Ok(Triple {
                    subject,
                    predicate,
                    object,
                })
            }

            fn subject(&mut self) -> Result<Subject, NtParseError> {
                match self.peek() {
                    Some('<') => Ok(Subject::Iri(self.iri()?)),
                    Some('_') => Ok(Subject::Blank(self.blank_node()?)),
                    Some(c) => {
                        Err(self.error(format!("expected IRI or blank node subject, found '{c}'")))
                    }
                    None => Err(self.error("expected subject, found end of line")),
                }
            }

            fn object(&mut self) -> Result<Object, NtParseError> {
                match self.peek() {
                    Some('<') => Ok(Object::Iri(self.iri()?)),
                    Some('_') => Ok(Object::Blank(self.blank_node()?)),
                    Some('"') => Ok(Object::Literal(self.literal()?)),
                    Some(c) => Err(self.error(format!(
                        "expected IRI, blank node or literal object, found '{c}'"
                    ))),
                    None => Err(self.error("expected object, found end of line")),
                }
            }

            fn iri(&mut self) -> Result<Iri, NtParseError> {
                self.expect('<')?;
                let mut out = String::new();
                loop {
                    match self.bump() {
                        Some('>') => break,
                        Some('\\') => out.push(self.unicode_escape()?),
                        Some(c)
                            if c > ' '
                                && c != '<'
                                && c != '"'
                                && c != '{'
                                && c != '}'
                                && c != '|'
                                && c != '^'
                                && c != '`' =>
                        {
                            out.push(c);
                        }
                        Some(c) => {
                            return Err(self.error(format!("character '{c}' not allowed in IRI")))
                        }
                        None => return Err(self.error("unterminated IRI")),
                    }
                }
                if out.is_empty() {
                    return Err(self.error("empty IRI"));
                }
                Ok(Iri::new(out))
            }

            fn blank_node(&mut self) -> Result<BlankNode, NtParseError> {
                self.expect('_')?;
                self.expect(':')?;
                let mut label = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                        label.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                // A trailing '.' belongs to the statement terminator, not the label.
                while label.ends_with('.') {
                    label.pop();
                    self.pos -= 1;
                }
                if label.is_empty() {
                    return Err(self.error("empty blank node label"));
                }
                Ok(BlankNode::new(label))
            }

            fn literal(&mut self) -> Result<Literal, NtParseError> {
                self.expect('"')?;
                let mut lexical = String::new();
                loop {
                    match self.bump() {
                        Some('"') => break,
                        Some('\\') => {
                            let escaped = match self.peek() {
                                Some('t') => {
                                    self.pos += 1;
                                    '\t'
                                }
                                Some('b') => {
                                    self.pos += 1;
                                    '\u{8}'
                                }
                                Some('n') => {
                                    self.pos += 1;
                                    '\n'
                                }
                                Some('r') => {
                                    self.pos += 1;
                                    '\r'
                                }
                                Some('f') => {
                                    self.pos += 1;
                                    '\u{c}'
                                }
                                Some('"') => {
                                    self.pos += 1;
                                    '"'
                                }
                                Some('\'') => {
                                    self.pos += 1;
                                    '\''
                                }
                                Some('\\') => {
                                    self.pos += 1;
                                    '\\'
                                }
                                Some('u') | Some('U') => self.unicode_escape_body()?,
                                Some(c) => {
                                    return Err(self.error(format!("invalid escape '\\{c}'")))
                                }
                                None => return Err(self.error("unterminated escape")),
                            };
                            lexical.push(escaped);
                        }
                        Some(c) => lexical.push(c),
                        None => return Err(self.error("unterminated literal")),
                    }
                }
                // Optional language tag or datatype.
                match self.peek() {
                    Some('@') => {
                        self.pos += 1;
                        let mut lang = String::new();
                        while let Some(c) = self.peek() {
                            if c.is_ascii_alphanumeric() || c == '-' {
                                lang.push(c);
                                self.pos += 1;
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
                        self.expect('^')?;
                        self.expect('^')?;
                        let datatype = self.iri()?;
                        Ok(Literal::typed(lexical, datatype))
                    }
                    _ => Ok(Literal::plain(lexical)),
                }
            }

            /// `\` already consumed; parse `uXXXX` / `UXXXXXXXX`.
            fn unicode_escape(&mut self) -> Result<char, NtParseError> {
                match self.peek() {
                    Some('u') | Some('U') => self.unicode_escape_body(),
                    Some(c) => Err(self.error(format!("invalid IRI escape '\\{c}'"))),
                    None => Err(self.error("unterminated escape")),
                }
            }

            /// At `u`/`U`; consumes it plus 4 or 8 hex digits.
            fn unicode_escape_body(&mut self) -> Result<char, NtParseError> {
                let width = match self.bump() {
                    Some('u') => 4,
                    Some('U') => 8,
                    _ => unreachable!("caller checked"),
                };
                let mut value: u32 = 0;
                for _ in 0..width {
                    let digit = self
                        .bump()
                        .and_then(|c| c.to_digit(16))
                        .ok_or_else(|| self.error("invalid unicode escape digit"))?;
                    value = value * 16 + digit;
                }
                char::from_u32(value)
                    .ok_or_else(|| self.error(format!("invalid code point U+{value:X}")))
            }
        }
    }

    fn one(input: &str) -> Triple {
        let triples = parse_ntriples(input).expect("parse");
        assert_eq!(triples.len(), 1, "expected one triple in {input:?}");
        triples.into_iter().next().unwrap()
    }

    #[test]
    fn parses_resource_triple() {
        let t = one("<http://x/London> <http://y/isPartOf> <http://x/England> .");
        assert_eq!(t.subject, Subject::Iri(Iri::new("http://x/London")));
        assert_eq!(t.predicate, Iri::new("http://y/isPartOf"));
        assert_eq!(t.object, Object::Iri(Iri::new("http://x/England")));
    }

    #[test]
    fn parses_plain_literal() {
        let t = one("<http://x/W> <http://y/capacity> \"90000\" .");
        assert_eq!(t.object, Object::Literal(Literal::plain("90000")));
    }

    #[test]
    fn parses_lang_literal() {
        let t = one("<http://x/L> <http://y/name> \"London\"@en-GB .");
        let Object::Literal(lit) = t.object else {
            panic!("expected literal")
        };
        assert_eq!(lit.lexical(), "London");
        assert_eq!(lit.suffix(), &LiteralSuffix::Lang("en-GB".into()));
    }

    #[test]
    fn parses_typed_literal() {
        let t =
            one("<http://x/W> <http://y/cap> \"90000\"^^<http://www.w3.org/2001/XMLSchema#int> .");
        let Object::Literal(lit) = t.object else {
            panic!("expected literal")
        };
        assert_eq!(
            lit.suffix(),
            &LiteralSuffix::Datatype(Iri::new("http://www.w3.org/2001/XMLSchema#int"))
        );
    }

    #[test]
    fn parses_blank_nodes() {
        let t = one("_:a <http://y/knows> _:b1.x .");
        assert_eq!(t.subject, Subject::Blank(BlankNode::new("a")));
        // label may contain dots, but the statement terminator must survive
        assert_eq!(t.object, Object::Blank(BlankNode::new("b1.x")));
    }

    #[test]
    fn parses_escapes_in_literals() {
        let t = one(r#"<http://x/a> <http://y/p> "tab\there \"q\" \\ é \U0001F600" ."#);
        let Object::Literal(lit) = t.object else {
            panic!()
        };
        assert_eq!(lit.lexical(), "tab\there \"q\" \\ é 😀");
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let input = "\n# header comment\n  \n<http://a> <http://p> <http://b> . # trailing\n";
        let triples = parse_ntriples(input).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_ntriples("<http://a> <http://p> <http://b>").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("'.'"), "{}", err.message);

        let err = parse_ntriples("ok this is not rdf .").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 1);
    }

    #[test]
    fn error_on_line_two() {
        let input = "<http://a> <http://p> <http://b> .\n<http://a> <http://p> oops .";
        let err = parse_ntriples(input).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_literal_subject_position() {
        let err = parse_ntriples("\"lit\" <http://p> <http://o> .").unwrap_err();
        assert!(err.message.contains("subject"));
    }

    #[test]
    fn rejects_unterminated_literal() {
        let err = parse_ntriples("<http://a> <http://p> \"oops .").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn rejects_bad_unicode_escape() {
        let err = parse_ntriples(r#"<http://a> <http://p> "\uZZZZ" ."#).unwrap_err();
        assert!(err.message.contains("unicode"));
    }

    #[test]
    fn rejects_space_in_iri() {
        assert!(parse_ntriples("<http://a b> <http://p> <http://o> .").is_err());
        // Decoded from an escape, as written.
        let err = parse_ntriples("<http://a\\u0020b> <http://p> <http://o> .").unwrap_err();
        assert_eq!(err.message, "character ' ' not allowed in IRI");
    }

    #[test]
    fn streaming_parser_continues_after_yielding() {
        let input = "<http://a> <http://p> <http://b> .\n<http://c> <http://p> <http://d> .";
        let mut parser = NtParser::new(input);
        assert!(parser.next().unwrap().is_ok());
        assert!(parser.next().unwrap().is_ok());
        assert!(parser.next().is_none());
    }

    #[test]
    fn parse_literal_round_trips_display() {
        for lit in [
            Literal::plain("90000"),
            Literal::lang("Londres", "fr"),
            Literal::typed("5", Iri::new("http://www.w3.org/2001/XMLSchema#int")),
            Literal::plain("with \"quotes\" and \\slashes\\"),
        ] {
            assert_eq!(parse_literal(&lit.to_string()).unwrap(), lit);
        }
        assert!(parse_literal("\"unterminated").is_err());
        assert!(parse_literal("\"x\" trailing").is_err());
        assert!(parse_literal("<http://not-a-literal>").is_err());
    }

    #[test]
    fn paper_figure_1a_sample() {
        // A subset of Fig. 1a in full IRI form.
        let input = "\
<http://dbpedia.org/resource/London> <http://dbpedia.org/ontology/isPartOf> <http://dbpedia.org/resource/England> .
<http://dbpedia.org/resource/WembleyStadium> <http://dbpedia.org/ontology/hasCapacityOf> \"90000\" .
<http://dbpedia.org/resource/Music_Band> <http://dbpedia.org/ontology/hasName> \"MCA_Band\" .";
        let triples = parse_ntriples(input).unwrap();
        assert_eq!(triples.len(), 3);
        assert!(matches!(triples[1].object, Object::Literal(_)));
    }

    /// Both parsers on one document: equal triples or the equal
    /// `(line, column, message)`; and every literal the scanner hands out
    /// composes the canonical form its owned copy prints.
    fn assert_parsers_agree(doc: &str) {
        assert_eq!(
            parse_ntriples(doc),
            reference::parse_ntriples(doc),
            "document {doc:?}"
        );
        let mut scanner = NtScanner::new(doc);
        let mut composed = String::new();
        while let Some(Ok(triple)) = scanner.next_triple() {
            if let ObjectRef::Literal(literal) = triple.object {
                composed.clear();
                literal.write_ntriples(&mut composed);
                assert_eq!(composed, literal.to_literal().to_string(), "in {doc:?}");
            }
        }
    }

    /// Pieces of statements, valid and hostile, that the generated
    /// documents are glued from.
    const FRAGMENTS: &[&str] = &[
        "<http://x/a>",
        "<http://y/p>",
        "<http://é/日本>",
        "<http://x/\\u00e9\\U0001F600>",
        "<http://x/\\u00zz>",
        "<http://x/\\n>",
        "<a b>",
        "<a{b>",
        "<>",
        "<http://unterminated",
        "_:b0",
        "_:b1.x",
        "_:é9.",
        "_:",
        "_:...",
        "\"plain\"",
        "\"\"",
        "\"日本 é\"",
        "\"tab\\there \\\"q\\\" \\\\ \\b\\f\\n\\r\\'\"",
        "\"\\u0041\\U0001F600\"",
        "\"raw\ttab\"",
        "\"mid\rcr\"",
        "\"\u{1}ctl\"",
        "\"é\\x\"",
        "\"日\\uD800\"",
        "\"\\u12",
        "\"\\U0011FFFF\"",
        "\"\\",
        "\"unterminated",
        "@en",
        "@en-GB",
        "@",
        "^^<http://t/int>",
        "^^<http://t/\\u0041>",
        "^^",
        "^",
        " ",
        "\t",
        " .",
        ".",
        " . # trailing",
        "# comment",
        "\n",
        "\r\n",
        "\r",
        "é",
        "日本",
        "\\",
        "\"",
        "<",
        ">",
        "x",
    ];

    const SUBJECTS: &[&str] = &[
        "<http://x/a>",
        "<http://x/b\\u00e9>",
        "_:b0",
        "_:n.1",
        "<http://日本/é>",
    ];
    const PREDICATES: &[&str] = &["<http://y/p>", "<http://y/q\\U0001F600>", "<http://y/é>"];
    const OBJECTS: &[&str] = &[
        "<http://x/c>",
        "_:b0.",
        "_:b1",
        "\"plain\"",
        "\"é\\t\\\"x\\\"\\\\\"@en-GB",
        "\"5\"^^<http://t/int>",
        "\"5\"^^<http://t/\\u0069nt>",
        "\"\\u0041\\U0001F600 日本\"",
        "\"raw\ttab\"@fr",
    ];
    const ENDINGS: &[&str] = &[" .\n", ".\n", " . # c\r\n", "\t.\t\n", " .", "\n", " . x\n"];

    /// A mostly well-formed document: statements, comments, blank lines.
    fn statements(picks: &[(usize, usize, usize, usize)]) -> String {
        let mut doc = String::new();
        for &(s, p, o, e) in picks {
            match s % 7 {
                5 => doc.push_str("# a comment line\n"),
                6 => doc.push_str("  \t\r\n"),
                _ => {}
            }
            doc.push_str(SUBJECTS[s % SUBJECTS.len()]);
            doc.push(' ');
            doc.push_str(PREDICATES[p % PREDICATES.len()]);
            doc.push(if o % 2 == 0 { ' ' } else { '\t' });
            doc.push_str(OBJECTS[o % OBJECTS.len()]);
            doc.push_str(ENDINGS[e % ENDINGS.len()]);
        }
        doc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        #[test]
        fn scanner_matches_the_reference_on_glued_fragments(
            picks in proptest::prop::collection::vec(0..FRAGMENTS.len(), 0..14)
        ) {
            let doc: String = picks.into_iter().map(|i| FRAGMENTS[i]).collect();
            assert_parsers_agree(&doc);
            assert_eq!(parse_literal(&doc), reference::parse_literal(&doc), "literal {doc:?}");
        }

        #[test]
        fn scanner_matches_the_reference_on_mutated_documents(
            picks in proptest::prop::collection::vec(
                (0..64usize, 0..64usize, 0..64usize, 0..64usize), 1..6),
            cut in 0..400usize,
            flip in 0..400usize,
            with in 0..FRAGMENTS.len(),
        ) {
            let doc = statements(&picks);
            assert_parsers_agree(&doc);
            // Truncate, flip and extend, each at a character boundary
            // (the input type is `&str`, so the bytes stay UTF-8).
            let boundary = |at: usize| {
                let mut at = at % (doc.len() + 1);
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                at
            };
            assert_parsers_agree(&doc[..boundary(cut)]);
            let at = boundary(flip);
            let skip = doc[at..].chars().next().map_or(0, char::len_utf8);
            assert_parsers_agree(&format!("{}{}{}", &doc[..at], FRAGMENTS[with], &doc[at + skip..]));
            assert_parsers_agree(&format!("{}{}{}", &doc[..at], FRAGMENTS[with], &doc[at..]));
        }
    }

    /// The table loop the word loop replaced: the oracle of
    /// [`plain_run`].
    fn table_run(bytes: &[u8], class: &ByteClass) -> usize {
        bytes
            .iter()
            .position(|&byte| class.table[byte as usize] != PLAIN)
            .unwrap_or(bytes.len())
    }

    /// Both loops from every start offset modulo a word.
    fn assert_runs_agree(bytes: &[u8]) {
        for (name, class) in [
            ("IRI", &IRI),
            ("literal", &LITERAL),
            ("single-quoted literal", &LITERAL_SINGLE),
        ] {
            for start in 0..bytes.len().min(8) {
                let rest = &bytes[start..];
                assert_eq!(
                    plain_run(rest, class),
                    table_run(rest, class),
                    "{name} run from {start} in {bytes:02x?}"
                );
            }
        }
    }

    /// Bytes at the edges of the two classes: every byte either stops on,
    /// the bytes next to each, DEL, UTF-8 lead and continuation bytes, and
    /// a few plain letters.
    const EDGE_BYTES: &[u8] = &[
        0x00, 0x01, b'\t', b'\n', b'\r', 0x1F, b' ', b'!', b'"', b'#', b';', b'<', b'=', b'>',
        b'?', b'[', b'\\', b']', b'^', b'_', b'`', b'a', b'z', b'{', b'|', b'}', b'~', 0x7F, 0x80,
        0x9F, 0xA9, 0xBF, 0xC2, 0xC3, 0xE6, 0xF0, 0xF4, 0xFF,
    ];

    #[test]
    fn the_word_loop_stops_where_the_table_loop_does_on_every_byte() {
        // Each byte value at each position of a word, after a plain prefix
        // of every length below a word, with a second stop byte after it
        // (a borrow out of the first must not move the stop).
        for byte in 0..=255u8 {
            for prefix in 0..8 {
                let mut bytes = vec![b'a'; prefix];
                bytes.push(byte);
                bytes.extend_from_slice(b"abc\x00defghij>\"");
                assert_runs_agree(&bytes);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        #[test]
        fn the_word_loop_stops_where_the_table_loop_does(
            picks in proptest::prop::collection::vec(0..EDGE_BYTES.len() + 4, 0..40)
        ) {
            // Plain letters in between keep runs longer than a word.
            let bytes: Vec<u8> = picks
                .into_iter()
                .map(|i| EDGE_BYTES.get(i).copied().unwrap_or(b'm'))
                .collect();
            assert_runs_agree(&bytes);
        }
    }

    #[test]
    fn column_counts_characters_not_bytes() {
        // 'é' and '日' are multi-byte: the rejected 'x' is the sixth
        // character and the ninth byte.
        let err = parse_ntriples("<é日> x").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));
        assert_parsers_agree("<é日> x");
    }

    #[test]
    fn an_xsd_string_literal_composes_the_simple_form() {
        // Otherwise clean, so only the datatype keeps the source token from
        // standing in for the canonical form.
        let doc = "<http://x/a> <http://y/p> \"x\"^^<http://www.w3.org/2001/XMLSchema#string> .\n\
                   <http://x/a> <http://y/p> \"x\"^^<http://www.w3.org/2001/XMLSchema#int> .";
        let mut scanner = NtScanner::new(doc);
        let mut composed = Vec::new();
        while let Some(triple) = scanner.next_triple() {
            let ObjectRef::Literal(literal) = triple.unwrap().object else {
                panic!("a literal object")
            };
            let mut key = String::new();
            literal.write_ntriples(&mut key);
            composed.push(key);
        }
        assert_eq!(
            composed,
            ["\"x\"", "\"x\"^^<http://www.w3.org/2001/XMLSchema#int>"]
        );
        assert_parsers_agree(doc);
    }

    #[test]
    fn terms_borrow_the_input_unless_escaped() {
        let doc = "<http://x/a> <http://y/p> \"plain\"@en .\n<http://x/\\u0061> <http://y/p> \"t\\tab\" .";
        let within = |s: &str| doc.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let mut scanner = NtScanner::new(doc);
        let first = scanner.next_triple().unwrap().unwrap();
        let (SubjectRef::Iri(subject), ObjectRef::Literal(literal)) = (first.subject, first.object)
        else {
            panic!("unexpected shape {first:?}")
        };
        assert!(within(subject) && within(first.predicate) && within(literal.lexical()));
        let second = scanner.next_triple().unwrap().unwrap();
        let (SubjectRef::Iri(subject), ObjectRef::Literal(literal)) =
            (second.subject, second.object)
        else {
            panic!("unexpected shape {second:?}")
        };
        assert_eq!((subject, literal.lexical()), ("http://x/a", "t\tab"));
        assert!(!within(subject) && within(second.predicate) && !within(literal.lexical()));
        assert!(scanner.next_triple().is_none());
    }
}
