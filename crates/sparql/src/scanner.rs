//! Byte-level scanner for the SELECT/WHERE fragment.
//!
//! [`scan`] reads a query once, byte by byte, and hands every term of the
//! WHERE clause to a [`QuerySink`] as it reads it: a subject, then a
//! predicate, then each object (a `;`/`,` list repeats the subject or the
//! predicate it shares). Terms are borrowed ([`TermRef`]): variable names
//! and IRIs are slices of the input, a prefixed name is expanded into one
//! buffer the scanner reuses, and only a literal with an escape sequence
//! is unescaped (into a second buffer). Nothing is owned unless the sink
//! decides to own it, so a sink that resolves terms to ids (the query
//! compiler in `amber_multigraph`) never allocates a term, and
//! [`parse_select`](crate::parse_select) is the same scan with a sink that
//! builds the owned AST.
//!
//! The grammar, and every error's kind, position and message, are those
//! of the tokenizer + parser pair this scanner replaced, with two fixes:
//! numeric literals are typed by the SPARQL grammar (`1e5` is an
//! `xsd:double`, `.5` an `xsd:decimal`, a 21-digit integer an
//! `xsd:integer`), and an unbound projected variable is reported at its
//! own position. Two of the old precedence rules need care in one pass:
//!
//! * an unsupported keyword (`FILTER`, `LIMIT`, …) anywhere in the text
//!   wins over every other error. The scanner checks the words of each
//!   identifier-like token it reads; a hit, or any other error, sends it
//!   to the exact check (`unsupported_keyword`), which walks the whole
//!   text with the old pre-pass's rules (its word boundaries differ from
//!   token boundaries in corner cases such as `?a1limit:x`);
//! * a malformed token anywhere wins over a grammar error earlier in the
//!   text, so after a grammar error the rest of the text is still lexed.
//!
//! Positions are computed from byte offsets only when an error is
//! reported; columns count characters.

use crate::error::{SparqlError, SparqlErrorKind};
use rdf_model::{Literal, LiteralRef, LiteralSuffixRef};

/// The IRI the `a` keyword stands for.
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

/// Keywords that are valid SPARQL but outside the paper's fragment.
const UNSUPPORTED_KEYWORDS: &[&str] = &[
    "FILTER",
    "OPTIONAL",
    "UNION",
    "GRAPH",
    "GROUP",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "HAVING",
    "BIND",
    "VALUES",
    "MINUS",
    "SERVICE",
    "CONSTRUCT",
    "ASK",
    "DESCRIBE",
    "INSERT",
    "DELETE",
    "EXISTS",
    "REDUCED",
    "FROM",
];

/// A term handed to a [`QuerySink`], borrowed from the input or from one
/// of the scanner's buffers (valid for the call only).
#[derive(Debug, Clone, Copy)]
pub enum TermRef<'t> {
    /// A variable name, without `?`/`$`.
    Variable(&'t str),
    /// An IRI, prefixed names already expanded.
    Iri(&'t str),
    /// A literal, escapes already resolved.
    Literal(LiteralRef<'t>),
}

/// The receiving end of [`scan`]: one call per term, in text order, then
/// one [`finish`](Self::finish).
///
/// The scanner has already enforced the fragment: a subject is a variable
/// or an IRI, and a predicate is an IRI.
pub trait QuerySink {
    /// The subject of the triple patterns that follow.
    fn subject(&mut self, term: TermRef<'_>);
    /// The predicate of the triple patterns that follow.
    fn predicate(&mut self, iri: &str);
    /// An object: completes one triple pattern with the current subject
    /// and predicate.
    fn object(&mut self, term: TermRef<'_>);
    /// Whether a pattern so far mentions `variable` (the check of an
    /// explicit projection).
    fn binds(&self, variable: &str) -> bool;
    /// End of the query: `DISTINCT`, and the projected variable names
    /// (`None` for `SELECT *`).
    fn finish(&mut self, distinct: bool, projection: Option<&[&str]>);
    /// Forget everything received so far (the scanner is about to replay
    /// the query from its start).
    fn reset(&mut self);
}

/// Scan `input` into `sink`. On `Err`, whatever the sink received is
/// partial and should be discarded.
pub fn scan(input: &str, sink: &mut impl QuerySink) -> Result<(), SparqlError> {
    let mut scanner = Scanner::new(input, true);
    let fail = match scanner.query(sink) {
        Ok(()) if !scanner.lex.irregular => return Ok(()),
        // A datatype IRI spanning a line: the old pre-pass resumed its
        // keyword search inside it, so only the exact check can tell.
        Ok(()) => return unsupported_keyword(input).map_or(Ok(()), Err),
        Err(fail) => fail,
    };
    if let Some(err) = unsupported_keyword(input) {
        return Err(err);
    }
    let fail = match fail {
        // A token-wise keyword hit the exact check does not confirm:
        // scan again without the token-wise check.
        Fail::Keyword => {
            sink.reset();
            scanner = Scanner::new(input, false);
            match scanner.query(sink) {
                Ok(()) => return Ok(()),
                Err(fail) => fail,
            }
        }
        fail => fail,
    };
    Err(match fail {
        Fail::Lex(err) => err,
        Fail::Grammar(err) => scanner.first_lex_error().unwrap_or(err),
        Fail::Keyword => unreachable!("the token-wise keyword check is off"),
    })
}

/// Why a scan stopped.
enum Fail {
    /// A malformed token.
    Lex(SparqlError),
    /// Well-formed tokens in a wrong order.
    Grammar(SparqlError),
    /// A token contains an unsupported keyword by the token-wise check
    /// (confirmed or refuted by [`unsupported_keyword`]).
    Keyword,
}

/// The 1-based line and character column of byte `offset`.
fn position(input: &str, offset: usize) -> (usize, usize) {
    let before = &input.as_bytes()[..offset];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |newline| newline + 1);
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    // Counting the bytes that start a character never slices the input.
    let column = 1 + before[line_start..]
        .iter()
        .filter(|&&b| b & 0xC0 != 0x80)
        .count();
    (line, column)
}

fn is_keyword(word: &[u8]) -> bool {
    (3..=9).contains(&word.len())
        && UNSUPPORTED_KEYWORDS
            .iter()
            .any(|keyword| keyword.as_bytes().eq_ignore_ascii_case(word))
}

/// The token-wise keyword check: the old pre-pass's word rules applied to
/// one token's bytes. A byte outside ASCII ends a word here, where the
/// pre-pass lets a non-ASCII letter extend it (and so unmake a keyword):
/// the check reports every keyword the pre-pass would report inside the
/// token, and possibly more (see the module docs).
fn token_has_keyword(token: &str) -> bool {
    let token = token.as_bytes();
    let mut word = 0;
    let mut is_name = false;
    for (i, &byte) in token.iter().enumerate() {
        if byte.is_ascii_alphabetic() || byte == b'_' {
            word += 1;
            continue;
        }
        if byte == b':' {
            is_name = true;
        } else {
            if !is_name && is_keyword(&token[i - word..i]) {
                return true;
            }
            is_name = byte == b'?' || byte == b'$';
        }
        word = 0;
    }
    !is_name && is_keyword(&token[token.len() - word..])
}

/// The first unsupported keyword outside literals, IRIs and comments, by
/// the rules (and with the positions) of the pre-pass the scanner
/// replaced: words are runs of letters and `_`, a word touching `:` is a
/// prefixed-name part, one after `?`/`$` a variable name.
fn unsupported_keyword(input: &str) -> Option<SparqlError> {
    let (mut line, mut column) = (1usize, 1usize);
    // The current word: its byte range and where it started.
    let mut word: Option<(usize, usize, usize, usize)> = None;
    let mut word_is_name = false;
    let mut chars = input.char_indices().peekable();

    let flush = |word: &mut Option<(usize, usize, usize, usize)>,
                 is_name: &mut bool|
     -> Option<SparqlError> {
        let found = word.take().and_then(|(start, end, line, column)| {
            let text = &input[start..end];
            (!*is_name && is_keyword(text.as_bytes())).then(|| {
                let upper = text.to_ascii_uppercase();
                SparqlError::unsupported(
                    line,
                    column,
                    format!(
                        "'{upper}' is outside the SELECT/WHERE fragment the engine supports (paper §1)"
                    ),
                )
            })
        });
        *is_name = false;
        found
    };

    while let Some((i, c)) = chars.next() {
        match c {
            '"' | '\'' => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                column += 1;
                // Skip to the closing quote, honoring escapes.
                while let Some((_, d)) = chars.next() {
                    if d == '\n' {
                        line += 1;
                        column = 1;
                    } else {
                        column += 1;
                    }
                    if d == '\\' {
                        if chars.next().is_some() {
                            column += 1;
                        }
                    } else if d == c {
                        break;
                    }
                }
            }
            '<' => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                column += 1;
                for (_, d) in chars.by_ref() {
                    column += 1;
                    if d == '>' || d == '\n' {
                        if d == '\n' {
                            line += 1;
                            column = 1;
                        }
                        break;
                    }
                }
            }
            '#' => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                for (_, d) in chars.by_ref() {
                    if d == '\n' {
                        line += 1;
                        column = 1;
                        break;
                    }
                }
            }
            ':' => {
                word = None;
                word_is_name = true;
                column += 1;
            }
            '?' | '$' => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                word_is_name = true;
                column += 1;
            }
            c if c.is_alphabetic() || c == '_' => {
                match &mut word {
                    Some((_, end, _, _)) => *end = i + c.len_utf8(),
                    None => word = Some((i, i + c.len_utf8(), line, column)),
                }
                column += 1;
            }
            '\n' => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                line += 1;
                column = 1;
            }
            _ => {
                if let Some(err) = flush(&mut word, &mut word_is_name) {
                    return Some(err);
                }
                column += 1;
            }
        }
    }
    flush(&mut word, &mut word_is_name)
}

/// The datatype of a numeric literal by the SPARQL grammar
/// (`[+-]? (INTEGER | DECIMAL | DOUBLE)`), `None` when `body` is not a
/// number.
fn numeric_datatype(body: &str) -> Option<&'static str> {
    let bytes = body.as_bytes();
    let digits_from = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut i = usize::from(matches!(bytes.first(), Some(b'+' | b'-')));
    let integer_end = digits_from(i);
    let mut digits = integer_end - i;
    i = integer_end;
    let mut dot = false;
    if bytes.get(i) == Some(&b'.') {
        dot = true;
        let fraction_end = digits_from(i + 1);
        let fraction = fraction_end - (i + 1);
        if fraction == 0 && !matches!(bytes.get(fraction_end), Some(b'e' | b'E')) {
            return None; // DECIMAL needs digits after the point
        }
        digits += fraction;
        i = fraction_end;
    }
    let exponent = matches!(bytes.get(i), Some(b'e' | b'E'));
    if exponent {
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exponent_end = digits_from(i);
        if exponent_end == i {
            return None;
        }
        i = exponent_end;
    }
    if i != bytes.len() || digits == 0 {
        return None;
    }
    Some(match (dot, exponent) {
        (_, true) => XSD_DOUBLE,
        (true, false) => XSD_DECIMAL,
        (false, false) => XSD_INTEGER,
    })
}

/// A literal token; its lexical form is a slice of the input, or the
/// lexer's unescape buffer when it had an escape sequence.
#[derive(Clone, Copy)]
struct LiteralToken<'a> {
    lexical: Option<&'a str>,
    suffix: LiteralSuffixRef<'a>,
}

/// One token, borrowed from the input.
#[derive(Clone, Copy)]
enum Tok<'a> {
    Ident(&'a str),
    Variable(&'a str),
    Iri(&'a str),
    Prefixed { prefix: &'a str, local: &'a str },
    Literal(LiteralToken<'a>),
    LBrace,
    RBrace,
    Dot,
    Semicolon,
    Comma,
    Star,
}

/// The old tokenizer's token, owned: error messages print a token with its
/// `Debug` form, so this type keeps that form byte for byte.
#[derive(Debug)]
#[allow(dead_code)] // the fields are read through `Debug` only
enum Token {
    Ident(String),
    Variable(String),
    IriRef(String),
    PrefixedName { prefix: String, local: String },
    Literal(Literal),
    LBrace,
    RBrace,
    Dot,
    Semicolon,
    Comma,
    Star,
}

/// ASCII whitespace as `char::is_whitespace` defines it.
fn is_ascii_space(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C)
}

/// The tokenizer: one token per call, no lookahead of its own.
struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// `.` tokens still owed after a number or prefixed name whose
    /// trailing dots were given back, and the offset they all sit at.
    owed_dots: u32,
    owed_at: usize,
    /// Where a literal with escapes is unescaped into.
    lexical: String,
    /// Run the token-wise keyword check on identifier-like tokens.
    check_keywords: bool,
    /// A datatype IRI contained a newline (see [`scan`]).
    irregular: bool,
}

impl<'a> Lexer<'a> {
    fn error(&self, offset: usize, message: impl Into<String>) -> Fail {
        let (line, column) = position(self.input, offset);
        Fail::Lex(SparqlError::syntax(line, column, message))
    }

    #[inline]
    fn keyword_check(&self, start: usize, end: usize) -> Result<(), Fail> {
        match self.check_keywords && token_has_keyword(&self.input[start..end]) {
            true => Err(Fail::Keyword),
            false => Ok(()),
        }
    }

    fn peek_char(&self) -> Option<char> {
        self.input.get(self.pos..)?.chars().next()
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Advance over the characters `keep` accepts; ASCII bytes are tested
    /// as bytes, other characters decoded.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(&byte) = self.bytes.get(self.pos) {
            if byte < 0x80 {
                if !keep(byte as char) {
                    break;
                }
                self.pos += 1;
            } else {
                match self.peek_char() {
                    Some(c) if keep(c) => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        &self.input[start..self.pos]
    }

    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes.get(self.pos) {
            match byte {
                b'#' => {
                    self.pos = match self.bytes[self.pos..].iter().position(|&b| b == b'\n') {
                        Some(newline) => self.pos + newline + 1,
                        None => self.bytes.len(),
                    };
                }
                byte if is_ascii_space(byte) => self.pos += 1,
                byte if byte >= 0x80 => match self.peek_char() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// The next token and its start offset; `None` at the end.
    #[inline]
    fn next(&mut self) -> Result<Option<(Tok<'a>, usize)>, Fail> {
        if self.owed_dots > 0 {
            self.owed_dots -= 1;
            return Ok(Some((Tok::Dot, self.owed_at)));
        }
        self.skip_whitespace();
        let start = self.pos;
        let Some(&byte) = self.bytes.get(start) else {
            return Ok(None);
        };
        let single = match byte {
            b'{' => Some(Tok::LBrace),
            b'}' => Some(Tok::RBrace),
            b';' => Some(Tok::Semicolon),
            b',' => Some(Tok::Comma),
            b'*' => Some(Tok::Star),
            b'.' if !self.bytes.get(start + 1).is_some_and(u8::is_ascii_digit) => Some(Tok::Dot),
            _ => None,
        };
        if let Some(token) = single {
            self.pos += 1;
            return Ok(Some((token, start)));
        }
        let token = match byte {
            b'?' | b'$' => {
                self.pos += 1;
                let name = self.take_while(|c| c.is_alphanumeric() || c == '_');
                if name.is_empty() {
                    return Err(self.error(self.pos, "empty variable name"));
                }
                self.keyword_check(start, self.pos)?;
                Tok::Variable(name)
            }
            b'<' => Tok::Iri(self.iri()?),
            b'"' | b'\'' => Tok::Literal(self.literal(byte)?),
            b'0'..=b'9' | b'-' | b'+' | b'.' => self.number(start)?,
            b':' => {
                self.pos += 1;
                self.prefixed(start, "")?
            }
            _ => {
                let c = self.peek_char().expect("a byte is present");
                if !(c.is_alphabetic() || c == '_') {
                    return Err(self.error(start, format!("unexpected character '{c}'")));
                }
                let first = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
                if self.bytes.get(self.pos) == Some(&b':') {
                    self.pos += 1;
                    self.prefixed(start, first)?
                } else {
                    self.keyword_check(start, self.pos)?;
                    Tok::Ident(first)
                }
            }
        };
        Ok(Some((token, start)))
    }

    /// The local part of a prefixed name (the cursor is past its `:`).
    /// Trailing dots belong to the statement terminator.
    fn prefixed(&mut self, start: usize, prefix: &'a str) -> Result<Tok<'a>, Fail> {
        let local = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.');
        let trimmed = local.trim_end_matches('.');
        self.owe_dots(local.len() - trimmed.len());
        self.keyword_check(start, self.pos)?;
        Ok(Tok::Prefixed {
            prefix,
            local: trimmed,
        })
    }

    fn owe_dots(&mut self, dots: usize) {
        self.owed_dots = dots as u32;
        self.owed_at = self.pos;
    }

    /// `<…>` (the cursor is on `<`); whitespace inside is an error.
    fn iri(&mut self) -> Result<&'a str, Fail> {
        self.pos += 1;
        let start = self.pos;
        // Fast path: up to the first `>` there is no byte that could start
        // a whitespace character (one pass the compiler vectorizes).
        if let Some(len) = self.input[start..].find('>') {
            let iri = &self.input[start..start + len];
            if !iri
                .bytes()
                .fold(false, |dirty, b| dirty | (b <= b' ') | (b >= 0x80))
            {
                self.pos = start + len + 1;
                return Ok(iri);
            }
        }
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'>' || b >= 0x80 || is_ascii_space(b));
            let Some(run) = run else {
                self.pos = self.bytes.len();
                return Err(self.error(self.pos, "unterminated IRI"));
            };
            self.pos += run;
            match self.bytes[self.pos] {
                b'>' => {
                    self.pos += 1;
                    return Ok(&self.input[start..self.pos - 1]);
                }
                _ => {
                    let c = self.bump_char().expect("a byte is present");
                    if c.is_whitespace() {
                        return Err(self.error(self.pos, "whitespace inside IRI"));
                    }
                }
            }
        }
    }

    /// A quoted literal plus its optional `@lang` / `^^<datatype>` (the
    /// cursor is on the opening quote).
    fn literal(&mut self, quote: u8) -> Result<LiteralToken<'a>, Fail> {
        self.pos += 1;
        let start = self.pos;
        // Where the clean run being scanned began, once an escape moved
        // the literal into the buffer.
        let mut clean_from: Option<usize> = None;
        let clean = self.input[start..]
            .find(quote as char)
            .filter(|&len| !self.input[start..start + len].contains('\\'));
        let end = if let Some(len) = clean {
            self.pos = start + len + 1;
            start + len
        } else {
            loop {
                let run = self.bytes[self.pos..]
                    .iter()
                    .position(|&b| b == quote || b == b'\\');
                let Some(run) = run else {
                    self.pos = self.bytes.len();
                    return Err(self.error(self.pos, "unterminated string"));
                };
                self.pos += run;
                if self.bytes[self.pos] == quote {
                    let end = self.pos;
                    self.pos += 1;
                    break end;
                }
                if clean_from.is_none() {
                    self.lexical.clear();
                }
                let clean = &self.input[clean_from.unwrap_or(start)..self.pos];
                self.lexical.push_str(clean);
                self.pos += 1;
                let escaped = match self.bump_char() {
                    Some('t') => '\t',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some(c @ ('"' | '\'' | '\\')) => c,
                    Some('u' | 'U') => return Err(self.error(
                        self.pos,
                        "\\u escapes in SPARQL literals are not supported; use the raw character",
                    )),
                    Some(c) => return Err(self.error(self.pos, format!("invalid escape '\\{c}'"))),
                    None => return Err(self.error(self.pos, "unterminated string")),
                };
                self.lexical.push(escaped);
                clean_from = Some(self.pos);
            }
        };
        let lexical = match clean_from {
            None => Some(&self.input[start..end]),
            Some(clean_from) => {
                let clean = &self.input[clean_from..end];
                self.lexical.push_str(clean);
                None
            }
        };
        let suffix = match self.bytes.get(self.pos) {
            Some(b'@') => {
                self.pos += 1;
                let tag_start = self.pos;
                let tag = self.take_while(|c| c.is_ascii_alphanumeric() || c == '-');
                if tag.is_empty() {
                    return Err(self.error(self.pos, "empty language tag"));
                }
                self.keyword_check(tag_start, self.pos)?;
                LiteralSuffixRef::Lang(tag)
            }
            Some(b'^') => {
                self.pos += 1;
                if self.bump_char() != Some('^') {
                    return Err(self.error(self.pos, "expected '^^' before datatype"));
                }
                if self.bump_char() != Some('<') {
                    return Err(self.error(self.pos, "expected '<' after '^^'"));
                }
                let iri_start = self.pos;
                let Some(close) = self.bytes[iri_start..].iter().position(|&b| b == b'>') else {
                    self.pos = self.bytes.len();
                    return Err(self.error(self.pos, "unterminated datatype IRI"));
                };
                self.pos = iri_start + close + 1;
                let datatype = &self.input[iri_start..iri_start + close];
                self.irregular |= datatype.contains('\n');
                LiteralSuffixRef::Datatype(datatype)
            }
            _ => LiteralSuffixRef::None,
        };
        Ok(LiteralToken { lexical, suffix })
    }

    /// A numeric literal: the run of number characters from `start`,
    /// typed by the grammar. A trailing `.` is the statement terminator.
    fn number(&mut self, start: usize) -> Result<Tok<'a>, Fail> {
        let body =
            self.take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'));
        let trimmed = body.trim_end_matches('.');
        let Some(datatype) = numeric_datatype(trimmed) else {
            return Err(self.error(start, format!("bad numeric literal '{body}'")));
        };
        self.owe_dots(body.len() - trimmed.len());
        Ok(Tok::Literal(LiteralToken {
            lexical: Some(trimmed),
            suffix: LiteralSuffixRef::Datatype(datatype),
        }))
    }
}

/// A term the grammar accepted, before its prefix is expanded.
#[derive(Clone, Copy)]
enum Term<'a> {
    Variable(&'a str),
    Iri(&'a str),
    Prefixed { namespace: &'a str, local: &'a str },
    Literal(LiteralToken<'a>),
}

/// The grammar over a [`Lexer`], with one token of lookahead:
///
/// ```text
/// Query      := Prologue Select
/// Prologue   := ( "PREFIX" PNAME_NS IRIREF )*
/// Select     := "SELECT" "DISTINCT"? ( "*" | Var+ ) "WHERE"? GroupGraph
/// GroupGraph := "{" ( TriplesSameSubject ( "." TriplesSameSubject? )* )? "}"
/// TriplesSameSubject := (Var | Iri) PropertyList
/// PropertyList := Verb ObjectList ( ";" Verb ObjectList )*
/// Verb       := Iri | "a"            -- variable predicates: Unsupported
/// ObjectList := Object ( "," Object )*
/// Object     := Var | Iri | Literal
/// ```
struct Scanner<'a> {
    lex: Lexer<'a>,
    /// The lookahead token, once lexed (`Some(None)`: the end).
    peeked: Option<Option<(Tok<'a>, usize)>>,
    /// Start of the last token lexed (errors at the end point there).
    last: Option<usize>,
    prefixes: Vec<(&'a str, &'a str)>,
    /// Where a prefixed name is expanded into.
    expanded: String,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str, check_keywords: bool) -> Self {
        Self {
            lex: Lexer {
                input,
                bytes: input.as_bytes(),
                pos: 0,
                owed_dots: 0,
                owed_at: 0,
                lexical: String::new(),
                check_keywords,
                irregular: false,
            },
            peeked: None,
            last: None,
            prefixes: Vec::new(),
            expanded: String::new(),
        }
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<Tok<'a>>, Fail> {
        if self.peeked.is_none() {
            let next = self.lex.next()?;
            if let Some((_, start)) = next {
                self.last = Some(start);
            }
            self.peeked = Some(next);
        }
        Ok(self.peeked.flatten().map(|(token, _)| token))
    }

    /// Consume the lookahead token (the next one is lexed on demand).
    #[inline]
    fn bump(&mut self) {
        self.peeked = None;
    }

    /// Peek and consume, whatever the token is.
    #[inline]
    fn take(&mut self) -> Result<Option<Tok<'a>>, Fail> {
        let token = self.peek()?;
        self.bump();
        Ok(token)
    }

    /// The position errors are reported at: the lookahead token's, else
    /// the last token's, else the start.
    fn here(&mut self) -> Result<(usize, usize), Fail> {
        self.peek()?;
        let at = match self.peeked.flatten() {
            Some((_, start)) => Some(start),
            None => self.last,
        };
        Ok(at.map_or((1, 1), |start| position(self.lex.input, start)))
    }

    fn error(&mut self, kind: SparqlErrorKind, message: impl Into<String>) -> Fail {
        match self.here() {
            Ok((line, column)) => Fail::Grammar(SparqlError {
                kind,
                line,
                column,
                message: message.into(),
            }),
            Err(fail) => fail,
        }
    }

    fn syntax(&mut self, message: impl Into<String>) -> Fail {
        self.error(SparqlErrorKind::Syntax, message)
    }

    #[inline]
    fn at_keyword(&mut self, keyword: &str) -> Result<bool, Fail> {
        Ok(matches!(self.peek()?, Some(Tok::Ident(id)) if id.eq_ignore_ascii_case(keyword)))
    }

    fn owned(&self, token: Tok<'_>) -> Token {
        match token {
            Tok::Ident(id) => Token::Ident(id.into()),
            Tok::Variable(name) => Token::Variable(name.into()),
            Tok::Iri(iri) => Token::IriRef(iri.into()),
            Tok::Prefixed { prefix, local } => Token::PrefixedName {
                prefix: prefix.into(),
                local: local.into(),
            },
            Tok::Literal(literal) => Token::Literal(self.literal_ref(literal).to_literal()),
            Tok::LBrace => Token::LBrace,
            Tok::RBrace => Token::RBrace,
            Tok::Dot => Token::Dot,
            Tok::Semicolon => Token::Semicolon,
            Tok::Comma => Token::Comma,
            Tok::Star => Token::Star,
        }
    }

    #[inline]
    fn literal_ref(&self, literal: LiteralToken<'a>) -> LiteralRef<'_> {
        LiteralRef::new(literal.lexical.unwrap_or(&self.lex.lexical), literal.suffix)
    }

    /// The sink's view of a term (expanding a prefixed name).
    #[inline]
    fn term_ref(&mut self, term: Term<'a>) -> TermRef<'_> {
        match term {
            Term::Variable(name) => TermRef::Variable(name),
            Term::Iri(iri) => TermRef::Iri(iri),
            Term::Prefixed { namespace, local } => {
                self.expanded.clear();
                self.expanded.push_str(namespace);
                self.expanded.push_str(local);
                TermRef::Iri(&self.expanded)
            }
            Term::Literal(literal) => TermRef::Literal(self.literal_ref(literal)),
        }
    }

    /// After a grammar error: the first malformed token in the rest of
    /// the text, which the old tokenizer would have reported instead.
    fn first_lex_error(&mut self) -> Option<SparqlError> {
        self.lex.check_keywords = false;
        loop {
            match self.lex.next() {
                Ok(Some(_)) => {}
                Ok(None) => return None,
                Err(Fail::Lex(err)) => return Some(err),
                Err(_) => unreachable!("the lexer fails with lexing errors only"),
            }
        }
    }

    fn query(&mut self, sink: &mut impl QuerySink) -> Result<(), Fail> {
        self.prologue()?;
        if !self.at_keyword("SELECT")? {
            return Err(self.syntax("expected 'SELECT'"));
        }
        self.bump();
        let distinct = self.at_keyword("DISTINCT")?;
        if distinct {
            self.bump();
        }
        let projection = self.projection()?;
        if self.at_keyword("WHERE")? {
            self.bump();
        }
        self.group_graph_pattern(sink)?;
        if let Some(token) = self.peek()? {
            let token = self.owned(token);
            return Err(self.syntax(format!("unexpected trailing token {token:?}")));
        }
        if let Some(variables) = &projection {
            if let Some(unbound) = variables.iter().find(|v| !sink.binds(v)) {
                // A variable name is a slice of the input, one byte after
                // its `?`/`$`.
                let offset = unbound.as_ptr() as usize - self.lex.input.as_ptr() as usize - 1;
                let (line, column) = position(self.lex.input, offset);
                return Err(Fail::Grammar(SparqlError::syntax(
                    line,
                    column,
                    format!("projected variable ?{unbound} does not occur in the WHERE clause"),
                )));
            }
        }
        sink.finish(distinct, projection.as_deref());
        Ok(())
    }

    fn prologue(&mut self) -> Result<(), Fail> {
        loop {
            if self.at_keyword("BASE")? {
                return Err(self.error(
                    SparqlErrorKind::Unsupported,
                    "'BASE' declarations are not supported; use full IRIs",
                ));
            }
            if !self.at_keyword("PREFIX")? {
                return Ok(());
            }
            self.bump();
            let Some(Tok::Prefixed { prefix, local }) = self.take()? else {
                return Err(self.syntax("expected 'prefix:' after PREFIX"));
            };
            if !local.is_empty() {
                return Err(self.syntax("PREFIX name must end with ':'"));
            }
            let Some(Tok::Iri(namespace)) = self.take()? else {
                return Err(self.syntax("expected '<namespace>' after prefix name"));
            };
            match self.prefixes.iter_mut().find(|(p, _)| *p == prefix) {
                Some(entry) => entry.1 = namespace,
                None => self.prefixes.push((prefix, namespace)),
            }
        }
    }

    /// `*` (`None`) or the projected variable names.
    fn projection(&mut self) -> Result<Option<Vec<&'a str>>, Fail> {
        if matches!(self.peek()?, Some(Tok::Star)) {
            self.bump();
            return Ok(None);
        }
        let mut variables = Vec::new();
        while let Some(Tok::Variable(name)) = self.peek()? {
            variables.push(name);
            self.bump();
        }
        if variables.is_empty() {
            return Err(self.syntax("expected '*' or at least one variable after SELECT"));
        }
        Ok(Some(variables))
    }

    fn group_graph_pattern(&mut self, sink: &mut impl QuerySink) -> Result<(), Fail> {
        if !matches!(self.take()?, Some(Tok::LBrace)) {
            return Err(self.syntax("expected '{' to open the WHERE clause"));
        }
        let mut empty = true;
        loop {
            match self.peek()? {
                Some(Tok::RBrace) => {
                    self.bump();
                    break;
                }
                // Stray separators are tolerated.
                Some(Tok::Dot) => self.bump(),
                Some(_) => {
                    self.triples_same_subject(sink)?;
                    empty = false;
                    // After a subject block: '.', '}' — anything else is
                    // an error.
                    match self.peek()? {
                        Some(Tok::Dot) => self.bump(),
                        Some(Tok::RBrace) | None => {}
                        Some(token) => {
                            let token = self.owned(token);
                            return Err(
                                self.syntax(format!("expected '.' or '}}', found {token:?}"))
                            );
                        }
                    }
                }
                None => return Err(self.syntax("unexpected end of query inside WHERE clause")),
            }
        }
        if empty {
            return Err(self.syntax("empty WHERE clause"));
        }
        Ok(())
    }

    fn triples_same_subject(&mut self, sink: &mut impl QuerySink) -> Result<(), Fail> {
        let subject = self.term()?;
        if matches!(subject, Term::Literal(_)) {
            return Err(self.syntax("literals cannot appear in subject position"));
        }
        sink.subject(self.term_ref(subject));
        loop {
            self.verb(sink)?;
            loop {
                let object = self.term()?;
                sink.object(self.term_ref(object));
                if !matches!(self.peek()?, Some(Tok::Comma)) {
                    break;
                }
                self.bump();
            }
            if !matches!(self.peek()?, Some(Tok::Semicolon)) {
                return Ok(());
            }
            self.bump();
            // A dangling ';' before '.' or '}' is allowed.
            if matches!(self.peek()?, Some(Tok::Dot | Tok::RBrace)) {
                return Ok(());
            }
        }
    }

    fn verb(&mut self, sink: &mut impl QuerySink) -> Result<(), Fail> {
        match self.peek()? {
            Some(Tok::Variable(v)) => Err(self.error(
                SparqlErrorKind::Unsupported,
                format!(
                    "variable predicate ?{v} is outside the paper's fragment (predicates are always IRIs, §2.2)"
                ),
            )),
            Some(Tok::Ident("a")) => {
                self.bump();
                sink.predicate(RDF_TYPE);
                Ok(())
            }
            _ => match self.term()? {
                term @ (Term::Iri(_) | Term::Prefixed { .. }) => {
                    let TermRef::Iri(iri) = self.term_ref(term) else {
                        unreachable!("an IRI term")
                    };
                    sink.predicate(iri);
                    Ok(())
                }
                _ => Err(self.syntax("expected an IRI predicate")),
            },
        }
    }

    #[inline]
    fn term(&mut self) -> Result<Term<'a>, Fail> {
        let Some(token) = self.peek()? else {
            return Err(self.syntax("expected a term, found end of query"));
        };
        let term = match token {
            Tok::Variable(name) => Term::Variable(name),
            Tok::Iri(iri) => Term::Iri(iri),
            Tok::Prefixed { prefix, local } => {
                let namespace = self.prefixes.iter().find(|(p, _)| *p == prefix);
                let Some(&(_, namespace)) = namespace else {
                    return Err(self.syntax(format!("unknown prefix '{prefix}:'")));
                };
                Term::Prefixed { namespace, local }
            }
            Tok::Literal(literal) => Term::Literal(literal),
            other => {
                let token = self.owned(other);
                return Err(self.syntax(format!("expected a term, found {token:?}")));
            }
        };
        self.bump();
        Ok(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_typed_by_the_grammar() {
        for (body, datatype) in [
            ("5", Some(XSD_INTEGER)),
            ("-5", Some(XSD_INTEGER)),
            ("+05", Some(XSD_INTEGER)),
            ("123456789012345678901", Some(XSD_INTEGER)),
            ("1.5", Some(XSD_DECIMAL)),
            (".5", Some(XSD_DECIMAL)),
            ("-.5", Some(XSD_DECIMAL)),
            ("1e5", Some(XSD_DOUBLE)),
            ("1.E-5", Some(XSD_DOUBLE)),
            (".5e+3", Some(XSD_DOUBLE)),
            ("1.", None),
            ("1e", None),
            ("e5", None),
            ("+", None),
            ("1-2", None),
            ("1.5.5", None),
            (".e5", None),
        ] {
            assert_eq!(numeric_datatype(body), datatype, "{body}");
        }
    }

    #[test]
    fn token_wise_check_covers_the_pre_pass() {
        for (token, hit) in [
            ("FILTER", true),
            ("filter_x", false),
            ("LIMIT-1", true),
            ("?filter", false),
            ("?x1limit", true),
            ("x:filter", false),
            ("filter1:x", true),
            ("a1filter:x", false),
            ("x:a-FILTER", true),
        ] {
            assert_eq!(token_has_keyword(token), hit, "{token}");
        }
    }

    #[test]
    fn positions_count_characters() {
        let text = "ab\nçd?x";
        assert_eq!(position(text, 0), (1, 1));
        assert_eq!(position(text, 3), (2, 1));
        assert_eq!(position(text, text.find('?').unwrap()), (2, 3));
    }
}
