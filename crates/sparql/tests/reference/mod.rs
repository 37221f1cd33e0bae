//! The recursive-descent parser the byte-level scanner replaced: a
//! tokenizer pass, an owned token stream and a keyword pre-pass. Kept as
//! the oracle of `scanner_differential.rs`, which pins the scanner's
//! answers and errors to it.

use crate::ast::{Projection, SelectQuery, TermPattern, TriplePattern};
use crate::error::SparqlError;
use crate::token::{tokenize, Spanned, Token};
use rdf_model::PrefixMap;

/// RDF namespace IRI of the `a` keyword.
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

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

/// Parse a `SELECT … WHERE { … }` query.
pub fn parse_select(input: &str) -> Result<SelectQuery, SparqlError> {
    // Unsupported operators often carry syntax the tokenizer rejects (e.g.
    // the parentheses of FILTER), so classify them *before* tokenizing.
    scan_unsupported_keywords(input)?;
    let tokens = tokenize(input)?;
    Parser {
        tokens,
        pos: 0,
        prefixes: PrefixMap::new(),
    }
    .query()
}

/// Report the first unsupported SPARQL keyword appearing outside literals,
/// IRIs and comments.
fn scan_unsupported_keywords(input: &str) -> Result<(), SparqlError> {
    let (mut line, mut column) = (1usize, 1usize);
    let mut word = String::new();
    let (mut word_line, mut word_column) = (1usize, 1usize);
    // Words touching a ':' are prefixed-name parts (`x:filter`), never
    // keywords; words after '?'/'$' are variables.
    let mut word_is_name = false;
    let mut chars = input.chars().peekable();

    let flush = |word: &mut String,
                 is_name: &mut bool,
                 line: usize,
                 column: usize|
     -> Result<(), SparqlError> {
        let upper = word.to_ascii_uppercase();
        if !*is_name && UNSUPPORTED_KEYWORDS.contains(&upper.as_str()) {
            return Err(SparqlError::unsupported(
                line,
                column,
                format!(
                    "'{upper}' is outside the SELECT/WHERE fragment the engine supports (paper §1)"
                ),
            ));
        }
        word.clear();
        *is_name = false;
        Ok(())
    };

    while let Some(c) = chars.next() {
        match c {
            '"' | '\'' => {
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                column += 1;
                // skip to the closing quote, honoring escapes
                while let Some(d) = chars.next() {
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
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                column += 1;
                for d in chars.by_ref() {
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
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                for d in chars.by_ref() {
                    if d == '\n' {
                        line += 1;
                        column = 1;
                        break;
                    }
                }
            }
            ':' => {
                // A word adjacent to ':' on either side is part of a
                // prefixed name, not a keyword.
                word.clear();
                word_is_name = true;
                column += 1;
            }
            '?' | '$' => {
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                word_is_name = true; // variable name follows
                column += 1;
            }
            c if c.is_alphabetic() || c == '_' => {
                if word.is_empty() {
                    word_line = line;
                    word_column = column;
                }
                word.push(c);
                column += 1;
            }
            '\n' => {
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                line += 1;
                column = 1;
            }
            _ => {
                flush(&mut word, &mut word_is_name, word_line, word_column)?;
                column += 1;
            }
        }
    }
    flush(&mut word, &mut word_is_name, word_line, word_column)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    prefixes: PrefixMap,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (usize, usize) {
        self.peek()
            .map(|s| (s.line, s.column))
            .or_else(|| self.tokens.last().map(|s| (s.line, s.column)))
            .unwrap_or((1, 1))
    }

    fn syntax(&self, message: impl Into<String>) -> SparqlError {
        let (line, column) = self.here();
        SparqlError::syntax(line, column, message)
    }

    fn unsupported(&self, message: impl Into<String>) -> SparqlError {
        let (line, column) = self.here();
        SparqlError::unsupported(line, column, message)
    }

    /// Is the current token the given case-insensitive keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { token: Token::Ident(id), .. }) if id.eq_ignore_ascii_case(kw))
    }

    fn check_not_unsupported(&self) -> Result<(), SparqlError> {
        if let Some(Spanned {
            token: Token::Ident(id),
            ..
        }) = self.peek()
        {
            let upper = id.to_ascii_uppercase();
            if UNSUPPORTED_KEYWORDS.contains(&upper.as_str()) {
                return Err(self.unsupported(format!(
                    "'{upper}' is outside the SELECT/WHERE fragment the engine supports (paper §1)"
                )));
            }
        }
        Ok(())
    }

    fn query(mut self) -> Result<SelectQuery, SparqlError> {
        self.prologue()?;
        self.check_not_unsupported()?;
        if !self.at_keyword("SELECT") {
            return Err(self.syntax("expected 'SELECT'"));
        }
        self.bump();

        let distinct = if self.at_keyword("DISTINCT") {
            self.bump();
            true
        } else {
            false
        };

        let projection = self.projection()?;

        if self.at_keyword("WHERE") {
            self.bump();
        }
        let patterns = self.group_graph_pattern()?;

        if let Some(t) = self.peek() {
            self.check_not_unsupported()?;
            return Err(self.syntax(format!("unexpected trailing token {:?}", t.token)));
        }

        // Validate projection variables exist in the pattern.
        let query = SelectQuery {
            projection,
            distinct,
            patterns,
        };
        if let Projection::Variables(vars) = &query.projection {
            let in_pattern = query.pattern_variables();
            for v in vars {
                if !in_pattern.contains(&v.as_ref()) {
                    return Err(SparqlError::syntax(
                        1,
                        1,
                        format!("projected variable ?{v} does not occur in the WHERE clause"),
                    ));
                }
            }
        }
        Ok(query)
    }

    fn prologue(&mut self) -> Result<(), SparqlError> {
        while self.at_keyword("PREFIX") || self.at_keyword("BASE") {
            if self.at_keyword("BASE") {
                return Err(
                    self.unsupported("'BASE' declarations are not supported; use full IRIs")
                );
            }
            self.bump();
            let Some(Spanned {
                token: Token::PrefixedName { prefix, local },
                ..
            }) = self.bump()
            else {
                return Err(self.syntax("expected 'prefix:' after PREFIX"));
            };
            if !local.is_empty() {
                return Err(self.syntax("PREFIX name must end with ':'"));
            }
            let Some(Spanned {
                token: Token::IriRef(namespace),
                ..
            }) = self.bump()
            else {
                return Err(self.syntax("expected '<namespace>' after prefix name"));
            };
            self.prefixes.insert(&prefix, &namespace);
        }
        Ok(())
    }

    fn projection(&mut self) -> Result<Projection, SparqlError> {
        if matches!(self.peek().map(|s| &s.token), Some(Token::Star)) {
            self.bump();
            return Ok(Projection::Star);
        }
        let mut vars: Vec<Box<str>> = Vec::new();
        while let Some(Spanned {
            token: Token::Variable(name),
            ..
        }) = self.peek()
        {
            vars.push(name.as_str().into());
            self.bump();
        }
        if vars.is_empty() {
            return Err(self.syntax("expected '*' or at least one variable after SELECT"));
        }
        Ok(Projection::Variables(vars))
    }

    fn group_graph_pattern(&mut self) -> Result<Vec<TriplePattern>, SparqlError> {
        match self.bump().map(|s| s.token) {
            Some(Token::LBrace) => {}
            _ => return Err(self.syntax("expected '{' to open the WHERE clause")),
        }
        let mut patterns = Vec::new();
        loop {
            self.check_not_unsupported()?;
            match self.peek().map(|s| &s.token) {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Token::Dot) => {
                    // tolerate stray separators
                    self.bump();
                }
                Some(_) => {
                    self.triples_same_subject(&mut patterns)?;
                    // after a subject block: '.', '}' — anything else is an error
                    match self.peek().map(|s| &s.token) {
                        Some(Token::Dot) => {
                            self.bump();
                        }
                        Some(Token::RBrace) | None => {}
                        Some(t) => {
                            return Err(self.syntax(format!("expected '.' or '}}', found {t:?}")))
                        }
                    }
                }
                None => return Err(self.syntax("unexpected end of query inside WHERE clause")),
            }
        }
        if patterns.is_empty() {
            return Err(self.syntax("empty WHERE clause"));
        }
        Ok(patterns)
    }

    fn triples_same_subject(&mut self, out: &mut Vec<TriplePattern>) -> Result<(), SparqlError> {
        let subject = self.term()?;
        if matches!(subject, TermPattern::Literal(_)) {
            return Err(self.syntax("literals cannot appear in subject position"));
        }
        loop {
            let predicate = self.verb()?;
            loop {
                let object = self.term()?;
                out.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                if matches!(self.peek().map(|s| &s.token), Some(Token::Comma)) {
                    self.bump();
                } else {
                    break;
                }
            }
            if matches!(self.peek().map(|s| &s.token), Some(Token::Semicolon)) {
                self.bump();
                // Allow a dangling ';' before '.' or '}'.
                if matches!(
                    self.peek().map(|s| &s.token),
                    Some(Token::Dot) | Some(Token::RBrace)
                ) {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    fn verb(&mut self) -> Result<TermPattern, SparqlError> {
        self.check_not_unsupported()?;
        match self.peek().map(|s| &s.token) {
            Some(Token::Variable(v)) => {
                let v = v.clone();
                Err(self.unsupported(format!(
                    "variable predicate ?{v} is outside the paper's fragment (predicates are always IRIs, §2.2)"
                )))
            }
            Some(Token::Ident(id)) if id == "a" => {
                self.bump();
                Ok(TermPattern::iri(RDF_TYPE))
            }
            _ => {
                let term = self.term()?;
                match term {
                    TermPattern::Iri(_) => Ok(term),
                    _ => Err(self.syntax("expected an IRI predicate")),
                }
            }
        }
    }

    fn term(&mut self) -> Result<TermPattern, SparqlError> {
        self.check_not_unsupported()?;
        let Some(spanned) = self.peek().cloned() else {
            return Err(self.syntax("expected a term, found end of query"));
        };
        let term = match spanned.token {
            Token::Variable(name) => TermPattern::var(name),
            Token::IriRef(iri) => TermPattern::iri(iri),
            Token::PrefixedName { prefix, local } => {
                let Some(namespace) = self.prefixes.namespace(&prefix) else {
                    return Err(SparqlError::syntax(
                        spanned.line,
                        spanned.column,
                        format!("unknown prefix '{prefix}:'"),
                    ));
                };
                TermPattern::iri(format!("{namespace}{local}"))
            }
            Token::Literal(lit) => TermPattern::Literal(lit),
            other => return Err(self.syntax(format!("expected a term, found {other:?}"))),
        };
        self.bump();
        Ok(term)
    }
}
