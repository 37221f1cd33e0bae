//! SPARQL front-end errors.

use std::fmt;

/// What went wrong while parsing a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparqlErrorKind {
    /// Malformed input (bad token, missing brace, …).
    Syntax,
    /// Well-formed SPARQL using an operator outside the paper's fragment
    /// (`FILTER`, `UNION`, `OPTIONAL`, variable predicates, …).
    Unsupported,
}

/// Parse error with a 1-based `line:column` position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError {
    /// Classification of the failure.
    pub kind: SparqlErrorKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl SparqlError {
    /// A [`SparqlErrorKind::Syntax`] error at `line:column`.
    pub fn syntax(line: usize, column: usize, message: impl Into<String>) -> Self {
        Self {
            kind: SparqlErrorKind::Syntax,
            line,
            column,
            message: message.into(),
        }
    }

    /// A [`SparqlErrorKind::Unsupported`] error at `line:column`.
    pub fn unsupported(line: usize, column: usize, message: impl Into<String>) -> Self {
        Self {
            kind: SparqlErrorKind::Unsupported,
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            SparqlErrorKind::Syntax => "syntax error",
            SparqlErrorKind::Unsupported => "unsupported feature",
        };
        write!(
            f,
            "SPARQL {kind} at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for SparqlError {}
