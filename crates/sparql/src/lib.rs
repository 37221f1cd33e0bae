#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! SPARQL front-end for the AMbER reproduction.
//!
//! The paper restricts itself to the `SELECT`/`WHERE` fragment of SPARQL with
//! IRI-instantiated predicates (§1, §2.2): a query is a basic graph pattern —
//! a set of triple patterns over variables, IRIs and literals (Fig. 2a).
//! This crate provides that fragment end to end:
//!
//! * [`scanner`] — the one grammar: a byte-level scanner with `line:column`
//!   positions that hands borrowed terms to a [`QuerySink`] as it reads
//!   them. Two sinks exist: the AST builder behind [`parse_select`], and
//!   the query compiler of `amber_multigraph`, which resolves each term to
//!   a dictionary id on arrival (the request path never builds an AST);
//! * [`ast`] — [`SelectQuery`], [`TriplePattern`], [`TermPattern`];
//! * [`parser`] — [`parse_select`], the scanner plus the AST sink,
//!   including `PREFIX` declarations, `a` (rdf:type) shorthand, and
//!   `;`/`,` predicate-object list notation;
//! * [`canonical`] — alpha-renaming of an AST ([`canonicalize`]);
//! * [`printer`] — canonical pretty-printer (used by the workload generator
//!   and for round-trip testing).
//!
//! Operators outside the paper's scope (`FILTER`, `UNION`, `OPTIONAL`,
//! `GROUP BY`, variable predicates, …) are *detected* and rejected with
//! [`SparqlErrorKind::Unsupported`] rather than mis-parsed.

pub mod ast;
pub mod canonical;
pub mod error;
pub mod parser;
pub mod printer;
pub mod scanner;
/// The tokenizer the scanner replaced, kept for its unit tests and as half
/// of the reference parser (`tests/reference`).
#[cfg(test)]
mod token;

pub use ast::{Projection, SelectQuery, TermPattern, TriplePattern};
pub use canonical::canonicalize;
pub use error::{SparqlError, SparqlErrorKind};
pub use parser::parse_select;
pub use printer::to_sparql;
pub use scanner::{scan, QuerySink, TermRef};
