#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! RDF data model and N-Triples I/O.
//!
//! The paper (§2.1) consumes RDF as a set of `<subject, predicate, object>`
//! triples where subjects and predicates are IRIs and objects are IRIs or
//! literals (Fig. 1a). This crate supplies that model as the input substrate
//! for the multigraph transformation:
//!
//! * [`term`] — IRIs, blank nodes, literals and the [`Subject`]/[`Object`]
//!   position types, each with a borrowed `…Ref` twin,
//! * [`triple`] — the [`Triple`] record and the borrowed [`TripleRef`],
//! * [`lex`] — the one term grammar (IRIs, strings, language tags, blank
//!   node labels, escapes, error positions) that N-Triples, Turtle and the
//!   SPARQL scanner of `amber_sparql` all lex with,
//! * [`ntriples`] — a line-oriented W3C N-Triples parser with precise error
//!   positions: the byte-level [`NtScanner`] yields terms that borrow the
//!   input, [`NtParser`] copies them into owned triples,
//! * [`turtle`] — the Turtle subset real knowledge-base dumps use,
//! * [`writer`] — the matching serializer (round-trips the parser),
//! * [`prefix`] — compact `prefix:local` notation used by examples, the
//!   workload generator and the SPARQL front-end.
//!
//! Blank nodes are accepted and treated as ordinary graph vertices (they
//! behave like IRIs in the multigraph), which is strictly more than the paper
//! needs but matches what real DBpedia/YAGO dumps contain.

pub mod lex;
pub mod ntriples;
pub mod prefix;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod writer;

pub use ntriples::{parse_literal, parse_ntriples, NtParseError, NtParser, NtScanner};
pub use prefix::PrefixMap;
pub use term::{
    numeric_datatype, BlankNode, Iri, Literal, LiteralRef, LiteralSuffixRef, Object, ObjectRef,
    Subject, SubjectRef, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING,
};
pub use triple::{Triple, TripleRef};
pub use turtle::{parse_turtle, TurtleParseError};
pub use writer::write_ntriples;
