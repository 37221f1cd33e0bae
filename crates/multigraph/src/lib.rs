#![warn(missing_docs)]
//! Attributed directed multigraph model (paper §2).
//!
//! The paper's offline stage transforms an RDF tripleset into a *directed,
//! vertex-attributed multigraph* `G = (V, E, L_V, L_E)` (Definition 1) via
//! three dictionaries (Table 2):
//!
//! * subjects and IRI objects become vertices (`Mv`),
//! * predicates become edge types (`Me`),
//! * `<predicate, literal-object>` pairs become vertex attributes (`Ma`).
//!
//! SPARQL queries are transformed the same way into a query multigraph `Q`
//! (§2.2.1), and query answering becomes sub-multigraph homomorphism
//! (Definition 2). This crate supplies:
//!
//! * [`ids`] — dense typed identifiers ([`VertexId`], [`EdgeTypeId`],
//!   [`AttrId`]),
//! * [`dictionary`] — the interning dictionaries and their bundle
//!   [`Dictionaries`],
//! * [`data_graph`] — the immutable CSR-style [`DataGraph`],
//! * [`builder`] — streaming construction of graph + dictionaries from
//!   triples, including the literals-as-vertices extension mode,
//! * [`signature`] — vertex signatures and the 8-field synopses of §4.2
//!   (Table 3),
//! * [`compiled`] — a SPARQL query compiled to dictionary ids in one pass
//!   ([`CompiledQuery`], keyed by [`QueryKey`]),
//! * [`query_graph`] — the query multigraph [`QueryGraph`] with core/satellite
//!   classification inputs, IRI constraints, self-loops and ground checks,
//! * [`paper`] — the running example of Fig. 1/Fig. 2 as a reusable fixture.

pub mod analysis;
pub mod builder;
pub mod compiled;
pub mod data_graph;
pub mod dictionary;
pub mod ids;
pub mod paper;
pub mod query_graph;
#[cfg(test)]
mod reference;
pub mod signature;
pub mod snapshot;

pub use builder::{GraphBuilder, GraphConfig, RdfGraph};
pub use compiled::{CompiledQuery, QueryKey};
pub use data_graph::{AdjEntry, DataGraph, Direction, OneType};
pub use dictionary::{Dictionaries, Dictionary};
pub use ids::{AttrId, EdgeTypeId, QVertexId, VertexId};
pub use query_graph::{GroundCheck, IriConstraint, MultiEdge, QueryEdge, QueryGraph, QueryVertex};
pub use signature::{Synopsis, VertexSignature};
pub use snapshot::SnapshotError;
