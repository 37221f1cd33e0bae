#![warn(missing_docs)]
//! **AMbER** — Attributed Multigraph Based Engine for RDF querying.
//!
//! A from-scratch Rust reproduction of the engine described in
//! *"Querying RDF Data Using A Multigraph-based Approach"* (EDBT 2016).
//!
//! The engine has two stages (paper §3):
//!
//! * an **offline stage** — RDF data is transformed into a directed,
//!   vertex-attributed multigraph `G` and the index ensemble
//!   `I = {A, S, N}` is built over it ([`AmberEngine::from_graph`]);
//! * an **online stage** — a SPARQL `SELECT/WHERE` query is transformed into
//!   a query multigraph `Q`, decomposed into *core* and *satellite*
//!   vertices, and matched by sub-multigraph homomorphism
//!   ([`AmberEngine::run`]).
//!
//! ```
//! use amber::{AmberEngine, QueryRequest};
//!
//! let data = r#"
//! <http://x/Amy>    <http://y/wasBornIn> <http://x/London> .
//! <http://x/Nolan>  <http://y/wasBornIn> <http://x/London> .
//! <http://x/London> <http://y/isPartOf>  <http://x/England> .
//! "#;
//! let engine = AmberEngine::load_ntriples(data).unwrap();
//! let outcome = engine
//!     .run(&QueryRequest::sparql(
//!         "SELECT ?p WHERE { ?p <http://y/wasBornIn> ?c . ?c <http://y/isPartOf> ?x . }",
//!     ))
//!     .unwrap();
//! assert_eq!(outcome.embedding_count, 2);
//! ```

pub mod candidates;
pub mod decompose;
pub mod embedding;
pub mod engine;
pub mod error;
pub mod explain;
pub mod matcher;
pub mod options;
pub mod ordering;
pub mod plan;
pub mod request;
pub mod result;
pub mod session;
pub(crate) mod telemetry;

pub use engine::{AmberEngine, OfflineStats};
pub use error::{EngineError, Error};
pub use explain::{Explain, QueryPlan};
pub use options::ExecOptions;
pub use plan::{CacheStats, PreparedPlan, ResultCache};
pub use request::{QueryRequest, QuerySource};
pub use result::{BindingRow, Bindings, QueryOutcome, QueryStatus, SparqlEngine};
pub use session::QuerySession;

pub use amber_multigraph::CompiledQuery;
