#![warn(missing_docs)]
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§7).
//!
//! | Paper artifact | Harness entry point |
//! |---|---|
//! | Table 1 (200 complex 50-triple queries, DBPEDIA) | [`experiments::table1`] |
//! | Table 4 (benchmark statistics) | [`experiments::table4`] |
//! | Table 5 (offline build time + memory) | [`experiments::table5`] |
//! | Fig. 6–11 (star/complex × 3 benchmarks, sizes 10–50) | [`experiments::figures`] |
//! | Cross-engine differential audit (not in the paper) | [`experiments::agreement`] |
//!
//! The binary `experiments` exposes these as subcommands; `cargo bench`
//! exercises the micro/ablation side (see `benches/`).

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{EngineRow, HarnessConfig, WorkloadOutcome};
