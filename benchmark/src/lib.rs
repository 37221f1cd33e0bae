//! The repo benchmark as a library: the binary in `main.rs` is its command
//! line, and the integration tests read [`spec`] and [`json`] from here.

pub mod client;
pub mod compare;
pub mod json;
pub mod layers;
pub mod pool;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
