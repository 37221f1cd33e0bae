#![warn(missing_docs)]
//! Shared utilities for the AMbER reproduction.
//!
//! This crate hosts the small, dependency-free building blocks used across the
//! workspace:
//!
//! * [`fxhash`] — a fast, non-cryptographic hasher (FxHash-style) plus the
//!   [`FxHashMap`]/[`FxHashSet`] aliases used everywhere identifiers are keys.
//! * [`csr`] — compressed sparse rows: many short lists in one
//!   exact-size pool, the layout of the offline graph and its indexes.
//! * [`heap_size`] — deep heap-size accounting, used to reproduce the memory
//!   columns of Table 5 of the paper analytically.
//! * [`sorted`] — set algebra over sorted slices (intersection, the
//!   `intersects` and `is_subset` checks); the OTIL and attribute indexes
//!   are built on these, with a runtime-dispatched AVX2 intersection
//!   kernel for `u32`-shaped elements and a scalar fallback.
//! * [`genmap`] — a bounded generationally-evicted map, the storage engine
//!   of the session's result cache.
//! * [`timing`] — stopwatch and cooperative deadline used to implement the
//!   paper's 60-second query budget.
//! * [`fault`] — the deterministic fault-injection harness
//!   (`AMBER_CHAOS`), an inlined no-op unless armed.
//! * [`stats`] — summary statistics for the experiment harness.
//! * [`http`] — minimal HTTP/1.1 request parsing and SPARQL-results
//!   escaping, the protocol substrate of the `amber_http` front-end.

pub mod csr;
pub mod fault;
pub mod fxhash;
pub mod genmap;
pub mod heap_size;
pub mod http;
pub mod sorted;
pub mod stats;
pub mod timing;

pub use csr::{Csr, CsrBuilder, CsrScatter};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use genmap::GenerationalMap;
pub use heap_size::HeapSize;
pub use timing::{Budget, Deadline, Stopwatch};
