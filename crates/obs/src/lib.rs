//! Unified telemetry for the AMbER reproduction.
//!
//! Two pieces, both dependency-free, and one rule:
//!
//! * a process-wide, lock-free-on-the-hot-path **metric registry**
//!   ([`counter`]/[`gauge`]/[`histogram`]) of monotonic counters, gauges
//!   and log₂-bucketed histograms, readable at any time as a consistent
//!   [`MetricsSnapshot`] with a Prometheus-text renderer;
//! * a per-session **flight recorder** ([`FlightRecorder`]) capturing
//!   span timings around the query pipeline stages into a fixed-size
//!   ring buffer, with a slow-query log rendering the span tree;
//! * **no off switch**: the registry is always on (its hot-path cost is
//!   a few relaxed atomic adds per query), and span capture has one
//!   switch, the per-session knob on the [`FlightRecorder`].
//!
//! Handles returned by the registry are `Arc`s: call sites look a metric
//! up once (typically through a `OnceLock`-cached struct of handles) and
//! then mutate it with relaxed atomics only — no locks, no allocation.
//! Registration itself is the cold path and takes a sharded `RwLock`.
//!
//! Numbers discipline: every count is added where its event happens,
//! once. The engine's caches count each lookup and eviction into their
//! own per-session `CacheStats` and into this registry at the same line,
//! so the two can never disagree (pinned by `tests/obs_equivalence.rs`);
//! search work is counted here only.

mod metrics;
mod trace;

pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsSnapshot, Sample,
};
pub use trace::{FlightRecorder, QueryTrace, SpanRecord};
