//! The metric registry: counters, gauges, log₂ histograms, snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

// ---------------------------------------------------------------------------
// Metric primitives (hot path: relaxed atomics only).
// ---------------------------------------------------------------------------

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (queue depths,
/// entry counts, retained bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Move the value by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket *i* (1-based)
/// holds values with bit length *i*, i.e. the range `[2^(i-1), 2^i - 1]`.
/// A `u64` has at most 64 bits, so 65 buckets cover the full domain.
pub const BUCKETS: usize = 65;

/// A histogram over `u64` observations (µs, bytes, node counts) with
/// log₂ buckets — one `fetch_add` per observation, no floating point.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            count += n;
            if n != 0 {
                // Upper bound of bucket i: 0 for i == 0, else 2^i - 1.
                let le = if i == 0 {
                    0
                } else if i == 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                buckets.push((le, count));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum(),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Label set: static keys and values (fault-point names, cache layers,
/// outcome kinds — all known at compile time).
type Labels = Vec<(&'static str, &'static str)>;
type Key = (&'static str, Labels);

#[derive(Default)]
struct Shard {
    counters: RwLock<BTreeMap<Key, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Key, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
}

const SHARDS: usize = 8;

struct Registry {
    shards: [Shard; SHARDS],
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        shards: std::array::from_fn(|_| Shard::default()),
    })
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the metric name; labels share their name's shard so a
    // family snapshots from one map.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARDS
}

fn lookup<T: Default>(
    map: &RwLock<BTreeMap<Key, Arc<T>>>,
    name: &'static str,
    labels: &[(&'static str, &'static str)],
) -> Arc<T> {
    let key_ref = (name, labels);
    {
        let read = map.read().unwrap_or_else(|e| e.into_inner());
        // BTreeMap can't be probed with a borrowed key of this shape;
        // registration is cold, so a linear probe of the (small) shard
        // beats allocating a key per lookup.
        if let Some((_, v)) = read
            .iter()
            .find(|((n, l), _)| *n == key_ref.0 && l.as_slice() == key_ref.1)
        {
            return Arc::clone(v);
        }
    }
    let mut write = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(
        write
            .entry((name, labels.to_vec()))
            .or_insert_with(|| Arc::new(T::default())),
    )
}

/// Register (or fetch) the counter `name{labels}`. Cold path: cache the
/// returned handle at the call site.
pub fn counter(name: &'static str, labels: &[(&'static str, &'static str)]) -> Arc<Counter> {
    lookup(&registry().shards[shard_of(name)].counters, name, labels)
}

/// Register (or fetch) the gauge `name{labels}`.
pub fn gauge(name: &'static str, labels: &[(&'static str, &'static str)]) -> Arc<Gauge> {
    lookup(&registry().shards[shard_of(name)].gauges, name, labels)
}

/// Register (or fetch) the histogram `name{labels}`.
pub fn histogram(name: &'static str, labels: &[(&'static str, &'static str)]) -> Arc<Histogram> {
    lookup(&registry().shards[shard_of(name)].histograms, name, labels)
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// A read of one histogram: total count, sum, and the non-empty buckets
/// as `(inclusive upper bound, cumulative count)` pairs in ascending
/// order. `count` is derived from the buckets themselves, so it always
/// equals the last cumulative entry even under concurrent writers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets: `(upper bound, cumulative count ≤ bound)`.
    pub buckets: Vec<(u64, u64)>,
}

/// One metric's value in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram read.
    Histogram(HistogramSnapshot),
}

/// One `name{labels}` series in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric family name.
    pub name: &'static str,
    /// Label pairs, in registration order.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time read of every registered metric, sorted by
/// `(name, labels)` so renders are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All series, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

/// Read every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut samples = Vec::new();
    for shard in &registry().shards {
        let counters = shard.counters.read().unwrap_or_else(|e| e.into_inner());
        for ((name, labels), c) in counters.iter() {
            samples.push(Sample {
                name,
                labels: labels.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        drop(counters);
        let gauges = shard.gauges.read().unwrap_or_else(|e| e.into_inner());
        for ((name, labels), g) in gauges.iter() {
            samples.push(Sample {
                name,
                labels: labels.clone(),
                value: MetricValue::Gauge(g.get()),
            });
        }
        drop(gauges);
        let histograms = shard.histograms.read().unwrap_or_else(|e| e.into_inner());
        for ((name, labels), h) in histograms.iter() {
            samples.push(Sample {
                name,
                labels: labels.clone(),
                value: MetricValue::Histogram(h.snapshot()),
            });
        }
    }
    samples.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
    MetricsSnapshot { samples }
}

impl MetricsSnapshot {
    /// The counter `name{labels}`, or 0 if never registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `name{labels}`, or 0 if never registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.find(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram `name{labels}`, if registered.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        match self.find(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of all counters named `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
            })
            .map(|s| &s.value)
    }

    /// Render in the Prometheus text exposition format (the fixture the
    /// future HTTP `/metrics` endpoint serves verbatim).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for sample in &self.samples {
            if sample.name != last_name {
                let kind = match &sample.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {}\n", sample.name, kind));
                last_name = sample.name;
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        prom_labels(&sample.labels, None),
                        v
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        prom_labels(&sample.labels, None),
                        v
                    ));
                }
                MetricValue::Histogram(h) => {
                    for (le, cumulative) in &h.buckets {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            sample.name,
                            prom_labels(&sample.labels, Some(&le.to_string())),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name,
                        prom_labels(&sample.labels, Some("+Inf")),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        sample.name,
                        prom_labels(&sample.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        sample.name,
                        prom_labels(&sample.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{}=\"{}\"",
            k,
            v.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{}\"", le));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test_obs_counter_total", &[("case", "accumulate")]);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // A second registration returns the same underlying counter.
        let again = counter("test_obs_counter_total", &[("case", "accumulate")]);
        again.inc();
        assert_eq!(c.get(), 43);
        // A different label set is a different series.
        let other = counter("test_obs_counter_total", &[("case", "other")]);
        assert_eq!(other.get(), 0);
        let snap = snapshot();
        assert_eq!(
            snap.counter_value("test_obs_counter_total", &[("case", "accumulate")]),
            43
        );
        assert_eq!(snap.counter_total("test_obs_counter_total"), 43);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("test_obs_gauge", &[]);
        g.add(5);
        g.add(-3);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(snapshot().gauge_value("test_obs_gauge", &[]), -7);
    }

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let h = histogram("test_obs_hist", &[]);
        h.observe(0); // bucket 0 (le 0)
        h.observe(1); // bucket 1 (le 1)
        h.observe(2); // bucket 2 (le 3)
        h.observe(3); // bucket 2 (le 3)
        h.observe(1024); // bucket 11 (le 2047)
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let snap = snapshot();
        let hs = snap.histogram_value("test_obs_hist", &[]).unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1030);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (3, 4), (2047, 5)]);
    }

    #[test]
    fn renderers_cover_every_kind() {
        counter("test_obs_render_total", &[("kind", "a")]).add(7);
        gauge("test_obs_render_depth", &[]).set(3);
        histogram("test_obs_render_us", &[]).observe(5);
        let snap = snapshot();
        let prom = snap.render_prometheus();
        assert!(prom.contains("# TYPE test_obs_render_total counter"));
        assert!(prom.contains("test_obs_render_total{kind=\"a\"} 7"));
        assert!(prom.contains("# TYPE test_obs_render_depth gauge"));
        assert!(prom.contains("test_obs_render_depth 3"));
        assert!(prom.contains("test_obs_render_us_bucket{le=\"7\"} 1"));
        assert!(prom.contains("test_obs_render_us_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("test_obs_render_us_sum 5"));
        assert!(prom.contains("test_obs_render_us_count 1"));
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = counter("test_obs_concurrent_total", &[]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
