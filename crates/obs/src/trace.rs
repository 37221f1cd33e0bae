//! The per-query flight recorder: span timings, ring buffer, slow log.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One completed pipeline-stage span inside a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`canonicalize`, `plan`, `component[0]`, …).
    pub stage: String,
    /// Nesting depth (0 = top-level stage, 1 = inside `execute`, …).
    pub depth: u8,
    /// Start offset from the query's begin, in µs.
    pub start_us: u64,
    /// Duration in µs.
    pub duration_us: u64,
}

/// Everything the recorder captured about one query.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Short caller-supplied label (query shape, tenant, …).
    pub label: String,
    /// Canonical plan fingerprint, once known.
    pub fingerprint: Option<u64>,
    /// Cache hit/miss trail in event order (`result:miss`, `result:store`, …).
    pub cache_trail: Vec<&'static str>,
    /// Abort cause, if the query did not complete (`timed out`, …).
    pub abort: Option<String>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Final status label (`completed`, `timed_out`, `error`, …).
    pub status: String,
    /// Wall time from begin to end, in µs.
    pub total_us: u64,
}

impl QueryTrace {
    /// Render the span tree plus the captured metadata, one line per
    /// span, indented by depth — the slow-query-log entry format and the
    /// `EXPLAIN ANALYZE` span section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fp = match self.fingerprint {
            Some(fp) => format!(" fingerprint {:#018x}", fp),
            None => String::new(),
        };
        out.push_str(&format!(
            "query \"{}\"{} [{} in {} µs]\n",
            self.label, fp, self.status, self.total_us
        ));
        // Spans land in *completion* order (a parent `execute` span closes
        // after its children); print in start order, parents first.
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, s.depth));
        for span in spans {
            out.push_str(&format!(
                "  {:indent$}{:<24} {:>8} µs  (at +{} µs)\n",
                "",
                span.stage,
                span.duration_us,
                span.start_us,
                indent = 2 * span.depth as usize
            ));
        }
        if !self.cache_trail.is_empty() {
            out.push_str(&format!("  caches: {}\n", self.cache_trail.join(" ")));
        }
        if let Some(cause) = &self.abort {
            out.push_str(&format!("  abort: {}\n", cause));
        }
        out
    }
}

/// How many slow-log entries a recorder retains.
const SLOW_LOG_CAPACITY: usize = 16;

/// A per-session flight recorder: an in-flight trace plus a fixed-size
/// ring of completed [`QueryTrace`]s and a slow-query log.
///
/// Capture has one switch, the per-session `enabled` knob: it must be on
/// before [`begin`](Self::begin) opens a trace; with it off, every method
/// is a cheap no-op (one branch on an `Option`).
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    slow_threshold: Option<Duration>,
    capacity: usize,
    ring: VecDeque<QueryTrace>,
    slow_log: VecDeque<String>,
    active: Option<(QueryTrace, Instant)>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(32)
    }
}

impl FlightRecorder {
    /// A disabled recorder retaining at most `capacity` completed traces.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: false,
            slow_threshold: None,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            slow_log: VecDeque::new(),
            active: None,
        }
    }

    /// Turn span capture on/off and set the slow-query threshold: a
    /// completed trace whose total wall time is ≥ the threshold is
    /// rendered into the slow log (`Some(Duration::ZERO)` logs every
    /// query; `None` logs none).
    pub fn configure(&mut self, enabled: bool, slow_threshold: Option<Duration>) {
        self.enabled = enabled;
        self.slow_threshold = slow_threshold;
    }

    /// The knobs as last [`configure`](Self::configure)d — lets a caller
    /// (e.g. `EXPLAIN ANALYZE`) force tracing on and restore afterwards.
    pub fn config(&self) -> (bool, Option<Duration>) {
        (self.enabled, self.slow_threshold)
    }

    /// Whether [`begin`](Self::begin) would open a trace right now.
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// Whether a trace is currently open (spans/notes will be captured).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Open a trace for the query starting now. No-op unless
    /// [`is_active`](Self::is_active).
    pub fn begin(&mut self, label: impl Into<String>) {
        if !self.is_active() {
            return;
        }
        let trace = QueryTrace {
            label: label.into(),
            ..QueryTrace::default()
        };
        self.active = Some((trace, Instant::now()));
    }

    /// Record a completed span of `duration` ending now.
    #[inline]
    pub fn span(&mut self, stage: impl Into<String>, depth: u8, duration: Duration) {
        if let Some((trace, started)) = &mut self.active {
            let end_us = started.elapsed().as_micros() as u64;
            let duration_us = duration.as_micros() as u64;
            trace.spans.push(SpanRecord {
                stage: stage.into(),
                depth,
                start_us: end_us.saturating_sub(duration_us),
                duration_us,
            });
        }
    }

    /// Append a cache hit/miss event to the trail.
    #[inline]
    pub fn note_cache(&mut self, event: &'static str) {
        if let Some((trace, _)) = &mut self.active {
            trace.cache_trail.push(event);
        }
    }

    /// Attach the canonical plan fingerprint.
    #[inline]
    pub fn set_fingerprint(&mut self, fingerprint: u64) {
        if let Some((trace, _)) = &mut self.active {
            trace.fingerprint = Some(fingerprint);
        }
    }

    /// Record why the query aborted (kept alongside the final status).
    #[inline]
    pub fn set_abort(&mut self, cause: impl Into<String>) {
        if let Some((trace, _)) = &mut self.active {
            trace.abort = Some(cause.into());
        }
    }

    /// Close the open trace with its final status, push it into the
    /// ring, and slow-log it if it crossed the threshold. Returns `true`
    /// if the trace was slow-logged. No-op (returns `false`) when no
    /// trace is open.
    pub fn end(&mut self, status: &str) -> bool {
        let Some((mut trace, started)) = self.active.take() else {
            return false;
        };
        let total = started.elapsed();
        trace.total_us = total.as_micros() as u64;
        trace.status = status.to_string();
        let slow = match self.slow_threshold {
            Some(threshold) => total >= threshold,
            None => false,
        };
        if slow {
            if self.slow_log.len() == SLOW_LOG_CAPACITY {
                self.slow_log.pop_front();
            }
            self.slow_log.push_back(trace.render());
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(trace);
        slow
    }

    /// Completed traces, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = &QueryTrace> {
        self.ring.iter()
    }

    /// The most recently completed trace.
    pub fn last(&self) -> Option<&QueryTrace> {
        self.ring.back()
    }

    /// Rendered slow-query-log entries, oldest first.
    pub fn slow_log(&self) -> impl Iterator<Item = &str> {
        self.slow_log.iter().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let mut r = FlightRecorder::new(4);
        r.begin("q");
        assert!(!r.is_recording());
        r.span("plan", 0, Duration::from_micros(5));
        assert!(!r.end("completed"));
        assert_eq!(r.traces().count(), 0);
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut r = FlightRecorder::new(2);
        r.configure(true, None);
        for i in 0..3 {
            r.begin(format!("q{i}"));
            r.span("plan", 0, Duration::from_micros(1));
            r.end("completed");
        }
        let labels: Vec<_> = r.traces().map(|t| t.label.clone()).collect();
        assert_eq!(labels, vec!["q1", "q2"]);
        assert_eq!(r.last().unwrap().label, "q2");
    }

    #[test]
    fn slow_log_renders_the_span_tree() {
        let mut r = FlightRecorder::new(4);
        r.configure(true, Some(Duration::ZERO));
        r.begin("slow query");
        r.set_fingerprint(0xabcd);
        r.span("canonicalize", 0, Duration::from_micros(3));
        r.span("component[0]", 1, Duration::from_micros(9));
        r.note_cache("result:miss");
        r.set_abort("timed out");
        assert!(r.end("timed_out"));
        let entry = r.slow_log().next().unwrap().to_string();
        assert!(entry.contains("query \"slow query\" fingerprint 0x000000000000abcd"));
        assert!(entry.contains("timed_out"));
        assert!(entry.contains("canonicalize"));
        assert!(entry.contains("component[0]"));
        assert!(entry.contains("caches: result:miss"));
        assert!(entry.contains("abort: timed out"));
    }
}
