//! Execution options shared by all engines in the workspace.

use std::time::Duration;

/// Knobs for one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Wall-clock budget; the paper's evaluation uses 60 s (§7.2). `None`
    /// runs to completion.
    pub timeout: Option<Duration>,
    /// Cap on *materialized* bindings. Counting
    /// ([`QueryOutcome::embedding_count`](crate::QueryOutcome)) is not
    /// affected. `None` materializes everything.
    pub max_results: Option<usize>,
    /// Count embeddings without materializing bindings at all.
    pub count_only: bool,
    /// Capacity (query × options digests) of the result cache of a session
    /// made by [`create_session`](crate::AmberEngine::create_session):
    /// completed outcomes of repeated queries (keyed
    /// whitespace/prefix/variable-name-insensitively) are served before any
    /// planning or search. Timed-out (partial) outcomes are never stored,
    /// and result caps are part of the key, so truncation can never leak
    /// across option sets. `0` gives a session without one. Read once,
    /// when the session is created: a call's options do not turn a warm
    /// session's cache on or off.
    pub result_cache_capacity: usize,
}

impl ExecOptions {
    /// The paper's benchmark configuration: a wall-clock budget and
    /// count-only evaluation (the harness measures time-to-enumerate, not
    /// result shipping).
    pub fn benchmark(timeout: Duration) -> Self {
        Self {
            timeout: Some(timeout),
            count_only: true,
            ..Self::default()
        }
    }

    /// Batch-execution preset: the defaults plus a default-sized result
    /// cache — the configuration for many queries through one session
    /// ([`run_in`](crate::AmberEngine::run_in) on a
    /// [`create_session`](crate::AmberEngine::create_session)).
    pub fn batch() -> Self {
        Self::default().with_result_cache(Self::DEFAULT_RESULT_CACHE_CAPACITY)
    }

    /// Default result-cache capacity of the [`Self::batch`] preset: a few
    /// hundred distinct statements cover realistic serving mixes.
    pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 256;

    /// Builder: set the timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Builder: cap materialized results.
    pub fn with_max_results(mut self, max: usize) -> Self {
        self.max_results = Some(max);
        self
    }

    /// Builder: count-only mode.
    pub fn counting(mut self) -> Self {
        self.count_only = true;
        self
    }

    /// Builder: size the result cache of sessions created with these
    /// options (`0`: none).
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.result_cache_capacity = capacity;
        self
    }

    /// Builder: *tighten* the timeout to at most `limit` — keeps an
    /// existing tighter timeout, replaces a looser (or absent) one. This
    /// is the combinator a scheduling layer uses to hand a request's
    /// *remaining* admission-to-answer budget to execution without ever
    /// loosening a configured per-query limit.
    pub fn tighten_timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(self.timeout.map_or(limit, |t| t.min(limit)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let o = ExecOptions::default()
            .with_timeout(Duration::from_secs(60))
            .with_max_results(10)
            .counting()
            .with_result_cache(128);
        assert_eq!(o.timeout, Some(Duration::from_secs(60)));
        assert_eq!(o.max_results, Some(10));
        assert!(o.count_only);
        assert_eq!(o.result_cache_capacity, 128);
    }

    #[test]
    fn cache_disabled_by_default_enabled_in_batch_preset() {
        assert_eq!(ExecOptions::default().result_cache_capacity, 0);
        assert_eq!(
            ExecOptions::batch().result_cache_capacity,
            ExecOptions::DEFAULT_RESULT_CACHE_CAPACITY
        );
        assert_eq!(
            ExecOptions::default()
                .with_result_cache(9)
                .result_cache_capacity,
            9
        );
    }

    #[test]
    fn timeout_defaults_off_and_composes() {
        assert!(ExecOptions::default().timeout.is_none());
        let o = ExecOptions::default().with_timeout(Duration::from_secs(1));
        assert_eq!(o.timeout, Some(Duration::from_secs(1)));
    }

    #[test]
    fn tighten_only_ever_shrinks() {
        // Absent limits are installed...
        let o = ExecOptions::default().tighten_timeout(Duration::from_secs(5));
        assert_eq!(o.timeout, Some(Duration::from_secs(5)));
        // ...looser existing limits are replaced...
        let o = ExecOptions::default()
            .with_timeout(Duration::from_secs(60))
            .tighten_timeout(Duration::from_secs(1));
        assert_eq!(o.timeout, Some(Duration::from_secs(1)));
        // ...and tighter existing limits survive.
        let o = ExecOptions::default()
            .with_timeout(Duration::from_millis(1))
            .tighten_timeout(Duration::from_secs(60));
        assert_eq!(o.timeout, Some(Duration::from_millis(1)));
    }

    #[test]
    fn benchmark_preset() {
        let o = ExecOptions::benchmark(Duration::from_secs(60));
        assert!(o.count_only);
        assert_eq!(o.timeout, Some(Duration::from_secs(60)));
    }
}
