//! Execution options shared by all engines in the workspace.

use amber_util::CancelToken;
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
    /// Capacity (canonical queries) of the session prepared-plan cache:
    /// parsed query multigraph + decomposition + processing order + seed
    /// candidates, derived once and reused on every repeat (keyed
    /// whitespace/variable-name-insensitively). `0` disables plan reuse
    /// (every execution re-derives). Read per call, so a call passing 0
    /// also opts out of a warm session's cache.
    pub plan_cache_capacity: usize,
    /// Capacity (plan × options digests) of the session verbatim-result
    /// cache: completed outcomes of repeated identical queries are served
    /// without searching at all. Timed-out (partial) outcomes are never
    /// stored, and result caps are part of the key, so truncation can
    /// never leak across option sets. `0` disables result reuse (per call,
    /// like the plan cache).
    pub result_cache_capacity: usize,
    /// Cooperative cancellation: the engine polls this token at the same
    /// checkpoints as the deadline and aborts with
    /// [`QueryStatus::Cancelled`](crate::QueryStatus::Cancelled) once it
    /// fires. `None` (the default) disables the poll.
    pub cancel: Option<CancelToken>,
    /// Per-query memory budget in bytes for the search state (arenas,
    /// materialized solutions). When pressure builds,
    /// the engine degrades gracefully — shed result cache, shed seed
    /// cache — before returning a partial outcome with
    /// [`QueryStatus::BudgetExceeded`](crate::QueryStatus::BudgetExceeded).
    /// `None` (the default) leaves memory unbounded.
    pub memory_budget: Option<usize>,
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

    /// Batch-execution preset: the defaults plus default-sized
    /// prepared-plan and verbatim-result caches — the configuration for
    /// many queries through one session
    /// ([`run_in`](crate::AmberEngine::run_in) on a
    /// [`create_session`](crate::AmberEngine::create_session)).
    pub fn batch() -> Self {
        Self::default()
            .with_plan_cache(Self::DEFAULT_PLAN_CACHE_CAPACITY)
            .with_result_cache(Self::DEFAULT_RESULT_CACHE_CAPACITY)
    }

    /// Default prepared-plan cache capacity of the [`Self::batch`] preset.
    /// Plans are per-query objects (not per-probe), so a few hundred
    /// distinct statements cover realistic serving mixes.
    pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

    /// Default verbatim-result cache capacity of the [`Self::batch`]
    /// preset.
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

    /// Builder: size the session prepared-plan cache (`0` disables it).
    pub fn with_plan_cache(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Builder: size the session verbatim-result cache (`0` disables it).
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.result_cache_capacity = capacity;
        self
    }

    /// Builder: attach a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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

    /// Builder: *tighten* the memory budget to at most `bytes` — keeps an
    /// existing smaller budget, replaces a larger (or absent) one. Used by
    /// server-wide governance to impose a per-tenant quota on top of any
    /// per-query budget.
    pub fn tighten_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(self.memory_budget.map_or(bytes, |b| b.min(bytes)));
        self
    }

    /// Builder: bound search-state memory to `bytes` (see
    /// [`Self::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
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
            .with_plan_cache(128);
        assert_eq!(o.timeout, Some(Duration::from_secs(60)));
        assert_eq!(o.max_results, Some(10));
        assert!(o.count_only);
        assert_eq!(o.plan_cache_capacity, 128);
    }

    #[test]
    fn cache_disabled_by_default_enabled_in_batch_preset() {
        assert_eq!(ExecOptions::default().plan_cache_capacity, 0);
        assert_eq!(ExecOptions::default().result_cache_capacity, 0);
        assert_eq!(
            ExecOptions::batch().plan_cache_capacity,
            ExecOptions::DEFAULT_PLAN_CACHE_CAPACITY
        );
        assert_eq!(
            ExecOptions::batch().result_cache_capacity,
            ExecOptions::DEFAULT_RESULT_CACHE_CAPACITY
        );
        let tuned = ExecOptions::default()
            .with_plan_cache(7)
            .with_result_cache(9);
        assert_eq!(tuned.plan_cache_capacity, 7);
        assert_eq!(tuned.result_cache_capacity, 9);
    }

    #[test]
    fn cancel_and_budget_default_off_and_compose() {
        let o = ExecOptions::default();
        assert!(o.cancel.is_none());
        assert!(o.memory_budget.is_none());
        let token = CancelToken::new();
        let o = ExecOptions::default()
            .with_cancel(token.clone())
            .with_memory_budget(1 << 20);
        assert_eq!(o.memory_budget, Some(1 << 20));
        token.cancel();
        assert!(o.cancel.as_ref().is_some_and(CancelToken::is_cancelled));
    }

    #[test]
    fn tighten_only_ever_shrinks() {
        // Absent limits are installed...
        let o = ExecOptions::default()
            .tighten_timeout(Duration::from_secs(5))
            .tighten_memory_budget(1 << 20);
        assert_eq!(o.timeout, Some(Duration::from_secs(5)));
        assert_eq!(o.memory_budget, Some(1 << 20));
        // ...looser existing limits are replaced...
        let o = ExecOptions::default()
            .with_timeout(Duration::from_secs(60))
            .with_memory_budget(1 << 30)
            .tighten_timeout(Duration::from_secs(1))
            .tighten_memory_budget(4096);
        assert_eq!(o.timeout, Some(Duration::from_secs(1)));
        assert_eq!(o.memory_budget, Some(4096));
        // ...and tighter existing limits survive.
        let o = ExecOptions::default()
            .with_timeout(Duration::from_millis(1))
            .with_memory_budget(64)
            .tighten_timeout(Duration::from_secs(60))
            .tighten_memory_budget(1 << 30);
        assert_eq!(o.timeout, Some(Duration::from_millis(1)));
        assert_eq!(o.memory_budget, Some(64));
    }

    #[test]
    fn benchmark_preset() {
        let o = ExecOptions::benchmark(Duration::from_secs(60));
        assert!(o.count_only);
        assert_eq!(o.timeout, Some(Duration::from_secs(60)));
    }
}
