//! Query outcomes and the engine trait shared with the baselines.

use crate::error::EngineError;
use crate::options::ExecOptions;
use crate::telemetry;
use amber_sparql::SelectQuery;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How an execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// All embeddings were enumerated.
    Completed,
    /// The wall-clock budget expired; counts/bindings are partial. The
    /// paper's robustness metric counts such queries as *unanswered*.
    TimedOut,
    /// The caller's [`CancelToken`](crate::CancelToken) fired before
    /// enumeration finished; counts/bindings are partial.
    Cancelled,
    /// The per-query memory budget was exhausted after the degradation
    /// ladder ran out of things to shed; counts/bindings are partial.
    BudgetExceeded,
}

impl QueryStatus {
    /// `true` when enumeration ran to the end (the only status whose
    /// counts are exact and whose outcome may be result-cached).
    pub fn is_complete(self) -> bool {
        self == QueryStatus::Completed
    }
}

/// One materialized binding row: data-vertex names in projection order.
pub type BindingRow = Vec<Box<str>>;

/// `Arc`-shared binding rows — the zero-copy result payload.
///
/// Serving layers hand the same completed outcome to many clients (and the
/// verbatim-result cache re-serves it to every repeat), so the rows live
/// behind one shared allocation: cloning a [`Bindings`] — and therefore
/// cloning a whole [`QueryOutcome`] — bumps a reference count instead of
/// deep-copying every string. The rows themselves are immutable once
/// materialized; reads go through `Deref<Target = [BindingRow]>`, so
/// indexing, iteration, and `len()` look exactly like the `Vec` this type
/// replaced. Callers that need to mutate (tests sorting rows for
/// order-insensitive comparison) take an owned copy via
/// [`Bindings::to_vec`].
///
/// The same allocation can also keep the rows' *wire body*: the second
/// time a completed answer is serialized, the serving layer hands the
/// bytes back ([`QueryOutcome::offer_wire_body`]) and every later repeat
/// in that format and header is written from them
/// ([`QueryOutcome::wire_body`]) — neither copied nor re-serialized. The
/// memo lives and dies with the rows, so it needs no capacity and no
/// invalidation of its own.
#[derive(Clone, Default)]
pub struct Bindings {
    shared: Arc<SharedRows>,
}

/// The one allocation every clone of a [`Bindings`] points at.
#[derive(Default)]
struct SharedRows {
    rows: Vec<BindingRow>,
    /// Set by the first offered serialization; the second one memoizes.
    serialized: AtomicBool,
    /// Set once; the first writer wins.
    wire: OnceLock<WireBody>,
}

/// A memoized serialization of the rows, keyed by the caller's opaque
/// format tag and the exact variable spellings its header was built from.
struct WireBody {
    tag: u8,
    variables: Box<[Box<str>]>,
    body: Arc<str>,
    /// What setting this memo added to `amber_result_body_bytes` (0 when
    /// the telemetry gate was off), so the drop subtracts exactly that.
    gauged: i64,
}

impl Drop for SharedRows {
    fn drop(&mut self) {
        if let Some(wire) = self.wire.get() {
            telemetry::note_result_body_bytes(-wire.gauged);
        }
    }
}

impl Bindings {
    /// Wrap freshly materialized rows (the only allocation this type ever
    /// performs; every subsequent clone is a reference-count bump).
    pub fn new(rows: Vec<BindingRow>) -> Self {
        Self {
            shared: Arc::new(SharedRows {
                rows,
                serialized: AtomicBool::new(false),
                wire: OnceLock::new(),
            }),
        }
    }

    /// `true` when `self` and `other` share one underlying row allocation —
    /// the observable zero-copy guarantee the result cache is gated on.
    pub fn shares_rows(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// An owned deep copy of the rows (for callers that need to mutate,
    /// e.g. sorting for order-insensitive comparison).
    pub fn to_vec(&self) -> Vec<BindingRow> {
        self.shared.rows.clone()
    }

    /// Approximate heap bytes retained by the rows (cache accounting and
    /// the copied-bytes regression counters). A memoized wire body is not
    /// included; `amber_result_body_bytes` reports those.
    pub fn approx_heap_bytes(&self) -> usize {
        let strings: usize = self
            .iter()
            .flat_map(|row| row.iter())
            .map(|s| s.len() + std::mem::size_of::<Box<str>>())
            .sum();
        strings + self.len() * std::mem::size_of::<BindingRow>()
    }
}

impl Deref for Bindings {
    type Target = [BindingRow];

    fn deref(&self) -> &Self::Target {
        &self.shared.rows
    }
}

impl From<Vec<BindingRow>> for Bindings {
    fn from(rows: Vec<BindingRow>) -> Self {
        Self::new(rows)
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        self.shares_rows(other) || **self == **other
    }
}

impl Eq for Bindings {}

impl std::fmt::Debug for Bindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Bindings {
    type Item = &'a BindingRow;
    type IntoIter = std::slice::Iter<'a, BindingRow>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<BindingRow> for Bindings {
    fn from_iter<I: IntoIterator<Item = BindingRow>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// The result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Completion status.
    pub status: QueryStatus,
    /// Number of homomorphic embeddings of the query multigraph (the paper's
    /// result semantics; bags, not sets). Partial when `TimedOut`.
    pub embedding_count: u128,
    /// Output variable names, in SELECT order.
    pub variables: Vec<Box<str>>,
    /// Materialized bindings (rows of data-vertex names resolved through
    /// `Mv⁻¹`), capped by [`ExecOptions::max_results`]; empty in
    /// `count_only` mode. `SELECT DISTINCT` deduplicates these rows (the
    /// embedding count stays bag-semantics). `Arc`-shared: cloning an
    /// outcome never copies row data.
    pub bindings: Bindings,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl QueryOutcome {
    /// An empty, completed outcome (unsatisfiable or zero-match queries).
    pub fn empty(variables: Vec<Box<str>>, elapsed: Duration) -> Self {
        Self {
            status: QueryStatus::Completed,
            embedding_count: 0,
            variables,
            bindings: Bindings::default(),
            elapsed,
        }
    }

    /// `true` when the query completed with at least one embedding.
    pub fn has_answers(&self) -> bool {
        self.embedding_count > 0
    }

    /// `true` when the budget expired before enumeration finished.
    pub fn timed_out(&self) -> bool {
        self.status == QueryStatus::TimedOut
    }

    /// `true` when the outcome is partial for any reason (timeout,
    /// cancellation, or memory-budget exhaustion).
    pub fn is_partial(&self) -> bool {
        !self.status.is_complete()
    }

    /// The wire body memoized for these rows under format `tag` with
    /// exactly this outcome's variable spellings, if there is one. No
    /// hashing, no allocation: one tag compare and one slice compare. A
    /// renamed-variable twin sharing the rows misses (its header differs).
    pub fn wire_body(&self, tag: u8) -> Option<&Arc<str>> {
        self.bindings
            .shared
            .wire
            .get()
            .filter(|wire| wire.tag == tag && *wire.variables == *self.variables)
            .map(|wire| &wire.body)
    }

    /// Tell the rows that `body` is their serialization under format `tag`
    /// and this outcome's variables. Only the *second* offer for the same
    /// rows keeps it (a fresh answer pays nothing and retains nothing),
    /// only for a `Completed` outcome, and only if no body is memoized yet
    /// — one slot, first writer wins. `true` when `body` was memoized.
    pub fn offer_wire_body(&self, tag: u8, body: &str) -> bool {
        let shared = &self.bindings.shared;
        // Relaxed: the flag only decides which offer memoizes; the body
        // itself is published through the `OnceLock`.
        if !self.status.is_complete()
            || shared.wire.get().is_some()
            || !shared.serialized.swap(true, Ordering::Relaxed)
        {
            return false;
        }
        let gauged = if amber_obs::obs_enabled() {
            i64::try_from(body.len()).unwrap_or(i64::MAX)
        } else {
            0
        };
        let wire = WireBody {
            tag,
            variables: self.variables.as_slice().into(),
            body: body.into(),
            gauged,
        };
        let set = shared.wire.set(wire).is_ok();
        if set {
            telemetry::note_result_body_bytes(gauged);
        }
        set
    }
}

/// A SPARQL engine under benchmark — implemented by AMbER and by every
/// baseline, so the experiment harness can drive them uniformly.
pub trait SparqlEngine {
    /// Engine name as it appears in the paper's tables/figures.
    fn name(&self) -> &'static str;

    /// Execute a parsed query.
    fn execute_query(
        &self,
        query: &SelectQuery,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError>;

    /// Execute SPARQL text (parse + execute).
    fn execute_sparql(
        &self,
        sparql: &str,
        options: &ExecOptions,
    ) -> Result<QueryOutcome, EngineError> {
        let query = amber_sparql::parse_select(sparql)?;
        self.execute_query(&query, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_outcome() {
        let o = QueryOutcome::empty(vec!["x".into()], Duration::ZERO);
        assert!(!o.has_answers());
        assert!(!o.timed_out());
        assert_eq!(o.variables.len(), 1);
        assert!(o.bindings.is_empty());
    }

    fn answer(status: QueryStatus, vars: &[&str]) -> QueryOutcome {
        QueryOutcome {
            status,
            embedding_count: 2,
            variables: vars.iter().map(|v| Box::from(*v)).collect(),
            bindings: Bindings::new(vec![
                vec!["http://x/a".into(), "http://x/b".into()],
                vec!["http://x/c".into(), "\"d\"@en".into()],
            ]),
            elapsed: Duration::ZERO,
        }
    }

    /// `amber_result_body_bytes`. The gauge is process-wide: every test
    /// that memoizes holds the `force_enabled` guard (a global lock) and
    /// compares against what it read under that lock.
    fn body_gauge() -> i64 {
        amber_obs::gauge("amber_result_body_bytes", &[]).get()
    }

    #[test]
    fn only_the_second_serialization_is_memoized() {
        let _on = amber_obs::force_enabled(true);
        let base = body_gauge();
        let first = answer(QueryStatus::Completed, &["x", "y"]);
        assert!(!first.offer_wire_body(0, "first"));
        assert!(first.wire_body(0).is_none(), "a fresh answer keeps nothing");
        assert_eq!(body_gauge(), base);
        // A repeat is a clone sharing the rows; its serialization is the
        // second one, and every holder of the rows sees the memo.
        let repeat = first.clone();
        assert!(repeat.offer_wire_body(0, "second"));
        assert_eq!(first.wire_body(0).map(|b| &**b), Some("second"));
        assert_eq!(body_gauge(), base + 6);
        assert!(!repeat.offer_wire_body(0, "third"), "the slot is taken");
        drop((first, repeat));
        assert_eq!(body_gauge(), base);
    }

    #[test]
    fn the_memo_is_keyed_by_tag_and_exact_variables() {
        let _on = amber_obs::force_enabled(true);
        let o = answer(QueryStatus::Completed, &["x", "y"]);
        o.offer_wire_body(7, "body");
        assert!(o.offer_wire_body(7, "body"));
        assert_eq!(o.wire_body(7).map(|b| &**b), Some("body"));
        assert!(o.wire_body(8).is_none(), "another format misses");
        for vars in [
            &["x", "z"][..],
            &["x"],
            &["x", "y", "z"],
            &["X", "y"],
            &["y", "x"],
            &[],
        ] {
            let twin = QueryOutcome {
                variables: vars.iter().map(|v| Box::from(*v)).collect(),
                ..o.clone()
            };
            assert!(twin.bindings.shares_rows(&o.bindings));
            assert!(twin.wire_body(7).is_none(), "{vars:?} has its own header");
        }
    }

    #[test]
    fn the_first_writer_wins() {
        let _on = amber_obs::force_enabled(true);
        let base = body_gauge();
        let o = answer(QueryStatus::Completed, &["x", "y"]);
        o.offer_wire_body(0, "json");
        assert!(o.offer_wire_body(0, "json"));
        // Another format, or the same one again, cannot replace it.
        assert!(!o.offer_wire_body(1, "tsv"));
        assert!(!o.offer_wire_body(1, "tsv"));
        assert!(!o.offer_wire_body(0, "other"));
        assert!(o.wire_body(1).is_none());
        assert_eq!(o.wire_body(0).map(|b| &**b), Some("json"));
        assert_eq!(body_gauge(), base + 4);
        drop(o);

        // Racing second serializations: exactly one memo, gauged once.
        let o = answer(QueryStatus::Completed, &["x", "y"]);
        o.offer_wire_body(0, "seed");
        let start = std::sync::Barrier::new(4);
        let won: usize = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|i| {
                    let (o, start) = (o.clone(), &start);
                    scope.spawn(move || {
                        let body = "ab".repeat(i + 1);
                        start.wait();
                        usize::from(o.offer_wire_body(0, &body))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(won, 1);
        let len = o.wire_body(0).unwrap().len() as i64;
        assert_eq!(body_gauge(), base + len);
        drop(o);
        assert_eq!(body_gauge(), base);
    }

    #[test]
    fn a_partial_outcome_is_never_memoized() {
        let _on = amber_obs::force_enabled(true);
        let base = body_gauge();
        for status in [
            QueryStatus::TimedOut,
            QueryStatus::Cancelled,
            QueryStatus::BudgetExceeded,
        ] {
            let o = answer(status, &["x", "y"]);
            for _ in 0..3 {
                assert!(!o.offer_wire_body(0, "partial"), "{status:?}");
            }
            assert!(o.wire_body(0).is_none());
        }
        assert_eq!(body_gauge(), base);
    }

    #[test]
    fn the_body_gauge_is_exact_across_a_gate_flip() {
        let memoized = || {
            let o = answer(QueryStatus::Completed, &["x"]);
            o.offer_wire_body(0, "0123456789");
            assert!(o.offer_wire_body(0, "0123456789"));
            o
        };
        let (base, counted) = {
            let _on = amber_obs::force_enabled(true);
            let base = body_gauge();
            let counted = memoized();
            assert_eq!(body_gauge(), base + 10);
            (base, counted)
        };
        let uncounted = {
            let _off = amber_obs::force_enabled(false);
            let uncounted = memoized();
            assert_eq!(body_gauge(), base + 10, "set while off: not gauged");
            // Dropped while off: still subtracts what its set added.
            drop(counted);
            assert_eq!(body_gauge(), base);
            uncounted
        };
        let _on = amber_obs::force_enabled(true);
        drop(uncounted);
        assert_eq!(body_gauge(), base, "dropped while on: subtracts nothing");
    }
}
