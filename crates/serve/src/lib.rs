#![warn(missing_docs)]
//! A concurrent, multi-tenant serving layer over one shared
//! [`AmberEngine`].
//!
//! The paper's engine answers one query at a time; a serving deployment
//! multiplexes many client streams onto one in-memory graph. This crate is
//! the thin, dependency-free layer that makes that safe and fair — a
//! thread-per-core request loop over an in-process queue, **no async
//! runtime**. A blocking caller ([`Server::execute`]) whose request
//! contends with nothing skips the queue and runs it on its own thread;
//! the worker pool is where a backlog drains:
//!
//! * **shared engine, per-tenant sessions** — all tenants execute against
//!   one [`AmberEngine`] (one graph, one index set), but each tenant owns
//!   a private [`QuerySession`] (arenas, seed, plan and result caches). A tenant's requests are serialized onto its
//!   session — sessions are `&mut` state — while different tenants'
//!   requests run in parallel, at most [`ServeConfig::workers`] at once
//!   — the only parallelism there is: one query runs on one thread;
//! * **admission control** — the server holds at most
//!   [`ServeConfig::queue_capacity`] queued requests; beyond that,
//!   [`Server::submit`] fails *immediately* with the typed
//!   [`ServeError::Overloaded`] — carrying the observed queue depth and a
//!   retry-after hint derived from the recent service rate (pair it with
//!   [`amber_util::jittered_backoff`] on the client) — instead of
//!   buffering unboundedly or blocking the client;
//! * **deadline propagation** — [`Server::submit_with`] accepts a total
//!   admission-to-answer budget ([`SubmitOptions::budget`]); queue wait is
//!   charged against it, a request whose budget expires while still queued
//!   is shed with the typed [`ServeError::DeadlineExpired`] *without any
//!   engine work*, and only the *remaining* budget is handed to the
//!   engine as its execution timeout;
//! * **per-tenant circuit breakers** — with [`ServeConfig::breaker`] set,
//!   a tenant whose requests keep failing hard (quarantined panics or
//!   timeouts) trips into fast-fail ([`ServeError::CircuitOpen`]) instead
//!   of consuming worker time; after a cooldown, half-open probes readmit
//!   one request at a time (see [`breaker`]);
//! * **server-wide memory governance** — [`ServeConfig::memory_budget`]
//!   partitions a global byte budget into per-tenant quotas that feed each
//!   query's own `MemoryGovernor` degradation ladder (see [`governor`]);
//! * **panic and failure isolation** — a query that fails (or panics; the
//!   engine quarantines panics into typed
//!   [`EngineError::Internal`](amber::EngineError) values) poisons only
//!   its own [`Ticket`]; the tenant's session and every other tenant keep
//!   serving. The serving loop itself is also a chaos surface: the
//!   `serve-admit`, `serve-dispatch` and `serve-drain` fault points
//!   (`AMBER_CHAOS`, see `amber_util::fault`) inject panics, delays and
//!   spurious allocation failures into admission, dispatch and drain, and
//!   all serving-layer locks recover from poisoning
//!   (`PoisonError::into_inner`) rather than propagating it;
//! * **graceful drain** — [`Server::shutdown`] stops admission, serves
//!   everything already queued, joins the workers, and returns a
//!   [`ServeReport`] with per-tenant counts, breaker and shed statistics,
//!   and the aggregated cache statistics (including the zero-copy counter
//!   `result_hit_copied_bytes`, which the serving benchmark pins at 0).
//!   [`Server::shutdown_now`] instead revokes: queued requests are
//!   answered with [`ServeError::ShuttingDown`] and in-flight work is
//!   cancelled through each request's [`CancelToken`].
//!
//! ```
//! use amber::AmberEngine;
//! use amber_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(AmberEngine::load_ntriples(
//!     "<http://e/a> <http://e/p> <http://e/b> .",
//! ).unwrap());
//! let server = Server::start(engine, ServeConfig::default());
//! let ticket = server
//!     .submit_sparql("tenant-a", "SELECT * WHERE { ?s <http://e/p> ?o . }")
//!     .unwrap();
//! let outcome = ticket.wait().unwrap();
//! assert_eq!(outcome.embedding_count, 1);
//! let report = server.shutdown();
//! assert_eq!(report.served(), 1);
//! ```

pub mod breaker;
pub mod governor;

pub use breaker::{BreakerConfig, BreakerReport, BreakerState, TripCause};
pub use governor::{GovernorReport, ServerGovernor};

use amber::{
    AmberEngine, CancelToken, EngineError, ExecOptions, PlanCacheStats, QueryOutcome, QuerySession,
    QueryStatus, SearchStats,
};
use amber_obs::{Counter, Gauge, Histogram};
use amber_sparql::SelectQuery;
use amber_util::fault::{self, payload_message, FaultPoint};
use amber_util::timing::Budget;
use breaker::{Admission, Breaker};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer registry handles, resolved once per process. All live
/// updates are additionally gated on [`amber_obs::obs_enabled`] at the
/// call sites, so `AMBER_OBS=off` costs one relaxed load per site.
struct ServeMetrics {
    /// `amber_serve_queue_depth` — admitted-not-yet-dispatched requests
    /// (mirrors `DispatchState::queued`; updated under the serving lock).
    queue_depth: Arc<Gauge>,
    /// `amber_serve_queue_wait_us` — admission-to-dispatch wait (0 for a
    /// dispatch that ran inline, so its count equals dispatches).
    queue_wait_us: Arc<Histogram>,
    /// `amber_serve_dispatches_total{path}` — dispatches that ran on the
    /// caller's thread vs. ones a worker took off the rotation.
    inline_dispatches: Arc<Counter>,
    queued_dispatches: Arc<Counter>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    fast_fails: Arc<Counter>,
    revoked: Arc<Counter>,
    breaker_trips: Arc<Counter>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        queue_depth: amber_obs::gauge("amber_serve_queue_depth", &[]),
        queue_wait_us: amber_obs::histogram("amber_serve_queue_wait_us", &[]),
        inline_dispatches: amber_obs::counter(
            "amber_serve_dispatches_total",
            &[("path", "inline")],
        ),
        queued_dispatches: amber_obs::counter(
            "amber_serve_dispatches_total",
            &[("path", "queued")],
        ),
        served: amber_obs::counter("amber_serve_requests_total", &[("outcome", "served")]),
        shed: amber_obs::counter("amber_serve_requests_total", &[("outcome", "shed")]),
        rejected: amber_obs::counter("amber_serve_requests_total", &[("outcome", "rejected")]),
        fast_fails: amber_obs::counter("amber_serve_requests_total", &[("outcome", "fast_fail")]),
        revoked: amber_obs::counter("amber_serve_requests_total", &[("outcome", "revoked")]),
        breaker_trips: amber_obs::counter("amber_serve_breaker_trips_total", &[]),
    })
}

/// Publish what the engine's offline stage cost and what it left resident
/// (the paper's Table 5) as `amber_offline_stage_us{stage}` and
/// `amber_resident_bytes{part}`. The engine is immutable, so the gauges are
/// set once, when a server starts serving it.
fn export_offline_stats(engine: &AmberEngine) {
    if !amber_obs::obs_enabled() {
        return;
    }
    let offline = engine.offline_stats();
    for (stage, time) in offline.stages() {
        let micros = i64::try_from(time.as_micros()).unwrap_or(i64::MAX);
        amber_obs::gauge("amber_offline_stage_us", &[("stage", stage)]).set(micros);
    }
    for (part, bytes) in offline.parts() {
        let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
        amber_obs::gauge("amber_resident_bytes", &[("part", part)]).set(bytes);
    }
}

/// Knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serving worker threads (each runs the request loop; clamped to at
    /// least 1), and the bound on requests executing at once — one that
    /// [`Server::execute`] runs on its caller's thread counts against it
    /// too. There is no parallelism *within* a query: a request runs on
    /// the one thread that dispatched it.
    pub workers: usize,
    /// Admission bound: maximum requests queued (not yet dispatched)
    /// across all tenants. A full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Start with dispatch paused: requests queue up (admission still
    /// applies) until [`Server::resume`]. Lets tests and benchmarks build
    /// a deterministic backlog before any dispatch happens.
    pub paused: bool,
    /// Record the tenant of every dispatch, in order, for the
    /// [`ServeReport`] — the observable fairness is asserted on this.
    pub record_dispatch: bool,
    /// Per-tenant circuit breakers (see [`breaker`]); `None` disables
    /// them (every submission is admitted regardless of failure history).
    pub breaker: Option<BreakerConfig>,
    /// Server-wide memory budget in bytes, partitioned into equal
    /// per-tenant quotas that *tighten* each query's
    /// `ExecOptions::memory_budget` (see [`governor`]); `None` leaves
    /// memory governance entirely per-query.
    pub memory_budget: Option<usize>,
    /// Execution options for every request; also sizes each tenant's
    /// session caches. Defaults to [`ExecOptions::batch`] (plan + result
    /// caches on — a serving deployment is exactly the repeated-query
    /// workload they exist for).
    pub options: ExecOptions,
    /// Enable each tenant session's flight recorder: per-query span
    /// traces (parse → plan → per-component search → materialize) retained
    /// in a bounded ring. No-op under `AMBER_OBS=off`. See
    /// `docs/observability.md`.
    pub trace: bool,
    /// Slow-query threshold: with [`trace`](Self::trace) on, a query
    /// whose wall time reaches this renders its full span tree into the
    /// session's slow-query log (`Some(Duration::ZERO)` logs every query;
    /// `None` logs none).
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            paused: false,
            record_dispatch: false,
            breaker: None,
            memory_budget: None,
            options: ExecOptions::batch(),
            trace: false,
            slow_query_threshold: None,
        }
    }
}

/// Per-request submission options ([`Server::submit_with`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Total admission-to-answer budget. Queue wait is charged against
    /// it: a request still queued when the budget expires is shed with
    /// [`ServeError::DeadlineExpired`] (zero engine work), and a request
    /// that dispatches hands only the *remaining* budget to the engine as
    /// its execution timeout.
    pub budget: Option<Duration>,
    /// Per-request execution timeout, tightening (never loosening) the
    /// server-wide [`ServeConfig::options`] timeout. Unlike
    /// [`budget`](Self::budget), the clock starts at dispatch, not at
    /// admission.
    pub timeout: Option<Duration>,
    /// Force the tenant session's flight recorder on for this one request
    /// (span tree retained in the session's trace ring), even when the
    /// server-wide [`ServeConfig::trace`] is off. The session's tracing
    /// configuration is restored after the request. No-op under
    /// `AMBER_OBS=off`.
    pub tracing: bool,
}

impl SubmitOptions {
    /// Options with no budget, no per-request timeout, no forced tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the total admission-to-answer [`budget`](Self::budget).
    pub fn with_budget(mut self, total: Duration) -> Self {
        self.budget = Some(total);
        self
    }

    /// Set the per-request execution [`timeout`](Self::timeout).
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    /// Set per-request [`tracing`](Self::tracing).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }
}

/// Typed serving-layer failure. Engine failures pass through; the serving
/// layer adds admission and lifecycle outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query was dispatched and the engine failed it (parse error,
    /// quarantined panic, cancellation, …).
    Engine(EngineError),
    /// The request's [`SubmitOptions::budget`] expired while it was still
    /// queued: it was shed before any engine work. `waited` is the queue
    /// wait actually observed (≥ `budget`).
    DeadlineExpired {
        /// The admission-to-answer budget the request was submitted with.
        budget: Duration,
        /// How long the request had waited when it was shed.
        waited: Duration,
    },
    /// Rejected at admission: this tenant's circuit breaker is open after
    /// consecutive hard failures. Nothing was enqueued; retry after
    /// `retry_after` (jittered — see [`amber_util::jittered_backoff`]).
    CircuitOpen {
        /// The kind of consecutive hard failure that tripped the breaker.
        cause: TripCause,
        /// Remaining breaker cooldown at rejection time.
        retry_after: Duration,
    },
    /// Rejected at admission: the server already holds `queued` requests
    /// of a `capacity`-bounded queue. Nothing was enqueued; back off and
    /// retry (the hint is derived from the recently observed service
    /// rate — jitter it with [`amber_util::jittered_backoff`]).
    Overloaded {
        /// The configured [`ServeConfig::queue_capacity`].
        capacity: usize,
        /// Requests queued at rejection time.
        queued: usize,
        /// Estimated time until the queue has drained one slot.
        retry_after: Duration,
    },
    /// Rejected because the server is draining for shutdown, or revoked by
    /// [`Server::shutdown_now`] while still queued.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::DeadlineExpired { budget, waited } => write!(
                f,
                "deadline expired in queue: waited {waited:?} of a {budget:?} budget"
            ),
            ServeError::CircuitOpen { cause, retry_after } => write!(
                f,
                "circuit open after consecutive {cause}; retry in {retry_after:?}"
            ),
            ServeError::Overloaded {
                capacity,
                queued,
                retry_after,
            } => {
                write!(
                    f,
                    "server overloaded: {queued} of {capacity} queue slots in use; \
                     retry in ~{retry_after:?}"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<ServeError> for amber::Error {
    /// Fold a serving-layer failure into the unified [`amber::Error`]
    /// taxonomy, which carries the wire mapping
    /// ([`status_code`](amber::Error::status_code) /
    /// [`retry_after`](amber::Error::retry_after)) every front-end
    /// shares. The structured [`TripCause`] is rendered to text (the
    /// engine crate cannot name serving-layer types).
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Engine(e) => amber::Error::Engine(e),
            ServeError::DeadlineExpired { budget, waited } => {
                amber::Error::DeadlineExpired { budget, waited }
            }
            ServeError::CircuitOpen { cause, retry_after } => amber::Error::CircuitOpen {
                cause: cause.to_string(),
                retry_after,
            },
            ServeError::Overloaded {
                capacity,
                queued,
                retry_after,
            } => amber::Error::Overloaded {
                capacity,
                queued,
                retry_after,
            },
            ServeError::ShuttingDown => amber::Error::ShuttingDown,
        }
    }
}

/// One accepted request's completion slot.
#[derive(Default)]
struct TicketInner {
    slot: Mutex<Option<Result<QueryOutcome, ServeError>>>,
    done: Condvar,
}

/// Handle to one accepted request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let completed = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some();
        f.debug_struct("Ticket")
            .field("completed", &completed)
            .finish()
    }
}

impl Ticket {
    /// Block until the request completes and take its result. Each
    /// accepted request completes exactly once — even across shutdown,
    /// since drain serves (or [`shutdown_now`](Server::shutdown_now)
    /// revokes) the whole backlog before the workers exit.
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .inner
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One admitted request's work — everything a dispatch needs except
/// where the answer goes (a [`Ticket`] for a queued request, the caller's
/// stack for an inline one).
struct Job {
    query: SelectQuery,
    /// Admission instant — the `amber_serve_queue_wait_us` observation is
    /// `dispatch − admitted`.
    admitted: Instant,
    /// The admission-to-answer budget, clocked from admission.
    budget: Option<Budget>,
    /// Per-request execution timeout (clocked from dispatch).
    timeout: Option<Duration>,
    /// Revocation handle, installed into the engine's options at dispatch
    /// so [`Server::shutdown_now`] can cancel in-flight work.
    cancel: CancelToken,
    /// This request is its tenant's single half-open breaker probe.
    probe: bool,
    /// Force the session's flight recorder on for this dispatch
    /// ([`SubmitOptions::tracing`]); restored afterwards.
    tracing: bool,
}

/// A queued request (tenant is the queue key).
struct Request {
    job: Job,
    ticket: Arc<TicketInner>,
}

/// Per-tenant serving state.
#[derive(Default)]
struct TenantState {
    /// FIFO of this tenant's admitted, not-yet-dispatched requests.
    queue: VecDeque<Request>,
    /// The tenant's session, present while no request of this tenant is in
    /// flight (the executing thread takes it for the duration of a
    /// dispatch — that hand-off is what serializes a tenant's stream onto
    /// its `&mut` session). `None` before the first dispatch completes,
    /// too.
    session: Option<QuerySession>,
    /// A request of this tenant is currently executing.
    busy: bool,
    /// Requests completed (successfully or with an engine error).
    served: u64,
    /// Requests shed with [`ServeError::DeadlineExpired`] (never
    /// executed, not counted in `served`).
    shed: u64,
    /// This tenant's circuit breaker (inert unless
    /// [`ServeConfig::breaker`] is set).
    breaker: Breaker,
    /// The in-flight request's cancel token, for `shutdown_now`.
    inflight_cancel: Option<CancelToken>,
}

/// Dispatcher state under the one serving-layer mutex.
#[derive(Default)]
struct DispatchState {
    tenants: HashMap<Arc<str>, TenantState>,
    /// Round-robin ring: tenants with queued work and no request in
    /// flight. A tenant appears at most once; it re-enters at the *back*
    /// after each dispatch, which is the entire fairness mechanism.
    rotation: VecDeque<Arc<str>>,
    /// Total queued (not yet dispatched) requests — the admission gauge.
    queued: usize,
    /// Requests executing right now, on a worker or inline on a caller's
    /// thread. Never exceeds [`ServeConfig::workers`]: both dispatch paths
    /// check it under this lock.
    inflight: usize,
    /// High-water mark of `inflight`.
    peak_inflight: usize,
    /// Dispatches run on the submitting thread ([`Server::execute`]'s
    /// fast path) / taken off the rotation by a worker.
    inline_dispatches: u64,
    queued_dispatches: u64,
    paused: bool,
    draining: bool,
    rejected: u64,
    /// Tenant of every dispatch, in order — `Some` iff
    /// [`ServeConfig::record_dispatch`].
    dispatch_order: Option<Vec<Arc<str>>>,
    /// EWMA of executed-request service time in nanoseconds (0 until the
    /// first completion); feeds the `Overloaded` retry-after hint.
    service_ewma_ns: u64,
    /// Serving-layer invariant violations recovered instead of panicking
    /// (stale rotation entries after lock-poison recovery).
    internal_faults: u64,
    /// `serve-drain` chaos panics trapped on the workers' drain path.
    drain_faults: u64,
}

impl DispatchState {
    /// Estimated time until one queue slot frees up, from the recent
    /// service rate: `ewma × (queued + 1) / workers`, with a 1 ms default
    /// before any completion has been observed.
    fn retry_after(&self, workers: usize) -> Duration {
        const DEFAULT_SERVICE_NS: u64 = 1_000_000;
        let per_request = if self.service_ewma_ns == 0 {
            DEFAULT_SERVICE_NS
        } else {
            self.service_ewma_ns
        };
        let pending = (self.queued as u64).saturating_add(1);
        Duration::from_nanos(per_request.saturating_mul(pending) / workers.max(1) as u64)
    }

    /// Whether a request for `tenant` arriving now may run on its caller's
    /// thread: dispatch is live, the tenant is idle (per-tenant FIFO —
    /// nothing of its own to overtake), nobody is waiting for a turn in
    /// the rotation (fairness — nobody else to overtake), and an execution
    /// slot is free (`workers` stays the concurrency bound).
    fn can_run_inline(&self, tenant: &str, workers: usize) -> bool {
        !self.paused
            && self.rotation.is_empty()
            && self.inflight < workers
            && self
                .tenants
                .get(tenant)
                .is_none_or(|t| t.queue.is_empty() && !t.busy)
    }

    /// Move `job` from admitted to executing: mark the tenant busy, make
    /// the request revocable, take the tenant's session, claim an
    /// execution slot. `inline` says which path dispatched it (a queued
    /// job has already left its tenant's queue and `queued`).
    fn begin_dispatch(&mut self, tenant: Arc<str>, job: Job, inline: bool) -> Dispatch {
        let entry = self.tenants.entry(Arc::clone(&tenant)).or_default();
        entry.busy = true;
        entry.inflight_cancel = Some(job.cancel.clone());
        let session = entry.session.take();
        self.inflight += 1;
        self.peak_inflight = self.peak_inflight.max(self.inflight);
        let wait_us = if inline {
            self.inline_dispatches += 1;
            0
        } else {
            self.queued_dispatches += 1;
            job.admitted.elapsed().as_micros() as u64
        };
        if amber_obs::obs_enabled() {
            let m = serve_metrics();
            m.queue_depth.set(self.queued as i64);
            m.queue_wait_us.observe(wait_us);
            if inline {
                m.inline_dispatches.inc();
            } else {
                m.queued_dispatches.inc();
            }
        }
        if let Some(order) = &mut self.dispatch_order {
            order.push(Arc::clone(&tenant));
        }
        Dispatch {
            tenant,
            job,
            session,
            tenant_count: self.tenants.len(),
        }
    }
}

struct ServerShared {
    state: Mutex<DispatchState>,
    /// Wakes workers: new work queued, rotation refilled, resume, drain.
    work_cv: Condvar,
}

impl ServerShared {
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a dispatch needs, shared by the serving workers and by
/// [`Server::execute`]'s inline path.
struct DispatchContext {
    engine: Arc<AmberEngine>,
    shared: ServerShared,
    options: ExecOptions,
    /// [`ServeConfig::workers`], clamped to at least 1: the worker-thread
    /// count and the bound on concurrently executing requests.
    workers: usize,
    breaker: Option<BreakerConfig>,
    governor: Option<ServerGovernor>,
    trace: bool,
    slow_query_threshold: Option<Duration>,
}

/// One request that has started executing (see
/// [`DispatchState::begin_dispatch`]).
struct Dispatch {
    tenant: Arc<str>,
    job: Job,
    session: Option<QuerySession>,
    /// Tenants known to the server at dispatch time (the governor's
    /// partition denominator).
    tenant_count: usize,
}

/// A request past every admission check, with the dispatch lock still
/// held: the caller either enqueues it or starts it inline.
struct Admitted<'a> {
    state: MutexGuard<'a, DispatchState>,
    tenant: Arc<str>,
    job: Job,
}

/// A running serving layer over one shared engine. Submission is `&self`
/// (share the server across client threads with `std::thread::scope` or an
/// `Arc`); shutdown consumes the server, so no submission can race the
/// drain.
pub struct Server {
    ctx: Arc<DispatchContext>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
}

impl Server {
    /// Spawn the serving workers and start accepting requests (paused if
    /// [`ServeConfig::paused`]).
    pub fn start(engine: Arc<AmberEngine>, config: ServeConfig) -> Self {
        export_offline_stats(&engine);
        let ctx = Arc::new(DispatchContext {
            engine,
            shared: ServerShared {
                state: Mutex::new(DispatchState {
                    paused: config.paused,
                    dispatch_order: config.record_dispatch.then(Vec::new),
                    ..DispatchState::default()
                }),
                work_cv: Condvar::new(),
            },
            options: config.options,
            workers: config.workers.max(1),
            breaker: config.breaker,
            governor: config.memory_budget.map(ServerGovernor::new),
            trace: config.trace,
            slow_query_threshold: config.slow_query_threshold,
        });
        let workers = (0..ctx.workers)
            .map(|id| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("amber-serve-{id}"))
                    .spawn(move || serve_loop(&ctx))
                    .expect("spawn serving worker")
            })
            .collect();
        Self {
            ctx,
            workers,
            queue_capacity: config.queue_capacity,
        }
    }

    /// Submit one parsed query for `tenant` with default
    /// [`SubmitOptions`] (no budget, no per-request timeout). Returns a
    /// [`Ticket`] immediately on admission; rejects with the typed
    /// [`ServeError::Overloaded`] / [`ServeError::CircuitOpen`] without
    /// enqueueing anything. Requests of one tenant complete in submission
    /// order; requests of different tenants are scheduled round-robin.
    pub fn submit(&self, tenant: &str, query: SelectQuery) -> Result<Ticket, ServeError> {
        self.submit_with(tenant, query, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with per-request lifecycle options: a
    /// total admission-to-answer budget and/or an execution timeout.
    pub fn submit_with(
        &self,
        tenant: &str,
        query: SelectQuery,
        opts: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        Ok(self.enqueue(self.admit(tenant, query, opts)?))
    }

    /// Parse SPARQL text and [`submit`](Self::submit) it. Parse errors are
    /// reported synchronously (nothing is enqueued for them).
    pub fn submit_sparql(&self, tenant: &str, sparql: &str) -> Result<Ticket, ServeError> {
        self.submit_sparql_with(tenant, sparql, SubmitOptions::default())
    }

    /// Parse SPARQL text and [`submit_with`](Self::submit_with) it.
    pub fn submit_sparql_with(
        &self,
        tenant: &str,
        sparql: &str,
        opts: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        let query = amber_sparql::parse_select(sparql).map_err(EngineError::from)?;
        self.submit_with(tenant, query, opts)
    }

    /// Submit and wait in one blocking call — the same outcome, errors,
    /// counters and ordering as
    /// `submit_sparql_with(tenant, sparql, opts)?.wait()`, for a caller
    /// that has nothing else to do until the answer (a connection thread).
    ///
    /// When nothing is contending — dispatch is not paused, `tenant` has
    /// no request queued or in flight, no tenant is waiting in the
    /// rotation, and fewer than [`ServeConfig::workers`] requests are
    /// executing — the request runs to completion on the calling thread:
    /// no queue, no worker wake-up, no [`Ticket`]. Otherwise it queues
    /// behind whatever is ahead of it and waits. Which of the two happens
    /// is a function of queue state alone; [`ServeReport::inline_dispatches`]
    /// and [`ServeReport::queued_dispatches`] count them.
    pub fn execute(
        &self,
        tenant: &str,
        sparql: &str,
        opts: SubmitOptions,
    ) -> Result<QueryOutcome, ServeError> {
        let query = amber_sparql::parse_select(sparql).map_err(EngineError::from)?;
        let admitted = self.admit(tenant, query, opts)?;
        if !admitted.state.can_run_inline(tenant, self.ctx.workers) {
            return self.enqueue(admitted).wait();
        }
        let Admitted {
            mut state,
            tenant,
            job,
        } = admitted;
        let dispatch = state.begin_dispatch(tenant, job, true);
        drop(state);
        run_dispatch(&self.ctx, dispatch)
    }

    /// The admission checks every entry point shares, in order: the
    /// `serve-admit` chaos point, draining, queue capacity, the tenant's
    /// breaker. On success nothing has been enqueued or started yet.
    fn admit(
        &self,
        tenant: &str,
        query: SelectQuery,
        opts: SubmitOptions,
    ) -> Result<Admitted<'_>, ServeError> {
        // Serve-admission chaos point: a panic here becomes a typed
        // admission error (nothing enqueued); an alloc-fail signal is
        // spurious overload, exercised below.
        let signal = match catch_unwind(|| fault::inject(FaultPoint::ServeAdmit)) {
            Ok(signal) => signal,
            Err(payload) => {
                return Err(ServeError::Engine(EngineError::Internal {
                    task: "serve admission".to_string(),
                    payload: payload_message(payload.as_ref()),
                }))
            }
        };
        // The budget clock starts at admission — queue wait is charged.
        let budget = opts.budget.map(Budget::starting_now);
        let mut state = self.ctx.shared.lock();
        if state.draining {
            return Err(ServeError::ShuttingDown);
        }
        if signal.alloc_fail || state.queued >= self.queue_capacity {
            state.rejected += 1;
            if amber_obs::obs_enabled() {
                serve_metrics().rejected.inc();
            }
            return Err(ServeError::Overloaded {
                capacity: self.queue_capacity,
                queued: state.queued,
                retry_after: state.retry_after(self.ctx.workers),
            });
        }
        // One `Arc<str>` per tenant, shared by the map key, the rotation
        // and the dispatch record.
        let tenant: Arc<str> = match state.tenants.get_key_value(tenant) {
            Some((existing, _)) => Arc::clone(existing),
            None => Arc::from(tenant),
        };
        let entry = state.tenants.entry(Arc::clone(&tenant)).or_default();
        // Breaker admission runs after the capacity check so a fast-fail
        // never consumes a queue slot and an overload never burns the
        // single half-open probe.
        let probe = if self.ctx.breaker.is_some() {
            match entry.breaker.admit(Instant::now()) {
                Admission::Admit => false,
                Admission::Probe => true,
                Admission::FastFail { cause, retry_after } => {
                    if amber_obs::obs_enabled() {
                        serve_metrics().fast_fails.inc();
                    }
                    return Err(ServeError::CircuitOpen { cause, retry_after });
                }
            }
        } else {
            false
        };
        Ok(Admitted {
            state,
            tenant,
            job: Job {
                query,
                admitted: Instant::now(),
                budget,
                timeout: opts.timeout,
                cancel: CancelToken::new(),
                probe,
                tracing: opts.tracing,
            },
        })
    }

    /// Queue an admitted request behind its tenant's earlier ones.
    fn enqueue(&self, admitted: Admitted<'_>) -> Ticket {
        let Admitted {
            mut state,
            tenant,
            job,
        } = admitted;
        let inner = Arc::<TicketInner>::default();
        let entry = state.tenants.entry(Arc::clone(&tenant)).or_default();
        let was_idle = entry.queue.is_empty() && !entry.busy;
        entry.queue.push_back(Request {
            job,
            ticket: Arc::clone(&inner),
        });
        state.queued += 1;
        if amber_obs::obs_enabled() {
            serve_metrics().queue_depth.set(state.queued as i64);
        }
        if was_idle {
            state.rotation.push_back(tenant);
        }
        drop(state);
        // One new rotation entry is one new possible dispatch: one worker.
        // (A tenant that was busy or already waiting gained none — its
        // next turn is announced by the completion that frees it.)
        if was_idle {
            self.ctx.shared.work_cv.notify_one();
        }
        Ticket { inner }
    }

    /// Pause dispatch: admitted requests queue up but are not started.
    /// In-flight requests finish normally.
    pub fn pause(&self) {
        self.ctx.shared.lock().paused = true;
    }

    /// Resume dispatch after [`Server::pause`] (or a paused start).
    pub fn resume(&self) {
        self.ctx.shared.lock().paused = false;
        self.ctx.shared.work_cv.notify_all();
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub fn queued(&self) -> usize {
        self.ctx.shared.lock().queued
    }

    /// Requests currently executing, on a worker or inline on a caller's
    /// thread (at most [`ServeConfig::workers`]).
    pub fn inflight(&self) -> usize {
        self.ctx.shared.lock().inflight
    }

    /// A consistent snapshot of the process-wide metrics registry —
    /// engine, cache, search, chaos, and serving-layer series —
    /// renderable as Prometheus text
    /// ([`render_prometheus`](amber_obs::MetricsSnapshot::render_prometheus))
    /// or JSON ([`render_json`](amber_obs::MetricsSnapshot::render_json)).
    /// Callable at any time, including mid-run; under `AMBER_OBS=off` the
    /// engine/serve series simply stay at zero. See
    /// `docs/observability.md` for the catalog.
    pub fn metrics_snapshot(&self) -> amber_obs::MetricsSnapshot {
        amber_obs::snapshot()
    }

    /// One tenant's rendered slow-query-log entries, oldest first (see
    /// [`ServeConfig::slow_query_threshold`]). Empty if the tenant is
    /// unknown, its session is mid-dispatch, or tracing is off.
    pub fn slow_query_log(&self, tenant: &str) -> Vec<String> {
        let state = self.ctx.shared.lock();
        state
            .tenants
            .get(tenant)
            .and_then(|t| t.session.as_ref())
            .map(|s| s.flight_recorder().slow_log().map(str::to_string).collect())
            .unwrap_or_default()
    }

    /// One tenant's most recent recorded span trace, rendered (see
    /// [`SubmitOptions::with_tracing`] and [`ServeConfig::trace`]). `None`
    /// if the tenant is unknown, its session is mid-dispatch, or nothing
    /// was traced. The completion-visibility contract applies: a trace of
    /// a request is readable as soon as its answer is.
    pub fn last_trace(&self, tenant: &str) -> Option<String> {
        let state = self.ctx.shared.lock();
        state
            .tenants
            .get(tenant)
            .and_then(|t| t.session.as_ref())
            .and_then(|s| s.flight_recorder().last())
            .map(|trace| trace.render())
    }

    /// Stop admission, serve everything already queued (resuming dispatch
    /// if paused), join the workers, and report. Every admitted ticket is
    /// completed before this returns.
    pub fn shutdown(mut self) -> ServeReport {
        self.drain();
        self.build_report()
    }

    /// Revoke instead of draining: stop admission, answer every *queued*
    /// request with [`ServeError::ShuttingDown`] without executing it,
    /// cancel in-flight requests through their [`CancelToken`]s (they
    /// complete with partial results and `QueryStatus::Cancelled`), join
    /// the workers, and report.
    pub fn shutdown_now(mut self) -> ServeReport {
        self.revoke();
        self.drain();
        self.build_report()
    }

    /// The revocation half of [`shutdown_now`](Self::shutdown_now):
    /// everything but joining the workers. `&self`, so it reaches a
    /// request executing inline on another thread's `execute` call.
    fn revoke(&self) {
        let revoked = {
            let mut state = self.ctx.shared.lock();
            state.draining = true;
            state.paused = false;
            let now = Instant::now();
            let mut revoked = Vec::new();
            for tenant in state.tenants.values_mut() {
                while let Some(request) = tenant.queue.pop_front() {
                    if request.job.probe {
                        // The probe never ran; let the next submission
                        // (of a restarted server sharing the breaker
                        // history — or simply the bookkeeping) re-probe.
                        tenant.breaker.probe_aborted(now);
                    }
                    revoked.push(request.ticket);
                }
                if let Some(cancel) = &tenant.inflight_cancel {
                    cancel.cancel();
                }
            }
            state.queued = 0;
            state.rotation.clear();
            if amber_obs::obs_enabled() {
                let m = serve_metrics();
                m.queue_depth.set(0);
                m.revoked.add(revoked.len() as u64);
            }
            revoked
        };
        self.ctx.shared.work_cv.notify_all();
        for ticket in revoked {
            answer(&ticket, Err(ServeError::ShuttingDown));
        }
    }

    /// Stop admission, let the workers serve what is queued, join them.
    /// Idempotent: `shutdown*` run it and so does `Drop` — a
    /// dropped-without-shutdown server still drains its backlog (every
    /// ticket is owed an answer).
    fn drain(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut state = self.ctx.shared.lock();
            state.draining = true;
            // A paused server still owes answers for its backlog.
            state.paused = false;
        }
        self.ctx.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn build_report(&self) -> ServeReport {
        let state = self.ctx.shared.lock();
        let mut tenants: Vec<TenantReport> = state
            .tenants
            .iter()
            .map(|(name, t)| TenantReport {
                tenant: name.to_string(),
                served: t.served,
                deadline_shed: t.shed,
                queries_executed: t.session.as_ref().map_or(0, |s| s.queries_executed()),
                plan_stats: t
                    .session
                    .as_ref()
                    .map(|s| s.plan_stats())
                    .unwrap_or_default(),
                search: t
                    .session
                    .as_ref()
                    .map(|s| s.search_stats())
                    .unwrap_or_default(),
                breaker: t.breaker.report(),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut aggregate = PlanCacheStats::default();
        for tenant in &tenants {
            // Gauges take the sum too: per-tenant caches are disjoint.
            aggregate.plans.merge(&tenant.plan_stats.plans);
            aggregate.results.merge(&tenant.plan_stats.results);
            aggregate.result_hit_copied_bytes += tenant.plan_stats.result_hit_copied_bytes;
        }
        ServeReport {
            rejected: state.rejected,
            deadline_shed: tenants.iter().map(|t| t.deadline_shed).sum(),
            breaker_trips: tenants.iter().map(|t| t.breaker.trips).sum(),
            breaker_fast_fails: tenants.iter().map(|t| t.breaker.fast_fails).sum(),
            internal_faults: state.internal_faults,
            drain_faults: state.drain_faults,
            governor: self.ctx.governor.as_ref().map(|g| g.report()),
            plan_stats: aggregate,
            dispatch_order: state
                .dispatch_order
                .iter()
                .flatten()
                .map(|t| t.to_string())
                .collect(),
            inline_dispatches: state.inline_dispatches,
            queued_dispatches: state.queued_dispatches,
            peak_inflight: state.peak_inflight,
            tenants,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Complete one ticket.
fn answer(ticket: &TicketInner, result: Result<QueryOutcome, ServeError>) {
    let mut slot = ticket.slot.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(result);
    drop(slot);
    ticket.done.notify_all();
}

/// How one completion moves the tenant's breaker.
enum BreakerVerdict {
    /// Successful completion: close.
    Success,
    /// Hard failure: count toward (or cause) a trip.
    Failure(TripCause),
    /// The server's own throttling (shed, cancelled, budget-exceeded) or
    /// a synchronous failure class the breaker ignores.
    Neutral,
}

fn classify(result: &Result<QueryOutcome, ServeError>) -> BreakerVerdict {
    match result {
        Ok(outcome) => match outcome.status {
            QueryStatus::Completed => BreakerVerdict::Success,
            QueryStatus::TimedOut => BreakerVerdict::Failure(TripCause::TimedOut),
            QueryStatus::Cancelled | QueryStatus::BudgetExceeded => BreakerVerdict::Neutral,
        },
        Err(ServeError::Engine(EngineError::Internal { .. })) => {
            BreakerVerdict::Failure(TripCause::Internal)
        }
        Err(_) => BreakerVerdict::Neutral,
    }
}

/// The request loop each serving worker runs: pick the next tenant off the
/// rotation, run its request, answer the ticket.
fn serve_loop(ctx: &DispatchContext) {
    while let Some((dispatch, ticket)) = acquire_dispatch(ctx) {
        answer(&ticket, run_dispatch(ctx, dispatch));
    }
    // Drain complete. The serve-drain chaos point injects panics into this
    // exit path; they are trapped and counted — the drain has already
    // answered every ticket and must finish.
    if catch_unwind(|| fault::inject(FaultPoint::ServeDrain)).is_err() {
        ctx.shared.lock().drain_faults += 1;
    }
}

/// Run one started request to completion on the calling thread — a worker
/// that took it off the rotation, or the submitter itself on
/// [`Server::execute`]'s inline path: shed or execute outside the lock,
/// hand the session back, settle every counter, and return the answer.
fn run_dispatch(ctx: &DispatchContext, dispatch: Dispatch) -> Result<QueryOutcome, ServeError> {
    let Dispatch {
        tenant,
        job,
        mut session,
        tenant_count,
    } = dispatch;

    // Deadline shed: a request whose budget expired before dispatch is
    // answered with the typed error and does ZERO engine work — no
    // session is created, no node is visited.
    let shed_as = job
        .budget
        .filter(|b| b.expired())
        .map(|b| ServeError::DeadlineExpired {
            budget: b.total(),
            waited: b.waited(),
        });
    let (result, service_ns) = match shed_as {
        Some(err) => (Err(err), None),
        None => {
            // Per-request options: the remaining admission budget and
            // the per-request timeout tighten the base timeout, the
            // governor quota tightens the memory budget, and the
            // cancel token makes the dispatch revocable. A
            // `serve-dispatch` alloc-fail signal zeroes the memory
            // budget — spurious exhaustion driving the degradation
            // ladder.
            let signal = match catch_unwind(|| fault::inject(FaultPoint::ServeDispatch)) {
                Ok(signal) => Ok(signal),
                Err(payload) => Err(ServeError::Engine(EngineError::Internal {
                    task: "serve dispatch".to_string(),
                    payload: payload_message(payload.as_ref()),
                })),
            };
            match signal {
                Err(err) => (Err(err), Some(0)),
                Ok(signal) => {
                    let mut options = ctx.options.clone();
                    if let Some(b) = job.budget {
                        options = options.tighten_timeout(b.remaining().unwrap_or(Duration::ZERO));
                    }
                    if let Some(limit) = job.timeout {
                        options = options.tighten_timeout(limit);
                    }
                    if let Some(governor) = &ctx.governor {
                        options = options.tighten_memory_budget(governor.quota(tenant_count));
                        governor.record_governed();
                    }
                    if signal.alloc_fail {
                        options = options.tighten_memory_budget(0);
                    }
                    options = options.with_cancel(job.cancel.clone());
                    let sess = session.get_or_insert_with(|| {
                        let mut sess = ctx.engine.create_session(&options);
                        if ctx.trace || ctx.slow_query_threshold.is_some() {
                            sess.configure_tracing(true, ctx.slow_query_threshold);
                        }
                        sess
                    });
                    // Per-request tracing ([`SubmitOptions::tracing`]):
                    // force the recorder on for this dispatch only and
                    // restore the session's own configuration after.
                    let restore_tracing = if job.tracing {
                        let (was_enabled, threshold) = sess.flight_recorder().config();
                        if !was_enabled {
                            sess.configure_tracing(true, threshold);
                        }
                        Some((was_enabled, threshold))
                    } else {
                        None
                    };
                    let started = Instant::now();
                    // Execute outside the serving lock — this is where
                    // concurrent tenants actually overlap. The engine
                    // quarantines its own panics into typed `Internal`
                    // errors; this trap catches the serving layer's.
                    let result = match catch_unwind(AssertUnwindSafe(|| {
                        ctx.engine.execute_in_session(&job.query, &options, sess)
                    })) {
                        Ok(r) => r.map_err(ServeError::Engine),
                        Err(payload) => Err(ServeError::Engine(EngineError::Internal {
                            task: "serve dispatch".to_string(),
                            payload: payload_message(payload.as_ref()),
                        })),
                    };
                    if let Some((was_enabled, threshold)) = restore_tracing {
                        sess.configure_tracing(was_enabled, threshold);
                    }
                    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    (result, Some(elapsed))
                }
            }
        }
    };

    // Completion-visibility contract (pinned by the
    // `counters_are_visible_before_the_answer` regression test and
    // documented in docs/observability.md): ALL bookkeeping for a
    // request — session hand-back, served/shed counts, breaker
    // movement, and the registry metrics fed from them — lands
    // BEFORE the result is published (returned to an inline caller,
    // `answer`ed to a ticket). A client that has its answer therefore
    // never observes a counter lagging its own request: the tenant is
    // ready for the next submission, a hard failure has already moved
    // the breaker, and a metrics snapshot taken afterwards includes
    // the request. (The engine-side registry flush happens even
    // earlier, inside `execute_in_session` itself.) The only serve-side
    // state that updates *outside* this pre-answer block is the
    // `retry_after` service-rate EWMA input ordering across threads — a
    // hint, not a counter.
    let mut state = ctx.shared.lock();
    state.inflight -= 1;
    if let Some(ns) = service_ns {
        state.service_ewma_ns = if state.service_ewma_ns == 0 {
            ns
        } else {
            (3 * state.service_ewma_ns + ns) / 4
        };
    }
    match state.tenants.get_mut(&tenant) {
        Some(entry) => {
            entry.session = session;
            entry.inflight_cancel = None;
            entry.busy = false;
            let obs = amber_obs::obs_enabled();
            if service_ns.is_some() {
                entry.served += 1;
                if obs {
                    serve_metrics().served.inc();
                }
            } else {
                entry.shed += 1;
                if obs {
                    serve_metrics().shed.inc();
                }
            }
            if let Some(cfg) = &ctx.breaker {
                let now = Instant::now();
                match classify(&result) {
                    BreakerVerdict::Success => entry.breaker.record_success(),
                    BreakerVerdict::Failure(cause) => {
                        let tripped = entry.breaker.record_failure(cfg, cause, now);
                        if tripped && obs {
                            serve_metrics().breaker_trips.inc();
                        }
                    }
                    BreakerVerdict::Neutral => {
                        if job.probe {
                            entry.breaker.probe_aborted(now);
                        }
                    }
                }
            }
            if !entry.queue.is_empty() {
                state.rotation.push_back(tenant);
            }
        }
        // Tenant state vanished (recovered lock poisoning): count
        // the invariant violation instead of panicking; the request
        // is still answered.
        None => state.internal_faults += 1,
    }
    // The freed slot is one possible dispatch, so one worker — and only
    // if somebody is waiting for a turn. A drain wakes everyone: workers
    // parked behind this tenant's backlog must see `queued` reach 0.
    let (draining, waiting) = (state.draining, !state.rotation.is_empty());
    drop(state);
    if draining {
        ctx.shared.work_cv.notify_all();
    } else if waiting {
        ctx.shared.work_cv.notify_one();
    }
    result
}

/// Block until a worker may start one request off the rotation (or the
/// drain completes: `None`).
fn acquire_dispatch(ctx: &DispatchContext) -> Option<(Dispatch, Arc<TicketInner>)> {
    let mut state = ctx.shared.lock();
    loop {
        if state.draining && state.queued == 0 {
            return None;
        }
        // `inflight` counts inline dispatches too: a worker that is itself
        // idle may still have to wait for an execution slot.
        if !state.paused && state.inflight < ctx.workers {
            if let Some(tenant) = state.rotation.pop_front() {
                // Poison-robust: a stale rotation entry (possible after a
                // recovered poisoned lock left state mid-mutation) is
                // counted and skipped, never unwrapped.
                let Some(request) = state
                    .tenants
                    .get_mut(&tenant)
                    .and_then(|entry| entry.queue.pop_front())
                else {
                    state.internal_faults += 1;
                    continue;
                };
                state.queued -= 1;
                let dispatch = state.begin_dispatch(tenant, request.job, false);
                return Some((dispatch, request.ticket));
            }
        }
        state = ctx
            .shared
            .work_cv
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Per-tenant slice of a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's identifier as passed to [`Server::submit`].
    pub tenant: String,
    /// Requests completed (including engine errors; admission rejections
    /// are *not* served and count in [`ServeReport::rejected`], deadline
    /// sheds count in [`deadline_shed`](Self::deadline_shed)).
    pub served: u64,
    /// Requests shed with [`ServeError::DeadlineExpired`] after their
    /// budget expired in the queue — answered, never executed.
    pub deadline_shed: u64,
    /// Queries the tenant's session actually executed (the zero-work
    /// assertion for shed requests: shed-only tenants report 0).
    pub queries_executed: u64,
    /// The tenant session's plan/result cache counters.
    pub plan_stats: PlanCacheStats,
    /// The tenant session's search counters (node visits, trapped
    /// panics, cancellations, memory-governor degradation steps).
    pub search: SearchStats,
    /// The tenant's circuit-breaker counters and final state.
    pub breaker: BreakerReport,
}

/// What a drained [`Server`] observed, returned by [`Server::shutdown`]
/// and [`Server::shutdown_now`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    /// Requests rejected at admission ([`ServeError::Overloaded`]).
    pub rejected: u64,
    /// Requests shed with [`ServeError::DeadlineExpired`] across all
    /// tenants.
    pub deadline_shed: u64,
    /// Circuit-breaker trips across all tenants.
    pub breaker_trips: u64,
    /// Submissions fast-failed with [`ServeError::CircuitOpen`] across
    /// all tenants.
    pub breaker_fast_fails: u64,
    /// Serving-layer invariant violations recovered instead of panicking.
    pub internal_faults: u64,
    /// `serve-drain` chaos panics trapped on the drain path.
    pub drain_faults: u64,
    /// Server-wide memory governance counters (`None` without
    /// [`ServeConfig::memory_budget`]).
    pub governor: Option<GovernorReport>,
    /// All tenants' plan/result cache counters summed — includes
    /// `result_hit_copied_bytes`, the zero-copy regression gauge.
    pub plan_stats: PlanCacheStats,
    /// Tenant of every dispatch in dispatch order, inline or queued
    /// (empty unless [`ServeConfig::record_dispatch`]).
    pub dispatch_order: Vec<String>,
    /// Requests that ran to completion on their submitter's thread
    /// ([`Server::execute`] on an uncontended server).
    pub inline_dispatches: u64,
    /// Requests a serving worker took off the rotation.
    pub queued_dispatches: u64,
    /// The most requests ever executing at once, inline and queued
    /// together — never above [`ServeConfig::workers`].
    pub peak_inflight: usize,
}

impl ServeReport {
    /// Total requests served across all tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|t| t.served).sum()
    }

    /// The served count of one tenant (0 if never seen).
    pub fn served_for(&self, tenant: &str) -> u64 {
        self.tenant(tenant).map_or(0, |t| t.served)
    }

    /// The deadline-shed count of one tenant (0 if never seen).
    pub fn shed_for(&self, tenant: &str) -> u64 {
        self.tenant(tenant).map_or(0, |t| t.deadline_shed)
    }

    /// One tenant's breaker counters (`None` if never seen).
    pub fn breaker_for(&self, tenant: &str) -> Option<BreakerReport> {
        self.tenant(tenant).map(|t| t.breaker)
    }

    fn tenant(&self, tenant: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_engine() -> Arc<AmberEngine> {
        let triples = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/c> <http://e/q> <http://e/a> .\n";
        Arc::new(AmberEngine::load_ntriples(triples).expect("demo graph parses"))
    }

    const CHAIN: &str = "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z . }";
    const EDGE: &str = "SELECT * WHERE { ?s <http://e/q> ?o . }";

    #[test]
    fn serves_multiple_tenants_correctly() {
        let engine = demo_engine();
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        let a = server.submit_sparql("a", CHAIN).unwrap();
        let b = server.submit_sparql("b", EDGE).unwrap();
        assert_eq!(a.wait().unwrap().embedding_count, 1);
        assert_eq!(b.wait().unwrap().embedding_count, 1);
        let report = server.shutdown();
        assert_eq!(report.served(), 2);
        assert_eq!(report.served_for("a"), 1);
        assert_eq!(report.served_for("b"), 1);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn overload_rejects_typed_with_depth_and_retry_hint() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                paused: true, // nothing dispatches: the queue must fill
                ..ServeConfig::default()
            },
        );
        let t1 = server.submit_sparql("a", CHAIN).unwrap();
        let t2 = server.submit_sparql("b", EDGE).unwrap();
        match server.submit_sparql("c", EDGE) {
            Err(ServeError::Overloaded {
                capacity,
                queued,
                retry_after,
            }) => {
                assert_eq!(capacity, 2);
                assert_eq!(queued, 2, "the observed depth rides along");
                // Paused server, no completions yet: the hint falls back
                // to 1 ms per request; 3 pending over 1 worker → 3 ms.
                assert_eq!(retry_after, Duration::from_millis(3));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        server.resume();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        let report = server.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.served(), 2);
        assert_eq!(report.served_for("c"), 0);
    }

    #[test]
    fn queue_expired_requests_shed_with_zero_engine_work() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                paused: true, // guarantee queue wait: the budget expires queued
                ..ServeConfig::default()
            },
        );
        let doomed = server
            .submit_sparql_with("a", CHAIN, SubmitOptions::new().with_budget(Duration::ZERO))
            .unwrap();
        let healthy = server.submit_sparql("b", EDGE).unwrap();
        server.resume();
        match doomed.wait() {
            Err(ServeError::DeadlineExpired { budget, waited: _ }) => {
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert_eq!(healthy.wait().unwrap().embedding_count, 1);
        let report = server.shutdown();
        assert_eq!(report.deadline_shed, 1);
        assert_eq!(report.shed_for("a"), 1);
        assert_eq!(report.served_for("a"), 0, "shed requests are not served");
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.queries_executed, 0, "a shed request executes nothing");
        assert_eq!(a.search.nodes, 0, "and visits zero nodes");
        let b = report.tenants.iter().find(|t| t.tenant == "b").unwrap();
        assert!(b.search.nodes > 0, "a served request does visit nodes");
    }

    #[test]
    fn remaining_budget_bounds_execution_as_a_timeout() {
        let engine = demo_engine();
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        // A generous budget dispatches normally and completes.
        let ok = server
            .submit_sparql_with(
                "a",
                CHAIN,
                SubmitOptions::new().with_budget(Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(ok.wait().unwrap().status, QueryStatus::Completed);
        // A zero per-request timeout dispatches but times out immediately
        // (deterministically: the deadline fires on its first poll). A
        // fresh tenant, so no warm result cache short-circuits execution.
        let slow = server
            .submit_sparql_with(
                "b",
                CHAIN,
                SubmitOptions::new().with_timeout(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(slow.wait().unwrap().status, QueryStatus::TimedOut);
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 1);
        assert_eq!(report.served_for("b"), 1);
        assert_eq!(report.deadline_shed, 0);
    }

    #[test]
    fn breaker_trips_fast_fails_and_isolates_tenants() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                breaker: Some(BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(3600),
                }),
                ..ServeConfig::default()
            },
        );
        // Two consecutive zero-timeout requests → two TimedOut outcomes →
        // the breaker trips (bookkeeping lands before the ticket answer,
        // so the order below is deterministic).
        for _ in 0..2 {
            let t = server
                .submit_sparql_with(
                    "a",
                    CHAIN,
                    SubmitOptions::new().with_timeout(Duration::ZERO),
                )
                .unwrap();
            assert_eq!(t.wait().unwrap().status, QueryStatus::TimedOut);
        }
        match server.submit_sparql("a", CHAIN) {
            Err(ServeError::CircuitOpen { cause, retry_after }) => {
                assert_eq!(cause, TripCause::TimedOut);
                assert!(retry_after <= Duration::from_secs(3600));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // The neighbor tenant is unaffected.
        let b = server.submit_sparql("b", EDGE).unwrap();
        assert_eq!(b.wait().unwrap().embedding_count, 1);
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_fast_fails, 1);
        let a = report.breaker_for("a").unwrap();
        assert_eq!(a.state, BreakerState::Open);
        assert_eq!(report.breaker_for("b").unwrap().state, BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_success_recloses_the_breaker() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                breaker: Some(BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::ZERO, // half-open on the next submit
                }),
                ..ServeConfig::default()
            },
        );
        let t = server
            .submit_sparql_with(
                "a",
                CHAIN,
                SubmitOptions::new().with_timeout(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(t.wait().unwrap().status, QueryStatus::TimedOut);
        // The zero cooldown admits the next submission as the probe; it
        // succeeds and the breaker closes again.
        let probe = server.submit_sparql("a", CHAIN).unwrap();
        assert_eq!(probe.wait().unwrap().status, QueryStatus::Completed);
        let report = server.shutdown();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.breaker_for("a").unwrap().state, BreakerState::Closed);
    }

    #[test]
    fn global_memory_budget_degrades_through_the_governor_ladder() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                memory_budget: Some(1), // 1 byte: every query walks the full ladder
                ..ServeConfig::default()
            },
        );
        let t = server.submit_sparql("a", CHAIN).unwrap();
        assert_eq!(t.wait().unwrap().status, QueryStatus::BudgetExceeded);
        let report = server.shutdown();
        let governor = report.governor.expect("governor configured");
        assert_eq!(governor.total_budget, 1);
        assert_eq!(governor.peak_tenants, 1);
        assert!(governor.governed_dispatches >= 1);
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert!(
            a.search.degradation_steps >= 1,
            "the quota drives the per-query ladder: {:?}",
            a.search
        );
    }

    #[test]
    fn shutdown_now_revokes_the_queue_typed() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                paused: true, // the backlog never dispatches
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| server.submit_sparql("a", CHAIN).unwrap())
            .collect();
        let report = server.shutdown_now();
        for ticket in tickets {
            assert!(matches!(ticket.wait(), Err(ServeError::ShuttingDown)));
        }
        assert_eq!(report.served(), 0, "nothing executed");
        assert_eq!(report.deadline_shed, 0);
    }

    #[test]
    fn dispatch_is_round_robin_across_tenants() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1, // one dispatcher → the order is deterministic
                paused: true,
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        // A heavy tenant piles up 3 requests before two light tenants
        // submit one each.
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(server.submit_sparql("heavy", CHAIN).unwrap());
        }
        tickets.push(server.submit_sparql("light-1", EDGE).unwrap());
        tickets.push(server.submit_sparql("light-2", EDGE).unwrap());
        server.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let report = server.shutdown();
        assert_eq!(
            report.dispatch_order,
            vec!["heavy", "light-1", "light-2", "heavy", "heavy"],
            "light tenants are served after ONE heavy request, not after its whole backlog"
        );
    }

    #[test]
    fn per_tenant_requests_complete_in_order() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
        );
        // Interleave two tenants' streams; each stream must come back in
        // submission order (tickets are redeemed in submission order and
        // each must be complete).
        let mut tickets = Vec::new();
        for _ in 0..10 {
            tickets.push(server.submit_sparql("a", CHAIN).unwrap());
            tickets.push(server.submit_sparql("b", EDGE).unwrap());
        }
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 10);
        assert_eq!(report.served_for("b"), 10);
    }

    #[test]
    fn failures_poison_only_their_ticket() {
        let engine = demo_engine();
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        // An unparseable query fails synchronously, nothing queued.
        assert!(matches!(
            server.submit_sparql("a", "SELECT nonsense"),
            Err(ServeError::Engine(_))
        ));
        // The tenant keeps serving.
        let ok = server.submit_sparql("a", CHAIN).unwrap();
        assert_eq!(ok.wait().unwrap().embedding_count, 1);
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 1);
    }

    #[test]
    fn shutdown_drains_a_paused_backlog() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                paused: true,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| server.submit_sparql("a", CHAIN).unwrap())
            .collect();
        // Never resumed: shutdown itself must serve the backlog.
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 5);
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "every admitted ticket is answered");
        }
    }

    #[test]
    fn warm_tenants_hit_their_result_cache_without_copying() {
        let engine = demo_engine();
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        for _ in 0..4 {
            server.submit_sparql("a", CHAIN).unwrap().wait().unwrap();
        }
        let report = server.shutdown();
        let stats = &report.plan_stats;
        assert!(stats.results.hits >= 3, "verbatim repeats hit: {stats:?}");
        assert_eq!(
            stats.result_hit_copied_bytes, 0,
            "result-cache hits must serve shared rows, not copies"
        );
    }

    /// Both ways to get an answer: redeem a ticket, or block in `execute`
    /// (inline on these idle servers).
    type Roundtrip = fn(&Server, &str, &str, SubmitOptions) -> Result<QueryOutcome, ServeError>;
    const VIA_TICKET: Roundtrip = |s, tenant, q, o| s.submit_sparql_with(tenant, q, o)?.wait();
    const VIA_EXECUTE: Roundtrip = |s, tenant, q, o| s.execute(tenant, q, o);

    #[test]
    fn counters_are_visible_before_the_answer() {
        // Regression test for the completion-visibility contract
        // documented in `run_dispatch`: every counter a request moves —
        // per-tenant served counts, breaker state, registry metrics —
        // is already readable when the answer is. A client never
        // observes bookkeeping lagging its own request.
        let _on = amber_obs::force_enabled(true);
        let served_handle =
            amber_obs::counter("amber_serve_requests_total", &[("outcome", "served")]);
        for roundtrip in [VIA_TICKET, VIA_EXECUTE] {
            let before = served_handle.get();
            let engine = demo_engine();
            let server = Server::start(
                Arc::clone(&engine),
                ServeConfig {
                    workers: 1,
                    breaker: Some(BreakerConfig {
                        failure_threshold: 1,
                        cooldown: Duration::from_secs(3600),
                    }),
                    ..ServeConfig::default()
                },
            );
            let timed_out = roundtrip(
                &server,
                "a",
                CHAIN,
                SubmitOptions::new().with_timeout(Duration::ZERO),
            );
            assert_eq!(timed_out.unwrap().status, QueryStatus::TimedOut);
            // The breaker moved BEFORE the answer, so the very next
            // request deterministically observes it open...
            assert!(matches!(
                roundtrip(&server, "a", CHAIN, SubmitOptions::new()),
                Err(ServeError::CircuitOpen { .. })
            ));
            // ...and the registry moved before the answer too (monotonic
            // counters: concurrent tests only ever add).
            assert!(
                served_handle.get() > before,
                "served counter must include the answered request"
            );
            assert!(amber_obs::counter("amber_serve_breaker_trips_total", &[]).get() >= 1);
            let report = server.shutdown();
            assert_eq!(report.breaker_trips, 1);
        }
    }

    #[test]
    fn slow_query_log_captures_the_span_tree() {
        let _on = amber_obs::force_enabled(true);
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                trace: true,
                slow_query_threshold: Some(Duration::ZERO), // log every query
                ..ServeConfig::default()
            },
        );
        server.submit_sparql("a", CHAIN).unwrap().wait().unwrap();
        // The session was handed back before the answer (same contract as
        // above), so the log is already readable.
        let log = server.slow_query_log("a");
        assert_eq!(log.len(), 1, "threshold ZERO logs every query");
        let entry = &log[0];
        assert!(entry.contains("execute"), "span tree missing: {entry}");
        assert!(entry.contains("component[0]"), "{entry}");
        assert!(entry.contains("caches:"), "{entry}");
        assert!(entry.contains("fingerprint 0x"), "{entry}");
        let report = server.shutdown();
        assert_eq!(report.served(), 1);
    }

    #[test]
    fn per_request_tracing_records_and_restores() {
        let _on = amber_obs::force_enabled(true);
        let engine = demo_engine();
        // Server-wide tracing OFF: only the traced request may record.
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.submit_sparql("a", CHAIN).unwrap().wait().unwrap();
        assert_eq!(
            server.last_trace("a"),
            None,
            "untraced requests must not record"
        );
        let t = server
            .submit_sparql_with("a", CHAIN, SubmitOptions::new().with_tracing(true))
            .unwrap();
        t.wait().unwrap();
        let trace = server.last_trace("a").expect("traced request recorded");
        assert!(
            trace.contains("select[3 vars]"),
            "span tree missing: {trace}"
        );
        // The knob is per-request: the next untraced request leaves the
        // ring untouched (the restore happened).
        server.submit_sparql("a", EDGE).unwrap().wait().unwrap();
        let after = server.last_trace("a").expect("ring still holds the trace");
        assert_eq!(
            after, trace,
            "tracing must have been restored off after the traced request"
        );
        server.shutdown();
    }

    #[test]
    fn serve_errors_fold_into_the_unified_taxonomy() {
        // Admission rejections → amber::Error with the shared wire
        // mapping, no serving-specific match arms needed downstream.
        let e: amber::Error = ServeError::Overloaded {
            capacity: 8,
            queued: 8,
            retry_after: Duration::from_millis(9),
        }
        .into();
        assert_eq!(e.status_code(), 503);
        assert_eq!(e.retry_after(), Some(Duration::from_millis(9)));

        let e: amber::Error = ServeError::CircuitOpen {
            cause: TripCause::TimedOut,
            retry_after: Duration::from_secs(2),
        }
        .into();
        assert_eq!(e.status_code(), 503);
        assert_eq!(e.retry_after(), Some(Duration::from_secs(2)));
        assert!(e.to_string().contains("timeouts") || e.to_string().contains("timed out"));

        let e: amber::Error = ServeError::DeadlineExpired {
            budget: Duration::from_millis(1),
            waited: Duration::from_millis(4),
        }
        .into();
        assert_eq!(e.status_code(), 504);
        assert_eq!(e.retry_after(), None);

        let e: amber::Error = ServeError::ShuttingDown.into();
        assert_eq!(e.status_code(), 503);

        let parse = amber_sparql::parse_select("nope").unwrap_err();
        let e: amber::Error = ServeError::Engine(EngineError::Sparql(parse)).into();
        assert_eq!(e.status_code(), 400);
    }

    /// A complete digraph on `n` vertices: the six-cycle below has ~n^6
    /// embeddings, none of them shareable through satellite counting — a
    /// request that stays in flight until something stops it.
    fn clique_engine(n: usize) -> Arc<AmberEngine> {
        let mut triples = String::new();
        for a in 0..n {
            for b in (0..n).filter(|b| *b != a) {
                triples.push_str(&format!("<http://k/n{a}> <http://k/p> <http://k/n{b}> .\n"));
            }
        }
        Arc::new(AmberEngine::load_ntriples(&triples).expect("clique parses"))
    }

    const SIX_CYCLE: &str = "SELECT * WHERE { ?a <http://k/p> ?b . ?b <http://k/p> ?c . \
        ?c <http://k/p> ?d . ?d <http://k/p> ?e . ?e <http://k/p> ?f . ?f <http://k/p> ?a . }";

    fn spin_until(mut ready: impl FnMut() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    fn queued_request(ticket: &Ticket) -> Request {
        Request {
            job: Job {
                query: amber_sparql::parse_select(EDGE).unwrap(),
                admitted: Instant::now(),
                budget: None,
                timeout: None,
                cancel: CancelToken::new(),
                probe: false,
                tracing: false,
            },
            ticket: Arc::clone(&ticket.inner),
        }
    }

    #[test]
    fn inline_needs_all_four_conditions() {
        let ticket = Ticket {
            inner: Arc::default(),
        };
        let idle = || {
            let mut state = DispatchState::default();
            state.tenants.insert(Arc::from("a"), TenantState::default());
            state
        };
        assert!(idle().can_run_inline("a", 2));
        assert!(idle().can_run_inline("never-seen", 2));

        let mut paused = idle();
        paused.paused = true;
        assert!(!paused.can_run_inline("a", 2));

        let mut busy = idle();
        busy.tenants.get_mut("a").unwrap().busy = true;
        assert!(!busy.can_run_inline("a", 2), "one request per session");
        assert!(busy.can_run_inline("b", 2), "other tenants are unaffected");

        let mut backlog = idle();
        let a = backlog.tenants.get_mut("a").unwrap();
        a.queue.push_back(queued_request(&ticket));
        assert!(!backlog.can_run_inline("a", 2), "per-tenant FIFO");

        let mut waiting = idle();
        waiting.rotation.push_back(Arc::from("b"));
        assert!(!waiting.can_run_inline("a", 2), "b's turn comes first");

        let mut full = idle();
        full.inflight = 2;
        assert!(!full.can_run_inline("a", 2), "workers bounds concurrency");
        assert!(full.can_run_inline("a", 3));
    }

    #[test]
    fn execute_on_an_idle_server_runs_inline() {
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        for (tenant, query) in [("a", CHAIN), ("b", EDGE), ("a", EDGE), ("a", CHAIN)] {
            let outcome = server.execute(tenant, query, SubmitOptions::new()).unwrap();
            assert_eq!(outcome.embedding_count, 1);
            assert_eq!(
                server.inflight(),
                0,
                "the slot is free once the answer is out"
            );
        }
        // Parse errors are synchronous here too, and dispatch nothing.
        assert!(matches!(
            server.execute("a", "SELECT nonsense", SubmitOptions::new()),
            Err(ServeError::Engine(_))
        ));
        // `submit` keeps its contract: a ticket now, a worker later.
        server.submit_sparql("a", EDGE).unwrap().wait().unwrap();
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 4);
        assert_eq!(report.queued_dispatches, 1);
        assert_eq!(report.dispatch_order, vec!["a", "b", "a", "a", "a"]);
        assert_eq!(report.served_for("a"), 4);
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.queries_executed, 4, "both paths share the one session");
    }

    #[test]
    fn a_zero_budget_execute_is_shed_inline_with_zero_engine_work() {
        let server = Server::start(demo_engine(), ServeConfig::default());
        match server.execute("a", CHAIN, SubmitOptions::new().with_budget(Duration::ZERO)) {
            Err(ServeError::DeadlineExpired { budget, .. }) => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 1, "shed on the caller's thread");
        assert_eq!(report.deadline_shed, 1);
        assert_eq!(report.served_for("a"), 0);
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.queries_executed, 0, "a shed request executes nothing");
        assert_eq!(a.search.nodes, 0, "and visits zero nodes");
    }

    #[test]
    fn execute_never_overtakes_a_paused_or_queued_request() {
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                // One worker answers ticket n before it dispatches n + 1.
                workers: 1,
                paused: true,
                ..ServeConfig::default()
            },
        );
        let earlier = server.submit_sparql("a", CHAIN).unwrap();
        std::thread::scope(|scope| {
            let later = scope.spawn(|| {
                let outcome = server.execute("a", EDGE, SubmitOptions::new()).unwrap();
                let earlier_answered = earlier
                    .inner
                    .slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some();
                (outcome, earlier_answered)
            });
            // Paused, and behind a's own backlog: it must queue.
            spin_until(|| server.queued() == 2);
            assert_eq!(server.inflight(), 0);
            server.resume();
            let (outcome, earlier_answered) = later.join().unwrap();
            assert_eq!(outcome.embedding_count, 1);
            assert!(
                earlier_answered,
                "per-tenant FIFO: the queued request first"
            );
        });
        earlier.wait().unwrap();
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 0);
        assert_eq!(report.queued_dispatches, 2);
    }

    #[test]
    fn workers_bounds_inline_and_queued_execution_together() {
        const CLIENTS: usize = 8;
        const PER_CLIENT: usize = 40;
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                workers: 2,
                // Every request executes, so requests really do overlap.
                options: ExecOptions::batch().with_result_cache(0),
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let server = &server;
                scope.spawn(move || {
                    let tenant = format!("client-{client}");
                    for i in 0..PER_CLIENT {
                        let query = if i % 2 == 0 { CHAIN } else { EDGE };
                        let outcome = server.execute(&tenant, query, SubmitOptions::new());
                        assert_eq!(outcome.unwrap().embedding_count, 1);
                    }
                });
            }
        });
        let report = server.shutdown();
        let total = (CLIENTS * PER_CLIENT) as u64;
        assert_eq!(report.served(), total);
        assert_eq!(report.inline_dispatches + report.queued_dispatches, total);
        assert!(
            report.inline_dispatches >= 1,
            "the first request met an idle server"
        );
        assert!(
            (1..=2).contains(&report.peak_inflight),
            "{} requests executed at once with workers: 2",
            report.peak_inflight
        );
    }

    #[test]
    fn shutdown_now_cancels_a_request_running_inline() {
        let server = Server::start(
            clique_engine(30),
            ServeConfig {
                // Count-only: the cycle's embeddings are never materialized.
                options: ExecOptions::batch().counting(),
                ..ServeConfig::default()
            },
        );
        let outcome = std::thread::scope(|scope| {
            // The timeout only bounds the test should the cancel be lost.
            let opts = SubmitOptions::new().with_timeout(Duration::from_secs(60));
            let caller = scope.spawn(|| server.execute("a", SIX_CYCLE, opts));
            spin_until(|| server.inflight() == 1);
            // `shutdown_now` minus the join: it consumes the server, which
            // the borrow held by the in-flight `execute` rules out.
            server.revoke();
            caller.join().unwrap()
        });
        assert_eq!(outcome.unwrap().status, QueryStatus::Cancelled);
        assert!(matches!(
            server.execute("a", EDGE, SubmitOptions::new()),
            Err(ServeError::ShuttingDown)
        ));
        let report = server.shutdown_now();
        assert_eq!(report.inline_dispatches, 1);
        assert_eq!(report.queued_dispatches, 0);
        assert_eq!(
            report.served_for("a"),
            1,
            "a cancelled partial is an answer"
        );
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.search.cancellations, 1);
    }

    #[test]
    fn five_thousand_tenants_later_a_repeat_still_finds_its_own_key() {
        const TENANTS: usize = 5_000;
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                workers: 1,
                queue_capacity: TENANTS + 1,
                paused: true,
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        let mut tickets: Vec<Ticket> = (0..TENANTS)
            .map(|t| server.submit_sparql(&format!("tenant-{t}"), EDGE).unwrap())
            .collect();
        tickets.push(server.submit_sparql("tenant-17", CHAIN).unwrap());
        server.resume();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        {
            let state = server.ctx.shared.lock();
            assert_eq!(
                state.tenants.len(),
                TENANTS,
                "the repeat made no new tenant"
            );
            let (key, _) = state.tenants.get_key_value("tenant-17").unwrap();
            let dispatched: Vec<&Arc<str>> = state
                .dispatch_order
                .iter()
                .flatten()
                .filter(|t| ***t == *"tenant-17")
                .collect();
            assert_eq!(dispatched.len(), 2);
            assert!(
                dispatched.iter().all(|t| Arc::ptr_eq(t, key)),
                "both dispatches carry the map's own Arc, not a re-interned copy"
            );
        }
        let report = server.shutdown();
        let repeat = report
            .tenants
            .iter()
            .find(|t| t.tenant == "tenant-17")
            .unwrap();
        assert_eq!(repeat.served, 2);
        assert_eq!(repeat.queries_executed, 2, "one session served both");
    }
}
