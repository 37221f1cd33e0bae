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
//!   a private [`QuerySession`] (search arenas and a result cache). A
//!   tenant's requests are serialized onto its session — sessions are `&mut` state — while different tenants'
//!   requests run in parallel, at most [`ServeConfig::workers`] at once
//!   — the only parallelism there is: one query runs on one thread;
//! * **admission control** — the server holds at most
//!   [`ServeConfig::queue_capacity`] queued requests; beyond that,
//!   [`Server::submit_sparql`] fails *immediately* with the typed
//!   [`Error::Overloaded`] — carrying the observed queue depth and a
//!   retry-after hint derived from the recent service rate — instead of
//!   buffering unboundedly or blocking the client;
//! * **deadline propagation** — [`Server::submit_sparql_with`] and
//!   [`Server::execute`] accept a total
//!   admission-to-answer budget ([`SubmitOptions::budget`]); queue wait is
//!   charged against it, a request whose budget expires while still queued
//!   is shed with the typed [`Error::DeadlineExpired`] *without any
//!   engine work*, and only the *remaining* budget is handed to the
//!   engine as its execution timeout;
//! * **panic and failure isolation** — a query that fails (or panics; the
//!   engine quarantines panics into typed
//!   [`EngineError::Internal`](amber::EngineError) values) poisons only
//!   its own [`Ticket`]; the tenant's session and every other tenant keep
//!   serving. The serving loop itself is also a chaos surface: the
//!   `serve-admit`, `serve-dispatch` and `serve-drain` fault points
//!   (`AMBER_CHAOS`, see `amber_util::fault`) inject panics and delays
//!   into admission, dispatch and drain (and, at admission, spurious
//!   allocation failures that reject as overload), and all serving-layer
//!   locks recover from poisoning
//!   (`PoisonError::into_inner`) rather than propagating it;
//! * **graceful drain** — [`Server::shutdown`] stops admission, serves
//!   everything already queued, joins the workers, and returns a
//!   [`ServeReport`] with per-tenant served and shed counts,
//!   and the aggregated result-cache statistics. A request's deadline
//!   is the only thing that ends it early.
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

use amber::{
    AmberEngine, CacheStats, CompiledQuery, EngineError, Error, ExecOptions, QueryOutcome,
    QueryRequest, QuerySession,
};
use amber_obs::{Counter, Gauge, Histogram};
use amber_util::fault::{self, payload_message, FaultPoint};
use amber_util::timing::Budget;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer registry handles, resolved once per process.
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
    })
}

/// Publish what the engine's offline stage cost and what it left resident
/// (the paper's Table 5) as `amber_offline_stage_us{stage}` and
/// `amber_resident_bytes{part}`. The engine is immutable, so the gauges are
/// set once, when a server starts serving it.
fn export_offline_stats(engine: &AmberEngine) {
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
    /// [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Record the tenant of every dispatch, in order, for the
    /// [`ServeReport`] — the observable fairness is asserted on this.
    pub record_dispatch: bool,
    /// Execution options for every request; their
    /// `result_cache_capacity` also sizes each tenant's session result
    /// cache, once, when the session is created. Defaults to
    /// [`ExecOptions::batch`] (result cache on — a serving deployment is
    /// exactly the repeated-query workload it exists for).
    pub options: ExecOptions,
    /// Enable each tenant session's flight recorder: per-query span
    /// traces (parse → plan → per-component search → materialize) retained
    /// in a bounded ring. See `docs/observability.md`.
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
            record_dispatch: false,
            options: ExecOptions::batch(),
            trace: false,
            slow_query_threshold: None,
        }
    }
}

/// Per-request submission options ([`Server::submit_sparql_with`],
/// [`Server::execute`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Total admission-to-answer budget. Queue wait is charged against
    /// it: a request still queued when the budget expires is shed with
    /// [`Error::DeadlineExpired`] (zero engine work), and a request
    /// that dispatches hands only the *remaining* budget to the engine as
    /// its execution timeout, tightening (never loosening) the
    /// server-wide [`ServeConfig::options`] timeout.
    pub budget: Option<Duration>,
    /// Force the tenant session's flight recorder on for this one request
    /// (span tree retained in the session's trace ring), even when the
    /// server-wide [`ServeConfig::trace`] is off. The session's tracing
    /// configuration is restored after the request.
    pub tracing: bool,
}

impl SubmitOptions {
    /// Options with no budget and no forced tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the total admission-to-answer [`budget`](Self::budget).
    pub fn with_budget(mut self, total: Duration) -> Self {
        self.budget = Some(total);
        self
    }

    /// Set per-request [`tracing`](Self::tracing).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }
}

/// One accepted request's completion slot.
#[derive(Default)]
struct TicketInner {
    slot: Mutex<Option<Result<QueryOutcome, Error>>>,
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
    /// since drain serves the whole backlog before the workers exit.
    pub fn wait(self) -> Result<QueryOutcome, Error> {
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
    /// The query, compiled against the served engine at admission.
    query: CompiledQuery,
    /// Admission instant — the `amber_serve_queue_wait_us` observation is
    /// `dispatch − admitted`.
    admitted: Instant,
    /// The admission-to-answer budget, clocked from admission.
    budget: Option<Budget>,
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
    /// Requests shed with [`Error::DeadlineExpired`] (never
    /// executed, not counted in `served`).
    shed: u64,
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

    /// Move `job` from admitted to executing: mark the tenant busy, take
    /// the tenant's session, claim an execution slot. `inline` says
    /// which path dispatched it (a queued job has already left its
    /// tenant's queue and `queued`).
    fn begin_dispatch(&mut self, tenant: Arc<str>, job: Job, inline: bool) -> Dispatch {
        let entry = self.tenants.entry(Arc::clone(&tenant)).or_default();
        entry.busy = true;
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
        let m = serve_metrics();
        m.queue_depth.set(self.queued as i64);
        m.queue_wait_us.observe(wait_us);
        if inline {
            m.inline_dispatches.inc();
        } else {
            m.queued_dispatches.inc();
        }
        if let Some(order) = &mut self.dispatch_order {
            order.push(Arc::clone(&tenant));
        }
        Dispatch {
            tenant,
            job,
            session,
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
    trace: bool,
    slow_query_threshold: Option<Duration>,
}

/// One request that has started executing (see
/// [`DispatchState::begin_dispatch`]).
struct Dispatch {
    tenant: Arc<str>,
    job: Job,
    session: Option<QuerySession>,
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
    /// Spawn the serving workers and start accepting requests. To build a
    /// backlog before anything dispatches, call [`Server::pause`] before
    /// the first submission.
    pub fn start(engine: Arc<AmberEngine>, config: ServeConfig) -> Self {
        export_offline_stats(&engine);
        let ctx = Arc::new(DispatchContext {
            engine,
            shared: ServerShared {
                state: Mutex::new(DispatchState {
                    dispatch_order: config.record_dispatch.then(Vec::new),
                    ..DispatchState::default()
                }),
                work_cv: Condvar::new(),
            },
            options: config.options,
            workers: config.workers.max(1),
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

    /// Compile SPARQL text and submit it for `tenant` with default
    /// [`SubmitOptions`] (no budget). Returns a
    /// [`Ticket`] immediately on admission; rejects with the typed
    /// [`Error::Overloaded`] without enqueueing anything. Parse errors are
    /// reported synchronously (nothing is enqueued for them). Requests of
    /// one tenant complete in submission order; requests of different
    /// tenants are scheduled round-robin.
    pub fn submit_sparql(&self, tenant: &str, sparql: &str) -> Result<Ticket, Error> {
        self.submit_sparql_with(tenant, sparql, SubmitOptions::default())
    }

    /// [`submit_sparql`](Self::submit_sparql) with per-request lifecycle
    /// options: a total admission-to-answer budget and/or forced tracing.
    pub fn submit_sparql_with(
        &self,
        tenant: &str,
        sparql: &str,
        opts: SubmitOptions,
    ) -> Result<Ticket, Error> {
        let query = self.ctx.engine.compile(sparql)?;
        Ok(self.enqueue(self.admit(tenant, query, opts)?))
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
    ) -> Result<QueryOutcome, Error> {
        let query = self.ctx.engine.compile(sparql)?;
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
    /// `serve-admit` chaos point, draining, queue capacity. On success
    /// nothing has been enqueued or started yet.
    fn admit(
        &self,
        tenant: &str,
        query: CompiledQuery,
        opts: SubmitOptions,
    ) -> Result<Admitted<'_>, Error> {
        // Serve-admission chaos point: a panic here becomes a typed
        // admission error (nothing enqueued); an alloc-fail signal is
        // spurious overload, exercised below.
        let signal = match catch_unwind(|| fault::inject(FaultPoint::ServeAdmit)) {
            Ok(signal) => signal,
            Err(payload) => {
                return Err(Error::Engine(EngineError::Internal {
                    task: "serve admission".to_string(),
                    payload: payload_message(payload.as_ref()),
                }))
            }
        };
        // The budget clock starts at admission — queue wait is charged.
        let budget = opts.budget.map(Budget::starting_now);
        let mut state = self.ctx.shared.lock();
        if state.draining {
            return Err(Error::ShuttingDown);
        }
        if signal.alloc_fail || state.queued >= self.queue_capacity {
            state.rejected += 1;
            serve_metrics().rejected.inc();
            return Err(Error::Overloaded {
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
        Ok(Admitted {
            state,
            tenant,
            job: Job {
                query,
                admitted: Instant::now(),
                budget,
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
        serve_metrics().queue_depth.set(state.queued as i64);
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

    /// Stop admission, let the workers serve what is queued, join them.
    /// Idempotent: `shutdown` runs it and so does `Drop` — a
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
                result_stats: t
                    .session
                    .as_ref()
                    .map(|s| s.result_stats())
                    .unwrap_or_default(),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut aggregate = CacheStats::default();
        for tenant in &tenants {
            aggregate.merge(&tenant.result_stats);
        }
        ServeReport {
            rejected: state.rejected,
            deadline_shed: tenants.iter().map(|t| t.deadline_shed).sum(),
            internal_faults: state.internal_faults,
            drain_faults: state.drain_faults,
            result_stats: aggregate,
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
fn answer(ticket: &TicketInner, result: Result<QueryOutcome, Error>) {
    let mut slot = ticket.slot.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(result);
    drop(slot);
    ticket.done.notify_all();
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
fn run_dispatch(ctx: &DispatchContext, dispatch: Dispatch) -> Result<QueryOutcome, Error> {
    let Dispatch {
        tenant,
        job,
        mut session,
    } = dispatch;

    // Deadline shed: a request whose budget expired before dispatch is
    // answered with the typed error and does ZERO engine work — no
    // session is created, no node is visited.
    let shed_as = job
        .budget
        .filter(|b| b.expired())
        .map(|b| Error::DeadlineExpired {
            budget: b.total(),
            waited: b.waited(),
        });
    let (result, service_ns) = match shed_as {
        Some(err) => (Err(err), None),
        None => {
            // Per-request options: the remaining admission budget
            // tightens the base timeout.
            match catch_unwind(|| fault::inject(FaultPoint::ServeDispatch)) {
                Err(payload) => (
                    Err(Error::Engine(EngineError::Internal {
                        task: "serve dispatch".to_string(),
                        payload: payload_message(payload.as_ref()),
                    })),
                    Some(0),
                ),
                Ok(_) => {
                    let mut options = ctx.options.clone();
                    if let Some(b) = job.budget {
                        options = options.tighten_timeout(b.remaining().unwrap_or(Duration::ZERO));
                    }
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
                    let request = QueryRequest::compiled(&job.query).with_options(options);
                    let result = match catch_unwind(AssertUnwindSafe(|| {
                        ctx.engine.run_in(&request, sess)
                    })) {
                        Ok(r) => r,
                        Err(payload) => Err(Error::Engine(EngineError::Internal {
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
    // request — session hand-back, served/shed counts, and the
    // registry metrics fed from them — lands BEFORE the result is
    // published (returned to an inline caller, `answer`ed to a ticket).
    // A client that has its answer therefore never observes a counter
    // lagging its own request: the tenant is ready for the next
    // submission, and a metrics snapshot taken afterwards includes the
    // request. (The engine counts its own series even earlier,
    // inside `run_in`, where each event happens.) The only serve-side
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
            entry.busy = false;
            if service_ns.is_some() {
                entry.served += 1;
                serve_metrics().served.inc();
            } else {
                entry.shed += 1;
                serve_metrics().shed.inc();
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
    /// The tenant's identifier as passed to [`Server::submit_sparql`] or
    /// [`Server::execute`].
    pub tenant: String,
    /// Requests completed (including engine errors; admission rejections
    /// are *not* served and count in [`ServeReport::rejected`], deadline
    /// sheds count in [`deadline_shed`](Self::deadline_shed)).
    pub served: u64,
    /// Requests shed with [`Error::DeadlineExpired`] after their
    /// budget expired in the queue — answered, never executed.
    pub deadline_shed: u64,
    /// Queries the tenant's session actually executed (the zero-work
    /// assertion for shed requests: shed-only tenants report 0).
    pub queries_executed: u64,
    /// The tenant session's result-cache counters.
    pub result_stats: CacheStats,
}

/// What a drained [`Server`] observed, returned by [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    /// Requests rejected at admission ([`Error::Overloaded`]).
    pub rejected: u64,
    /// Requests shed with [`Error::DeadlineExpired`] across all
    /// tenants.
    pub deadline_shed: u64,
    /// Serving-layer invariant violations recovered instead of panicking.
    pub internal_faults: u64,
    /// `serve-drain` chaos panics trapped on the drain path.
    pub drain_faults: u64,
    /// All tenants' result-cache counters summed.
    pub result_stats: CacheStats,
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

    fn tenant(&self, tenant: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber::QueryStatus;

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
                ..ServeConfig::default()
            },
        );
        server.pause(); // nothing dispatches: the queue must fill
        let t1 = server.submit_sparql("a", CHAIN).unwrap();
        let t2 = server.submit_sparql("b", EDGE).unwrap();
        match server.submit_sparql("c", EDGE) {
            Err(Error::Overloaded {
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
                ..ServeConfig::default()
            },
        );
        server.pause(); // guarantee queue wait: the budget expires queued
        let doomed = server
            .submit_sparql_with("a", CHAIN, SubmitOptions::new().with_budget(Duration::ZERO))
            .unwrap();
        let healthy = server.submit_sparql("b", EDGE).unwrap();
        server.resume();
        match doomed.wait() {
            Err(Error::DeadlineExpired { budget, waited: _ }) => {
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
        let b = report.tenants.iter().find(|t| t.tenant == "b").unwrap();
        assert_eq!(b.queries_executed, 1, "a served request does execute");
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
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 1);
        assert_eq!(report.deadline_shed, 0);
        // A zero server-wide timeout dispatches but times out immediately
        // (deterministically: the deadline fires on its first poll); a
        // generous budget tightens it no further.
        let server = Server::start(
            engine,
            ServeConfig {
                options: ExecOptions::batch().with_timeout(Duration::ZERO),
                ..ServeConfig::default()
            },
        );
        let slow = server
            .submit_sparql_with(
                "b",
                CHAIN,
                SubmitOptions::new().with_budget(Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(slow.wait().unwrap().status, QueryStatus::TimedOut);
        let report = server.shutdown();
        assert_eq!(report.served_for("b"), 1);
        assert_eq!(report.deadline_shed, 0);
    }

    #[test]
    fn dispatch_is_round_robin_across_tenants() {
        let engine = demo_engine();
        let server = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1, // one dispatcher → the order is deterministic
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        server.pause();
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
            Err(Error::Engine(_))
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
        let server = Server::start(Arc::clone(&engine), ServeConfig::default());
        server.pause();
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
        let outcomes: Vec<QueryOutcome> = (0..4)
            .map(|_| server.submit_sparql("a", CHAIN).unwrap().wait().unwrap())
            .collect();
        let report = server.shutdown();
        let stats = &report.result_stats;
        assert!(stats.hits >= 3, "verbatim repeats hit: {stats:?}");
        for repeat in &outcomes[1..] {
            assert!(
                repeat.bindings.shares_rows(&outcomes[0].bindings),
                "result-cache hits must serve shared rows, not copies"
            );
        }
    }

    /// Both ways to get an answer: redeem a ticket, or block in `execute`
    /// (inline on these idle servers).
    type Roundtrip = fn(&Server, &str, &str, SubmitOptions) -> Result<QueryOutcome, Error>;
    const VIA_TICKET: Roundtrip = |s, tenant, q, o| s.submit_sparql_with(tenant, q, o)?.wait();
    const VIA_EXECUTE: Roundtrip = |s, tenant, q, o| s.execute(tenant, q, o);

    #[test]
    fn counters_are_visible_before_the_answer() {
        // Regression test for the completion-visibility contract
        // documented in `run_dispatch`: every counter a request moves —
        // per-tenant served and shed counts, the session hand-back,
        // registry metrics — is already readable when the answer is. A
        // client never observes bookkeeping lagging its own request.
        let served_handle =
            amber_obs::counter("amber_serve_requests_total", &[("outcome", "served")]);
        let shed_handle = amber_obs::counter("amber_serve_requests_total", &[("outcome", "shed")]);
        // (served, shed, busy, session held) of one tenant, read under the
        // serving lock.
        let tenant_state = |server: &Server, tenant: &str| {
            let state = server.ctx.shared.lock();
            let t = &state.tenants[tenant];
            (t.served, t.shed, t.busy, t.session.is_some())
        };
        for roundtrip in [VIA_TICKET, VIA_EXECUTE] {
            let server = Server::start(
                demo_engine(),
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
            );
            let shed_before = shed_handle.get();
            let shed = roundtrip(
                &server,
                "a",
                CHAIN,
                SubmitOptions::new().with_budget(Duration::ZERO),
            );
            assert!(matches!(shed, Err(Error::DeadlineExpired { .. })));
            // The shed is counted and the tenant is idle again; it never
            // executed, so there is no session to hand back yet.
            assert_eq!(tenant_state(&server, "a"), (0, 1, false, false));
            // The registry moved before the answer too (monotonic
            // counters: concurrent tests only ever add).
            assert!(
                shed_handle.get() > shed_before,
                "shed counter must include the answered request"
            );

            let served_before = served_handle.get();
            let healthy = roundtrip(&server, "a", CHAIN, SubmitOptions::new());
            assert_eq!(healthy.unwrap().status, QueryStatus::Completed);
            assert_eq!(
                tenant_state(&server, "a"),
                (1, 1, false, true),
                "served counted and the session handed back before the answer"
            );
            assert_eq!(server.inflight(), 0, "the slot is free too");
            assert!(
                served_handle.get() > served_before,
                "served counter must include the answered request"
            );
            let report = server.shutdown();
            assert_eq!(report.deadline_shed, 1);
            assert_eq!(report.served_for("a"), 1);
        }
    }

    #[test]
    fn slow_query_log_captures_the_span_tree() {
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

    fn spin_until(mut ready: impl FnMut() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    fn queued_request(ticket: &Ticket) -> Request {
        Request {
            job: Job {
                query: demo_engine().compile(EDGE).unwrap(),
                admitted: Instant::now(),
                budget: None,
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
            Err(Error::Engine(_))
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
            Err(Error::DeadlineExpired { budget, .. }) => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 1, "shed on the caller's thread");
        assert_eq!(report.deadline_shed, 1);
        assert_eq!(report.served_for("a"), 0);
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(a.queries_executed, 0, "a shed request executes nothing");
    }

    #[test]
    fn execute_never_overtakes_a_paused_or_queued_request() {
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                // One worker answers ticket n before it dispatches n + 1.
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.pause();
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
    fn five_thousand_tenants_later_a_repeat_still_finds_its_own_key() {
        const TENANTS: usize = 5_000;
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                workers: 1,
                queue_capacity: TENANTS + 1,
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        server.pause();
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
