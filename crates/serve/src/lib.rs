#![warn(missing_docs)]
//! A concurrent, multi-tenant serving layer over one shared
//! [`AmberEngine`].
//!
//! The paper's engine answers one query at a time; a serving deployment
//! multiplexes many client streams onto one in-memory graph. This crate is
//! the thin, dependency-free layer that makes that safe and fair — an
//! in-process queue, **no async runtime and no threads of its own**. A
//! request runs on a thread that is blocked waiting for an answer. A turn
//! is the front request of the round-robin rotation, and whoever is
//! waiting when it comes up takes it: the thread that waits on that
//! request runs it; if another thread waits on it, everyone else sleeps;
//! if nobody waits on it yet, any waiting thread runs it for its ticket.
//! [`Server::execute`] admits its request already waited on and takes its
//! turns in the same lock hold, so its request only ever runs on its own
//! thread:
//!
//! * **shared engine, per-tenant sessions** — all tenants execute against
//!   one [`AmberEngine`] (one graph, one index set), but each tenant owns
//!   a private [`QuerySession`] (search arenas and a result cache). A
//!   tenant's requests are serialized onto its session — sessions are `&mut` state — while different tenants'
//!   requests run in parallel on their waiters' threads, at most
//!   [`ServeConfig::workers`] at once — the only parallelism there is: one
//!   query runs on one thread;
//! * **admission control** — the server holds at most
//!   [`ServeConfig::queue_capacity`] queued requests; beyond that,
//!   [`Server::submit_sparql`] fails *immediately* with the typed
//!   [`Error::Overloaded`] — carrying the observed queue depth and a
//!   retry-after hint derived from the recent service rate — instead of
//!   buffering unboundedly or blocking the client;
//! * **deadline propagation** — [`Server::submit_sparql_with`] and
//!   [`Server::execute`] accept a total admission-to-answer `budget`;
//!   queue wait is charged against it, a request whose budget expires
//!   while still queued is shed with the typed [`Error::DeadlineExpired`]
//!   *without any engine work*, and only the *remaining* budget is handed
//!   to the engine as its execution timeout, tightening (never loosening)
//!   the server-wide [`ServeConfig::options`] timeout;
//! * **panic and failure isolation** — a query that fails (or panics; the
//!   engine quarantines panics into typed
//!   [`EngineError::Internal`](amber::EngineError) values) poisons only
//!   its own answer; the tenant's session and every other tenant keep
//!   serving. The serving layer itself is also a chaos surface: the
//!   `serve-admit`, `serve-dispatch` and `serve-drain` fault points
//!   (`AMBER_CHAOS`, see `amber_util::fault`) inject panics and delays
//!   into admission, dispatch and the shutdown drain (and, at admission,
//!   spurious allocation failures that reject as overload), and all
//!   serving-layer locks recover from poisoning
//!   (`PoisonError::into_inner`) rather than propagating it;
//! * **graceful drain** — [`Server::shutdown`] stops admission, runs every
//!   request whose ticket nobody has redeemed, waits for the ones in
//!   flight, and returns a [`ServeReport`] with per-tenant served and shed
//!   counts, and the aggregated result-cache statistics. A request's
//!   deadline is the only thing that ends it early.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Serving-layer registry handles, resolved once per process.
struct ServeMetrics {
    /// `amber_serve_queue_depth` — admitted-not-yet-dispatched requests
    /// (mirrors `DispatchState::queued`; updated under the serving lock).
    queue_depth: Arc<Gauge>,
    /// `amber_serve_queue_wait_us` — admission-to-dispatch wait, one
    /// observation per dispatch.
    queue_wait_us: Arc<Histogram>,
    /// `amber_serve_dispatches_total{path}` — dispatches run by the thread
    /// waiting on them vs. ones run for a ticket nobody was waiting on.
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
    /// The bound on requests executing at once (clamped to at least 1).
    /// The server starts no threads: a request runs on the thread that
    /// waits for it ([`Ticket::wait`], [`Server::execute`]), and at most
    /// this many such threads run a request at a time. There is no
    /// parallelism *within* a query.
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
    /// Slow-query threshold. `Some(_)` turns on each tenant session's
    /// flight recorder (per-query span traces: parse → plan →
    /// per-component search → materialize, see `docs/observability.md`),
    /// and a query whose wall time reaches the threshold renders its span
    /// tree into the session's slow-query log, read back through
    /// [`Server::slow_query_log`] (`Some(Duration::ZERO)` logs every
    /// query). `None` records nothing.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            record_dispatch: false,
            options: ExecOptions::batch(),
            slow_query_threshold: None,
        }
    }
}

/// One admitted request's completion slot, and whether a thread waits on
/// it (see [`DispatchState::take_turn`]).
struct TicketInner {
    /// The answer, once the request has run. Written and taken under the
    /// dispatch lock.
    answer: Mutex<Option<Result<QueryOutcome, Error>>>,
    /// A thread is blocked in [`Ticket::wait`] or [`Server::execute`] on
    /// this request, so its turn is that thread's to run. Written and read
    /// only under the dispatch lock, which orders every access: `Relaxed`
    /// suffices.
    waited: AtomicBool,
}

impl TicketInner {
    fn slot(&self) -> MutexGuard<'_, Option<Result<QueryOutcome, Error>>> {
        self.answer.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to one accepted request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    core: Arc<Core>,
    inner: Arc<TicketInner>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("completed", &self.inner.slot().is_some())
            .finish()
    }
}

impl Ticket {
    /// Block until the request completes and take its result. The calling
    /// thread runs the request itself when its turn comes, and meanwhile
    /// runs the turns ahead of it that nobody waits on — so an unredeemed
    /// ticket never holds up a redeemed one. The request may also have run
    /// already, for this ticket, on a thread that waited on a later one.
    /// Each accepted request completes exactly once — even across
    /// shutdown, which runs every turn nobody redeemed.
    pub fn wait(self) -> Result<QueryOutcome, Error> {
        let state = self.core.lock();
        self.inner.waited.store(true, Ordering::Relaxed);
        self.core.wait_for(state, &self.inner)
    }
}

/// One admitted request's work — everything a dispatch needs except
/// where the answer goes.
struct Job {
    /// The query, compiled against the served engine at admission.
    query: CompiledQuery,
    /// Admission instant — the `amber_serve_queue_wait_us` observation is
    /// `dispatch − admitted`.
    admitted: Instant,
    /// The admission-to-answer budget, clocked from admission.
    budget: Option<Budget>,
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
    /// Requests executing right now. Never exceeds
    /// [`ServeConfig::workers`]: a turn is only taken below it.
    inflight: usize,
    /// High-water mark of `inflight`.
    peak_inflight: usize,
    /// Dispatches run by the thread waiting on them / run for a ticket
    /// nobody was waiting on (by another ticket's waiter or the drain).
    inline_dispatches: u64,
    queued_dispatches: u64,
    /// Threads asleep on [`Core::turn`]; nothing is signalled while 0.
    sleepers: usize,
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
    /// `serve-drain` chaos panics trapped by the shutdown drain.
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

    /// Take a turn for a thread blocked on `own` (`None` for the drain),
    /// if an execution slot is free, and start its request: the tenant
    /// turns busy, its session moves to the caller, the slot is claimed.
    /// The turn is the front request of the rotation's front tenant:
    ///
    /// * `own`'s request: the caller runs it;
    /// * a request another thread waits on: no turn — that thread runs it;
    /// * any other request (its ticket not redeemed yet, or dropped): the
    ///   caller runs it for that ticket.
    ///
    /// Returns the started request and, unless it is `own`'s, the ticket
    /// its answer goes to.
    fn take_turn(
        &mut self,
        own: Option<&TicketInner>,
        workers: usize,
    ) -> Option<(Dispatch, Option<Arc<TicketInner>>)> {
        if self.inflight >= workers {
            return None;
        }
        let entry = loop {
            let tenant = self.rotation.front()?;
            // Poison-robust: a stale rotation entry (possible after a
            // recovered poisoned lock left state mid-mutation) is counted
            // and dropped, never unwrapped.
            match self.tenants.get_mut(tenant).filter(|t| !t.queue.is_empty()) {
                Some(entry) => break entry,
                None => {
                    self.rotation.pop_front();
                    self.internal_faults += 1;
                }
            }
        };
        let ticket = &entry.queue[0].ticket;
        let mine = own.is_some_and(|o| std::ptr::eq(o, &**ticket));
        if !mine && ticket.waited.load(Ordering::Relaxed) {
            return None;
        }
        // Start the request: mark the tenant busy, take its session, claim
        // an execution slot.
        let request = entry.queue.pop_front()?;
        entry.busy = true;
        let session = entry.session.take();
        let tenant = self.rotation.pop_front()?;
        self.queued -= 1;
        self.inflight += 1;
        self.peak_inflight = self.peak_inflight.max(self.inflight);
        let m = serve_metrics();
        if mine {
            self.inline_dispatches += 1;
            m.inline_dispatches.inc();
        } else {
            self.queued_dispatches += 1;
            m.queued_dispatches.inc();
        }
        m.queue_depth.set(self.queued as i64);
        m.queue_wait_us
            .observe(request.job.admitted.elapsed().as_micros() as u64);
        if let Some(order) = &mut self.dispatch_order {
            order.push(Arc::clone(&tenant));
        }
        let dispatch = Dispatch {
            tenant,
            job: request.job,
            session,
        };
        Some((dispatch, (!mine).then_some(request.ticket)))
    }
}

/// What a server and its tickets share: the engine, the dispatch state
/// and the knobs a turn needs.
struct Core {
    engine: Arc<AmberEngine>,
    state: Mutex<DispatchState>,
    /// Wakes threads asleep in [`Core::wait_for`] or the drain: a turn was
    /// taken, a request finished. Only signalled while someone sleeps.
    turn: Condvar,
    options: ExecOptions,
    /// [`ServeConfig::workers`], clamped to at least 1: the bound on
    /// concurrently executing requests.
    workers: usize,
    queue_capacity: usize,
    slow_query_threshold: Option<Duration>,
}

/// One request that has started executing (see
/// [`DispatchState::take_turn`]).
struct Dispatch {
    tenant: Arc<str>,
    job: Job,
    session: Option<QuerySession>,
}

/// What one [`Core::step`] leaves: the lock, held again, and the result of
/// the request of the ticket the step was taken for, if it ran it.
type Step<'a> = (
    MutexGuard<'a, DispatchState>,
    Option<Result<QueryOutcome, Error>>,
);

impl Core {
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Signal the threads asleep on [`Core::turn`], if there are any.
    fn wake(&self, state: &DispatchState) {
        if state.sleepers > 0 {
            self.turn.notify_all();
        }
    }

    /// Block until `own`'s request has its answer, taking turns meanwhile
    /// ([`Ticket::wait`] and [`Server::execute`]). `state` is the lock,
    /// held since `own` was marked waited.
    fn wait_for<'a>(
        &'a self,
        mut state: MutexGuard<'a, DispatchState>,
        own: &TicketInner,
    ) -> Result<QueryOutcome, Error> {
        loop {
            if let Some(result) = own.slot().take() {
                return result;
            }
            let (next, mine) = self.step(state, Some(own));
            if let Some(result) = mine {
                return result;
            }
            state = next;
        }
    }

    /// One step of a thread blocked on `own` (`None`: the drain): run the
    /// front turn if [`DispatchState::take_turn`] gives it one — returning
    /// the result if it was `own`'s, answering its ticket otherwise — or
    /// sleep until a turn is taken or a request finishes.
    fn step<'a>(
        &'a self,
        mut state: MutexGuard<'a, DispatchState>,
        own: Option<&TicketInner>,
    ) -> Step<'a> {
        let Some((dispatch, ticket)) = state.take_turn(own, self.workers) else {
            state.sleepers += 1;
            let mut state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.sleepers -= 1;
            return (state, None);
        };
        // The rotation moved: a sleeper may own the next turn.
        self.wake(&state);
        drop(state);
        let (state, result) = self.run_dispatch(dispatch);
        let mine = match ticket {
            Some(ticket) => {
                *ticket.slot() = Some(result);
                None
            }
            None => Some(result),
        };
        // A slot is free, and a sleeper's answer may be in.
        self.wake(&state);
        (state, mine)
    }

    /// Run one started request to completion on the calling thread: shed
    /// or execute outside the lock, then retake the lock, hand the session
    /// back and settle every counter. Returns the lock, still held, with
    /// the answer.
    fn run_dispatch(
        &self,
        dispatch: Dispatch,
    ) -> (MutexGuard<'_, DispatchState>, Result<QueryOutcome, Error>) {
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
            None => match catch_unwind(|| fault::inject(FaultPoint::ServeDispatch)) {
                Err(payload) => (
                    Err(Error::Engine(EngineError::Internal {
                        task: "serve dispatch".to_string(),
                        payload: payload_message(payload.as_ref()),
                    })),
                    Some(0),
                ),
                Ok(_) => {
                    // Per-request options: the remaining admission budget
                    // tightens the base timeout.
                    let mut options = self.options.clone();
                    if let Some(b) = job.budget {
                        options = options.tighten_timeout(b.remaining().unwrap_or(Duration::ZERO));
                    }
                    let sess = session.get_or_insert_with(|| {
                        let mut sess = self.engine.create_session(&options);
                        if self.slow_query_threshold.is_some() {
                            sess.configure_tracing(true, self.slow_query_threshold);
                        }
                        sess
                    });
                    let started = Instant::now();
                    // Execute outside the serving lock — this is where
                    // concurrent tenants actually overlap. The engine
                    // quarantines its own panics into typed `Internal`
                    // errors; this trap catches the serving layer's.
                    let request = QueryRequest::compiled(&job.query).with_options(options);
                    let result =
                        match catch_unwind(AssertUnwindSafe(|| self.engine.run_in(&request, sess)))
                        {
                            Ok(r) => r,
                            Err(payload) => Err(Error::Engine(EngineError::Internal {
                                task: "serve dispatch".to_string(),
                                payload: payload_message(payload.as_ref()),
                            })),
                        };
                    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    (result, Some(elapsed))
                }
            },
        };

        // Completion-visibility contract (pinned by the
        // `counters_are_visible_before_the_answer` regression test and
        // documented in docs/observability.md): ALL bookkeeping for a
        // request — session hand-back, served/shed counts, and the
        // registry metrics fed from them — lands BEFORE the result is
        // published (returned to the waiter that ran it, or stored in its
        // ticket, both under this lock). A client that has its answer
        // therefore never observes a counter lagging its own request: the
        // tenant is ready for the next submission, and a metrics snapshot
        // taken afterwards includes the request. (The engine counts its own
        // series even earlier, inside `run_in`, where each event happens.)
        let mut state = self.lock();
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
        (state, result)
    }
}

/// A running serving layer over one shared engine. Submission is `&self`
/// (share the server across client threads with `std::thread::scope` or an
/// `Arc`); shutdown consumes the server, so no submission can race the
/// drain.
pub struct Server {
    core: Arc<Core>,
}

impl Server {
    /// Start accepting requests. No thread is started: a request runs when
    /// a thread waits for it, so tickets submitted and not yet redeemed
    /// form a backlog.
    pub fn start(engine: Arc<AmberEngine>, config: ServeConfig) -> Self {
        export_offline_stats(&engine);
        let core = Core {
            engine,
            state: Mutex::new(DispatchState {
                dispatch_order: config.record_dispatch.then(Vec::new),
                ..DispatchState::default()
            }),
            turn: Condvar::new(),
            options: config.options,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity,
            slow_query_threshold: config.slow_query_threshold,
        };
        Self {
            core: Arc::new(core),
        }
    }

    /// Compile SPARQL text and submit it for `tenant`, with no budget.
    /// Returns a [`Ticket`] immediately on admission; rejects with the
    /// typed [`Error::Overloaded`] without enqueueing anything. Parse
    /// errors are reported synchronously (nothing is enqueued for them).
    /// Requests of one tenant complete in submission order; requests of
    /// different tenants are scheduled round-robin.
    pub fn submit_sparql(&self, tenant: &str, sparql: &str) -> Result<Ticket, Error> {
        self.submit_sparql_with(tenant, sparql, None)
    }

    /// [`submit_sparql`](Self::submit_sparql) with a total
    /// admission-to-answer `budget` (see the crate docs).
    pub fn submit_sparql_with(
        &self,
        tenant: &str,
        sparql: &str,
        budget: Option<Duration>,
    ) -> Result<Ticket, Error> {
        let (state, inner) = self.admit(tenant, sparql, budget, false)?;
        drop(state);
        Ok(Ticket {
            core: Arc::clone(&self.core),
            inner,
        })
    }

    /// Submit and wait in one blocking call, for a caller that has nothing
    /// else to do until the answer (a connection thread). The request is
    /// admitted already waited on, and the wait starts in the same lock
    /// hold, so no other thread ever runs it: it runs on the calling
    /// thread when its turn comes.
    pub fn execute(
        &self,
        tenant: &str,
        sparql: &str,
        budget: Option<Duration>,
    ) -> Result<QueryOutcome, Error> {
        let (state, own) = self.admit(tenant, sparql, budget, true)?;
        self.core.wait_for(state, &own)
    }

    /// Compile `sparql` and queue it behind `tenant`'s earlier requests,
    /// marked `waited` if the caller waits on it at once. The admission
    /// checks, in order: the `serve-admit` chaos point, draining, queue
    /// capacity. Returns the lock, still held, and the request's ticket.
    fn admit(
        &self,
        tenant: &str,
        sparql: &str,
        budget: Option<Duration>,
        waited: bool,
    ) -> Result<(MutexGuard<'_, DispatchState>, Arc<TicketInner>), Error> {
        let query = self.core.engine.compile(sparql)?;
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
        let budget = budget.map(Budget::starting_now);
        let mut state = self.core.lock();
        if state.draining {
            return Err(Error::ShuttingDown);
        }
        let capacity = self.core.queue_capacity;
        if signal.alloc_fail || state.queued >= capacity {
            state.rejected += 1;
            serve_metrics().rejected.inc();
            return Err(Error::Overloaded {
                capacity,
                queued: state.queued,
                retry_after: state.retry_after(self.core.workers),
            });
        }
        // One `Arc<str>` per tenant, shared by the map key, the rotation
        // and the dispatch record.
        let tenant: Arc<str> = match state.tenants.get_key_value(tenant) {
            Some((existing, _)) => Arc::clone(existing),
            None => Arc::from(tenant),
        };
        let inner = Arc::new(TicketInner {
            answer: Mutex::new(None),
            waited: AtomicBool::new(waited),
        });
        let entry = state.tenants.entry(Arc::clone(&tenant)).or_default();
        let was_idle = entry.queue.is_empty() && !entry.busy;
        entry.queue.push_back(Request {
            job: Job {
                query,
                admitted: Instant::now(),
                budget,
            },
            ticket: Arc::clone(&inner),
        });
        state.queued += 1;
        serve_metrics().queue_depth.set(state.queued as i64);
        // A tenant that was busy or already waiting gets its next turn
        // when the request ahead of this one finishes.
        if was_idle {
            state.rotation.push_back(tenant);
        }
        Ok((state, inner))
    }

    /// Requests currently executing (at most [`ServeConfig::workers`]).
    pub fn inflight(&self) -> usize {
        self.core.lock().inflight
    }

    /// One tenant's rendered slow-query-log entries, oldest first (see
    /// [`ServeConfig::slow_query_threshold`]). Empty if the tenant is
    /// unknown, its session is mid-dispatch, or tracing is off.
    pub fn slow_query_log(&self, tenant: &str) -> Vec<String> {
        let state = self.core.lock();
        state
            .tenants
            .get(tenant)
            .and_then(|t| t.session.as_ref())
            .map(|s| s.flight_recorder().slow_log().map(str::to_string).collect())
            .unwrap_or_default()
    }

    /// Stop admission, run every turn nobody redeemed, wait for the
    /// requests in flight, and report. Every admitted ticket is completed
    /// before this returns.
    pub fn shutdown(self) -> ServeReport {
        self.drain();
        self.build_report()
    }

    /// Stop admission and run what is left: the turns whose tickets nobody
    /// waits on run here, waited ones on their waiters. Runs once: the
    /// first of `shutdown` and `Drop` does it — a dropped-without-shutdown
    /// server still answers its backlog (every ticket is owed an answer).
    fn drain(&self) {
        let core = &*self.core;
        let mut state = core.lock();
        if state.draining {
            return;
        }
        state.draining = true;
        while state.queued > 0 || state.inflight > 0 {
            state = core.step(state, None).0;
        }
        drop(state);
        // The serve-drain chaos point injects panics here; they are trapped
        // and counted — the drain has already answered every ticket.
        if catch_unwind(|| fault::inject(FaultPoint::ServeDrain)).is_err() {
            core.lock().drain_faults += 1;
        }
    }

    fn build_report(&self) -> ServeReport {
        let state = self.core.lock();
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
    /// `serve-drain` chaos panics trapped by the shutdown drain.
    pub drain_faults: u64,
    /// All tenants' result-cache counters summed.
    pub result_stats: CacheStats,
    /// Tenant of every dispatch in dispatch order, inline or queued
    /// (empty unless [`ServeConfig::record_dispatch`]).
    pub dispatch_order: Vec<String>,
    /// Requests run by the thread waiting on them ([`Ticket::wait`],
    /// [`Server::execute`]).
    pub inline_dispatches: u64,
    /// Requests run for a ticket nobody was waiting on: by a thread waiting
    /// on another request, or by the shutdown drain.
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
    fn start_spawns_no_serving_thread() {
        let server = Server::start(demo_engine(), ServeConfig::default());
        server.submit_sparql("a", CHAIN).unwrap().wait().unwrap();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return; // no procfs: nothing to list
        };
        for task in tasks.flatten() {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            assert!(
                !name.starts_with("amber-serve-"),
                "a serving thread is running: {name}"
            );
        }
        server.shutdown();
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
        // Nothing runs until a ticket is redeemed: the queue must fill.
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
                // No completions yet: the hint falls back to 1 ms per
                // request; 3 pending over 1 worker → 3 ms.
                assert_eq!(retry_after, Duration::from_millis(3));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
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
        let doomed = server
            .submit_sparql_with("a", CHAIN, Some(Duration::ZERO))
            .unwrap();
        let healthy = server.submit_sparql("b", EDGE).unwrap();
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
            .submit_sparql_with("a", CHAIN, Some(Duration::from_secs(60)))
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
            .submit_sparql_with("b", CHAIN, Some(Duration::from_secs(60)))
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
                workers: 1,
                record_dispatch: true,
                ..ServeConfig::default()
            },
        );
        // A heavy tenant piles up 3 requests before two light tenants
        // submit one each; one thread then redeems them in submission
        // order. Redeeming heavy's second ticket runs the light tenants'
        // turns first: nobody waits on them, and they are ahead of it.
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(server.submit_sparql("heavy", CHAIN).unwrap());
        }
        tickets.push(server.submit_sparql("light-1", EDGE).unwrap());
        tickets.push(server.submit_sparql("light-2", EDGE).unwrap());
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let report = server.shutdown();
        assert_eq!(
            report.dispatch_order,
            vec!["heavy", "light-1", "light-2", "heavy", "heavy"],
            "light tenants are served after ONE heavy request, not after its whole backlog"
        );
        assert_eq!(
            report.inline_dispatches, 3,
            "each heavy ticket by its waiter"
        );
        assert_eq!(report.queued_dispatches, 2, "the light ones for nobody");
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
    fn shutdown_and_drop_run_tickets_nobody_redeemed() {
        let server = Server::start(demo_engine(), ServeConfig::default());
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| server.submit_sparql("a", CHAIN).unwrap())
            .collect();
        // Never redeemed: shutdown itself must run the backlog.
        let report = server.shutdown();
        assert_eq!(report.served_for("a"), 5);
        assert_eq!(report.queued_dispatches, 5);
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "every admitted ticket is answered");
        }

        // So must a server dropped without `shutdown`.
        let server = Server::start(demo_engine(), ServeConfig::default());
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| server.submit_sparql(&format!("t{i}"), EDGE).unwrap())
            .collect();
        drop(server);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().embedding_count, 1);
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

    /// Both ways to get an answer: redeem a ticket, or block in `execute`.
    type Roundtrip = fn(&Server, &str, &str, Option<Duration>) -> Result<QueryOutcome, Error>;
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
            let state = server.core.lock();
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
            let shed = roundtrip(&server, "a", CHAIN, Some(Duration::ZERO));
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
            let healthy = roundtrip(&server, "a", CHAIN, None);
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

    /// Take one turn as a thread blocked on `own` would (`None`: the
    /// drain), run it, answer its ticket, and name its tenant.
    fn take(server: &Server, own: Option<&Ticket>) -> Option<String> {
        let mut state = server.core.lock();
        let (dispatch, ticket) = state.take_turn(own.map(|t| &*t.inner), server.core.workers)?;
        drop(state);
        let tenant = dispatch.tenant.to_string();
        let (_state, result) = server.core.run_dispatch(dispatch);
        let ticket = ticket.or_else(|| own.map(|t| Arc::clone(&t.inner)));
        *ticket.expect("a turn answers some ticket").slot() = Some(result);
        Some(tenant)
    }

    #[test]
    fn a_turn_is_taken_by_its_waiter_or_for_a_ticket_nobody_waits_on() {
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let elsewhere = |tenant: &str| {
            std::thread::scope(|s| {
                s.spawn(|| server.submit_sparql(tenant, EDGE).unwrap())
                    .join()
                    .unwrap()
            })
        };
        let here = |tenant: &str| server.submit_sparql(tenant, EDGE).unwrap();

        // Unredeemed tickets run in rotation order, whichever thread
        // submitted them.
        let x = elsewhere("x");
        let (y, z) = (here("y"), here("z"));
        assert_eq!(
            take(&server, Some(&z)).as_deref(),
            Some("x"),
            "x runs in rotation order"
        );
        assert_eq!(take(&server, Some(&z)).as_deref(), Some("y"));
        assert_eq!(take(&server, Some(&z)).as_deref(), Some("z"));
        assert_eq!(take(&server, Some(&z)), None, "nothing is queued");
        // The drain takes the same turns.
        let w = elsewhere("w");
        assert_eq!(take(&server, None).as_deref(), Some("w"));

        // A turn somebody waits on stops the search: it is theirs to run.
        let (b, c) = (here("b"), here("c"));
        b.inner.waited.store(true, Ordering::Relaxed);
        assert_eq!(take(&server, Some(&c)), None);
        assert_eq!(take(&server, None), None);
        assert_eq!(take(&server, Some(&b)).as_deref(), Some("b"));
        assert_eq!(take(&server, Some(&c)).as_deref(), Some("c"));

        // Per-tenant FIFO: the request ahead of ours in our tenant's queue
        // is run first, by us.
        let d1 = elsewhere("d");
        let d2 = here("d");
        assert_eq!(take(&server, Some(&d2)).as_deref(), Some("d"));
        assert!(d1.inner.slot().is_some(), "the earlier request ran");
        assert_eq!(take(&server, Some(&d2)).as_deref(), Some("d"));

        // A dropped ticket is run like any other.
        drop(elsewhere("e"));
        let f = here("f");
        assert_eq!(take(&server, Some(&f)).as_deref(), Some("e"));

        // No free slot, no turn.
        server.core.lock().inflight = 1;
        assert_eq!(take(&server, Some(&f)), None, "workers bounds concurrency");
        server.core.lock().inflight = 0;
        assert_eq!(take(&server, Some(&f)).as_deref(), Some("f"));

        for ticket in [x, y, z, w, b, c, d1, d2, f] {
            assert_eq!(ticket.wait().unwrap().embedding_count, 1);
        }
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 5, "z, b, c, d2, f");
        assert_eq!(report.queued_dispatches, 5, "x, y, w, d1, e");
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
            let outcome = server.execute(tenant, query, None).unwrap();
            assert_eq!(outcome.embedding_count, 1);
            assert_eq!(
                server.inflight(),
                0,
                "the slot is free once the answer is out"
            );
        }
        // Parse errors are synchronous here too, and dispatch nothing.
        assert!(matches!(
            server.execute("a", "SELECT nonsense", None),
            Err(Error::Engine(_))
        ));
        // A ticket redeemed at once runs on its waiter just the same.
        server.submit_sparql("a", EDGE).unwrap().wait().unwrap();
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 5);
        assert_eq!(report.queued_dispatches, 0);
        assert_eq!(report.dispatch_order, vec!["a", "b", "a", "a", "a"]);
        assert_eq!(report.served_for("a"), 4);
        let a = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert_eq!(
            a.queries_executed, 4,
            "every request shares the one session"
        );
    }

    #[test]
    fn a_zero_budget_execute_is_shed_inline_with_zero_engine_work() {
        let server = Server::start(demo_engine(), ServeConfig::default());
        match server.execute("a", CHAIN, Some(Duration::ZERO)) {
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
    fn execute_never_overtakes_a_queued_request() {
        let server = Server::start(
            demo_engine(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let earlier = server.submit_sparql("a", CHAIN).unwrap();
        std::thread::scope(|scope| {
            let later = scope.spawn(|| {
                let outcome = server.execute("a", EDGE, None).unwrap();
                (outcome, earlier.inner.slot().is_some())
            });
            let (outcome, earlier_answered) = later.join().unwrap();
            assert_eq!(outcome.embedding_count, 1);
            assert!(
                earlier_answered,
                "per-tenant FIFO: the queued request first"
            );
        });
        assert_eq!(earlier.wait().unwrap().embedding_count, 1);
        let report = server.shutdown();
        assert_eq!(report.inline_dispatches, 1);
        assert_eq!(
            report.queued_dispatches, 1,
            "run for nobody, by the later caller"
        );
    }

    #[test]
    fn workers_bounds_inline_and_queued_execution_together() {
        const CLIENTS: usize = 8;
        const PER_CLIENT: usize = 40;
        // Every client a tenant of its own, then 8 clients on 2 tenants,
        // where each tenant's requests queue behind one another.
        for tenants in [CLIENTS, 2] {
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
                        let tenant = format!("tenant-{}", client % tenants);
                        for i in 0..PER_CLIENT {
                            let query = if i % 2 == 0 { CHAIN } else { EDGE };
                            let outcome = server.execute(&tenant, query, None);
                            assert_eq!(outcome.unwrap().embedding_count, 1);
                        }
                    });
                }
            });
            let report = server.shutdown();
            let total = (CLIENTS * PER_CLIENT) as u64;
            assert_eq!(report.served(), total);
            assert_eq!(report.inline_dispatches, total);
            assert_eq!(
                report.queued_dispatches, 0,
                "{tenants} tenants: every request runs on its own client's thread"
            );
            assert!(
                (1..=2).contains(&report.peak_inflight),
                "{} requests executed at once with workers: 2",
                report.peak_inflight
            );
        }
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
        let mut tickets: Vec<Ticket> = (0..TENANTS)
            .map(|t| server.submit_sparql(&format!("tenant-{t}"), EDGE).unwrap())
            .collect();
        tickets.push(server.submit_sparql("tenant-17", CHAIN).unwrap());
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        {
            let state = server.core.lock();
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
