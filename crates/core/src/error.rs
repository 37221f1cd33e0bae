//! Engine error type, plus the unified top-level [`Error`] taxonomy.

use amber_multigraph::query_graph::QueryGraphError;
use amber_sparql::SparqlError;
use rdf_model::{NtParseError, TurtleParseError};
use std::fmt;
use std::time::Duration;

/// Anything that can go wrong preparing or executing a query.
///
/// Note that *data-dependent emptiness* (a query mentioning IRIs absent from
/// the data) is **not** an error — it yields an empty
/// [`QueryOutcome`](crate::QueryOutcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The SPARQL text failed to parse (or uses unsupported operators).
    Sparql(SparqlError),
    /// The N-Triples input failed to parse.
    NtParse(NtParseError),
    /// The Turtle input failed to parse.
    Turtle(TurtleParseError),
    /// The query AST is malformed (variable predicate, literal subject…).
    QueryGraph(QueryGraphError),
    /// A prepared plan was executed against an engine other than the one
    /// it was prepared on (plans embed data-dependent seed candidates and
    /// constraint lists, so they never transfer).
    StalePlan,
    /// The engine panicked during execution and the panic was quarantined:
    /// it poisoned only this query (the session and engine stay usable).
    /// `task` names the execution context that trapped the payload.
    Internal {
        /// Which execution context trapped the panic (e.g. `sequential
        /// matcher`, `query execution`).
        task: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sparql(e) => e.fmt(f),
            EngineError::NtParse(e) => e.fmt(f),
            EngineError::Turtle(e) => e.fmt(f),
            EngineError::QueryGraph(e) => e.fmt(f),
            EngineError::StalePlan => {
                write!(
                    f,
                    "prepared plan belongs to a different engine (re-prepare it)"
                )
            }
            EngineError::Internal { task, payload } => {
                write!(
                    f,
                    "internal error: {task} panicked (quarantined): {payload}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Sparql(e) => Some(e),
            EngineError::NtParse(e) => Some(e),
            EngineError::Turtle(e) => Some(e),
            EngineError::QueryGraph(e) => Some(e),
            EngineError::StalePlan | EngineError::Internal { .. } => None,
        }
    }
}

impl From<SparqlError> for EngineError {
    fn from(e: SparqlError) -> Self {
        EngineError::Sparql(e)
    }
}

impl From<NtParseError> for EngineError {
    fn from(e: NtParseError) -> Self {
        EngineError::NtParse(e)
    }
}

impl From<TurtleParseError> for EngineError {
    fn from(e: TurtleParseError) -> Self {
        EngineError::Turtle(e)
    }
}

impl From<QueryGraphError> for EngineError {
    fn from(e: QueryGraphError) -> Self {
        EngineError::QueryGraph(e)
    }
}

/// The kind of hard failure that tripped (or is tripping) a serving
/// layer's per-tenant circuit breaker, carried by [`Error::CircuitOpen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripCause {
    /// Consecutive quarantined panics ([`EngineError::Internal`]).
    Internal,
    /// Consecutive `QueryStatus::TimedOut` outcomes (including budgets
    /// that expired mid-execution).
    TimedOut,
}

impl fmt::Display for TripCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripCause::Internal => "internal errors",
            TripCause::TimedOut => "timeouts",
        })
    }
}

/// The unified public failure taxonomy: everything the engine *or* a
/// serving layer above it can answer a query with, in one enum with one
/// protocol mapping.
///
/// [`EngineError`] covers execution failures and is nested as
/// [`Error::Engine`]; the serving layer (`amber_serve`) answers with the
/// admission and lifecycle variants directly. A front-end holds exactly
/// one error value per request and maps it to a wire status through
/// [`Error::status_code`] and [`Error::retry_after`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The query was executed (or parsed) and the engine failed it.
    Engine(EngineError),
    /// The request's admission-to-answer budget expired while it was
    /// still queued: shed before any engine work.
    DeadlineExpired {
        /// The budget the request was submitted with.
        budget: Duration,
        /// The queue wait actually observed (≥ `budget`).
        waited: Duration,
    },
    /// Rejected at admission: the tenant's circuit breaker is open after
    /// consecutive hard failures.
    CircuitOpen {
        /// The kind of consecutive hard failure that tripped the breaker.
        cause: TripCause,
        /// Remaining breaker cooldown at rejection time.
        retry_after: Duration,
    },
    /// Rejected at admission: the serving queue is full.
    Overloaded {
        /// The configured queue capacity.
        capacity: usize,
        /// Requests queued at rejection time.
        queued: usize,
        /// Estimated time until a queue slot frees up (service-rate EWMA).
        retry_after: Duration,
    },
    /// Rejected or revoked because the server is shutting down.
    ShuttingDown,
}

impl Error {
    /// The HTTP status this failure maps to — the single protocol mapping
    /// every front-end shares:
    ///
    /// | variant | status |
    /// |---|---|
    /// | `Engine` (parse / malformed query) | 400 |
    /// | `Engine` (`StalePlan`, `Internal`) | 500 |
    /// | `Overloaded`, `CircuitOpen`, `ShuttingDown` | 503 |
    /// | `DeadlineExpired` | 504 |
    pub fn status_code(&self) -> u16 {
        match self {
            Error::Engine(e) => match e {
                EngineError::Sparql(_)
                | EngineError::NtParse(_)
                | EngineError::Turtle(_)
                | EngineError::QueryGraph(_) => 400,
                EngineError::StalePlan | EngineError::Internal { .. } => 500,
            },
            Error::DeadlineExpired { .. } => 504,
            Error::CircuitOpen { .. } | Error::Overloaded { .. } | Error::ShuttingDown => 503,
        }
    }

    /// The backoff hint to hand the client (an HTTP `Retry-After`):
    /// present exactly for the two admission rejections that carry one —
    /// [`Error::Overloaded`] (service-rate EWMA) and
    /// [`Error::CircuitOpen`] (remaining cooldown).
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Error::Overloaded { retry_after, .. } | Error::CircuitOpen { retry_after, .. } => {
                Some(*retry_after)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Engine(e) => e.fmt(f),
            Error::DeadlineExpired { budget, waited } => write!(
                f,
                "deadline expired in queue: waited {waited:?} of a {budget:?} budget"
            ),
            Error::CircuitOpen { cause, retry_after } => write!(
                f,
                "circuit open after consecutive {cause}; retry in {retry_after:?}"
            ),
            Error::Overloaded {
                capacity,
                queued,
                retry_after,
            } => write!(
                f,
                "server overloaded: {queued} of {capacity} queue slots in use; \
                 retry in ~{retry_after:?}"
            ),
            Error::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wrap_inner_errors() {
        let e = EngineError::Sparql(amber_sparql::parse_select("nope").unwrap_err());
        assert!(e.to_string().contains("SPARQL"));
        let e = EngineError::NtParse(rdf_model::parse_ntriples("nope").unwrap_err());
        assert!(e.to_string().contains("N-Triples"));
    }

    #[test]
    fn internal_error_carries_task_and_payload() {
        let e = EngineError::Internal {
            task: "sequential matcher".to_string(),
            payload: "boom".to_string(),
        };
        let text = e.to_string();
        assert!(
            text.contains("sequential matcher") && text.contains("boom"),
            "{text}"
        );
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn conversion_from_sources() {
        let sparql_err = amber_sparql::parse_select("???").unwrap_err();
        let e: EngineError = sparql_err.clone().into();
        assert_eq!(e, EngineError::Sparql(sparql_err));
    }

    #[test]
    fn unified_error_status_mapping() {
        let parse: Error =
            EngineError::Sparql(amber_sparql::parse_select("nope").unwrap_err()).into();
        assert_eq!(parse.status_code(), 400);
        assert_eq!(Error::from(EngineError::StalePlan).status_code(), 500);
        let internal: Error = EngineError::Internal {
            task: "t".into(),
            payload: "p".into(),
        }
        .into();
        assert_eq!(internal.status_code(), 500);
        assert_eq!(
            Error::DeadlineExpired {
                budget: Duration::from_millis(5),
                waited: Duration::from_millis(9),
            }
            .status_code(),
            504
        );
        assert_eq!(
            Error::CircuitOpen {
                cause: TripCause::TimedOut,
                retry_after: Duration::from_secs(1),
            }
            .status_code(),
            503
        );
        assert_eq!(
            Error::Overloaded {
                capacity: 4,
                queued: 4,
                retry_after: Duration::from_millis(3),
            }
            .status_code(),
            503
        );
        assert_eq!(Error::ShuttingDown.status_code(), 503);
    }

    #[test]
    fn retry_after_is_present_exactly_for_backpressure() {
        assert_eq!(
            Error::Overloaded {
                capacity: 4,
                queued: 4,
                retry_after: Duration::from_millis(3),
            }
            .retry_after(),
            Some(Duration::from_millis(3))
        );
        assert_eq!(
            Error::CircuitOpen {
                cause: TripCause::TimedOut,
                retry_after: Duration::from_secs(7),
            }
            .retry_after(),
            Some(Duration::from_secs(7))
        );
        assert_eq!(Error::ShuttingDown.retry_after(), None);
        assert_eq!(Error::from(EngineError::StalePlan).retry_after(), None);
        assert_eq!(
            Error::DeadlineExpired {
                budget: Duration::ZERO,
                waited: Duration::ZERO,
            }
            .retry_after(),
            None
        );
    }

    #[test]
    fn unified_error_display_and_source() {
        let e = Error::Overloaded {
            capacity: 2,
            queued: 2,
            retry_after: Duration::from_millis(3),
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::CircuitOpen {
            cause: TripCause::TimedOut,
            retry_after: Duration::from_secs(2),
        };
        assert!(e.to_string().contains("timeouts"), "{e}");
        let e: Error = EngineError::StalePlan.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
