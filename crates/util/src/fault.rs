//! Deterministic fault injection (chaos harness).
//!
//! The engine threads named injection points through its hot paths — the
//! matcher candidate loop, cache insert/evict, index probes, and the
//! serving loop (admission, dispatch, drain). Each
//! point calls [`inject`], which is an inlined one-atomic-load no-op unless
//! the harness is armed, so production builds pay (measurably) nothing for
//! the instrumentation.
//!
//! Arming happens in one of two ways:
//!
//! * the `AMBER_CHAOS=<seed>:<spec>` environment variable (read once, like
//!   `AMBER_KERNELS`) — the CI chaos lane sets a fixed seed so
//!   the whole test suite runs under answer-preserving faults;
//! * [`override_spec`], a scoped, process-global override used by the chaos
//!   proptests to cycle through many specs inside one process. Overrides
//!   serialize on an internal mutex, so concurrent tests cannot interleave
//!   their specs.
//!
//! ## Spec grammar
//!
//! ```text
//! AMBER_CHAOS = <seed> ":" <clause> ("," <clause>)*
//! clause      = [<point> "="] <kind> ["@" <rate>]
//! point       = "matcher-candidate" | "cache-insert" | "cache-evict"
//!             | "index-probe" | "serve-admit" | "serve-dispatch"
//!             | "serve-drain"
//! kind        = "panic" | "delay" | "alloc-fail"
//! rate        = positive integer: fire once per <rate> visits on average
//! ```
//!
//! A clause without a point applies at every point. The default rate is
//! 1024. Example: `AMBER_CHAOS=42:delay@512,cache-insert=panic@64`.
//!
//! ## Fault kinds
//!
//! * `panic` — panics at the point (the engine quarantines it; the query
//!   surfaces `EngineError::Internal`).
//! * `delay` — a short scheduling perturbation (spin + yield), answer
//!   preserving by construction.
//! * `alloc-fail` — returns a spurious allocation-failure [`Signal`]; the
//!   memory governor treats it as budget exhaustion and degrades, and the
//!   serving layer's admission point treats it as spurious overload (a
//!   typed rejection, nothing enqueued).
//!
//! Firing decisions come from a SplitMix64 stream over `seed ⊕ visit-nonce
//! ⊕ point-salt`, so a fixed seed and spec reproduce the same fault
//! density run over run.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// A named injection point (see module docs for the spelling used in
/// specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The matcher's per-candidate recursion step.
    MatcherCandidate,
    /// A seed-cache insertion.
    CacheInsert,
    /// A seed-cache eviction callback.
    CacheEvict,
    /// An index probe (OTIL / attribute / signature lookup).
    IndexProbe,
    /// Serving-layer admission (`Server::submit`), before anything is
    /// enqueued. A panic here surfaces as a typed admission error; an
    /// `alloc-fail` signal is treated as spurious overload.
    ServeAdmit,
    /// A serving worker acquiring one dispatch, after the request leaves
    /// the queue and before any engine work.
    ServeDispatch,
    /// A serving worker's drain-exit path during shutdown. Panics here are
    /// trapped and counted — the drain must complete regardless.
    ServeDrain,
}

impl FaultPoint {
    /// The spec spelling of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::MatcherCandidate => "matcher-candidate",
            FaultPoint::CacheInsert => "cache-insert",
            FaultPoint::CacheEvict => "cache-evict",
            FaultPoint::IndexProbe => "index-probe",
            FaultPoint::ServeAdmit => "serve-admit",
            FaultPoint::ServeDispatch => "serve-dispatch",
            FaultPoint::ServeDrain => "serve-drain",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "matcher-candidate" => FaultPoint::MatcherCandidate,
            "cache-insert" => FaultPoint::CacheInsert,
            "cache-evict" => FaultPoint::CacheEvict,
            "index-probe" => FaultPoint::IndexProbe,
            "serve-admit" => FaultPoint::ServeAdmit,
            "serve-dispatch" => FaultPoint::ServeDispatch,
            "serve-drain" => FaultPoint::ServeDrain,
            _ => return None,
        })
    }

    fn salt(self) -> u64 {
        // Arbitrary distinct odd constants so sibling points draw from
        // decorrelated streams.
        match self {
            FaultPoint::MatcherCandidate => 0x9E37_79B9_7F4A_7C15,
            FaultPoint::CacheInsert => 0x85EB_CA77_C2B2_AE63,
            FaultPoint::CacheEvict => 0xFF51_AFD7_ED55_8CCD,
            FaultPoint::IndexProbe => 0xC4CE_B9FE_1A85_EC53,
            FaultPoint::ServeAdmit => 0xD6E8_FEB8_6659_FD93,
            FaultPoint::ServeDispatch => 0xA3AA_ACE1_0367_5F1B,
            FaultPoint::ServeDrain => 0x5851_F42D_4C95_7F2D,
        }
    }
}

/// What a fault kind does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the injection point.
    Panic,
    /// Perturb scheduling (spin + yield).
    Delay,
    /// Signal a spurious allocation failure to the caller.
    AllocFail,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "panic" => FaultKind::Panic,
            "delay" => FaultKind::Delay,
            "alloc-fail" => FaultKind::AllocFail,
            _ => return None,
        })
    }
}

/// The non-panicking faults [`inject`] reports back to its caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Signal {
    /// A spurious allocation failure fired: the caller should behave as if
    /// its memory budget were exhausted.
    pub alloc_fail: bool,
}

impl Signal {
    /// No fault fired.
    pub const NONE: Signal = Signal { alloc_fail: false };
}

#[derive(Debug, Clone)]
struct Rule {
    /// `None` applies at every point.
    point: Option<FaultPoint>,
    kind: FaultKind,
    /// Fire once per `rate` visits on average (≥ 1).
    rate: u64,
}

/// A parsed chaos specification (`<seed>:<clause>,...`).
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    seed: u64,
    /// The verbatim spec text, echoed by EXPLAIN.
    text: String,
    rules: Vec<Rule>,
}

impl ChaosSpec {
    /// Parse the `<seed>:<spec>` grammar (see module docs).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (seed_s, clauses) = text
            .split_once(':')
            .ok_or_else(|| format!("chaos spec `{text}` is missing the `<seed>:` prefix"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| format!("chaos seed `{seed_s}` is not a u64"))?;
        let mut rules = Vec::new();
        for clause in clauses.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (point, action) = match clause.split_once('=') {
                Some((p, a)) => {
                    let point = FaultPoint::parse(p.trim())
                        .ok_or_else(|| format!("unknown injection point `{}`", p.trim()))?;
                    (Some(point), a.trim())
                }
                None => (None, clause),
            };
            let (kind_s, rate) = match action.split_once('@') {
                Some((k, r)) => {
                    let rate: u64 = r
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos rate `{}` is not an integer", r.trim()))?;
                    if rate == 0 {
                        return Err(format!("chaos rate in `{clause}` must be >= 1"));
                    }
                    (k.trim(), rate)
                }
                None => (action, 1024),
            };
            let kind =
                FaultKind::parse(kind_s).ok_or_else(|| format!("unknown fault kind `{kind_s}`"))?;
            rules.push(Rule { point, kind, rate });
        }
        if rules.is_empty() {
            return Err(format!("chaos spec `{text}` has no clauses"));
        }
        Ok(Self {
            seed,
            text: text.to_string(),
            rules,
        })
    }
}

/// 0 = env not yet read, 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Visit nonce feeding the per-fire PRNG stream.
static NONCE: AtomicU64 = AtomicU64::new(0);
/// The armed spec (env-derived or overridden); only read when STATE == 2.
static ACTIVE: RwLock<Option<Arc<ChaosSpec>>> = RwLock::new(None);
/// Serializes [`override_spec`] scopes.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn init_from_env() {
    let spec = match std::env::var("AMBER_CHAOS") {
        Ok(text) if !text.trim().is_empty() => match ChaosSpec::parse(&text) {
            Ok(spec) => Some(Arc::new(spec)),
            Err(e) => {
                eprintln!("AMBER_CHAOS ignored: {e}");
                None
            }
        },
        _ => None,
    };
    let armed = spec.is_some();
    *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = spec;
    // Racing initializers compute the same answer; last store wins.
    STATE.store(if armed { 2 } else { 1 }, Ordering::Relaxed);
}

/// Visit one injection point. Disarmed (the default), this is one relaxed
/// atomic load and a predictable branch; armed, it may panic, delay, or
/// return a [`Signal`] according to the active spec.
#[inline]
pub fn inject(point: FaultPoint) -> Signal {
    match STATE.load(Ordering::Relaxed) {
        1 => Signal::NONE,
        2 => inject_armed(point),
        _ => {
            init_from_env();
            inject(point)
        }
    }
}

#[cold]
fn inject_armed(point: FaultPoint) -> Signal {
    let guard = ACTIVE.read().unwrap_or_else(PoisonError::into_inner);
    let Some(spec) = guard.as_deref() else {
        return Signal::NONE;
    };
    let mut signal = Signal::NONE;
    for rule in &spec.rules {
        if rule.point.is_some_and(|p| p != point) {
            continue;
        }
        let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
        if !splitmix64(spec.seed ^ nonce ^ point.salt()).is_multiple_of(rule.rate) {
            continue;
        }
        if amber_obs::obs_enabled() {
            amber_obs::counter("amber_chaos_firings_total", &[("point", point.name())]).inc();
        }
        match rule.kind {
            FaultKind::Panic => {
                drop(guard);
                panic!("chaos: injected panic at {}", point.name());
            }
            FaultKind::Delay => {
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
                std::thread::yield_now();
            }
            FaultKind::AllocFail => signal.alloc_fail = true,
        }
    }
    signal
}

/// The verbatim text of the armed spec, if any — what EXPLAIN echoes so a
/// chaos run is recognizable from its output.
pub fn active_spec() -> Option<String> {
    if STATE.load(Ordering::Relaxed) == 0 {
        init_from_env();
    }
    ACTIVE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(|s| s.text.clone())
}

/// Scoped override installed by [`override_spec`]; dropping it restores the
/// previous (usually env-derived) configuration.
pub struct ChaosGuard {
    prev_state: u8,
    prev: Option<Arc<ChaosSpec>>,
    /// Held for the guard's lifetime so overrides cannot interleave.
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        *ACTIVE.write().unwrap_or_else(PoisonError::into_inner) = self.prev.take();
        STATE.store(self.prev_state, Ordering::Relaxed);
    }
}

/// Arm the harness with `text` (full `<seed>:<spec>` grammar) for the
/// lifetime of the returned guard. Process-global — serving worker threads
/// see it too — and serialized: a second caller blocks until the first guard
/// drops.
pub fn override_spec(text: &str) -> Result<ChaosGuard, String> {
    let serial = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = ChaosSpec::parse(text)?;
    if STATE.load(Ordering::Relaxed) == 0 {
        init_from_env();
    }
    let prev_state = STATE.load(Ordering::Relaxed);
    let prev = ACTIVE
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(Arc::new(spec));
    STATE.store(2, Ordering::Relaxed);
    Ok(ChaosGuard {
        prev_state,
        prev,
        _serial: serial,
    })
}

/// Render a trapped panic payload as text: `panic!` literals and formatted
/// messages downcast to `&str`/`String`; anything else gets a placeholder.
/// Used to build typed `Internal` errors out of quarantined payloads
/// without dragging `dyn Any` through the error type (which must stay
/// `Clone + Eq`).
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_message_covers_common_shapes() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(payload_message(boxed.as_ref()), "literal");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(format!("formatted {}", 7));
        assert_eq!(payload_message(boxed.as_ref()), "formatted 7");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(payload_message(boxed.as_ref()), "non-string panic payload");
    }

    #[test]
    fn spec_grammar_parses_and_rejects() {
        let spec = ChaosSpec::parse("42:delay@512,cache-insert=panic@64,alloc-fail").unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.rules[0].kind, FaultKind::Delay);
        assert_eq!(spec.rules[0].point, None);
        assert_eq!(spec.rules[0].rate, 512);
        assert_eq!(spec.rules[1].point, Some(FaultPoint::CacheInsert));
        assert_eq!(spec.rules[2].rate, 1024, "default rate");

        let serve =
            ChaosSpec::parse("9:serve-admit=alloc-fail@1,serve-dispatch=delay,serve-drain=panic@2")
                .unwrap();
        assert_eq!(serve.rules[0].point, Some(FaultPoint::ServeAdmit));
        assert_eq!(serve.rules[1].point, Some(FaultPoint::ServeDispatch));
        assert_eq!(serve.rules[2].point, Some(FaultPoint::ServeDrain));

        for bad in [
            "no-seed-prefix",
            "x:delay",
            "1:",
            "1:unknown-kind",
            "1:bogus-point=panic",
            // Points and kinds of the removed intra-query schedulers must be
            // rejected, not silently accepted as rules that never fire.
            "1:pool-spawn=panic",
            "1:storm",
            "1:matcher-candidate=storm@4",
            "1:panic@0",
            "1:panic@x",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        let err = ChaosSpec::parse("1:pool-spawn=panic").unwrap_err();
        assert!(
            err.contains("unknown injection point `pool-spawn`"),
            "{err}"
        );
        let err = ChaosSpec::parse("1:matcher-candidate=storm@4").unwrap_err();
        assert!(err.contains("unknown fault kind `storm`"), "{err}");
    }

    #[test]
    fn disarmed_inject_is_silent() {
        // Whatever the ambient env, an explicit no-fault... there is no
        // "no-fault" spec, so only assert the call is safe and pure when
        // the harness is (most likely) disarmed.
        let _ = inject(FaultPoint::MatcherCandidate);
    }

    #[test]
    fn override_signals_fire_deterministically() {
        let _guard = override_spec("7:alloc-fail@1").unwrap();
        let s = inject(FaultPoint::CacheInsert);
        assert!(s.alloc_fail, "rate-1 faults fire on every visit");
        assert_eq!(
            active_spec().as_deref(),
            Some("7:alloc-fail@1"),
            "EXPLAIN echo"
        );
    }

    #[test]
    fn override_panic_fires_and_scope_restores() {
        {
            let _guard = override_spec("7:matcher-candidate=panic@1").unwrap();
            let caught = std::panic::catch_unwind(|| inject(FaultPoint::MatcherCandidate));
            assert!(caught.is_err(), "rate-1 panic fires");
            // Other points are untouched by the scoped clause.
            assert_eq!(inject(FaultPoint::IndexProbe), Signal::NONE);
        }
        // Guard dropped: back to the ambient configuration (no panic).
        let _ = inject(FaultPoint::MatcherCandidate);
    }

    #[test]
    fn serve_point_salts_are_distinct() {
        let points = [
            FaultPoint::MatcherCandidate,
            FaultPoint::CacheInsert,
            FaultPoint::CacheEvict,
            FaultPoint::IndexProbe,
            FaultPoint::ServeAdmit,
            FaultPoint::ServeDispatch,
            FaultPoint::ServeDrain,
        ];
        for (i, a) in points.iter().enumerate() {
            assert_eq!(FaultPoint::parse(a.name()), Some(*a), "round-trip");
            assert_eq!(a.salt() & 1, 1, "{} salt must be odd", a.name());
            for b in &points[i + 1..] {
                assert_ne!(a.salt(), b.salt(), "{} vs {}", a.name(), b.name());
            }
        }
    }

    #[test]
    fn rates_thin_out_fault_density() {
        let _guard = override_spec("99:alloc-fail@16").unwrap();
        let fired = (0..4096)
            .filter(|_| inject(FaultPoint::IndexProbe).alloc_fail)
            .count();
        // Expected ≈ 256; allow a wide deterministic band.
        assert!(
            (64..1024).contains(&fired),
            "rate 16 fired {fired}/4096 times"
        );
    }
}
