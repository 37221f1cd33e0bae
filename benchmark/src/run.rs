//! One run of one workload: set-up, warm-up, the timed window, and with
//! `--trace 1` the traced window and the per-layer passes after it.

use crate::client::{fnv1a, get_request, Conn};
use crate::layers::{self, Metrics, Walk};
use crate::stats::{median, percentile};
use crate::trace::{self, Recorder};
use crate::workload::{scrape, timed_window, Client, Fixture, Load, Tally, Until};
use amber::{AmberEngine, QueryRequest};
use amber_http::HttpServer;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Scale of the DBpedia-like graph: 25 is 50,000 entities and about
/// 390,000 triples (48 MB of N-Triples); the smoke graph is 12 times
/// smaller.
const SCALE: u32 = 25;
const SMOKE_SCALE: u32 = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Closed-loop warm-up before the timed window (after the pass that fills
/// the caches of a cache-resident workload).
const WARM_UP: Duration = Duration::from_secs(1);

/// Pool queries whose answers every freshly loaded engine must reproduce.
const LOAD_CHECK_QUERIES: usize = 8;

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small graph, every response compared byte for byte.
    pub smoke: bool,
    pub out: PathBuf,
}

pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Ways in which the workload stopped meaning what it says.
    pub violations: Vec<String>,
}

pub fn run(load: &Load, settings: &Settings, abort: &AtomicBool) -> Result<Report, String> {
    let scale = if settings.smoke { SMOKE_SCALE } else { SCALE };
    // Set-up time is an end-to-end metric, so an end-to-end run sets up
    // several times over and reports the median.
    let setups = if settings.trace || settings.smoke {
        1
    } else {
        SETUPS
    };
    let mut report = Report {
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        violations: Vec::new(),
    };
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        if let Some((_, Some(http))) = built.take() {
            HttpServer::shutdown(http);
        }
        let started = Instant::now();
        let text = Fixture::graph_text(scale, settings.seed);
        if settings.trace {
            // Before anything else has used the heap: the allocator's
            // state after serving slows these stages several times over.
            layers::offline_stages(&text, &mut report.metrics)?;
        }
        let fixture = Fixture::build(load, text, settings.seed)?;
        let http = if load.served || settings.trace {
            Some(fixture.serve()?)
        } else {
            None
        };
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((fixture, http));
    }
    let (fixture, http) = built.expect("at least one set-up");
    let addr = http.as_ref().map(HttpServer::local_addr);
    let result = if settings.trace {
        let addr = addr.expect("a traced run serves its pool");
        traced(load, settings, &fixture, addr, abort, &mut report)
    } else {
        end_to_end(load, settings, &fixture, addr, abort, &mut report).map(|ops| {
            let offline = fixture.engine.offline_stats();
            let metrics = &mut report.metrics;
            metrics.set("setup_s", median(&mut setup_s));
            metrics.set("throughput_ops_s", ops.throughput);
            metrics.set("latency_p50_ms", percentile(&ops.latencies_ms, 50.0));
            metrics.set("peak_rss_mib", status_kib("VmHWM") as f64 / 1024.0);
            metrics.set(
                "resident_bytes_per_triple",
                (offline.database_bytes + offline.index_bytes) as f64 / fixture.triples(),
            );
        })
    };
    // Whatever happened above, no thread stays blocked on a socket.
    if let Some(http) = http {
        http.shutdown();
    }
    result.map(|()| report)
}

/// The workload's operations in the timed window: HTTP requests, or graph
/// loads on `offline_build`.
struct Ops {
    /// Ascending.
    latencies_ms: Vec<f64>,
    /// Operations per second.
    throughput: f64,
}

impl Ops {
    fn new(mut latencies_ms: Vec<f64>, throughput: f64, report: &Report) -> Result<Ops, String> {
        if latencies_ms.is_empty() {
            return Err(format!(
                "no operation completed: {}",
                report.first_failure.as_deref().unwrap_or("aborted")
            ));
        }
        latencies_ms.sort_by(f64::total_cmp);
        Ok(Ops {
            latencies_ms,
            throughput,
        })
    }

    fn of_requests(served: &Served, window: Duration, report: &Report) -> Result<Ops, String> {
        let latencies = served.tally.latencies_ns.iter();
        Ops::new(
            latencies.map(|ns| *ns as f64 / 1e6).collect(),
            served.throughput(window),
            report,
        )
    }

    fn of_loads(load_s: &[f64], report: &Report) -> Result<Ops, String> {
        Ops::new(
            load_s.iter().map(|s| s * 1e3).collect(),
            load_s.len() as f64 / load_s.iter().sum::<f64>(),
            report,
        )
    }
}

/// `--trace 0`: the whole of `--seconds` is one untraced window.
fn end_to_end(
    load: &Load,
    settings: &Settings,
    fixture: &Fixture,
    addr: Option<SocketAddr>,
    abort: &AtomicBool,
    report: &mut Report,
) -> Result<Ops, String> {
    let window = Duration::from_secs_f64(settings.seconds);
    let Some(addr) = addr else {
        let load_s = load_window(fixture, window, abort, report);
        return Ops::of_loads(&load_s, report);
    };
    let served = Served::run(load, settings, fixture, addr, window, abort, report)?;
    let ops = Ops::of_requests(&served, window, report)?;
    if !settings.smoke && ops.latencies_ms.len() < 1_000 {
        report.violations.push(format!(
            "{} requests are too few to tell a tail from noise",
            ops.latencies_ms.len()
        ));
    }
    Ok(ops)
}

/// `--trace 1`: `--seconds` is split between an untraced window, a traced
/// window and the replay, and the per-layer passes follow. `offline_build`
/// first spends two fifths of it loading, and serves its pool only for the
/// per-layer numbers.
fn traced(
    load: &Load,
    settings: &Settings,
    fixture: &Fixture,
    addr: SocketAddr,
    abort: &AtomicBool,
    report: &mut Report,
) -> Result<(), String> {
    let seconds = |share: f64| Duration::from_secs_f64(settings.seconds * share);
    let [loading, untraced, traced, replaying] = if load.served {
        [0.0, 0.4, 0.3, 0.3]
    } else {
        [0.4, 0.2, 0.2, 0.2]
    };
    let mut load_s = vec![fixture.load_time.as_secs_f64()];
    if !load.served {
        load_s = load_window(fixture, seconds(loading), abort, report);
    }
    let served = Served::run(
        load,
        settings,
        fixture,
        addr,
        seconds(untraced),
        abort,
        report,
    )?;
    let ops = if load.served {
        Ops::of_requests(&served, seconds(untraced), report)?
    } else {
        Ops::of_loads(&load_s, report)?
    };
    let metrics = &mut report.metrics;
    metrics.set("e2e.latency_p99_ms", percentile(&ops.latencies_ms, 99.0));
    metrics.set(
        "e2e.rows_per_s",
        served.tally.rows as f64 / served.elapsed.as_secs_f64(),
    );
    metrics.set(
        "e2e.load_triples_per_s",
        fixture.triples() / median(&mut load_s),
    );
    metrics.set("bench.samples", ops.latencies_ms.len() as f64);
    layers::scraped(
        &served.before,
        &served.after,
        served.tally.attempted,
        metrics,
    );

    // Client spans: a traced window on one warm connection.
    let mut client_spans = Recorder::new(Instant::now());
    let mut clients = served.clients;
    let origin = Instant::now();
    let tally = clients[0].drive(
        Until::Deadline(origin + seconds(traced)),
        origin,
        Some(&mut client_spans),
    );
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    if tally.latencies_ns.is_empty() {
        return Err("no request completed in the traced window".to_string());
    }
    let traced_rps = tally.latencies_ns.len() as f64 / origin.elapsed().as_secs_f64();
    let untraced_rps = served.tally.latencies_ns.len() as f64
        / served.elapsed.as_secs_f64()
        / clients.len() as f64;
    let metrics = &mut report.metrics;
    let client_us = |span: &str| median(&mut client_spans.durations_us(span));
    let roundtrip = client_us("http.roundtrip");
    metrics.set("http.roundtrip_us", roundtrip);
    metrics.set("http.ttfb_us", client_us("http.ttfb"));
    metrics.set("http.body_read_us", client_us("http.body_read"));
    metrics.set("bench.trace_overhead_ratio", untraced_rps / traced_rps);

    // A request that asks for nothing: what the sockets, the connection
    // thread's wake-up and the smallest parse and response cost.
    let conn = &mut clients[0].conn;
    let mut null_us = Vec::new();
    for _ in 0..200 {
        let reply = conn
            .exchange(&get_request("/bench-null"))
            .map_err(|e| format!("null request: {e}"))?;
        null_us.push((reply.done - reply.sent).as_nanos() as f64 / 1e3);
    }
    let socket_overhead = median(&mut null_us);
    metrics.set("http.socket_overhead_us", socket_overhead);
    let mut scrape_us = Vec::new();
    for _ in 0..5 {
        scrape_us.push(scrape(conn)?.1.as_nanos() as f64 / 1e3);
    }
    metrics.set("obs.scrape_us", median(&mut scrape_us));

    let walk = Walk {
        fixture,
        load,
        positions: clients.iter().map(|c| c.position).collect(),
        budget: seconds(replaying) / 2,
    };
    drop(clients);
    let mut chain_spans = Recorder::new(Instant::now());
    let mut engine_spans = Recorder::new(Instant::now());
    layers::replay_chain(&walk, &mut chain_spans, metrics)?;
    layers::replay_engine(&walk, &mut engine_spans, metrics)?;
    let attributed = ["http.parse_us", "serve.submit_wait_us", "http.serialize_us"]
        .iter()
        .map(|name| metrics.get(name))
        .sum::<f64>()
        + socket_overhead;
    metrics.set("bench.unattributed_us", roundtrip - attributed);
    layers::kernels(&fixture.engine, settings.seed, metrics);

    std::fs::create_dir_all(&settings.out)
        .map_err(|e| format!("{}: {e}", settings.out.display()))?;
    let path = settings.out.join(format!("{}.trace.json", load.name));
    trace::write_json(
        &path,
        &[
            ("client", &client_spans),
            ("replay_chain", &chain_spans),
            ("replay_engine", &engine_spans),
        ],
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// Warm-up, scrape, timed window, scrape.
struct Served<'a> {
    clients: Vec<Client<'a>>,
    tally: Tally,
    elapsed: Duration,
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

impl<'a> Served<'a> {
    fn run(
        load: &Load,
        settings: &Settings,
        fixture: &'a Fixture,
        addr: SocketAddr,
        window: Duration,
        abort: &'a AtomicBool,
        report: &mut Report,
    ) -> Result<Self, String> {
        let check_every = if settings.smoke { 1 } else { 32 };
        let mut clients = (0..load.connections)
            .map(|c| Client::connect(fixture, addr, c, check_every, abort))
            .collect::<Result<Vec<_>, _>>()?;
        let mut control = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;

        // Warm-up. A cache-resident workload first sends every request
        // once, so that the window after it holds no first-time miss.
        let mut warm = Tally::default();
        if load.cached {
            let all: Vec<u32> = (0..fixture.requests.len() as u32).collect();
            let mut filler = Client::connect(fixture, addr, 0, check_every, abort)?;
            filler.schedule = &all;
            warm.merge(filler.drive(Until::Count(all.len()), Instant::now(), None));
        }
        let warm_up = if settings.smoke { WARM_UP / 4 } else { WARM_UP };
        warm.merge(timed_window(&mut clients, warm_up).0);

        let (before, _) = scrape(&mut control)?;
        let (tally, elapsed) = timed_window(&mut clients, window);
        let (after, _) = scrape(&mut control)?;

        for part in [&warm, &tally] {
            report.attempted += part.attempted;
            report.failed += part.failed;
            if report.first_failure.is_none() {
                report.first_failure = part.first_failure.clone();
            }
        }
        let delta = |series: &str| {
            after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
        };
        let hits = delta("amber_cache_hits_total{cache=\"result\"}");
        let misses = delta("amber_cache_misses_total{cache=\"result\"}");
        let ratio = hits / (hits + misses).max(1.0);
        if load.cached && ratio < 0.99 {
            report.violations.push(format!(
                "{}: result-cache hit ratio {ratio:.4} where every request should hit",
                load.name
            ));
        }
        if !load.cached && ratio > 0.01 {
            report.violations.push(format!(
                "{}: result-cache hit ratio {ratio:.4} where no request should hit",
                load.name
            ));
        }
        Ok(Served {
            clients,
            tally,
            elapsed,
            before,
            after,
        })
    }

    /// Requests per second: the median of the whole one-second completion
    /// counts, which one stalled second does not move.
    fn throughput(&self, window: Duration) -> f64 {
        let whole = window.as_secs() as usize;
        if whole < 3 {
            return self.tally.done_ns.len() as f64 / self.elapsed.as_secs_f64();
        }
        let mut per_second = vec![0.0; whole];
        for done in &self.tally.done_ns {
            if let Some(slot) = per_second.get_mut((*done / 1_000_000_000) as usize) {
                *slot += 1.0;
            }
        }
        median(&mut per_second)
    }
}

/// Load the graph text over and over on this thread until `window` has
/// passed; each load is one operation, checked against the set-up's engine.
fn load_window(
    fixture: &Fixture,
    window: Duration,
    abort: &AtomicBool,
    report: &mut Report,
) -> Vec<f64> {
    let reference = fixture.engine.rdf();
    let started = Instant::now();
    let mut load_s = Vec::new();
    let mut attempts = 0;
    // At least two loads, however slow the machine.
    while (attempts < 2 || started.elapsed() < window) && !abort.load(Ordering::Relaxed) {
        attempts += 1;
        report.attempted += 1;
        let t = Instant::now();
        let loaded = AmberEngine::load_ntriples(&fixture.text);
        let elapsed = t.elapsed().as_secs_f64();
        let failure = match loaded {
            Err(e) => Some(e.to_string()),
            Ok(engine) => {
                let rdf = engine.rdf();
                if rdf.triple_count() != reference.triple_count()
                    || rdf.graph().vertex_count() != reference.graph().vertex_count()
                {
                    Some("loaded graph differs in size".to_string())
                } else {
                    fixture
                        .pool
                        .iter()
                        .zip(&fixture.expected)
                        .take(LOAD_CHECK_QUERIES)
                        .find(|(q, expected)| {
                            !engine
                                .run(&QueryRequest::sparql(&q.text))
                                .is_ok_and(|outcome| {
                                    fnv1a(amber_http::sparql_json(&outcome).as_bytes())
                                        == expected.hash
                                })
                        })
                        .map(|(q, _)| format!("loaded graph answers differently: {}", q.text))
                }
            }
        };
        match failure {
            None => load_s.push(elapsed),
            Some(why) => {
                report.failed += 1;
                report.first_failure.get_or_insert(why);
            }
        }
    }
    load_s
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`); 0 where the
/// file does not exist.
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}
