//! Per-layer numbers, all taken from this package's side of each layer's
//! public interface: a single-threaded replay of the workload's requests
//! stage by stage, deltas of the server's own `/metrics` series over the
//! timed window, kernel loops over seeded inputs, and the offline build
//! taken apart.

use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{Expected, Fixture, Load, Request};
use amber::{AmberEngine, ExecOptions, QueryRequest};
use amber_index::IndexSet;
use amber_multigraph::{Direction, EdgeTypeId, RdfGraph, VertexId};
use amber_serve::{ServeConfig, Server};
use amber_util::http::{parse_form, parse_request_head};
use amber_util::HeapSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named values of one run, in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is read before it is measured"))
            .1
    }
}

/// Requests a replay pass walks at most.
const REPLAY_REQUESTS: usize = 2_000;

/// Tickets submitted before any is waited for in a burst.
const BURST: usize = 64;

/// The workload's requests in the order its connections would send them
/// from where the timed window left off, interleaved on one thread.
pub struct Walk<'a> {
    pub fixture: &'a Fixture,
    pub load: &'a Load,
    /// Each connection's position in its schedule.
    pub positions: Vec<usize>,
    /// Time one pass may take once it has walked what it must.
    pub budget: Duration,
}

impl Walk<'_> {
    fn request(&self, i: usize) -> &Request {
        let schedules = &self.fixture.schedules;
        let (c, n) = (i % schedules.len(), i / schedules.len());
        let index = schedules[c][(self.positions[c] + n) % schedules[c].len()];
        &self.fixture.requests[index as usize]
    }

    fn text(&self, request: &Request) -> &str {
        &self.fixture.pool[request.query as usize].text
    }

    fn expected(&self, request: &Request) -> &Expected {
        &self.fixture.expected[request.query as usize]
    }

    fn more(&self, replayed: usize, started: Instant) -> bool {
        // A cold walk must come round once, or it is not the workload's mix.
        let at_least = if self.load.cached {
            1
        } else {
            self.fixture.schedules.iter().map(Vec::len).sum()
        };
        replayed < REPLAY_REQUESTS && (replayed < at_least || started.elapsed() < self.budget)
    }
}

/// Replay, first pass: the chain a served request goes through minus the
/// sockets (head and form parse, submit and wait, serialize), then the
/// engine work behind it without the serving layer, each call timed under
/// one request span.
///
/// This is a pass of its own because a stage timed between ten others runs
/// colder than it does live: walked together with the engine's stages, the
/// chain summed to 1.7 times the round trip it is part of.
///
/// The serving stage runs on a second, socket-less `Server` with the same
/// configuration over its own engine (same shared graph), so its plan store
/// and the live one do not feed each other.
pub fn replay_chain(
    walk: &Walk,
    spans: &mut Recorder,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let fixture = walk.fixture;
    let twin = Arc::new(AmberEngine::from_graph(fixture.engine.shared_rdf()));
    let server = Server::start(twin, ServeConfig::default());
    let submit = |request: &Request| {
        let tenant = walk.load.tenants[request.tenant as usize].0;
        server
            .submit_sparql(tenant, walk.text(request))
            .map_err(|e| format!("replay submit: {e}"))
    };
    let batch = ExecOptions::batch();
    let mut session = fixture.engine.create_session(&batch);
    let mut run_in = |request: &Request| {
        let direct = QueryRequest::sparql(walk.text(request)).with_options(batch.clone());
        fixture
            .engine
            .run_in(&direct, &mut session)
            .map_err(|e| e.to_string())
    };
    // Like the live server at the start of its window, both have seen
    // every request once: result caches are full where the pool fits them,
    // and seed caches are warm even where it does not.
    for request in &fixture.requests {
        submit(request)?.wait().map_err(|e| e.to_string())?;
        run_in(request)?;
    }

    let (mut rows, mut body_bytes) = (0, 0);
    let started = Instant::now();
    let mut replayed = 0;
    while walk.more(replayed, started) {
        let request = walk.request(replayed);
        let id = replayed as u32;
        let root = spans.open("request", id);
        spans.time("http.parse", root, id, || {
            let (head, consumed) = parse_request_head(&request.bytes, 8 * 1024)
                .ok()
                .flatten()
                .expect("the harness writes well-formed requests");
            let body = std::str::from_utf8(&request.bytes[consumed..]).expect("ASCII form");
            black_box((head, parse_form(body)));
        });
        let served = spans.time("serve.submit_wait", root, id, || {
            submit(request)?.wait().map_err(|e| e.to_string())
        })?;
        let body = spans.time("http.serialize", root, id, || {
            amber_http::sparql_json(&served)
        });
        spans.time("core.run_in", root, id, || run_in(request))?;
        spans.close(root);
        if body.len() != walk.expected(request).len {
            return Err(format!(
                "replayed answer differs for: {}",
                walk.text(request)
            ));
        }
        rows += walk.expected(request).rows;
        body_bytes += body.len();
        replayed += 1;
    }
    // The only place a server-side queue forms: a burst from one thread.
    let mut burst_rps = Vec::new();
    for burst in 0..5 {
        let burst_start = Instant::now();
        let tickets = (0..BURST)
            .map(|i| submit(walk.request(replayed + burst * BURST + i)))
            .collect::<Result<Vec<_>, _>>()?;
        for ticket in tickets {
            ticket.wait().map_err(|e| e.to_string())?;
        }
        burst_rps.push(BURST as f64 / burst_start.elapsed().as_secs_f64());
    }
    server.shutdown();

    let us = |span: &str| median(&mut spans.durations_us(span));
    let serialize_ns = spans.durations_us("http.serialize").iter().sum::<f64>() * 1e3;
    metrics.set("http.parse_us", us("http.parse"));
    metrics.set("http.serialize_us", us("http.serialize"));
    metrics.set("http.serialize_ns_per_row", serialize_ns / rows as f64);
    metrics.set("http.body_bytes_per_row", body_bytes as f64 / rows as f64);
    metrics.set("serve.submit_wait_us", us("serve.submit_wait"));
    // What the serving layer adds to the engine work a request causes.
    metrics.set(
        "serve.overhead_us",
        us("serve.submit_wait") - us("core.run_in"),
    );
    metrics.set("serve.burst_drain_rps", median(&mut burst_rps));
    metrics.set("core.run_in_us", us("core.run_in"));
    metrics.set("bench.replayed_requests", replayed as f64);
    Ok(())
}

/// Replay, second pass: the engine's share of a request taken apart on the
/// live engine (parse, canonicalize, prepare, count, full run, and the
/// result-cache hit a repeat gets). `core.prepare` computes its seeds
/// afresh, so it is what a request costs that misses the seed cache too.
pub fn replay_engine(
    walk: &Walk,
    spans: &mut Recorder,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let engine = &walk.fixture.engine;
    let batch = ExecOptions::batch();
    let mut session = engine.create_session(&batch);
    let started = Instant::now();
    let mut replayed = 0;
    while walk.more(replayed, started) {
        let request = walk.request(replayed);
        let text = walk.text(request);
        let id = replayed as u32;
        let root = spans.open("request", id);
        let query = spans
            .time("sparql.parse", root, id, || {
                amber_sparql::parse_select(text)
            })
            .map_err(|e| e.to_string())?;
        spans.time("sparql.canonicalize", root, id, || {
            black_box(amber_sparql::canonicalize(&query));
        });
        let plan = spans
            .time("core.prepare", root, id, || engine.prepare(&query))
            .map_err(|e| e.to_string())?;
        let counted = spans
            .time("core.count", root, id, || {
                engine.run(&QueryRequest::prepared(&plan).counting())
            })
            .map_err(|e| e.to_string())?;
        let outcome = spans
            .time("core.run", root, id, || {
                engine.run(&QueryRequest::prepared(&plan))
            })
            .map_err(|e| e.to_string())?;
        let cached = QueryRequest::parsed(&query).with_options(batch.clone());
        spans
            .time("core.result_fill", root, id, || {
                engine.run_in(&cached, &mut session)
            })
            .map_err(|e| e.to_string())?;
        let hit = spans
            .time("core.result_hit", root, id, || {
                engine.run_in(&cached, &mut session)
            })
            .map_err(|e| e.to_string())?;
        let rows = walk.expected(request).rows;
        let agree = counted.embedding_count == u128::from(rows)
            && outcome.bindings.len() as u64 == rows
            && hit.bindings == outcome.bindings;
        // Freeing a large answer is work too. With glibc part of it is
        // deferred to the next allocation of a kilobyte or more, which
        // coalesces the freed rows: asked for here, or the next request's
        // parse pays 150 us for it on `fanout_rows`.
        spans.time("core.release", root, id, || {
            drop((plan, counted, outcome, hit));
            black_box(Vec::<u8>::with_capacity(4096));
        });
        spans.close(root);
        if !agree {
            return Err(format!("replayed answers disagree for: {text}"));
        }
        replayed += 1;
    }

    let us = |span: &str| median(&mut spans.durations_us(span));
    let mut materialize_us: Vec<f64> = spans
        .durations_us("core.run")
        .iter()
        .zip(spans.durations_us("core.count"))
        .map(|(run, count)| run - count)
        .collect();
    metrics.set("sparql.parse_us", us("sparql.parse"));
    metrics.set("sparql.canonicalize_us", us("sparql.canonicalize"));
    metrics.set("core.prepare_us", us("core.prepare"));
    metrics.set("core.count_us", us("core.count"));
    metrics.set("core.materialize_us", median(&mut materialize_us));
    metrics.set("core.result_hit_us", us("core.result_hit"));
    Ok(())
}

/// Deltas of the server's own series between the scrapes taken right
/// before and right after the timed window of `requests` requests.
pub fn scraped(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    requests: u64,
    metrics: &mut Metrics,
) {
    let now = |series: &str| after.get(series).copied().unwrap_or(0.0);
    let delta = |series: &str| now(series) - before.get(series).copied().unwrap_or(0.0);
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    let mean_of = |histogram: &str| {
        let count = delta(&format!("{histogram}_count"));
        if count > 0.0 {
            delta(&format!("{histogram}_sum")) / count
        } else {
            0.0
        }
    };
    for (name, class) in [
        ("http.responses_2xx", "2xx"),
        ("http.responses_4xx", "4xx"),
        ("http.responses_5xx", "5xx"),
    ] {
        metrics.set(
            name,
            delta(&format!("amber_http_responses_total{{class=\"{class}\"}}")),
        );
    }
    metrics.set(
        "serve.queue_wait_us_mean",
        mean_of("amber_serve_queue_wait_us"),
    );
    metrics.set(
        "serve.shed",
        delta("amber_serve_requests_total{outcome=\"shed\"}"),
    );
    metrics.set(
        "serve.rejected",
        delta("amber_serve_requests_total{outcome=\"rejected\"}"),
    );
    for (name, cache) in [
        ("core.result_cache_hit_ratio", "result"),
        ("core.plan_cache_hit_ratio", "plan"),
        ("core.seed_cache_hit_ratio", "seed"),
        ("core.candidate_cache_hit_ratio", "candidate"),
    ] {
        metrics.set(
            name,
            ratio(
                delta(&format!("amber_cache_hits_total{{cache=\"{cache}\"}}")),
                delta(&format!("amber_cache_misses_total{{cache=\"{cache}\"}}")),
            ),
        );
    }
    metrics.set(
        "core.shared_plan_hit_ratio",
        ratio(
            delta("amber_shared_plans_total{event=\"hit\"}"),
            delta("amber_shared_plans_total{event=\"miss\"}"),
        ),
    );
    metrics.set(
        "core.engine_latency_us_mean",
        mean_of("amber_query_latency_us"),
    );
    metrics.set(
        "core.queries_timed_out",
        delta("amber_queries_total{status=\"timed_out\"}"),
    );
    metrics.set(
        "core.cache_bytes",
        ["result", "plan", "seed", "candidate"]
            .iter()
            .map(|cache| now(&format!("amber_cache_bytes{{cache=\"{cache}\"}}")))
            .sum(),
    );
    metrics.set("exec.pool_runs", delta("amber_pool_runs_total"));
    metrics.set("exec.steals", delta("amber_pool_steals_total"));
    metrics.set(
        "exec.nodes_per_request",
        delta("amber_pool_nodes_total") / requests.max(1) as f64,
    );
}

/// Index probes and set kernels over seeded inputs.
pub fn kernels(engine: &AmberEngine, seed: u64, metrics: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e);
    let graph = engine.rdf().graph();
    let vertices = graph.vertex_count() as u32;

    let signature = &engine.index().signature;
    let mut candidates_us = Vec::new();
    let started = Instant::now();
    while candidates_us.len() < 2_000 && started.elapsed() < Duration::from_secs(1) {
        let synopsis = signature.synopsis_of(VertexId(rng.gen_range(0..vertices)));
        let t = Instant::now();
        black_box(signature.candidates(black_box(&synopsis)));
        candidates_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    metrics.set("index.signature_candidates_us", median(&mut candidates_us));

    let mut probes: Vec<(VertexId, Direction, EdgeTypeId)> = Vec::with_capacity(20_000);
    while probes.len() < 20_000 {
        let v = VertexId(rng.gen_range(0..vertices));
        let direction = if rng.gen_range(0..2) == 0 {
            Direction::Incoming
        } else {
            Direction::Outgoing
        };
        let edges = graph.edges(v, direction);
        if !edges.is_empty() {
            let edge = &edges[rng.gen_range(0..edges.len())];
            probes.push((v, direction, edge.types.types()[0]));
        }
    }
    let neighborhood = &engine.index().neighborhood;
    let mut spill = Vec::new();
    let mut probe_ns = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        for &(v, direction, edge_type) in &probes {
            let found = neighborhood.probe(v, direction, &[edge_type], &mut spill);
            black_box(found.as_slice(&spill).len());
        }
        probe_ns.push(t.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    metrics.set("index.probe_ns", median(&mut probe_ns));

    let mut sorted_list = |len: usize| {
        let mut list: Vec<u32> = (0..len).map(|_| rng.gen_range(0..4 * 4096u32)).collect();
        list.sort_unstable();
        list.dedup();
        list
    };
    let (big_a, big_b, small) = (sorted_list(4096), sorted_list(4096), sorted_list(64));
    let mut out = Vec::with_capacity(4096);
    let mut per_elem = |a: &[u32], b: &[u32]| {
        let mut samples = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..100 {
                amber_util::sorted::intersect_slices_into(black_box(a), black_box(b), &mut out);
                black_box(out.len());
            }
            samples.push(t.elapsed().as_nanos() as f64 / (100 * (a.len() + b.len())) as f64);
        }
        median(&mut samples)
    };
    metrics.set("util.intersect_ns_per_elem", per_elem(&big_a, &big_b));
    metrics.set(
        "util.intersect_gallop_ns_per_elem",
        per_elem(&small, &big_b),
    );
}

/// The offline stage taken apart: parse, multigraph build, each index,
/// snapshot save and load, with the bytes each leaves resident.
pub fn offline_stages(text: &str, metrics: &mut Metrics) -> Result<(), String> {
    fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let result = f();
        (result, t.elapsed().as_secs_f64())
    }
    let (triples, parse_s) = timed(|| rdf_model::parse_ntriples(text));
    let triples = triples.map_err(|e| e.to_string())?;
    let n = triples.len() as f64;
    metrics.set("rdf-model.parse_s", parse_s);
    metrics.set(
        "rdf-model.parse_mb_per_s",
        text.len() as f64 / 1e6 / parse_s,
    );

    let (rdf, build_s) = timed(|| RdfGraph::from_triples(&triples));
    drop(triples);
    metrics.set("multigraph.build_s", build_s);
    metrics.set("multigraph.bytes_per_triple", rdf.heap_size() as f64 / n);

    let (index, index_s) = timed(|| IndexSet::build(&rdf));
    let stats = index.build_stats();
    metrics.set("index.build_s", index_s);
    metrics.set("index.otil_build_s", stats.neighborhood_time.as_secs_f64());
    metrics.set(
        "index.attribute_build_s",
        stats.attribute_time.as_secs_f64(),
    );
    metrics.set(
        "index.signature_build_s",
        stats.signature_time.as_secs_f64(),
    );
    metrics.set("index.bytes_per_triple", index.heap_size() as f64 / n);
    drop(index);

    let (snapshot, save_s) = timed(|| rdf.to_snapshot());
    metrics.set("multigraph.snapshot_save_s", save_s);
    metrics.set(
        "multigraph.snapshot_bytes_per_triple",
        snapshot.len() as f64 / n,
    );
    let (restored, load_s) = timed(|| RdfGraph::from_snapshot(&snapshot));
    metrics.set("multigraph.snapshot_load_s", load_s);
    match restored {
        Ok(graph) if graph.triple_count() == rdf.triple_count() => Ok(()),
        Ok(_) => Err("snapshot round trip lost triples".to_string()),
        Err(e) => Err(format!("snapshot load: {e}")),
    }
}
