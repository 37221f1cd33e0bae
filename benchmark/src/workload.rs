//! The workloads: what each one loads the server with, the fixture built
//! before timing (graph, engine, admitted pool, expected answers, request
//! bytes, per-connection schedules) and the closed-loop client that drives
//! it.

use crate::client::{fnv1a, get_request, query_request, Conn, Reply};
use crate::pool::{self, Admitted, Band};
use crate::trace::Recorder;
use amber::{AmberEngine, QueryRequest};
use amber_datagen::Benchmark;
use amber_http::{HttpConfig, HttpServer};
use amber_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload's pool is derived from the graph.
pub enum PoolKind {
    /// Star and complex walks with constants (paper §7.2).
    Walk,
    /// Constant-free scans and stars.
    Fanout,
}

/// The order in which a connection sends its requests.
pub enum Order {
    /// Query rank drawn Zipf(1.0), tenant drawn by weight, per request.
    Zipf,
    /// Connection `c` walks the pool indices ≡ `c` mod connections.
    Partitioned,
    /// One seeded permutation of the pool, walked cyclically.
    RoundRobin,
}

/// What a workload loads the server with. Only inputs differ between
/// workloads; the server always runs its default configuration.
pub struct Load {
    pub name: &'static str,
    /// Client connections = client threads; one request in flight each.
    pub connections: usize,
    /// Tenant names and draw weights.
    pub tenants: &'static [(&'static str, u32)],
    pub kind: PoolKind,
    pub band: Band,
    pub min_queries: usize,
    pub max_queries: usize,
    pub order: Order,
    /// The pool fits the per-tenant result cache and is warmed before
    /// timing, so every timed request is a hit. Otherwise the walk is
    /// longer than every cache and no timed request hits.
    pub cached: bool,
    /// Requests go over HTTP (`offline_build` times graph loads instead and
    /// serves its pool only for the per-layer numbers).
    pub served: bool,
}

const SKEWED_TENANTS: &[(&str, u32)] = &[("t0", 8), ("t1", 4), ("t2", 2), ("t3", 1)];

pub fn load_for(name: &str, smoke: bool) -> Option<Load> {
    let hot = |name, served| Load {
        name,
        connections: 1,
        tenants: SKEWED_TENANTS,
        kind: PoolKind::Walk,
        band: Band { min: 1, max: 100 },
        min_queries: 64,
        max_queries: 64,
        order: Order::Zipf,
        cached: true,
        served,
    };
    Some(match name {
        "repeat_hot" => hot("repeat_hot", true),
        // 384 distinct queries per tenant against 256-entry result and plan
        // caches, 768 against the 256-entry shared plan store.
        "unique_cold" => Load {
            name: "unique_cold",
            connections: 2,
            tenants: &[("c0", 1), ("c1", 1)],
            kind: PoolKind::Walk,
            band: Band { min: 1, max: 1_000 },
            min_queries: 768,
            max_queries: 768,
            order: Order::Partitioned,
            cached: false,
            served: true,
        },
        "fanout_rows" => Load {
            name: "fanout_rows",
            connections: 1,
            tenants: &[("t0", 1)],
            kind: PoolKind::Fanout,
            // The smoke graph is 12 times smaller, and so are its answers.
            band: Band {
                min: if smoke { 80 } else { 1_000 },
                max: 20_000,
            },
            min_queries: if smoke { 8 } else { 32 },
            max_queries: 64,
            order: Order::RoundRobin,
            cached: true,
            served: true,
        },
        "offline_build" => hot("offline_build", false),
        _ => return None,
    })
}

/// What the server must answer to one pool query.
pub struct Expected {
    pub len: usize,
    pub hash: u64,
    pub rows: u64,
}

pub struct Request {
    pub bytes: Vec<u8>,
    pub query: u32,
    pub tenant: u32,
}

/// Everything built before timing starts.
pub struct Fixture {
    pub text: String,
    pub engine: Arc<AmberEngine>,
    pub load_time: Duration,
    pub pool: Vec<Admitted>,
    pub expected: Vec<Expected>,
    pub requests: Vec<Request>,
    /// Per connection: indices into `requests`, walked cyclically.
    pub schedules: Vec<Vec<u32>>,
}

impl Fixture {
    /// The DBpedia-like graph of `scale` as N-Triples text.
    pub fn graph_text(scale: u32, seed: u64) -> String {
        rdf_model::write_ntriples(&Benchmark::Dbpedia.generate(scale, seed))
    }

    pub fn build(load: &Load, text: String, seed: u64) -> Result<Fixture, String> {
        let started = Instant::now();
        let engine = AmberEngine::load_ntriples(&text).map_err(|e| e.to_string())?;
        let load_time = started.elapsed();

        let candidates: Box<dyn Iterator<Item = String>> = match load.kind {
            PoolKind::Walk => Box::new(pool::walk_candidates(engine.rdf(), seed)),
            PoolKind::Fanout => Box::new(pool::fanout_candidates(engine.rdf())),
        };
        let (min, max) = (load.min_queries, load.max_queries);
        let pool = pool::admit(&engine, candidates, load.band, min, max)
            .map_err(|e| format!("{}: {e}", load.name))?;

        let mut expected = Vec::with_capacity(pool.len());
        for q in &pool {
            let request = QueryRequest::sparql(&q.text).with_timeout(Duration::from_secs(2));
            let outcome = engine.run(&request).map_err(|e| e.to_string())?;
            if !outcome.status.is_complete() || outcome.bindings.len() as u64 != q.rows {
                return Err(format!("admitted query did not complete: {}", q.text));
            }
            let body = amber_http::sparql_json(&outcome);
            expected.push(Expected {
                len: body.len(),
                hash: fnv1a(body.as_bytes()),
                rows: q.rows,
            });
        }

        let tenants = load.tenants.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0fde_c0de);
        let (requests, schedules): (Vec<Request>, Vec<Vec<u32>>) = match load.order {
            Order::Zipf => {
                let requests = (0..pool.len() * tenants)
                    .map(|i| request(load, &pool, i / tenants, i % tenants))
                    .collect();
                let ranks: Vec<f64> = (1..=pool.len()).map(|r| 1.0 / r as f64).collect();
                let weights: Vec<f64> = load.tenants.iter().map(|t| f64::from(t.1)).collect();
                let schedule = (0..1 << 16)
                    .map(|_| (draw(&mut rng, &ranks) * tenants + draw(&mut rng, &weights)) as u32)
                    .collect();
                (requests, vec![schedule])
            }
            Order::Partitioned => {
                let n = load.connections;
                let requests = (0..pool.len())
                    .map(|i| request(load, &pool, i, i % n))
                    .collect();
                let schedules = (0..n).map(|c| pool::partition(pool.len(), n, c)).collect();
                (requests, schedules)
            }
            Order::RoundRobin => {
                let requests = (0..pool.len())
                    .map(|i| request(load, &pool, i, 0))
                    .collect();
                let mut schedule: Vec<u32> = (0..pool.len() as u32).collect();
                schedule.shuffle(&mut rng);
                (requests, vec![schedule])
            }
        };
        Ok(Fixture {
            text,
            engine: Arc::new(engine),
            load_time,
            pool,
            expected,
            requests,
            schedules,
        })
    }

    pub fn triples(&self) -> f64 {
        self.engine.rdf().triple_count() as f64
    }

    /// Start the server exactly as `amber_serve_http` does, on a free
    /// loopback port.
    pub fn serve(&self) -> Result<HttpServer, String> {
        let server = Server::start(Arc::clone(&self.engine), ServeConfig::default());
        HttpServer::start(server, HttpConfig::default()).map_err(|e| format!("bind: {e}"))
    }
}

fn request(load: &Load, pool: &[Admitted], query: usize, tenant: usize) -> Request {
    Request {
        bytes: query_request(load.tenants[tenant].0, &pool[query].text),
        query: query as u32,
        tenant: tenant as u32,
    }
}

/// Index drawn with probability proportional to its weight.
fn draw(rng: &mut StdRng, weights: &[f64]) -> usize {
    let mut u = rng.gen_range(0.0..weights.iter().sum::<f64>());
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

/// When a client loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// One pass over this many schedule entries.
    Count(usize),
}

/// What one client connection saw.
#[derive(Default)]
pub struct Tally {
    pub latencies_ns: Vec<u64>,
    /// Completion times since the window's origin.
    pub done_ns: Vec<u64>,
    pub rows: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ns.extend(other.latencies_ns);
        self.done_ns.extend(other.done_ns);
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// One client connection's closed loop over its schedule.
pub struct Client<'a> {
    pub fixture: &'a Fixture,
    pub addr: SocketAddr,
    pub conn: Conn,
    pub schedule: &'a [u32],
    /// Position in the schedule; carries over from warm-up to the window.
    pub position: usize,
    /// Compare the body hash on every `check_every`-th response (length
    /// and status are compared on all of them).
    pub check_every: u64,
    pub abort: &'a AtomicBool,
}

impl<'a> Client<'a> {
    pub fn connect(
        fixture: &'a Fixture,
        addr: SocketAddr,
        connection: usize,
        check_every: u64,
        abort: &'a AtomicBool,
    ) -> Result<Self, String> {
        Ok(Client {
            fixture,
            addr,
            conn: Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
            schedule: &fixture.schedules[connection],
            position: 0,
            check_every,
            abort,
        })
    }

    /// Send requests back to back until `until`. With a recorder, each
    /// request leaves a root span and its write / first-byte / body spans.
    pub fn drive(
        &mut self,
        until: Until,
        origin: Instant,
        mut spans: Option<&mut Recorder>,
    ) -> Tally {
        let mut tally = Tally::default();
        loop {
            match until {
                Until::Deadline(deadline) if Instant::now() >= deadline => break,
                Until::Count(n) if tally.attempted == n as u64 => break,
                _ => {}
            }
            if self.abort.load(Ordering::Relaxed) {
                break;
            }
            let request = &self.fixture.requests[self.schedule[self.position] as usize];
            self.position = (self.position + 1) % self.schedule.len();
            tally.attempted += 1;
            let reply = match self.conn.exchange(&request.bytes) {
                Ok(reply) => reply,
                Err(e) => {
                    tally.fail(format!("I/O: {e}"));
                    // The connection's framing is lost; start a fresh one.
                    match Conn::connect(self.addr) {
                        Ok(conn) => self.conn = conn,
                        Err(e) => {
                            tally.fail(format!("reconnect: {e}"));
                            break;
                        }
                    }
                    continue;
                }
            };
            let expected = &self.fixture.expected[request.query as usize];
            if reply.status != 200 {
                let body = String::from_utf8_lossy(self.conn.body(&reply));
                tally.fail(format!("status {}: {}", reply.status, body.trim()));
                continue;
            }
            if reply.body_len != expected.len {
                tally.fail(format!(
                    "Content-Length {} where {} was expected",
                    reply.body_len, expected.len
                ));
                continue;
            }
            if tally.attempted % self.check_every == 0
                && fnv1a(self.conn.body(&reply)) != expected.hash
            {
                tally.fail("body differs from the expected answer".to_string());
                continue;
            }
            tally.rows += expected.rows;
            tally
                .latencies_ns
                .push((reply.done - reply.sent).as_nanos() as u64);
            tally.done_ns.push((reply.done - origin).as_nanos() as u64);
            if let Some(spans) = spans.as_deref_mut() {
                record_exchange(spans, &reply, tally.attempted as u32 - 1);
            }
        }
        tally
    }
}

fn record_exchange(spans: &mut Recorder, reply: &Reply, request_id: u32) {
    let root = spans.push("http.roundtrip", reply.sent, reply.done, None, request_id);
    spans.push(
        "http.write",
        reply.sent,
        reply.written,
        Some(root),
        request_id,
    );
    spans.push(
        "http.ttfb",
        reply.written,
        reply.first_byte,
        Some(root),
        request_id,
    );
    spans.push(
        "http.body_read",
        reply.first_byte,
        reply.done,
        Some(root),
        request_id,
    );
}

/// Run every connection's client for `window`, all starting together.
pub fn timed_window(clients: &mut [Client<'_>], window: Duration) -> (Tally, Duration) {
    let origin = Instant::now();
    let until = Until::Deadline(origin + window);
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || client.drive(until, origin, None)))
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked"));
        }
    });
    (total, origin.elapsed())
}

/// One `GET /metrics`: every series by its exposition-format name
/// (`amber_cache_hits_total{cache="result"}`), and the round-trip time.
pub fn scrape(conn: &mut Conn) -> Result<(HashMap<String, f64>, Duration), String> {
    let reply = conn
        .exchange(&get_request("/metrics"))
        .map_err(|e| format!("scrape: {e}"))?;
    if reply.status != 200 {
        return Err(format!("scrape: status {}", reply.status));
    }
    let text = std::str::from_utf8(conn.body(&reply)).map_err(|_| "scrape: not UTF-8")?;
    let series = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok((series, reply.done - reply.sent))
}
