//! Batched-vs-one-shot latency tracker: replays repeated-workload query
//! streams through `run_all` (one warm `QuerySession`: shared arenas +
//! seed cache) and through N sequential `run` calls (fresh
//! state per query, the pre-session behaviour), and emits `BENCH_batch.json`
//! with per-stream totals, the batch/sequential speedup ratio, cache hit
//! rates and arena-reuse numbers — so the batching payoff is recorded
//! in-repo from PR to PR alongside `BENCH_matcher.json`.
//!
//! Usage: `cargo run --release -p amber_bench --bin bench_batch [out.json]`

use amber::{AmberEngine, CancelToken, ExecOptions, QueryRequest};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::{EdgeTypeId, RdfGraph};
use amber_sparql::SelectQuery;
use amber_util::{FxHashMap, Stopwatch};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Per-query budget — generous: these workloads answer in microseconds to
/// low milliseconds; the budget only guards against pathological cases.
const BUDGET: Duration = Duration::from_secs(5);

struct StreamResult {
    name: &'static str,
    distinct: usize,
    repeats: usize,
    queries: usize,
    sequential_ms: f64,
    batch_ms: f64,
    /// Batch with the full PR-5 plan subsystem (plan + result caches) on
    /// top of the seed cache.
    batch_plan_ms: f64,
    /// Batch with only the prepared-plan cache (result cache off) —
    /// isolates plan-derivation reuse from whole-result reuse.
    batch_planonly_ms: f64,
    speedup: f64,
    /// The `plan_cache` cell: plan+result caches vs the same batch with
    /// the plan subsystem off (`batch_ms / batch_plan_ms`).
    plan_speedup: f64,
    /// Plan cache alone vs the plan subsystem off.
    plan_only_speedup: f64,
    /// Batch with the PR-6 resource governor armed (memory budget + live
    /// cancel token) — measures the robustness plumbing's overhead.
    governed_ms: f64,
    /// `batch_ms / governed_ms`: ≥ 0.98 means the governor costs < 2%.
    governed_speedup: f64,
    /// Batch with the telemetry registry forced on (counters, histograms,
    /// per-query delta flushes all live).
    obs_on_ms: f64,
    /// The same batch with `AMBER_OBS=off` semantics forced — every
    /// instrumentation site short-circuits on the gate check.
    obs_off_ms: f64,
    /// `obs_off_ms / obs_on_ms`: ≥ 0.97 means telemetry costs < 3%.
    obs_speedup: f64,
    plan_hit_rate: f64,
    result_hit_rate: f64,
    seed_hit_rate: f64,
    seed_entries: usize,
    arena_peak_bytes: usize,
    arena_reused_bytes: u64,
}

/// The dense multi-edge synthetic graph of `bench_matcher` (parallel
/// predicates between entity pairs) — the workload whose probes take the
/// multi-type spill path.
fn multi_edge_graph() -> RdfGraph {
    let config = SyntheticConfig {
        entity_namespace: "http://bench/e/".into(),
        predicate_namespace: "http://bench/p/".into(),
        entities_per_scale: 4_000,
        resource_predicates: 8,
        literal_predicates: 4,
        mean_out_degree: 8.0,
        attachment_bias: 0.8,
        predicate_skew: 1.0,
        attribute_probability: 0.4,
        max_attributes: 3,
        literal_values: 40,
    };
    RdfGraph::from_triples(&synthetic::generate(&config, 2024))
}

/// The most frequent unordered pair of parallel edge types in `rdf` — the
/// pair that makes handcrafted multi-type queries maximally non-trivial.
fn top_parallel_pair(rdf: &RdfGraph) -> Option<(String, String)> {
    let g = rdf.graph();
    let mut counts: FxHashMap<(EdgeTypeId, EdgeTypeId), usize> = FxHashMap::default();
    for v in g.vertices() {
        for entry in g.out_edges(v) {
            let types = entry.types.types();
            for (i, &a) in types.iter().enumerate() {
                for &b in &types[i + 1..] {
                    *counts.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
    }
    let (&(a, b), _) = counts.iter().max_by_key(|(_, &c)| c)?;
    Some((
        rdf.edge_type_name(a).to_string(),
        rdf.edge_type_name(b).to_string(),
    ))
}

/// Handcrafted multi-type templates over the dense graph: every query
/// carries at least one edge requiring BOTH of the most common parallel
/// predicates, so its probes go down the spill path.
fn multi_type_queries(rdf: &RdfGraph) -> Vec<SelectQuery> {
    let (pa, pb) = top_parallel_pair(rdf).expect("dense graph has parallel multi-edges");
    let texts = [
        // Multi-type satellite edge.
        format!("SELECT * WHERE {{ ?a <{pa}> ?b . ?a <{pb}> ?b . }}"),
        // Multi-type core edge feeding a chain.
        format!("SELECT * WHERE {{ ?a <{pa}> ?b . ?a <{pb}> ?b . ?b <{pa}> ?c . }}"),
        // Chain entered against edge direction.
        format!("SELECT * WHERE {{ ?c <{pb}> ?a . ?a <{pa}> ?b . ?a <{pb}> ?b . }}"),
        // Two multi-type edges sharing the middle variable.
        format!(
            "SELECT * WHERE {{ ?a <{pa}> ?b . ?a <{pb}> ?b . \
             ?b <{pa}> ?c . ?b <{pb}> ?c . }}"
        ),
        // Star around ?a mixing multi-type and single-type rays.
        format!(
            "SELECT * WHERE {{ ?a <{pa}> ?b . ?a <{pb}> ?b . \
             ?a <{pa}> ?c . ?d <{pb}> ?a . }}"
        ),
    ];
    texts
        .iter()
        .map(|t| amber_sparql::parse_select(t).expect("template parses"))
        .collect()
}

/// `distinct` queries repeated `repeats` times, round-robin (a steady
/// repeated-workload stream, the shape batch sessions amortize).
fn repeat_stream(distinct: &[SelectQuery], repeats: usize) -> Vec<SelectQuery> {
    let mut stream = Vec::with_capacity(distinct.len() * repeats);
    for _ in 0..repeats {
        stream.extend(distinct.iter().cloned());
    }
    stream
}

/// One request per query, all under `options`.
fn requests<'a>(queries: &'a [SelectQuery], options: &ExecOptions) -> Vec<QueryRequest<'a>> {
    queries
        .iter()
        .map(|q| QueryRequest::parsed(q).with_options(options.clone()))
        .collect()
}

fn run_stream(
    name: &'static str,
    engine: &AmberEngine,
    distinct: Vec<SelectQuery>,
    repeats: usize,
) -> StreamResult {
    let stream = repeat_stream(&distinct, repeats);
    let options = ExecOptions::benchmark(BUDGET);
    let options_planonly = options
        .clone()
        .with_plan_cache(ExecOptions::DEFAULT_PLAN_CACHE_CAPACITY);
    let options_plan = options_planonly
        .clone()
        .with_result_cache(ExecOptions::DEFAULT_RESULT_CACHE_CAPACITY);
    // The governed mode: same caches as `options`, plus a (never-hit)
    // 4 GiB memory budget and a live (never-fired) cancel token — every
    // cooperative checkpoint pays the poll, no query ever degrades.
    let options_governed = options
        .clone()
        .with_memory_budget(4 << 30)
        .with_cancel(CancelToken::new());
    let plain_requests = requests(&stream, &options);
    let planonly_requests = requests(&stream, &options_planonly);
    let plan_requests = requests(&stream, &options_plan);
    let governed_requests = requests(&stream, &options_governed);

    // Warm the process (page cache, branch predictors, lazy index pages)
    // outside the measured window, identically for both modes.
    for request in &requests(&distinct, &options) {
        let _ = engine.run(request);
    }

    // Alternate the three modes over two rounds and keep each mode's best
    // time: back-to-back measurement on a single-core host otherwise
    // penalizes whichever mode runs later (frequency/cache drift), which
    // is noise on the same order as the effects being measured.
    let mut sequential_ms = f64::INFINITY;
    let mut batch_ms = f64::INFINITY;
    let mut batch_plan_ms = f64::INFINITY;
    let mut batch_planonly_ms = f64::INFINITY;
    let mut governed_ms = f64::INFINITY;
    let mut obs_on_ms = f64::INFINITY;
    let mut obs_off_ms = f64::INFINITY;
    let mut batch = None;
    let mut batch_plan = None;
    for _ in 0..5 {
        // One-shot path: N sequential `run` calls, fresh state per query
        // — exactly what a caller without sessions pays.
        let sw = Stopwatch::start();
        for request in &plain_requests {
            engine.run(request).expect("stream query executes");
        }
        sequential_ms = sequential_ms.min(sw.elapsed_ms());

        // Batched path, fresh session warmed over the stream.
        let sw = Stopwatch::start();
        let outcome = engine.run_all(&plain_requests);
        batch_ms = batch_ms.min(sw.elapsed_ms());
        assert_eq!(outcome.stats.errors, 0, "{name}: batch errored");
        batch = Some(outcome);

        // The PR-5 plan subsystem: prepared-plan cache alone, then plan +
        // verbatim-result caches (fresh session each round, warmed over
        // the stream like the other modes).
        let sw = Stopwatch::start();
        let planonly = engine.run_all(&planonly_requests);
        batch_planonly_ms = batch_planonly_ms.min(sw.elapsed_ms());
        assert_eq!(planonly.stats.errors, 0, "{name}: plan-only batch errored");

        let sw = Stopwatch::start();
        let plan = engine.run_all(&plan_requests);
        batch_plan_ms = batch_plan_ms.min(sw.elapsed_ms());
        assert_eq!(plan.stats.errors, 0, "{name}: plan batch errored");
        batch_plan = Some(plan);

        // Governed batch: the answers must be untouched (no degradation
        // fired), only the checkpoint overhead is being measured.
        let sw = Stopwatch::start();
        let governed = engine.run_all(&governed_requests);
        governed_ms = governed_ms.min(sw.elapsed_ms());
        assert_eq!(governed.stats.errors, 0, "{name}: governed batch errored");
        assert_eq!(
            governed.stats.completed,
            stream.len(),
            "{name}: a 4 GiB budget must never degrade these streams"
        );

        // Telemetry overhead cell: the same cached batch with the metric
        // registry forced on vs forced off, back to back inside the same
        // round so both modes see the same frequency/cache conditions.
        {
            let _on = amber_obs::force_enabled(true);
            let sw = Stopwatch::start();
            let instrumented = engine.run_all(&plain_requests);
            obs_on_ms = obs_on_ms.min(sw.elapsed_ms());
            assert_eq!(instrumented.stats.errors, 0, "{name}: obs-on batch errored");
        }
        {
            let _off = amber_obs::force_enabled(false);
            let sw = Stopwatch::start();
            let dark = engine.run_all(&plain_requests);
            obs_off_ms = obs_off_ms.min(sw.elapsed_ms());
            assert_eq!(dark.stats.errors, 0, "{name}: obs-off batch errored");
        }
    }
    let batch = batch.expect("at least one batch round ran");
    let batch_plan = batch_plan.expect("at least one plan round ran");

    StreamResult {
        name,
        distinct: distinct.len(),
        repeats,
        queries: stream.len(),
        sequential_ms,
        batch_ms,
        batch_plan_ms,
        batch_planonly_ms,
        speedup: sequential_ms / batch_ms,
        plan_speedup: batch_ms / batch_plan_ms,
        plan_only_speedup: batch_ms / batch_planonly_ms,
        governed_ms,
        governed_speedup: batch_ms / governed_ms,
        obs_on_ms,
        obs_off_ms,
        obs_speedup: obs_off_ms / obs_on_ms,
        plan_hit_rate: batch_plan.stats.plans.plans.hit_rate(),
        result_hit_rate: batch_plan.stats.plans.results.hit_rate(),
        seed_hit_rate: batch.stats.seeds.hit_rate(),
        seed_entries: batch.stats.seeds.entries,
        arena_peak_bytes: batch.stats.arena_peak_bytes,
        arena_reused_bytes: batch.stats.arena_reused_bytes,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_batch.json".to_string());

    let lubm = Arc::new(RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 2016)));
    let lubm_engine = AmberEngine::from_graph(Arc::clone(&lubm));
    let dense = Arc::new(multi_edge_graph());
    let dense_engine = AmberEngine::from_graph(Arc::clone(&dense));

    let mut lubm_gen = WorkloadGenerator::new(&lubm, 41);
    let lubm_queries: Vec<SelectQuery> = lubm_gen
        .generate_many(&WorkloadConfig::new(QueryShape::Complex, 8), 12)
        .into_iter()
        .map(|q| q.query)
        .collect();
    let mut dense_gen = WorkloadGenerator::new(&dense, 42);
    let dense_stars: Vec<SelectQuery> = dense_gen
        .generate_many(&WorkloadConfig::new(QueryShape::Star, 8), 12)
        .into_iter()
        .map(|q| q.query)
        .collect();

    let results = [
        run_stream("lubm_complex_repeat", &lubm_engine, lubm_queries, 10),
        run_stream("multi_edge_star_repeat", &dense_engine, dense_stars, 5),
        run_stream(
            "multi_type_repeat",
            &dense_engine,
            multi_type_queries(&dense),
            40,
        ),
    ];

    let mut json = format!(
        "{{\n  \"benchmark\": \"batch\",\n  \"commit\": \"{}\",\n  \"unit\": \"ms\",\n  \"streams\": [\n",
        amber_bench::report::git_sha(),
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"distinct\": {}, \"repeats\": {}, \"queries\": {}, \
             \"sequential_ms\": {:.3}, \"batch_ms\": {:.3}, \
             \"batch_plan_ms\": {:.3}, \"batch_planonly_ms\": {:.3}, \
             \"governed_ms\": {:.3}, \"obs_on_ms\": {:.3}, \"obs_off_ms\": {:.3}, \
             \"speedup\": {:.3}, \"plan_speedup\": {:.3}, \"plan_only_speedup\": {:.3}, \
             \"governed_speedup\": {:.3}, \"obs_speedup\": {:.3}, \
             \"plan_hit_rate\": {:.4}, \"result_hit_rate\": {:.4}, \
             \"seed_hit_rate\": {:.4}, \"seed_entries\": {}, \
             \"arena_peak_bytes\": {}, \"arena_reused_bytes\": {}}}",
            r.name,
            r.distinct,
            r.repeats,
            r.queries,
            r.sequential_ms,
            r.batch_ms,
            r.batch_plan_ms,
            r.batch_planonly_ms,
            r.governed_ms,
            r.obs_on_ms,
            r.obs_off_ms,
            r.speedup,
            r.plan_speedup,
            r.plan_only_speedup,
            r.governed_speedup,
            r.obs_speedup,
            r.plan_hit_rate,
            r.result_hit_rate,
            r.seed_hit_rate,
            r.seed_entries,
            r.arena_peak_bytes,
            r.arena_reused_bytes,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // Regression gate: constant-heavy repeated streams were the one shape
    // where batching *lost* to sequential execution (0.95–0.97× under this
    // protocol before seed probes were session-cached; ≥ 1.015× since).
    // The floor sits 2% under break-even: far above the regression's
    // signature, but tolerant of residual wall-clock noise on shared CI
    // runners that best-of-5 alternation cannot fully remove — a hard
    // >= 1.0 assert was measured to flake on timing hiccups alone.
    const NOISE_FLOOR: f64 = 0.98;
    let constant_heavy = results
        .iter()
        .find(|r| r.name == "lubm_complex_repeat")
        .expect("constant-heavy stream present");
    assert!(
        constant_heavy.speedup >= NOISE_FLOOR,
        "lubm_complex_repeat batch speedup regressed to {:.3} (< {NOISE_FLOOR}): \
         sequential {:.3} ms vs batch {:.3} ms, seed hit rate {:.1}% — \
         the pre-seed-cache regression (≈0.97×) is back",
        constant_heavy.speedup,
        constant_heavy.sequential_ms,
        constant_heavy.batch_ms,
        constant_heavy.seed_hit_rate * 100.0,
    );

    // PR-5 gate: the plan_cache cell. Plan derivation (QueryGraph build +
    // decomposition + ordering + seed probes) was profiled as the largest
    // non-search cost of this constant-heavy stream, and verbatim repeats
    // skip execution entirely — together they must clear 1.3× over the
    // same batch with the plan subsystem off (measured well above; the
    // gate leaves headroom for CI noise, not for regressions).
    const PLAN_FLOOR: f64 = 1.3;
    assert!(
        constant_heavy.plan_speedup >= PLAN_FLOOR,
        "lubm_complex_repeat plan-cache speedup regressed to {:.3} (< {PLAN_FLOOR}): \
         batch {:.3} ms vs plan-cached batch {:.3} ms (plan-only {:.3} ms, \
         plan hit rate {:.1}%, result hit rate {:.1}%)",
        constant_heavy.plan_speedup,
        constant_heavy.batch_ms,
        constant_heavy.batch_plan_ms,
        constant_heavy.batch_planonly_ms,
        constant_heavy.plan_hit_rate * 100.0,
        constant_heavy.result_hit_rate * 100.0,
    );

    // PR-6 gate: an armed-but-idle governor (memory budget + cancel token
    // polled at every checkpoint, no fault ever firing) must cost < 2% on
    // the constant-heavy stream — the same noise floor as the batching
    // gate, so a genuine slowdown in the checkpoint path trips it while
    // CI wall-clock jitter does not.
    assert!(
        constant_heavy.governed_speedup >= NOISE_FLOOR,
        "lubm_complex_repeat governed overhead regressed: governed {:.3} ms vs \
         batch {:.3} ms (ratio {:.3} < {NOISE_FLOOR}) — the cooperative \
         checkpoint (cancel poll + governor measurement) got too expensive",
        constant_heavy.governed_ms,
        constant_heavy.batch_ms,
        constant_heavy.governed_speedup,
    );

    // PR-9 gate: the telemetry subsystem must stay near-free. Relaxed
    // atomic counters plus one delta-flush per query were measured well
    // inside the noise band; a ratio under 0.97 means instrumentation
    // crept onto a hot path (per-node or per-embedding work) instead of
    // staying at query and stage boundaries.
    // The once-per-query delta flush itself (a few dozen relaxed adds,
    // ≈ 0.3 µs) is 3 % of a query that takes 10 µs — which the two dense
    // streams do since components are seeded from incidence lists — so
    // the ratio only condemns a stream whose absolute overhead also
    // exceeds a per-query flush budget. Per-node instrumentation would
    // blow through both on the search-heavy stream.
    const OBS_FLOOR: f64 = 0.97;
    const OBS_FLUSH_BUDGET_US: f64 = 2.0;
    for r in &results {
        let per_query_us = (r.obs_on_ms - r.obs_off_ms) * 1e3 / r.queries as f64;
        assert!(
            r.obs_speedup >= OBS_FLOOR || per_query_us <= OBS_FLUSH_BUDGET_US,
            "{} telemetry overhead regressed: obs-on {:.3} ms vs obs-off {:.3} ms \
             (ratio {:.3} < {OBS_FLOOR}, {per_query_us:.2} µs per query > \
             {OBS_FLUSH_BUDGET_US}) — instrumentation reached a per-node path",
            r.name,
            r.obs_on_ms,
            r.obs_off_ms,
            r.obs_speedup,
        );
    }
}
