//! Matcher latency tracker: runs the AMbER engine over fixed seeded
//! workloads and emits `BENCH_matcher.json` with per-workload p50/p95 so
//! the performance trajectory is recorded in-repo from PR to PR.
//!
//! Usage: `cargo run --release -p amber_bench --bin bench_matcher [out.json]`

use amber::{AmberEngine, ExecOptions, QueryRequest};
use amber_datagen::synthetic::{self, SyntheticConfig};
use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use amber_util::stats::Summary;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

struct WorkloadResult {
    name: &'static str,
    queries: usize,
    timeouts: usize,
    summary: Summary,
}

fn run_workload(
    name: &'static str,
    engine: &AmberEngine,
    rdf: &RdfGraph,
    shape: QueryShape,
    size: usize,
    workload_seed: u64,
    count: usize,
) -> WorkloadResult {
    let options = ExecOptions::benchmark(Duration::from_secs(2));
    let mut generator = WorkloadGenerator::new(rdf, workload_seed);
    let queries = generator.generate_many(&WorkloadConfig::new(shape, size), count);
    let requests: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|q| QueryRequest::parsed(&q.query).with_options(options.clone()))
        .collect();
    // Warm-up pass: run every query once unmeasured, so first-touch costs
    // (page faults, lazy index pages, allocator growth, branch-predictor
    // state) land outside the recorded latencies — without it the p95 of
    // the heavier workloads was dominated by whichever query ran first
    // (22 ms vs a 0.05 ms p50 on lubm_complex_8).
    for request in &requests {
        let _ = engine.run(request);
    }
    let mut latencies_ms = Vec::with_capacity(queries.len());
    let mut timeouts = 0usize;
    for request in &requests {
        let outcome = engine.run(request).expect("generated query executes");
        if outcome.timed_out() {
            timeouts += 1;
        } else {
            latencies_ms.push(outcome.elapsed.as_secs_f64() * 1e3);
        }
    }
    WorkloadResult {
        name,
        queries: queries.len(),
        timeouts,
        summary: Summary::of(&latencies_ms),
    }
}

/// A dense multi-edge synthetic graph (parallel predicates between entity
/// pairs) — the workload the probe-API ablation optimizes for.
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

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string() // empty sample: mean/p50/p95 are NaN
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_matcher.json".to_string());

    let lubm = Arc::new(RdfGraph::from_triples(&Benchmark::Lubm.generate(1, 2016)));
    let lubm_engine = AmberEngine::from_graph(Arc::clone(&lubm));
    let dense = Arc::new(multi_edge_graph());
    let dense_engine = AmberEngine::from_graph(Arc::clone(&dense));

    let results = [
        run_workload(
            "lubm_star_10",
            &lubm_engine,
            &lubm,
            QueryShape::Star,
            10,
            31,
            20,
        ),
        run_workload(
            "lubm_star_20",
            &lubm_engine,
            &lubm,
            QueryShape::Star,
            20,
            32,
            20,
        ),
        run_workload(
            "lubm_complex_8",
            &lubm_engine,
            &lubm,
            QueryShape::Complex,
            8,
            33,
            20,
        ),
        run_workload(
            "lubm_complex_12",
            &lubm_engine,
            &lubm,
            QueryShape::Complex,
            12,
            34,
            20,
        ),
        run_workload(
            "multi_edge_star_8",
            &dense_engine,
            &dense,
            QueryShape::Star,
            8,
            35,
            20,
        ),
        run_workload(
            "multi_edge_complex_6",
            &dense_engine,
            &dense,
            QueryShape::Complex,
            6,
            36,
            20,
        ),
    ];

    let mut json = format!(
        "{{\n  \"benchmark\": \"matcher\",\n  \"commit\": \"{}\",\n  \"unit\": \"ms\",\n  \"workloads\": [\n",
        amber_bench::report::git_sha(),
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"queries\": {}, \"answered\": {}, \"timeouts\": {}, \
             \"mean_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}}}",
            r.name,
            r.queries,
            r.summary.count,
            r.timeouts,
            json_number(r.summary.mean),
            json_number(r.summary.median),
            json_number(r.summary.p95),
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark report");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
