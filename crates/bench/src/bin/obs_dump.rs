//! Telemetry snapshot dumper: runs a small canned workload (a warm batch
//! plus one served request) against the demo
//! graph, then prints the resulting registry snapshot in **both** export
//! formats — Prometheus text and JSON — and self-verifies them: the JSON
//! must round-trip through `amber_bench::minijson` and both renders must
//! carry the catalog's engine/cache/search/serve series. Doubles as the
//! export-format golden test (the same verification runs under
//! `cargo test -p amber_bench`).
//!
//! Usage: `cargo run -p amber_bench --bin obs_dump`

use amber::{AmberEngine, ExecOptions};
use amber_bench::minijson::Json;
use amber_serve::{ServeConfig, Server};
use std::sync::Arc;

const TRIPLES: &str = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/c> <http://e/q> <http://e/a> .\n";

const CHAIN: &str = "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/p> ?z . }";

/// Metric families the canned workload is guaranteed to register — one
/// per instrumented layer (see docs/observability.md for the catalog).
const EXPECTED: &[&str] = &[
    "amber_queries_total",
    "amber_query_latency_us",
    "amber_cache_hits_total",
    "amber_cache_entries",
    "amber_search_nodes_total",
    "amber_serve_requests_total",
    "amber_serve_queue_depth",
    "amber_serve_queue_wait_us",
];

/// Drive every instrumented layer once: a warm batch (plan/result cache
/// flows, search counters) and one served request (admission,
/// queue-wait, served counters).
fn canned_workload() {
    let engine = Arc::new(AmberEngine::load_ntriples(TRIPLES).expect("demo graph parses"));
    let query = amber_sparql::parse_select(CHAIN).expect("canned query parses");
    let options = ExecOptions::batch();
    let batch = engine.execute_batch(&[query.clone(), query], &options);
    assert_eq!(batch.stats.completed, 2, "canned batch completes");

    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    server
        .submit_sparql("tenant-a", CHAIN)
        .expect("admitted")
        .wait()
        .expect("served");
    let report = server.shutdown();
    assert_eq!(report.served(), 1, "canned serve round completes");
}

/// Verify both renders: the JSON parses and both formats carry every
/// expected family (presence, not values — registration is the contract;
/// values vary with cache lanes).
fn verify(prometheus: &str, json: &str) {
    let parsed = Json::parse(json).expect("the JSON render must parse");
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_array)
        .expect("top-level `metrics` array");
    assert!(!metrics.is_empty(), "snapshot must not be empty");
    for name in EXPECTED {
        assert!(
            prometheus.contains(&format!("# TYPE {name}")),
            "Prometheus render missing family {name}"
        );
        assert!(
            metrics
                .iter()
                .any(|m| m.get("name").and_then(Json::as_str) == Some(name)),
            "JSON render missing family {name}"
        );
    }
    // Histogram shape: cumulative buckets with a +Inf terminator and
    // _sum/_count series in Prometheus; count/sum/buckets in JSON.
    assert!(prometheus.contains("amber_query_latency_us_bucket"));
    assert!(prometheus.contains("le=\"+Inf\""));
    assert!(prometheus.contains("amber_query_latency_us_sum"));
    assert!(prometheus.contains("amber_query_latency_us_count"));
    let latency = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("amber_query_latency_us"))
        .expect("latency histogram in JSON");
    assert!(latency.get("count").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0);
    assert!(latency.get("buckets").and_then(Json::as_array).is_some());
}

fn dump() -> (String, String) {
    let _on = amber_obs::force_enabled(true);
    canned_workload();
    let snapshot = amber_obs::snapshot();
    (snapshot.render_prometheus(), snapshot.render_json())
}

fn main() {
    let (prometheus, json) = dump();
    println!("# ---- Prometheus text exposition ----");
    print!("{prometheus}");
    println!("# ---- JSON snapshot ----");
    println!("{json}");
    verify(&prometheus, &json);
    eprintln!("obs_dump: both renders verified");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_snapshot_renders_verify() {
        let (prometheus, json) = dump();
        verify(&prometheus, &json);
    }
}
