//! The benchmark's contract: workload names, metric names, units and
//! bounds. `BENCHMARK.json` at the repo root is [`manifest_json`] written
//! to a file (`cargo test` asserts they are equal), and a run refuses to
//! report unless it produced exactly the metrics listed here.

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "repeat_hot",
        why: "64 small queries drawn Zipf(1.0) by 4 skewed tenants on 1 connection: every request is a \
              result-cache hit, so http + serve + the hit path are all of the time and matching is bypassed",
    },
    WorkloadSpec {
        name: "unique_cold",
        why: "2 connections each walking their own 384 distinct queries cyclically: more than the \
              256-entry caches hold, so parse, plan, seeds, matching and materialize do the work",
    },
    WorkloadSpec {
        name: "fanout_rows",
        why: "predicate scans and constant-free stars returning 1,000-20,000 rows, cache-resident, \
              round-robin on 1 connection: serialization, socket writes and cached-row memory dominate",
    },
    WorkloadSpec {
        name: "offline_build",
        why: "AmberEngine::load_ntriples of the same graph text repeated on one thread: the paper's \
              Table 5, the write side of the rdf-model, multigraph and index layers",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every workload with `--trace 0`. An operation is one HTTP
/// request on the served workloads and one graph load on `offline_build`.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
    e2e("resident_bytes_per_triple", "bytes", "lower", 0.02),
];

/// Reported by every workload with `--trace 1`. The prefix is the crate
/// (layer) the number belongs to; `e2e.` are user-visible figures that are
/// not steady or not general enough to carry a bound, `bench.` describe
/// the harness itself.
pub const PER_LAYER: [MetricSpec; 59] = [
    layer("e2e.latency_p99_ms", "ms", "lower"),
    layer("e2e.rows_per_s", "1/s", "higher"),
    layer("e2e.load_triples_per_s", "1/s", "higher"),
    layer("http.parse_us", "us", "lower"),
    layer("http.serialize_us", "us", "lower"),
    layer("http.serialize_ns_per_row", "ns", "lower"),
    layer("http.body_bytes_per_row", "bytes", "lower"),
    layer("http.roundtrip_us", "us", "lower"),
    layer("http.socket_overhead_us", "us", "lower"),
    layer("http.ttfb_us", "us", "lower"),
    layer("http.body_read_us", "us", "lower"),
    layer("http.responses_2xx", "count", "higher"),
    layer("http.responses_4xx", "count", "lower"),
    layer("http.responses_5xx", "count", "lower"),
    layer("serve.submit_wait_us", "us", "lower"),
    layer("serve.overhead_us", "us", "lower"),
    layer("serve.queue_wait_us_mean", "us", "lower"),
    layer("serve.burst_drain_rps", "1/s", "higher"),
    layer("serve.shed", "count", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("sparql.parse_us", "us", "lower"),
    layer("sparql.canonicalize_us", "us", "lower"),
    layer("core.run_in_us", "us", "lower"),
    layer("core.prepare_us", "us", "lower"),
    layer("core.count_us", "us", "lower"),
    layer("core.materialize_us", "us", "lower"),
    layer("core.result_hit_us", "us", "lower"),
    layer("core.result_cache_hit_ratio", "ratio", "higher"),
    layer("core.plan_cache_hit_ratio", "ratio", "higher"),
    layer("core.seed_cache_hit_ratio", "ratio", "higher"),
    layer("core.candidate_cache_hit_ratio", "ratio", "higher"),
    layer("core.shared_plan_hit_ratio", "ratio", "higher"),
    layer("core.engine_latency_us_mean", "us", "lower"),
    layer("core.queries_timed_out", "count", "lower"),
    layer("core.cache_bytes", "bytes", "lower"),
    layer("exec.pool_runs", "count", "lower"),
    layer("exec.steals", "count", "lower"),
    layer("exec.nodes_per_request", "count", "lower"),
    layer("index.signature_candidates_us", "us", "lower"),
    layer("index.probe_ns", "ns", "lower"),
    layer("util.intersect_ns_per_elem", "ns", "lower"),
    layer("util.intersect_gallop_ns_per_elem", "ns", "lower"),
    layer("rdf-model.parse_s", "s", "lower"),
    layer("rdf-model.parse_mb_per_s", "MB/s", "higher"),
    layer("multigraph.build_s", "s", "lower"),
    layer("multigraph.bytes_per_triple", "bytes", "lower"),
    layer("index.build_s", "s", "lower"),
    layer("index.otil_build_s", "s", "lower"),
    layer("index.attribute_build_s", "s", "lower"),
    layer("index.signature_build_s", "s", "lower"),
    layer("index.bytes_per_triple", "bytes", "lower"),
    layer("multigraph.snapshot_save_s", "s", "lower"),
    layer("multigraph.snapshot_load_s", "s", "lower"),
    layer("multigraph.snapshot_bytes_per_triple", "bytes", "lower"),
    layer("obs.scrape_us", "us", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.unattributed_us", "us", "lower"),
    layer("bench.samples", "count", "higher"),
    layer("bench.replayed_requests", "count", "higher"),
];

/// The `BENCHMARK.json` this package is written to.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            // The source wraps each `why` over several lines.
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
        })
        .collect();
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name, m.unit, m.better
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
