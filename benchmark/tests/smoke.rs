//! The benchmark end to end on a small graph: every workload, both
//! modes, every response compared byte for byte, and the names printed
//! held against `BENCHMARK.json`.

use amber_benchmark::json::{self, Value};
use amber_benchmark::spec;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_amber_benchmark");

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names(manifest: &Value, list: &str) -> Vec<String> {
    manifest
        .get(list)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one smoke workload in one mode; return its result line.
fn smoke(workload: &str, trace: &str, out: &Path) -> (Value, String) {
    let output = Command::new(BIN)
        .args(["--smoke", "--seconds", "1", "--seed", "3"])
        .args(["--workload", workload, "--trace", trace, "--out"])
        .arg(out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {stderr}"
    );
    let line = stdout.lines().last().expect("a result line");
    (json::parse(line).unwrap(), stdout)
}

fn check(workload: &str) {
    let manifest = manifest();
    let out = out_dir(workload);
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (result, stdout) = smoke(workload, trace, &out);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(result.as_object().unwrap().len(), 4);

        // Exactly the listed metrics, in the result line and as
        // `name value unit` lines.
        let listed = names(&manifest, list);
        let metrics = result.get("metrics").unwrap().as_object().unwrap();
        let mut reported: Vec<&String> = metrics.keys().collect();
        let mut expected: Vec<&String> = listed.iter().collect();
        reported.sort();
        expected.sort();
        assert_eq!(reported, expected, "{workload} --trace {trace}");
        for entry in manifest.get(list).unwrap().as_array().unwrap() {
            let name = entry.get("name").unwrap().as_str().unwrap();
            let unit = entry.get("unit").unwrap().as_str().unwrap();
            assert_eq!(metrics[name].get("unit").unwrap().as_str(), Some(unit));
            let printed = stdout.lines().any(|line| {
                let mut words = line.split(' ');
                words.next() == Some(name) && words.nth(1) == Some(unit)
            });
            assert!(printed, "{name} is not printed with its unit");
        }
        if trace == "0" {
            for (name, value) in metrics {
                assert!(
                    value.get("value").unwrap().as_f64().unwrap() > 0.0,
                    "{name} is 0"
                );
            }
        }
    }

    // The spans of one request share an id and nest under one parent.
    let trace = std::fs::read_to_string(out.join(format!("{workload}.trace.json"))).unwrap();
    let trace = json::parse(&trace).unwrap();
    let sources = trace.get("sources").unwrap().as_object().unwrap();
    assert_eq!(sources.len(), 3);
    for (source, spans) in sources {
        let spans = spans.as_array().unwrap();
        assert!(!spans.is_empty(), "{source} recorded nothing");
        let field = |span: &Value, key: &str| span.get(key).unwrap().as_f64();
        for span in spans {
            assert!(field(span, "end") >= field(span, "start"));
            let Some(parent) = field(span, "parent") else {
                continue; // a request's root span
            };
            let parent = &spans[parent as usize];
            assert_eq!(field(parent, "id"), field(span, "parent"));
            assert_eq!(
                field(parent, "parent"),
                None,
                "{source}: one level below the root"
            );
            assert_eq!(field(parent, "request_id"), field(span, "request_id"));
            assert!(field(parent, "start") <= field(span, "start"));
            assert!(field(parent, "end") >= field(span, "end"));
        }
    }
}

#[test]
fn repeat_hot_smoke() {
    check("repeat_hot");
}

#[test]
fn unique_cold_smoke() {
    check("unique_cold");
}

#[test]
fn fanout_rows_smoke() {
    check("fanout_rows");
}

#[test]
fn offline_build_smoke() {
    check("offline_build");
}

#[test]
fn benchmark_json_is_the_manifest_and_within_the_contract() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        on_disk,
        spec::manifest_json(),
        "regenerate with `amber_benchmark manifest`"
    );
    assert!(on_disk.len() <= 64 * 1024);

    let manifest = manifest();
    assert_eq!(manifest.as_object().unwrap().len(), 6);
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::HashSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&manifest, list) {
            assert!(name_ok(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    for workload in manifest.get("workloads").unwrap().as_array().unwrap() {
        let why = workload.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let mut has_setup = false;
    for metric in manifest.get("end_to_end").unwrap().as_array().unwrap() {
        assert!(unit_ok(metric.get("unit").unwrap().as_str().unwrap()));
        let bound = metric.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        has_setup |= metric.get("name").unwrap().as_str() == Some("setup_s")
            && metric.get("unit").unwrap().as_str() == Some("s")
            && metric.get("better").unwrap().as_str() == Some("lower");
    }
    assert!(has_setup);
    for metric in manifest.get("per_layer").unwrap().as_array().unwrap() {
        assert!(unit_ok(metric.get("unit").unwrap().as_str().unwrap()));
        assert_eq!(metric.as_object().unwrap().len(), 3);
    }
    assert!(names(&manifest, "per_layer").len() <= 128);
}

#[test]
fn compare_holds_differences_against_the_bounds() {
    let dir_a = out_dir("compare_a");
    let dir_b = out_dir("compare_b");
    let result = |throughput: f64| {
        format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
             \"setup_s\": {{\"value\": 2.0, \"unit\": \"s\"}}, \
             \"throughput_ops_s\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}, \
             \"latency_p50_ms\": {{\"value\": 0.5, \"unit\": \"ms\"}}, \
             \"peak_rss_mib\": {{\"value\": 200.0, \"unit\": \"MiB\"}}, \
             \"resident_bytes_per_triple\": {{\"value\": 154.0, \"unit\": \"bytes\"}}}}}}\n"
        )
    };
    for dir in [&dir_a, &dir_b] {
        std::fs::create_dir_all(dir).unwrap();
        for workload in &spec::WORKLOADS {
            std::fs::write(dir.join(format!("{}.json", workload.name)), result(1000.0)).unwrap();
        }
    }
    let compare = |a: &Path, b: &Path| {
        Command::new(BIN)
            .arg("compare")
            .arg(a)
            .arg(b)
            .output()
            .unwrap()
    };
    let same = compare(&dir_a, &dir_b);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Half the throughput on one workload is beyond any bound.
    std::fs::write(dir_b.join("fanout_rows.json"), result(500.0)).unwrap();
    let worse = compare(&dir_a, &dir_b);
    let table = String::from_utf8_lossy(&worse.stdout);
    assert_eq!(worse.status.code(), Some(1), "{table}");
    assert!(
        table.contains("+50.00%") && table.contains("BEYOND"),
        "{table}"
    );
    // The other way round it is an improvement.
    assert!(compare(&dir_b, &dir_a).status.success());
}
