//! `bench_check` — the CI perf-regression gate.
//!
//! Compares freshly-generated `BENCH_*.json` reports against the
//! *committed* baselines on **hardware-independent** metrics only:
//! answered-query rates, cache hit rates, deterministic kernel hit
//! counts and search-tree node counts. Wall-clock milliseconds are deliberately ignored — CI
//! runners are shared and core-starved, so time regressions there are
//! noise, while the gated metrics only move when the *code's behaviour*
//! changes.
//!
//! Any metric regressing by more than 10% (relative) fails the build.
//! Intentional behaviour changes refresh the committed baselines in the
//! same PR, which is exactly the review surface we want: a perf-relevant
//! diff must carry its new numbers.
//!
//! ```text
//! bench_check [--baseline DIR] [--fresh DIR]   (both default to ".")
//! ```
//!
//! Exit status: 0 when every check passes, 1 otherwise.

use amber_bench::minijson::Json;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Relative regression tolerance on every gated metric.
const TOLERANCE: f64 = 0.10;

/// One comparison outcome.
struct Check {
    file: &'static str,
    subject: String,
    metric: String,
    baseline: f64,
    fresh: f64,
    ok: bool,
}

impl Check {
    fn row(&self) -> String {
        format!(
            "{} {:<28} {:<18} baseline {:>10.3}  fresh {:>10.3}  {}",
            if self.ok { "PASS" } else { "FAIL" },
            self.subject,
            self.metric,
            self.baseline,
            self.fresh,
            if self.ok { "" } else { "← regression > 10%" },
        )
    }
}

/// How a metric may move before it counts as a regression.
enum Direction {
    /// Lower fresh values regress (rates, speedups, counts of good things).
    HigherIsBetter,
    /// Any drift beyond the tolerance regresses (deterministic quantities
    /// like node or hit counts, which should only move when behaviour
    /// does).
    Deterministic,
}

/// Gate an overhead *ratio* (off_ms / on_ms): anything above 1.0 in the
/// committed baseline is best-of-alternation noise, not a quality bar, so
/// the baseline is clamped to 1.0 before the 10% tolerance — otherwise a
/// noise-high committed value (say 1.12) would demand ≥ 1.01 of every
/// fresh run and turn the check flaky. The real floor (≥ 0.97) is
/// hard-asserted inside the emitting binary.
fn check_overhead_ratio(
    checks: &mut Vec<Check>,
    file: &'static str,
    subject: &str,
    metric: &'static str,
    baseline: &Json,
    fresh: &Json,
) {
    let Some(base) = baseline.get(metric).and_then(Json::as_f64) else {
        return; // metric added by this PR; gated once the baseline has it
    };
    let Some(new) = fresh.get(metric).and_then(Json::as_f64) else {
        checks.push(Check {
            file,
            subject: subject.to_string(),
            metric: format!("{metric} (missing!)"),
            baseline: base,
            fresh: f64::NAN,
            ok: false,
        });
        return;
    };
    let pinned = base.min(1.0);
    checks.push(Check {
        file,
        subject: subject.to_string(),
        metric: metric.to_string(),
        baseline: pinned,
        fresh: new,
        ok: within(&Direction::HigherIsBetter, pinned, new),
    });
}

fn within(direction: &Direction, baseline: f64, fresh: f64) -> bool {
    match direction {
        Direction::HigherIsBetter => fresh >= baseline * (1.0 - TOLERANCE),
        Direction::Deterministic => {
            let slack = (baseline.abs() * TOLERANCE).max(2.0);
            (fresh - baseline).abs() <= slack
        }
    }
}

/// Compare one numeric metric of matched baseline/fresh entries.
#[allow(clippy::too_many_arguments)]
fn check_metric(
    checks: &mut Vec<Check>,
    file: &'static str,
    subject: &str,
    metric: &str,
    baseline: &Json,
    fresh: &Json,
    direction: Direction,
    skip_zero_baseline: bool,
) {
    let Some(base) = baseline.get(metric).and_then(Json::as_f64) else {
        // Metric not in the baseline yet (added by this PR): nothing to
        // gate against until the baseline is refreshed.
        return;
    };
    let Some(new) = fresh.get(metric).and_then(Json::as_f64) else {
        checks.push(Check {
            file,
            subject: subject.to_string(),
            metric: format!("{metric} (missing!)"),
            baseline: base,
            fresh: f64::NAN,
            ok: false,
        });
        return;
    };
    if skip_zero_baseline && base == 0.0 {
        return;
    }
    checks.push(Check {
        file,
        subject: subject.to_string(),
        metric: metric.to_string(),
        baseline: base,
        fresh: new,
        ok: within(&direction, base, new),
    });
}

/// Index an array of objects by a composite key.
fn index_by<'a>(items: &'a [Json], key_fields: &[&str]) -> Vec<(String, &'a Json)> {
    items
        .iter()
        .map(|item| {
            let key = key_fields
                .iter()
                .map(|f| match item.get(f) {
                    Some(Json::String(s)) => s.clone(),
                    Some(Json::Number(n)) => format!("{n}"),
                    _ => "?".to_string(),
                })
                .collect::<Vec<_>>()
                .join("/");
            (key, item)
        })
        .collect()
}

/// Compare every matched entry of `section` with `compare`.
fn check_section(
    checks: &mut Vec<Check>,
    file: &'static str,
    baseline: &Json,
    fresh: &Json,
    section: &str,
    key_fields: &[&str],
    compare: impl Fn(&mut Vec<Check>, &str, &Json, &Json),
) {
    let base_items = baseline
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let fresh_items = fresh.get(section).and_then(Json::as_array).unwrap_or(&[]);
    let fresh_index = index_by(fresh_items, key_fields);
    for (key, base_item) in index_by(base_items, key_fields) {
        match fresh_index.iter().find(|(k, _)| *k == key) {
            Some((_, fresh_item)) => compare(checks, &key, base_item, fresh_item),
            None => checks.push(Check {
                file,
                subject: key,
                metric: "entry (missing!)".to_string(),
                baseline: 1.0,
                fresh: f64::NAN,
                ok: false,
            }),
        }
    }
}

fn check_matcher(checks: &mut Vec<Check>, baseline: &Json, fresh: &Json) {
    check_section(
        checks,
        "BENCH_matcher.json",
        baseline,
        fresh,
        "workloads",
        &["name"],
        |checks, key, base, new| {
            // Answered-query rate: the paper's robustness metric, and the
            // only hardware-independent column this tracker has.
            let rate = |item: &Json| -> Option<f64> {
                let answered = item.get("answered")?.as_f64()?;
                let queries = item.get("queries")?.as_f64()?;
                (queries > 0.0).then(|| answered / queries)
            };
            if let (Some(base_rate), Some(fresh_rate)) = (rate(base), rate(new)) {
                checks.push(Check {
                    file: "BENCH_matcher.json",
                    subject: key.to_string(),
                    metric: "answered_rate".to_string(),
                    baseline: base_rate,
                    fresh: fresh_rate,
                    ok: within(&Direction::HigherIsBetter, base_rate, fresh_rate),
                });
            }
        },
    );
}

fn check_batch(checks: &mut Vec<Check>, baseline: &Json, fresh: &Json) {
    check_section(
        checks,
        "BENCH_batch.json",
        baseline,
        fresh,
        "streams",
        &["name"],
        |checks, key, base, new| {
            for metric in ["seed_hit_rate", "plan_hit_rate", "result_hit_rate"] {
                check_metric(
                    checks,
                    "BENCH_batch.json",
                    key,
                    metric,
                    base,
                    new,
                    Direction::HigherIsBetter,
                    true, // a 0.0 baseline rate means "not applicable here"
                );
            }
            // Overhead cells, both hard-asserted in-binary: PR-6's
            // batch_ms / governed_ms (< 2% governor overhead keeps it
            // ≥ 0.98) and PR-9's obs_off_ms / obs_on_ms (< 3% telemetry
            // overhead keeps it ≥ 0.97).
            for metric in ["governed_speedup", "obs_speedup"] {
                check_overhead_ratio(checks, "BENCH_batch.json", key, metric, base, new);
            }
        },
    );
}

fn check_kernels(checks: &mut Vec<Check>, baseline: &Json, fresh: &Json) {
    check_section(
        checks,
        "BENCH_kernels.json",
        baseline,
        fresh,
        "cases",
        &["op", "small", "ratio"],
        |checks, key, base, new| {
            // Intersection hit counts are deterministic functions of the
            // generated inputs; strategy selection depends only on sizes.
            check_metric(
                checks,
                "BENCH_kernels.json",
                key,
                "hits",
                base,
                new,
                Direction::Deterministic,
                false,
            );
            let base_strategy = base.get("strategy").and_then(Json::as_str);
            let fresh_strategy = new.get("strategy").and_then(Json::as_str);
            if let (Some(b), Some(f)) = (base_strategy, fresh_strategy) {
                if b != f {
                    checks.push(Check {
                        file: "BENCH_kernels.json",
                        subject: key.to_string(),
                        metric: format!("strategy ({b} → {f})"),
                        baseline: 0.0,
                        fresh: 1.0,
                        ok: false,
                    });
                }
            }
        },
    );
}

fn check_serve(checks: &mut Vec<Check>, baseline: &Json, fresh: &Json) {
    check_section(
        checks,
        "BENCH_serve.json",
        baseline,
        fresh,
        "serving",
        &["name"],
        |checks, key, base, new| {
            // Fairness and cache ratios: deterministic replays, so they
            // only move when dispatch or cache behaviour changes.
            // PR-9 overhead cell (the obs_overhead entry): telemetry
            // on-vs-off ratio, also hard-asserted ≥ 0.97 in-binary.
            check_overhead_ratio(checks, "BENCH_serve.json", key, "obs_speedup", base, new);
            for metric in ["light_service_headroom", "result_hit_rate"] {
                check_metric(
                    checks,
                    "BENCH_serve.json",
                    key,
                    metric,
                    base,
                    new,
                    Direction::HigherIsBetter,
                    true, // absent/zero in the concurrent_streams entry
                );
            }
            // Exact counter: served volume (the zero-copy byte gauge is
            // hard-asserted to 0 inside bench_serve itself).
            check_metric(
                checks,
                "BENCH_serve.json",
                key,
                "requests",
                base,
                new,
                Direction::Deterministic,
                false,
            );
            // Request-lifecycle counters (the request_lifecycle entry):
            // exact deterministic replays — shed volume, breaker trips and
            // fast-fails, governor-driven degradation. Hardware-independent
            // by construction (zero budgets and byte quotas, not timing).
            // HTTP front-end counters (the http_overhead entry): served
            // volume over the wire, how many of those requests ran inline
            // on the connection thread (all of them: one connection never
            // contends), result-cache hits for the repeat-heavy stream, and
            // the copied-bytes gauge (also hard-asserted to 0 inside
            // bench_serve; wall times are logged, not gated).
            for metric in [
                "deadline_shed",
                "breaker_trips",
                "breaker_fast_fails",
                "governor_degradation_steps",
                "governed_dispatches",
                "http_served",
                "http_result_hits",
                "http_copied_bytes",
                "inline_dispatches",
            ] {
                check_metric(
                    checks,
                    "BENCH_serve.json",
                    key,
                    metric,
                    base,
                    new,
                    Direction::Deterministic,
                    false,
                );
            }
        },
    );
}

fn load(dir: &Path, name: &str) -> Option<Json> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    match Json::parse(&text) {
        Ok(json) => Some(json),
        Err(e) => {
            eprintln!("bench_check: cannot parse {}: {e}", path.display());
            exit(1);
        }
    }
}

fn main() {
    let mut baseline_dir = PathBuf::from(".");
    let mut fresh_dir = PathBuf::from(".");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let operand = |i: usize| -> &str {
            args.get(i).map(String::as_str).unwrap_or_else(|| {
                eprintln!("usage: bench_check [--baseline DIR] [--fresh DIR]");
                exit(2);
            })
        };
        match args[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_dir = PathBuf::from(operand(i));
            }
            "--fresh" => {
                i += 1;
                fresh_dir = PathBuf::from(operand(i));
            }
            other => {
                eprintln!("usage: bench_check [--baseline DIR] [--fresh DIR] (got {other})");
                exit(2);
            }
        }
        i += 1;
    }

    type Checker = fn(&mut Vec<Check>, &Json, &Json);
    let trackers: [(&str, Checker); 4] = [
        ("BENCH_matcher.json", check_matcher),
        ("BENCH_batch.json", check_batch),
        ("BENCH_kernels.json", check_kernels),
        ("BENCH_serve.json", check_serve),
    ];

    let mut checks: Vec<Check> = Vec::new();
    let mut compared_files = 0;
    for (name, checker) in trackers {
        let Some(baseline) = load(&baseline_dir, name) else {
            println!("skip {name}: no committed baseline (new tracker?)");
            continue;
        };
        let Some(fresh) = load(&fresh_dir, name) else {
            eprintln!(
                "bench_check: fresh report {name} missing in {}",
                fresh_dir.display()
            );
            exit(1);
        };
        compared_files += 1;
        checker(&mut checks, &baseline, &fresh);
    }

    let failures = checks.iter().filter(|c| !c.ok).count();
    let mut current_file = "";
    for check in &checks {
        if check.file != current_file {
            current_file = check.file;
            println!("── {current_file}");
        }
        println!("  {}", check.row());
    }
    println!(
        "bench_check: {} checks over {compared_files} reports, {failures} regression(s) (tolerance {:.0}%)",
        checks.len(),
        TOLERANCE * 100.0,
    );
    if failures > 0 {
        exit(1);
    }
}
