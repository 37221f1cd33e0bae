//! `compare <dir-a> <dir-b>`: two sets of end-to-end results side by
//! side, each difference relative to the first set and held against the
//! metric's bound.

use crate::json;
use crate::spec::{END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// `(value, ops_failed)` of every end-to-end metric in `<dir>/<workload>.json`.
fn read(dir: &str, workload: &str) -> Result<(Vec<f64>, f64), String> {
    let path = Path::new(dir).join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |value: Option<&json::Value>, what: &str| {
        value
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{}: no {what}", path.display()))
    };
    let values = END_TO_END
        .iter()
        .map(|m| {
            let metric = doc.get("metrics").and_then(|ms| ms.get(m.name));
            field(metric.and_then(|v| v.get("value")), m.name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((values, field(doc.get("failed"), "failed")?))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn compare(dir_a: &str, dir_b: &str) -> ExitCode {
    let mut beyond = 0;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for workload in &WORKLOADS {
        let (a, b) = match (read(dir_a, workload.name), read(dir_b, workload.name)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        for (i, metric) in END_TO_END.iter().enumerate() {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(metric.better, a.0[i], b.0[i]);
            let verdict = if worse > bound {
                beyond += 1;
                "  BEYOND"
            } else {
                ""
            };
            println!(
                "{:<14} {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}%{verdict}",
                workload.name,
                format!("{} ({})", metric.name, metric.unit),
                a.0[i],
                b.0[i],
                worse * 100.0,
                bound * 100.0
            );
        }
        if a.1 + b.1 > 0.0 {
            beyond += 1;
            println!(
                "{:<14} ops_failed: a {} b {}  BEYOND",
                workload.name, a.1, b.1
            );
        }
    }
    println!("differences are b against a, as a share of a; positive is worse");
    if beyond > 0 {
        println!("{beyond} beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_direction_of_better() {
        assert!((worsening("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening("lower", 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 110.0) + 0.1).abs() < 1e-12);
    }
}
