//! Markdown rendering of experiment results (the harness prints the same
//! rows/series the paper reports).

use crate::runner::WorkloadOutcome;
use std::fmt::Write as _;

/// Format milliseconds the way the paper's plots read (adaptive precision).
pub fn fmt_ms(ms: f64) -> String {
    if ms.is_nan() {
        "—".to_string()
    } else if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.0} µs", ms * 1000.0)
    }
}

/// Render one workload cell as a markdown table (time + robustness — the
/// paper's sub-figure (a) and (b) merged).
pub fn workload_table(outcome: &WorkloadOutcome) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| Engine | avg time | median | p95 | unanswered | answered/total |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|").unwrap();
    for row in &outcome.rows {
        writeln!(
            out,
            "| {} | {} | {} | {} | {:.1}% | {}/{} |",
            row.engine,
            fmt_ms(row.avg_ms),
            fmt_ms(row.median_ms),
            fmt_ms(row.p95_ms),
            row.unanswered_pct,
            row.answered,
            row.total,
        )
        .unwrap();
    }
    out
}

/// Render a sweep (size → outcome) as one series table per metric, the
/// shape of the paper's figures: (a) average time, (b) % unanswered.
pub fn sweep_tables(title: &str, sweep: &[(usize, WorkloadOutcome)]) -> String {
    let mut out = String::new();
    writeln!(out, "### {title}\n").unwrap();
    if sweep.is_empty() {
        writeln!(out, "_no data (workload generation found no seeds)_").unwrap();
        return out;
    }
    let engines: Vec<&str> = sweep[0].1.rows.iter().map(|r| r.engine.as_str()).collect();

    writeln!(out, "**(a) Average time over answered queries**\n").unwrap();
    write!(out, "| size |").unwrap();
    for e in &engines {
        write!(out, " {e} |").unwrap();
    }
    writeln!(out, "\n|---|{}", "---|".repeat(engines.len())).unwrap();
    for (size, outcome) in sweep {
        write!(out, "| {size} |").unwrap();
        for row in &outcome.rows {
            write!(out, " {} |", fmt_ms(row.avg_ms)).unwrap();
        }
        writeln!(out).unwrap();
    }

    writeln!(out, "\n**(b) Percentage of unanswered queries**\n").unwrap();
    write!(out, "| size |").unwrap();
    for e in &engines {
        write!(out, " {e} |").unwrap();
    }
    writeln!(out, "\n|---|{}", "---|".repeat(engines.len())).unwrap();
    for (size, outcome) in sweep {
        write!(out, "| {size} |").unwrap();
        for row in &outcome.rows {
            write!(out, " {:.1}% |", row.unanswered_pct).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EngineRow;

    fn row(name: &str, avg: f64, unanswered: f64) -> EngineRow {
        EngineRow {
            engine: name.into(),
            avg_ms: avg,
            median_ms: avg,
            p95_ms: avg,
            unanswered_pct: unanswered,
            answered: 9,
            total: 10,
            total_embeddings: 100,
        }
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(f64::NAN), "—");
        assert_eq!(fmt_ms(0.5), "500 µs");
        assert_eq!(fmt_ms(12.34), "12.3 ms");
        assert_eq!(fmt_ms(2500.0), "2.50 s");
    }

    #[test]
    fn tables_render() {
        let outcome = WorkloadOutcome {
            rows: vec![row("AMbER", 1.5, 0.0), row("ScanJoin", 900.0, 40.0)],
        };
        let table = workload_table(&outcome);
        assert!(table.contains("AMbER"));
        assert!(table.contains("40.0%"));

        let sweep = sweep_tables("Fig X", &[(10, outcome.clone()), (20, outcome)]);
        assert!(sweep.contains("### Fig X"));
        assert!(sweep.contains("| 10 |"));
        assert!(sweep.contains("| 20 |"));
        assert!(sweep.contains("(b) Percentage"));
    }
}
