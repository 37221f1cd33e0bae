//! The `amber` binary's flag handling: a numeric flag or count with a
//! missing, non-numeric or unusable value is a usage error (exit code 2),
//! never a panic and never a silent default.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const QUERY: &str = "SELECT * WHERE { ?s <http://e/p> ?o . }";

/// Run `amber query <data> <QUERY> <flags>` on a one-triple graph.
fn query_with(flags: &[&str]) -> std::process::Output {
    amber("query", flags)
}

/// Run `amber <command> <data> <QUERY> <args>` on a one-triple graph.
fn amber(command: &str, args: &[&str]) -> std::process::Output {
    static DATA: OnceLock<PathBuf> = OnceLock::new();
    let data = DATA.get_or_init(|| {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags.nt");
        std::fs::write(&path, "<http://e/a> <http://e/p> <http://e/b> .\n").unwrap();
        path
    });
    Command::new(env!("CARGO_BIN_EXE_amber"))
        .arg(command)
        .arg(data)
        .arg(QUERY)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn a_numeric_flag_without_a_number_is_a_usage_error() {
    for flags in [
        &["--limit"][..],
        &["--limit", "ten"],
        &["--timeout-ms"],
        &["--timeout-ms", "-5"],
        &["--count", "--limit"],
    ] {
        let out = query_with(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.contains("takes a number"), "{flags:?}: {stderr}");
    }
}

#[test]
fn a_bench_count_must_be_a_positive_number() {
    for (count, complaint) in [("0", "at least 1"), ("ten", "takes a number")] {
        let out = amber("bench", &[count]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{count}: {stderr}");
        assert!(!stderr.contains("panicked"), "{count}: {stderr}");
        assert!(stderr.contains(complaint), "{count}: {stderr}");
    }
    let out = amber("bench", &["2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("2 runs: mean "), "{stdout}");
}

#[test]
fn well_formed_flags_still_answer() {
    let out = query_with(&["--limit", "1", "--timeout-ms", "5000"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 embedding(s)"), "{stdout}");
}
