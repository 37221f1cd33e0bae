//! The `amber` binary's flag handling: a numeric flag or count with a
//! missing, non-numeric or unusable value is a usage error (exit code 2),
//! never a panic and never a silent default. And its loader: text that
//! only Turtle accepts is loaded and timed like N-Triples.

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

/// `amber stats` on a file only Turtle accepts (its statements end in a
/// bare CR, which N-Triples keeps inside the line) times both load stages,
/// as on N-Triples, and prints a per-triple figure for each part.
#[test]
fn stats_on_turtle_times_the_load_stages() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_bare_cr.ttl");
    let text = "<http://e/a> <http://e/p> <http://e/b> .\r<http://e/b> <http://e/p> \"x\" .\r";
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_amber"))
        .arg("stats")
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("triples:     2\n"), "{stdout}");
    for stage in ["scan_intern", "assemble"] {
        let line = stdout
            .lines()
            .find(|line| line.trim_start().starts_with(stage))
            .unwrap_or_else(|| panic!("no {stage} line in {stdout}"));
        let time = line.trim_start()[stage.len()..].trim();
        assert!(
            !time.starts_with("0ns") && !time.starts_with("0.0ns"),
            "{line}"
        );
    }
    assert!(
        !stdout.contains(" - \n") && !stdout.contains(" -\n"),
        "{stdout}"
    );
}
