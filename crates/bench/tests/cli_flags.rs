//! The `experiments` binary's flag handling: a numeric flag with a
//! malformed value is a usage error (exit code 2), never a panic.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn a_malformed_number_is_a_usage_error() {
    for (flag, raw) in [
        ("--scale", "x"),
        ("--seed", "-1"),
        ("--queries", "ten"),
        ("--sizes", "1,,2"),
        ("--timeout-ms", "1.5"),
    ] {
        let out = experiments(&["table1", flag, raw]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {raw}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {raw}: {stderr}");
        assert!(stderr.contains("takes a number"), "{flag} {raw}: {stderr}");
    }
}

#[test]
fn table5_prints_the_resident_bytes_table() {
    let out = experiments(&["table5", "--scale", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Resident bytes per triple"), "{stdout}");
    assert!(stdout.contains("| DBPEDIA |"), "{stdout}");
}
