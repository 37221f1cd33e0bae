//! The served process holds the engine and nothing else.
//!
//! `amber_serve_http` reads its N-Triples file into one `String`, builds
//! the engine from it and then serves until stdin closes. The text is
//! nearly twice the engine's resident bytes, so a server that kept it
//! would hold about three times what it serves from. This test spawns
//! the real binary on a generated graph, reads its `VmRSS` once it
//! listens, and bounds it by the engine's heap-byte ledger (the same
//! text loaded in-process) plus a fixed allowance for everything else a
//! process holds: code, stacks, allocator slack. The graph is chosen so
//! that its text is at least twice that allowance, so a server that
//! kept the text fails the bound. `VmRSS` is read from procfs, so the
//! test is Linux-only.
#![cfg(target_os = "linux")]

use amber::AmberEngine;
use amber_datagen::Benchmark;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// DBpedia-like, the benchmark's generator and seed.
const SCALE: u32 = 25;
const SEED: u64 = 1;

/// What the serving process may hold beyond the engine's ledger.
const ALLOWANCE_BYTES: u64 = 16 << 20;

/// Kills and reaps the child when dropped, so a failing assertion leaves
/// no process running; removes the graph file too.
struct Spawned {
    child: Child,
    data: PathBuf,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.data);
    }
}

/// `VmRSS` of process `pid`, in bytes.
fn vm_rss(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("procfs status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kib * 1024
}

#[test]
fn the_served_process_holds_the_engine_and_not_its_input_text() {
    let text = rdf_model::write_ntriples(&Benchmark::Dbpedia.generate(SCALE, SEED));
    assert!(
        text.len() as u64 >= 2 * ALLOWANCE_BYTES,
        "the text ({} B) must be at least twice the allowance, or keeping it could pass",
        text.len()
    );
    let ledger = {
        let stats = AmberEngine::load_ntriples(&text)
            .expect("the generated graph loads")
            .offline_stats();
        (stats.database_bytes + stats.index_bytes) as u64
    };
    let data = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve_rss_{}.nt", std::process::id()));
    std::fs::write(&data, &text).expect("write the graph file");
    let text_bytes = text.len() as u64;
    drop(text);

    let child = Command::new(env!("CARGO_BIN_EXE_amber_serve_http"))
        .arg(&data)
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn amber_serve_http");
    let mut spawned = Spawned { child, data };
    let listening = BufReader::new(spawned.child.stdout.take().expect("piped stdout"))
        .lines()
        .map_while(Result::ok)
        .any(|line| line.starts_with("listening on"));
    assert!(listening, "the server exited before listening");

    let rss = vm_rss(spawned.child.id());
    eprintln!(
        "VmRSS {:.1} MiB, ledger {:.1} MiB, text {:.1} MiB",
        rss as f64 / 1048576.0,
        ledger as f64 / 1048576.0,
        text_bytes as f64 / 1048576.0
    );
    assert!(
        rss <= ledger + ALLOWANCE_BYTES,
        "VmRSS {rss} B exceeds the engine's ledger {ledger} B plus {ALLOWANCE_BYTES} B \
         (the input text is {text_bytes} B)"
    );

    // Closing stdin is the server's signal to drain and exit.
    drop(spawned.child.stdin.take());
    let status = spawned.child.wait().expect("wait for the server");
    assert!(status.success(), "the server exited with {status}");
}
