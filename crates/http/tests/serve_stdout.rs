//! `amber_serve_http` keeps serving when nobody reads its stdout.
//!
//! The listen address is the binary's one line on stdout. A supervisor
//! may read that line and close the pipe, or never read it at all; a
//! write to the closed pipe must not take the server down. Each test
//! spawns the real binary on a two-triple graph, closes stdout, answers
//! one `/sparql` request with 200, and expects exit status 0 once stdin
//! closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

const GRAPH: &str = "<http://z/a> <http://z/follows> <http://z/b> .\n\
                     <http://z/b> <http://z/follows> <http://z/c> .\n";
const QUERY: &str = "SELECT ?x ?y WHERE { ?x <http://z/follows> ?y . }";
/// How long the server may take to answer, start or drain.
const PATIENCE: Duration = Duration::from_secs(30);

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

/// The binary on the two-triple graph, bound to `addr`, with stdin and
/// stdout piped.
fn spawn(name: &str, addr: &str) -> Spawned {
    let data = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve_stdout_{name}_{}.nt", std::process::id()));
    std::fs::write(&data, GRAPH).expect("write the graph file");
    let child = Command::new(env!("CARGO_BIN_EXE_amber_serve_http"))
        .arg(&data)
        .arg(addr)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn amber_serve_http");
    Spawned { child, data }
}

/// The status code of one `POST /sparql` of [`QUERY`], or `None` when
/// nothing listens at `addr`.
fn sparql_status(addr: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    write!(
        stream,
        "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{QUERY}",
        QUERY.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response.split(' ').nth(1)?.parse().ok()
}

/// Close stdin, the server's signal to drain, and wait for its exit.
fn drain(spawned: &mut Spawned) -> ExitStatus {
    drop(spawned.child.stdin.take());
    let started = Instant::now();
    loop {
        if let Some(status) = spawned.child.try_wait().expect("poll the server") {
            return status;
        }
        assert!(started.elapsed() < PATIENCE, "the server did not drain");
        sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_reader_that_stops_after_the_listen_line_does_not_stop_the_server() {
    let mut spawned = spawn("reader", "127.0.0.1:0");
    let mut line = String::new();
    BufReader::new(spawned.child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the listen line");
    // The reader, and with it the pipe, is gone here.
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("not a listen line: {line:?}"))
        .to_string();
    assert_eq!(sparql_status(&addr), Some(200));
    let status = drain(&mut spawned);
    assert_eq!(status.code(), Some(0), "the server exited with {status}");
}

#[test]
fn a_stdout_closed_before_the_listen_line_does_not_stop_the_server() {
    // Nobody reads the listen line, so the address is fixed in advance:
    // a port the kernel just handed out, released for the server.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("a free loopback port")
        .to_string();
    let mut spawned = spawn("closed", &addr);
    drop(spawned.child.stdout.take());
    let started = Instant::now();
    let status = loop {
        if let Some(status) = sparql_status(&addr) {
            break status;
        }
        if let Some(exit) = spawned.child.try_wait().expect("poll the server") {
            panic!("the server exited with {exit} before it answered");
        }
        assert!(started.elapsed() < PATIENCE, "the server never listened");
        sleep(Duration::from_millis(20));
    };
    assert_eq!(status, 200);
    let status = drain(&mut spawned);
    assert_eq!(status.code(), Some(0), "the server exited with {status}");
}
