//! Serve an N-Triples file over the SPARQL HTTP endpoint.
//!
//! ```text
//! amber_serve_http <data.nt> [addr]
//! ```
//!
//! Binds `addr` (default `127.0.0.1:7878`), prints the resolved listen
//! address, and serves until stdin reaches EOF (Ctrl-D), then drains
//! gracefully and prints the serving report summary.

use amber::AmberEngine;
use amber_http::{HttpConfig, HttpServer};
use amber_serve::{ServeConfig, Server};
use std::io::Read;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: amber_serve_http <data.nt> [addr]");
        std::process::exit(2);
    };
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7878".to_string());

    let data = match std::fs::read_to_string(&path) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let engine = match AmberEngine::load_ntriples(&data) {
        Ok(engine) => Arc::new(engine),
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "loaded {path}: {} triples, {} vertices",
        engine.rdf().triple_count(),
        engine.rdf().graph().vertex_count()
    );

    let server = Server::start(engine, ServeConfig::default());
    let http = match HttpServer::start(
        server,
        HttpConfig {
            addr,
            ..HttpConfig::default()
        },
    ) {
        Ok(http) => http,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            std::process::exit(2);
        }
    };
    println!("listening on http://{}", http.local_addr());
    println!(
        "  curl 'http://{}/sparql?query=SELECT...'",
        http.local_addr()
    );
    println!("serving until stdin closes (Ctrl-D to drain and exit)");

    // Block until EOF on stdin, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let report = http.shutdown();
    eprintln!(
        "drained: {} served ({} dispatched inline, {} queued), {} rejected, \
         {} result-cache hits ({} copied bytes)",
        report.served(),
        report.inline_dispatches,
        report.queued_dispatches,
        report.rejected,
        report.plan_stats.results.hits,
        report.plan_stats.result_hit_copied_bytes,
    );
}
