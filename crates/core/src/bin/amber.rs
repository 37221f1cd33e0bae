//! `amber` — command-line front-end for the AMbER engine.
//!
//! ```text
//! amber stats   <data>                      # Table-4 style statistics
//! amber build   <data.nt> <out.snapshot>    # offline stage → binary snapshot
//! amber query   <data> <sparql|-"> [flags]  # run one query
//! amber explain <data> <sparql>             # show the matching plan
//! amber bench   <data> <sparql> [n]         # time one query n times
//!
//! <data> is an N-Triples file or a snapshot produced by `amber build`
//! (detected by magic bytes). <sparql> is a query string or @file.
//!
//! query flags: --timeout-ms N  --limit N  --count
//! ```

use amber::{AmberEngine, ExecOptions, QueryPlan, QueryRequest};
use amber_multigraph::RdfGraph;
use amber_util::heap_size::format_bytes;
use std::process::exit;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("{}", USAGE);
        exit(2);
    }
    let command = args[0].as_str();
    let data_path = &args[1];

    match command {
        "stats" => {
            let engine = load_engine(data_path);
            let stats = engine.rdf().stats();
            println!("triples:     {}", stats.triples);
            println!("vertices:    {}", stats.vertices);
            println!("edges:       {}", stats.edges);
            println!("edge types:  {}", stats.edge_types);
            println!("attributes:  {}", stats.attributes);
            let offline = engine.offline_stats();
            println!(
                "database:    {} (index: {}, built in {:.1?})",
                format_bytes(offline.database_bytes),
                format_bytes(offline.index_bytes),
                offline.index_build_time,
            );
            // Table 5, per stage and per structure. A snapshot skips the
            // first two stages, so they read zero.
            println!("offline stage        time");
            for (stage, time) in offline.stages() {
                println!("  {stage:<18} {time:.1?}");
            }
            println!("resident part        bytes   per triple");
            for (part, bytes) in offline.parts() {
                println!(
                    "  {part:<18} {bytes:>9} {:>8.1}",
                    bytes as f64 / stats.triples.max(1) as f64
                );
            }
        }
        "build" => {
            let Some(out) = args.get(2) else {
                eprintln!("usage: amber build <data.nt> <out.snapshot>");
                exit(2);
            };
            let rdf = load_data(data_path);
            if let Err(e) = rdf.save_snapshot(out) {
                eprintln!("cannot write snapshot: {e}");
                exit(1);
            }
            println!("wrote {} ({} triples)", out, rdf.triple_count());
        }
        "query" => {
            let sparql = read_query(args.get(2));
            let mut options = ExecOptions::default();
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--timeout-ms" => {
                        i += 1;
                        options.timeout = Some(Duration::from_millis(
                            args[i].parse().expect("--timeout-ms N"),
                        ));
                    }
                    "--limit" => {
                        i += 1;
                        options.max_results = Some(args[i].parse().expect("--limit N"));
                    }
                    "--count" => options.count_only = true,
                    other => {
                        eprintln!("unknown flag {other}");
                        exit(2);
                    }
                }
                i += 1;
            }
            let engine = AmberEngine::from_graph(load_data(data_path));
            match engine.run(&QueryRequest::sparql(&sparql).with_options(options)) {
                Ok(outcome) => {
                    if !outcome.bindings.is_empty() {
                        println!("{}", outcome.variables.join("\t"));
                        for row in &outcome.bindings {
                            println!("{}", row.join("\t"));
                        }
                        println!();
                    }
                    println!(
                        "{} embedding(s) in {:.2?}{}",
                        outcome.embedding_count,
                        outcome.elapsed,
                        if outcome.timed_out() {
                            " — TIMED OUT (partial)"
                        } else {
                            ""
                        }
                    );
                }
                Err(e) => {
                    eprintln!("query failed: {e}");
                    exit(1);
                }
            }
        }
        "explain" => {
            let sparql = read_query(args.get(2));
            let engine = AmberEngine::from_graph(load_data(data_path));
            let query = match amber_sparql::parse_select(&sparql) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("{e}");
                    exit(1);
                }
            };
            let plan = match engine.prepare(&query) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("{e}");
                    exit(1);
                }
            };
            print!("{}", QueryPlan::explain_prepared(&plan));
        }
        "bench" => {
            let sparql = read_query(args.get(2));
            let n: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10);
            let engine = AmberEngine::from_graph(load_data(data_path));
            let request = QueryRequest::sparql(&sparql).counting();
            let mut times = Vec::with_capacity(n);
            for _ in 0..n {
                match engine.run(&request) {
                    Ok(outcome) => times.push(outcome.elapsed.as_secs_f64() * 1e3),
                    Err(e) => {
                        eprintln!("query failed: {e}");
                        exit(1);
                    }
                }
            }
            let summary = amber_util::stats::Summary::of(&times);
            println!(
                "{n} runs: mean {:.3} ms, median {:.3} ms, p95 {:.3} ms, min {:.3} ms, max {:.3} ms",
                summary.mean, summary.median, summary.p95, summary.min, summary.max
            );
        }
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            exit(2);
        }
    }
}

const USAGE: &str = "usage: amber <stats|build|query|explain|bench> <data> [args]";

/// Load a data file into an engine. N-Triples goes through
/// [`AmberEngine::load_ntriples`], which times the load stages;
/// snapshots and Turtle arrive as an already-built graph.
fn load_engine(path: &str) -> AmberEngine {
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(engine) = AmberEngine::load_ntriples(&text) {
            return engine;
        }
    }
    AmberEngine::from_graph(load_data(path))
}

/// Load a data file: snapshot (by magic) or N-Triples.
fn load_data(path: &str) -> RdfGraph {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }
    };
    if bytes.starts_with(b"AMBR") {
        match RdfGraph::from_snapshot(&bytes) {
            Ok(rdf) => return rdf,
            Err(e) => {
                eprintln!("cannot load snapshot {path}: {e}");
                exit(1);
            }
        }
    }
    let text = match String::from_utf8(bytes) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("{path} is neither a snapshot nor UTF-8 N-Triples");
            exit(1);
        }
    };
    // Try N-Triples first, then the Turtle subset (prefixed dumps).
    match RdfGraph::parse_ntriples(&text) {
        Ok(rdf) => rdf,
        Err(nt_error) => match RdfGraph::parse_turtle(&text) {
            Ok(rdf) => rdf,
            Err(ttl_error) => {
                eprintln!("cannot parse {path}:");
                eprintln!("  as N-Triples: {nt_error}");
                eprintln!("  as Turtle:    {ttl_error}");
                exit(1);
            }
        },
    }
}

/// A query argument: literal SPARQL, or `@file`.
fn read_query(arg: Option<&String>) -> String {
    let Some(arg) = arg else {
        eprintln!("missing SPARQL query argument");
        exit(2);
    };
    if let Some(path) = arg.strip_prefix('@') {
        match std::fs::read_to_string(path) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("cannot read query file {path}: {e}");
                exit(1);
            }
        }
    } else {
        arg.clone()
    }
}
