//! `amber` — command-line front-end for the AMbER engine.
//!
//! ```text
//! amber stats   <data>                      # Table-4 style statistics
//! amber build   <data.nt> <out.snapshot>    # offline stage → binary snapshot
//! amber query   <data> <sparql|-"> [flags]  # run one query
//! amber explain <data> <sparql>             # show the matching plan
//! amber bench   <data> <sparql> [n]         # time one query n times
//!
//! <data> is an N-Triples or Turtle file, or a snapshot produced by
//! `amber build` (detected by magic bytes). <sparql> is a query string or
//! @file.
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
            // An empty graph has no per-triple figure.
            println!("resident part        bytes   per triple");
            for (part, bytes) in offline.parts() {
                match stats.triples {
                    0 => println!("  {part:<18} {bytes:>9} {:>8}", "-"),
                    triples => println!(
                        "  {part:<18} {bytes:>9} {:>8.1}",
                        bytes as f64 / triples as f64
                    ),
                }
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
                        let ms = flag_value(&args, i, "--timeout-ms");
                        options.timeout = Some(Duration::from_millis(ms));
                    }
                    "--limit" => {
                        i += 1;
                        options.max_results = Some(flag_value(&args, i, "--limit"));
                    }
                    "--count" => options.count_only = true,
                    other => {
                        eprintln!("unknown flag {other}");
                        exit(2);
                    }
                }
                i += 1;
            }
            let engine = load_engine(data_path);
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
            let engine = load_engine(data_path);
            let plan = match engine.prepare_sparql(&sparql) {
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
            let n: usize = if args.len() > 3 {
                flag_value(&args, 3, "the run count")
            } else {
                10
            };
            if n == 0 {
                eprintln!("the run count must be at least 1\n{USAGE}");
                exit(2);
            }
            let engine = load_engine(data_path);
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

/// Load a data file into an engine. A snapshot arrives as an already-built
/// graph (its first two load stages read 0); text is read once and tried
/// as N-Triples, then as Turtle, each through the engine's own loader,
/// which times the load stages.
fn load_engine(path: &str) -> AmberEngine {
    match read_data(path) {
        Data::Snapshot(rdf) => AmberEngine::from_graph(rdf),
        Data::Text(text) => parse_text(
            path,
            &text,
            AmberEngine::load_ntriples,
            AmberEngine::load_turtle,
        ),
    }
}

/// Load a data file's graph without building the indexes: a snapshot, or
/// N-Triples or Turtle text.
fn load_data(path: &str) -> RdfGraph {
    match read_data(path) {
        Data::Snapshot(rdf) => *rdf,
        Data::Text(text) => parse_text(
            path,
            &text,
            RdfGraph::parse_ntriples,
            RdfGraph::parse_turtle,
        ),
    }
}

/// A data file, read once.
enum Data {
    /// A snapshot image (detected by its magic bytes), restored.
    Snapshot(Box<RdfGraph>),
    /// Anything else, as UTF-8 text.
    Text(String),
}

fn read_data(path: &str) -> Data {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }
    };
    if bytes.starts_with(b"AMBR") {
        return match RdfGraph::from_snapshot(&bytes) {
            Ok(rdf) => Data::Snapshot(Box::new(rdf)),
            Err(e) => {
                eprintln!("cannot load snapshot {path}: {e}");
                exit(1);
            }
        };
    }
    match String::from_utf8(bytes) {
        Ok(text) => Data::Text(text),
        Err(_) => {
            eprintln!("{path} is neither a snapshot nor UTF-8 text");
            exit(1);
        }
    }
}

/// Parse `text` as N-Triples, then (prefixed dumps) as Turtle; when both
/// fail, report both and exit.
fn parse_text<T, N: std::fmt::Display, R: std::fmt::Display>(
    path: &str,
    text: &str,
    ntriples: impl FnOnce(&str) -> Result<T, N>,
    turtle: impl FnOnce(&str) -> Result<T, R>,
) -> T {
    let nt_error = match ntriples(text) {
        Ok(loaded) => return loaded,
        Err(e) => e,
    };
    match turtle(text) {
        Ok(loaded) => loaded,
        Err(ttl_error) => {
            eprintln!("cannot parse {path}:");
            eprintln!("  as N-Triples: {nt_error}");
            eprintln!("  as Turtle:    {ttl_error}");
            exit(1);
        }
    }
}

/// The numeric value of `flag` at `args[i]`; a missing or non-numeric one
/// is a usage error (exit 2).
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    match args.get(i).map(|value| value.parse()) {
        Some(Ok(value)) => value,
        Some(Err(_)) => {
            eprintln!("{flag} takes a number, got '{}'\n{USAGE}", args[i]);
            exit(2);
        }
        None => {
            eprintln!("{flag} takes a number\n{USAGE}");
            exit(2);
        }
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
