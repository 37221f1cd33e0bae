//! CLI driver reproducing the paper's tables and figures.
//!
//! ```text
//! experiments table1 [flags]
//! experiments table4 [flags]
//! experiments table5 [flags]
//! experiments figures --dataset dbpedia|yago|lubm --shape star|complex [flags]
//! experiments all [flags]
//!
//! flags:
//!   --scale N          dataset scale factor        (default 1)
//!   --seed N           RNG seed                    (default 2016)
//!   --queries N        queries per size cell       (default 10)
//!   --sizes a,b,c      query sizes                 (default 10,20,30,40,50)
//!   --timeout-ms N     per-query budget            (default 1000)
//!   --engines a,b      engine filter by name       (default all)
//!   --paper-scale      approximate the paper's setup (hours!)
//! ```

use amber_bench::experiments;
use amber_bench::HarnessConfig;
use amber_datagen::{Benchmark, QueryShape};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    let command = args[0].clone();
    let mut config = HarnessConfig::default();
    let mut dataset: Option<Benchmark> = None;
    let mut shape: Option<QueryShape> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag {
            "--scale" => config.scale = value(&mut i).parse().expect("--scale N"),
            "--seed" => config.seed = value(&mut i).parse().expect("--seed N"),
            "--queries" => config.queries_per_size = value(&mut i).parse().expect("--queries N"),
            "--sizes" => {
                config.sizes = value(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes a,b,c"))
                    .collect()
            }
            "--timeout-ms" => {
                config.timeout =
                    Duration::from_millis(value(&mut i).parse().expect("--timeout-ms N"))
            }
            "--engines" => {
                config.engines = value(&mut i)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--paper-scale" => config = config.clone().paper_scale(),
            "--dataset" => {
                dataset = Some(match value(&mut i).to_ascii_lowercase().as_str() {
                    "dbpedia" => Benchmark::Dbpedia,
                    "yago" => Benchmark::Yago,
                    "lubm" => Benchmark::Lubm,
                    other => {
                        eprintln!("unknown dataset '{other}'");
                        std::process::exit(2);
                    }
                })
            }
            "--shape" => {
                shape = Some(match value(&mut i).to_ascii_lowercase().as_str() {
                    "star" => QueryShape::Star,
                    "complex" => QueryShape::Complex,
                    other => {
                        eprintln!("unknown shape '{other}'");
                        std::process::exit(2);
                    }
                })
            }
            other => {
                eprintln!("unknown flag '{other}'\n{}", usage());
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let output = match command.as_str() {
        "table1" => experiments::table1(&config),
        "table4" => experiments::table4(&config),
        "table5" => experiments::table5(&config),
        "figures" => {
            let dataset = dataset.unwrap_or(Benchmark::Dbpedia);
            let shape = shape.unwrap_or(QueryShape::Star);
            experiments::figures(dataset, shape, &config)
        }
        "all" => experiments::run_all(&config),
        "agreement" => experiments::agreement(&config),
        other => {
            eprintln!("unknown command '{other}'\n{}", usage());
            std::process::exit(2);
        }
    };
    println!("{output}");
}

fn usage() -> &'static str {
    "usage: experiments <table1|table4|table5|figures|agreement|all> \
     [--dataset dbpedia|yago|lubm] [--shape star|complex] [--scale N] [--seed N] \
     [--queries N] [--sizes a,b,c] [--timeout-ms N] \
     [--engines a,b] [--paper-scale]"
}
