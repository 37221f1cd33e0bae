//! Workload execution over the engine line-up.

use amber::{ExecOptions, SparqlEngine};
use amber_datagen::{Benchmark, GeneratedQuery};
use amber_multigraph::RdfGraph;
use amber_util::stats::{percentage, Summary};
use std::sync::Arc;
use std::time::Duration;

/// Harness-wide configuration (scales the paper's setup down to one
/// machine; `--paper-scale` raises it).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale factor (see [`Benchmark::generate`]).
    pub scale: u32,
    /// RNG seed for data + workload generation.
    pub seed: u64,
    /// Queries per (shape, size) cell. The paper uses 200.
    pub queries_per_size: usize,
    /// Query sizes to sweep. The paper uses 10..=50 step 10.
    pub sizes: Vec<usize>,
    /// Per-query wall-clock budget. The paper uses 60 s.
    pub timeout: Duration,
    /// Engine-name filter (empty = all engines).
    pub engines: Vec<String>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 1,
            seed: 2016,
            queries_per_size: 10,
            sizes: vec![10, 20, 30, 40, 50],
            timeout: Duration::from_millis(1_000),
            engines: Vec::new(),
        }
    }
}

impl HarnessConfig {
    /// Approach the paper's setup (large data, 200 queries, 60 s budget).
    /// Expect hours of wall-clock, as the authors did.
    pub fn paper_scale(mut self) -> Self {
        self.scale = 20;
        self.queries_per_size = 200;
        self.timeout = Duration::from_secs(60);
        self
    }

    fn engine_enabled(&self, name: &str) -> bool {
        self.engines.is_empty() || self.engines.iter().any(|e| e.eq_ignore_ascii_case(name))
    }
}

/// One engine's aggregate over a workload cell — exactly what the paper
/// plots: average time over *answered* queries plus the percentage of
/// unanswered ones.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Engine display name.
    pub engine: String,
    /// Mean milliseconds over answered queries (`NaN` if none answered).
    pub avg_ms: f64,
    /// Median milliseconds over answered queries.
    pub median_ms: f64,
    /// 95th percentile milliseconds over answered queries.
    pub p95_ms: f64,
    /// % of queries not answered within the budget (the robustness metric).
    pub unanswered_pct: f64,
    /// Number of answered queries.
    pub answered: usize,
    /// Workload size.
    pub total: usize,
    /// Total embeddings across answered queries (sanity/agreement signal).
    pub total_embeddings: u128,
}

/// The result of one workload cell across all engines.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Rows, in engine line-up order.
    pub rows: Vec<EngineRow>,
}

/// Generate a benchmark's data and wrap it for engine sharing.
pub fn load_benchmark(benchmark: Benchmark, config: &HarnessConfig) -> Arc<RdfGraph> {
    let triples = benchmark.generate(config.scale, config.seed);
    Arc::new(RdfGraph::from_triples(&triples))
}

/// Instantiate the configured engines over a shared graph.
pub fn build_engines(
    rdf: Arc<RdfGraph>,
    config: &HarnessConfig,
) -> Vec<Box<dyn SparqlEngine + Send + Sync>> {
    amber_baselines::all_engines(rdf)
        .into_iter()
        .filter(|e| config.engine_enabled(e.name()))
        .collect()
}

/// Run a workload on one engine, collecting per-query times and the
/// unanswered percentage.
pub fn run_engine(
    engine: &dyn SparqlEngine,
    queries: &[GeneratedQuery],
    config: &HarnessConfig,
) -> EngineRow {
    let options = ExecOptions::benchmark(config.timeout);
    let mut answered_ms: Vec<f64> = Vec::with_capacity(queries.len());
    let mut total_embeddings: u128 = 0;
    for q in queries {
        match engine.execute_query(&q.query, &options) {
            Ok(outcome) if !outcome.timed_out() => {
                answered_ms.push(outcome.elapsed.as_secs_f64() * 1e3);
                total_embeddings = total_embeddings.saturating_add(outcome.embedding_count);
            }
            Ok(_) => {} // unanswered within the budget
            Err(e) => panic!(
                "{} failed on generated query: {e}\n{}",
                engine.name(),
                q.text
            ),
        }
    }
    let summary = Summary::of(&answered_ms);
    EngineRow {
        engine: engine.name().to_string(),
        avg_ms: summary.mean,
        median_ms: summary.median,
        p95_ms: summary.p95,
        unanswered_pct: percentage(queries.len() - answered_ms.len(), queries.len()),
        answered: answered_ms.len(),
        total: queries.len(),
        total_embeddings,
    }
}

/// Run a workload cell over every configured engine.
pub fn run_workload(
    engines: &[Box<dyn SparqlEngine + Send + Sync>],
    queries: &[GeneratedQuery],
    config: &HarnessConfig,
) -> WorkloadOutcome {
    WorkloadOutcome {
        rows: engines
            .iter()
            .map(|e| run_engine(e.as_ref(), queries, config))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_datagen::{QueryShape, WorkloadConfig, WorkloadGenerator};

    #[test]
    fn small_cell_runs_all_engines() {
        let config = HarnessConfig {
            scale: 1,
            queries_per_size: 2,
            sizes: vec![5],
            timeout: Duration::from_secs(5),
            ..HarnessConfig::default()
        };
        let rdf = load_benchmark(Benchmark::Lubm, &config);
        let engines = build_engines(Arc::clone(&rdf), &config);
        assert_eq!(engines.len(), 4);

        let mut gen = WorkloadGenerator::new(&rdf, config.seed);
        let queries = gen.generate_many(&WorkloadConfig::new(QueryShape::Star, 5), 2);
        assert_eq!(queries.len(), 2);
        let outcome = run_workload(&engines, &queries, &config);
        assert_eq!(outcome.rows.len(), 4);
        // Generated queries are satisfiable: every engine that answered
        // must report embeddings, and answered engines must agree.
        let counts: Vec<u128> = outcome
            .rows
            .iter()
            .filter(|r| r.answered == r.total)
            .map(|r| r.total_embeddings)
            .collect();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn engine_filter_applies() {
        let config = HarnessConfig {
            engines: vec!["amber".into()],
            ..HarnessConfig::default()
        };
        let rdf = load_benchmark(Benchmark::Lubm, &config);
        let engines = build_engines(rdf, &config);
        assert_eq!(engines.len(), 1);
        assert_eq!(engines[0].name(), "AMbER");
    }
}
