//! The benchmark's walk pool, rebuilt from the same generator: star and
//! complex walks over the data (paper §7.2), cycling through stars of 4
//! and 8 and complex shapes of 4 and 6 triple patterns, each admitted when
//! a count-only run completes within 50 ms with 1 to 1,000 embeddings and
//! its canonical form is new (`benchmark/src/pool.rs`, `walk_candidates`
//! and `admit`; `tests/benchmark_pools.rs` pins the walk texts).

use amber::{AmberEngine, QueryRequest};
use amber_datagen::{QueryShape, WorkloadConfig, WorkloadGenerator};
use std::collections::HashSet;
use std::time::Duration;

/// Up to `max` admitted walk texts over `engine`'s graph, generated from
/// `seed`.
pub fn walk_pool(engine: &AmberEngine, seed: u64, max: usize) -> Vec<String> {
    const SHAPES: [(QueryShape, usize); 4] = [
        (QueryShape::Star, 4),
        (QueryShape::Star, 8),
        (QueryShape::Complex, 4),
        (QueryShape::Complex, 6),
    ];
    let mut generator = WorkloadGenerator::new(engine.rdf(), seed);
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for i in 0..20_000 {
        let (shape, size) = SHAPES[i % SHAPES.len()];
        let Some(query) = generator.generate(&WorkloadConfig::new(shape, size)) else {
            continue;
        };
        let Ok(parsed) = amber_sparql::parse_select(&query.text) else {
            continue;
        };
        let request = QueryRequest::parsed(&parsed)
            .counting()
            .with_timeout(Duration::from_millis(50));
        let Ok(outcome) = engine.run(&request) else {
            continue;
        };
        if !outcome.status.is_complete() || !(1..=1_000).contains(&outcome.embedding_count) {
            continue;
        }
        if seen.insert(amber_sparql::to_sparql(&amber_sparql::canonicalize(
            &parsed,
        ))) {
            pool.push(query.text);
            if pool.len() == max {
                break;
            }
        }
    }
    pool
}
