//! Query pools: candidates derived from the loaded graph, admitted by
//! measured answer size.
//!
//! Queries taken unfiltered from `amber_datagen::WorkloadGenerator` have
//! embedding counts anywhere between 1 and 1e29, and serving one of the
//! large ones materializes rows until the process is killed. So every
//! candidate is first run count-only under a short timeout and enters a
//! pool only if it completed with a row count inside the workload's band.

use amber::{AmberEngine, QueryRequest};
use amber_datagen::{QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::{EdgeTypeId, RdfGraph};
use std::collections::HashSet;
use std::time::Duration;

/// Candidates examined before a pool that is still too small is an error.
pub const MAX_CANDIDATES: usize = 20_000;

/// Budget of the count-only pre-screen of one candidate.
const SCREEN_TIMEOUT: Duration = Duration::from_millis(50);

/// Inclusive band of embedding counts a pool admits.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    pub min: u128,
    pub max: u128,
}

/// One admitted query and its measured embedding count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admitted {
    pub text: String,
    pub rows: u64,
}

/// Run `candidates` through the count-only pre-screen until `max` distinct
/// queries are admitted. Fewer than `min` after [`MAX_CANDIDATES`]
/// candidates (or when the candidates run out) is an error: a pool is never
/// silently smaller than its workload says.
pub fn admit(
    engine: &AmberEngine,
    candidates: impl Iterator<Item = String>,
    band: Band,
    min: usize,
    max: usize,
) -> Result<Vec<Admitted>, String> {
    let mut pool = Vec::with_capacity(max);
    // Alpha-equivalent spellings share one plan and one cached result, so
    // "distinct" is judged on the canonical form.
    let mut seen: HashSet<String> = HashSet::new();
    let mut examined = 0;
    for text in candidates.take(MAX_CANDIDATES) {
        examined += 1;
        let Ok(parsed) = amber_sparql::parse_select(&text) else {
            continue;
        };
        let request = QueryRequest::parsed(&parsed)
            .counting()
            .with_timeout(SCREEN_TIMEOUT);
        let Ok(outcome) = engine.run(&request) else {
            continue;
        };
        if !outcome.status.is_complete()
            || outcome.embedding_count < band.min
            || outcome.embedding_count > band.max
        {
            continue;
        }
        if !seen.insert(amber_sparql::to_sparql(&amber_sparql::canonicalize(
            &parsed,
        ))) {
            continue;
        }
        pool.push(Admitted {
            text,
            rows: outcome.embedding_count as u64,
        });
        if pool.len() == max {
            break;
        }
    }
    if pool.len() < min {
        return Err(format!(
            "pool too small: {} of {min} queries with {}..={} rows admitted from {examined} candidates",
            pool.len(),
            band.min,
            band.max
        ));
    }
    Ok(pool)
}

/// Star and complex walks over the data (paper §7.2), cycling through
/// stars of 4 and 8 and complex shapes of 4 and 6 triple patterns.
pub fn walk_candidates(rdf: &RdfGraph, seed: u64) -> impl Iterator<Item = String> + '_ {
    const SHAPES: [(QueryShape, usize); 4] = [
        (QueryShape::Star, 4),
        (QueryShape::Star, 8),
        (QueryShape::Complex, 4),
        (QueryShape::Complex, 6),
    ];
    let mut generator = WorkloadGenerator::new(rdf, seed);
    (0..).filter_map(move |i: usize| {
        let (shape, size) = SHAPES[i % SHAPES.len()];
        generator
            .generate(&WorkloadConfig::new(shape, size))
            .map(|q| q.text)
    })
}

/// High-fan-out candidates without constants: one scan `?s <p> ?o` per
/// edge type, most frequent first, then 2-ray stars over the 12 most
/// frequent types and 3-ray stars over the 5 most frequent.
pub fn fanout_candidates(rdf: &RdfGraph) -> impl Iterator<Item = String> + '_ {
    let graph = rdf.graph();
    let mut counts = vec![0u64; graph.edge_type_count()];
    for v in graph.vertices() {
        for edge in graph.out_edges(v) {
            for t in edge.types.types() {
                counts[t.index()] += 1;
            }
        }
    }
    let mut by_count: Vec<EdgeTypeId> = (0..counts.len()).map(EdgeTypeId::from_index).collect();
    by_count.sort_by_key(|t| (std::cmp::Reverse(counts[t.index()]), *t));

    let star = move |types: &[EdgeTypeId]| {
        let mut text = String::from("SELECT * WHERE {");
        for (i, t) in types.iter().enumerate() {
            text.push_str(&format!(" ?s <{}> ?o{i} .", rdf.edge_type_name(*t)));
        }
        text.push_str(" }");
        text
    };
    let top = |n: usize| by_count[..n.min(by_count.len())].to_vec();
    let mut stars: Vec<Vec<EdgeTypeId>> = by_count.iter().map(|&t| vec![t]).collect();
    let pairs = top(12);
    for (i, &a) in pairs.iter().enumerate() {
        for &b in &pairs[i + 1..] {
            stars.push(vec![a, b]);
        }
    }
    let triples = top(5);
    for (i, &a) in triples.iter().enumerate() {
        for (j, &b) in triples.iter().enumerate().skip(i + 1) {
            for &c in &triples[j + 1..] {
                stars.push(vec![a, b, c]);
            }
        }
    }
    stars.into_iter().map(move |types| star(&types))
}

/// The pool indices connection `c` of `connections` walks: those ≡ `c`
/// mod `connections`. A shared list walked at an offset would let one
/// connection hit what the other had just inserted.
pub fn partition(len: usize, connections: usize, c: usize) -> Vec<u32> {
    (c..len).step_by(connections).map(|i| i as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_datagen::Benchmark;

    fn engine(seed: u64) -> AmberEngine {
        AmberEngine::from_triples(&Benchmark::Dbpedia.generate(1, seed))
    }

    const SMALL: Band = Band { min: 1, max: 100 };

    #[test]
    fn admitted_queries_are_inside_the_band_and_distinct() {
        let engine = engine(7);
        let band = Band { min: 2, max: 40 };
        let pool = admit(&engine, walk_candidates(engine.rdf(), 7), band, 50, 50).unwrap();
        assert_eq!(pool.len(), 50);
        let mut canonical = HashSet::new();
        for q in &pool {
            let full = engine.run(&QueryRequest::sparql(&q.text)).unwrap();
            assert_eq!(full.embedding_count, u128::from(q.rows));
            assert!((2..=40).contains(&q.rows), "{} rows: {}", q.rows, q.text);
            let parsed = amber_sparql::parse_select(&q.text).unwrap();
            assert!(
                canonical.insert(amber_sparql::to_sparql(&amber_sparql::canonicalize(
                    &parsed
                )))
            );
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_pool() {
        let a = engine(11);
        let b = engine(11);
        let pool_a = admit(&a, walk_candidates(a.rdf(), 3), SMALL, 40, 40).unwrap();
        let pool_b = admit(&b, walk_candidates(b.rdf(), 3), SMALL, 40, 40).unwrap();
        assert_eq!(pool_a, pool_b);
        let pool_c = admit(&a, walk_candidates(a.rdf(), 4), SMALL, 40, 40).unwrap();
        assert_ne!(pool_a, pool_c);
    }

    #[test]
    fn fanout_candidates_are_constant_free_and_admit_by_rows() {
        let engine = engine(5);
        let band = Band {
            min: 100,
            max: 5_000,
        };
        let pool = admit(&engine, fanout_candidates(engine.rdf()), band, 4, 16).unwrap();
        assert!(pool.len() >= 4);
        for q in &pool {
            assert!((100..=5_000).contains(&q.rows));
            let parsed = amber_sparql::parse_select(&q.text).unwrap();
            for p in &parsed.patterns {
                assert_eq!(p.variables().count(), 2, "constant in {}", q.text);
            }
        }
        // Deterministic in the graph alone.
        let again = admit(&engine, fanout_candidates(engine.rdf()), band, 4, 16).unwrap();
        assert_eq!(pool, again);
    }

    #[test]
    fn a_pool_that_cannot_be_filled_is_an_error() {
        let engine = engine(9);
        // No walk over 2,000 entities has a million answers inside 50 ms.
        let band = Band {
            min: 1_000_000_000,
            max: u128::MAX,
        };
        let candidates = walk_candidates(engine.rdf(), 1).take(200);
        let err = admit(&engine, candidates, band, 8, 8).unwrap_err();
        assert!(err.contains("pool too small"), "{err}");
        assert!(err.contains("200 candidates"), "{err}");
    }

    #[test]
    fn partitions_are_disjoint_and_cover_the_pool() {
        let a = partition(7, 2, 0);
        let b = partition(7, 2, 1);
        assert_eq!(a, [0, 2, 4, 6]);
        assert_eq!(b, [1, 3, 5]);
        assert_eq!(partition(5, 1, 0), [0, 1, 2, 3, 4]);
    }
}
