//! Graph characterization: the measurements behind Table 4's "different
//! characteristics in terms of number of vertices, edges and distinct
//! predicates" (§7.1).
//!
//! The workload generator and the evaluation both depend on topology —
//! hub-heavy degree distributions make size-50 star queries possible, and
//! predicate skew drives index selectivity — so the harness reports these
//! distributions alongside the raw counts.

use crate::builder::RdfGraph;
use crate::ids::EdgeTypeId;

/// Degree-distribution summary of a data multigraph.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Maximum incident-triple count (edge instances + attributes).
    pub max: usize,
    /// Mean incident-triple count.
    pub mean: f64,
    /// Median incident-triple count.
    pub median: usize,
    /// 99th-percentile incident-triple count.
    pub p99: usize,
    /// Number of vertices with ≥ 50 incident triples (size-50 star seeds).
    pub hubs_50: usize,
}

/// Incident triples of one vertex: edge-type instances in both directions
/// plus attributes (the quantity the §7.2 star generator thresholds on).
pub fn incident_triples(rdf: &RdfGraph, v: crate::ids::VertexId) -> usize {
    let g = rdf.graph();
    g.out_edges(v).len() + g.in_edges(v).len() + g.attributes(v).len()
}

/// Compute the degree distribution.
pub fn degree_stats(rdf: &RdfGraph) -> DegreeStats {
    let g = rdf.graph();
    let mut degrees: Vec<usize> = g.vertices().map(|v| incident_triples(rdf, v)).collect();
    if degrees.is_empty() {
        return DegreeStats {
            vertices: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            p99: 0,
            hubs_50: 0,
        };
    }
    degrees.sort_unstable();
    let n = degrees.len();
    DegreeStats {
        vertices: n,
        max: degrees[n - 1],
        mean: degrees.iter().sum::<usize>() as f64 / n as f64,
        median: degrees[(n - 1) / 2],
        p99: degrees[((n as f64 * 0.99) as usize).min(n - 1)],
        hubs_50: degrees.iter().filter(|&&d| d >= 50).count(),
    }
}

/// Per-predicate usage: `(edge type, instance count)`, descending.
pub fn predicate_histogram(rdf: &RdfGraph) -> Vec<(EdgeTypeId, usize)> {
    let g = rdf.graph();
    let mut counts = vec![0usize; rdf.dictionaries().edge_types.len()];
    for v in g.vertices() {
        for e in g.out_edges(v) {
            counts[e.edge_type().index()] += 1;
        }
    }
    let mut histogram: Vec<(EdgeTypeId, usize)> = counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (EdgeTypeId(i as u32), c))
        .collect();
    histogram.sort_by_key(|&(t, c)| (std::cmp::Reverse(c), t));
    histogram
}

/// Skew measure: the fraction of edge instances carried by the top 10% of
/// predicates (1.0 = maximally skewed, ~0.1 = uniform).
pub fn predicate_skew(rdf: &RdfGraph) -> f64 {
    let histogram = predicate_histogram(rdf);
    let total: usize = histogram.iter().map(|&(_, c)| c).sum();
    if total == 0 || histogram.is_empty() {
        return 0.0;
    }
    let top = histogram.len().div_ceil(10);
    let top_sum: usize = histogram.iter().take(top).map(|&(_, c)| c).sum();
    top_sum as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_graph;
    use crate::RdfGraph;

    #[test]
    fn paper_graph_degrees() {
        let rdf = paper_graph();
        let stats = degree_stats(&rdf);
        assert_eq!(stats.vertices, 9);
        // London (v2) carries 7 incident edge instances — the maximum.
        assert_eq!(stats.max, 7);
        assert_eq!(stats.hubs_50, 0);
        assert!(stats.mean > 0.0);
        assert!(stats.median <= stats.p99);
        assert!(stats.p99 <= stats.max);
    }

    #[test]
    fn incident_triples_counts_attributes() {
        let rdf = paper_graph();
        // Wembley: 1 incoming hasStadium + 1 attribute.
        let wembley = rdf
            .vertex_by_key("http://dbpedia.org/resource/WembleyStadium")
            .unwrap();
        assert_eq!(incident_triples(&rdf, wembley), 2);
    }

    #[test]
    fn histogram_is_sorted_and_complete() {
        let rdf = paper_graph();
        let histogram = predicate_histogram(&rdf);
        assert_eq!(histogram.len(), 9);
        assert!(histogram.windows(2).all(|w| w[0].1 >= w[1].1));
        let total: usize = histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, rdf.graph().edge_instance_count());
        // livedIn (t3) is the most used predicate (3 instances).
        assert_eq!(histogram[0].0, EdgeTypeId(3));
        assert_eq!(histogram[0].1, 3);
    }

    #[test]
    fn skew_bounds() {
        let rdf = paper_graph();
        let skew = predicate_skew(&rdf);
        assert!(skew > 0.0 && skew <= 1.0);
        let empty = RdfGraph::from_triples([]);
        assert_eq!(predicate_skew(&empty), 0.0);
        assert_eq!(degree_stats(&empty).vertices, 0);
    }
}
