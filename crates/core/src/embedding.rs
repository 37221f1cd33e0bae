//! Combining component matches into final counts and bindings (`GenEmb`).
//!
//! A [`ComponentSolution`](crate::matcher::ComponentSolution) denotes
//! `∏ |V_s|` embeddings (satellite Cartesian product); a query with several
//! connected components denotes the Cartesian product *across* components.
//! Counting is exact and never materializes; materialization streams the
//! nested products and stops at the configured cap.

use crate::matcher::ComponentMatch;
use amber_multigraph::{Dictionary, QVertexId, QueryGraph, VertexId};
use amber_util::FxHashSet;

/// Exact embedding count across components (saturating product).
pub fn total_count(matches: &[ComponentMatch]) -> u128 {
    matches
        .iter()
        .fold(1u128, |acc, m| acc.saturating_mul(m.count))
}

/// Materialize bindings (rows of vertex names resolved in the vertex
/// dictionary `vertices`, `Mv⁻¹`).
///
/// * `max` caps the number of emitted rows (`None` = all);
/// * `distinct` deduplicates projected rows (SELECT DISTINCT semantics).
pub fn materialize_bindings(
    qg: &QueryGraph,
    vertices: &Dictionary,
    matches: &[ComponentMatch],
    max: Option<usize>,
    distinct: bool,
) -> Vec<Vec<Box<str>>> {
    // Which query vertex feeds each output column?
    let output_vertices: Vec<QVertexId> = qg
        .output_vars()
        .iter()
        .map(|name| {
            qg.vertex_by_name(name)
                .expect("projection validated against pattern variables")
        })
        .collect();

    let mut rows: Vec<Vec<Box<str>>> = Vec::new();
    let mut seen: FxHashSet<Vec<VertexId>> = FxHashSet::default();
    let mut assignment: Vec<Option<VertexId>> = vec![None; qg.vertex_count()];

    emit_components(
        qg,
        vertices,
        matches,
        0,
        &output_vertices,
        &mut assignment,
        &mut rows,
        &mut seen,
        max,
        distinct,
    );
    rows
}

/// Depth over components; returns `true` when the row cap was reached.
#[allow(clippy::too_many_arguments)]
fn emit_components(
    qg: &QueryGraph,
    vertices: &Dictionary,
    matches: &[ComponentMatch],
    depth: usize,
    output_vertices: &[QVertexId],
    assignment: &mut Vec<Option<VertexId>>,
    rows: &mut Vec<Vec<Box<str>>>,
    seen: &mut FxHashSet<Vec<VertexId>>,
    max: Option<usize>,
    distinct: bool,
) -> bool {
    if depth == matches.len() {
        // Full assignment: project and emit.
        let key: Vec<VertexId> = output_vertices
            .iter()
            .map(|&u| assignment[u.index()].expect("all component variables assigned"))
            .collect();
        if distinct && !seen.insert(key.clone()) {
            return false;
        }
        let name = |v: VertexId| vertices.resolve(v.0).expect("vertex id from this graph");
        rows.push(key.iter().map(|&v| name(v).into()).collect());
        return max.is_some_and(|m| rows.len() >= m);
    }

    for solution in &matches[depth].solutions {
        for (u, v) in &solution.core {
            assignment[u.index()] = Some(*v);
        }
        // Expand satellite sets for this solution.
        if emit_satellites(
            qg,
            vertices,
            matches,
            depth,
            &solution.satellites,
            0,
            output_vertices,
            assignment,
            rows,
            seen,
            max,
            distinct,
        ) {
            return true;
        }
    }
    false
}

/// Depth over the satellites of one component solution.
#[allow(clippy::too_many_arguments)]
fn emit_satellites(
    qg: &QueryGraph,
    vertices: &Dictionary,
    matches: &[ComponentMatch],
    component_depth: usize,
    satellites: &[(QVertexId, Vec<VertexId>)],
    sat_depth: usize,
    output_vertices: &[QVertexId],
    assignment: &mut Vec<Option<VertexId>>,
    rows: &mut Vec<Vec<Box<str>>>,
    seen: &mut FxHashSet<Vec<VertexId>>,
    max: Option<usize>,
    distinct: bool,
) -> bool {
    if sat_depth == satellites.len() {
        return emit_components(
            qg,
            vertices,
            matches,
            component_depth + 1,
            output_vertices,
            assignment,
            rows,
            seen,
            max,
            distinct,
        );
    }
    let (u, candidates) = &satellites[sat_depth];
    for &v in candidates {
        assignment[u.index()] = Some(v);
        if emit_satellites(
            qg,
            vertices,
            matches,
            component_depth,
            satellites,
            sat_depth + 1,
            output_vertices,
            assignment,
            rows,
            seen,
            max,
            distinct,
        ) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{ComponentMatch, ComponentSolution};

    #[test]
    fn total_count_multiplies_components() {
        let a = ComponentMatch {
            count: 3,
            solutions: vec![],
            timed_out: false,
            nodes: 0,
        };
        let b = ComponentMatch {
            count: 4,
            solutions: vec![],
            timed_out: false,
            nodes: 0,
        };
        assert_eq!(total_count(&[a, b]), 12);
        assert_eq!(total_count(&[]), 1);
    }

    #[test]
    fn zero_component_zeroes_everything() {
        let a = ComponentMatch {
            count: 5,
            solutions: vec![],
            timed_out: false,
            nodes: 0,
        };
        let z = ComponentMatch::default();
        assert_eq!(total_count(&[a, z]), 0);
    }

    #[test]
    fn solution_embedding_count_is_satellite_product() {
        let s = ComponentSolution {
            core: vec![(QVertexId(0), VertexId(0))],
            satellites: vec![
                (QVertexId(1), vec![VertexId(1), VertexId(2)]),
                (QVertexId(2), vec![VertexId(3), VertexId(4), VertexId(5)]),
            ],
        };
        assert_eq!(s.embedding_count(), 6);
    }
}
