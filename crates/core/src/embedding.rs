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

/// The buffers materialization reuses across queries: the assignment of
/// every query vertex and the projected key of the row being emitted.
#[derive(Debug, Default)]
pub struct RowScratch {
    assignment: Vec<Option<VertexId>>,
    key: Vec<VertexId>,
}

/// Materialize bindings (rows of vertex names resolved in the vertex
/// dictionary `vertices`, `Mv⁻¹`) with the reusable buffers of `scratch`.
///
/// * `max` caps the number of emitted rows (`None` = all);
/// * `distinct` deduplicates projected rows (SELECT DISTINCT semantics).
pub fn materialize_bindings(
    qg: &QueryGraph,
    vertices: &Dictionary,
    matches: &[ComponentMatch],
    max: Option<usize>,
    distinct: bool,
    scratch: &mut RowScratch,
) -> Vec<Vec<Box<str>>> {
    scratch.assignment.clear();
    scratch.assignment.resize(qg.vertex_count(), None);
    let mut emit = Emit {
        vertices,
        matches,
        // Which query vertex feeds each output column.
        output: qg.projection(),
        scratch,
        rows: Vec::new(),
        seen: FxHashSet::default(),
        max,
        distinct,
    };
    emit.components(0);
    emit.rows
}

/// The state of one materialization: the nested products are walked
/// depth first, components outside, each solution's satellites inside.
struct Emit<'a> {
    vertices: &'a Dictionary,
    matches: &'a [ComponentMatch],
    output: &'a [QVertexId],
    scratch: &'a mut RowScratch,
    rows: Vec<Vec<Box<str>>>,
    seen: FxHashSet<Vec<VertexId>>,
    max: Option<usize>,
    distinct: bool,
}

impl Emit<'_> {
    /// Depth over components; returns `true` when the row cap was reached.
    fn components(&mut self, depth: usize) -> bool {
        if depth == self.matches.len() {
            return self.row();
        }
        for solution in &self.matches[depth].solutions {
            for (u, v) in &solution.core {
                self.scratch.assignment[u.index()] = Some(*v);
            }
            // Expand satellite sets for this solution.
            if self.satellites(depth, &solution.satellites) {
                return true;
            }
        }
        false
    }

    /// Depth over the satellites of one component solution.
    fn satellites(&mut self, depth: usize, satellites: &[(QVertexId, Vec<VertexId>)]) -> bool {
        let Some(((u, candidates), rest)) = satellites.split_first() else {
            return self.components(depth + 1);
        };
        for &v in candidates {
            self.scratch.assignment[u.index()] = Some(v);
            if self.satellites(depth, rest) {
                return true;
            }
        }
        false
    }

    /// Full assignment: project and emit.
    fn row(&mut self) -> bool {
        let RowScratch { assignment, key } = &mut *self.scratch;
        key.clear();
        key.extend(self.output.iter().map(|&u| {
            assignment
                .get(u.index())
                .copied()
                .flatten()
                .expect("projection validated against pattern variables")
        }));
        if self.distinct && !self.seen.insert(key.clone()) {
            return false;
        }
        let name = |v: VertexId| {
            self.vertices
                .resolve(v.0)
                .expect("vertex id from this graph")
        };
        self.rows
            .push(key.iter().map(|&v| name(v).into()).collect());
        self.max.is_some_and(|m| self.rows.len() >= m)
    }
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
