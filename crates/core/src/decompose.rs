//! Core / satellite decomposition (paper §3, §5, Fig. 4).
//!
//! Within one connected component of the query multigraph:
//!
//! * a vertex is **core** when its degree (distinct variable neighbours)
//!   exceeds one;
//! * when the component's maximum degree is ≤ 1 (a single vertex or a single
//!   multi-edge), one vertex is *promoted* to core — the paper picks at
//!   random, we pick the structurally richest (highest `r2`, then lowest id)
//!   for determinism;
//! * every remaining vertex is a **satellite** with degree exactly 1,
//!   attached to its unique core neighbour.

use amber_multigraph::{QVertexId, QueryGraph};

/// The decomposition of one connected component. Its buffers are
/// cleared and refilled by [`Self::rebuild`], so an owner that plans query
/// after query reuses them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Decomposition {
    /// Core vertices `U_c`, ascending id.
    core: Vec<QVertexId>,
    /// Satellite vertices `U_s`, ascending id.
    satellites: Vec<QVertexId>,
    /// The satellites attached to each core vertex, ascending: one run per
    /// entry of `core`, cut by `attached_ends`.
    attached: Vec<QVertexId>,
    attached_ends: Vec<u32>,
}

impl Decomposition {
    /// Decompose one connected component (vertex list ascending).
    pub fn of_component(qg: &QueryGraph, component: &[QVertexId]) -> Self {
        let mut decomposition = Self::default();
        decomposition.rebuild(qg, component);
        decomposition
    }

    /// [`Self::of_component`] into this decomposition's buffers, cleared
    /// first.
    pub fn rebuild(&mut self, qg: &QueryGraph, component: &[QVertexId]) {
        debug_assert!(component.windows(2).all(|w| w[0] < w[1]));
        self.core.clear();
        self.satellites.clear();
        self.attached.clear();
        self.attached_ends.clear();
        self.core
            .extend(component.iter().copied().filter(|&u| qg.degree(u) > 1));

        if self.core.is_empty() {
            // ∆(component) ≤ 1: promote one vertex. Deterministic stand-in
            // for the paper's random pick: maximise r2 (incident edge-type
            // instances), tie-break on lower id.
            let promoted = component
                .iter()
                .copied()
                .max_by_key(|&u| (qg.edge_instance_count(u), std::cmp::Reverse(u)))
                .expect("component is non-empty");
            self.core.push(promoted);
        }

        let core = &self.core;
        self.satellites
            .extend(component.iter().copied().filter(|u| !core.contains(u)));

        for &c in &self.core {
            let start = self.attached.len();
            for a in qg.adjacency(c) {
                let n = a.neighbor;
                if self.satellites.binary_search(&n).is_ok() && !self.attached[start..].contains(&n)
                {
                    self.attached.push(n);
                }
            }
            self.attached[start..].sort_unstable();
            self.attached_ends.push(self.attached.len() as u32);
        }
    }

    /// Core vertices `U_c`, ascending id.
    pub fn core(&self) -> &[QVertexId] {
        &self.core
    }

    /// Satellite vertices `U_s`, ascending id.
    pub fn satellites(&self) -> &[QVertexId] {
        &self.satellites
    }

    /// The satellites attached to a core vertex.
    pub fn satellites_of(&self, core_vertex: QVertexId) -> &[QVertexId] {
        match self.core.binary_search(&core_vertex) {
            Ok(0) => &self.attached[..self.attached_ends[0] as usize],
            Ok(i) => {
                &self.attached[self.attached_ends[i - 1] as usize..self.attached_ends[i] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Is `u` a core vertex?
    pub fn is_core(&self, u: QVertexId) -> bool {
        self.core.binary_search(&u).is_ok()
    }

    /// `r1(u)`: the number of satellites attached to a core vertex (§5.3).
    pub fn r1(&self, u: QVertexId) -> usize {
        self.satellites_of(u).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_multigraph::RdfGraph;
    use amber_sparql::parse_select;

    fn build(data: &RdfGraph, sparql: &str) -> QueryGraph {
        QueryGraph::build(&parse_select(sparql).unwrap(), data).unwrap()
    }

    #[test]
    fn paper_figure_4_decomposition() {
        // Fig. 4: U_c = {X1, X3, X5}, U_s = {X0, X2, X4, X6}.
        let rdf = paper_graph();
        let qg = build(&rdf, &paper_query_text());
        let comps = qg.connected_components();
        assert_eq!(comps.len(), 1);
        let d = Decomposition::of_component(&qg, &comps[0]);

        let names = |ids: &[QVertexId]| -> Vec<&str> { ids.iter().map(|&u| qg.name(u)).collect() };
        let mut core = names(d.core());
        core.sort_unstable();
        assert_eq!(core, vec!["X1", "X3", "X5"]);
        let mut sats = names(d.satellites());
        sats.sort_unstable();
        assert_eq!(sats, vec!["X0", "X2", "X4", "X6"]);

        // X1's satellites are {X0, X2, X4}; X3's is {X6}; X5 has none.
        let u = |n: &str| qg.vertex_by_name(n).unwrap();
        let mut x1_sats = names(d.satellites_of(u("X1")));
        x1_sats.sort_unstable();
        assert_eq!(x1_sats, vec!["X0", "X2", "X4"]);
        assert_eq!(names(d.satellites_of(u("X3"))), vec!["X6"]);
        assert!(d.satellites_of(u("X5")).is_empty());
        assert_eq!(d.r1(u("X1")), 3);
        assert_eq!(d.r1(u("X3")), 1);
        assert_eq!(d.r1(u("X5")), 0);
    }

    #[test]
    fn single_edge_component_promotes_one_core() {
        // ∆(Q) = 1: a single multi-edge pair — one becomes core, the other
        // satellite (paper: |U_c| = 1).
        let rdf = paper_graph();
        let qg = build(
            &rdf,
            &format!(
                "SELECT * WHERE {{ ?a <{y}wasBornIn> ?b . }}",
                y = amber_multigraph::paper::PREFIX_Y
            ),
        );
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        assert_eq!(d.core().len(), 1);
        assert_eq!(d.satellites().len(), 1);
        assert_eq!(d.satellites_of(d.core()[0]), &[d.satellites()[0]]);
    }

    #[test]
    fn singleton_component_is_core() {
        let rdf = paper_graph();
        let qg = build(
            &rdf,
            &format!(
                "SELECT * WHERE {{ ?a <{y}hasCapacityOf> \"90000\" . }}",
                y = amber_multigraph::paper::PREFIX_Y
            ),
        );
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        assert_eq!(d.core().len(), 1);
        assert!(d.satellites().is_empty());
        assert!(d.is_core(d.core()[0]));
    }

    #[test]
    fn chain_interior_is_core() {
        // a → b → c → d: b, c core; a, d satellites.
        let rdf = paper_graph();
        let y = amber_multigraph::paper::PREFIX_Y;
        let qg = build(
            &rdf,
            &format!(
                "SELECT * WHERE {{ ?a <{y}livedIn> ?b . ?b <{y}isPartOf> ?c . ?c <{y}hasCapital> ?d . }}"
            ),
        );
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        let u = |n: &str| qg.vertex_by_name(n).unwrap();
        assert!(d.is_core(u("b")));
        assert!(d.is_core(u("c")));
        assert!(!d.is_core(u("a")));
        assert!(!d.is_core(u("d")));
    }
}
