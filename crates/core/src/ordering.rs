//! Core-vertex ordering heuristics (paper §5.3, `VertexOrdering`).
//!
//! Two ranking functions drive the search order:
//!
//! * `r1(u)` — number of satellites attached to `u`: a satellite-rich vertex
//!   is "rich in structure" and seeds the recursion with few candidates;
//! * `r2(u) = Σ_j |σ(u)_j|` — total incident edge-type instances.
//!
//! The order starts from the best-ranked core vertex and grows **connected**:
//! every subsequent vertex is adjacent to an already-ordered one. When the
//! query has no satellites at all, `r2` takes priority over `r1`; ties fall
//! to the lower-priority rank, then to the smaller vertex id (determinism).

use crate::decompose::Decomposition;
use amber_multigraph::{QVertexId, QueryGraph};

/// Rank pair for one vertex under the applicable priority.
fn rank(
    qg: &QueryGraph,
    decomp: &Decomposition,
    u: QVertexId,
    satellite_first: bool,
) -> (usize, usize) {
    let r1 = decomp.r1(u);
    let r2 = qg.edge_instance_count(u);
    if satellite_first {
        (r1, r2)
    } else {
        (r2, r1)
    }
}

/// Order the core vertices of one decomposed component (`U_c^ord`).
pub fn order_core_vertices(qg: &QueryGraph, decomp: &Decomposition) -> Vec<QVertexId> {
    let mut order = Vec::new();
    order_core_vertices_into(qg, decomp, &mut order);
    order
}

/// [`order_core_vertices`] into `order`, cleared first. The unordered
/// vertices wait behind the ordered prefix, and each step swaps the best
/// of them to the prefix's end (ties fall to the smaller id, so the
/// waiting order does not matter).
pub fn order_core_vertices_into(
    qg: &QueryGraph,
    decomp: &Decomposition,
    order: &mut Vec<QVertexId>,
) {
    let satellite_first = !decomp.satellites().is_empty();
    order.clear();
    order.extend_from_slice(decomp.core());
    assert!(
        !order.is_empty(),
        "decomposition has at least one core vertex"
    );
    let key = |u: QVertexId| (rank(qg, decomp, u, satellite_first), std::cmp::Reverse(u));

    for placed in 0..order.len() {
        // The initial vertex has the global best rank; then, connected
        // expansion: the best rank among frontier vertices (adjacent to
        // the ordered prefix).
        let (prefix, waiting) = order.split_at(placed);
        let next = (0..waiting.len())
            .filter(|&i| {
                placed == 0
                    || qg
                        .adjacency(waiting[i])
                        .iter()
                        .any(|a| prefix.contains(&a.neighbor))
            })
            .max_by_key(|&i| key(waiting[i]));
        match next {
            Some(i) => order.swap(placed, placed + i),
            // Cores of a connected component are themselves connected (any
            // simple path between degree->1 vertices passes through
            // degree->1 vertices), so this arm is unreachable for valid
            // inputs; the first waiting vertex stays in place rather than
            // the loop stalling.
            None => debug_assert!(false, "core subgraph should be connected"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text, PREFIX_Y};
    use amber_sparql::parse_select;

    #[test]
    fn paper_order_u1_u3_u5() {
        // §5.3: "the set of ordered core vertices is U_c^ord = {u1, u3, u5}"
        // (our vertex names X1, X3, X5).
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        let order = order_core_vertices(&qg, &d);
        let names: Vec<&str> = order.iter().map(|&u| qg.name(u)).collect();
        assert_eq!(names, vec!["X1", "X3", "X5"]);
    }

    #[test]
    fn r2_priority_without_satellites() {
        // A 3-cycle with one doubled edge: no satellites, so r2 decides.
        // b has 3 incident type instances on the doubled edge side.
        let rdf = paper_graph();
        let qg = QueryGraph::build(
            &parse_select(&format!(
                "SELECT * WHERE {{ ?a <{PREFIX_Y}livedIn> ?b . ?b <{PREFIX_Y}isPartOf> ?c . \
                 ?c <{PREFIX_Y}hasCapital> ?a . ?a <{PREFIX_Y}wasBornIn> ?b . }}"
            ))
            .unwrap(),
            &rdf,
        )
        .unwrap();
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        assert!(d.satellites().is_empty());
        let order = order_core_vertices(&qg, &d);
        // r2: a = livedIn+wasBornIn+hasCapital = 3+... a: out {livedIn,wasBornIn}→b (2), in hasCapital (1) = 3.
        // b: in 2, out 1 = 3. c: 1 + 1 = 2. Tie a/b broken by r1 (0 both) then smaller id → a.
        let names: Vec<&str> = order.iter().map(|&u| qg.name(u)).collect();
        assert_eq!(names[2], "c", "c has the lowest r2 and must come last");
        assert_eq!(names[0], "a", "tie on (r2, r1) broken by smaller id");
    }

    #[test]
    fn order_is_connected_prefix() {
        // Chain b–c–d (cores of a 4-chain with pendant ends).
        let rdf = paper_graph();
        let qg = QueryGraph::build(
            &parse_select(&format!(
                "SELECT * WHERE {{ ?a <{PREFIX_Y}livedIn> ?b . ?b <{PREFIX_Y}livedIn> ?c . \
                 ?c <{PREFIX_Y}livedIn> ?d . ?d <{PREFIX_Y}livedIn> ?e . }}"
            ))
            .unwrap(),
            &rdf,
        )
        .unwrap();
        let comps = qg.connected_components();
        let d = Decomposition::of_component(&qg, &comps[0]);
        let order = order_core_vertices(&qg, &d);
        assert_eq!(order.len(), 3);
        // every vertex after the first must touch the prefix
        for i in 1..order.len() {
            let touches = qg
                .adjacency(order[i])
                .iter()
                .any(|a| order[..i].contains(&a.neighbor));
            assert!(touches, "position {i} must connect to the ordered prefix");
        }
    }
}
