//! The query multigraph `Q` (paper §2.2.1, Fig. 2c).
//!
//! A query compiled to dictionary ids ([`CompiledQuery`]) is assembled
//! into the query multigraph without another dictionary lookup:
//!
//! * every variable becomes a query vertex `u ∈ U`,
//! * predicates are mapped through the edge-type dictionary (`Me`),
//! * constant literal objects fold into vertex attributes `u.A` (`Ma`),
//! * constant IRIs attached to a variable become *IRI vertices* `u.R`
//!   (the shaded squares of Fig. 2c) — each knows its unique data vertex,
//! * patterns mentioning no variable at all become *ground checks* (boolean
//!   guards),
//! * `?x p ?x` patterns become self-loop constraints.
//!
//! A query that references an IRI / predicate / literal absent from the
//! data dictionaries is **unsatisfiable**: it is still constructed (so the
//! caller can inspect it) but flagged, and every engine short-circuits to an
//! empty answer — the paper's model gives this for free because dictionary
//! lookup fails.

use crate::builder::RdfGraph;
use crate::compiled::{tag, CompiledQuery, QueryKey};
use crate::data_graph::Direction;
use crate::ids::{AttrId, EdgeTypeId, QVertexId, VertexId};
use crate::signature::VertexSignature;
use amber_sparql::SelectQuery;
use amber_util::HeapSize;
use std::fmt;

/// Construction failure (malformed AST, not data-dependent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryGraphError {
    /// The AST contains a variable predicate (outside the paper's fragment).
    VariablePredicate(Box<str>),
    /// The AST contains a literal in subject position.
    LiteralSubject,
    /// The AST contains a literal predicate.
    LiteralPredicate,
}

impl fmt::Display for QueryGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryGraphError::VariablePredicate(v) => {
                write!(f, "variable predicate ?{v} is not supported (paper §2.2)")
            }
            QueryGraphError::LiteralSubject => write!(f, "literal in subject position"),
            QueryGraphError::LiteralPredicate => write!(f, "literal in predicate position"),
        }
    }
}

impl std::error::Error for QueryGraphError {}

/// A multi-edge of the query graph: the sorted, deduplicated set of edge
/// types between one ordered pair of query vertices (paper §2.1.1 —
/// "multiple edges (predicates) can appear between the same pair of
/// vertices"). The data graph keeps its multi-edges as runs of adjacency
/// entries instead ([`crate::DataGraph::multi_edges`]).
///
/// Almost every multi-edge carries one type, so a single type is held
/// inline and owns no heap; two or more live in a boxed slice.
/// Equality, order and hashing are those of [`Self::types`], whichever
/// form holds them.
#[derive(Debug, Clone)]
pub struct MultiEdge(Types);

#[derive(Debug, Clone)]
enum Types {
    One(EdgeTypeId),
    Many(Box<[EdgeTypeId]>),
}

impl MultiEdge {
    /// Build from an arbitrary list of types (sorted + deduplicated here).
    pub fn new(mut types: Vec<EdgeTypeId>) -> Self {
        types.sort_unstable();
        types.dedup();
        match *types {
            [t] => Self(Types::One(t)),
            _ => Self(Types::Many(types.into_boxed_slice())),
        }
    }

    /// The sorted edge types.
    #[inline]
    pub fn types(&self) -> &[EdgeTypeId] {
        match &self.0 {
            Types::One(t) => std::slice::from_ref(t),
            Types::Many(types) => types,
        }
    }

    /// Number of edge types in the multi-edge (its cardinality, the paper's
    /// `|σ(u)_j|`).
    pub fn len(&self) -> usize {
        self.types().len()
    }

    /// `true` when the multi-edge carries no types (never stored).
    pub fn is_empty(&self) -> bool {
        self.types().is_empty()
    }

    /// Does this multi-edge contain every type of `other`? (the `⊆` of
    /// Definition 2, condition 2)
    pub fn contains_all(&self, other: &[EdgeTypeId]) -> bool {
        amber_util::sorted::is_subset(other, self.types())
    }

    /// Membership test for one type.
    pub fn contains(&self, t: EdgeTypeId) -> bool {
        self.types().binary_search(&t).is_ok()
    }
}

// By `types()`, not derived: a derived order would rank the inline form
// before the boxed one whatever the types.
impl PartialEq for MultiEdge {
    fn eq(&self, other: &Self) -> bool {
        self.types() == other.types()
    }
}

impl Eq for MultiEdge {}

impl PartialOrd for MultiEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MultiEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.types().cmp(other.types())
    }
}

impl std::hash::Hash for MultiEdge {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.types().hash(state);
    }
}

impl HeapSize for MultiEdge {
    fn heap_size(&self) -> usize {
        match &self.0 {
            Types::One(_) => 0,
            Types::Many(types) => types.heap_size(),
        }
    }
}

impl FromIterator<EdgeTypeId> for MultiEdge {
    fn from_iter<I: IntoIterator<Item = EdgeTypeId>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// An IRI vertex `u^iri ∈ u.R` attached to a query vertex (paper §2.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IriConstraint {
    /// The unique data vertex the IRI maps to.
    pub data_vertex: VertexId,
    /// Direction relative to the query vertex: [`Direction::Incoming`] means
    /// the edge runs IRI → variable.
    pub direction: Direction,
    /// The multi-edge between variable and IRI vertex.
    pub types: MultiEdge,
}

/// A query vertex `u ∈ U`: one SPARQL variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryVertex {
    /// The variable name (without `?`).
    pub name: Box<str>,
    /// Sorted attribute requirements `u.A` (from constant-literal objects).
    pub attrs: Vec<AttrId>,
    /// IRI vertices `u.R` attached to this variable.
    pub iri_constraints: Vec<IriConstraint>,
    /// Required self-loop types (`?x p ?x` patterns).
    pub self_loop: Option<MultiEdge>,
}

/// A directed multi-edge between two query vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEdge {
    /// Source query vertex.
    pub from: QVertexId,
    /// Target query vertex.
    pub to: QVertexId,
    /// Merged edge types (`L^Q_E(from, to)`).
    pub types: MultiEdge,
}

/// A pattern with no variables: evaluated once as a boolean guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundCheck {
    /// `<s> <p> <o>` — the data must contain the edge with all types.
    Edge {
        /// Subject data vertex.
        from: VertexId,
        /// Object data vertex.
        to: VertexId,
        /// Required types.
        types: MultiEdge,
    },
    /// `<s> <p> "lit"` — the subject vertex must own the attributes.
    Attribute {
        /// Subject data vertex.
        vertex: VertexId,
        /// Required (sorted) attributes.
        attrs: Vec<AttrId>,
    },
}

/// One adjacency record of a query vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QAdj {
    /// The neighbouring query vertex.
    pub neighbor: QVertexId,
    /// Direction relative to the owning vertex.
    pub direction: Direction,
    /// Index into [`QueryGraph::edges`].
    pub edge: usize,
}

/// The query multigraph `Q = (U, E_Q, L_U, L^Q_E)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    vertices: Vec<QueryVertex>,
    edges: Vec<QueryEdge>,
    adj: Vec<Vec<QAdj>>,
    ground_checks: Vec<GroundCheck>,
    unsat_reason: Option<String>,
    output_vars: Vec<Box<str>>,
    distinct: bool,
}

impl QueryGraph {
    /// Transform a parsed SPARQL query against a loaded graph: the AST is
    /// compiled to ids ([`CompiledQuery::from_ast`]) and the graph
    /// assembled from them.
    pub fn build(query: &SelectQuery, rdf: &RdfGraph) -> Result<Self, QueryGraphError> {
        Ok(CompiledQuery::from_ast(query, rdf, 0)?.query_graph())
    }

    /// Number of query vertices `|U|`.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Iterate query vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = QVertexId> {
        (0..self.vertices.len() as u32).map(QVertexId)
    }

    /// Access one query vertex.
    pub fn vertex(&self, u: QVertexId) -> &QueryVertex {
        &self.vertices[u.index()]
    }

    /// All variable-variable edges (merged multi-edges).
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// Adjacency of `u` over variable-variable edges (self-loops excluded).
    pub fn adjacency(&self, u: QVertexId) -> &[QAdj] {
        &self.adj[u.index()]
    }

    /// Ground checks (variable-free patterns).
    pub fn ground_checks(&self) -> &[GroundCheck] {
        &self.ground_checks
    }

    /// `Some(reason)` when the query can have no answers on this data.
    pub fn unsat_reason(&self) -> Option<&str> {
        self.unsat_reason.as_deref()
    }

    /// `true` when the query can have no answers on this data.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsat_reason.is_some()
    }

    /// The projection, in SELECT order.
    pub fn output_vars(&self) -> &[Box<str>] {
        &self.output_vars
    }

    /// `SELECT DISTINCT`?
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Find a variable's query vertex.
    pub fn vertex_by_name(&self, name: &str) -> Option<QVertexId> {
        self.vertices
            .iter()
            .position(|v| v.name.as_ref() == name)
            .map(QVertexId::from_index)
    }

    /// Degree used for core/satellite decomposition (§3): number of distinct
    /// *variable* neighbours, self excluded.
    pub fn degree(&self, u: QVertexId) -> usize {
        let mut neighbors: Vec<QVertexId> = self.adj[u.index()]
            .iter()
            .map(|a| a.neighbor)
            .filter(|&n| n != u)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        neighbors.len()
    }

    /// The signature `σ_u` of a query vertex: every incident multi-edge,
    /// including edges to IRI vertices and self-loops (both halves).
    pub fn signature(&self, u: QVertexId) -> VertexSignature {
        let mut sig = VertexSignature::default();
        for a in &self.adj[u.index()] {
            let types = self.edges[a.edge].types.clone();
            match a.direction {
                Direction::Incoming => sig.incoming.push(types),
                Direction::Outgoing => sig.outgoing.push(types),
            }
        }
        let vertex = &self.vertices[u.index()];
        for c in &vertex.iri_constraints {
            match c.direction {
                Direction::Incoming => sig.incoming.push(c.types.clone()),
                Direction::Outgoing => sig.outgoing.push(c.types.clone()),
            }
        }
        if let Some(loop_types) = &vertex.self_loop {
            sig.incoming.push(loop_types.clone());
            sig.outgoing.push(loop_types.clone());
        }
        sig
    }

    /// Connected components over variable-variable edges, each sorted by id.
    /// Isolated variables (only attributes / IRI constraints) form singleton
    /// components.
    pub fn connected_components(&self) -> Vec<Vec<QVertexId>> {
        let n = self.vertices.len();
        let mut component = vec![usize::MAX; n];
        let mut components: Vec<Vec<QVertexId>> = Vec::new();
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = components.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            component[start] = id;
            while let Some(v) = stack.pop() {
                members.push(QVertexId::from_index(v));
                for a in &self.adj[v] {
                    let n = a.neighbor.index();
                    if component[n] == usize::MAX {
                        component[n] = id;
                        stack.push(n);
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// The merged multi-edge of the directed pair `(from, to)`, if any.
    pub fn multi_edge(&self, from: QVertexId, to: QVertexId) -> Option<&MultiEdge> {
        self.adj[from.index()]
            .iter()
            .find(|a| {
                a.neighbor == to
                    && a.direction == Direction::Outgoing
                    && self.edges[a.edge].from == from
            })
            .map(|a| &self.edges[a.edge].types)
    }

    /// Total number of triple-pattern constraints represented (used by tests
    /// to confirm nothing was dropped in the transformation).
    pub fn constraint_count(&self) -> usize {
        self.edges.iter().map(|e| e.types.len()).sum::<usize>()
            + self
                .vertices
                .iter()
                .map(|v| {
                    v.attrs.len()
                        + v.iri_constraints
                            .iter()
                            .map(|c| c.types.len())
                            .sum::<usize>()
                        + v.self_loop.as_ref().map_or(0, MultiEdge::len)
                })
                .sum::<usize>()
            + self
                .ground_checks
                .iter()
                .map(|g| match g {
                    GroundCheck::Edge { types, .. } => types.len(),
                    GroundCheck::Attribute { attrs, .. } => attrs.len(),
                })
                .sum::<usize>()
    }
}

impl QueryGraph {
    /// Assemble the graph from a compiled key's id triples (see
    /// [`CompiledQuery::query_graph`]): variable pairs merge into
    /// multi-edges, constant IRIs into IRI vertices, literal objects into
    /// attributes, variable-free patterns into ground checks. A pattern
    /// naming an absent constant adds no constraint (the query is
    /// unsatisfiable anyway).
    pub(crate) fn assemble(
        key: &QueryKey,
        names: Vec<Box<str>>,
        output_vars: Vec<Box<str>>,
        distinct: bool,
        unsat_reason: Option<String>,
    ) -> Self {
        let n = names.len();
        let mut attrs: Vec<Vec<AttrId>> = vec![Vec::new(); n];
        let mut self_loops: Vec<Vec<EdgeTypeId>> = vec![Vec::new(); n];
        // (variable, data vertex, direction sign, type)
        let mut iri_edges: Vec<(u32, VertexId, char, EdgeTypeId)> = Vec::new();
        let mut var_edges: Vec<(QVertexId, QVertexId, EdgeTypeId)> = Vec::new();
        let mut ground_edges: Vec<(VertexId, VertexId, EdgeTypeId)> = Vec::new();
        let mut ground_attrs: Vec<(VertexId, AttrId)> = Vec::new();
        for triple in key.triples() {
            let &[s_tag, s, p_tag, p, o_tag, o] = triple else {
                unreachable!("triples are six words")
            };
            let t = EdgeTypeId(p);
            let edge = p_tag == tag::EDGE;
            match (s_tag, o_tag) {
                // ?s <p> ?o
                (tag::VARIABLE, tag::VARIABLE) if edge => {
                    if s == o {
                        self_loops[s as usize].push(t);
                    } else {
                        var_edges.push((QVertexId(s), QVertexId(o), t));
                    }
                }
                // ?s <p> <o>
                (tag::VARIABLE, tag::VERTEX) if edge => {
                    iri_edges.push((s, VertexId(o), Direction::Outgoing.sign(), t));
                }
                // ?s <p> "lit"
                (tag::VARIABLE, tag::ATTRIBUTE) => attrs[s as usize].push(AttrId(o)),
                // <s> <p> ?o
                (tag::VERTEX, tag::VARIABLE) if edge => {
                    iri_edges.push((o, VertexId(s), Direction::Incoming.sign(), t));
                }
                // <s> <p> <o>
                (tag::VERTEX, tag::VERTEX) if edge => {
                    ground_edges.push((VertexId(s), VertexId(o), t))
                }
                // <s> <p> "lit"
                (tag::VERTEX, tag::ATTRIBUTE) => ground_attrs.push((VertexId(s), AttrId(o))),
                _ => {}
            }
        }

        iri_edges.sort_unstable();
        let mut iri_constraints: Vec<Vec<IriConstraint>> = vec![Vec::new(); n];
        for group in iri_edges.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
            let (u, data_vertex, sign, _) = group[0];
            iri_constraints[u as usize].push(IriConstraint {
                data_vertex,
                direction: if sign == Direction::Incoming.sign() {
                    Direction::Incoming
                } else {
                    Direction::Outgoing
                },
                types: group.iter().map(|&(.., t)| t).collect(),
            });
        }
        let vertices: Vec<QueryVertex> = names
            .into_iter()
            .zip(attrs)
            .zip(self_loops)
            .zip(iri_constraints)
            .map(|(((name, mut attrs), self_loop), iri_constraints)| {
                attrs.sort_unstable();
                attrs.dedup();
                QueryVertex {
                    name,
                    attrs,
                    iri_constraints,
                    self_loop: (!self_loop.is_empty()).then(|| MultiEdge::new(self_loop)),
                }
            })
            .collect();

        var_edges.sort_unstable();
        let edges: Vec<QueryEdge> = var_edges
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|group| QueryEdge {
                from: group[0].0,
                to: group[0].1,
                types: group.iter().map(|&(.., t)| t).collect(),
            })
            .collect();
        let mut adj: Vec<Vec<QAdj>> = vec![Vec::new(); n];
        for (idx, edge) in edges.iter().enumerate() {
            adj[edge.from.index()].push(QAdj {
                neighbor: edge.to,
                direction: Direction::Outgoing,
                edge: idx,
            });
            adj[edge.to.index()].push(QAdj {
                neighbor: edge.from,
                direction: Direction::Incoming,
                edge: idx,
            });
        }

        ground_edges.sort_unstable();
        ground_attrs.sort_unstable();
        let ground_checks = ground_edges
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .map(|group| GroundCheck::Edge {
                from: group[0].0,
                to: group[0].1,
                types: group.iter().map(|&(.., t)| t).collect(),
            })
            .chain(ground_attrs.chunk_by(|a, b| a.0 == b.0).map(|group| {
                let mut attrs: Vec<AttrId> = group.iter().map(|&(_, a)| a).collect();
                attrs.dedup();
                GroundCheck::Attribute {
                    vertex: group[0].0,
                    attrs,
                }
            }))
            .collect();

        QueryGraph {
            vertices,
            edges,
            adj,
            ground_checks,
            unsat_reason,
            output_vars,
            distinct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RdfGraph;
    use amber_sparql::parse_select;

    #[test]
    fn multi_edge_normalizes() {
        let m = MultiEdge::new(vec![EdgeTypeId(3), EdgeTypeId(1), EdgeTypeId(3)]);
        assert_eq!(m.types(), &[EdgeTypeId(1), EdgeTypeId(3)]);
        assert!(m.contains(EdgeTypeId(3)));
        assert!(!m.contains(EdgeTypeId(2)));
        assert!(m.contains_all(&[EdgeTypeId(1)]));
        assert!(!m.contains_all(&[EdgeTypeId(1), EdgeTypeId(2)]));
    }

    #[test]
    fn one_type_is_inline() {
        let t = |ids: &[u32]| MultiEdge::new(ids.iter().map(|&i| EdgeTypeId(i)).collect());
        let one = t(&[4]);
        let two = t(&[4, 1]);
        assert_eq!((one.heap_size(), two.heap_size()), (0, 8));
        assert_eq!(one.types(), [EdgeTypeId(4)]);
        assert_eq!(two.types(), [EdgeTypeId(1), EdgeTypeId(4)]);
        assert!(t(&[]).is_empty());
        // The one-type form sits in the box's length word, behind the
        // null-pointer niche: no tag word is added.
        assert_eq!(std::mem::size_of::<MultiEdge>(), 16);
    }

    fn data() -> RdfGraph {
        RdfGraph::parse_ntriples(
            r#"
<http://x/A> <http://p/e1> <http://x/B> .
<http://x/B> <http://p/e2> <http://x/C> .
<http://x/A> <http://p/e2> <http://x/A> .
<http://x/A> <http://p/name> "alpha" .
"#,
        )
        .unwrap()
    }

    fn qg(sparql: &str) -> QueryGraph {
        QueryGraph::build(&parse_select(sparql).unwrap(), &data()).unwrap()
    }

    #[test]
    fn variables_get_dense_ids_in_order() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?b <http://p/e2> ?c . }");
        assert_eq!(q.vertex_count(), 3);
        assert_eq!(q.vertex(QVertexId(0)).name.as_ref(), "a");
        assert_eq!(q.vertex(QVertexId(1)).name.as_ref(), "b");
        assert_eq!(q.vertex(QVertexId(2)).name.as_ref(), "c");
        assert_eq!(q.vertex_by_name("c"), Some(QVertexId(2)));
    }

    #[test]
    fn parallel_patterns_merge_into_multi_edge() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?a <http://p/e2> ?b . }");
        assert_eq!(q.edges().len(), 1);
        assert_eq!(q.edges()[0].types.len(), 2);
        assert!(!q.is_unsatisfiable());
    }

    #[test]
    fn opposite_directions_stay_separate() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?b <http://p/e2> ?a . }");
        assert_eq!(q.edges().len(), 2);
        // degree counts the neighbour once
        assert_eq!(q.degree(QVertexId(0)), 1);
        assert_eq!(q.degree(QVertexId(1)), 1);
    }

    #[test]
    fn literal_objects_become_attrs() {
        let q = qg("SELECT * WHERE { ?a <http://p/name> \"alpha\" . ?a <http://p/e1> ?b . }");
        let a = q.vertex(QVertexId(0));
        assert_eq!(a.attrs.len(), 1);
        assert!(!q.is_unsatisfiable());
    }

    #[test]
    fn unknown_literal_marks_unsat() {
        let q = qg("SELECT * WHERE { ?a <http://p/name> \"missing\" . }");
        assert!(q.is_unsatisfiable());
        assert!(q.unsat_reason().unwrap().contains("attribute"));
    }

    #[test]
    fn unknown_predicate_marks_unsat() {
        let q = qg("SELECT * WHERE { ?a <http://p/nope> ?b . }");
        assert!(q.is_unsatisfiable());
    }

    #[test]
    fn unknown_iri_marks_unsat() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> <http://x/Nope> . }");
        assert!(q.is_unsatisfiable());
    }

    #[test]
    fn iri_constraints_carry_direction() {
        let q = qg(
            "SELECT * WHERE { ?a <http://p/e1> <http://x/B> . <http://x/A> <http://p/e1> ?a . }",
        );
        let a = q.vertex(QVertexId(0));
        assert_eq!(a.iri_constraints.len(), 2);
        let outgoing = a
            .iri_constraints
            .iter()
            .find(|c| c.direction == Direction::Outgoing)
            .unwrap();
        let incoming = a
            .iri_constraints
            .iter()
            .find(|c| c.direction == Direction::Incoming)
            .unwrap();
        assert_eq!(data().vertex_name(outgoing.data_vertex), "http://x/B");
        assert_eq!(data().vertex_name(incoming.data_vertex), "http://x/A");
    }

    #[test]
    fn self_loop_pattern() {
        let q = qg("SELECT * WHERE { ?a <http://p/e2> ?a . }");
        assert_eq!(q.edges().len(), 0);
        assert!(q.vertex(QVertexId(0)).self_loop.is_some());
        // self loop contributes to both signature halves
        let sig = q.signature(QVertexId(0));
        assert_eq!(sig.incoming.len(), 1);
        assert_eq!(sig.outgoing.len(), 1);
    }

    #[test]
    fn ground_checks_are_collected() {
        let q = qg(
            "SELECT * WHERE { <http://x/A> <http://p/e1> <http://x/B> . <http://x/A> <http://p/name> \"alpha\" . ?s <http://p/e2> ?o . }",
        );
        assert_eq!(q.ground_checks().len(), 2);
        assert!(!q.is_unsatisfiable());
    }

    #[test]
    fn signature_includes_iri_edges() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?a <http://p/e2> <http://x/C> . }");
        let sig = q.signature(QVertexId(0));
        assert_eq!(sig.outgoing.len(), 2); // one var edge + one IRI edge
        assert_eq!(sig.incoming.len(), 0);
    }

    #[test]
    fn components_split_disconnected_queries() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?c <http://p/e2> ?d . }");
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![QVertexId(0), QVertexId(1)]);
        assert_eq!(comps[1], vec![QVertexId(2), QVertexId(3)]);
    }

    #[test]
    fn multi_edge_lookup_is_directional() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . }");
        assert!(q.multi_edge(QVertexId(0), QVertexId(1)).is_some());
        assert!(q.multi_edge(QVertexId(1), QVertexId(0)).is_none());
    }

    #[test]
    fn variable_predicate_in_ast_is_an_error() {
        use amber_sparql::{Projection, TermPattern, TriplePattern};
        let query = SelectQuery {
            projection: Projection::Star,
            distinct: false,
            patterns: vec![TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            )],
        };
        assert_eq!(
            QueryGraph::build(&query, &data()).unwrap_err(),
            QueryGraphError::VariablePredicate("p".into())
        );
    }

    #[test]
    fn constraint_count_preserves_patterns() {
        let q = qg(
            "SELECT * WHERE { ?a <http://p/e1> ?b . ?a <http://p/e2> ?b . ?a <http://p/name> \"alpha\" . ?b <http://p/e2> <http://x/C> . }",
        );
        assert_eq!(q.constraint_count(), 4);
    }

    #[test]
    fn distinct_and_projection_are_recorded() {
        let q = qg("SELECT DISTINCT ?b WHERE { ?a <http://p/e1> ?b . }");
        assert!(q.distinct());
        assert_eq!(q.output_vars(), &["b".into()]);
    }
}
