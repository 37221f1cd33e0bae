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
use crate::compiled::{tag, CompiledQuery, TRIPLE_WORDS};
use crate::data_graph::Direction;
use crate::ids::{AttrId, EdgeTypeId, QVertexId, VertexId};
use crate::signature::Synopsis;
use amber_sparql::SelectQuery;
use amber_util::sorted::normalize;
use amber_util::HeapSize;
use std::fmt;
use std::ops::{Index, Range};

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

/// A multi-edge of a vertex signature: the sorted, deduplicated set of
/// edge types between one ordered pair of vertices (paper §2.1.1 —
/// "multiple edges (predicates) can appear between the same pair of
/// vertices"). The data graph keeps its multi-edges as runs of adjacency
/// entries instead ([`crate::DataGraph::multi_edges`]), and the query
/// graph as [`Span`]s of its type pool.
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

/// A run of a flat pool: in [`QueryGraph`], the sorted, deduplicated
/// types of a multi-edge ([`QueryGraph::types`]) or the sorted attributes
/// of a ground check ([`QueryGraph::attributes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The span of `range` (pools are indexed by `u32`).
    pub fn new(range: Range<usize>) -> Self {
        Self {
            start: range.start as u32,
            end: range.end as u32,
        }
    }

    /// The span as a range of pool indices.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of items (a multi-edge's cardinality, the paper's
    /// `|σ(u)_j|`).
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// `true` when the span holds nothing.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// An IRI vertex `u^iri ∈ u.R` attached to a query vertex (paper §2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IriConstraint {
    /// The unique data vertex the IRI maps to.
    pub data_vertex: VertexId,
    /// Direction relative to the query vertex: [`Direction::Incoming`] means
    /// the edge runs IRI → variable.
    pub direction: Direction,
    /// The multi-edge between variable and IRI vertex.
    pub types: Span,
}

/// A query vertex `u ∈ U`: one SPARQL variable, read out of the graph's
/// pools ([`QueryGraph::vertex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryVertex<'a> {
    /// The variable name (without `?`).
    pub name: &'a str,
    /// Sorted attribute requirements `u.A` (from constant-literal objects).
    pub attrs: &'a [AttrId],
    /// IRI vertices `u.R` attached to this variable.
    pub iri_constraints: &'a [IriConstraint],
    /// Required self-loop types (`?x p ?x` patterns), sorted.
    pub self_loop: Option<&'a [EdgeTypeId]>,
}

/// A directed multi-edge between two query vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEdge {
    /// Source query vertex.
    pub from: QVertexId,
    /// Target query vertex.
    pub to: QVertexId,
    /// Merged edge types (`L^Q_E(from, to)`).
    pub types: Span,
}

/// A pattern with no variables: evaluated once as a boolean guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundCheck {
    /// `<s> <p> <o>` — the data must contain the edge with all types.
    Edge {
        /// Subject data vertex.
        from: VertexId,
        /// Object data vertex.
        to: VertexId,
        /// Required types ([`QueryGraph::types`]).
        types: Span,
    },
    /// `<s> <p> "lit"` — the subject vertex must own the attributes.
    Attribute {
        /// Subject data vertex.
        vertex: VertexId,
        /// Required attributes ([`QueryGraph::attributes`]).
        attrs: Span,
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
///
/// Everything lives in flat pools: per-vertex rows (adjacency, attributes,
/// IRI vertices) are runs of one buffer each, cut by an end offset per
/// vertex, and every multi-edge's types are a [`Span`] of one type pool.
/// [`Self::rebuild`] clears and refills them, so an owner that plans query
/// after query reuses the same memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryGraph {
    /// Variable names by index, concatenated (pattern variables first, then
    /// variables only the projection names), and where each one ends.
    names: String,
    name_ends: Vec<u32>,
    /// `|U|`: the pattern variables.
    vertex_count: usize,
    types: Vec<EdgeTypeId>,
    edges: Vec<QueryEdge>,
    adj: Vec<QAdj>,
    adj_ends: Vec<u32>,
    /// Each vertex's sorted attributes (a row per vertex), then the ground
    /// checks' attribute sets.
    attrs: Vec<AttrId>,
    attr_ends: Vec<u32>,
    iris: Vec<IriConstraint>,
    iri_ends: Vec<u32>,
    /// Per vertex; empty when the vertex has no self-loop.
    self_loops: Vec<Span>,
    ground_checks: Vec<GroundCheck>,
    unsat_reason: String,
    unsatisfiable: bool,
    /// The projection, as variable indices in SELECT order.
    projection: Vec<QVertexId>,
    distinct: bool,
    /// The key's patterns sorted by kind while assembling; empty otherwise.
    scratch: Assembly,
}

/// The patterns of a key, one list per kind, sorted to group them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Assembly {
    var_edges: Vec<(QVertexId, QVertexId, EdgeTypeId)>,
    /// (variable, data vertex, direction sign, type)
    iri_edges: Vec<(u32, VertexId, char, EdgeTypeId)>,
    self_loops: Vec<(u32, EdgeTypeId)>,
    attrs: Vec<(u32, AttrId)>,
    ground_edges: Vec<(VertexId, VertexId, EdgeTypeId)>,
    ground_attrs: Vec<(VertexId, AttrId)>,
}

impl Assembly {
    fn clear(&mut self) {
        self.var_edges.clear();
        self.iri_edges.clear();
        self.self_loops.clear();
        self.attrs.clear();
        self.ground_edges.clear();
        self.ground_attrs.clear();
    }
}

/// The run of row `i` in a pool cut by `ends`.
fn row(ends: &[u32], i: usize) -> Range<usize> {
    let start = match i {
        0 => 0,
        _ => ends[i - 1] as usize,
    };
    start..ends[i] as usize
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
        self.vertex_count
    }

    /// Iterate query vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = QVertexId> {
        (0..self.vertex_count as u32).map(QVertexId)
    }

    /// One query vertex, read out of the pools.
    pub fn vertex(&self, u: QVertexId) -> QueryVertex<'_> {
        let i = u.index();
        assert!(i < self.vertex_count, "query vertex {i} out of range");
        QueryVertex {
            name: self.name(u),
            attrs: &self.attrs[row(&self.attr_ends, i)],
            iri_constraints: &self.iris[row(&self.iri_ends, i)],
            self_loop: self.self_loop(u),
        }
    }

    /// The name of variable `u` (a pattern variable, or one only the
    /// projection names).
    pub fn name(&self, u: QVertexId) -> &str {
        &self.names[row(&self.name_ends, u.index())]
    }

    /// The required self-loop types of `u`, if it has a self-loop.
    pub fn self_loop(&self, u: QVertexId) -> Option<&[EdgeTypeId]> {
        let span = self.self_loops[u.index()];
        (!span.is_empty()).then(|| self.types(span))
    }

    /// All variable-variable edges (merged multi-edges).
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// The sorted types of a multi-edge of this graph.
    pub fn types(&self, span: Span) -> &[EdgeTypeId] {
        &self.types[span.range()]
    }

    /// The sorted attributes of a ground check of this graph.
    pub fn attributes(&self, span: Span) -> &[AttrId] {
        &self.attrs[span.range()]
    }

    /// Adjacency of `u` over variable-variable edges (self-loops excluded).
    pub fn adjacency(&self, u: QVertexId) -> &[QAdj] {
        &self.adj[row(&self.adj_ends, u.index())]
    }

    /// Ground checks (variable-free patterns).
    pub fn ground_checks(&self) -> &[GroundCheck] {
        &self.ground_checks
    }

    /// `Some(reason)` when the query can have no answers on this data.
    pub fn unsat_reason(&self) -> Option<&str> {
        self.unsatisfiable.then_some(self.unsat_reason.as_str())
    }

    /// `true` when the query can have no answers on this data.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    /// The projected variable names, in SELECT order.
    pub fn output_vars(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.projection.iter().map(|&u| self.name(u))
    }

    /// The projected variables, in SELECT order. An index at or past
    /// [`Self::vertex_count`] names a variable no pattern binds.
    pub fn projection(&self) -> &[QVertexId] {
        &self.projection
    }

    /// `SELECT DISTINCT`?
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Find a variable's query vertex.
    pub fn vertex_by_name(&self, name: &str) -> Option<QVertexId> {
        self.vertex_ids().find(|&u| self.name(u) == name)
    }

    /// Degree used for core/satellite decomposition (§3): number of distinct
    /// *variable* neighbours, self excluded.
    pub fn degree(&self, u: QVertexId) -> usize {
        let adjacency = self.adjacency(u);
        (0..adjacency.len())
            .filter(|&i| {
                let n = adjacency[i].neighbor;
                n != u && adjacency[..i].iter().all(|a| a.neighbor != n)
            })
            .count()
    }

    /// The multi-edges incident on `u` in `direction`: its variable edges,
    /// its IRI vertices' edges and its self-loop (which is in both halves).
    fn incident(&self, u: QVertexId, direction: Direction) -> impl Iterator<Item = &[EdgeTypeId]> {
        let edges = self
            .adjacency(u)
            .iter()
            .filter(move |a| a.direction == direction)
            .map(|a| self.types(self.edges[a.edge].types));
        let iris = self
            .vertex(u)
            .iri_constraints
            .iter()
            .filter(move |c| c.direction == direction)
            .map(|c| self.types(c.types));
        edges.chain(iris).chain(self.self_loop(u))
    }

    /// Total number of incident edge-type instances — the paper's ranking
    /// quantity `r2(u) = Σ_j |σ(u)_j|` (§5.3) over the signature `σ_u`:
    /// every incident multi-edge, edges to IRI vertices and both halves of
    /// a self-loop included.
    pub fn edge_instance_count(&self, u: QVertexId) -> usize {
        [Direction::Incoming, Direction::Outgoing]
            .into_iter()
            .flat_map(|direction| self.incident(u, direction))
            .map(<[EdgeTypeId]>::len)
            .sum()
    }

    /// The query-side synopsis of `u`'s signature (see
    /// [`VertexSignature::query_synopsis`](crate::VertexSignature::query_synopsis)),
    /// folded straight off the pools; `scratch` holds each half's types
    /// while they are counted.
    pub fn query_synopsis(&self, u: QVertexId, scratch: &mut Vec<u32>) -> Synopsis {
        Synopsis::of_query_halves(
            self.incident(u, Direction::Incoming),
            self.incident(u, Direction::Outgoing),
            scratch,
        )
    }

    /// Connected components over variable-variable edges, each sorted by id.
    /// Isolated variables (only attributes / IRI constraints) form singleton
    /// components.
    pub fn connected_components(&self) -> Components {
        let mut components = Components::default();
        self.connected_components_into(&mut components);
        components
    }

    /// [`Self::connected_components`] into `out`, cleared first.
    pub fn connected_components_into(&self, out: &mut Components) {
        let Components {
            vertices,
            ends,
            seen,
        } = out;
        vertices.clear();
        ends.clear();
        seen.clear();
        seen.resize(self.vertex_count, false);
        for start in self.vertex_ids() {
            if seen[start.index()] {
                continue;
            }
            seen[start.index()] = true;
            // Breadth first, with the component's own run as the queue.
            let first = vertices.len();
            vertices.push(start);
            let mut next = first;
            while let Some(&v) = vertices.get(next) {
                next += 1;
                for a in self.adjacency(v) {
                    if !seen[a.neighbor.index()] {
                        seen[a.neighbor.index()] = true;
                        vertices.push(a.neighbor);
                    }
                }
            }
            vertices[first..].sort_unstable();
            ends.push(vertices.len() as u32);
        }
    }

    /// The merged multi-edge of the directed pair `(from, to)`, if any.
    pub fn multi_edge(&self, from: QVertexId, to: QVertexId) -> Option<&[EdgeTypeId]> {
        self.adjacency(from)
            .iter()
            .find(|a| {
                a.neighbor == to
                    && a.direction == Direction::Outgoing
                    && self.edges[a.edge].from == from
            })
            .map(|a| self.types(self.edges[a.edge].types))
    }

    /// Total number of triple-pattern constraints represented (used by tests
    /// to confirm nothing was dropped in the transformation).
    pub fn constraint_count(&self) -> usize {
        let edges: usize = self.edges.iter().map(|e| e.types.len()).sum();
        let vertices: usize = self
            .vertex_ids()
            .map(|u| {
                let vertex = self.vertex(u);
                vertex.attrs.len()
                    + vertex
                        .iri_constraints
                        .iter()
                        .map(|c| c.types.len())
                        .sum::<usize>()
                    + vertex.self_loop.map_or(0, <[EdgeTypeId]>::len)
            })
            .sum();
        let ground: usize = self
            .ground_checks
            .iter()
            .map(|g| match g {
                GroundCheck::Edge { types, .. } => types.len(),
                GroundCheck::Attribute { attrs, .. } => attrs.len(),
            })
            .sum();
        edges + vertices + ground
    }

    /// Reassemble this graph from a compiled query's id triples, reusing
    /// its pools: variable pairs merge into multi-edges, constant IRIs into
    /// IRI vertices, literal objects into attributes, variable-free
    /// patterns into ground checks; the vertices carry the query's variable
    /// names. A pattern naming an absent constant adds no constraint (the
    /// query is unsatisfiable anyway). Every pool is cleared first, so a
    /// rebuild that stopped half way leaves nothing a later one reads.
    pub fn rebuild(&mut self, compiled: &CompiledQuery) {
        self.clear();
        let (names, name_ends) = compiled.name_layout();
        let (triples, distinct, pattern_vars, projection) = compiled.key().parts();
        self.names.push_str(names);
        self.name_ends.extend_from_slice(name_ends);
        self.vertex_count = pattern_vars;
        self.projection
            .extend(projection.iter().map(|&i| QVertexId(i)));
        self.distinct = distinct;
        if let Some(reason) = compiled.unsat_reason() {
            self.unsat_reason.push_str(reason);
            self.unsatisfiable = true;
        }

        let s = &mut self.scratch;
        for triple in triples.chunks_exact(TRIPLE_WORDS) {
            let &[s_tag, subject, p_tag, p, o_tag, object] = triple else {
                unreachable!("triples are six words")
            };
            let t = EdgeTypeId(p);
            let edge = p_tag == tag::EDGE;
            match (s_tag, o_tag) {
                // ?s <p> ?o
                (tag::VARIABLE, tag::VARIABLE) if edge => {
                    if subject == object {
                        s.self_loops.push((subject, t));
                    } else {
                        s.var_edges.push((QVertexId(subject), QVertexId(object), t));
                    }
                }
                // ?s <p> <o>
                (tag::VARIABLE, tag::VERTEX) if edge => {
                    let sign = Direction::Outgoing.sign();
                    s.iri_edges.push((subject, VertexId(object), sign, t));
                }
                // ?s <p> "lit"
                (tag::VARIABLE, tag::ATTRIBUTE) => s.attrs.push((subject, AttrId(object))),
                // <s> <p> ?o
                (tag::VERTEX, tag::VARIABLE) if edge => {
                    let sign = Direction::Incoming.sign();
                    s.iri_edges.push((object, VertexId(subject), sign, t));
                }
                // <s> <p> <o>
                (tag::VERTEX, tag::VERTEX) if edge => {
                    s.ground_edges
                        .push((VertexId(subject), VertexId(object), t))
                }
                // <s> <p> "lit"
                (tag::VERTEX, tag::ATTRIBUTE) => {
                    s.ground_attrs.push((VertexId(subject), AttrId(object)))
                }
                _ => {}
            }
        }
        normalize(&mut s.self_loops);
        normalize(&mut s.attrs);
        normalize(&mut s.iri_edges);
        normalize(&mut s.var_edges);
        normalize(&mut s.ground_edges);
        normalize(&mut s.ground_attrs);

        // Per-vertex rows, from lists sorted by vertex.
        let (mut loops, mut attrs, mut iris) = (0, 0, 0);
        for u in 0..pattern_vars as u32 {
            let start = self.types.len();
            while let Some(&(_, t)) = s.self_loops.get(loops).filter(|l| l.0 == u) {
                self.types.push(t);
                loops += 1;
            }
            self.self_loops.push(Span::new(start..self.types.len()));

            while let Some(&(_, a)) = s.attrs.get(attrs).filter(|a| a.0 == u) {
                self.attrs.push(a);
                attrs += 1;
            }
            self.attr_ends.push(self.attrs.len() as u32);

            while let Some(&(_, data_vertex, sign, _)) = s.iri_edges.get(iris).filter(|e| e.0 == u)
            {
                let start = self.types.len();
                while let Some(&(.., t)) = s
                    .iri_edges
                    .get(iris)
                    .filter(|e| (e.0, e.1, e.2) == (u, data_vertex, sign))
                {
                    self.types.push(t);
                    iris += 1;
                }
                self.iris.push(IriConstraint {
                    data_vertex,
                    direction: if sign == Direction::Incoming.sign() {
                        Direction::Incoming
                    } else {
                        Direction::Outgoing
                    },
                    types: Span::new(start..self.types.len()),
                });
            }
            self.iri_ends.push(self.iris.len() as u32);
        }

        for group in s.var_edges.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let start = self.types.len();
            self.types.extend(group.iter().map(|&(.., t)| t));
            self.edges.push(QueryEdge {
                from: group[0].0,
                to: group[0].1,
                types: Span::new(start..self.types.len()),
            });
        }
        // Adjacency rows in edge order: count, then place through a cursor
        // per row (which ends as the row's end).
        self.adj_ends.resize(pattern_vars, 0);
        for edge in &self.edges {
            self.adj_ends[edge.from.index()] += 1;
            self.adj_ends[edge.to.index()] += 1;
        }
        let mut start = 0;
        for end in &mut self.adj_ends {
            let degree = *end;
            *end = start;
            start += degree;
        }
        let placeholder = QAdj {
            neighbor: QVertexId(0),
            direction: Direction::Outgoing,
            edge: 0,
        };
        self.adj.resize(start as usize, placeholder);
        for (idx, edge) in self.edges.iter().enumerate() {
            for (at, neighbor, direction) in [
                (edge.from, edge.to, Direction::Outgoing),
                (edge.to, edge.from, Direction::Incoming),
            ] {
                let cursor = &mut self.adj_ends[at.index()];
                self.adj[*cursor as usize] = QAdj {
                    neighbor,
                    direction,
                    edge: idx,
                };
                *cursor += 1;
            }
        }

        for group in s.ground_edges.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let start = self.types.len();
            self.types.extend(group.iter().map(|&(.., t)| t));
            self.ground_checks.push(GroundCheck::Edge {
                from: group[0].0,
                to: group[0].1,
                types: Span::new(start..self.types.len()),
            });
        }
        for group in s.ground_attrs.chunk_by(|a, b| a.0 == b.0) {
            let start = self.attrs.len();
            self.attrs.extend(group.iter().map(|&(_, a)| a));
            self.ground_checks.push(GroundCheck::Attribute {
                vertex: group[0].0,
                attrs: Span::new(start..self.attrs.len()),
            });
        }
        s.clear();
    }

    fn clear(&mut self) {
        self.names.clear();
        self.name_ends.clear();
        self.vertex_count = 0;
        self.types.clear();
        self.edges.clear();
        self.adj.clear();
        self.adj_ends.clear();
        self.attrs.clear();
        self.attr_ends.clear();
        self.iris.clear();
        self.iri_ends.clear();
        self.self_loops.clear();
        self.ground_checks.clear();
        self.unsat_reason.clear();
        self.unsatisfiable = false;
        self.projection.clear();
        self.distinct = false;
        self.scratch.clear();
    }
}

/// The connected components of a query graph
/// ([`QueryGraph::connected_components`]): one run of ascending vertex ids
/// per component, in the order of each component's smallest vertex.
#[derive(Debug, Clone, Default)]
pub struct Components {
    vertices: Vec<QVertexId>,
    ends: Vec<u32>,
    seen: Vec<bool>,
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for the graph without vertices.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Each component's vertices, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[QVertexId]> + '_ {
        (0..self.len()).map(|i| &self[i])
    }
}

impl Index<usize> for Components {
    type Output = [QVertexId];

    fn index(&self, i: usize) -> &[QVertexId] {
        &self.vertices[row(&self.ends, i)]
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
        assert_eq!(q.vertex(QVertexId(0)).name, "a");
        assert_eq!(q.vertex(QVertexId(1)).name, "b");
        assert_eq!(q.vertex(QVertexId(2)).name, "c");
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
        let a = QVertexId(0);
        assert_eq!(q.incident(a, Direction::Incoming).count(), 1);
        assert_eq!(q.incident(a, Direction::Outgoing).count(), 1);
        assert_eq!(q.edge_instance_count(a), 2);
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
        let a = QVertexId(0);
        // one var edge + one IRI edge
        assert_eq!(q.incident(a, Direction::Outgoing).count(), 2);
        assert_eq!(q.incident(a, Direction::Incoming).count(), 0);
    }

    #[test]
    fn components_split_disconnected_queries() {
        let q = qg("SELECT * WHERE { ?a <http://p/e1> ?b . ?c <http://p/e2> ?d . }");
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], [QVertexId(0), QVertexId(1)]);
        assert_eq!(comps[1], [QVertexId(2), QVertexId(3)]);
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
        assert!(q.output_vars().eq(["b"]));
    }
}
