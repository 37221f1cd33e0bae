//! The sub-multigraph homomorphism search (paper Algorithms 2, 3 and 4).
//!
//! [`ComponentMatcher`] matches one connected component of the query
//! multigraph:
//!
//! 1. decompose into core + satellite vertices ([`crate::decompose`]),
//! 2. order the core vertices ([`crate::ordering`]),
//! 3. seed with `CandInit = ⋂ incidence lists of u_init's typed edges ∩
//!    ProcessVertex(u_init)` — the exact, type-major reading of the OTIL
//!    roots ([`NeighborhoodIndex::vertices_with_type`]) where the paper
//!    walks the synopsis index (Algorithm 3, lines 4-5) — keeping only
//!    candidates that own each multi-type edge of `u_init` on a single
//!    neighbour; a seed vertex without a typed edge is seeded from its
//!    `ProcessVertex` whitelist filtered by the stored synopses, and only an
//!    unconstrained one walks `C^S_{u_init}`,
//! 4. recurse over the ordered core vertices; at each step the candidates of
//!    the next vertex are the intersection of `QueryNeighIndex` probes from
//!    *all* already-matched adjacent cores (Algorithm 4, lines 5-7),
//!    refined by the vertex constraint (line 8),
//! 5. whenever a core vertex is matched, its satellites are resolved
//!    *independently* via `MatchSatVertices` (Algorithm 2, justified by
//!    Lemma 2) — each satellite contributes a *set* of matches,
//! 6. a completed assignment contributes `∏ |V_s|` embeddings (`GenEmb`'s
//!    Cartesian product) — counted exactly, materialized lazily.
//!
//! There is no injectivity check anywhere: this is homomorphism, not
//! isomorphism (§5: "different query vertices \[may\] be matched with the
//! same data vertices").
//!
//! ## Zero-allocation candidate pipeline
//!
//! The steady-state recursion performs **no heap allocation**. The search
//! runs over one scratch arena per order position (`DepthScratch`, held
//! in [`SearchArenas`]): a candidate buffer that stays live while deeper
//! levels run, a spill buffer for multi-type/unconstrained probes, a probe
//! ordering table, and one reusable buffer per satellite of that depth.
//! Probes hit the index through [`amber_index::otil::ProbeResult`]:
//! single-type probes *borrow* the inverted list straight from the OTIL
//! pool, everything else spills into the depth's buffer. Intersection
//! cascades run smallest-list-first (cheap `probe_len_hint`s, no
//! materialization) and fold in place via `sorted::intersect_in_place`, so
//! after the first few candidates warm the buffers up to capacity the
//! whole search recycles the same memory. Solutions are only materialized
//! when they are actually retained — counting-only runs allocate nothing
//! per embedding.
//!
//! ## One plan, one search
//!
//! [`ComponentPrep::build`] derives the plan (decomposition, order, probe
//! plans, seed set) once; [`ComponentPrep::build_with_order`] is the same
//! with a caller's core order (the ordering ablation). A
//! [`ComponentMatcher`] is a view over a prep, built by its one
//! constructor, and [`ComponentMatcher::run`] searches from a slice of
//! root candidates (normally [`ComponentPrep::initial_candidates`]) in
//! borrowed [`SearchArenas`]: a [`QuerySession`](crate::session::QuerySession)
//! lends its arenas, which grow high-water-mark style and are never
//! shrunk, so a session stops allocating once its largest query shape has
//! been seen.
//!
//! The plan and the search read only the index set `I = {A, S, N}`: the
//! data graph itself is never consulted. A self-loop `?x p ?x` is checked
//! on `N` ([`NeighborhoodIndex::has_edge`]), as are the query's ground
//! patterns ([`PreparedPlan`](crate::plan::PreparedPlan)).

use crate::candidates::{process_vertex_into, satisfies_self_loop};
use crate::decompose::Decomposition;
use crate::embedding::RowScratch;
use crate::ordering::order_core_vertices_into;
use amber_index::{IndexSet, NeighborhoodIndex};
use amber_multigraph::{Direction, EdgeTypeId, QVertexId, QueryGraph, Span, VertexId};
use amber_util::fault::{self, FaultPoint};
use amber_util::{sorted, Deadline};

/// One full assignment of a component: every core vertex pinned to a data
/// vertex, every satellite carrying its independent candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSolution {
    /// `(query vertex, matched data vertex)` per core vertex.
    pub core: Vec<(QVertexId, VertexId)>,
    /// `(query vertex, matched data vertices)` per satellite vertex.
    pub satellites: Vec<(QVertexId, Vec<VertexId>)>,
}

impl ComponentSolution {
    /// Number of embeddings this solution denotes (`∏ |V_s|`, saturating).
    pub fn embedding_count(&self) -> u128 {
        self.satellites
            .iter()
            .fold(1u128, |acc, (_, vs)| acc.saturating_mul(vs.len() as u128))
    }
}

/// The result of matching one component.
#[derive(Debug, Clone, Default)]
pub struct ComponentMatch {
    /// Exact embedding count (saturating u128), partial if `timed_out`.
    pub count: u128,
    /// Retained solutions (up to the configured cap).
    pub solutions: Vec<ComponentSolution>,
    /// `true` when the deadline expired before the search ran to
    /// completion.
    pub timed_out: bool,
    /// Search-tree nodes visited (candidate attempts) — the
    /// hardware-independent work measure of a search.
    pub nodes: u64,
}

/// Search configuration.
#[derive(Debug)]
pub struct MatchConfig<'d> {
    /// Shared wall-clock budget.
    pub deadline: &'d Deadline,
    /// Maximum number of [`ComponentSolution`]s to retain (counting always
    /// runs to completion). `None` retains all.
    pub solution_cap: Option<usize>,
}

impl<'d> MatchConfig<'d> {
    /// A config with only a deadline and an optional solution cap (tests
    /// and one-shot callers).
    pub fn new(deadline: &'d Deadline, solution_cap: Option<usize>) -> Self {
        Self {
            deadline,
            solution_cap,
        }
    }
}

/// A probe against the neighbourhood index, seen from an already-matched
/// vertex: "neighbours of ψ(prior) in `direction` through the types of
/// query edge `edge`".
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeighborProbe {
    /// Position of the already-matched core vertex in the order.
    prior_position: usize,
    /// Direction of the probe relative to the *matched* vertex.
    direction: Direction,
    /// The query edge whose types are required ([`QueryGraph::edges`]).
    edge: usize,
}

/// A satellite's probe relative to its core vertex's match.
#[derive(Debug, Clone, Copy)]
struct SatelliteProbe {
    direction: Direction,
    /// The query edge whose types are required.
    edge: usize,
}

/// Everything needed to resolve one satellite of a core vertex.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SatellitePlan {
    vertex: QVertexId,
    /// Probes relative to the core vertex's match (a run of the prep's
    /// satellite probes).
    probes: Span,
    /// Its `ProcessVertex` whitelist (a run of the prep's whitelists), or
    /// `None` when unconstrained.
    constraint: Option<Span>,
    has_self_loop: bool,
}

/// Per-ordered-core-vertex matching plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CorePlan {
    vertex: QVertexId,
    /// Probes from earlier-ordered neighbours (empty for the initial vertex;
    /// a run of the prep's probes).
    probes: Span,
    /// Its `ProcessVertex` whitelist, or `None` when unconstrained.
    constraint: Option<Span>,
    has_self_loop: bool,
    /// A run of the prep's satellites.
    satellites: Span,
}

/// One type-incidence list the seed set was intersected from: every data
/// vertex with an edge of `edge_type` in `direction`
/// ([`NeighborhoodIndex::vertices_with_type`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedList {
    /// Direction of the edge relative to the seed vertex.
    pub direction: Direction,
    /// The required edge type.
    pub edge_type: EdgeTypeId,
    /// Length of the incidence list.
    pub len: usize,
}

/// The immutable matching plan of one connected component — everything
/// [`ComponentMatcher`] derives *before* the search runs: the core/satellite
/// decomposition, the processing order, per-position probe plans
/// (`ProcessVertex` constraints resolved and cached inline), and the seed
/// candidates of the initial vertex.
///
/// A `ComponentPrep` owns all of its data (no borrows of the query graph;
/// probes name query edges by index), so a
/// [`PreparedPlan`](crate::plan::PreparedPlan) can hand it to any number of
/// later executions: the matcher becomes a cheap per-run *view* over a
/// prep built once. Its plans, probes and whitelists are runs of flat
/// pools that [`Self::rebuild`] clears and refills, so a session's plan
/// reuses them query after query.
#[derive(Debug, Default)]
pub struct ComponentPrep {
    pub(crate) order: Vec<QVertexId>,
    pub(crate) decomp: Decomposition,
    pub(crate) plans: Vec<CorePlan>,
    probes: Vec<NeighborProbe>,
    satellites: Vec<SatellitePlan>,
    satellite_probes: Vec<SatelliteProbe>,
    /// The `ProcessVertex` whitelists of the component's vertices.
    whitelists: Vec<VertexId>,
    /// `CandInit`: the seed lists' intersection ∩ `ProcessVertex` of the
    /// initial vertex, refined by its multi-type edges.
    pub(crate) initial: Vec<VertexId>,
    /// The incidence lists `initial` was intersected from, shortest first;
    /// empty when the initial vertex has no typed edge and the synopses
    /// seeded it instead.
    pub(crate) seed_lists: Vec<SeedList>,
}

impl ComponentPrep {
    /// Build the plan for one component (vertex ids ascending), computing
    /// `ProcessVertex` in the scratch of `arenas`.
    pub fn build(
        qg: &QueryGraph,
        index: &IndexSet,
        component: &[QVertexId],
        arenas: &mut SearchArenas,
    ) -> Self {
        let mut prep = Self::default();
        prep.rebuild(qg, index, component, arenas);
        prep
    }

    /// [`Self::build`] into this prep's buffers: every one is cleared
    /// before it is refilled.
    pub fn rebuild(
        &mut self,
        qg: &QueryGraph,
        index: &IndexSet,
        component: &[QVertexId],
        arenas: &mut SearchArenas,
    ) {
        self.decomp.rebuild(qg, component);
        order_core_vertices_into(qg, &self.decomp, &mut self.order);
        self.fill(qg, index, arenas);
    }

    /// [`Self::build`] with an explicit core order — the hook of the
    /// ordering-heuristic ablation. `order` must be a permutation of the
    /// component's core vertices in which every vertex after the first is
    /// adjacent to an earlier one.
    ///
    /// # Panics
    ///
    /// When `order` breaks either half of that precondition.
    pub fn build_with_order(
        qg: &QueryGraph,
        index: &IndexSet,
        component: &[QVertexId],
        order: Vec<QVertexId>,
        arenas: &mut SearchArenas,
    ) -> Self {
        let mut prep = Self {
            decomp: Decomposition::of_component(qg, component),
            ..Self::default()
        };
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            prep.decomp.core(),
            "order must permute the core vertices"
        );
        prep.order = order;
        prep.fill(qg, index, arenas);
        assert!(
            prep.plans
                .iter()
                .skip(1)
                .all(|plan| !plan.probes.is_empty()),
            "every core vertex after the first needs an earlier neighbour in the order"
        );
        prep
    }

    /// The ordered core vertices (`U_c^ord`).
    pub fn core_order(&self) -> &[QVertexId] {
        &self.order
    }

    /// The core/satellite decomposition this plan was built from.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// The seed candidates of the initial vertex (`CandInit`).
    pub fn initial_candidates(&self) -> &[VertexId] {
        &self.initial
    }

    /// The type-incidence lists [`Self::initial_candidates`] was
    /// intersected from, shortest first. Empty means the synopses seeded
    /// the component (initial vertex without a typed edge): filtering the
    /// `ProcessVertex` whitelist, or walking the synopsis index when the
    /// vertex is unconstrained.
    pub fn seed_lists(&self) -> &[SeedList] {
        &self.seed_lists
    }

    /// The constraint computed for a core/satellite vertex of this
    /// component, if it is finite (`None` for unconstrained vertices and
    /// vertices outside the component).
    pub fn constrained_candidate_count(&self, u: QVertexId) -> Option<usize> {
        let of = |c: Option<Span>| c.map(Span::len);
        for plan in &self.plans {
            if plan.vertex == u {
                return of(plan.constraint);
            }
            for sat in self.satellites_of(plan) {
                if sat.vertex == u {
                    return of(sat.constraint);
                }
            }
        }
        None
    }

    fn probes_of(&self, plan: &CorePlan) -> &[NeighborProbe] {
        &self.probes[plan.probes.range()]
    }

    fn satellites_of(&self, plan: &CorePlan) -> &[SatellitePlan] {
        &self.satellites[plan.satellites.range()]
    }

    fn satellite_probes_of(&self, sat: &SatellitePlan) -> &[SatelliteProbe] {
        &self.satellite_probes[sat.probes.range()]
    }

    /// A vertex's `ProcessVertex` whitelist; `None` when unconstrained.
    fn whitelist(&self, constraint: Option<Span>) -> Option<&[VertexId]> {
        constraint.map(|run| &self.whitelists[run.range()])
    }

    /// Derive the probe plans, `ProcessVertex` whitelists and seed set of
    /// `self.order`.
    fn fill(&mut self, qg: &QueryGraph, index: &IndexSet, arenas: &mut SearchArenas) {
        self.plans.clear();
        self.probes.clear();
        self.satellites.clear();
        self.satellite_probes.clear();
        self.whitelists.clear();
        self.initial.clear();
        self.seed_lists.clear();
        let order = &self.order;
        let position_of = |u: QVertexId| order.iter().position(|&o| o == u);

        for (pos, &u) in order.iter().enumerate() {
            // Probes from already-ordered core neighbours: for an edge
            // prior→u the candidates are out-neighbours of ψ(prior); for
            // u→prior they are in-neighbours.
            let probes = self.probes.len();
            for adj in qg.adjacency(u) {
                if adj.neighbor == u {
                    continue;
                }
                let Some(prior_position) = position_of(adj.neighbor) else {
                    continue; // satellite, handled below
                };
                if prior_position >= pos {
                    continue; // matched later; enforced from the other side
                }
                // adj.direction is relative to u; the probe runs from the
                // matched prior vertex, so it flips.
                self.probes.push(NeighborProbe {
                    prior_position,
                    direction: adj.direction.flip(),
                    edge: adj.edge,
                });
            }

            let satellites = self.satellites.len();
            for &s in self.decomp.satellites_of(u) {
                let sat_probes = self.satellite_probes.len();
                for adj in qg.adjacency(u) {
                    if adj.neighbor == s {
                        // Probe direction relative to the core match: an
                        // edge u→s means the satellite candidates are
                        // out-neighbours of ψ(u).
                        self.satellite_probes.push(SatelliteProbe {
                            direction: adj.direction,
                            edge: adj.edge,
                        });
                    }
                }
                debug_assert!(
                    self.satellite_probes.len() > sat_probes,
                    "satellite must touch its core"
                );
                let constraint =
                    process_vertex_into(qg, s, index, &mut arenas.process, &mut self.whitelists);
                self.satellites.push(SatellitePlan {
                    vertex: s,
                    probes: Span::new(sat_probes..self.satellite_probes.len()),
                    constraint: constraint.map(Span::new),
                    has_self_loop: qg.self_loop(s).is_some(),
                });
            }

            let constraint =
                process_vertex_into(qg, u, index, &mut arenas.process, &mut self.whitelists);
            self.plans.push(CorePlan {
                vertex: u,
                probes: Span::new(probes..self.probes.len()),
                constraint: constraint.map(Span::new),
                has_self_loop: qg.self_loop(u).is_some(),
                satellites: Span::new(satellites..self.satellites.len()),
            });
        }
        self.seed(qg, index, &mut arenas.process);
    }

    /// Algorithm 3, lines 4-5: the seed candidates of the initial vertex,
    /// computed in `scratch` and kept in `self.initial`.
    fn seed(&mut self, qg: &QueryGraph, index: &IndexSet, scratch: &mut ProcessScratch) {
        let ProcessScratch {
            order,
            acc,
            scratch,
        } = scratch;
        let u_init = self.order[0];
        let n = &index.neighborhood;
        seed_lists_of(qg, u_init, n, &mut self.seed_lists);
        let whitelist = self.plans[0]
            .constraint
            .map(|run| &self.whitelists[run.range()]);
        if self.seed_lists.is_empty() {
            // No typed edge (an isolated variable). A constant-anchored
            // vertex reads the stored synopsis per whitelisted vertex: the
            // R-tree answers exactly the dominating vertices, so this is
            // `QuerySynIndex ∩ ProcessVertex` without walking |V|. Only an
            // unconstrained vertex takes `QuerySynIndex` itself.
            let synopsis = qg.query_synopsis(u_init, order);
            match whitelist {
                Some(allowed) => self.initial.extend(
                    allowed
                        .iter()
                        .copied()
                        .filter(|&v| index.signature.synopsis_of(v).dominates(&synopsis)),
                ),
                None => self
                    .initial
                    .extend_from_slice(&index.signature.candidates(&synopsis)),
            }
        } else {
            // A match of u_init owns an edge of every (direction, type) on
            // u_init, so it is in every one of these lists — and in
            // ProcessVertex's whitelist, folded into the same cascade.
            let lists = &self.seed_lists;
            let list = |i: usize| match lists.get(i) {
                Some(l) => n.vertices_with_type(l.direction, l.edge_type),
                None => whitelist.expect("the whitelist follows the seed lists"),
            };
            let count = lists.len() + usize::from(whitelist.is_some());
            sorted::intersect_many_with(count, list, order, acc, scratch);
            std::mem::swap(&mut self.initial, acc);
            // The lists say "has a t1 edge and a t2 edge"; a multi-edge
            // {t1, t2} needs both on one neighbour. The stored synopsis
            // knows the largest multi-edge of every vertex — the one field
            // the lists do not imply — so it is read per surviving
            // candidate (an array lookup, no R-tree walk) before the exact
            // first-hit OTIL check; letting the search discover either is
            // far dearer.
            let mut multi = multi_type_edges_of(qg, u_init).peekable();
            if multi.peek().is_some() {
                let synopsis = qg.query_synopsis(u_init, order);
                self.initial
                    .retain(|&v| index.signature.synopsis_of(v).dominates(&synopsis));
            }
            for (direction, types) in multi {
                self.initial
                    .retain(|&v| n.has_neighbor(v, direction, types));
            }
        }
        if self.plans[0].has_self_loop {
            self.initial
                .retain(|&v| satisfies_self_loop(qg, u_init, n, v));
        }
    }
}

/// The multi-edges of `u` towards other variables that carry more than one
/// type, as `(direction relative to u, types)`.
pub(crate) fn multi_type_edges_of(
    qg: &QueryGraph,
    u: QVertexId,
) -> impl Iterator<Item = (Direction, &[EdgeTypeId])> {
    qg.adjacency(u)
        .iter()
        .map(|adj| (adj.direction, qg.types(qg.edges()[adj.edge].types)))
        .filter(|(_, types)| types.len() > 1)
}

/// The type-incidence lists every match of `u` must appear in, into
/// `lists`: one per distinct `(direction, type)` on `u`'s core, satellite
/// and self-loop edges, shortest first. (Edges to IRI vertices are
/// `ProcessVertex`'s business: its probe from the constant is a subset of
/// the type's list.)
fn seed_lists_of(qg: &QueryGraph, u: QVertexId, n: &NeighborhoodIndex, lists: &mut Vec<SeedList>) {
    lists.clear();
    let mut push = |direction, edge_type| {
        lists.push(SeedList {
            direction,
            edge_type,
            len: n.vertices_with_type(direction, edge_type).len(),
        })
    };
    for adj in qg.adjacency(u) {
        for &t in qg.types(qg.edges()[adj.edge].types) {
            push(adj.direction, t);
        }
    }
    for &t in qg.self_loop(u).unwrap_or_default() {
        push(Direction::Incoming, t);
        push(Direction::Outgoing, t);
    }
    lists.sort_unstable_by_key(|l| (l.len, l.edge_type, l.direction == Direction::Outgoing));
    lists.dedup();
}

/// Matcher for one connected component of the query multigraph: a view
/// over the component's [`ComponentPrep`].
pub struct ComponentMatcher<'a> {
    qg: &'a QueryGraph,
    index: &'a IndexSet,
    prep: &'a ComponentPrep,
}

impl<'a> ComponentMatcher<'a> {
    /// A matcher over `prep`, which was built for `qg` against `index`.
    pub fn new(qg: &'a QueryGraph, index: &'a IndexSet, prep: &'a ComponentPrep) -> Self {
        Self { qg, index, prep }
    }

    /// The types of query edge `edge`.
    fn types(&self, edge: usize) -> &'a [EdgeTypeId] {
        self.qg.types(self.qg.edges()[edge].types)
    }

    /// Search from the root candidates `initial` (sorted; normally
    /// [`ComponentPrep::initial_candidates`]) in borrowed `arenas`, which
    /// are grown (never shrunk) to this component's plan.
    pub fn run(
        &self,
        initial: &[VertexId],
        config: &MatchConfig<'_>,
        arenas: &mut SearchArenas,
    ) -> ComponentMatch {
        arenas.prepare(self.prep);
        let mut state = SearchState {
            arenas,
            result: ComponentMatch::default(),
            config,
        };
        // Iterate the initial candidates as the root loop: a checkpoint
        // before every candidate, the precise clock on a stride.
        self.iterate_level(0, initial, &mut state, true);
        state.result
    }

    /// MatchSatVertices (Algorithm 2): resolve every satellite of the core
    /// vertex at `pos` given ψ(core) = `v` (independently, by Lemma 2) into
    /// this depth's reusable buffers. Returns `false` when some satellite
    /// has no candidates — no solution possible for this `v` (Alg. 2
    /// line 8). On early exit the buffers keep stale data from the failed
    /// candidate; that is fine because `record` is only reached after every
    /// depth on the chain refilled its buffers for the current assignment.
    fn resolve_satellites(&self, pos: usize, v: VertexId, state: &mut SearchState<'_, '_>) -> bool {
        let plan = &self.prep.plans[pos];
        for (k, sat) in self.prep.satellites_of(plan).iter().enumerate() {
            let DepthScratch {
                satellites,
                satellite_spill,
                ..
            } = &mut state.arenas.depths[pos];
            let resolved = &mut satellites[k];
            self.satellite_candidates(sat, v, resolved, satellite_spill);
            if resolved.is_empty() {
                return false;
            }
        }
        true
    }

    /// Attempt `v` as the match of the core vertex at `pos`; on success,
    /// resolve its satellites and recurse (Algorithm 3 lines 8-19 for the
    /// initial vertex, Algorithm 4 lines 9-20 beyond).
    fn try_candidate(&self, pos: usize, v: VertexId, state: &mut SearchState<'_, '_>) {
        state.result.nodes += 1;
        // Chaos-harness hook: one relaxed atomic load when disarmed. A
        // `Panic` fault unwinds from here into the engine's quarantine.
        fault::inject(FaultPoint::MatcherCandidate);
        if !self.resolve_satellites(pos, v, state) {
            return;
        }
        state.arenas.assignment[pos] = v;
        self.recurse(pos + 1, state);
    }

    /// How many root candidates pass between reads of the uncached clock.
    const ROOT_PRECISE_STRIDE: usize = 64;

    /// Cooperative checkpoint: the deadline check in one place. Returns
    /// `true` (after recording the timeout) when the search must stop.
    /// `precise` consults the uncached clock — the root loop only, on its
    /// stride.
    fn check_deadline(&self, state: &mut SearchState<'_, '_>, precise: bool) -> bool {
        let expired = if precise {
            state.config.deadline.exceeded_now()
        } else {
            state.config.deadline.exceeded()
        };
        state.result.timed_out |= expired;
        expired
    }

    /// Candidates of one satellite given its core's match (Algorithm 2
    /// lines 3-4), computed into `out` using `spill` for multi-type probes.
    fn satellite_candidates(
        &self,
        sat: &SatellitePlan,
        core_match: VertexId,
        out: &mut Vec<VertexId>,
        spill: &mut Vec<VertexId>,
    ) {
        let n = &self.index.neighborhood;
        let probes = self.prep.satellite_probes_of(sat);
        let types = |probe: &SatelliteProbe| self.types(probe.edge);
        // Base the fold on the most selective probe (satellites almost
        // always have exactly one; two when the query touches the pair in
        // both directions).
        let mut first = 0;
        if probes.len() > 1 {
            first = (0..probes.len())
                .min_by_key(|&i| {
                    let probe = &probes[i];
                    n.probe_len_hint(core_match, probe.direction, types(probe))
                })
                .expect("satellite has at least one probe");
        }
        let probe = &probes[first];
        n.neighbors_into(core_match, probe.direction, types(probe), out);
        for (i, probe) in probes.iter().enumerate() {
            if i == first {
                continue;
            }
            if out.is_empty() {
                return;
            }
            let probed = n.probe(core_match, probe.direction, types(probe), spill);
            sorted::intersect_in_place(out, probed.as_slice(spill));
        }
        if let Some(allowed) = self.prep.whitelist(sat.constraint) {
            sorted::intersect_in_place(out, allowed);
        }
        if sat.has_self_loop {
            out.retain(|&v| satisfies_self_loop(self.qg, sat.vertex, n, v));
        }
    }

    /// HomomorphicMatch (Algorithm 4).
    fn recurse(&self, pos: usize, state: &mut SearchState<'_, '_>) {
        if self.check_deadline(state, false) {
            return;
        }
        if pos == self.prep.order.len() {
            self.record(state);
            return;
        }
        let plan = &self.prep.plans[pos];
        let probes = self.prep.probes_of(plan);

        // Fast path: one single-type probe feeding an unconstrained vertex
        // needs no materialization at all — iterate the inverted list
        // borrowed from the index pool.
        if let [probe] = probes {
            if let ([t], None, false) =
                (self.types(probe.edge), plan.constraint, plan.has_self_loop)
            {
                let matched = state.arenas.assignment[probe.prior_position];
                let list =
                    self.index
                        .neighborhood
                        .neighbors_with_type(matched, probe.direction, *t);
                self.iterate_level(pos, list, state, false);
                return;
            }
        }

        // Lines 5-7: intersect neighbourhood probes from all matched
        // adjacent cores, smallest expected list first, folding in place in
        // this depth's candidate buffer. Single-type probes borrow from the
        // index pool; multi-type / unconstrained probes spill.
        {
            let SearchArenas {
                assignment, depths, ..
            } = &mut *state.arenas;
            let DepthScratch {
                candidates,
                spill,
                probe_order,
                ..
            } = &mut depths[pos];
            let n = &self.index.neighborhood;

            probe_order.clear();
            for (i, probe) in probes.iter().enumerate() {
                let matched = assignment[probe.prior_position];
                let hint = n.probe_len_hint(matched, probe.direction, self.types(probe.edge));
                probe_order.push((hint, i));
            }
            probe_order.sort_unstable();

            let mut ordered = probe_order.iter();
            let &(_, first) = ordered
                .next()
                .expect("non-initial core vertex has at least one ordered neighbour");
            let probe = &probes[first];
            n.neighbors_into(
                assignment[probe.prior_position],
                probe.direction,
                self.types(probe.edge),
                candidates,
            );
            for &(_, i) in ordered {
                if candidates.is_empty() {
                    return;
                }
                let probe = &probes[i];
                let probed = n.probe(
                    assignment[probe.prior_position],
                    probe.direction,
                    self.types(probe.edge),
                    spill,
                );
                sorted::intersect_in_place(candidates, probed.as_slice(spill));
            }

            // Line 8: refine with ProcessVertex (+ self-loop).
            if let Some(allowed) = self.prep.whitelist(plan.constraint) {
                sorted::intersect_in_place(candidates, allowed);
            }
            if plan.has_self_loop {
                candidates.retain(|&v| satisfies_self_loop(self.qg, plan.vertex, n, v));
            }
        }

        // Lines 9-20. Indexed loop: deeper recursion uses its *own* depth's
        // arena, so this depth's candidate buffer is stable throughout, but
        // `state` cannot stay borrowed across `try_candidate`.
        for i in 0..state.arenas.depths[pos].candidates.len() {
            let v = state.arenas.depths[pos].candidates[i];
            self.try_candidate(pos, v, state);
            if state.result.timed_out {
                return;
            }
        }
    }

    /// Iterate a borrowed candidate list — the initial candidates or the
    /// fast path's inverted-list borrow — as the level at `pos`.
    /// `root` additionally runs a checkpoint before every candidate (the
    /// root loop only; recursion levels rely on the check at `recurse`
    /// entry): the uncached clock on the first candidate and every
    /// [`Self::ROOT_PRECISE_STRIDE`]th, the amortized check otherwise (a
    /// clock read costs as much as a root candidate that dies in its
    /// satellites, ~30 ns).
    fn iterate_level(
        &self,
        pos: usize,
        source: &[VertexId],
        state: &mut SearchState<'_, '_>,
        root: bool,
    ) {
        for (i, &v) in source.iter().enumerate() {
            if root && self.check_deadline(state, i % Self::ROOT_PRECISE_STRIDE == 0) {
                return;
            }
            self.try_candidate(pos, v, state);
            if state.result.timed_out {
                return;
            }
        }
    }

    /// All core vertices matched: register the solution. `GenEmb` counting —
    /// the solution denotes `∏ |V_s|` embeddings via Cartesian product; the
    /// solution itself is only materialized when it is retained.
    fn record(&self, state: &mut SearchState<'_, '_>) {
        // Session arenas can be *larger* than this component's plan (they
        // are grown high-water-mark style and never shrunk), so every walk
        // zips against the plans — stale deeper/extra buffers are ignored.
        let prep = self.prep;
        let mut embeddings: u128 = 1;
        for (plan, depth) in prep.plans.iter().zip(&state.arenas.depths) {
            for (_, resolved) in prep.satellites_of(plan).iter().zip(&depth.satellites) {
                embeddings = embeddings.saturating_mul(resolved.len() as u128);
            }
        }
        state.result.count = state.result.count.saturating_add(embeddings);
        let keep = state
            .config
            .solution_cap
            .is_none_or(|cap| state.result.solutions.len() < cap);
        if keep {
            state.result.solutions.push(ComponentSolution {
                core: state.arenas.assignment[..prep.order.len()]
                    .iter()
                    .enumerate()
                    .map(|(pos, &v)| (prep.order[pos], v))
                    .collect(),
                satellites: prep
                    .plans
                    .iter()
                    .zip(&state.arenas.depths)
                    .flat_map(|(plan, depth)| {
                        prep.satellites_of(plan)
                            .iter()
                            .zip(&depth.satellites)
                            .map(|(sat, resolved)| (sat.vertex, resolved.clone()))
                    })
                    .collect(),
            });
        }
    }
}

/// Reusable buffers of one recursion depth (order position). Prepared by
/// [`SearchArenas::prepare`], recycled for every candidate thereafter.
#[derive(Debug, Default)]
struct DepthScratch {
    /// Candidate list of the core vertex at this depth. Stays live while
    /// deeper depths run (each depth only touches its own arena).
    candidates: Vec<VertexId>,
    /// Spill target for multi-type/unconstrained probes during the
    /// intersection cascade (ping-pongs with `candidates` via
    /// `intersect_in_place`).
    spill: Vec<VertexId>,
    /// `(len hint, probe index)` scratch for the smallest-first ordering.
    probe_order: Vec<(usize, usize)>,
    /// Resolved candidate set per satellite of this depth's plan.
    satellites: Vec<Vec<VertexId>>,
    /// Spill buffer for satellite probes.
    satellite_spill: Vec<VertexId>,
}

/// The buffers `ProcessVertex` computes an attribute-set intersection or a
/// multi-type OTIL probe into (`AttributeIndex::candidates_into`'s three).
#[derive(Debug, Default)]
pub(crate) struct ProcessScratch {
    pub(crate) order: Vec<u32>,
    pub(crate) acc: Vec<VertexId>,
    pub(crate) scratch: Vec<VertexId>,
}

/// The matcher's long-lived scratch memory: the core assignment slots, one
/// `DepthScratch` arena per order position, the `ProcessVertex` scratch of
/// plan construction and the row buffers of materialization.
///
/// A [`QuerySession`](crate::session::QuerySession) owns one `SearchArenas`
/// and lends it to every component run; `prepare` grows
/// the arenas to the incoming plan's shape **high-water-mark style** — an
/// arena set that has seen a deep query never shrinks back, so repeated
/// workloads stop touching the allocator entirely.
#[derive(Debug, Default)]
pub struct SearchArenas {
    /// Current core assignment, indexed by order position (only the first
    /// `plans.len()` slots are meaningful for the active component).
    assignment: Vec<VertexId>,
    /// Per-depth scratch arenas, indexed by order position (may be longer
    /// than the active component's plan).
    depths: Vec<DepthScratch>,
    /// `ProcessVertex` buffers (plan construction).
    pub(crate) process: ProcessScratch,
    /// Materialization buffers.
    pub(crate) rows: RowScratch,
}

impl SearchArenas {
    /// Empty arenas (they grow to steady-state capacity on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow (never shrink) to fit a component plan: enough assignment
    /// slots, enough depth arenas, enough satellite buffers per depth.
    fn prepare(&mut self, prep: &ComponentPrep) {
        let plans = &prep.plans;
        if self.assignment.len() < plans.len() {
            self.assignment.resize(plans.len(), VertexId(u32::MAX));
        }
        if self.depths.len() < plans.len() {
            self.depths.resize_with(plans.len(), DepthScratch::default);
        }
        for (depth, plan) in self.depths.iter_mut().zip(plans) {
            let satellites = prep.satellites_of(plan).len();
            if depth.satellites.len() < satellites {
                depth.satellites.resize_with(satellites, Vec::new);
            }
        }
    }
}

/// Mutable search state threaded through the recursion: borrowed session
/// arenas plus the per-run result accumulator.
struct SearchState<'c, 'd> {
    /// Borrowed long-lived scratch arenas.
    arenas: &'c mut SearchArenas,
    result: ComponentMatch,
    config: &'c MatchConfig<'d>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_sparql::parse_select;

    fn setup() -> (QueryGraph, IndexSet) {
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        (qg, index)
    }

    fn run(
        qg: &QueryGraph,
        index: &IndexSet,
        prep: &ComponentPrep,
        cap: Option<usize>,
    ) -> ComponentMatch {
        let deadline = Deadline::unlimited();
        ComponentMatcher::new(qg, index, prep).run(
            prep.initial_candidates(),
            &MatchConfig::new(&deadline, cap),
            &mut SearchArenas::new(),
        )
    }

    #[test]
    fn paper_query_has_two_embeddings() {
        let (qg, index) = setup();
        let comps = qg.connected_components();
        let prep = ComponentPrep::build(&qg, &index, &comps[0], &mut SearchArenas::new());
        let result = run(&qg, &index, &prep, None);
        assert!(!result.timed_out);
        assert_eq!(result.count, 2);
        assert!(result.nodes > 0, "every candidate attempt is a node");
    }

    #[test]
    fn solution_cap_truncates_retention_not_the_count() {
        let (qg, index) = setup();
        let comps = qg.connected_components();
        let prep = ComponentPrep::build(&qg, &index, &comps[0], &mut SearchArenas::new());
        let all = run(&qg, &index, &prep, None);
        let capped = run(&qg, &index, &prep, Some(1));
        assert_eq!(capped.count, all.count);
        assert_eq!(capped.solutions, all.solutions[..1]);
        assert!(!capped.timed_out);
    }

    #[test]
    #[should_panic(expected = "needs an earlier neighbour")]
    fn an_order_with_a_vertex_apart_from_its_prefix_is_refused_at_build() {
        // The chain a-b-c-d-e has the core {b, c, d}; in [b, d, c], d
        // touches nothing before it.
        let rdf =
            amber_multigraph::RdfGraph::parse_ntriples("<http://x/1> <http://p/p> <http://x/2> .")
                .unwrap();
        let text = "SELECT * WHERE { ?a <http://p/p> ?b . ?b <http://p/p> ?c . \
                    ?c <http://p/p> ?d . ?d <http://p/p> ?e . }";
        let qg = QueryGraph::build(&parse_select(text).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        let u = |name| qg.vertex_by_name(name).unwrap();
        let order = vec![u("b"), u("d"), u("c")];
        let components = qg.connected_components();
        ComponentPrep::build_with_order(
            &qg,
            &index,
            &components[0],
            order,
            &mut SearchArenas::new(),
        );
    }
}
