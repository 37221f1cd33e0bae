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
//!    neighbour; `C^S_{u_init}` survives as the fallback for a seed vertex
//!    without a typed edge,
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
//! ## Borrowed session state
//!
//! Since the batch-execution PR the matcher no longer *owns* its scratch
//! memory: [`SearchArenas`] (the assignment slots plus the per-depth
//! `DepthScratch` arenas) live in a
//! [`QuerySession`](crate::session::QuerySession) and are lent to
//! [`ComponentMatcher::run_on_with`] for the duration of one component run.
//! Arenas grow high-water-mark style and are never shrunk, so a session that
//! executes many queries stops allocating once the largest query shape has
//! been seen. [`ComponentMatcher::run_on`] remains the self-contained entry
//! point (fresh arenas) for one-shot callers.

use crate::candidates::{process_vertex_seeded, satisfies_self_loop, Constraint};
use crate::decompose::Decomposition;
use crate::governor::MemoryGovernor;
use crate::ordering::order_core_vertices;
use crate::seeds::SeedCache;
use amber_index::{IndexSet, NeighborhoodIndex};
use amber_multigraph::{DataGraph, Direction, EdgeTypeId, QVertexId, QueryGraph, VertexId};
use amber_util::fault::{self, FaultPoint};
use amber_util::{sorted, CancelToken, Deadline};

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

/// Why a search stopped before enumerating every embedding. Ordered by
/// merge precedence: when the components of one query abort for different
/// reasons the *highest* variant wins (a cancellation is more meaningful to
/// the caller than the timeout that raced with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Abort {
    /// The shared wall-clock deadline expired.
    TimedOut,
    /// The memory governor's budget was exhausted.
    BudgetExceeded,
    /// The caller's [`CancelToken`] fired.
    Cancelled,
}

/// The result of matching one component.
#[derive(Debug, Clone, Default)]
pub struct ComponentMatch {
    /// Exact embedding count (saturating u128), partial if `abort` is set.
    pub count: u128,
    /// Retained solutions (up to the configured cap).
    pub solutions: Vec<ComponentSolution>,
    /// Why the search stopped early (`None` = ran to completion).
    pub abort: Option<Abort>,
    /// Search-tree nodes visited (candidate attempts) — the
    /// hardware-independent work measure of a search.
    pub nodes: u64,
}

impl ComponentMatch {
    /// `true` when the deadline expired mid-search.
    pub fn timed_out(&self) -> bool {
        self.abort == Some(Abort::TimedOut)
    }

    /// Fold another abort reason into this result (highest [`Abort`] wins
    /// — see the enum ordering).
    pub fn merge_abort(&mut self, other: Option<Abort>) {
        self.abort = self.abort.max(other);
    }
}

/// Search configuration.
#[derive(Debug)]
pub struct MatchConfig<'d> {
    /// Shared wall-clock budget.
    pub deadline: &'d Deadline,
    /// Maximum number of [`ComponentSolution`]s to retain (counting always
    /// runs to completion). `None` retains all.
    pub solution_cap: Option<usize>,
    /// Cooperative cancellation flag, polled at the same checkpoints as the
    /// deadline. `None` = not cancellable.
    pub cancel: Option<&'d CancelToken>,
    /// Per-query memory governor; the search charges its state growth at
    /// checkpoints and obeys its degradation ladder. `None` = ungoverned.
    pub governor: Option<&'d MemoryGovernor>,
}

impl<'d> MatchConfig<'d> {
    /// A config with only a deadline and an optional solution cap (the
    /// pre-governor constructor shape — tests and one-shot callers).
    pub fn new(deadline: &'d Deadline, solution_cap: Option<usize>) -> Self {
        Self {
            deadline,
            solution_cap,
            cancel: None,
            governor: None,
        }
    }
}

/// A probe against the neighbourhood index, seen from an already-matched
/// vertex: "neighbours of ψ(prior) in `direction` through `types`".
#[derive(Debug, Clone)]
pub(crate) struct NeighborProbe {
    /// Position of the already-matched core vertex in the order.
    prior_position: usize,
    /// Direction of the probe relative to the *matched* vertex.
    direction: Direction,
    /// Required edge types.
    types: Vec<EdgeTypeId>,
}

/// Everything needed to resolve one satellite of a core vertex.
#[derive(Debug)]
pub(crate) struct SatellitePlan {
    vertex: QVertexId,
    /// Probes relative to the core vertex's match.
    probes: Vec<(Direction, Vec<EdgeTypeId>)>,
    /// Cached `ProcessVertex` result.
    constraint: Constraint,
    has_self_loop: bool,
}

/// Per-ordered-core-vertex matching plan.
#[derive(Debug)]
pub(crate) struct CorePlan {
    vertex: QVertexId,
    /// Probes from earlier-ordered neighbours (empty for the initial vertex).
    probes: Vec<NeighborProbe>,
    /// Cached `ProcessVertex` result.
    constraint: Constraint,
    has_self_loop: bool,
    satellites: Vec<SatellitePlan>,
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
/// A `ComponentPrep` owns all of its data (no borrows of the query graph),
/// so a [`PreparedPlan`](crate::plan::PreparedPlan) can hold it behind an
/// `Arc` and hand it to any number of later executions: the matcher becomes
/// a cheap per-run *view* over a prep built once.
#[derive(Debug)]
pub struct ComponentPrep {
    pub(crate) order: Vec<QVertexId>,
    pub(crate) decomp: Decomposition,
    pub(crate) plans: Vec<CorePlan>,
    /// `CandInit`: the seed lists' intersection ∩ `ProcessVertex` of the
    /// initial vertex, refined by its multi-type edges.
    pub(crate) initial: Vec<VertexId>,
    /// The incidence lists `initial` was intersected from, shortest first;
    /// empty when the initial vertex has no typed edge and the synopsis
    /// index seeded it instead.
    pub(crate) seed_lists: Vec<SeedList>,
}

impl ComponentPrep {
    /// Build the plan for one component (vertex ids ascending), resolving
    /// seed probes through `seeds` (pass
    /// [`SeedCache::disabled`] for transient one-shot state).
    pub fn build(
        qg: &QueryGraph,
        graph: &DataGraph,
        index: &IndexSet,
        component: &[QVertexId],
        seeds: &mut SeedCache,
    ) -> Self {
        let decomp = Decomposition::of_component(qg, component);
        let order = order_core_vertices(qg, &decomp);
        Self::build_with_order(qg, graph, index, decomp, order, seeds)
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
    /// intersected from, shortest first. Empty means the synopsis-index
    /// fallback seeded the component (initial vertex without a typed edge).
    pub fn seed_lists(&self) -> &[SeedList] {
        &self.seed_lists
    }

    /// The constraint computed for a core/satellite vertex of this
    /// component, if it is finite (`None` for unconstrained vertices and
    /// vertices outside the component).
    pub fn constrained_candidate_count(&self, u: QVertexId) -> Option<usize> {
        let of = |c: &Constraint| match c {
            Constraint::Unconstrained => None,
            Constraint::Candidates(list) => Some(list.len()),
        };
        for plan in &self.plans {
            if plan.vertex == u {
                return of(&plan.constraint);
            }
            for sat in &plan.satellites {
                if sat.vertex == u {
                    return of(&sat.constraint);
                }
            }
        }
        None
    }

    /// Approximate retained heap bytes (for plan-cache accounting).
    pub fn approx_heap_bytes(&self) -> usize {
        let vid = std::mem::size_of::<VertexId>();
        let constraint_bytes = |c: &Constraint| match c {
            Constraint::Unconstrained => 0,
            Constraint::Candidates(list) => list.capacity() * vid,
        };
        let mut bytes = self.order.capacity() * std::mem::size_of::<QVertexId>()
            + self.initial.capacity() * vid
            + self.seed_lists.capacity() * std::mem::size_of::<SeedList>();
        for plan in &self.plans {
            bytes += std::mem::size_of::<CorePlan>() + constraint_bytes(&plan.constraint);
            for probe in &plan.probes {
                bytes += probe.types.capacity() * std::mem::size_of::<EdgeTypeId>();
            }
            for sat in &plan.satellites {
                bytes += std::mem::size_of::<SatellitePlan>() + constraint_bytes(&sat.constraint);
                for (_, types) in &sat.probes {
                    bytes += types.capacity() * std::mem::size_of::<EdgeTypeId>();
                }
            }
        }
        bytes
    }

    fn build_with_order(
        qg: &QueryGraph,
        graph: &DataGraph,
        index: &IndexSet,
        decomp: Decomposition,
        order: Vec<QVertexId>,
        seeds: &mut SeedCache,
    ) -> Self {
        let position_of = |u: QVertexId| order.iter().position(|&o| o == u);

        let mut plans = Vec::with_capacity(order.len());
        for (pos, &u) in order.iter().enumerate() {
            // Probes from already-ordered core neighbours: for an edge
            // prior→u the candidates are out-neighbours of ψ(prior); for
            // u→prior they are in-neighbours.
            let mut probes = Vec::new();
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
                let edge = &qg.edges()[adj.edge];
                // adj.direction is relative to u; the probe runs from the
                // matched prior vertex, so it flips.
                probes.push(NeighborProbe {
                    prior_position,
                    direction: adj.direction.flip(),
                    types: edge.types.types().to_vec(),
                });
            }

            let satellites = decomp
                .satellites_of(u)
                .iter()
                .map(|&s| {
                    let mut sat_probes = Vec::new();
                    for adj in qg.adjacency(u) {
                        if adj.neighbor != s {
                            continue;
                        }
                        let edge = &qg.edges()[adj.edge];
                        // Probe direction relative to the core match: an
                        // edge u→s means the satellite candidates are
                        // out-neighbours of ψ(u).
                        sat_probes.push((adj.direction, edge.types.types().to_vec()));
                    }
                    debug_assert!(!sat_probes.is_empty(), "satellite must touch its core");
                    SatellitePlan {
                        vertex: s,
                        probes: sat_probes,
                        constraint: process_vertex_seeded(qg, s, index, seeds),
                        has_self_loop: qg.vertex(s).self_loop.is_some(),
                    }
                })
                .collect();

            plans.push(CorePlan {
                vertex: u,
                probes,
                constraint: process_vertex_seeded(qg, u, index, seeds),
                has_self_loop: qg.vertex(u).self_loop.is_some(),
                satellites,
            });
        }

        // Algorithm 3, lines 4-5: seed candidates for the initial vertex.
        let u_init = order[0];
        let seed_lists = seed_lists_of(qg, u_init, &index.neighborhood);
        let mut initial = if seed_lists.is_empty() {
            // No typed edge (an isolated variable): the paper's
            // `QuerySynIndex` with the sound query-side synopsis.
            let mut initial = index
                .signature
                .candidates(&qg.signature(u_init).query_synopsis());
            plans[0].constraint.filter(&mut initial);
            initial
        } else {
            // A match of u_init owns an edge of every (direction, type) on
            // u_init, so it is in every one of these lists — and in
            // ProcessVertex's whitelist, folded into the same cascade.
            let mut lists: Vec<&[VertexId]> = seed_lists
                .iter()
                .map(|l| {
                    index
                        .neighborhood
                        .vertices_with_type(l.direction, l.edge_type)
                })
                .collect();
            if let Constraint::Candidates(allowed) = &plans[0].constraint {
                lists.push(allowed);
            }
            let mut initial = sorted::intersect_many(&lists).expect("at least one seed list");
            // The lists say "has a t1 edge and a t2 edge"; a multi-edge
            // {t1, t2} needs both on one neighbour. The stored synopsis
            // knows the largest multi-edge of every vertex — the one field
            // the lists do not imply — so it is read per surviving
            // candidate (an array lookup, no R-tree walk) before the exact
            // first-hit OTIL check; letting the search discover either is
            // far dearer.
            let mut multi = multi_type_edges_of(qg, u_init).peekable();
            if multi.peek().is_some() {
                let synopsis = qg.signature(u_init).query_synopsis();
                initial.retain(|&v| index.signature.synopsis_of(v).dominates(&synopsis));
            }
            for (direction, types) in multi {
                initial.retain(|&v| index.neighborhood.has_neighbor(v, direction, types));
            }
            initial
        };
        if plans[0].has_self_loop {
            initial.retain(|&v| satisfies_self_loop(qg, u_init, graph, v));
        }

        Self {
            order,
            decomp,
            plans,
            initial,
            seed_lists,
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
        .map(|adj| (adj.direction, qg.edges()[adj.edge].types.types()))
        .filter(|(_, types)| types.len() > 1)
}

/// The type-incidence lists every match of `u` must appear in: one per
/// distinct `(direction, type)` on `u`'s core, satellite and self-loop
/// edges, shortest first. (Edges to IRI vertices are `ProcessVertex`'s
/// business: its probe from the constant is a subset of the type's list.)
fn seed_lists_of(qg: &QueryGraph, u: QVertexId, n: &NeighborhoodIndex) -> Vec<SeedList> {
    let mut lists: Vec<SeedList> = Vec::new();
    let mut push = |direction, edge_type| {
        lists.push(SeedList {
            direction,
            edge_type,
            len: n.vertices_with_type(direction, edge_type).len(),
        })
    };
    for adj in qg.adjacency(u) {
        for &t in qg.edges()[adj.edge].types.types() {
            push(adj.direction, t);
        }
    }
    if let Some(types) = &qg.vertex(u).self_loop {
        for &t in types.types() {
            push(Direction::Incoming, t);
            push(Direction::Outgoing, t);
        }
    }
    lists.sort_unstable_by_key(|l| (l.len, l.edge_type, l.direction == Direction::Outgoing));
    lists.dedup();
    lists
}

/// The component plan a matcher executes: owned (built on the spot by the
/// one-shot constructors) or borrowed from a cached
/// [`PreparedPlan`](crate::plan::PreparedPlan).
enum PrepRef<'a> {
    Owned(Box<ComponentPrep>),
    Borrowed(&'a ComponentPrep),
}

/// Matcher for one connected component of the query multigraph.
pub struct ComponentMatcher<'a> {
    graph: &'a DataGraph,
    index: &'a IndexSet,
    qg: &'a QueryGraph,
    prep: PrepRef<'a>,
}

impl<'a> ComponentMatcher<'a> {
    /// Build the matching plan for one component (vertex ids ascending)
    /// with transient seed state. One-shot callers and tests use this; the
    /// session path builds a [`ComponentPrep`] against its seed cache and
    /// wraps it with [`Self::from_prep`].
    pub fn new(
        qg: &'a QueryGraph,
        graph: &'a DataGraph,
        index: &'a IndexSet,
        component: &[QVertexId],
    ) -> Self {
        let prep = ComponentPrep::build(qg, graph, index, component, &mut SeedCache::disabled());
        Self {
            graph,
            index,
            qg,
            prep: PrepRef::Owned(Box::new(prep)),
        }
    }

    /// Build the plan with an explicit core order — the hook used by the
    /// ordering-heuristic ablation benchmark. `order` must be a permutation
    /// of the component's core vertices in which every vertex (after the
    /// first) is adjacent to an earlier one.
    pub fn new_with_order(
        qg: &'a QueryGraph,
        graph: &'a DataGraph,
        index: &'a IndexSet,
        component: &[QVertexId],
        order: Vec<QVertexId>,
    ) -> Self {
        let decomp = Decomposition::of_component(qg, component);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, decomp.core, "order must permute the core vertices");
        let prep = ComponentPrep::build_with_order(
            qg,
            graph,
            index,
            decomp,
            order,
            &mut SeedCache::disabled(),
        );
        Self {
            graph,
            index,
            qg,
            prep: PrepRef::Owned(Box::new(prep)),
        }
    }

    /// A matcher view over a component plan built earlier (the
    /// prepared-plan execution path: no decomposition, ordering, or seed
    /// probes run here — the prep already holds them).
    pub fn from_prep(
        qg: &'a QueryGraph,
        graph: &'a DataGraph,
        index: &'a IndexSet,
        prep: &'a ComponentPrep,
    ) -> Self {
        Self {
            graph,
            index,
            qg,
            prep: PrepRef::Borrowed(prep),
        }
    }

    /// The component plan this matcher executes.
    #[inline]
    fn prep(&self) -> &ComponentPrep {
        match &self.prep {
            PrepRef::Owned(prep) => prep,
            PrepRef::Borrowed(prep) => prep,
        }
    }

    /// The ordered core vertices (`U_c^ord`).
    pub fn core_order(&self) -> &[QVertexId] {
        &self.prep().order
    }

    /// The seed candidates of the initial vertex (`CandInit`).
    pub fn initial_candidates(&self) -> &[VertexId] {
        &self.prep().initial
    }

    /// The incidence lists the seed set was intersected from (see
    /// [`ComponentPrep::seed_lists`]).
    pub fn seed_lists(&self) -> &[SeedList] {
        &self.prep().seed_lists
    }

    /// Run the full search over all initial candidates.
    pub fn run(&self, config: &MatchConfig<'_>) -> ComponentMatch {
        self.run_on(&self.prep().initial, config)
    }

    /// Run the search over a slice of initial candidates with self-contained
    /// state: fresh arenas. One-shot callers and tests use this; the session
    /// path goes through [`Self::run_on_with`].
    pub fn run_on(&self, initial: &[VertexId], config: &MatchConfig<'_>) -> ComponentMatch {
        self.run_on_with(initial, config, &mut SearchArenas::new())
    }

    /// Run the search over a slice of initial candidates against *borrowed*
    /// session state.
    ///
    /// `arenas` is prepared (grown, never shrunk) for this component's plan.
    pub fn run_on_with(
        &self,
        initial: &[VertexId],
        config: &MatchConfig<'_>,
        arenas: &mut SearchArenas,
    ) -> ComponentMatch {
        arenas.prepare(&self.prep().plans);
        let governor_reported = if config.governor.is_some() {
            // Baseline the usage estimate at entry so only *growth* during
            // this run is charged (prepared arenas are session memory
            // already accounted by whichever query grew them).
            arenas.heap_bytes()
        } else {
            0
        };
        let mut state = SearchState {
            arenas,
            result: ComponentMatch::default(),
            config,
            governor_reported,
            governor_ticks: 0,
        };
        // Iterate the initial candidates as the root loop: a checkpoint
        // before every candidate, the precise clock on a stride.
        self.iterate_level(0, initial, &mut state, true);
        // Settle the governor before handing the result back: the
        // counter-gated checkpoints may never have measured on a short
        // run, but the budget contract must hold for any run length.
        // (Deadline/cancel are deliberately NOT re-polled — the work is
        // already done; only the memory accounting must be made whole.)
        if let Some(governor) = state.config.governor {
            let usage = state.arenas.heap_bytes()
                + state.result.solutions.len() * std::mem::size_of::<ComponentSolution>();
            let delta = usage.saturating_sub(state.governor_reported);
            if delta > 0 {
                governor.charge(delta);
            }
            if governor.exhausted() {
                state.result.merge_abort(Some(Abort::BudgetExceeded));
            }
        }
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
        let plan = &self.prep().plans[pos];
        for (k, sat) in plan.satellites.iter().enumerate() {
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
        // `Panic` fault unwinds from here into the engine's quarantine; an
        // `AllocFail` signal escalates the governor.
        let signal = fault::inject(FaultPoint::MatcherCandidate);
        if signal.alloc_fail {
            if let Some(governor) = state.config.governor {
                governor.exhaust();
            }
        }
        if !self.resolve_satellites(pos, v, state) {
            return;
        }
        state.arenas.assignment[pos] = v;
        self.recurse(pos + 1, state);
    }

    /// How many checkpoints pass between governor usage measurements
    /// (power of two; the measurement walks the depth arenas, so it is
    /// amortized the same way [`Deadline`] amortizes clock reads).
    const GOVERNOR_CHECK_MASK: u32 = 0xFF;

    /// How many root candidates pass between reads of the uncached clock.
    const ROOT_PRECISE_STRIDE: usize = 64;

    /// Cooperative checkpoint: deadline, cancellation, and memory-budget
    /// checks in one place. Returns `true` (after recording the abort
    /// reason) when the search must stop. `precise` consults the uncached
    /// clock and forces a governor measurement — the root loop only, on
    /// its stride.
    fn check_abort(&self, state: &mut SearchState<'_, '_>, precise: bool) -> bool {
        // Cancellation is polled before the deadline: when both fire, the
        // explicit user abort is the status the caller should see (the
        // `Abort` merge ordering agrees — `Cancelled` outranks `TimedOut`).
        if let Some(cancel) = state.config.cancel {
            if cancel.is_cancelled() {
                state.result.merge_abort(Some(Abort::Cancelled));
                return true;
            }
        }
        let expired = if precise {
            state.config.deadline.exceeded_now()
        } else {
            state.config.deadline.exceeded()
        };
        if expired {
            state.result.merge_abort(Some(Abort::TimedOut));
            return true;
        }
        if let Some(governor) = state.config.governor {
            state.governor_ticks = state.governor_ticks.wrapping_add(1);
            if precise || state.governor_ticks & Self::GOVERNOR_CHECK_MASK == 0 {
                // Approximate the live search state: arena heap
                // plus retained solution headers (solution payloads grow
                // the satellite buffers the arena walk already covers).
                let usage = state.arenas.heap_bytes()
                    + state.result.solutions.len() * std::mem::size_of::<ComponentSolution>();
                let delta = usage.saturating_sub(state.governor_reported);
                if delta > 0 {
                    governor.charge(delta);
                    state.governor_reported = usage;
                }
            }
            if governor.exhausted() {
                state.result.merge_abort(Some(Abort::BudgetExceeded));
                return true;
            }
        }
        false
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
        // Base the fold on the most selective probe (satellites almost
        // always have exactly one; two when the query touches the pair in
        // both directions).
        let mut first = 0;
        if sat.probes.len() > 1 {
            first = (0..sat.probes.len())
                .min_by_key(|&i| {
                    let (direction, types) = &sat.probes[i];
                    n.probe_len_hint(core_match, *direction, types)
                })
                .expect("satellite has at least one probe");
        }
        let (direction, types) = &sat.probes[first];
        n.neighbors_into(core_match, *direction, types, out);
        for (i, (direction, types)) in sat.probes.iter().enumerate() {
            if i == first {
                continue;
            }
            if out.is_empty() {
                return;
            }
            let probed = n.probe(core_match, *direction, types, spill);
            sorted::intersect_in_place(out, probed.as_slice(spill));
        }
        sat.constraint.filter(out);
        if sat.has_self_loop {
            out.retain(|&v| satisfies_self_loop(self.qg, sat.vertex, self.graph, v));
        }
    }

    /// HomomorphicMatch (Algorithm 4).
    fn recurse(&self, pos: usize, state: &mut SearchState<'_, '_>) {
        if self.check_abort(state, false) {
            return;
        }
        if pos == self.prep().order.len() {
            self.record(state);
            return;
        }
        let plan = &self.prep().plans[pos];

        // Fast path: one single-type probe feeding an unconstrained vertex
        // needs no materialization at all — iterate the inverted list
        // borrowed from the index pool.
        if let [probe] = plan.probes.as_slice() {
            if let ([t], Constraint::Unconstrained, false) =
                (probe.types.as_slice(), &plan.constraint, plan.has_self_loop)
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
            let SearchArenas { assignment, depths } = &mut *state.arenas;
            let DepthScratch {
                candidates,
                spill,
                probe_order,
                ..
            } = &mut depths[pos];
            let n = &self.index.neighborhood;

            probe_order.clear();
            for (i, probe) in plan.probes.iter().enumerate() {
                let matched = assignment[probe.prior_position];
                let hint = n.probe_len_hint(matched, probe.direction, &probe.types);
                probe_order.push((hint, i));
            }
            probe_order.sort_unstable();

            let mut ordered = probe_order.iter();
            let &(_, first) = ordered
                .next()
                .expect("non-initial core vertex has at least one ordered neighbour");
            let probe = &plan.probes[first];
            n.neighbors_into(
                assignment[probe.prior_position],
                probe.direction,
                &probe.types,
                candidates,
            );
            for &(_, i) in ordered {
                if candidates.is_empty() {
                    return;
                }
                let probe = &plan.probes[i];
                let probed = n.probe(
                    assignment[probe.prior_position],
                    probe.direction,
                    &probe.types,
                    spill,
                );
                sorted::intersect_in_place(candidates, probed.as_slice(spill));
            }

            // Line 8: refine with ProcessVertex (+ self-loop).
            plan.constraint.filter(candidates);
            if plan.has_self_loop {
                candidates.retain(|&v| satisfies_self_loop(self.qg, plan.vertex, self.graph, v));
            }
        }

        // Lines 9-20. Indexed loop: deeper recursion uses its *own* depth's
        // arena, so this depth's candidate buffer is stable throughout, but
        // `state` cannot stay borrowed across `try_candidate`.
        for i in 0..state.arenas.depths[pos].candidates.len() {
            let v = state.arenas.depths[pos].candidates[i];
            self.try_candidate(pos, v, state);
            if state.result.abort.is_some() {
                return;
            }
        }
    }

    /// Iterate a borrowed candidate list — the initial candidates or the
    /// fast path's inverted-list borrow — as the level at `pos`.
    /// `root` additionally runs a checkpoint before every candidate (the
    /// root loop only; recursion levels rely on the check at `recurse`
    /// entry): the uncached clock and a governor measurement on the first
    /// candidate — so a zero budget aborts before any work — and every
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
            if root && self.check_abort(state, i % Self::ROOT_PRECISE_STRIDE == 0) {
                return;
            }
            self.try_candidate(pos, v, state);
            if state.result.abort.is_some() {
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
        let prep = self.prep();
        let mut embeddings: u128 = 1;
        for (plan, depth) in prep.plans.iter().zip(&state.arenas.depths) {
            for (_, resolved) in plan.satellites.iter().zip(&depth.satellites) {
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
                        plan.satellites
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

impl DepthScratch {
    fn heap_bytes(&self) -> usize {
        let vid = std::mem::size_of::<VertexId>();
        self.candidates.capacity() * vid
            + self.spill.capacity() * vid
            + self.probe_order.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.satellite_spill.capacity() * vid
            + self.satellites.capacity() * std::mem::size_of::<Vec<VertexId>>()
            + self
                .satellites
                .iter()
                .map(|s| s.capacity() * vid)
                .sum::<usize>()
    }
}

/// The matcher's long-lived scratch memory: the core assignment slots plus
/// one `DepthScratch` arena per order position.
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
}

impl SearchArenas {
    /// Empty arenas (they grow to steady-state capacity on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow (never shrink) to fit a component plan: enough assignment
    /// slots, enough depth arenas, enough satellite buffers per depth.
    fn prepare(&mut self, plans: &[CorePlan]) {
        if self.assignment.len() < plans.len() {
            self.assignment.resize(plans.len(), VertexId(u32::MAX));
        }
        if self.depths.len() < plans.len() {
            self.depths.resize_with(plans.len(), DepthScratch::default);
        }
        for (depth, plan) in self.depths.iter_mut().zip(plans) {
            if depth.satellites.len() < plan.satellites.len() {
                depth
                    .satellites
                    .resize_with(plan.satellites.len(), Vec::new);
            }
        }
    }

    /// Heap bytes currently retained by the arenas — the memory a session
    /// reuses instead of reallocating per query.
    pub fn heap_bytes(&self) -> usize {
        self.assignment.capacity() * std::mem::size_of::<VertexId>()
            + self
                .depths
                .iter()
                .map(DepthScratch::heap_bytes)
                .sum::<usize>()
    }
}

/// Mutable search state threaded through the recursion: borrowed session
/// arenas plus the per-run result accumulator.
struct SearchState<'c, 'd> {
    /// Borrowed long-lived scratch arenas.
    arenas: &'c mut SearchArenas,
    result: ComponentMatch,
    config: &'c MatchConfig<'d>,
    /// Last usage estimate reported to the governor (deltas only are
    /// charged; see [`MemoryGovernor::charge`]).
    governor_reported: usize,
    /// Checkpoint counter gating governor measurements
    /// ([`ComponentMatcher::GOVERNOR_CHECK_MASK`]).
    governor_ticks: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amber_multigraph::paper::{paper_graph, paper_query_text};
    use amber_sparql::parse_select;

    fn setup() -> (amber_multigraph::RdfGraph, QueryGraph, IndexSet) {
        let rdf = paper_graph();
        let qg = QueryGraph::build(&parse_select(&paper_query_text()).unwrap(), &rdf).unwrap();
        let index = IndexSet::build(&rdf);
        (rdf, qg, index)
    }

    #[test]
    fn paper_query_has_two_embeddings() {
        let (rdf, qg, index) = setup();
        let comps = qg.connected_components();
        let matcher = ComponentMatcher::new(&qg, rdf.graph(), &index, &comps[0]);
        let deadline = Deadline::unlimited();
        let result = matcher.run(&MatchConfig::new(&deadline, None));
        assert!(result.abort.is_none());
        assert_eq!(result.count, 2);
        assert!(result.nodes > 0, "every candidate attempt is a node");
    }

    #[test]
    fn solution_cap_truncates_retention_not_the_count() {
        let (rdf, qg, index) = setup();
        let comps = qg.connected_components();
        let matcher = ComponentMatcher::new(&qg, rdf.graph(), &index, &comps[0]);
        let deadline = Deadline::unlimited();
        let all = matcher.run(&MatchConfig::new(&deadline, None));
        let capped = matcher.run(&MatchConfig::new(&deadline, Some(1)));
        assert_eq!(capped.count, all.count);
        assert_eq!(capped.solutions, all.solutions[..1]);
        assert!(!capped.timed_out());
    }

    #[test]
    fn merge_abort_precedence_prefers_cancellation() {
        let mut merged = ComponentMatch::default();
        for abort in [
            Some(Abort::TimedOut),
            Some(Abort::Cancelled),
            Some(Abort::BudgetExceeded),
            None,
        ] {
            merged.merge_abort(abort);
        }
        assert_eq!(merged.abort, Some(Abort::Cancelled));
        let mut timed_out = ComponentMatch::default();
        timed_out.merge_abort(Some(Abort::TimedOut));
        timed_out.merge_abort(None);
        assert!(timed_out.timed_out(), "`None` never clears a reason");
    }
}
