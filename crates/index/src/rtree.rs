//! An 8-dimensional R-tree over vertex synopses (paper §4.2).
//!
//! "Once the synopses are computed for all data vertices, an R-tree is
//! constructed to store all the synopses. A synopsis with |F| fields forms a
//! leaf in the R-tree."
//!
//! A synopsis spans the axis-parallel rectangle `[0, f_i]` per dimension, so
//! the paper's rectangular-containment question "is the query rectangle
//! wholly contained in the data rectangle?" reduces to the **dominance
//! query**: report every stored point `p` with `q_i ≤ p_i` for all `i`.
//! Internal nodes prune on their per-dimension maxima; subtrees whose minima
//! already dominate the query are reported wholesale without further tests.
//!
//! The tree stores no points. It indexes the points `0..len` of a table its
//! owner keeps, and reads a point through the owner's lookup whenever a leaf
//! is scanned, so each point lives in one place. The layout is three flat
//! parts:
//!
//! * one pool of point ids in leaf order — leaf `j` is `ids[16j..16j + 16]`;
//! * one array of node MBRs, level by level from the leaves up, the root
//!   last. The children of node `j` are nodes `16j..16j + 16` of the level
//!   below, so a child range is implied by the node's position;
//! * the level starts in that array (at most nine, held inline).
//!
//! The tree is bulk-loaded with a Sort-Tile-Recursive-style packing: each
//! level sorts on one dimension, widest extent first, and cuts each node
//! into runs of exactly a full subtree's size. Every leaf but the last holds 16 points, so `n`
//! points take `⌈n/16⌉` leaves, and the subtree of any node is one
//! contiguous run of the id pool. The index is immutable after the offline
//! stage, so no insert-time split heuristics are needed.

use amber_multigraph::{Synopsis, VertexId};
use amber_util::HeapSize;
use std::ops::Range;

/// Number of dimensions (synopsis fields).
pub const DIMS: usize = amber_multigraph::signature::SYNOPSIS_DIMS;

/// Maximum entries per node.
const NODE_CAPACITY: usize = 16;

/// Levels of a tree over at most 2³² points (`16⁸ = 2³²`): vertex ids are
/// `u32`.
const MAX_LEVELS: usize = 8;

/// Minimum bounding rectangle of a node.
#[derive(Debug, Clone, Copy)]
struct Mbr {
    min: [i64; DIMS],
    max: [i64; DIMS],
}

impl Mbr {
    fn empty() -> Self {
        Self {
            min: [i64::MAX; DIMS],
            max: [i64::MIN; DIMS],
        }
    }

    fn extend_point(&mut self, p: &Synopsis) {
        for (i, &coord) in p.0.iter().enumerate() {
            self.min[i] = self.min[i].min(coord);
            self.max[i] = self.max[i].max(coord);
        }
    }

    fn extend_mbr(&mut self, other: &Mbr) {
        for i in 0..DIMS {
            self.min[i] = self.min[i].min(other.min[i]);
            self.max[i] = self.max[i].max(other.max[i]);
        }
    }

    /// Can any point in this MBR dominate `q`?
    #[inline]
    fn may_dominate(&self, q: &Synopsis) -> bool {
        Synopsis(self.max).dominates(q)
    }

    /// Does *every* point in this MBR dominate `q`?
    #[inline]
    fn all_dominate(&self, q: &Synopsis) -> bool {
        Synopsis(self.min).dominates(q)
    }
}

/// Immutable, bulk-loaded R-tree answering dominance queries over points
/// held by its owner (see the module docs).
#[derive(Debug)]
pub struct RTree {
    /// Point ids in leaf order.
    ids: Box<[VertexId]>,
    /// Node MBRs, leaves first, the root last.
    mbrs: Box<[Mbr]>,
    /// Level `l`'s nodes are `mbrs[levels[l]..levels[l + 1]]`, for `l` in
    /// `0..height`.
    levels: [usize; MAX_LEVELS + 1],
    height: usize,
}

impl RTree {
    /// Bulk-load over the points `0..len`; `point(v)` is point `v`'s
    /// coordinates, and the same lookup must be passed to
    /// [`dominating`](Self::dominating).
    pub fn bulk_load(len: usize, point: impl Fn(VertexId) -> Synopsis) -> Self {
        let mut tree = Self {
            ids: Box::new([]),
            mbrs: Box::new([]),
            levels: [0; MAX_LEVELS + 1],
            height: 0,
        };
        if len == 0 {
            return tree;
        }
        let mut ids: Vec<VertexId> = (0..len).map(VertexId::from_index).collect();
        let mut span = NODE_CAPACITY;
        while span < len {
            span *= NODE_CAPACITY;
        }
        // Cut on the dimensions of widest extent first. A tree has at most
        // `MAX_LEVELS - 1 < DIMS` levels of cuts, so no axis is cut twice.
        let mut extent = Mbr::empty();
        ids.iter().for_each(|&v| extent.extend_point(&point(v)));
        let mut axes: [usize; DIMS] = std::array::from_fn(|d| d);
        axes.sort_by_key(|&d| std::cmp::Reverse(extent.max[d].abs_diff(extent.min[d])));
        tile(&mut ids, span, &axes, &point, &mut Vec::with_capacity(len));

        let mut mbrs = Vec::with_capacity(node_count(len));
        for leaf in ids.chunks(NODE_CAPACITY) {
            let mut mbr = Mbr::empty();
            leaf.iter().for_each(|&v| mbr.extend_point(&point(v)));
            mbrs.push(mbr);
        }
        tree.height = 1;
        tree.levels[1] = mbrs.len();
        while tree.levels[tree.height] - tree.levels[tree.height - 1] > 1 {
            let below = tree.levels[tree.height - 1]..tree.levels[tree.height];
            for first in below.clone().step_by(NODE_CAPACITY) {
                let mut mbr = Mbr::empty();
                let children = first..(first + NODE_CAPACITY).min(below.end);
                mbrs[children]
                    .iter()
                    .for_each(|child| mbr.extend_mbr(child));
                mbrs.push(mbr);
            }
            tree.height += 1;
            tree.levels[tree.height] = mbrs.len();
        }
        debug_assert_eq!(mbrs.len(), node_count(len));
        tree.ids = ids.into_boxed_slice();
        tree.mbrs = mbrs.into_boxed_slice();
        tree
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Report every point whose coordinates dominate `query` (Lemma 1's
    /// candidate set `C^S_u`), reading points through the lookup the tree
    /// was loaded with. The result is sorted.
    pub fn dominating(
        &self,
        query: &Synopsis,
        point: impl Fn(VertexId) -> Synopsis,
    ) -> Vec<VertexId> {
        let mut out = Vec::new();
        if self.height > 0 {
            self.collect_dominating(self.height - 1, 0, query, &point, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Height of the tree (0 for empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of leaves.
    #[cfg(test)]
    fn leaf_count(&self) -> usize {
        self.levels[1]
    }

    /// The id-pool run under node `node` of level `level`.
    fn subtree(&self, level: usize, node: usize) -> Range<usize> {
        let span = NODE_CAPACITY.pow(level as u32 + 1);
        node * span..((node + 1) * span).min(self.ids.len())
    }

    fn collect_dominating(
        &self,
        level: usize,
        node: usize,
        query: &Synopsis,
        point: &impl Fn(VertexId) -> Synopsis,
        out: &mut Vec<VertexId>,
    ) {
        let mbr = &self.mbrs[self.levels[level] + node];
        if !mbr.may_dominate(query) {
            return;
        }
        if mbr.all_dominate(query) {
            // Whole subtree qualifies — no further comparisons needed.
            out.extend_from_slice(&self.ids[self.subtree(level, node)]);
            return;
        }
        if level == 0 {
            let leaf = &self.ids[self.subtree(0, node)];
            out.extend(leaf.iter().filter(|&&v| point(v).dominates(query)));
            return;
        }
        let nodes_below = self.levels[level] - self.levels[level - 1];
        let first = node * NODE_CAPACITY;
        for child in first..(first + NODE_CAPACITY).min(nodes_below) {
            self.collect_dominating(level - 1, child, query, point, out);
        }
    }
}

/// Nodes of a tree over `len` points: `⌈len/16⌉` leaves, then a
/// sixteenth of the level below, up to one root.
fn node_count(len: usize) -> usize {
    let mut level = len.div_ceil(NODE_CAPACITY);
    let mut total = level;
    while level > 1 {
        level = level.div_ceil(NODE_CAPACITY);
        total += level;
    }
    total
}

/// Sort-Tile-Recursive packing of `ids` (at most `span` of them, `span` a
/// power of 16). Each cut orders the slice on the next axis of `axes` (the
/// dimensions, widest extent first) and cuts it into runs of exactly
/// `span / 16` — all full but the last — so each run starts at a multiple
/// of its span in the pool, and grouping 16 consecutive nodes bottom-up
/// rebuilds this partition. A leaf's ids are put in id order, so its scan
/// reads the owner's table forward. `keyed` is scratch for the cut: each
/// point's coordinate is read once per level.
fn tile(
    ids: &mut [VertexId],
    span: usize,
    axes: &[usize],
    point: &impl Fn(VertexId) -> Synopsis,
    keyed: &mut Vec<(i64, VertexId)>,
) {
    if span <= NODE_CAPACITY {
        ids.sort_unstable();
        return;
    }
    let run = span / NODE_CAPACITY;
    if ids.len() <= run {
        // One run: nothing to cut on this level.
        return tile(ids, run, axes, point, keyed);
    }
    keyed.clear();
    keyed.extend(ids.iter().map(|&v| (point(v).0[axes[0]], v)));
    select_runs(keyed, run);
    for (slot, &(_, v)) in ids.iter_mut().zip(keyed.iter()) {
        *slot = v;
    }
    for slab in ids.chunks_mut(run) {
        tile(slab, run, &axes[1..], point, keyed);
    }
}

/// Reorder `keyed` into the runs of `run` items that a full sort would
/// cut it into, in no order within a run: a multi-way quickselect,
/// `O(len · log(len / run))`. The items are distinct (each carries its
/// id), so the runs are exactly a sort's.
fn select_runs(keyed: &mut [(i64, VertexId)], run: usize) {
    let runs = keyed.len().div_ceil(run);
    if runs <= 1 {
        return;
    }
    let cut = runs / 2 * run;
    keyed.select_nth_unstable(cut);
    let (low, high) = keyed.split_at_mut(cut);
    select_runs(low, run);
    select_runs(high, run);
}

impl HeapSize for RTree {
    fn heap_size(&self) -> usize {
        self.ids.heap_size() + std::mem::size_of_val(&*self.mbrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(fields: [i64; 8]) -> Synopsis {
        Synopsis(fields)
    }

    /// A tree over `points`, with point `v` at `points[v]`.
    fn load(points: &[Synopsis]) -> RTree {
        RTree::bulk_load(points.len(), |v| points[v.index()])
    }

    fn query(tree: &RTree, points: &[Synopsis], q: &Synopsis) -> Vec<VertexId> {
        tree.dominating(q, |v| points[v.index()])
    }

    /// Brute-force oracle.
    fn linear(points: &[Synopsis], q: &Synopsis) -> Vec<VertexId> {
        (0..points.len())
            .filter(|&i| points[i].dominates(q))
            .map(VertexId::from_index)
            .collect()
    }

    /// `n` scattered points with coordinates of both signs.
    fn scattered(n: usize) -> Vec<Synopsis> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                Synopsis(std::array::from_fn(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 58) as i64 - 32
                }))
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let tree = load(&[]);
        assert!(tree.is_empty());
        assert_eq!(query(&tree, &[], &Synopsis::zero()), vec![]);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.heap_size(), 0);
    }

    #[test]
    fn single_entry() {
        let points = [syn([1, 1, 0, 0, 0, 0, 0, 0])];
        let tree = load(&points);
        assert_eq!(tree.len(), 1);
        assert_eq!(
            query(&tree, &points, &syn([1, 1, 0, 0, 0, 0, 0, 0])),
            vec![VertexId(0)]
        );
        assert_eq!(
            query(&tree, &points, &syn([2, 1, 0, 0, 0, 0, 0, 0])),
            vec![]
        );
    }

    #[test]
    fn zero_query_matches_everything() {
        let points: Vec<Synopsis> = (0..100)
            .map(|i| syn([i, i % 7, -(i % 5), i % 11, 0, 0, 0, 0]))
            .collect();
        let tree = load(&points);
        // A zero query is dominated by synopses with non-negative fields
        // only; mirror against the oracle.
        assert_eq!(
            query(&tree, &points, &Synopsis::zero()),
            linear(&points, &Synopsis::zero())
        );
    }

    #[test]
    fn matches_linear_scan_on_structured_grid() {
        let mut points = Vec::new();
        for a in -2..3i64 {
            for b in 0..4i64 {
                for c in -1..2i64 {
                    points.push(syn([a, b, c, a + b, b - c, a, c, b]));
                }
            }
        }
        let tree = load(&points);
        for q in [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 2, 0, 2, 1, 0, 0, 1],
            [-2, 0, -1, -2, -1, -2, -1, 0],
            [3, 3, 3, 3, 3, 3, 3, 3],
        ] {
            let q = syn(q);
            assert_eq!(
                query(&tree, &points, &q),
                linear(&points, &q),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn duplicate_synopses_are_all_reported() {
        let points = [syn([1, 1, 0, 3, 0, 0, 0, 0]); 3];
        let tree = load(&points);
        assert_eq!(
            query(&tree, &points, &syn([1, 1, 0, 3, 0, 0, 0, 0])),
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
    }

    #[test]
    fn tree_becomes_hierarchical_for_many_entries() {
        let points: Vec<Synopsis> = (0..2000i64)
            .map(|i| {
                syn([
                    i % 13,
                    i % 7,
                    -(i % 5),
                    i % 17,
                    i % 3,
                    i % 11,
                    -(i % 2),
                    i % 19,
                ])
            })
            .collect();
        let tree = load(&points);
        assert!(tree.height() > 1, "2000 entries must not fit one leaf");
        assert_eq!(tree.len(), 2000);
        let q = syn([5, 3, -1, 9, 1, 4, 0, 10]);
        assert_eq!(query(&tree, &points, &q), linear(&points, &q));
        // The id pool holds every point exactly once.
        let mut ids = tree.ids.to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..2000).map(VertexId).collect::<Vec<_>>());
    }

    /// Bulk loading packs leaves full: `n` points take at most `⌈n/16⌉`
    /// leaves plus the height, also just past a power of 16, where slabs
    /// of `⌈n/16⌉` used to leave about two points per leaf (4,097 points
    /// took 2,056 leaves).
    #[test]
    fn leaves_are_packed_full() {
        for n in [0, 1, 16, 17, 257, 4_097, 66_000, 100_000] {
            let points = scattered(n);
            let tree = load(&points);
            let leaves = tree.leaf_count();
            assert!(
                leaves <= n.div_ceil(NODE_CAPACITY) + tree.height(),
                "{n} points: {leaves} leaves at height {}",
                tree.height()
            );
            assert_eq!(tree.mbrs.len(), node_count(n));
            let expected_height = match n {
                0 => 0,
                1 | 16 => 1,
                17 => 2,
                257 => 3,
                4_097 => 4,
                _ => 5,
            };
            assert_eq!(tree.height(), expected_height, "{n} points");
            for q in points.iter().step_by(997).take(8) {
                assert_eq!(query(&tree, &points, q), linear(&points, q), "{n} points");
            }
        }
    }

    /// Every point under a node (its run of the id pool) lies inside the
    /// node's rectangle, so pruning on the rectangle is sound.
    #[test]
    fn every_point_lies_in_its_ancestors_mbrs() {
        let points = scattered(4_097);
        let tree = load(&points);
        for level in 0..tree.height() {
            for node in 0..tree.levels[level + 1] - tree.levels[level] {
                let mbr = &tree.mbrs[tree.levels[level] + node];
                for &v in &tree.ids[tree.subtree(level, node)] {
                    let p = points[v.index()];
                    assert!((0..DIMS).all(|i| mbr.min[i] <= p.0[i] && p.0[i] <= mbr.max[i]));
                }
            }
        }
    }
}
