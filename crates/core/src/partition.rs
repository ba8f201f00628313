//! The bisection (two-way partition) type shared by every heuristic.
//!
//! A [`Bisection`] assigns each vertex a side (`A` = `false`, `B` =
//! `true`) and incrementally maintains the cut weight, the vertex count
//! and vertex weight of each side. The *gain* of a vertex — how much the
//! cut would shrink if it switched sides — is the paper's `g_v`
//! (§III): the number of edges to the other side minus the number of
//! edges to its own side, weighted.

use bisect_graph::{EdgeWeight, Graph, VertexId, VertexWeight};

use crate::gain_cache::GainCache;

/// The two sides of a bisection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first side (`false` in raw side vectors); the paper's `V₁`.
    A,
    /// The second side (`true` in raw side vectors); the paper's `V₂`.
    B,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// `0` for A, `1` for B — for indexing per-side arrays.
    pub fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }

    fn from_bool(b: bool) -> Side {
        if b {
            Side::B
        } else {
            Side::A
        }
    }

    fn as_bool(self) -> bool {
        matches!(self, Side::B)
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::A => write!(f, "A"),
            Side::B => write!(f, "B"),
        }
    }
}

/// A two-way partition of a graph's vertices with incrementally
/// maintained cut weight and side weights.
///
/// All mutating operations take the graph as an argument (the bisection
/// does not own or borrow it); callers must pass the same graph the
/// bisection was created for — this is checked cheaply by vertex count.
///
/// # Example
///
/// ```
/// use bisect_core::partition::{Bisection, Side};
/// use bisect_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let mut p = Bisection::from_sides(&g, vec![false, false, true, true]).unwrap();
/// assert_eq!(p.cut(), 1); // only edge (1,2) crosses
/// assert_eq!(p.gain(&g, 0), -1);
/// p.move_vertex(&g, 1); // (0,1) starts crossing, (1,2) stops: cut stays 1
/// assert_eq!(p.cut(), 1);
/// assert_eq!(p.side(1), Side::B);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bisection {
    side: Vec<bool>,
    cut: EdgeWeight,
    counts: [usize; 2],
    weights: [VertexWeight; 2],
}

/// Error returned when a side vector does not match the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideLengthError {
    /// Length supplied.
    pub got: usize,
    /// Length required (the graph's vertex count).
    pub expected: usize,
}

impl std::fmt::Display for SideLengthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "side vector has length {}, graph has {} vertices",
            self.got, self.expected
        )
    }
}

impl std::error::Error for SideLengthError {}

impl Bisection {
    /// Creates a bisection from a raw side vector (`false` = side A).
    ///
    /// # Errors
    ///
    /// Returns [`SideLengthError`] if `side.len()` differs from the
    /// graph's vertex count.
    pub fn from_sides(g: &Graph, side: Vec<bool>) -> Result<Bisection, SideLengthError> {
        if side.len() != g.num_vertices() {
            return Err(SideLengthError {
                got: side.len(),
                expected: g.num_vertices(),
            });
        }
        let mut counts = [0usize; 2];
        let mut weights = [0 as VertexWeight; 2];
        for v in g.vertices() {
            let s = side[v as usize] as usize;
            counts[s] += 1;
            weights[s] += g.vertex_weight(v);
        }
        let cut = compute_cut(g, &side);
        Ok(Bisection {
            side,
            cut,
            counts,
            weights,
        })
    }

    /// As [`Bisection::from_sides`], with the cut supplied by the
    /// caller instead of recomputed — O(V) instead of O(V + E). For
    /// callers that provably know the cut already, e.g. projecting a
    /// coarse bisection through a contraction (projection preserves the
    /// cut exactly). The claimed cut is verified in debug builds.
    ///
    /// # Errors
    ///
    /// Returns [`SideLengthError`] when `side.len()` does not match the
    /// graph's vertex count.
    pub fn from_sides_with_cut(
        g: &Graph,
        side: Vec<bool>,
        cut: EdgeWeight,
    ) -> Result<Bisection, SideLengthError> {
        if side.len() != g.num_vertices() {
            return Err(SideLengthError {
                got: side.len(),
                expected: g.num_vertices(),
            });
        }
        let mut counts = [0usize; 2];
        let mut weights = [0 as VertexWeight; 2];
        for v in g.vertices() {
            let s = side[v as usize] as usize;
            counts[s] += 1;
            weights[s] += g.vertex_weight(v);
        }
        debug_assert_eq!(cut, compute_cut(g, &side), "caller-supplied cut is wrong");
        Ok(Bisection {
            side,
            cut,
            counts,
            weights,
        })
    }

    /// The canonical planted bisection: vertices `0..n/2` on side A.
    /// For `Gbreg`/`G2set` instances this is the planted partition.
    pub fn planted(g: &Graph) -> Bisection {
        let n = g.num_vertices();
        let side: Vec<bool> = (0..n).map(|v| v >= n / 2).collect();
        // lint: allow(no-panic) — side was built with one entry per vertex, halves exact
        Bisection::from_sides(g, side).expect("side vector has correct length")
    }

    /// The side of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn side(&self, v: VertexId) -> Side {
        Side::from_bool(self.side[v as usize])
    }

    /// The raw side vector (`false` = A, `true` = B).
    pub fn sides(&self) -> &[bool] {
        &self.side
    }

    /// Consumes the bisection and returns the raw side vector.
    pub fn into_sides(self) -> Vec<bool> {
        self.side
    }

    /// The maintained cut weight (number of crossing edges for
    /// unit-weight graphs).
    #[inline]
    pub fn cut(&self) -> EdgeWeight {
        self.cut
    }

    /// Number of vertices on the given side.
    pub fn count(&self, side: Side) -> usize {
        self.counts[side.index()]
    }

    /// Total vertex weight of the given side.
    pub fn weight(&self, side: Side) -> VertexWeight {
        self.weights[side.index()]
    }

    /// Absolute difference of the side vertex *counts*.
    pub fn count_imbalance(&self) -> usize {
        self.counts[0].abs_diff(self.counts[1])
    }

    /// Absolute difference of the side vertex *weights*.
    pub fn weight_imbalance(&self) -> VertexWeight {
        self.weights[0].abs_diff(self.weights[1])
    }

    /// Whether the bisection is balanced: side weights differ by at most
    /// the parity remainder for unit-weight graphs (`total % 2`), or by
    /// at most the largest vertex weight for weighted (contracted)
    /// graphs, where exact balance may be unattainable.
    pub fn is_balanced(&self, g: &Graph) -> bool {
        self.weight_imbalance() <= balance_tolerance(g)
    }

    /// The gain `g_v` of moving `v` to the other side: (weight of edges
    /// to the other side) − (weight of edges to its own side). Positive
    /// gains shrink the cut.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for `g` or the graph does not match
    /// the bisection.
    pub fn gain(&self, g: &Graph, v: VertexId) -> i64 {
        self.assert_graph(g);
        let my_side = self.side[v as usize];
        let mut gain = 0i64;
        for (u, w) in g.neighbors_weighted(v) {
            if self.side[u as usize] == my_side {
                gain -= w as i64;
            } else {
                gain += w as i64;
            }
        }
        gain
    }

    /// The paper's pair gain `g_ab = g_a + g_b − 2δ(a, b)`: the cut
    /// reduction from swapping `a` and `b`, which must be on opposite
    /// sides.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are on the same side or out of range.
    pub fn swap_gain(&self, g: &Graph, a: VertexId, b: VertexId) -> i64 {
        assert_ne!(
            self.side[a as usize], self.side[b as usize],
            "swap_gain requires vertices on opposite sides"
        );
        let delta = g.edge_weight(a, b).unwrap_or(0) as i64;
        self.gain(g, a) + self.gain(g, b) - 2 * delta
    }

    /// Moves `v` to the other side, updating cut and side weights in
    /// `O(degree(v))`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the graph does not match.
    pub fn move_vertex(&mut self, g: &Graph, v: VertexId) {
        let gain = self.gain(g, v);
        self.move_vertex_with_gain(g, v, gain);
    }

    /// As [`Bisection::move_vertex`], but with the vertex's current
    /// gain supplied by the caller — `O(1)` instead of an `O(degree)`
    /// adjacency walk. `gain` must equal [`Bisection::gain`] for `v`
    /// at the time of the call, e.g. read from an up-to-date
    /// [`crate::gain_cache::GainCache`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; debug builds panic if `gain` is
    /// stale.
    pub fn move_vertex_with_gain(&mut self, g: &Graph, v: VertexId, gain: i64) {
        debug_assert_eq!(gain, self.gain(g, v), "stale gain for vertex {v}");
        let old = self.side[v as usize] as usize;
        let new = 1 - old;
        self.side[v as usize] = !self.side[v as usize];
        self.counts[old] -= 1;
        self.counts[new] += 1;
        let w = g.vertex_weight(v);
        self.weights[old] -= w;
        self.weights[new] += w;
        self.cut = apply_gain(self.cut, gain);
    }

    /// Swaps two vertices on opposite sides, preserving side counts.
    ///
    /// # Panics
    ///
    /// Panics if the vertices are on the same side or out of range.
    pub fn swap(&mut self, g: &Graph, a: VertexId, b: VertexId) {
        let gain = self.swap_gain(g, a, b);
        let sa = self.side[a as usize] as usize;
        let sb = 1 - sa;
        self.side[a as usize] = !self.side[a as usize];
        self.side[b as usize] = !self.side[b as usize];
        let (wa, wb) = (g.vertex_weight(a), g.vertex_weight(b));
        self.weights[sa] -= wa;
        self.weights[sb] += wa;
        self.weights[sb] -= wb;
        self.weights[sa] += wb;
        self.cut = apply_gain(self.cut, gain);
    }

    /// Recomputes the cut from scratch — used by tests and debug
    /// assertions to validate the incremental bookkeeping.
    pub fn recompute_cut(&self, g: &Graph) -> EdgeWeight {
        compute_cut(g, &self.side)
    }

    /// The edges crossing the bisection, as `(u, v, weight)` with
    /// `u < v` in lexicographic order — e.g. the wires crossing the cut
    /// line in a placement.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not match the bisection.
    pub fn crossing_edges(&self, g: &Graph) -> Vec<(VertexId, VertexId, EdgeWeight)> {
        self.assert_graph(g);
        g.edges()
            .filter(|&(u, v, _)| self.side[u as usize] != self.side[v as usize])
            .collect()
    }

    /// Vertices on the given side, in increasing id order.
    pub fn members(&self, side: Side) -> Vec<VertexId> {
        // lint: allow(zero-alloc) — allocating convenience API; hot
        // paths read `GainCache::members` or use members_into, and the
        // only hot-entry route here is the end-of-run rebalance fallback.
        let mut out = Vec::new();
        self.members_into(side, &mut out);
        out
    }

    /// As [`Bisection::members`], writing into a caller-supplied buffer
    /// (cleared first) so hot paths can reuse its allocation.
    pub fn members_into(&self, side: Side, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(
            self.side
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == side.as_bool())
                .map(|(v, _)| v as VertexId),
        );
    }

    /// Overwrites `self` with the contents of `other`, reusing the side
    /// buffer — allocation-free once capacities match, unlike the
    /// derived `Clone`. The two bisections need not belong to the same
    /// graph.
    pub fn copy_from(&mut self, other: &Bisection) {
        self.side.clone_from(&other.side);
        self.cut = other.cut;
        self.counts = other.counts;
        self.weights = other.weights;
    }

    fn assert_graph(&self, g: &Graph) {
        assert_eq!(
            self.side.len(),
            g.num_vertices(),
            "bisection does not belong to this graph"
        );
    }
}

fn compute_cut(g: &Graph, side: &[bool]) -> EdgeWeight {
    g.edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .map(|(_, _, w)| w)
        .sum()
}

fn apply_gain(cut: EdgeWeight, gain: i64) -> EdgeWeight {
    if gain >= 0 {
        cut.checked_sub(gain as u64)
            // lint: allow(no-panic) — a positive gain is a sum of currently-cut edge weights
            .expect("gain cannot exceed the cut")
    } else {
        cut + (-gain) as u64
    }
}

/// The side-weight difference [`Bisection::is_balanced`] accepts: the
/// parity remainder for unit-weight graphs, else the largest vertex
/// weight. Depends on the graph only, and costs O(V + E).
pub(crate) fn balance_tolerance(g: &Graph) -> VertexWeight {
    if g.is_unit_weighted() {
        g.total_vertex_weight() % 2
    } else {
        g.vertices().map(|v| g.vertex_weight(v)).max().unwrap_or(0)
    }
}

/// The `(base, pass)` tolerances of one FM-style move sequence. A kept
/// prefix must end within `base`, the [`balance_tolerance`]. During
/// the sequence a single move may overshoot balance by one vertex:
/// moving weight `w` changes the side *difference* by `2w`, so the
/// classic FM criterion lets the difference reach `pass`, twice the
/// largest vertex weight. Refiners compute both once per call.
pub(crate) fn move_tolerances(g: &Graph) -> (VertexWeight, VertexWeight) {
    let max_weight = g.vertices().map(|v| g.vertex_weight(v)).max().unwrap_or(1);
    let base = balance_tolerance(g);
    (base, base.max(2 * max_weight))
}

/// Moves minimum-damage vertices from the heavier side to the lighter
/// side until the bisection is balanced (per
/// [`Bisection::is_balanced`]). Each step moves the vertex with the
/// best gain among the heavy side; used after projecting a coarse
/// bisection back to the fine graph, where weight-balance may not
/// project exactly.
pub fn rebalance(g: &Graph, p: &mut Bisection) {
    let tolerance = balance_tolerance(g);
    while p.weight_imbalance() > tolerance {
        let heavy = if p.weight(Side::A) > p.weight(Side::B) {
            Side::A
        } else {
            Side::B
        };
        let imbalance = p.weight_imbalance();
        // Among vertices whose move strictly reduces the imbalance
        // (weight < imbalance), pick the best gain; such a vertex
        // always exists because the heavy side holds more than half the
        // total weight while every single weight is at most half of it
        // in any graph where is_balanced can fail.
        let candidate = p
            .members(heavy)
            .into_iter()
            .filter(|&v| 2 * g.vertex_weight(v) < 2 * imbalance)
            .max_by_key(|&v| (p.gain(g, v), std::cmp::Reverse(v)));
        match candidate {
            Some(v) => p.move_vertex(g, v),
            None => {
                // Every heavy-side weight is >= the imbalance; moving
                // the one minimizing the resulting imbalance is the
                // best achievable, after which we stop.
                let v = p
                    .members(heavy)
                    .into_iter()
                    .min_by_key(|&v| (2 * g.vertex_weight(v)).abs_diff(imbalance))
                    // lint: allow(no-panic) — imbalance > 0 implies the heavy side has members
                    .expect("heavier side is nonempty");
                if (2 * g.vertex_weight(v)).abs_diff(imbalance) < imbalance {
                    p.move_vertex(g, v);
                }
                return;
            }
        }
    }
}

/// [`rebalance`], but selecting over `cache.members` with cached O(1)
/// gains instead of materializing member lists and paying an O(deg)
/// gain walk per candidate, and keeping `cache` exact across the moves
/// it makes. Picks the same vertices as [`rebalance`]: both selection
/// keys are made injective (ties broken toward the smaller vertex id),
/// so the unspecified order of `cache.members` cannot change the
/// outcome.
///
/// `cache` must be exact for `(g, p)` on entry; it is exact for the
/// rebalanced `p` on exit.
pub fn rebalance_with_cache(g: &Graph, p: &mut Bisection, cache: &mut GainCache) {
    let tolerance = balance_tolerance(g);
    while p.weight_imbalance() > tolerance {
        let heavy = if p.weight(Side::A) > p.weight(Side::B) {
            Side::A
        } else {
            Side::B
        };
        let imbalance = p.weight_imbalance();
        let candidate = cache
            .members(heavy)
            .iter()
            .copied()
            .filter(|&v| 2 * g.vertex_weight(v) < 2 * imbalance)
            .max_by_key(|&v| (cache.gain(v), std::cmp::Reverse(v)));
        match candidate {
            Some(v) => {
                let gain = cache.gain(v);
                cache.record_move(g, p, v);
                p.move_vertex_with_gain(g, v, gain);
            }
            None => {
                let v = cache
                    .members(heavy)
                    .iter()
                    .copied()
                    .min_by_key(|&v| ((2 * g.vertex_weight(v)).abs_diff(imbalance), v))
                    // lint: allow(no-panic) — imbalance > 0 implies the heavy side has members
                    .expect("heavier side is nonempty");
                if (2 * g.vertex_weight(v)).abs_diff(imbalance) < imbalance {
                    let gain = cache.gain(v);
                    cache.record_move(g, p, v);
                    p.move_vertex_with_gain(g, v, gain);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_graph::GraphBuilder;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::A.other(), Side::B);
        assert_eq!(Side::B.other(), Side::A);
        assert_eq!(Side::A.index(), 0);
        assert_eq!(Side::B.index(), 1);
        assert_eq!(Side::A.to_string(), "A");
        assert_eq!(Side::B.to_string(), "B");
    }

    #[test]
    fn from_sides_computes_cut_and_weights() {
        let g = path4();
        let p = Bisection::from_sides(&g, vec![false, true, false, true]).unwrap();
        assert_eq!(p.cut(), 3);
        assert_eq!(p.count(Side::A), 2);
        assert_eq!(p.weight(Side::B), 2);
        assert_eq!(p.count_imbalance(), 0);
    }

    #[test]
    fn from_sides_rejects_wrong_length() {
        let g = path4();
        let err = Bisection::from_sides(&g, vec![false; 3]).unwrap_err();
        assert_eq!(
            err,
            SideLengthError {
                got: 3,
                expected: 4
            }
        );
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn planted_splits_first_half() {
        let g = path4();
        let p = Bisection::planted(&g);
        assert_eq!(p.side(0), Side::A);
        assert_eq!(p.side(1), Side::A);
        assert_eq!(p.side(2), Side::B);
        assert_eq!(p.cut(), 1);
    }

    #[test]
    fn gain_matches_definition() {
        let g = path4();
        let p = Bisection::planted(&g); // A = {0,1}, B = {2,3}
        assert_eq!(p.gain(&g, 0), -1); // one internal edge
        assert_eq!(p.gain(&g, 1), 0); // one internal, one external
        assert_eq!(p.gain(&g, 2), 0);
        assert_eq!(p.gain(&g, 3), -1);
    }

    #[test]
    fn move_vertex_updates_everything() {
        let g = path4();
        let mut p = Bisection::planted(&g);
        p.move_vertex(&g, 1);
        assert_eq!(p.side(1), Side::B);
        assert_eq!(p.cut(), p.recompute_cut(&g));
        assert_eq!(p.cut(), 1);
        assert_eq!(p.count(Side::A), 1);
        assert_eq!(p.count(Side::B), 3);
        p.move_vertex(&g, 1); // move back
        assert_eq!(p.cut(), 1);
        assert_eq!(p.count_imbalance(), 0);
    }

    #[test]
    fn swap_preserves_counts() {
        let g = path4();
        let mut p = Bisection::planted(&g);
        p.swap(&g, 1, 2);
        assert_eq!(p.count(Side::A), 2);
        assert_eq!(p.cut(), p.recompute_cut(&g));
        assert_eq!(p.side(1), Side::B);
        assert_eq!(p.side(2), Side::A);
    }

    #[test]
    #[should_panic(expected = "opposite sides")]
    fn swap_same_side_panics() {
        let g = path4();
        let mut p = Bisection::planted(&g);
        p.swap(&g, 0, 1);
    }

    #[test]
    fn swap_gain_includes_edge_correction() {
        let g = path4();
        let p = Bisection::planted(&g);
        // Swapping 1 and 2 (adjacent, both gain 0): g_ab = 0+0-2 = -2.
        assert_eq!(p.swap_gain(&g, 1, 2), -2);
        // Swapping 0 and 3 (not adjacent, both gain -1): -2.
        assert_eq!(p.swap_gain(&g, 0, 3), -2);
        // Swapping 0 and 2: -1 + 0 - 0 = -1.
        assert_eq!(p.swap_gain(&g, 0, 2), -1);
    }

    #[test]
    fn incremental_cut_matches_recompute_after_many_moves() {
        let g = bisect_gen::special::grid(5, 5);
        let mut p = Bisection::planted(&g);
        for v in [0u32, 7, 3, 24, 7, 12, 0, 18] {
            p.move_vertex(&g, v);
            assert_eq!(p.cut(), p.recompute_cut(&g), "after moving {v}");
        }
    }

    #[test]
    fn balance_even_unit_graph() {
        let g = path4();
        let p = Bisection::planted(&g);
        assert!(p.is_balanced(&g));
        let q = Bisection::from_sides(&g, vec![false, false, false, true]).unwrap();
        assert!(!q.is_balanced(&g));
    }

    #[test]
    fn balance_odd_unit_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let p = Bisection::from_sides(&g, vec![false, false, false, true, true]).unwrap();
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn balance_weighted_graph_tolerates_max_weight() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.set_vertex_weight(0, 2).unwrap();
        b.set_vertex_weight(1, 2).unwrap();
        b.set_vertex_weight(2, 1).unwrap();
        let g = b.build();
        // Weights 2|2,1: imbalance 1 <= max weight 2 -> balanced.
        let p = Bisection::from_sides(&g, vec![false, true, true]).unwrap();
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn members_sorted() {
        let g = path4();
        let p = Bisection::from_sides(&g, vec![true, false, true, false]).unwrap();
        assert_eq!(p.members(Side::A), vec![1, 3]);
        assert_eq!(p.members(Side::B), vec![0, 2]);
    }

    #[test]
    fn rebalance_reaches_balance_and_tracks_cut() {
        let g = bisect_gen::special::grid(4, 4);
        let mut p = Bisection::from_sides(&g, vec![false; 16]).unwrap();
        rebalance(&g, &mut p);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
        assert_eq!(p.count(Side::A), 8);
    }

    #[test]
    fn rebalance_noop_when_balanced() {
        let g = path4();
        let mut p = Bisection::planted(&g);
        let before = p.clone();
        rebalance(&g, &mut p);
        assert_eq!(p, before);
    }

    #[test]
    fn rebalance_picks_low_damage_vertices() {
        // Star: moving leaves costs 1 each; rebalance from all-in-A
        // should end with cut = floor(n/2) = 3 (3 leaves moved).
        let g = bisect_gen::special::star(6);
        let mut p = Bisection::from_sides(&g, vec![false; 6]).unwrap();
        rebalance(&g, &mut p);
        assert!(p.is_balanced(&g));
        // Any balanced split of a star cuts exactly ⌊n/2⌋ edges when
        // only leaves move, and also when the hub crosses with two
        // leaves — the minimum-damage result is cut 3 either way.
        assert_eq!(p.cut(), 3);
    }

    #[test]
    fn from_sides_with_cut_matches_from_sides() {
        let g = bisect_gen::special::grid(5, 5);
        let sides: Vec<bool> = (0..25).map(|v| v % 3 == 0).collect();
        let full = Bisection::from_sides(&g, sides.clone()).unwrap();
        let fast = Bisection::from_sides_with_cut(&g, sides, full.cut()).unwrap();
        assert_eq!(full, fast);
        assert!(Bisection::from_sides_with_cut(&g, vec![false; 3], 0).is_err());
    }

    #[test]
    fn rebalance_with_cache_matches_rebalance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = bisect_gen::gnp::GnpParams::new(40, 0.1).unwrap();
            let g = bisect_gen::gnp::sample(&mut rng, &params);
            // Deliberately lopsided start so rebalance has work to do.
            let sides: Vec<bool> = (0..40).map(|_| rng.gen_range(0..4) == 0).collect();
            let mut plain = Bisection::from_sides(&g, sides.clone()).unwrap();
            let mut cached = Bisection::from_sides(&g, sides).unwrap();
            let mut cache = GainCache::default();
            cache.init(&g, &cached);
            rebalance(&g, &mut plain);
            rebalance_with_cache(&g, &mut cached, &mut cache);
            assert_eq!(plain, cached, "seed {seed}");
            for v in g.vertices() {
                assert_eq!(
                    cache.gain(v),
                    cached.gain(&g, v),
                    "stale cache, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn crossing_edges_match_cut() {
        let g = bisect_gen::special::grid(4, 4);
        let p = Bisection::planted(&g);
        let crossing = p.crossing_edges(&g);
        assert_eq!(crossing.iter().map(|&(_, _, w)| w).sum::<u64>(), p.cut());
        for &(u, v, _) in &crossing {
            assert_ne!(p.side(u), p.side(v));
            assert!(u < v);
        }
    }

    #[test]
    fn crossing_edges_empty_for_zero_cut() {
        let g = bisect_gen::special::cycle_collection(2, 4);
        let p = Bisection::planted(&g); // each cycle on its own side
        assert_eq!(p.cut(), 0);
        assert!(p.crossing_edges(&g).is_empty());
    }

    #[test]
    fn members_into_reuses_buffer() {
        let g = path4();
        let p = Bisection::from_sides(&g, vec![true, false, true, false]).unwrap();
        let mut buf = vec![99, 99, 99, 99, 99];
        p.members_into(Side::A, &mut buf);
        assert_eq!(buf, vec![1, 3]);
        p.members_into(Side::B, &mut buf);
        assert_eq!(buf, vec![0, 2]);
    }

    #[test]
    fn copy_from_matches_clone_across_sizes() {
        let g = path4();
        let p = Bisection::planted(&g);
        let big = bisect_gen::special::grid(5, 5);
        let mut q = Bisection::planted(&big);
        q.copy_from(&p);
        assert_eq!(q, p);
        let mut r = Bisection::planted(&g);
        let pb = Bisection::planted(&big);
        r.copy_from(&pb);
        assert_eq!(r, pb);
    }

    #[test]
    fn into_sides_roundtrip() {
        let g = path4();
        let p = Bisection::planted(&g);
        let sides = p.clone().into_sides();
        let q = Bisection::from_sides(&g, sides).unwrap();
        assert_eq!(p, q);
    }
}
