//! The bisection (two-way partition) type shared by every heuristic.
//!
//! A [`Bisection`] assigns each vertex a side (`A` = `false`, `B` =
//! `true`) and incrementally maintains the cut weight, the vertex count
//! and vertex weight of each side. The *gain* of a vertex — how much the
//! cut would shrink if it switched sides — is the paper's `g_v`
//! (§III): the number of edges to the other side minus the number of
//! edges to its own side, weighted.
//!
//! [`Bisection::is_balanced`] and the rebalances come from the crate's
//! balance layer (`balance.rs`), which netlists share.

use bisect_graph::{EdgeWeight, Graph, VertexId, VertexWeight};

use crate::balance::{self, Cells, Tolerance};
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
        Bisection::with_cut(g, side, |side| compute_cut(g, side))
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
        Bisection::with_cut(g, side, |side| {
            debug_assert_eq!(cut, compute_cut(g, side), "caller-supplied cut is wrong");
            cut
        })
    }

    /// The one constructor: checks the length, counts the sides, and
    /// takes the cut from `cut`.
    fn with_cut(
        g: &Graph,
        side: Vec<bool>,
        cut: impl FnOnce(&[bool]) -> EdgeWeight,
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
        let cut = cut(&side);
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
        g.part((0..n).map(|v| v >= n / 2).collect())
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

    /// Absolute difference of the side vertex *weights*.
    pub fn weight_imbalance(&self) -> VertexWeight {
        self.weights[0].abs_diff(self.weights[1])
    }

    /// Whether the bisection is balanced: side weights differ by at most
    /// the parity remainder `n % 2` for unit vertex weights, or by at
    /// most the largest vertex weight for weighted (contracted) graphs,
    /// where exact balance may be unattainable.
    pub fn is_balanced(&self, g: &Graph) -> bool {
        self.weight_imbalance() <= Tolerance::of(g).base
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

    /// Overwrites `self` with a bisection held elsewhere as raw parts
    /// (SA's compact annealing state), reusing the side buffer. The
    /// parts must describe one bisection of `self`'s graph.
    pub(crate) fn assign(
        &mut self,
        side: &[bool],
        cut: EdgeWeight,
        counts: [usize; 2],
        weights: [VertexWeight; 2],
    ) {
        self.side.clear();
        self.side.extend_from_slice(side);
        self.cut = cut;
        self.counts = counts;
        self.weights = weights;
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

/// Moves minimum-damage vertices to the lighter side until the
/// bisection [is balanced](Bisection::is_balanced): each step moves
/// the best-gain heavy-side vertex lighter than the imbalance.
pub fn rebalance(g: &Graph, p: &mut Bisection) {
    balance::rebalance(g, p, &[]);
}

/// [`rebalance`] on cached gains, found in a lazy max-heap, making the
/// same moves. `cache` must be exact for `(g, p)` on entry; it is exact
/// for the rebalanced `p` on exit.
pub fn rebalance_with_cache(g: &Graph, p: &mut Bisection, cache: &mut GainCache) {
    balance::rebalance_with_cache(g, p, &[], cache, |_| {});
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
        assert_eq!(p.count(Side::A).abs_diff(p.count(Side::B)), 0);
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
        assert_eq!(p.count(Side::A).abs_diff(p.count(Side::B)), 0);
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
