//! Hypergraph-native bisection: the full multilevel pipeline on
//! netlists.
//!
//! The paper's VLSI motivation minimizes *net cut* — the number of nets
//! (hyperedges) with pins on both sides — which the graph abstraction
//! only approximates (a cut k-pin net contributes up to `⌊k/2⌋·⌈k/2⌉`
//! clique edges). This module mirrors the graph-side stack
//! ([`crate::pipeline`], [`crate::gain_cache`], [`crate::fm`]) on the
//! hypergraph objective:
//!
//! * [`NetlistBisection`] — incremental net-cut bookkeeping (per-net
//!   pin counts per side);
//! * [`NetlistGainCache`] — workspace-resident per-cell gains, cut-net
//!   degrees, and the cell boundary, maintained in `O(pins touched)`
//!   per move and projected coarse→fine across uncoarsening;
//! * [`NetlistFm`] — boundary-seeded Fiduccia-Mattheyses in its native
//!   habitat, behind the [`NetlistRefiner`] trait: it runs the one FM
//!   pass of [`crate::fm`] (single-cell moves, shared gain buckets,
//!   balance tolerance, best balanced prefix per pass) that the graph
//!   refiners run, and only its per-move gain update is the netlist's
//!   own;
//! * [`NetlistPipeline`] — the one [`crate::pipeline::Pipeline`]
//!   descriptor over netlists, with the paper's one-level compaction
//!   and a full V-cycle as its [`NetlistPipeline::compacted_fm`] /
//!   [`NetlistPipeline::multilevel_fm`] presets;
//! * [`recursive_placement`] — recursive k-way bisection with terminal
//!   propagation, scoring [`NetlistPlacement`]s by net cut and HPWL.
//!
//! Balance and the FM pass are shared, not mirrored: the tolerance, the
//! random starts and the rebalances come from the crate's balance layer
//! (`balance.rs`), and the pass from [`crate::fm`].
//!
//! The `hypergraph_netlist` example and the `placement` benchmark
//! experiment compare this against bisecting the clique expansion with
//! graph algorithms.

use bisect_graph::hypergraph::{NetId, Netlist};
use bisect_graph::{VertexId, VertexWeight};
use rand::{Rng, RngCore};

use crate::balance::{self, Tolerance};
use crate::partition::{Side, SideLengthError};
use crate::workspace::Workspace;

mod coarsen;
mod fm;
mod gain_cache;
mod kway;
mod par_fm;
mod pipeline;

pub use coarsen::ParallelCellMatching;
pub use fm::NetlistFm;
pub use gain_cache::NetlistGainCache;
pub use kway::{
    part_regions, recursive_placement, recursive_placement_counted, NetlistPlacement, Rect,
};
pub use par_fm::ParallelNetlistFm;
pub use pipeline::NetlistPipeline;

/// A net's contribution to the FM gain of one of its pins, given the
/// pin counts `mine` (the pin's side, including the pin itself) and
/// `others` (the far side) and the net weight `w`. The single formula
/// shared by [`NetlistBisection::gain`] and the incremental
/// [`NetlistGainCache`] delta updates.
pub(crate) fn gain_term(mine: u32, others: u32, w: i64) -> i64 {
    if others == 0 {
        // Net entirely on the pin's side: moving the pin cuts it,
        // unless the pin is the only one.
        if mine == 1 {
            0
        } else {
            -w
        }
    } else if mine == 1 {
        // The pin is the last one on its side: moving it uncuts the
        // net.
        w
    } else {
        0
    }
}

/// A two-way partition of a netlist's cells with incrementally
/// maintained net cut.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::NetlistBisection;
/// use bisect_graph::hypergraph::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new(4);
/// b.add_net(&[0, 1, 2]).unwrap();
/// b.add_net(&[2, 3]).unwrap();
/// let nl = b.build();
/// let p = NetlistBisection::from_sides(&nl, vec![false, false, true, true]).unwrap();
/// assert_eq!(p.cut(), 1); // the 3-pin net spans; {2,3} sits inside B
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistBisection {
    side: Vec<bool>,
    /// Pins of each net on side A / side B.
    pins_on: Vec<[u32; 2]>,
    cut: u64,
    counts: [usize; 2],
    weights: [VertexWeight; 2],
}

impl NetlistBisection {
    /// Creates a bisection from a raw side vector (`false` = side A).
    ///
    /// # Errors
    ///
    /// Returns [`SideLengthError`] if the length differs from the cell
    /// count.
    pub fn from_sides(nl: &Netlist, side: Vec<bool>) -> Result<NetlistBisection, SideLengthError> {
        if side.len() != nl.num_cells() {
            return Err(SideLengthError {
                got: side.len(),
                expected: nl.num_cells(),
            });
        }
        let mut counts = [0usize; 2];
        let mut weights = [0u64; 2];
        for c in nl.cells() {
            let s = side[c as usize] as usize;
            counts[s] += 1;
            weights[s] += nl.cell_weight(c);
        }
        let mut pins_on = vec![[0u32; 2]; nl.num_nets()];
        let mut cut = 0u64;
        for n in nl.net_ids() {
            for &p in nl.pins(n) {
                pins_on[n as usize][side[p as usize] as usize] += 1;
            }
            if pins_on[n as usize][0] > 0 && pins_on[n as usize][1] > 0 {
                cut += nl.net_weight(n);
            }
        }
        Ok(NetlistBisection {
            side,
            pins_on,
            cut,
            counts,
            weights,
        })
    }

    /// A uniformly random cell-count-balanced bisection.
    ///
    /// It balances cell *counts*, not weights, so on a weighted
    /// (coarse) netlist it can start far outside
    /// [`NetlistBisection::is_balanced`]. Seed weighted netlists with
    /// [`weight_balanced_random`] instead.
    pub fn random_balanced<R: Rng + ?Sized>(nl: &Netlist, rng: &mut R) -> NetlistBisection {
        balance::count_balanced(nl, rng)
    }

    /// The side of cell `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn side(&self, c: VertexId) -> Side {
        if self.side[c as usize] {
            Side::B
        } else {
            Side::A
        }
    }

    /// The raw side vector.
    pub fn sides(&self) -> &[bool] {
        &self.side
    }

    /// Pins of net `n` on side A / side B — the per-net counters behind
    /// the incremental cut, exposed for gain bookkeeping
    /// ([`NetlistGainCache`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn pins_on(&self, n: NetId) -> [u32; 2] {
        self.pins_on[n as usize]
    }

    /// The maintained weighted net cut.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Cells on the given side.
    pub fn count(&self, side: Side) -> usize {
        self.counts[side.index()]
    }

    /// Total cell weight of the given side.
    pub fn weight(&self, side: Side) -> VertexWeight {
        self.weights[side.index()]
    }

    /// Absolute side weight difference.
    pub fn weight_imbalance(&self) -> VertexWeight {
        self.weights[0].abs_diff(self.weights[1])
    }

    /// Whether side weights differ by at most the parity remainder
    /// (unit weights) or the largest cell weight.
    pub fn is_balanced(&self, nl: &Netlist) -> bool {
        self.weight_imbalance() <= Tolerance::of(nl).base
    }

    /// Overwrites `self` with `other`, reusing existing capacity — the
    /// allocation-free analogue of `clone_from` used by the workspace
    /// work-mirror arena.
    pub fn copy_from(&mut self, other: &NetlistBisection) {
        self.side.clear();
        self.side.extend_from_slice(&other.side);
        self.pins_on.clear();
        self.pins_on.extend_from_slice(&other.pins_on);
        self.cut = other.cut;
        self.counts = other.counts;
        self.weights = other.weights;
    }

    /// Recomputes the net cut from scratch (for validation).
    pub fn recompute_cut(&self, nl: &Netlist) -> u64 {
        let mut cut = 0;
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            let has_a = pins.iter().any(|&p| !self.side[p as usize]);
            let has_b = pins.iter().any(|&p| self.side[p as usize]);
            if has_a && has_b {
                cut += nl.net_weight(n);
            }
        }
        cut
    }

    /// The FM gain of moving cell `c`: weighted nets uncut minus nets
    /// newly cut.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range for `nl`.
    pub fn gain(&self, nl: &Netlist, c: VertexId) -> i64 {
        nl.nets_of(c)
            .iter()
            .map(|&n| self.net_contribution(nl, n, c))
            .sum()
    }

    /// Net `n`'s contribution to the gain of its pin `c`.
    fn net_contribution(&self, nl: &Netlist, n: NetId, c: VertexId) -> i64 {
        let s = self.side[c as usize] as usize;
        let [my, other] = [self.pins_on[n as usize][s], self.pins_on[n as usize][1 - s]];
        gain_term(my, other, nl.net_weight(n) as i64)
    }

    /// Moves cell `c` to the other side, updating the cut in
    /// `O(nets_of(c))`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range for `nl`.
    pub fn move_cell(&mut self, nl: &Netlist, c: VertexId) {
        let from = self.side[c as usize] as usize;
        for &n in nl.nets_of(c) {
            self.shift_pin(nl, n, from);
        }
        self.flip(nl, c);
    }

    /// Moves one pin of net `n` off side `from` and updates the cut;
    /// returns the net's pre-move counts `(from side, far side)`. One
    /// step of a cell move: the mover calls it once per net of the cell,
    /// then [`NetlistBisection::flip`].
    #[inline]
    pub(crate) fn shift_pin(&mut self, nl: &Netlist, n: NetId, from: usize) -> (u32, u32) {
        let counts = &mut self.pins_on[n as usize];
        let (my, other) = (counts[from], counts[1 - from]);
        counts[from] = my - 1;
        counts[1 - from] = other + 1;
        // `my >= 1`: the moving cell is a pin of `n`.
        if other == 0 && my > 1 {
            self.cut += nl.net_weight(n);
        } else if my == 1 && other > 0 {
            self.cut -= nl.net_weight(n);
        }
        (my, other)
    }

    /// Flips cell `c`'s side and moves its count and weight with it; the
    /// pin counts of its nets must already have been shifted.
    #[inline]
    pub(crate) fn flip(&mut self, nl: &Netlist, c: VertexId) {
        let from = self.side[c as usize] as usize;
        let to = 1 - from;
        self.side[c as usize] = !self.side[c as usize];
        self.counts[from] -= 1;
        self.counts[to] += 1;
        let w = nl.cell_weight(c);
        self.weights[from] -= w;
        self.weights[to] += w;
    }
}

/// A refinement algorithm on netlist bisections, mirroring the
/// graph-side [`crate::bisector::Refiner`] so the
/// [`NetlistPipeline`] engine can drive any implementation through its
/// uncoarsening ladder. `fixed` holds the sides of the netlist's last
/// `fixed.len()` cells, which must never move (terminal-propagation
/// anchors); an empty slice fixes nothing. A refiner reads only its
/// length and leaves the fixed cells where its start has them.
///
/// Every refiner reads its gains from the workspace
/// [`NetlistGainCache`], which the engine builds once for the coarsest
/// start and projects down the ladder, so the one required refine
/// method is [`NetlistRefiner::refine_projected_counted`], the only one
/// the engine calls. The graph-side trait has the same shape, `fixed`
/// aside: `name` and the projected entry required, `refine_counted`
/// provided.
pub trait NetlistRefiner {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Improves `init`, drawing every scratch buffer from `ws`; returns
    /// the refined bisection and the number of productive passes. The
    /// fixed cells stay on their side. Builds the workspace gain
    /// cache for `(nl, init)`, then refines as
    /// [`NetlistRefiner::refine_projected_counted`].
    fn refine_counted(
        &self,
        nl: &Netlist,
        fixed: &[Side],
        init: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        if nl.num_cells() >= 2 {
            ws.netlist_cache.init(nl, &init);
        }
        self.refine_projected_counted(nl, fixed, init, rng, ws)
    }

    /// As [`NetlistRefiner::refine_counted`], but the workspace gain
    /// cache is already exact for `(nl, init)` — projected from the
    /// previous (coarser) level — and must be left exact for the
    /// returned bisection. Netlists with fewer than 2 cells come back
    /// unchanged, without reading the cache.
    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[Side],
        init: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64);
}

/// [`crate::partition::rebalance`] for netlists. The last
/// `fixed.len()` cells are never moved.
pub fn rebalance_fixed(nl: &Netlist, p: &mut NetlistBisection, fixed: &[Side]) {
    balance::rebalance(nl, p, fixed);
}

/// [`rebalance_fixed`] on the gains of a [`NetlistGainCache`] exact for
/// `(nl, p)`, found in a lazy max-heap, making the same moves and
/// leaving the cache exact.
pub fn rebalance_with_cache(
    nl: &Netlist,
    p: &mut NetlistBisection,
    fixed: &[Side],
    cache: &mut NetlistGainCache,
) {
    balance::rebalance_with_cache(nl, p, fixed, cache, |_| {});
}

/// A random bisection balanced by cell weight (greedy lighter-side
/// assignment in random order): the start the netlist engine draws on
/// (coarse) weighted netlists.
pub fn weight_balanced_random<R: Rng + ?Sized>(nl: &Netlist, rng: &mut R) -> NetlistBisection {
    balance::weight_balanced(nl, &[], rng)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;

    /// Two 3-cell clusters joined by one bridge net.
    pub(crate) fn two_clusters() -> Netlist {
        let mut b = NetlistBuilder::new(6);
        b.add_net(&[0, 1, 2]).unwrap();
        b.add_net(&[0, 1]).unwrap();
        b.add_net(&[3, 4, 5]).unwrap();
        b.add_net(&[4, 5]).unwrap();
        b.add_net(&[2, 3]).unwrap();
        b.build()
    }

    /// The optimal balanced net cut by exhaustive enumeration (≤ 16
    /// cells).
    pub(crate) fn brute_force_cut(nl: &Netlist) -> u64 {
        let n = nl.num_cells();
        assert!(n <= 16);
        let half = n.div_ceil(2);
        let mut best = u64::MAX;
        for mask in 0..1u32 << n {
            if mask.count_ones() as usize != half {
                continue;
            }
            let sides: Vec<bool> = (0..n).map(|c| mask >> c & 1 == 0).collect();
            let cut = NetlistBisection::from_sides(nl, sides).unwrap().cut();
            best = best.min(cut);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::two_clusters;
    use super::*;
    use crate::bisector::Bisector;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cut_counts_spanning_nets_once() {
        let nl = two_clusters();
        let p =
            NetlistBisection::from_sides(&nl, vec![false, false, false, true, true, true]).unwrap();
        assert_eq!(p.cut(), 1);
        let q =
            NetlistBisection::from_sides(&nl, vec![false, true, false, true, false, true]).unwrap();
        assert_eq!(q.cut(), q.recompute_cut(&nl));
        assert_eq!(q.cut(), 5);
    }

    #[test]
    fn from_sides_rejects_wrong_length() {
        let nl = two_clusters();
        assert!(NetlistBisection::from_sides(&nl, vec![false; 3]).is_err());
    }

    #[test]
    fn gain_matches_definition() {
        let nl = two_clusters();
        let p =
            NetlistBisection::from_sides(&nl, vec![false, false, false, true, true, true]).unwrap();
        // Moving cell 2: cuts nets {0,1,2}; uncuts the bridge {2,3}.
        assert_eq!(p.gain(&nl, 2), 0);
        // Moving cell 0: cuts {0,1,2} and {0,1}: -2.
        assert_eq!(p.gain(&nl, 0), -2);
    }

    #[test]
    fn pins_on_tracks_moves() {
        let nl = two_clusters();
        let mut p =
            NetlistBisection::from_sides(&nl, vec![false, false, false, true, true, true]).unwrap();
        assert_eq!(p.pins_on(0), [3, 0]);
        assert_eq!(p.pins_on(4), [1, 1]);
        p.move_cell(&nl, 2);
        assert_eq!(p.pins_on(0), [2, 1]);
        assert_eq!(p.pins_on(4), [0, 2]);
    }

    #[test]
    fn move_cell_keeps_cut_consistent() {
        let nl = two_clusters();
        let mut p = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(1));
        for c in [0u32, 3, 2, 5, 0, 1] {
            let gain = p.gain(&nl, c);
            let before = p.cut();
            p.move_cell(&nl, c);
            assert_eq!(p.cut(), p.recompute_cut(&nl), "after moving {c}");
            assert_eq!(
                before as i64 - p.cut() as i64,
                gain,
                "gain mismatch for {c}"
            );
        }
    }

    #[test]
    fn copy_from_matches_clone() {
        let nl = two_clusters();
        let a = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(7));
        let mut b = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(8));
        b.move_cell(&nl, 0);
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_nets_never_cut() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[]).unwrap();
        b.add_net(&[2]).unwrap();
        b.add_net(&[0, 1, 2, 3]).unwrap();
        let nl = b.build();
        let p = NetlistBisection::from_sides(&nl, vec![false, false, true, true]).unwrap();
        assert_eq!(p.cut(), 1); // only the 4-pin net spans
        let mut rng = StdRng::seed_from_u64(1);
        let q = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
        assert_eq!(q.cut(), q.recompute_cut(&nl));
    }

    #[test]
    fn rebalance_netlist_reaches_balance() {
        let nl = two_clusters();
        let mut p = NetlistBisection::from_sides(&nl, vec![false; 6]).unwrap();
        rebalance_fixed(&nl, &mut p, &[]);
        assert!(p.is_balanced(&nl));
        assert_eq!(p.cut(), p.recompute_cut(&nl));
    }

    #[test]
    fn rebalance_fixed_respects_pins() {
        let nl = two_clusters();
        // Everything on side A; cells 4 and 5 are pinned there.
        let mut p = NetlistBisection::from_sides(&nl, vec![false; 6]).unwrap();
        rebalance_fixed(&nl, &mut p, &[Side::A, Side::A]);
        assert!(p.is_balanced(&nl));
        assert_eq!(p.side(4), Side::A);
        assert_eq!(p.side(5), Side::A);
    }

    #[test]
    fn rebalance_with_cache_matches_plain() {
        let nl = two_clusters();
        let mut plain = NetlistBisection::from_sides(&nl, vec![false; 6]).unwrap();
        let mut cached = plain.clone();
        let mut cache = NetlistGainCache::default();
        cache.init(&nl, &cached);
        rebalance_fixed(&nl, &mut plain, &[]);
        rebalance_with_cache(&nl, &mut cached, &[], &mut cache);
        assert_eq!(plain, cached);
        for c in nl.cells() {
            assert_eq!(cache.gain(c), cached.gain(&nl, c));
        }
    }
}
