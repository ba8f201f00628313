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
//!   habitat (single-cell moves, shared gain buckets, balance
//!   tolerance, best balanced prefix per pass), behind the
//!   [`NetlistRefiner`] trait;
//! * [`NetlistPipeline`] — coarsen→partition→refine on netlists, with
//!   the paper's one-level compaction and a full V-cycle as its
//!   [`NetlistPipeline::compacted_fm`] / [`NetlistPipeline::multilevel_fm`]
//!   constructors;
//! * [`recursive_placement`] — recursive k-way bisection with terminal
//!   propagation, scoring [`NetlistPlacement`]s by net cut and HPWL.
//!
//! The `hypergraph_netlist` example and the `placement` benchmark
//! experiment compare this against bisecting the clique expansion with
//! graph algorithms.

use std::cmp::Reverse;

use bisect_graph::hypergraph::{NetId, Netlist};
use bisect_graph::{VertexId, VertexWeight};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

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
pub(crate) use par_fm::ParallelNetlistScratch;
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
        let n = nl.num_cells();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        perm.shuffle(rng);
        let mut side = vec![true; n];
        for &c in &perm[..n.div_ceil(2)] {
            side[c as usize] = false;
        }
        // lint: allow(no-panic) — side was sized to the cell count just above
        NetlistBisection::from_sides(nl, side).expect("length matches")
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
        self.weight_imbalance() <= balance_tolerance(nl)
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
        let to = 1 - from;
        for &n in nl.nets_of(c) {
            let counts = &mut self.pins_on[n as usize];
            let was_cut = counts[0] > 0 && counts[1] > 0;
            counts[from] -= 1;
            counts[to] += 1;
            let now_cut = counts[0] > 0 && counts[1] > 0;
            match (was_cut, now_cut) {
                (false, true) => self.cut += nl.net_weight(n),
                (true, false) => self.cut -= nl.net_weight(n),
                _ => {}
            }
        }
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
/// uncoarsening ladder. `fixed` flags cells that must never move
/// (terminal-propagation anchors); an empty slice fixes nothing.
///
/// Every refiner reads its gains from the workspace
/// [`NetlistGainCache`], which the engine builds once at the coarsest
/// level and projects down the ladder, so the one required method is
/// [`NetlistRefiner::refine_projected_counted`].
pub trait NetlistRefiner {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Improves `init`, drawing every scratch buffer from `ws`; returns
    /// the refined bisection and the number of productive passes. Cells
    /// flagged in `fixed` stay on their side. Builds the workspace gain
    /// cache for `(nl, init)`, then refines as
    /// [`NetlistRefiner::refine_projected_counted`].
    fn refine_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
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
        fixed: &[bool],
        init: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64);
}

/// Moves minimum-damage cells from the heavier side until the
/// bisection is balanced — the netlist analogue of
/// [`crate::partition::rebalance`], used after projecting a coarse
/// bisection. Cells flagged in `fixed` are never moved. An empty slice
/// fixes nothing; a short slice treats missing entries as movable.
pub fn rebalance_fixed(nl: &Netlist, p: &mut NetlistBisection, fixed: &[bool]) {
    let is_fixed = |c: VertexId| fixed.get(c as usize).copied().unwrap_or(false);
    while !p.is_balanced(nl) {
        let heavy = if p.weight(Side::A) > p.weight(Side::B) {
            Side::A
        } else {
            Side::B
        };
        let imbalance = p.weight_imbalance();
        let candidate = nl
            .cells()
            .filter(|&c| p.side(c) == heavy && !is_fixed(c) && nl.cell_weight(c) < imbalance)
            .max_by_key(|&c| (p.gain(nl, c), std::cmp::Reverse(c)));
        match candidate {
            Some(c) => p.move_cell(nl, c),
            None => return, // every movable heavy cell is at least the imbalance
        }
    }
}

/// The side-weight difference [`NetlistBisection::is_balanced`]
/// accepts: the parity remainder for unit cell weights, else the
/// largest cell weight. Depends on the netlist only.
pub(crate) fn balance_tolerance(nl: &Netlist) -> VertexWeight {
    let unit = nl.cells().all(|c| nl.cell_weight(c) == 1);
    if unit {
        nl.total_cell_weight() % 2
    } else {
        nl.cells().map(|c| nl.cell_weight(c)).max().unwrap_or(0)
    }
}

/// As [`rebalance_fixed`], but reads gains from — and keeps exact — a
/// [`NetlistGainCache`] that is exact for `(nl, p)` on entry: the
/// netlist analogue of the graph-side cache-maintaining rebalance used
/// between projected-cache refinement levels.
///
/// Each step moves the same cell the scan of [`rebalance_fixed`] would
/// pick — the movable heavy-side cell lighter than the imbalance with
/// the largest `(gain, Reverse(cell))` — but finds it in a lazy
/// max-heap kept in the cache's arena, so a step costs `O(pins of the
/// moved cell · log)` rather than `O(cells)`.
pub fn rebalance_with_cache(
    nl: &Netlist,
    p: &mut NetlistBisection,
    fixed: &[bool],
    cache: &mut NetlistGainCache,
) {
    rebalance_with_cache_observed(nl, p, fixed, cache, |_| {});
}

/// [`rebalance_with_cache`], reporting each moved cell to `on_move`
/// (the equivalence tests compare the move sequence with the scan).
fn rebalance_with_cache_observed(
    nl: &Netlist,
    p: &mut NetlistBisection,
    fixed: &[bool],
    cache: &mut NetlistGainCache,
    mut on_move: impl FnMut(VertexId),
) {
    let is_fixed = |c: VertexId| fixed.get(c as usize).copied().unwrap_or(false);
    let tolerance = balance_tolerance(nl);
    let mut heap = std::mem::take(&mut cache.rebalance_heap);
    // Invariant: every movable cell on the `built_for` side lighter
    // than the imbalance has an entry carrying its current cached gain.
    // Entries go stale when the gain changes (a fresher one is pushed),
    // when the cell moves, or when it stops being lighter than the
    // imbalance — which only shrinks, so it never becomes eligible
    // again.
    let mut built_for: Option<Side> = None;
    loop {
        let imbalance = p.weight_imbalance();
        if imbalance <= tolerance {
            break;
        }
        let heavy = if p.weight(Side::A) > p.weight(Side::B) {
            Side::A
        } else {
            Side::B
        };
        if built_for != Some(heavy) {
            // First step, or the heavy side flipped. (With the
            // cell-weight tolerance a flip always lands balanced, so
            // in practice the heap is built once.)
            heap.clear();
            heap.extend(
                nl.cells()
                    .filter(|&c| {
                        p.side(c) == heavy && !is_fixed(c) && nl.cell_weight(c) < imbalance
                    })
                    .map(|c| (cache.gain(c), Reverse(c))),
            );
            built_for = Some(heavy);
        }
        let mut pick = None;
        while let Some((gain, Reverse(c))) = heap.pop() {
            if gain == cache.gain(c) && p.side(c) == heavy && nl.cell_weight(c) < imbalance {
                pick = Some(c);
                break;
            }
        }
        let Some(c) = pick else {
            break; // every movable heavy cell is at least the imbalance
        };
        cache.record_move(nl, p, c);
        p.move_cell(nl, c);
        on_move(c);
        let imbalance = p.weight_imbalance();
        for &net in nl.nets_of(c) {
            for &q in nl.pins(net) {
                if p.side(q) == heavy && !is_fixed(q) && nl.cell_weight(q) < imbalance {
                    heap.push((cache.gain(q), Reverse(q)));
                }
            }
        }
    }
    heap.clear();
    cache.rebalance_heap = heap;
}

/// A random bisection balanced by cell weight (greedy lighter-side
/// assignment in random order): the start the netlist engine draws on
/// (coarse) weighted netlists.
pub fn weight_balanced_random<R: Rng + ?Sized>(nl: &Netlist, rng: &mut R) -> NetlistBisection {
    weight_balanced_random_fixed(nl, &[], rng)
}

/// As [`weight_balanced_random`], but each `(cell, side)` in `fixed` is
/// pinned to its side (and counted toward its weight) before the
/// movable cells are greedily assigned. Duplicate pairs count once.
pub(crate) fn weight_balanced_random_fixed<R: Rng + ?Sized>(
    nl: &Netlist,
    fixed: &[(VertexId, Side)],
    rng: &mut R,
) -> NetlistBisection {
    let n = nl.num_cells();
    let mut side = vec![false; n];
    let mut pinned = vec![false; n];
    let mut weights = [0u64; 2];
    for &(c, s) in fixed {
        if !std::mem::replace(&mut pinned[c as usize], true) {
            side[c as usize] = s == Side::B;
            weights[s.index()] += nl.cell_weight(c);
        }
    }
    let mut movable: Vec<VertexId> = nl.cells().filter(|&c| !pinned[c as usize]).collect();
    movable.shuffle(rng);
    for &c in &movable {
        let target = usize::from(weights[1] < weights[0]);
        side[c as usize] = target == 1;
        weights[target] += nl.cell_weight(c);
    }
    // lint: allow(no-panic) — side was sized to the cell count just above
    NetlistBisection::from_sides(nl, side).expect("length matches")
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
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // Everything on side A; cells 0 and 1 are pinned there.
        let mut p = NetlistBisection::from_sides(&nl, vec![false; 6]).unwrap();
        let fixed = vec![true, true, false, false, false, false];
        rebalance_fixed(&nl, &mut p, &fixed);
        assert!(p.is_balanced(&nl));
        assert_eq!(p.side(0), Side::A);
        assert_eq!(p.side(1), Side::A);
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

    /// The scan-based selection `rebalance_with_cache` used before its
    /// lazy heap: an `O(cells)` argmax per move. Kept as the reference
    /// the heap must match move for move.
    fn rebalance_with_cache_scan(
        nl: &Netlist,
        p: &mut NetlistBisection,
        fixed: &[bool],
        cache: &mut NetlistGainCache,
        moves: &mut Vec<VertexId>,
    ) {
        let is_fixed = |c: VertexId| fixed.get(c as usize).copied().unwrap_or(false);
        while !p.is_balanced(nl) {
            let heavy = if p.weight(Side::A) > p.weight(Side::B) {
                Side::A
            } else {
                Side::B
            };
            let imbalance = p.weight_imbalance();
            let candidate = nl
                .cells()
                .filter(|&c| p.side(c) == heavy && !is_fixed(c) && nl.cell_weight(c) < imbalance)
                .max_by_key(|&c| (cache.gain(c), Reverse(c)));
            match candidate {
                Some(c) => {
                    cache.record_move(nl, p, c);
                    p.move_cell(nl, c);
                    moves.push(c);
                }
                None => return,
            }
        }
    }

    /// `nl` with cell weights drawn from `1..=max_weight` and net
    /// weights from `1..=3`.
    fn reweighted(nl: &Netlist, max_weight: u64, rng: &mut StdRng) -> Netlist {
        let mut b = NetlistBuilder::new(nl.num_cells());
        for c in nl.cells() {
            b.set_cell_weight(c, rng.gen_range(1..=max_weight)).unwrap();
        }
        for n in nl.net_ids() {
            b.add_weighted_net(nl.pins(n), rng.gen_range(1..=3u64))
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn rebalance_with_cache_moves_exactly_like_the_scan() {
        use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
        use rand::seq::SliceRandom;

        let mut rng = StdRng::seed_from_u64(2024);
        // One cache for every heap run: its heap arena is reused across
        // netlists of different sizes.
        let mut heap_cache = NetlistGainCache::default();
        let (mut moved, mut flips) = (0usize, 0usize);
        for trial in 0..48 {
            let cells = rng.gen_range(20..400usize);
            let base = if trial % 2 == 0 {
                let locality = [0.02, 0.1, 1.0][trial % 3];
                let params =
                    RentNetlistParams::new(cells, cells * 14 / 10, 8, 1.8, locality).unwrap();
                sample_streamed(&mut rng, &params)
            } else {
                let mut b = NetlistBuilder::new(cells);
                let mut pins: Vec<u32> = (0..cells as u32).collect();
                for _ in 0..cells * 3 / 2 {
                    pins.shuffle(&mut rng);
                    b.add_net(&pins[..rng.gen_range(2..=6usize)]).unwrap();
                }
                b.build()
            };
            let nl = match trial % 4 {
                0 | 1 => base,
                _ => reweighted(&base, [2, 9][trial % 8 / 4], &mut rng),
            };
            // A lopsided start with ~10% of the cells fixed.
            let lean = rng.gen_range(0.6..1.0);
            let sides: Vec<bool> = (0..cells).map(|_| rng.gen_bool(lean)).collect();
            let fixed: Vec<bool> = (0..cells).map(|_| rng.gen_bool(0.1)).collect();
            let start = NetlistBisection::from_sides(&nl, sides).unwrap();

            let mut scan = start.clone();
            let mut scan_cache = NetlistGainCache::default();
            scan_cache.init(&nl, &scan);
            let mut scan_moves = Vec::new();
            rebalance_with_cache_scan(&nl, &mut scan, &fixed, &mut scan_cache, &mut scan_moves);

            let mut heap = start.clone();
            heap_cache.init(&nl, &heap);
            let mut heap_moves = Vec::new();
            rebalance_with_cache_observed(&nl, &mut heap, &fixed, &mut heap_cache, |c| {
                heap_moves.push(c)
            });

            assert_eq!(heap_moves, scan_moves, "trial {trial}");
            assert_eq!(heap, scan, "trial {trial}");
            for c in nl.cells() {
                assert_eq!(heap_cache.gain(c), heap.gain(&nl, c), "trial {trial}");
            }
            moved += heap_moves.len();
            let signed = |p: &NetlistBisection| p.weight(Side::A).cmp(&p.weight(Side::B));
            if signed(&start) != signed(&heap) && signed(&heap).is_ne() {
                flips += 1;
            }
        }
        assert!(moved > 1000, "the corpus must exercise long move sequences");
        assert!(flips > 0, "some weighted run must flip the heavy side");
    }

    #[test]
    fn rebalance_with_cache_follows_a_weighted_flip() {
        // All 6 units of weight on side A, tolerance 4 (the largest
        // weight). Cell 0 has no nets, so its gain 0 beats cells 1 and
        // 2 (gain -1 each): moving it overshoots to 2 | 4.
        let mut b = NetlistBuilder::new(3);
        b.set_cell_weight(0, 4).unwrap();
        b.add_net(&[1, 2]).unwrap();
        let nl = b.build();
        let start = NetlistBisection::from_sides(&nl, vec![false; 3]).unwrap();
        let mut scan = start.clone();
        let mut cache = NetlistGainCache::default();
        cache.init(&nl, &scan);
        let mut scan_moves = Vec::new();
        rebalance_with_cache_scan(&nl, &mut scan, &[], &mut cache, &mut scan_moves);
        let mut heap = start;
        cache.init(&nl, &heap);
        let mut heap_moves = Vec::new();
        rebalance_with_cache_observed(&nl, &mut heap, &[], &mut cache, |c| heap_moves.push(c));
        assert_eq!(scan_moves, vec![0]);
        assert_eq!(heap_moves, scan_moves);
        assert_eq!(heap, scan);
        assert_eq!([heap.weight(Side::A), heap.weight(Side::B)], [2, 4]);
    }

    #[test]
    fn weight_balanced_random_fixed_pins_sides() {
        let nl = two_clusters();
        let fixed = [(0, Side::B), (3, Side::A)];
        for seed in 0..8 {
            let p = weight_balanced_random_fixed(&nl, &fixed, &mut StdRng::seed_from_u64(seed));
            assert_eq!(p.side(0), Side::B, "seed {seed}");
            assert_eq!(p.side(3), Side::A, "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&nl));
        }
    }

    #[test]
    fn weight_balanced_random_empty_fixed_is_plain() {
        let nl = two_clusters();
        let a = weight_balanced_random(&nl, &mut StdRng::seed_from_u64(11));
        let b = weight_balanced_random_fixed(&nl, &[], &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }
}
