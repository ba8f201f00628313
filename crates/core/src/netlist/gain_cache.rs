//! Workspace-resident incremental gain state for netlist FM — the
//! hypergraph analogue of [`crate::gain_cache::GainCache`].
//!
//! For every cell the cache holds its FM gain (weighted nets uncut
//! minus nets newly cut if the cell moved) and its *cut degree* (the
//! number of incident cut nets), plus the *boundary* — the cells with
//! at least one cut net — as a dense list with an O(1) position index.
//! [`NetlistGainCache::move_cell`] moves a cell of the bisection and
//! maintains all three in the same walk, in `O(Σ pins of affected nets)`
//! per move, walking a net's pins only when the move actually changes
//! that net's contribution to them.
//! [`NetlistGainCache::project`] carries the state coarse→fine across
//! an uncoarsening step without an O(cells + pins) rebuild for interior
//! cells, mirroring the graph-side projection contract.

use bisect_graph::hypergraph::Netlist;
use bisect_graph::VertexId;

use super::{gain_term, NetlistBisection};
use crate::balance::RebalanceHeap;
use crate::gain_cache::BoundarySet;

/// Per-cell gains, cut degrees, and the cell boundary of a netlist
/// bisection, maintained incrementally. Lives in the
/// [`crate::workspace::Workspace`]; exact for a given `(nl, p)` after
/// [`NetlistGainCache::init`] and kept exact by making every move of
/// `p` through [`NetlistGainCache::move_cell`].
#[derive(Debug, Clone, Default)]
pub struct NetlistGainCache {
    /// FM gain of moving each cell to the other side.
    gains: Vec<i64>,
    /// Number of cut nets incident to each cell.
    cut_nets: Vec<u32>,
    /// Cells with at least one cut net.
    boundary: BoundarySet,
    /// Scratch for [`super::rebalance_with_cache`].
    pub(crate) rebalance_heap: RebalanceHeap,
}

impl NetlistGainCache {
    /// (Re)computes the cache for `(nl, p)` in `O(cells + pins)`.
    pub fn init(&mut self, nl: &Netlist, p: &NetlistBisection) {
        self.fill(nl, p, |_| true);
    }

    /// The cached gain of cell `c`.
    pub fn gain(&self, c: VertexId) -> i64 {
        self.gains[c as usize]
    }

    /// The number of cut nets incident to cell `c`.
    pub fn cut_degree(&self, c: VertexId) -> u32 {
        self.cut_nets[c as usize]
    }

    /// Whether cell `c` has a cut net.
    pub fn is_boundary(&self, c: VertexId) -> bool {
        self.boundary.contains(c)
    }

    /// The cells with at least one cut net, in insertion order. The
    /// order is deterministic (it depends only on the move history),
    /// but otherwise unspecified.
    pub fn boundary(&self) -> &[VertexId] {
        self.boundary.as_slice()
    }

    /// The position of cell `c` in [`NetlistGainCache::boundary`], or
    /// `None` if `c` is interior — an O(1) membership-and-index lookup
    /// for consumers that partition the boundary list (the
    /// boundary-seeded parallel refiner chunks it by position).
    #[inline]
    pub fn boundary_index(&self, c: VertexId) -> Option<usize> {
        self.boundary.index(c)
    }

    /// Moves cell `c` of `p` to the other side and keeps the cache
    /// exact for the moved `p`, in one walk over `c`'s nets: each net's
    /// pin counts and cut change in `p` in the same step that yields the
    /// net's gain deltas. The moved `p` equals what
    /// [`NetlistBisection::move_cell`] leaves.
    ///
    /// Per incident net the per-pin gain deltas depend only on the
    /// net's pin counts, so they are computed once per side and the
    /// net's pins are walked only when some delta (or the net's cut
    /// state) actually changes.
    pub fn move_cell(&mut self, nl: &Netlist, p: &mut NetlistBisection, c: VertexId) {
        let ci = c as usize;
        let s = p.side(c).index();
        let mut new_gain = 0i64;
        let mut new_cut = 0u32;
        for &net in nl.nets_of(c) {
            let (my, other) = p.shift_pin(nl, net, s);
            let w = nl.net_weight(net) as i64;
            // c's own contribution after the move: it sits on the far
            // side of a net with counts (other + 1, my - 1).
            new_gain += gain_term(other + 1, my - 1, w);
            // `my >= 1` always: c is a pin of this net.
            let was_cut = other > 0;
            let now_cut = my > 1;
            if now_cut {
                new_cut += 1;
            }
            // Delta for the remaining pins on c's side / the far side.
            let ds = gain_term(my - 1, other + 1, w) - gain_term(my, other, w);
            let dt = gain_term(other + 1, my - 1, w) - gain_term(other, my, w);
            if ds == 0 && dt == 0 && was_cut == now_cut {
                continue;
            }
            for &q in nl.pins(net) {
                if q == c {
                    continue;
                }
                let qi = q as usize;
                self.gains[qi] += if p.side(q).index() == s { ds } else { dt };
                match (was_cut, now_cut) {
                    (false, true) => {
                        if self.cut_nets[qi] == 0 {
                            self.boundary.set(q, true);
                        }
                        self.cut_nets[qi] += 1;
                    }
                    (true, false) => {
                        self.cut_nets[qi] -= 1;
                        if self.cut_nets[qi] == 0 {
                            self.boundary.set(q, false);
                        }
                    }
                    _ => {}
                }
            }
        }
        p.flip(nl, c);
        self.gains[ci] = new_gain;
        self.cut_nets[ci] = new_cut;
        self.boundary.set(c, new_cut > 0);
    }

    /// Projects the cache through one uncoarsening step: on entry it is
    /// exact for the *coarse* bisection whose sides `p` inherits
    /// (`p` must be the projected sides, before any fine-level moves);
    /// on exit it is exact for `(nl, p)` at the fine level.
    ///
    /// A cut fine net keeps pins on both sides after mapping through
    /// `fine_to_coarse`, so its (merged) coarse net is cut and every
    /// pin's image is coarse-boundary. Fine cells whose image was
    /// *interior* therefore have only uncut nets: cut degree 0 and the
    /// closed-form gain `−Σ w(net)` over incident nets with ≥ 2 pins —
    /// no pin-count walk needed. Only the boundary image is recomputed
    /// exactly.
    pub fn project(&mut self, nl: &Netlist, p: &NetlistBisection, fine_to_coarse: &[VertexId]) {
        debug_assert_eq!(nl.num_cells(), fine_to_coarse.len());
        let coarse = self.boundary.take_coarse();
        self.fill(nl, p, |c| coarse.contains(fine_to_coarse[c]));
        self.boundary.recycle(coarse);
        #[cfg(debug_assertions)]
        for c in nl.cells() {
            debug_assert_eq!(
                self.gains[c as usize],
                p.gain(nl, c),
                "projected gain mismatch at cell {c}"
            );
        }
    }

    /// Rebuilds every array for `(nl, p)`. Cells `c` with `rescan(c)`
    /// walk their nets' pin counts; the rest are interior, with cut
    /// degree 0 and the closed-form gain `−Σ w(net)` over incident nets
    /// with ≥ 2 pins.
    fn fill(&mut self, nl: &Netlist, p: &NetlistBisection, rescan: impl Fn(usize) -> bool) {
        self.gains.clear();
        self.cut_nets.clear();
        self.boundary.reset(nl.num_cells());
        for c in nl.cells() {
            let mut gain = 0i64;
            let mut cut = 0u32;
            if rescan(c as usize) {
                let s = p.side(c).index();
                for &net in nl.nets_of(c) {
                    let counts = p.pins_on(net);
                    gain += gain_term(counts[s], counts[1 - s], nl.net_weight(net) as i64);
                    if counts[0] > 0 && counts[1] > 0 {
                        cut += 1;
                    }
                }
            } else {
                for &net in nl.nets_of(c) {
                    if nl.pins(net).len() >= 2 {
                        gain -= nl.net_weight(net) as i64;
                    }
                }
            }
            self.gains.push(gain);
            self.cut_nets.push(cut);
            if cut > 0 {
                self.boundary.set(c, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::two_clusters;
    use super::*;
    use bisect_graph::hypergraph::{contract_cells, random_cell_matching, NetlistBuilder};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn assert_consistent(cache: &NetlistGainCache, nl: &Netlist, p: &NetlistBisection) {
        let mut expected_boundary = Vec::new();
        for c in nl.cells() {
            assert_eq!(cache.gain(c), p.gain(nl, c), "gain of {c}");
            let cut = nl
                .nets_of(c)
                .iter()
                .filter(|&&n| {
                    let k = p.pins_on(n);
                    k[0] > 0 && k[1] > 0
                })
                .count() as u32;
            assert_eq!(cache.cut_degree(c), cut, "cut degree of {c}");
            assert_eq!(cache.is_boundary(c), cut > 0, "boundary flag of {c}");
            if cut > 0 {
                expected_boundary.push(c);
            }
        }
        let mut listed: Vec<VertexId> = cache.boundary().to_vec();
        listed.sort_unstable();
        assert_eq!(listed, expected_boundary, "boundary list");
    }

    fn random_netlist(cells: usize, nets: usize, rng: &mut StdRng) -> Netlist {
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize.min(cells));
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(rng);
            let w = rng.gen_range(1..=3u64);
            b.add_weighted_net(&pins[..size], w).unwrap();
        }
        b.build()
    }

    #[test]
    fn init_matches_brute_force() {
        let nl = two_clusters();
        let mut cache = NetlistGainCache::default();
        for seed in 0..8 {
            let p = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            cache.init(&nl, &p);
            assert_consistent(&cache, &nl, &p);
        }
    }

    #[test]
    fn move_cell_stays_consistent_over_random_sequences() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..10 {
            let nl = random_netlist(12, 10, &mut rng);
            let mut p = NetlistBisection::random_balanced(&nl, &mut rng);
            let mut cache = NetlistGainCache::default();
            cache.init(&nl, &p);
            for step in 0..24 {
                let c = rng.gen_range(0..nl.num_cells()) as VertexId;
                cache.move_cell(&nl, &mut p, c);
                assert_consistent(&cache, &nl, &p);
                let _ = (trial, step);
            }
        }
    }

    #[test]
    fn move_cell_moves_the_bisection_like_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(22);
        for trial in 0..10 {
            let base = random_netlist(16, 14, &mut rng);
            let mut b = NetlistBuilder::new(base.num_cells());
            for c in base.cells() {
                b.set_cell_weight(c, rng.gen_range(1..=4u64)).unwrap();
            }
            for n in base.net_ids() {
                b.add_weighted_net(base.pins(n), base.net_weight(n))
                    .unwrap();
            }
            let nl = b.build();
            let mut p = NetlistBisection::random_balanced(&nl, &mut rng);
            let mut plain = p.clone();
            let mut cache = NetlistGainCache::default();
            cache.init(&nl, &p);
            for _ in 0..32 {
                let c = rng.gen_range(0..nl.num_cells()) as VertexId;
                cache.move_cell(&nl, &mut p, c);
                plain.move_cell(&nl, c);
            }
            // Pin counts, cut, counts and weights all match a bisection
            // built from scratch on the same sides.
            let fresh = NetlistBisection::from_sides(&nl, p.sides().to_vec()).unwrap();
            assert_eq!(p, fresh, "trial {trial}");
            assert_eq!(p, plain, "trial {trial}");
            assert_consistent(&cache, &nl, &p);
        }
    }

    #[test]
    fn move_cell_handles_degenerate_nets() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[]).unwrap();
        b.add_net(&[2]).unwrap();
        b.add_net(&[0, 1, 2, 3]).unwrap();
        let nl = b.build();
        let mut p = NetlistBisection::from_sides(&nl, vec![false, false, true, true]).unwrap();
        let mut cache = NetlistGainCache::default();
        cache.init(&nl, &p);
        for c in [2u32, 0, 2, 3, 1] {
            cache.move_cell(&nl, &mut p, c);
            assert_consistent(&cache, &nl, &p);
        }
    }

    #[test]
    fn project_matches_fresh_init() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..6 {
            let fine = random_netlist(20, 18, &mut rng);
            let pairs = random_cell_matching(&fine, &mut rng);
            if pairs.is_empty() {
                continue;
            }
            let contraction = contract_cells(&fine, &pairs);
            let coarse = contraction.coarse();
            let mut cp = NetlistBisection::random_balanced(coarse, &mut rng);
            let mut cache = NetlistGainCache::default();
            cache.init(coarse, &cp);
            // Drift the coarse bisection so the tracked boundary is not
            // just the initial one.
            for _ in 0..6 {
                let c = rng.gen_range(0..coarse.num_cells()) as VertexId;
                cache.move_cell(coarse, &mut cp, c);
            }
            let fp =
                NetlistBisection::from_sides(&fine, contraction.project_sides(cp.sides())).unwrap();
            cache.project(&fine, &fp, contraction.fine_to_coarse());
            assert_consistent(&cache, &fine, &fp);
            // And the projected cache keeps tracking.
            let mut fp = fp;
            for _ in 0..6 {
                let c = rng.gen_range(0..fine.num_cells()) as VertexId;
                cache.move_cell(&fine, &mut fp, c);
                assert_consistent(&cache, &fine, &fp);
            }
        }
    }
}
