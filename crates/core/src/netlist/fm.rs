//! Fiduccia-Mattheyses refinement on netlists — the 1982 algorithm in
//! its native habitat, now boundary-seeded and workspace-resident like
//! the graph-side [`crate::fm::BoundaryFm`].
//!
//! Each pass seeds the shared [`crate::gain::GainBuckets`] from the
//! incrementally tracked cell boundary ([`NetlistGainCache`]) instead
//! of all cells: an interior cell has only uncut nets, hence gain
//! `≤ 0`, and can only become worth moving after a net-mate moves — at
//! which point the update loop inserts it lazily. A pass walks
//! `O(boundary + touched pins)` instead of `O(cells + pins)`; rewinding
//! its work mirror is one flat copy of the side and pin-count arrays.

use bisect_graph::hypergraph::Netlist;
use rand::RngCore;

use crate::balance::Tolerance;
use crate::partition::Side;
use crate::workspace::Workspace;

use super::{gain_term, NetlistBisection, NetlistRefiner};

/// Fiduccia-Mattheyses on netlists.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::{weight_balanced_random, NetlistFm, NetlistRefiner};
/// use bisect_core::workspace::Workspace;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(6);
/// for pins in [[0u32, 1, 2].as_slice(), &[3, 4, 5], &[2, 3]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let init = weight_balanced_random(&nl, &mut rng);
/// let mut ws = Workspace::new();
/// let (p, _passes) = NetlistFm::new().refine_counted(&nl, &[], init, &mut rng, &mut ws);
/// assert_eq!(p.cut(), 1); // only the 2-pin bridge net is cut
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistFm {
    max_passes: usize,
}

impl Default for NetlistFm {
    fn default() -> NetlistFm {
        NetlistFm::new()
    }
}

impl NetlistFm {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> NetlistFm {
        NetlistFm { max_passes: 64 }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> NetlistFm {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// Runs passes to a fixpoint assuming `ws.netlist_cache` is already
    /// exact for `(nl, p)`; leaves it exact for the refined `p`.
    /// Returns the number of productive passes. Cells flagged in
    /// `fixed` never move: they stay locked in `ws.locked` for the whole
    /// call, and are unlocked again on exit.
    fn refine_with_cache(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        p: &mut NetlistBisection,
        ws: &mut Workspace,
    ) -> u64 {
        if nl.num_cells() < 2 {
            return 0;
        }
        let tol = prepare(nl, p, ws);
        for (locked, &f) in ws.locked.iter_mut().zip(fixed) {
            *locked |= f;
        }
        let mut productive = 0u64;
        for _ in 0..self.max_passes {
            if self.pass_with_cache(nl, p, ws, tol) == 0 {
                break;
            }
            productive += 1;
        }
        for (locked, &f) in ws.locked.iter_mut().zip(fixed) {
            *locked &= !f;
        }
        productive
    }

    /// One boundary-seeded pass. On entry and exit: `ws.netlist_cache`
    /// is exact for `(nl, p)`, `ws.netlist_work` equals `p`,
    /// `ws.fm_buckets` are empty, `ws.locked` flags exactly the fixed
    /// cells, and `ws.fm_touched` is empty.
    ///
    /// Every tentative move costs one walk over the moved cell's nets:
    /// the walk that reads the mirror's pin counts for the gain deltas
    /// also shifts them and updates the mirror's cut. The committed
    /// prefix is then applied to `p` through the cache's one-walk mover,
    /// and the mirror is rewound by one copy of `p` rather than by
    /// undoing the uncommitted tail move by move.
    // lint: allow(no-panic) — pass-loop expects: prepare() populated
    // netlist_work before any pass, and `choice` is Some only when that
    // bucket had a peek.
    fn pass_with_cache(
        &self,
        nl: &Netlist,
        p: &mut NetlistBisection,
        ws: &mut Workspace,
        tol: Tolerance,
    ) -> u64 {
        let cache = &ws.netlist_cache;
        let buckets = &mut ws.fm_buckets;
        let touched = &mut ws.fm_touched;
        let locked = &mut ws.locked;
        // Seed only the boundary: every cell with a cut net. Interior
        // cells have gain ≤ 0 and can only become candidates after a
        // net-mate moves; the update loop below inserts them then. The
        // only cells locked here are the fixed ones.
        for &c in cache.boundary() {
            if locked[c as usize] {
                continue;
            }
            buckets[p.side(c).index()].insert(c, cache.gain(c));
            touched.push(c);
        }
        let work = ws.netlist_work.as_mut().expect("netlist_work prepared");
        ws.fm_moves.clear();
        let moves = &mut ws.fm_moves;
        ws.fm_cumulative.clear();
        let cumulative = &mut ws.fm_cumulative;
        ws.fm_balanced.clear();
        let balanced_after = &mut ws.fm_balanced;
        let mut running = 0i64;

        loop {
            // Identical candidate choice to the graph FM pass: best
            // gain within the pass tolerance, ties toward the heavier
            // side.
            let mut choice: Option<(i64, Side)> = None;
            for side in [Side::A, Side::B] {
                let Some((gain, c)) = buckets[side.index()].peek_best() else {
                    continue;
                };
                if !tol.fits(nl, work, c) {
                    continue;
                }
                let heavier = work.weight(side) >= work.weight(side.other());
                match choice {
                    Some((bg, bside)) => {
                        let better = gain > bg
                            || (gain == bg && heavier && work.weight(bside) < work.weight(side));
                        if better {
                            choice = Some((gain, side));
                        }
                    }
                    None => choice = Some((gain, side)),
                }
            }
            let Some((gain, side)) = choice else { break };
            let (_, c) = buckets[side.index()].pop_best().expect("peeked nonempty");
            locked[c as usize] = true;

            // The virtual move, one net at a time: shift the net's pin
            // counts in the mirror, and from the pre-move counts derive
            // the per-pin deltas once per side, walking the pins only
            // when some delta is nonzero. `c` is locked, as are fixed
            // and already moved cells, so the walk skips all of them.
            let s = side.index();
            for &net in nl.nets_of(c) {
                let (my, other) = work.shift_pin(nl, net, s);
                let w = nl.net_weight(net) as i64;
                let ds = gain_term(my - 1, other + 1, w) - gain_term(my, other, w);
                let dt = gain_term(other + 1, my - 1, w) - gain_term(other, my, w);
                if ds == 0 && dt == 0 {
                    continue;
                }
                for &q in nl.pins(net) {
                    if locked[q as usize] {
                        continue;
                    }
                    let q_side = work.side(q);
                    let delta = if q_side == side { ds } else { dt };
                    if delta == 0 {
                        continue;
                    }
                    let b = &mut buckets[q_side.index()];
                    if b.contains(q) {
                        b.add(q, delta);
                    } else {
                        // q had no moved net-mate yet (only pops remove
                        // bucket entries, and pops lock), so its
                        // virtual gain still equals the cached real
                        // gain.
                        b.insert(q, cache.gain(q) + delta);
                        touched.push(q);
                    }
                }
            }
            work.flip(nl, c);
            running += gain;
            moves.push(c);
            cumulative.push(running);
            balanced_after.push(work.weight_imbalance() <= tol.base);
        }

        // Best prefix that ends balanced with positive improvement.
        let mut best: Option<(usize, i64)> = None;
        for (i, (&cum, &ok)) in cumulative.iter().zip(balanced_after.iter()).enumerate() {
            if ok && cum > 0 && best.is_none_or(|(_, bc)| cum > bc) {
                best = Some((i, cum));
            }
        }
        let committed = match best {
            Some((k, _)) => k + 1,
            None => 0,
        };
        let before = p.cut();
        // The mirror made every move of the pass, each at its bucket
        // gain: a wrong fused update shows here.
        debug_assert_eq!(work.cut() as i64, before as i64 - running);
        let cache = &mut ws.netlist_cache;
        for &c in &moves[..committed] {
            cache.move_cell(nl, p, c);
        }
        // Rewind the mirror to `p` in one O(cells + nets) copy into its
        // own capacity; most of a pass's moves are uncommitted.
        work.copy_from(p);
        // O(touched) cleanup instead of O(cells) resets.
        for &c in ws.fm_touched.iter() {
            for b in ws.fm_buckets.iter_mut() {
                if b.contains(c) {
                    b.remove(c);
                }
            }
            ws.locked[c as usize] = false;
        }
        ws.fm_touched.clear();
        debug_assert_eq!(p.cut(), p.recompute_cut(nl));
        debug_assert!(before >= p.cut());
        before - p.cut()
    }
}

/// Per-refine O(cells) setup: tolerances, bucket reset, work mirror,
/// locked/touched clearing. Requires `ws.netlist_cache` exact for
/// `(nl, p)`.
fn prepare(nl: &Netlist, p: &NetlistBisection, ws: &mut Workspace) -> Tolerance {
    let n = nl.num_cells();
    // A cell's gain is bounded by its weighted net degree: each
    // incident net contributes a value in [−w(net), w(net)].
    let max_gain = nl
        .cells()
        .map(|c| {
            nl.nets_of(c)
                .iter()
                .map(|&net| nl.net_weight(net))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
        .min(i64::MAX as u64) as i64;
    for b in ws.fm_buckets.iter_mut() {
        b.reset(n, max_gain);
    }
    if let Some(w) = ws.netlist_work.as_mut() {
        w.copy_from(p);
    } else {
        ws.netlist_work = Some(p.clone());
    }
    ws.locked.clear();
    ws.locked.resize(n, false);
    ws.fm_touched.clear();
    Tolerance::of(nl)
}

impl NetlistRefiner for NetlistFm {
    fn name(&self) -> String {
        "NetFM".into()
    }

    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        mut init: NetlistBisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        let passes = self.refine_with_cache(nl, fixed, &mut init, ws);
        (init, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{brute_force_cut, two_clusters};
    use super::super::NetlistPipeline;
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fm_finds_the_bridge_cut() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(3);
        let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn fm_matches_brute_force_on_small_netlists() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            // Random netlist on 10 cells with 8 nets of 2-4 pins.
            let mut b = NetlistBuilder::new(10);
            for _ in 0..8 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (0..10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
            let nl = b.build();
            let optimal = brute_force_cut(&nl);
            let mut best = u64::MAX;
            for seed in 0..8 {
                let p = NetlistPipeline::flat_fm().bisect(&nl, &mut StdRng::seed_from_u64(seed));
                assert!(p.cut() >= optimal, "trial {trial}: below optimum");
                best = best.min(p.cut());
            }
            assert!(
                best <= optimal + 1,
                "trial {trial}: FM best {best} far from optimum {optimal}"
            );
        }
    }

    #[test]
    fn refines_validly_and_repeats_bit_identically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = NetlistBuilder::new(24);
        for _ in 0..40 {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..24).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        let nl = b.build();
        for seed in 0..6 {
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let fm = NetlistFm::new();
            let mut ws = Workspace::new();
            let (p, _) = fm.refine_counted(
                &nl,
                &[],
                init.clone(),
                &mut StdRng::seed_from_u64(0),
                &mut ws,
            );
            assert!(p.cut() <= init.cut());
            assert!(p.is_balanced(&nl));
            assert_eq!(p.cut(), p.recompute_cut(&nl));
            // Repeat runs are bit-identical.
            let mut ws2 = Workspace::new();
            let (q, _) = fm.refine_counted(
                &nl,
                &[],
                init.clone(),
                &mut StdRng::seed_from_u64(0),
                &mut ws2,
            );
            assert_eq!(p.sides(), q.sides());
        }
    }

    #[test]
    fn pass_never_increases_cut() {
        let nl = two_clusters();
        let fm = NetlistFm::new().with_max_passes(1);
        let mut ws = Workspace::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let before = init.cut();
            let (p, passes) = fm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            assert!(p.cut() <= before);
            assert_eq!(passes, u64::from(p.cut() < before));
            assert!(p.is_balanced(&nl));
        }
    }

    #[test]
    fn refine_leaves_cache_exact() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let (refined, _) = fm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            for c in nl.cells() {
                assert_eq!(
                    ws.netlist_cache.gain(c),
                    refined.gain(&nl, c),
                    "seed {seed}, cell {c}"
                );
            }
        }
    }

    #[test]
    fn refine_respects_fixed_cells() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        // Adversarial start: the fixed cells open on the "wrong" sides.
        let init =
            NetlistBisection::from_sides(&nl, vec![false, true, false, true, false, true]).unwrap();
        let fixed = vec![true, false, false, false, false, true];
        let mut rng = StdRng::seed_from_u64(1);
        let (refined, _) = fm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
        assert_eq!(refined.side(0), init.side(0));
        assert_eq!(refined.side(5), init.side(5));
        assert!(refined.cut() <= init.cut());
    }

    #[test]
    fn refine_with_fixed_cells_leaves_the_workspace_clean() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = NetlistBuilder::new(40);
        for _ in 0..60 {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..40).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        let nl = b.build();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            // Every fifth cell fixed; a short slice leaves the tail movable.
            let fixed: Vec<bool> = (0..36).map(|c| c % 5 == seed as usize % 5).collect();
            let (p, passes) = fm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
            assert!(passes > 0, "seed {seed}: the refine must move something");
            assert!(ws.locked.iter().all(|&l| !l), "seed {seed}");
            assert_eq!(ws.netlist_work.as_ref(), Some(&p), "seed {seed}");
            for (c, _) in fixed.iter().enumerate().filter(|(_, &f)| f) {
                assert_eq!(p.side(c as u32), init.side(c as u32), "seed {seed}");
            }
        }
    }

    #[test]
    fn tiny_netlists() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..3usize {
            let nl = NetlistBuilder::new(n).build();
            let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn weighted_nets_and_cells() {
        let mut b = NetlistBuilder::new(4);
        b.add_weighted_net(&[0, 1], 10).unwrap();
        b.add_weighted_net(&[1, 2], 1).unwrap();
        b.add_weighted_net(&[2, 3], 10).unwrap();
        let nl = b.build();
        let mut rng = StdRng::seed_from_u64(2);
        let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
        // Optimal: cut the middle weight-1 net.
        assert_eq!(p.cut(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = NetlistFm::new().with_max_passes(0);
    }
}
