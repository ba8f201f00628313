//! Fiduccia-Mattheyses refinement on netlists — the 1982 algorithm in
//! its native habitat, now boundary-seeded and workspace-resident like
//! the graph-side [`crate::fm::BoundaryFm`].
//!
//! Each pass seeds the shared [`crate::gain::GainBuckets`] from the
//! incrementally tracked cell boundary ([`NetlistGainCache`]) instead
//! of all cells: an interior cell has only uncut nets, hence gain
//! `≤ 0`, and can only become worth moving after a net-mate moves — at
//! which point the update loop inserts it lazily. A pass costs
//! `O(boundary + touched pins)` instead of `O(cells + pins)`.

use bisect_graph::hypergraph::Netlist;
use rand::RngCore;

use crate::partition::Side;
use crate::workspace::Workspace;

use super::{balance_tolerance, gain_term, NetlistBisection, NetlistRefiner};

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
    full_scan: bool,
}

impl Default for NetlistFm {
    fn default() -> NetlistFm {
        NetlistFm::new()
    }
}

impl NetlistFm {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> NetlistFm {
        NetlistFm {
            max_passes: 64,
            full_scan: false,
        }
    }

    /// Seeds every pass's gain buckets from *all* cells instead of the
    /// tracked cut boundary — the reference `O(cells + pins)` seeding
    /// the boundary-localized default replaces. A full-scan pass can
    /// also chain zero- and negative-gain moves from interior cells, so
    /// results may differ from (not just match more slowly than) the
    /// boundary-seeded passes; the `netlist_fm_boundary` bench compares
    /// the two on near-converged re-refinement.
    pub fn with_full_scan(mut self) -> NetlistFm {
        self.full_scan = true;
        self
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
    /// `fixed` never move.
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
        let (base_tol, pass_tol) = prepare(nl, p, ws);
        let mut productive = 0u64;
        for _ in 0..self.max_passes {
            if self.pass_with_cache(nl, fixed, p, ws, base_tol, pass_tol) == 0 {
                break;
            }
            productive += 1;
        }
        productive
    }

    /// One boundary-seeded pass. On entry and exit: `ws.netlist_cache`
    /// is exact for `(nl, p)`, `ws.netlist_work` mirrors `p`,
    /// `ws.fm_buckets` are empty, `ws.locked` is all-false,
    /// `ws.fm_touched` is empty.
    // lint: allow(no-panic) — pass-loop expects: prepare() populated
    // netlist_work before any pass, `choice` is Some only when that bucket
    // had a peek, and the same Option is re-unwrapped at rollback.
    fn pass_with_cache(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        p: &mut NetlistBisection,
        ws: &mut Workspace,
        base_tol: u64,
        pass_tol: u64,
    ) -> u64 {
        let is_fixed = |c: u32| fixed.get(c as usize).copied().unwrap_or(false);
        let cache = &ws.netlist_cache;
        let buckets = &mut ws.fm_buckets;
        let touched = &mut ws.fm_touched;
        // Seed only the boundary: every cell with a cut net. Interior
        // cells have gain ≤ 0 and can only become candidates after a
        // net-mate moves; the update loop below inserts them then. The
        // full-scan reference seeds everything up front instead.
        if self.full_scan {
            for c in nl.cells() {
                if is_fixed(c) {
                    continue;
                }
                buckets[p.side(c).index()].insert(c, cache.gain(c));
                touched.push(c);
            }
        } else {
            for &c in cache.boundary() {
                if is_fixed(c) {
                    continue;
                }
                buckets[p.side(c).index()].insert(c, cache.gain(c));
                touched.push(c);
            }
        }
        let work = ws.netlist_work.as_mut().expect("netlist_work prepared");
        let locked = &mut ws.locked;
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
                let w = nl.cell_weight(c) as i64;
                let imb = work.weight(Side::A) as i64 - work.weight(Side::B) as i64;
                let new_imb = if side == Side::A {
                    imb - 2 * w
                } else {
                    imb + 2 * w
                };
                if new_imb.unsigned_abs() > pass_tol {
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

            // Gain updates before the virtual move: per incident net
            // the per-pin deltas depend only on the pin counts, so
            // compute them once per side and walk the pins only when
            // some delta is nonzero.
            let s = side.index();
            for &net in nl.nets_of(c) {
                let counts = work.pins_on(net);
                let (my, other) = (counts[s], counts[1 - s]);
                let w = nl.net_weight(net) as i64;
                let ds = gain_term(my - 1, other + 1, w) - gain_term(my, other, w);
                let dt = gain_term(other + 1, my - 1, w) - gain_term(other, my, w);
                if ds == 0 && dt == 0 {
                    continue;
                }
                for &q in nl.pins(net) {
                    if q == c || locked[q as usize] || is_fixed(q) {
                        continue;
                    }
                    let delta = if work.side(q) == side { ds } else { dt };
                    if delta == 0 {
                        continue;
                    }
                    let b = &mut buckets[work.side(q).index()];
                    if b.contains(q) {
                        let cur = b.gain_of(q);
                        b.update(q, cur + delta);
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
            work.move_cell(nl, c);
            running += gain;
            moves.push(c);
            cumulative.push(running);
            balanced_after.push(work.weight_imbalance() <= base_tol);
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
        let cache = &mut ws.netlist_cache;
        for &c in &moves[..committed] {
            // record_move wants the pre-move bisection.
            cache.record_move(nl, p, c);
            p.move_cell(nl, c);
        }
        // Rewind the uncommitted virtual tail so netlist_work mirrors
        // `p` again. Each cell moved at most once per pass, so moving
        // it back restores its side regardless of order.
        let work = ws.netlist_work.as_mut().expect("netlist_work prepared");
        for &c in &moves[committed..] {
            work.move_cell(nl, c);
        }
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
fn prepare(nl: &Netlist, p: &NetlistBisection, ws: &mut Workspace) -> (u64, u64) {
    let n = nl.num_cells();
    let max_weight = nl.cells().map(|c| nl.cell_weight(c)).max().unwrap_or(1);
    let base_tol = balance_tolerance(nl);
    // During the pass a single move may overshoot balance by one cell:
    // moving weight w changes the side *difference* by 2w, so the
    // classic FM criterion allows a difference up to twice the largest
    // cell weight.
    let pass_tol = base_tol.max(2 * max_weight);
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
    (base_tol, pass_tol)
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
    fn full_scan_variant_refines_validly() {
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
            for fm in [NetlistFm::new(), NetlistFm::new().with_full_scan()] {
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
                // Repeat runs are bit-identical for both seedings.
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
