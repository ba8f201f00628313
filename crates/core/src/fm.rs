//! The Fiduccia-Mattheyses (FM) refinement heuristic (DAC 1982) — the
//! linear-time successor of Kernighan-Lin, included as an extension and
//! ablation baseline (`ablate-*` benches): it moves *single* vertices
//! under a balance constraint instead of swapping pairs, and keeps
//! vertices in constant-time *gain buckets* instead of re-scanning
//! pairs.
//!
//! One pass: every candidate starts unlocked with its current gain. At
//! each step the best-gain unlocked vertex whose move keeps the
//! imbalance within tolerance is (virtually) moved and locked, the
//! running cut change is recorded, and its neighbors' gains are
//! updated. After all moves, the best balanced prefix is applied if it
//! improves the cut. Passes repeat to a fixpoint.
//!
//! [`FiducciaMattheyses`] and [`BoundaryFm`] run that one pass and
//! differ only in which vertices seed the gain buckets. FM seeds every
//! vertex in index order. BFM seeds only the current *boundary*
//! (vertices with a cut edge, tracked incrementally by
//! [`crate::gain_cache::GainCache`]) and pulls interior vertices in
//! lazily as moves reach them, so a pass costs `O(boundary + touched)`
//! instead of `O(V)` — the multilevel win once coarsening has shrunk
//! the cut region to a sliver of the graph. Both keep the workspace
//! gain cache exact pass to pass, and both override
//! [`crate::bisector::Refiner::refine_projected_counted`] to consume the
//! projected cache as it stands, so uncoarsening ladders never rebuild
//! their gain state per level.

use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::bisector::{Bisector, Refiner};
use crate::partition::{self, Bisection, Side};
use crate::seed;
use crate::workspace::Workspace;

/// The FM bisection algorithm.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, fm::FiducciaMattheyses};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiducciaMattheyses {
    max_passes: usize,
}

impl Default for FiducciaMattheyses {
    fn default() -> FiducciaMattheyses {
        FiducciaMattheyses::new()
    }
}

impl FiducciaMattheyses {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> FiducciaMattheyses {
        FiducciaMattheyses { max_passes: 64 }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> FiducciaMattheyses {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// Runs one FM pass in place; returns the cut improvement (0 at a
    /// fixpoint). The bisection must be balanced on entry and stays
    /// balanced.
    ///
    /// The gain cache, the gain buckets, the working bisection, and
    /// every per-move array come from `ws` — no heap allocations once
    /// the workspace is warm.
    pub fn pass_in(&self, g: &Graph, p: &mut Bisection, ws: &mut Workspace) -> u64 {
        if g.num_vertices() < 2 {
            return 0;
        }
        ws.gain_cache.init(g, p);
        let tol = prepare(g, p, ws);
        fm_pass(g, p, ws, tol, Seeds::All)
    }
}

impl Bisector for FiducciaMattheyses {
    fn name(&self) -> String {
        "FM".into()
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = seed::random_balanced(g, rng);
        self.refine_counted(g, init, rng, ws)
    }
}

impl Refiner for FiducciaMattheyses {
    fn refine_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        if g.num_vertices() >= 2 {
            ws.gain_cache.init(g, &init);
        }
        self.refine_projected_counted(g, init, rng, ws)
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let passes = refine_with_cache(g, &mut init, ws, self.max_passes, Seeds::All);
        (init, passes)
    }
}

/// Boundary-localized FM: the [`FiducciaMattheyses`] pass (best-gain
/// single moves under the pass tolerance, best balanced prefix, passes
/// to a fixpoint), but each pass seeds the gain buckets from the
/// incrementally tracked cut boundary instead of all of `V`, and cleans
/// up only what it touched. A separately tested refinement mode — not
/// bit-identical to the pinned full-scan FM (it visits candidates in
/// boundary order), but deterministic and subject to the same
/// invariants.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, fm::BoundaryFm};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = BoundaryFm::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryFm {
    max_passes: usize,
}

impl Default for BoundaryFm {
    fn default() -> BoundaryFm {
        BoundaryFm::new()
    }
}

impl BoundaryFm {
    /// Boundary FM with passes run to a fixpoint (bounded by a safety
    /// cap).
    pub fn new() -> BoundaryFm {
        BoundaryFm { max_passes: 64 }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> BoundaryFm {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }
}

impl Bisector for BoundaryFm {
    fn name(&self) -> String {
        "BFM".into()
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = seed::random_balanced(g, rng);
        self.refine_counted(g, init, rng, ws)
    }
}

impl Refiner for BoundaryFm {
    fn refine_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        if g.num_vertices() >= 2 {
            ws.gain_cache.init(g, &init);
        }
        self.refine_projected_counted(g, init, rng, ws)
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let passes = refine_with_cache(g, &mut init, ws, self.max_passes, Seeds::Boundary);
        (init, passes)
    }
}

/// Which vertices seed a pass's gain buckets: the one difference
/// between [`FiducciaMattheyses`] and [`BoundaryFm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seeds {
    /// Every vertex, in index order.
    All,
    /// The cache's cut-boundary list. An interior vertex can only
    /// become worth moving after a neighbor moves, and the pass inserts
    /// it the moment that happens, so no candidate is ever missed.
    Boundary,
}

/// Runs up to `max_passes` passes to a fixpoint assuming
/// `ws.gain_cache` is exact for `(g, p)`; leaves it exact for the
/// refined `p`. Returns the number of productive passes.
fn refine_with_cache(
    g: &Graph,
    p: &mut Bisection,
    ws: &mut Workspace,
    max_passes: usize,
    seeds: Seeds,
) -> u64 {
    if g.num_vertices() < 2 {
        return 0;
    }
    let tol = prepare(g, p, ws);
    let mut productive = 0u64;
    for _ in 0..max_passes {
        if fm_pass(g, p, ws, tol, seeds) == 0 {
            break;
        }
        productive += 1;
    }
    productive
}

/// Per-refine O(V) setup: bucket reset, work mirror, locked/touched
/// clearing. Returns the `(base, pass)` tolerances of
/// [`partition::move_tolerances`]; each pass afterwards touches only
/// what it seeds and reaches.
fn prepare(g: &Graph, p: &Bisection, ws: &mut Workspace) -> (u64, u64) {
    let n = g.num_vertices();
    let max_wdeg = g
        .vertices()
        .map(|v| g.weighted_degree(v))
        .max()
        .unwrap_or(0)
        .min(i64::MAX as u64) as i64;
    for b in ws.fm_buckets.iter_mut() {
        b.reset(n, max_wdeg);
    }
    if let Some(w) = ws.fm_work.as_mut() {
        w.copy_from(p);
    } else {
        // lint: allow(zero-alloc) — one-time workspace warm-up, recycled afterwards
        ws.fm_work = Some(p.clone());
    }
    ws.locked.clear();
    ws.locked.resize(n, false);
    ws.fm_touched.clear();
    partition::move_tolerances(g)
}

/// One FM pass. On entry and exit: `ws.gain_cache` is exact for
/// `(g, p)`, `ws.fm_work` mirrors `p`, `ws.fm_buckets` are empty,
/// `ws.locked` is all-false, `ws.fm_touched` is empty.
// lint: allow(no-panic) — pass-loop expects: prepare populated fm_work
// before any pass, and `choice` is Some only when that bucket had a peek.
fn fm_pass(
    g: &Graph,
    p: &mut Bisection,
    ws: &mut Workspace,
    (base_tol, pass_tol): (u64, u64),
    seeds: Seeds,
) -> u64 {
    let cache = &ws.gain_cache;
    let buckets = &mut ws.fm_buckets;
    let touched = &mut ws.fm_touched;
    let mut add = |v: VertexId| {
        buckets[p.side(v).index()].insert(v, cache.gain(v));
        touched.push(v);
    };
    match seeds {
        Seeds::All => g.vertices().for_each(&mut add),
        Seeds::Boundary => cache.boundary().iter().for_each(|&v| add(v)),
    }
    let work = ws.fm_work.as_mut().expect("fm_work prepared");
    let locked = &mut ws.locked;
    ws.fm_moves.clear();
    let moves = &mut ws.fm_moves;
    ws.fm_cumulative.clear();
    let cumulative = &mut ws.fm_cumulative;
    ws.fm_balanced.clear();
    let balanced_after = &mut ws.fm_balanced;
    let mut running = 0i64;

    loop {
        // Candidate per side: its best-gain unlocked vertex, kept only
        // if moving it respects the pass tolerance.
        let mut choice: Option<(i64, Side)> = None;
        for side in [Side::A, Side::B] {
            let Some((gain, v)) = buckets[side.index()].peek_best() else {
                continue;
            };
            let w = g.vertex_weight(v) as i64;
            let imb = work.weight(Side::A) as i64 - work.weight(Side::B) as i64;
            let new_imb = if side == Side::A {
                imb - 2 * w
            } else {
                imb + 2 * w
            };
            if new_imb.unsigned_abs() > pass_tol {
                continue;
            }
            // Prefer higher gain; tie-break toward the heavier side
            // (drives the state back toward balance).
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
        let (_, v) = buckets[side.index()].pop_best().expect("peeked nonempty");
        locked[v as usize] = true;
        // Bucket gains are exact virtual gains for `work` (seeded from
        // the exact cache while work == p, maintained below).
        work.move_vertex_with_gain(g, v, gain);
        running += gain;
        moves.push(v);
        cumulative.push(running);
        balanced_after.push(work.weight_imbalance() <= base_tol);

        for (u, w) in g.neighbors_weighted(v) {
            if locked[u as usize] {
                continue;
            }
            // v left `side`: for u still on `side` the edge became
            // external (+2w); for u on the other side it became
            // internal (−2w).
            let delta = if work.side(u) == side {
                2 * w as i64
            } else {
                -2 * (w as i64)
            };
            let b = &mut buckets[work.side(u).index()];
            if b.contains(u) {
                let cur = b.gain_of(u);
                b.update(u, cur + delta);
            } else {
                // Only boundary seeding leaves u out: it had no moved
                // neighbor yet (only pops remove bucket entries, and
                // pops lock), so its virtual gain still equals the
                // cached real gain.
                b.insert(u, cache.gain(u) + delta);
                touched.push(u);
            }
        }
    }

    // Best prefix that ends balanced with positive improvement.
    let mut best: Option<(usize, i64)> = None;
    for (i, (&c, &ok)) in cumulative.iter().zip(balanced_after.iter()).enumerate() {
        if ok && c > 0 && best.is_none_or(|(_, bc)| c > bc) {
            best = Some((i, c));
        }
    }
    let committed = match best {
        Some((k, _)) => k + 1,
        None => 0,
    };
    let before = p.cut();
    let cache = &mut ws.gain_cache;
    for &v in &moves[..committed] {
        // record_move wants the pre-move partition; the cached gain is
        // the exact real gain of v at this point in the prefix.
        let real_gain = cache.gain(v);
        cache.record_move(g, p, v);
        p.move_vertex_with_gain(g, v, real_gain);
    }
    // Rewind the uncommitted virtual tail so fm_work mirrors p again.
    // Each vertex moved at most once per pass, so moving it back
    // restores its side regardless of order.
    for &v in &moves[committed..] {
        work.move_vertex(g, v);
    }
    // O(touched) cleanup instead of O(V) resets.
    for &v in touched.iter() {
        for b in buckets.iter_mut() {
            if b.contains(v) {
                b.remove(v);
            }
        }
        locked[v as usize] = false;
    }
    touched.clear();
    debug_assert_eq!(p.cut(), p.recompute_cut(g));
    debug_assert!(before >= p.cut());
    before - p.cut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pass_never_increases_cut_and_keeps_balance() {
        let g = special::grid(6, 6);
        let fm = FiducciaMattheyses::new();
        let mut ws = Workspace::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = seed::random_balanced(&g, &mut rng);
            let before = p.cut();
            let improvement = fm.pass_in(&g, &mut p, &mut ws);
            assert_eq!(before - p.cut(), improvement, "seed {seed}");
            assert!(p.is_balanced(&g), "seed {seed}");
        }
    }

    #[test]
    fn solves_cycle_with_best_of() {
        let g = special::cycle(24);
        let mut rng = StdRng::seed_from_u64(0);
        let best = crate::bisector::best_of(&FiducciaMattheyses::new(), &g, 5, &mut rng);
        assert_eq!(best.cut(), 2);
    }

    #[test]
    fn comparable_to_kl_on_grid() {
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(12);
        let fm = crate::bisector::best_of(&FiducciaMattheyses::new(), &g, 5, &mut rng);
        assert!(fm.cut() <= 14, "FM cut {}", fm.cut());
    }

    #[test]
    fn odd_vertex_count() {
        let g = special::binary_tree(31);
        let mut rng = StdRng::seed_from_u64(3);
        let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn weighted_coarse_graph() {
        use bisect_graph::{contraction, matching};
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let init = seed::weight_balanced_random(coarse, &mut rng);
        let p = FiducciaMattheyses::new().refine(coarse, init, &mut rng);
        assert!(p.is_balanced(coarse));
        assert_eq!(p.cut(), p.recompute_cut(coarse));
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..4usize {
            let g = bisect_graph::Graph::empty(n);
            let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn fixpoint_returns_zero() {
        let g = special::grid(4, 4);
        let fm = FiducciaMattheyses::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = fm.bisect(&g, &mut rng);
        assert_eq!(fm.pass_in(&g, &mut p, &mut Workspace::new()), 0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = FiducciaMattheyses::new().with_max_passes(0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn boundary_zero_passes_rejected() {
        let _ = BoundaryFm::new().with_max_passes(0);
    }

    #[test]
    fn boundary_refine_never_increases_cut_and_keeps_balance() {
        let g = special::grid(6, 6);
        let bfm = BoundaryFm::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = seed::random_balanced(&g, &mut rng);
            let before = p.cut();
            let refined = bfm.refine(&g, p, &mut rng);
            assert!(refined.cut() <= before, "seed {seed}");
            assert!(refined.is_balanced(&g), "seed {seed}");
            assert_eq!(refined.cut(), refined.recompute_cut(&g), "seed {seed}");
        }
    }

    #[test]
    fn boundary_solves_cycle_with_best_of() {
        let g = special::cycle(24);
        let mut rng = StdRng::seed_from_u64(0);
        let best = crate::bisector::best_of(&BoundaryFm::new(), &g, 5, &mut rng);
        assert_eq!(best.cut(), 2);
    }

    #[test]
    fn boundary_refine_leaves_cache_exact() {
        let g = special::grid(8, 8);
        let refiners: [&dyn Refiner; 2] = [&FiducciaMattheyses::new(), &BoundaryFm::new()];
        for fm in refiners {
            let mut ws = Workspace::new();
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = seed::random_balanced(&g, &mut rng);
                let (refined, _) = fm.refine_counted(&g, init, &mut rng, &mut ws);
                let name = fm.name();
                for v in g.vertices() {
                    assert_eq!(
                        ws.gain_cache().gain(v),
                        refined.gain(&g, v),
                        "{name} {seed}"
                    );
                    let ext: u64 = g
                        .neighbors_weighted(v)
                        .filter(|&(u, _)| refined.side(u) != refined.side(v))
                        .map(|(_, w)| w)
                        .sum();
                    assert_eq!(ws.gain_cache().ext(v), ext, "{name} {seed}");
                }
            }
        }
    }

    #[test]
    fn boundary_projected_entry_matches_plain_refine() {
        // refine_projected_counted with an externally prepared cache
        // must equal refine_counted (which builds its own).
        let g = special::grid(8, 8);
        let refiners: [&dyn Refiner; 2] = [&FiducciaMattheyses::new(), &BoundaryFm::new()];
        for fm in refiners {
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = seed::random_balanced(&g, &mut rng);
                let mut ws_a = Workspace::new();
                let (plain, passes_a) = fm.refine_counted(&g, init.clone(), &mut rng, &mut ws_a);
                let mut ws_b = Workspace::new();
                ws_b.gain_cache.init(&g, &init);
                let (projected, passes_b) =
                    fm.refine_projected_counted(&g, init, &mut rng, &mut ws_b);
                assert_eq!(plain, projected, "{} {seed}", fm.name());
                assert_eq!(passes_a, passes_b, "{} {seed}", fm.name());
            }
        }
    }

    #[test]
    fn boundary_refine_is_deterministic_across_workspace_reuse() {
        let g = special::grid(10, 6);
        let bfm = BoundaryFm::new();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(42);
        let init = seed::random_balanced(&g, &mut rng);
        let (a, _) = bfm.refine_counted(&g, init.clone(), &mut rng, &mut ws);
        // Reused (warm, differently sized) workspace must not change
        // the result.
        let small = special::grid(3, 3);
        let mut srng = StdRng::seed_from_u64(1);
        let sinit = seed::random_balanced(&small, &mut srng);
        let _ = bfm.refine_counted(&small, sinit, &mut srng, &mut ws);
        let (b, _) = bfm.refine_counted(&g, init, &mut rng, &mut ws);
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_weighted_coarse_graph() {
        use bisect_graph::{contraction, matching};
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let init = seed::weight_balanced_random(coarse, &mut rng);
        let p = BoundaryFm::new().refine(coarse, init, &mut rng);
        assert!(p.is_balanced(coarse));
        assert_eq!(p.cut(), p.recompute_cut(coarse));
    }

    #[test]
    fn boundary_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..4usize {
            let g = bisect_graph::Graph::empty(n);
            let p = BoundaryFm::new().bisect(&g, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }
}
