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
//! The pass is written once, generic over the level's `Cells`, and
//! serves [`FiducciaMattheyses`] and [`BoundaryFm`] here and
//! [`crate::netlist::NetlistFm`] on netlists; this module holds no
//! per-kind code. Graphs and netlists differ only in how one move
//! updates the gains of the cells it touches (`Cells::virtual_move`,
//! implemented per kind in the balance layer): a ±2w walk over the
//! neighbors of a vertex, or one walk over the nets of a cell that
//! shifts their pin counts. A netlist's fixed cells stay locked for the
//! whole refine.
//!
//! The refiners differ only in which cells seed the gain buckets. FM
//! seeds every vertex in index order. BFM and netlist FM seed only the
//! current *boundary* (cells with a cut edge or net, tracked
//! incrementally by the gain cache) and pull interior cells in lazily as
//! moves reach them, so a pass costs `O(boundary + touched)` instead of
//! `O(V)` — the multilevel win once coarsening has shrunk the cut region
//! to a sliver of the graph. Each pass rewinds its work mirror by one
//! flat copy of the committed bisection. All keep the workspace gain
//! cache exact pass to pass, and all implement the projected-cache entry
//! ([`crate::bisector::Refiner::refine_projected_counted`] and its
//! netlist twin) by consuming the projected cache as it stands, so
//! uncoarsening ladders never rebuild their gain state per level.

use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::{Cells, Tolerance};
use crate::bisector::Refiner;
use crate::gain::GainBuckets;
use crate::partition::{Bisection, Side};
use crate::pipeline::engine::Level;
use crate::workspace::Workspace;

/// The pass cap of the FM refiners that run to a fixpoint: every
/// productive pass lowers the cut, so it only guards against
/// pathological inputs.
const MAX_PASSES: usize = 64;

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
        FiducciaMattheyses {
            max_passes: MAX_PASSES,
        }
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

impl Refiner for FiducciaMattheyses {
    fn name(&self) -> String {
        "FM".into()
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let passes = refine_with_cache(g, &[], &mut init, ws, self.max_passes, Seeds::All);
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundaryFm;

impl BoundaryFm {
    /// Boundary FM with passes run to a fixpoint (bounded by a safety
    /// cap).
    pub fn new() -> BoundaryFm {
        BoundaryFm
    }
}

impl Refiner for BoundaryFm {
    fn name(&self) -> String {
        "BFM".into()
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let passes = refine_with_cache(g, &[], &mut init, ws, MAX_PASSES, Seeds::Boundary);
        (init, passes)
    }
}

/// Which cells seed a pass's gain buckets: the one difference between
/// [`FiducciaMattheyses`] and [`BoundaryFm`]. It also picks the chunk
/// source of a [`crate::par_fm`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seeds {
    /// Every cell, in index order.
    All,
    /// The cache's cut-boundary list. An interior cell can only become
    /// worth moving after a mate moves, and the pass inserts it the
    /// moment that happens, so no candidate is ever missed.
    Boundary,
}

/// The arenas of the FM pass that graphs and netlists share: gain
/// buckets, the move log, and the cells to clean up.
#[derive(Debug, Default)]
pub(crate) struct FmArena {
    /// Per-side gain buckets.
    buckets: [GainBuckets; 2],
    /// Move sequence of the current pass.
    moves: Vec<VertexId>,
    /// Cumulative gains of the current pass.
    cumulative: Vec<i64>,
    /// Balance flags after each move.
    balanced: Vec<bool>,
    /// Cells whose bucket/locked state the current pass touched, so
    /// cleanup is O(touched) instead of O(cells).
    touched: Vec<VertexId>,
}

/// The gain cache, work mirror, locked flags and [`FmArena`] of a
/// workspace, borrowed together by an FM refine.
pub(crate) type FmState<'a, L> = (
    &'a mut <L as Cells>::Cache,
    &'a mut Option<<L as Level>::Part>,
    &'a mut Vec<bool>,
    &'a mut FmArena,
);

/// Runs up to `max_passes` passes to a fixpoint assuming the workspace
/// gain cache is exact for `(level, p)`; leaves it exact for the refined
/// `p`. Returns the number of productive passes. Cells flagged in
/// `fixed` never move: they stay locked in `ws.locked` for the whole
/// call, and are unlocked again on exit.
pub(crate) fn refine_with_cache<L: Cells>(
    level: &L,
    fixed: &[bool],
    p: &mut L::Part,
    ws: &mut Workspace,
    max_passes: usize,
    seeds: Seeds,
) -> u64 {
    if level.num_cells() < 2 {
        return 0;
    }
    let tol = prepare(level, p, ws);
    for (locked, &f) in ws.locked.iter_mut().zip(fixed) {
        *locked |= f;
    }
    let mut productive = 0u64;
    for _ in 0..max_passes {
        if fm_pass(level, p, ws, tol, seeds) == 0 {
            break;
        }
        productive += 1;
    }
    for (locked, &f) in ws.locked.iter_mut().zip(fixed) {
        *locked &= !f;
    }
    productive
}

/// Per-refine O(cells) setup: bucket reset, work mirror, locked/touched
/// clearing. Returns the level's balance [`Tolerance`]; each pass
/// afterwards touches only what it seeds and reaches.
fn prepare<L: Cells>(level: &L, p: &L::Part, ws: &mut Workspace) -> Tolerance {
    let n = level.num_cells();
    let max_gain = level.max_gain();
    let (_, work, locked, fm) = L::fm_state(ws);
    for b in fm.buckets.iter_mut() {
        b.reset(n, max_gain);
    }
    match work {
        Some(w) => L::copy_from(w, p),
        // lint: allow(zero-alloc) — one-time workspace warm-up, recycled afterwards
        None => *work = Some(p.clone()),
    }
    locked.clear();
    locked.resize(n, false);
    fm.touched.clear();
    Tolerance::of(level)
}

/// One FM pass. On entry and exit: the workspace gain cache is exact for
/// `(level, p)`, the work mirror equals `p`, the buckets are empty,
/// `ws.locked` flags exactly the fixed cells, and nothing is touched.
///
/// Each tentative move is one [`Cells::virtual_move`] of the mirror.
/// The committed prefix is then applied to `p` through the cache, and
/// the mirror is rewound by one copy of `p`.
// lint: allow(no-panic) — pass-loop expects: prepare populated the work
// mirror before any pass, and `choice` is Some only when that bucket had
// a peek.
fn fm_pass<L: Cells>(
    level: &L,
    p: &mut L::Part,
    ws: &mut Workspace,
    tol: Tolerance,
    seeds: Seeds,
) -> u64 {
    let (cache, work, locked, fm) = L::fm_state(ws);
    let FmArena {
        buckets,
        moves,
        cumulative,
        balanced,
        touched,
    } = fm;
    let mut add = |c: VertexId| {
        if !locked[c as usize] {
            buckets[L::side(p, c).index()].insert(c, L::cached_gain(cache, c));
            touched.push(c);
        }
    };
    match seeds {
        Seeds::All => (0..level.num_cells() as VertexId).for_each(&mut add),
        Seeds::Boundary => L::boundary(cache).iter().for_each(|&c| add(c)),
    }
    let work = work.as_mut().expect("work mirror prepared");
    moves.clear();
    cumulative.clear();
    balanced.clear();
    let mut running = 0i64;

    loop {
        // Candidate per side: its best-gain unlocked cell, kept only if
        // moving it respects the pass tolerance.
        let weights = L::side_weights(work);
        let weight = |side: Side| weights[side.index()];
        let mut choice: Option<(i64, Side)> = None;
        for side in [Side::A, Side::B] {
            let Some((gain, c)) = buckets[side.index()].peek_best() else {
                continue;
            };
            if !tol.fits(level, work, c) {
                continue;
            }
            // Prefer higher gain; tie-break toward the heavier side
            // (drives the state back toward balance).
            let heavier = weight(side) >= weight(side.other());
            match choice {
                Some((bg, bside)) => {
                    let better =
                        gain > bg || (gain == bg && heavier && weight(bside) < weight(side));
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
        // Bucket gains are exact virtual gains for `work` (seeded from
        // the exact cache while work == p, maintained here).
        level.virtual_move(work, locked, c, gain, |q, q_side, delta| {
            let b = &mut buckets[q_side.index()];
            if b.contains(q) {
                b.add(q, delta);
            } else {
                // Only boundary seeding leaves q out: it had no moved
                // mate yet (only pops remove bucket entries, and pops
                // lock), so its virtual gain still equals the cached
                // real gain.
                b.insert(q, L::cached_gain(cache, q) + delta);
                touched.push(q);
            }
        });
        running += gain;
        moves.push(c);
        cumulative.push(running);
        let [a, b] = L::side_weights(work);
        balanced.push(a.abs_diff(b) <= tol.base);
    }

    // Best prefix that ends balanced with positive improvement.
    let mut best: Option<(usize, i64)> = None;
    for (i, (&cum, &ok)) in cumulative.iter().zip(balanced.iter()).enumerate() {
        if ok && cum > 0 && best.is_none_or(|(_, bc)| cum > bc) {
            best = Some((i, cum));
        }
    }
    let committed = match best {
        Some((k, _)) => k + 1,
        None => 0,
    };
    let before = L::cut(p);
    // The mirror made every move of the pass, each at its bucket gain:
    // a wrong virtual move shows here.
    debug_assert_eq!(L::cut(work) as i64, before as i64 - running);
    for &c in &moves[..committed] {
        level.cached_move(p, cache, c);
    }
    // Rewind the mirror to `p` in one O(cells) copy into its own
    // capacity; most of a pass's moves are uncommitted.
    L::copy_from(work, p);
    // O(touched) cleanup instead of O(cells) resets.
    for &c in touched.iter() {
        for b in buckets.iter_mut() {
            if b.contains(c) {
                b.remove(c);
            }
        }
        locked[c as usize] = false;
    }
    touched.clear();
    debug_assert_eq!(L::cut(p), level.recompute_cut(p));
    debug_assert!(before >= L::cut(p));
    before - L::cut(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Bisector;
    use crate::seed;
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
