//! The Kernighan-Lin graph bisection heuristic (§III, Figure 2 of the
//! paper; originally Kernighan & Lin, Bell System Tech. J. 1970).
//!
//! One *pass* over a bisection `(A, B)`:
//!
//! 1. Compute the gain `g_v` of every vertex.
//! 2. Repeatedly choose the unlocked pair `(a, b)`, `a ∈ A`, `b ∈ B`,
//!    maximizing `g_ab = g_a + g_b − 2δ(a, b)`; lock the pair, record
//!    the running total, and update the gains of unlocked vertices as
//!    if the pair had been swapped.
//! 3. After `min(|A|, |B|)` pairs, swap the prefix of pairs whose
//!    cumulative gain is maximal (if positive).
//!
//! Passes repeat until a pass yields no improvement (or a configured
//! pass limit is hit). One pass never increases the cut, and side sizes
//! are preserved exactly — swaps are balanced by construction.
//!
//! Step 1 copies the gains from the workspace gain cache, and step 3
//! commits each swap as two cached moves, so the cache stays exact and
//! the projected-cache entry never rebuilds it; only the public
//! [`KernighanLin::pass_in`] builds it first.
//!
//! Pair selection is the expensive step. Both strategies make
//! **identical selections** (ties broken the same way), so they produce
//! identical cut trajectories; they differ only in cost, which the
//! `klpair` ablation bench compares:
//!
//! * [`PairSelection::Incremental`] (default) keeps per-side gain
//!   *buckets* (`SortedBuckets`) in a reusable
//!   [`Workspace`], scans candidate pairs in decreasing `g_a + g_b`
//!   with the exact `g_ab ≤ g_a + g_b` prune, and after locking a pair
//!   updates only the buckets of the pair's *neighbors* — no per-swap
//!   rescans and no steady-state allocation.
//! * [`PairSelection::Exhaustive`] is the literal `O(|A|·|B|)` scan of
//!   Figure 2, retained as the reference the default is tested against.

use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::Cells;
use crate::bisector::Refiner;
use crate::gain::SortedBuckets;
use crate::partition::{Bisection, Side};
use crate::workspace::Workspace;

/// How each pass picks the pair with maximal `g_ab`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairSelection {
    /// Pruned descending scan over workspace-resident gain buckets with
    /// incremental neighbor-only updates (default; fastest, and
    /// allocation-free once the workspace is warm).
    #[default]
    Incremental,
    /// Evaluate every unlocked pair, as written in Figure 2.
    Exhaustive,
}

/// The Kernighan-Lin bisection algorithm.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, kl::KernighanLin};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = KernighanLin::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// assert!(p.cut() <= 16); // random is ~64; KL gets close to 8
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernighanLin {
    max_passes: usize,
    pair_selection: PairSelection,
}

impl Default for KernighanLin {
    fn default() -> KernighanLin {
        KernighanLin::new()
    }
}

impl KernighanLin {
    /// KL with the default configuration: run passes to a fixpoint
    /// (bounded by a generous safety cap) using incremental pair
    /// selection.
    pub fn new() -> KernighanLin {
        KernighanLin {
            max_passes: 64,
            pair_selection: PairSelection::default(),
        }
    }

    /// Limits the number of passes ("the procedure may have a fixed
    /// number of passes or it can run until no improvement is
    /// possible").
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> KernighanLin {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// Selects the pair-selection strategy.
    pub fn with_pair_selection(mut self, pair_selection: PairSelection) -> KernighanLin {
        self.pair_selection = pair_selection;
        self
    }

    /// Runs one KL pass in place. Returns the cut improvement achieved
    /// (0 when the pass is a fixpoint). Side sizes are preserved.
    ///
    /// Every scratch array comes from `ws`: once the workspace has
    /// warmed up to the graph's size, the pass performs no heap
    /// allocations. The workspace gain cache is rebuilt for `p` on
    /// entry and left exact for the refined `p`.
    pub fn pass_in(&self, g: &Graph, p: &mut Bisection, ws: &mut Workspace) -> u64 {
        ws.gain_cache.init(g, p);
        self.pass(g, p, ws)
    }

    /// One pass on a workspace gain cache that is exact for `(g, p)`;
    /// leaves it exact for the refined `p`.
    fn pass(&self, g: &Graph, p: &mut Bisection, ws: &mut Workspace) -> u64 {
        let n = g.num_vertices();
        let k_max = p.count(Side::A).min(p.count(Side::B));
        if k_max == 0 {
            return 0;
        }

        // Per-vertex gains start as a copy of the exact cache and then
        // evolve as virtual-swap gains while pairs lock; the cache
        // itself sees only the committed swaps.
        let gains = &mut ws.kl_gains;
        gains.clear();
        gains.extend_from_slice(ws.gain_cache.gains());
        ws.locked.clear();
        ws.locked.resize(n, false);
        // Incremental selection keeps per-side candidate buckets in the
        // workspace.
        if self.pair_selection == PairSelection::Incremental {
            let max_wdeg = g
                .vertices()
                .map(|v| g.weighted_degree(v))
                .max()
                .unwrap_or(0)
                .min(i64::MAX as u64) as i64;
            for side in &mut ws.kl_sides {
                side.reset(max_wdeg);
            }
            for v in g.vertices() {
                ws.kl_sides[p.side(v).index()].insert(v, gains[v as usize]);
            }
        }

        ws.sequence.clear();
        ws.cumulative.clear();
        let mut running = 0i64;
        // Candidate-pair gain evaluations of this pass, reported
        // through the workspace like SA's proposal count so the
        // benchmark records show KL's selection throughput too.
        let mut evals = 0u64;

        for _ in 0..k_max {
            let chosen = match self.pair_selection {
                PairSelection::Incremental => best_pair_buckets(g, &ws.kl_sides, &mut evals),
                PairSelection::Exhaustive => {
                    best_pair_exhaustive(g, p, gains, &ws.locked, &mut evals)
                }
            };
            let Some((gain_ab, a, b)) = chosen else { break };

            // Lock the pair.
            for v in [a, b] {
                ws.locked[v as usize] = true;
                if self.pair_selection == PairSelection::Incremental {
                    ws.kl_sides[p.side(v).index()].remove(v, gains[v as usize]);
                }
            }
            running += gain_ab;
            ws.sequence.push((a, b));
            ws.cumulative.push(running);

            // Update gains of unlocked neighbors of a and b, relative to
            // the virtual swap of (a, b).
            for (moved, other) in [(a, b), (b, a)] {
                let moved_side = p.side(moved);
                for (x, w) in g.neighbors_weighted(moved) {
                    if ws.locked[x as usize] || x == other {
                        continue;
                    }
                    let delta = if p.side(x) == moved_side {
                        2 * w as i64
                    } else {
                        -2 * (w as i64)
                    };
                    if delta == 0 {
                        continue;
                    }
                    match self.pair_selection {
                        PairSelection::Incremental => {
                            let side = &mut ws.kl_sides[p.side(x).index()];
                            side.remove(x, gains[x as usize]);
                            gains[x as usize] += delta;
                            side.insert(x, gains[x as usize]);
                        }
                        PairSelection::Exhaustive => gains[x as usize] += delta,
                    }
                }
            }
        }

        ws.add_proposals(evals);

        // Best prefix.
        let Some((best_idx, &best_gain)) = ws
            .cumulative
            .iter()
            .enumerate()
            .max_by(|(i, x), (j, y)| x.cmp(y).then(j.cmp(i)))
        else {
            return 0;
        };
        if best_gain <= 0 {
            return 0;
        }
        let cut_before = p.cut();
        for &(a, b) in &ws.sequence[..=best_idx] {
            g.cached_move(p, &mut ws.gain_cache, a);
            g.cached_move(p, &mut ws.gain_cache, b);
        }
        debug_assert_eq!(p.cut(), p.recompute_cut(g));
        debug_assert_eq!(cut_before - p.cut(), best_gain as u64);
        cut_before - p.cut()
    }
}

/// Exact best pair via descending `(g_a + g_b)` scan with pruning over
/// the workspace-resident buckets. [`SortedBuckets::iter_desc`] visits
/// candidates in descending `(gain, vertex)` order, so this selects
/// bit-identically to [`best_pair_exhaustive`].
fn best_pair_buckets(
    g: &Graph,
    sides: &[SortedBuckets; 2],
    evals: &mut u64,
) -> Option<(i64, VertexId, VertexId)> {
    let (set_a, set_b) = (&sides[0], &sides[1]);
    let (gb_max, _) = set_b.iter_desc().next()?;
    let mut best: Option<(i64, VertexId, VertexId)> = None;
    for (ga, a) in set_a.iter_desc() {
        if let Some((bg, _, _)) = best {
            if ga + gb_max <= bg {
                break;
            }
        }
        for (gb, b) in set_b.iter_desc() {
            if let Some((bg, _, _)) = best {
                if ga + gb <= bg {
                    break;
                }
            }
            *evals += 1;
            let actual = ga + gb - 2 * g.edge_weight(a, b).unwrap_or(0) as i64;
            if best.is_none_or(|(bg, _, _)| actual > bg) {
                best = Some((actual, a, b));
            }
        }
    }
    best
}

/// Literal Figure 2 pair selection: evaluate every unlocked pair. Ties
/// are broken exactly as the pruned bucket scan breaks them (largest
/// `(g_a, a)`, then largest `(g_b, b)`), so the two strategies make
/// identical selections.
fn best_pair_exhaustive(
    g: &Graph,
    p: &Bisection,
    gains: &[i64],
    locked: &[bool],
    evals: &mut u64,
) -> Option<(i64, VertexId, VertexId)> {
    let mut best: Option<(i64, i64, VertexId, i64, VertexId)> = None;
    for a in g
        .vertices()
        .filter(|&v| !locked[v as usize] && p.side(v) == Side::A)
    {
        for b in g
            .vertices()
            .filter(|&v| !locked[v as usize] && p.side(v) == Side::B)
        {
            *evals += 1;
            let (ga, gb) = (gains[a as usize], gains[b as usize]);
            let actual = ga + gb - 2 * g.edge_weight(a, b).unwrap_or(0) as i64;
            let key = (actual, ga, a, gb, b);
            if best.is_none_or(|k| key > k) {
                best = Some(key);
            }
        }
    }
    best.map(|(actual, _, a, _, b)| (actual, a, b))
}

impl Refiner for KernighanLin {
    fn name(&self) -> String {
        "KL".into()
    }

    /// Runs passes until one yields no improvement (or the pass limit
    /// is hit). The work count is the number of passes that improved
    /// the cut — the quantity behind Observation 1's "it takes fewer
    /// passes for the algorithms to converge on degree 4 graphs". KL
    /// draws no randomness, so `rng` is untouched. Each pass reads its
    /// starting gains from the workspace gain cache and commits its
    /// swaps through it, so the cache stays exact pass to pass.
    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let mut productive = 0;
        for _ in 0..self.max_passes {
            if self.pass(g, &mut init, ws) == 0 {
                break;
            }
            productive += 1;
        }
        (init, productive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Bisector;
    use crate::gain_cache::GainCache;
    use crate::seed;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(g: &Graph, seed: u64) -> Bisection {
        let mut rng = StdRng::seed_from_u64(seed);
        KernighanLin::new().bisect(g, &mut rng)
    }

    #[test]
    fn pass_never_increases_cut() {
        let g = special::grid(6, 6);
        let kl = KernighanLin::new();
        let mut ws = Workspace::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = seed::random_balanced(&g, &mut rng);
            let before = p.cut();
            let improvement = kl.pass_in(&g, &mut p, &mut ws);
            assert_eq!(before - p.cut(), improvement);
            assert!(p.cut() <= before);
            assert_eq!(p.cut(), p.recompute_cut(&g));
        }
    }

    #[test]
    fn pass_in_rebuilds_a_stale_cache_and_leaves_it_exact() {
        let g = special::grid(7, 6);
        let kl = KernighanLin::new();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = seed::random_balanced(&g, &mut rng);
            let other = seed::random_balanced(&g, &mut rng);
            let mut fresh = start.clone();
            let fresh_gain = kl.pass_in(&g, &mut fresh, &mut Workspace::new());
            // A workspace whose cache describes another bisection.
            let mut ws = Workspace::new();
            ws.gain_cache.init(&g, &other);
            let mut p = start;
            assert_eq!(kl.pass_in(&g, &mut p, &mut ws), fresh_gain, "seed {seed}");
            assert_eq!(p, fresh, "seed {seed}");
            let mut rebuilt = GainCache::default();
            rebuilt.init(&g, &p);
            let boundary = |cache: &GainCache| {
                let mut b = cache.boundary().to_vec();
                b.sort_unstable();
                b
            };
            for v in g.vertices() {
                assert_eq!(
                    ws.gain_cache.gain(v),
                    rebuilt.gain(v),
                    "seed {seed}: gain {v}"
                );
                assert_eq!(ws.gain_cache.ext(v), rebuilt.ext(v), "seed {seed}: ext {v}");
            }
            assert_eq!(boundary(&ws.gain_cache), boundary(&rebuilt), "seed {seed}");
        }
    }

    #[test]
    fn preserves_side_counts() {
        let g = special::grid(5, 4);
        let p = run(&g, 3);
        assert_eq!(p.count(Side::A), 10);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn solves_even_cycle_optimally() {
        // Bisection width of C_20 is 2; KL from random starts finds it
        // at least from some seeds — require best-of-5 to be exact.
        let g = special::cycle(20);
        let mut rng = StdRng::seed_from_u64(0);
        let best = crate::bisector::best_of(&KernighanLin::new(), &g, 5, &mut rng);
        assert_eq!(best.cut(), 2);
    }

    #[test]
    fn near_optimal_on_grid() {
        // 8×8 grid has bisection width 8.
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(11);
        let best = crate::bisector::best_of(&KernighanLin::new(), &g, 5, &mut rng);
        assert!(best.cut() <= 12, "cut {}", best.cut());
    }

    #[test]
    fn fixpoint_pass_returns_zero() {
        let g = special::grid(4, 4);
        let kl = KernighanLin::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = kl.bisect(&g, &mut rng);
        assert_eq!(kl.pass_in(&g, &mut p, &mut Workspace::new()), 0);
    }

    #[test]
    fn all_pair_selections_match() {
        let incremental = KernighanLin::new();
        assert_eq!(incremental.pair_selection, PairSelection::Incremental);
        let exhaustive = KernighanLin::new().with_pair_selection(PairSelection::Exhaustive);
        // One shared workspace across every pass exercises arena reuse
        // across graphs of different sizes.
        let mut ws = Workspace::new();
        for (rows, cols) in [(4, 5), (6, 3), (2, 8)] {
            let g = special::grid(rows, cols);
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = seed::random_balanced(&g, &mut rng);
                let mut b = init.clone();
                let mut c = init;
                let gb = exhaustive.pass_in(&g, &mut b, &mut Workspace::new());
                let gc = incremental.pass_in(&g, &mut c, &mut ws);
                assert_eq!(gb, gc, "grid {rows}x{cols} seed {seed}");
                // The incremental strategy must make the *same
                // selections*, not just reach an equal cut.
                assert_eq!(b, c, "grid {rows}x{cols} seed {seed}");
            }
        }
    }

    #[test]
    fn full_refinement_identical_across_strategies() {
        let g = special::ladder(32);
        let mut results = Vec::new();
        for strategy in [PairSelection::Incremental, PairSelection::Exhaustive] {
            let mut rng = StdRng::seed_from_u64(42);
            let kl = KernighanLin::new().with_pair_selection(strategy);
            results.push(kl.bisect(&g, &mut rng));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn handles_weighted_coarse_graph() {
        use bisect_graph::{contraction, matching};
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let init = seed::weight_balanced_random(coarse, &mut rng);
        let counts = (init.count(Side::A), init.count(Side::B));
        let refined = KernighanLin::new().refine(coarse, init, &mut rng);
        assert_eq!((refined.count(Side::A), refined.count(Side::B)), counts);
        assert_eq!(refined.cut(), refined.recompute_cut(coarse));
    }

    #[test]
    fn tiny_graphs_do_not_crash() {
        for n in 0..5 {
            let g = special::path(n.max(1));
            let mut rng = StdRng::seed_from_u64(1);
            let p = KernighanLin::new().bisect(&g, &mut rng);
            assert_eq!(p.cut(), p.recompute_cut(&g));
        }
        let g = bisect_graph::Graph::empty(0);
        let mut rng = StdRng::seed_from_u64(1);
        let p = KernighanLin::new().bisect(&g, &mut rng);
        assert_eq!(p.cut(), 0);
    }

    #[test]
    fn refine_is_monotone() {
        let g = special::binary_tree(31);
        let mut rng = StdRng::seed_from_u64(9);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let refined = KernighanLin::new().refine(&g, init, &mut rng);
        assert!(refined.cut() <= before);
    }

    #[test]
    fn max_passes_limits_work() {
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(13);
        let init = seed::random_balanced(&g, &mut rng);
        let one_pass = KernighanLin::new().with_max_passes(1);
        let refined = one_pass.refine(&g, init.clone(), &mut rng);
        let kl_full = KernighanLin::new();
        let full = kl_full.refine(&g, init, &mut rng);
        assert!(full.cut() <= refined.cut());
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = KernighanLin::new().with_max_passes(0);
    }

    #[test]
    fn known_failure_mode_on_ladder_sometimes() {
        // The paper notes KL "is known to fail badly" on ladders: from
        // random starts it often lands above the optimal cut of 2. We
        // only check it runs and is balanced; quality is benchmarked.
        let g = special::ladder(32);
        let p = run(&g, 21);
        assert!(p.is_balanced(&g));
        assert!(p.cut() >= 2);
    }

    #[test]
    fn refine_counted_counts_productive_passes() {
        let g = special::ladder(64);
        let mut rng = StdRng::seed_from_u64(17);
        let init = seed::random_balanced(&g, &mut rng);
        let kl = KernighanLin::new();
        let mut ws = Workspace::new();
        let (refined, passes) = kl.refine_counted(&g, init.clone(), &mut rng, &mut ws);
        assert!(passes >= 1, "a random start on a ladder always improves");
        assert!(refined.cut() < init.cut());
        // A fixpoint input takes zero productive passes.
        let (_, passes2) = kl.refine_counted(&g, refined, &mut rng, &mut ws);
        assert_eq!(passes2, 0);
    }

    #[test]
    // Observation 1 claims KL converges in fewer passes on degree-4
    // Gbreg graphs. Measured here the direction is inconsistent at
    // every feasible test size (d4 needs *more* passes at n=300 and
    // the sign flips with (n, b) at n=600..1000), so the claim is not
    // reproduced by this implementation. Tracked in ISSUE 1 (parallel
    // engine PR) — revisit at paper scale (n=5000) once the parallel
    // runner makes that ensemble cheap.
    #[ignore = "paper Observation 1 pass-count claim not reproduced; see ISSUE 1"]
    fn degree4_needs_fewer_passes_than_degree3() {
        // Observation 1's speed mechanism, averaged over seeds.
        let mut total = [0u64; 2];
        let mut ws = Workspace::new();
        for (i, d) in [3usize, 4].into_iter().enumerate() {
            let params = bisect_gen::gbreg::GbregParams::new(300, 6, d).unwrap();
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = bisect_gen::gbreg::sample(&mut rng, &params).unwrap();
                let init = seed::random_balanced(&g, &mut rng);
                let (_, passes) = KernighanLin::new().refine_counted(&g, init, &mut rng, &mut ws);
                total[i] += passes;
            }
        }
        assert!(
            total[1] <= total[0],
            "degree 4 should need no more passes: d3 {} vs d4 {}",
            total[0],
            total[1]
        );
    }

    #[test]
    fn pass_reports_pair_evaluations_through_the_workspace() {
        let g = bisect_gen::special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let init = seed::random_balanced(&g, &mut rng);
        let mut counts = Vec::new();
        for strategy in [PairSelection::Incremental, PairSelection::Exhaustive] {
            let kl = KernighanLin::new().with_pair_selection(strategy);
            let mut ws = Workspace::new();
            let mut p = init.clone();
            kl.pass_in(&g, &mut p, &mut ws);
            let evals = ws.take_proposals();
            assert!(evals > 0, "{strategy:?} evaluated no pairs");
            counts.push(evals);
        }
        // The pruned bucket scan never evaluates more pairs than the
        // exhaustive reference.
        assert!(counts[0] <= counts[1]);
        // A second pass from the refined state accumulates on top of
        // the drained counter.
        let kl = KernighanLin::new();
        let mut ws = Workspace::new();
        let mut p = init.clone();
        kl.pass_in(&g, &mut p, &mut ws);
        kl.pass_in(&g, &mut p, &mut ws);
        assert!(ws.take_proposals() >= counts[0]);
    }

    #[test]
    fn gbreg_degree4_recovers_planted_bisection() {
        // Observation 1's good case: degree-4 Gbreg instances are easy.
        let params = bisect_gen::gbreg::GbregParams::new(200, 4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1989);
        let g = bisect_gen::gbreg::sample(&mut rng, &params).unwrap();
        let best = crate::bisector::best_of(&KernighanLin::new(), &g, 4, &mut rng);
        assert_eq!(best.cut(), 4, "expected the planted bisection width");
    }
}
