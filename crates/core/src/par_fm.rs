//! Coarse-grained parallel refinement for million-vertex instances.
//!
//! [`ParallelFm`] partitions the vertex set into contiguous ranges, lets
//! one worker per range run a greedy positive-gain FM sweep against a
//! *snapshot* of the bisection (Gauss–Seidel within a range, Jacobi
//! across ranges), then merges the proposed moves serially: sorted by
//! `(gain desc, vertex asc)`, each proposal is re-validated against the
//! *live* bisection and applied only if it still has positive gain and
//! respects the FM balance tolerance. A best-balanced-prefix rollback —
//! the same discipline as [`crate::fm::FiducciaMattheyses`] — guarantees
//! the round ends balanced with a cut no larger than it started.
//!
//! Every round reads gains from the workspace [`GainCache`]: workers
//! take their starting gains from it instead of walking adjacency, and
//! the serial resolve re-validates each proposal with a cached `O(1)`
//! lookup and records every applied (or rolled-back) move, so the cache
//! stays exact round to round. `refine_counted` builds the cache once;
//! [`Refiner::refine_projected_counted`] consumes the projected one.
//!
//! # Determinism contract
//!
//! `ParallelFm` draws **no randomness** and is **deterministic at a
//! fixed thread count**: the ranges are a pure function of `(n,
//! threads)`, each worker's sweep is a pure function of its range and
//! the snapshot, [`bisect_par::par_map_with`] returns results in index
//! order, and the merge order is a total order. Two runs with the same
//! graph, starting bisection, and thread count produce bit-identical
//! partitions. Unlike the serial refiners it is **not** bit-identical
//! across *different* thread counts — the range boundaries change which
//! local interactions each worker sees. The golden-pinned serial paths
//! (`KL`, `SA`, `FM`, and every pipeline built from them) are unaffected
//! by this module.
//!
//! # Boundary-seeded mode
//!
//! [`ParallelFm::with_boundary_seeds`] switches the propose phase from
//! full contiguous vertex ranges to contiguous chunks of the current
//! *cut boundary* list tracked by the cache. Chunking, merge and resolve
//! are the same round; only the proposals' source changes, so a round
//! costs `O(boundary·deg)` rather than `O(V + E)`. The mode draws no
//! randomness and keeps the fixed-thread-count determinism contract
//! (the chunking is a pure function of the boundary list and the thread
//! count); it is a separate, explicitly tested configuration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::Tolerance;
use crate::bisector::{Bisector, Refiner};
use crate::gain_cache::GainCache;
use crate::partition::Bisection;
use crate::seed;
use crate::workspace::Workspace;

/// Boundary-partitioned parallel Fiduccia–Mattheyses refinement.
///
/// Rounds of *propose in parallel, resolve serially* run until a round
/// fails to improve the cut (or `max_rounds` is hit). See the module
/// docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelFm {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
    /// Safety cap on propose/resolve rounds.
    max_rounds: usize,
    /// Propose from the tracked cut boundary instead of all vertex
    /// ranges (see the module docs).
    boundary_seeds: bool,
}

impl Default for ParallelFm {
    fn default() -> ParallelFm {
        ParallelFm::new()
    }
}

impl ParallelFm {
    /// Creates the refiner with the process-default thread count and a
    /// generous round cap (rounds strictly decrease the cut, so the cap
    /// only guards against pathological inputs).
    pub fn new() -> ParallelFm {
        ParallelFm {
            threads: None,
            max_rounds: 64,
            boundary_seeds: false,
        }
    }

    /// Switches to boundary-seeded proposing (see the module docs):
    /// rounds sweep only the tracked cut boundary and keep the
    /// workspace gain cache exact, costing `O(boundary·deg)` instead of
    /// `O(V + E)` per round. [`Refiner::refine_projected_counted`] then
    /// consumes the projected cache instead of rebuilding it.
    pub fn with_boundary_seeds(mut self) -> ParallelFm {
        self.boundary_seeds = true;
        self
    }

    /// Pins the worker (and range) count. The determinism regression
    /// tests use this to compare repeat runs at a fixed width.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> ParallelFm {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// Caps the number of propose/resolve rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> ParallelFm {
        assert!(max_rounds > 0, "need at least one round");
        self.max_rounds = max_rounds;
        self
    }

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }

    /// One propose/resolve round under the level's balance
    /// [`Tolerance`]. `cache` must be exact for
    /// `(g, p)` on entry and is exact for the updated `p` on exit.
    /// Returns `(cut improvement, gain evaluations)`; an improvement of
    /// zero means the round applied nothing and the refiner is done.
    fn round(
        &self,
        g: &Graph,
        p: &mut Bisection,
        cache: &mut GainCache,
        threads: usize,
        tol: Tolerance,
    ) -> (u64, u64) {
        // Full-range mode chunks the vertex ids; boundary mode chunks
        // the boundary list by *position* — no copy, no sort, O(1)
        // membership via the cache's position index. The list order is
        // a pure function of the init state and move history, so the
        // chunking (and the whole round) stays deterministic at a fixed
        // thread count.
        let boundary = self.boundary_seeds;
        let m = if boundary {
            cache.boundary().len()
        } else {
            g.num_vertices()
        };
        if m == 0 {
            return (0, 0);
        }
        let t = threads.max(1).min(m);
        let chunk = m.div_ceil(t);
        let ranges = m.div_ceil(chunk);

        // Parallel propose: each worker sweeps its chunk against the
        // shared snapshot. Results come back in chunk order regardless
        // of scheduling.
        let snapshot = p.sides();
        let shared: &GainCache = cache;
        let results = bisect_par::par_map_with(t, ranges, |k| {
            let lo = k * chunk;
            let hi = ((k + 1) * chunk).min(m);
            if boundary {
                propose_chunk(g, snapshot, shared, lo, hi)
            } else {
                propose_range(g, snapshot, shared, lo, hi)
            }
        });

        let mut evals: u64 = 0;
        let mut all: Vec<(i64, VertexId)> = Vec::new();
        for (proposals, e) in results {
            evals += e;
            all.extend(proposals);
        }
        // Total merge order: best estimated gain first, vertex id as the
        // deterministic tie-break.
        all.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Serial resolve under the serial FM pass's tolerances. Every
        // applied (or rolled-back) move is recorded so the cache stays
        // exact.
        let start_cut = p.cut();
        let mut best_cut = start_cut;
        let mut best_prefix = 0usize;
        let mut applied: Vec<VertexId> = Vec::new();
        for &(_, v) in &all {
            // The worker's gain was an estimate against the snapshot;
            // moves applied earlier in this loop can invalidate it, so
            // re-validate with the live cached gain.
            let live = cache.gain(v);
            evals += 1;
            if live <= 0 {
                continue;
            }
            if !tol.fits(g, p, v) {
                continue;
            }
            cache.record_move(g, p, v);
            p.move_vertex_with_gain(g, v, live);
            applied.push(v);
            if p.weight_imbalance() <= tol.base && p.cut() < best_cut {
                best_prefix = applied.len();
                best_cut = p.cut();
            }
        }
        // Roll back to the best balanced prefix (possibly empty).
        for &v in applied[best_prefix..].iter().rev() {
            cache.record_move(g, p, v);
            p.move_vertex(g, v);
        }
        debug_assert_eq!(p.cut(), best_cut);
        debug_assert_eq!(p.cut(), p.recompute_cut(g));
        (start_cut - p.cut(), evals)
    }
}

/// Greedy positive-gain sweep over the vertex range `lo..hi` against
/// `snapshot`, with starting gains served from the exact cache.
///
/// Gains of in-range vertices are maintained incrementally as the
/// worker's own moves land (lazy-deletion max-heap keyed by `(gain,
/// Reverse(vertex))`); out-of-range neighbors are frozen at their
/// snapshot sides. Every vertex moves at most once. Returns the moves
/// in the order they were made, each with its local gain estimate, plus
/// the number of starting gain evaluations (one per vertex).
fn propose_range(
    g: &Graph,
    snapshot: &[bool],
    cache: &GainCache,
    lo: usize,
    hi: usize,
) -> (Vec<(i64, VertexId)>, u64) {
    let len = hi - lo;
    let mut gains: Vec<i64> = Vec::with_capacity(len);
    let mut locked = vec![false; len];
    let mut heap: BinaryHeap<(i64, Reverse<VertexId>)> = BinaryHeap::new();
    for v in lo as VertexId..hi as VertexId {
        let gain = cache.gain(v);
        gains.push(gain);
        if gain > 0 {
            heap.push((gain, Reverse(v)));
        }
    }
    let evals = len as u64;
    let mut proposals: Vec<(i64, VertexId)> = Vec::new();
    while let Some((gain, Reverse(v))) = heap.pop() {
        let i = v as usize - lo;
        // Lazy deletion: stale entries (locked, or superseded by a
        // fresher gain) are skipped.
        if locked[i] || gains[i] != gain {
            continue;
        }
        locked[i] = true;
        proposals.push((gain, v));
        for (u, w) in g.neighbors_weighted(v) {
            let ui = u as usize;
            if ui < lo || ui >= hi {
                continue;
            }
            let j = ui - lo;
            if locked[j] {
                continue;
            }
            // v left its snapshot side: for u on that side the edge
            // became external (+2w), for u opposite it became internal
            // (−2w). Unlocked u is still on its snapshot side.
            let delta = if snapshot[ui] == snapshot[v as usize] {
                2 * w as i64
            } else {
                -2 * (w as i64)
            };
            gains[j] += delta;
            if gains[j] > 0 {
                heap.push((gains[j], Reverse(u)));
            }
        }
    }
    (proposals, evals)
}

/// Greedy positive-gain sweep over the boundary-list positions
/// `lo..hi` against `snapshot`, with starting gains served straight
/// from the exact cache instead of adjacency walks. In-chunk neighbor
/// gains are maintained incrementally (membership and local index are
/// O(1) via [`GainCache::boundary_index`]); out-of-chunk neighbors stay
/// frozen at their snapshot sides. Every vertex moves at most once.
fn propose_chunk(
    g: &Graph,
    snapshot: &[bool],
    cache: &GainCache,
    lo: usize,
    hi: usize,
) -> (Vec<(i64, VertexId)>, u64) {
    let verts = &cache.boundary()[lo..hi];
    let len = verts.len();
    let mut gains: Vec<i64> = Vec::with_capacity(len);
    let mut locked = vec![false; len];
    let mut heap: BinaryHeap<(i64, Reverse<VertexId>)> = BinaryHeap::new();
    for &v in verts {
        let gain = cache.gain(v);
        gains.push(gain);
        if gain > 0 {
            heap.push((gain, Reverse(v)));
        }
    }
    let mut evals = len as u64;
    let mut proposals: Vec<(i64, VertexId)> = Vec::new();
    while let Some((gain, Reverse(v))) = heap.pop() {
        let i = match cache.boundary_index(v) {
            Some(b) if b >= lo && b < hi => b - lo,
            _ => {
                debug_assert!(false, "heap entries always come from the chunk");
                continue;
            }
        };
        // Lazy deletion: stale entries (locked, or superseded by a
        // fresher gain) are skipped.
        if locked[i] || gains[i] != gain {
            continue;
        }
        locked[i] = true;
        proposals.push((gain, v));
        for (u, w) in g.neighbors_weighted(v) {
            let j = match cache.boundary_index(u) {
                Some(b) if b >= lo && b < hi => b - lo,
                _ => continue,
            };
            if locked[j] {
                continue;
            }
            let delta = if snapshot[u as usize] == snapshot[v as usize] {
                2 * w as i64
            } else {
                -2 * (w as i64)
            };
            gains[j] += delta;
            evals += 1;
            if gains[j] > 0 {
                heap.push((gains[j], Reverse(u)));
            }
        }
    }
    (proposals, evals)
}

impl Bisector for ParallelFm {
    fn name(&self) -> String {
        "PFM".into()
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

impl Refiner for ParallelFm {
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
        if g.num_vertices() < 2 {
            return (init, 0);
        }
        let threads = self.threads();
        let tol = Tolerance::of(g);
        let mut productive = 0u64;
        for _ in 0..self.max_rounds {
            let (improvement, evals) = self.round(g, &mut init, &mut ws.gain_cache, threads, tol);
            ws.add_proposals(evals);
            if improvement == 0 {
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
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn refine_never_increases_cut_and_keeps_balance() {
        let g = special::grid(8, 8);
        let pfm = ParallelFm::new().with_threads(4);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = seed::random_balanced(&g, &mut rng);
            let before = init.cut();
            let p = pfm.refine(&g, init, &mut rng);
            assert!(p.cut() <= before, "seed {seed}");
            assert!(p.is_balanced(&g), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "seed {seed}");
        }
    }

    #[test]
    fn repeat_runs_at_fixed_threads_are_identical() {
        let g = special::grid(10, 10);
        let pfm = ParallelFm::new().with_threads(4);
        let mut rng = StdRng::seed_from_u64(42);
        let init = seed::random_balanced(&g, &mut rng);
        let mut dummy = StdRng::seed_from_u64(0);
        let a = pfm.refine(&g, init.clone(), &mut dummy);
        let b = pfm.refine(&g, init, &mut dummy);
        assert_eq!(a, b);
    }

    #[test]
    fn consumes_no_randomness_when_refining() {
        let g = special::grid(6, 6);
        let pfm = ParallelFm::new().with_threads(3);
        let mut rng = StdRng::seed_from_u64(7);
        let init = seed::random_balanced(&g, &mut rng);
        let mut probe = rng.clone();
        let _ = pfm.refine(&g, init, &mut rng);
        assert_eq!(rng.next_u64(), probe.next_u64());
    }

    #[test]
    fn improves_a_random_start_substantially() {
        let g = special::grid(16, 16);
        let pfm = ParallelFm::new().with_threads(4);
        let mut rng = StdRng::seed_from_u64(3);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let p = pfm.refine(&g, init, &mut rng);
        // A random balanced cut of the 16×16 grid is ~240; local
        // refinement should at least halve it.
        assert!(p.cut() * 2 < before, "{} -> {}", before, p.cut());
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let g = special::cycle(24);
        let pfm = ParallelFm::new().with_threads(1);
        let mut rng = StdRng::seed_from_u64(9);
        let p = pfm.bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn counts_proposals_in_workspace() {
        let g = special::grid(8, 8);
        let pfm = ParallelFm::new().with_threads(2);
        let mut rng = StdRng::seed_from_u64(11);
        let init = seed::random_balanced(&g, &mut rng);
        let mut ws = Workspace::new();
        let (_, rounds) = pfm.refine_counted(&g, init, &mut rng, &mut ws);
        assert!(rounds >= 1);
        assert!(ws.take_proposals() as usize >= g.num_vertices());
    }

    #[test]
    fn tiny_graphs_are_no_ops() {
        let g = bisect_graph::Graph::empty(1);
        let pfm = ParallelFm::new();
        let mut rng = StdRng::seed_from_u64(0);
        let init = seed::random_balanced(&g, &mut rng);
        let mut ws = Workspace::new();
        let (p, rounds) = pfm.refine_counted(&g, init, &mut rng, &mut ws);
        assert_eq!(rounds, 0);
        assert_eq!(p.cut(), 0);
    }

    #[test]
    fn boundary_mode_never_increases_cut_and_keeps_balance() {
        let g = special::grid(8, 8);
        let pfm = ParallelFm::new().with_threads(4).with_boundary_seeds();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = seed::random_balanced(&g, &mut rng);
            let before = init.cut();
            let p = pfm.refine(&g, init, &mut rng);
            assert!(p.cut() <= before, "seed {seed}");
            assert!(p.is_balanced(&g), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "seed {seed}");
        }
    }

    #[test]
    fn boundary_mode_repeat_runs_at_fixed_threads_are_identical() {
        let g = special::grid(10, 10);
        let mut rng = StdRng::seed_from_u64(42);
        let init = seed::random_balanced(&g, &mut rng);
        let mut dummy = StdRng::seed_from_u64(0);
        for threads in [1, 4] {
            let pfm = ParallelFm::new()
                .with_threads(threads)
                .with_boundary_seeds();
            let a = pfm.refine(&g, init.clone(), &mut dummy);
            let b = pfm.refine(&g, init.clone(), &mut dummy);
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn boundary_mode_improves_like_full_mode() {
        let g = special::grid(16, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let full = ParallelFm::new()
            .with_threads(4)
            .refine(&g, init.clone(), &mut rng);
        let boundary = ParallelFm::new()
            .with_threads(4)
            .with_boundary_seeds()
            .refine(&g, init, &mut rng);
        assert!(full.cut() * 2 < before);
        assert!(
            boundary.cut() * 2 < before,
            "{} -> {}",
            before,
            boundary.cut()
        );
    }

    #[test]
    fn boundary_mode_leaves_cache_exact() {
        let g = special::grid(9, 7);
        let full = ParallelFm::new().with_threads(3);
        for pfm in [full, full.with_boundary_seeds()] {
            let mut ws = Workspace::new();
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = seed::random_balanced(&g, &mut rng);
                let (p, _) = pfm.refine_counted(&g, init, &mut rng, &mut ws);
                for v in g.vertices() {
                    assert_eq!(ws.gain_cache().gain(v), p.gain(&g, v), "{pfm:?} {seed}");
                }
            }
        }
    }

    #[test]
    fn boundary_mode_projected_entry_matches_plain_refine() {
        let g = special::grid(8, 8);
        let full = ParallelFm::new().with_threads(2);
        for pfm in [full, full.with_boundary_seeds()] {
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = seed::random_balanced(&g, &mut rng);
                let mut ws_a = Workspace::new();
                let (plain, rounds_a) = pfm.refine_counted(&g, init.clone(), &mut rng, &mut ws_a);
                let mut ws_b = Workspace::new();
                ws_b.gain_cache.init(&g, &init);
                let (projected, rounds_b) =
                    pfm.refine_projected_counted(&g, init, &mut rng, &mut ws_b);
                assert_eq!(plain, projected, "{pfm:?} {seed}");
                assert_eq!(rounds_a, rounds_b, "{pfm:?} {seed}");
                assert_eq!(
                    ws_a.take_proposals(),
                    ws_b.take_proposals(),
                    "{pfm:?} {seed}"
                );
            }
        }
    }

    #[test]
    fn weighted_graphs_respect_tolerance() {
        // Coarse graphs carry vertex weights; refinement must keep the
        // weighted imbalance within the largest vertex weight.
        let mut b = bisect_graph::GraphBuilder::new(6);
        for v in 0..6u32 {
            b.set_vertex_weight(v, (v as u64 % 3) + 1).unwrap();
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        let pfm = ParallelFm::new().with_threads(2);
        let mut rng = StdRng::seed_from_u64(5);
        let init = crate::seed::weight_balanced_random(&g, &mut rng);
        let balanced_before = init.is_balanced(&g);
        let p = pfm.refine(&g, init, &mut rng);
        if balanced_before {
            assert!(p.is_balanced(&g));
        }
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }
}
