//! Coarse-grained parallel refinement for million-cell levels: one
//! *propose in parallel, resolve serially* round, written once for
//! graphs ([`ParallelFm`]) and netlists
//! ([`crate::netlist::ParallelNetlistFm`]).
//!
//! A round cuts the level's cells into one contiguous chunk per worker:
//! cell ids in index order, or positions of the cut-boundary list the
//! gain cache tracks (the boundary-seeded mode below). Each worker runs
//! a greedy positive-gain sweep over its chunk against a *snapshot* of
//! the bisection (Gauss–Seidel within a chunk, Jacobi across chunks),
//! with starting gains served from the exact cache. The proposals are
//! then merged serially, sorted by `(gain desc, cell asc)`, and
//! resolved against the *live* bisection:
//!
//! * phase 1 re-validates each proposal with the live cached gain and
//!   applies it if that gain is still positive and the move keeps the
//!   sides within the FM pass slack;
//! * phase 2, on netlists only, pairs the proposals that phase 1
//!   blocked only for balance, as the paper's KL pairs its swaps.
//!
//! A best-balanced-prefix rollback over both phases — the discipline of
//! [`crate::fm`] — guarantees the round ends balanced (if it started
//! so) with a cut no larger than it started. Every applied or
//! rolled-back move goes through the cache, so it stays exact round to
//! round. [`Refiner::refine_projected_counted`] and its netlist twin
//! consume the cache they are handed; `refine_counted` builds it once
//! first.
//!
//! The round is written over the level's `Cells` and holds no per-kind
//! code. Graphs and netlists differ in one step: how a worker updates
//! the gains of its chunk when it virtually moves a cell against the
//! frozen snapshot (`Cells::frozen_move`, implemented per kind in the
//! balance layer). A graph walks the neighbours of the vertex (±2w per
//! edge); a netlist walks the nets of the cell, shifting their pin
//! counts in the worker's epoch-stamped overlay and deriving deltas
//! with the serial pass's `gain_term`. Phase 2 is the one policy
//! difference, kept off for graphs until their golden rows are
//! re-pinned. Every buffer lives in one workspace arena, so a warmed-up
//! round allocates nothing.
//!
//! # Determinism contract
//!
//! The round draws **no randomness** and is **deterministic at a fixed
//! thread count**: the chunks are a pure function of the cell count or
//! the boundary list (itself a pure function of the init state and move
//! history) and the thread count, each worker's sweep is a pure
//! function of its chunk and the snapshot, workers report in chunk
//! order, and the merge order is a total order. Two runs with the same
//! level, starting bisection, and thread count produce bit-identical
//! partitions. Unlike the serial refiners it is **not** bit-identical
//! across *different* thread counts — the chunk boundaries change which
//! local interactions each worker sees. The golden-pinned serial paths
//! (`KL`, `SA`, `FM`, and every pipeline built from them) are unaffected
//! by this module.
//!
//! # Boundary-seeded mode
//!
//! [`ParallelFm::with_boundary_seeds`] switches the chunk source from
//! all vertex ids to the current cut boundary, by position: no copy, no
//! sort, O(1) chunk membership through the cache's position index.
//! Chunking, merge and resolve are the same round; only the proposals'
//! source changes, so a round costs `O(boundary·deg)` rather than
//! `O(V + E)`. The netlist refiner always runs in this mode.
//!
//! # Rounds that cannot move
//!
//! Before each round, `run_rounds` returns when the side weights differ
//! by more than `2 · tol.pass`, which is `tol.pass + 2·w_max` for the
//! largest cell weight `w_max` (`Tolerance::beyond_one_move`). From
//! there no single move fits `tol.pass`: a move off the heavy side
//! leaves a difference of at least `|d| − 2·w_max > tol.pass`, and a
//! move off the light side widens it. So phase 1 of the resolve applies
//! nothing, phase 2's queue heads never fit, and the rollback undoes
//! nothing: the round would return improvement 0 with sides, cut and
//! gain cache untouched. The guard drops only its propose work and its
//! gain evaluations, in O(1). The bound is exact: from `2 · tol.pass`
//! a heaviest cell off the heavy side fits, and a round can improve.
//! Between the balance tolerance `tol.base` and `2 · tol.pass` a full
//! round still runs, and keeps a prefix only if it ends within
//! `tol.base`. The engine rebalances every projected level before
//! refining, so its runs never reach the guard; it serves callers that
//! refine levels outside the tolerance.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use bisect_graph::hypergraph::NetId;
use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::{self, Cells, Tolerance};
use crate::bisector::Refiner;
use crate::fm::Seeds;
use crate::netlist::NetlistBisection;
use crate::partition::{Bisection, Side};
use crate::workspace::Workspace;

/// Parallel Fiduccia–Mattheyses refinement of a graph bisection.
///
/// Rounds of *propose in parallel, resolve serially* run until a round
/// fails to improve the cut (or a safety cap of 64 rounds is hit). By
/// default the workers' chunks are contiguous ranges of vertex ids;
/// [`ParallelFm::with_boundary_seeds`] chunks the cut boundary instead.
/// See the module docs for the round and its determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelFm {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
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
    /// Creates the refiner with the process-default thread count.
    pub fn new() -> ParallelFm {
        ParallelFm {
            threads: None,
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

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }
}

impl Refiner for ParallelFm {
    fn name(&self) -> String {
        "PFM".into()
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let seeds = if self.boundary_seeds {
            Seeds::Boundary
        } else {
            Seeds::All
        };
        let plan = Rounds {
            threads: self.threads(),
            seeds,
            // The graph resolve does not pair yet: turning this on
            // re-pins the `PFM` golden rows.
            pair: false,
        };
        let rounds = run_rounds(g, &[], &mut init, ws, plan);
        (init, rounds)
    }
}

/// The round cap of both parallel refiners: every productive round
/// lowers the cut, so it only guards against pathological inputs.
pub(crate) const MAX_ROUNDS: usize = 64;

/// How a refiner runs its rounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rounds {
    /// Worker (and chunk) count.
    pub(crate) threads: usize,
    /// The chunk source: every cell id, or the cache's boundary list.
    pub(crate) seeds: Seeds,
    /// Whether the resolve pairs the proposals it blocked for balance
    /// (phase 2).
    pub(crate) pair: bool,
}

/// The round's workspace arena, shared by graphs and netlists: one
/// [`ChunkScratch`] per worker plus the serial merge and resolve
/// buffers, all reused round to round and call to call.
#[derive(Debug, Default)]
pub(crate) struct ParallelScratch {
    /// Per-chunk worker scratch; slot `k` serves chunk `k`.
    chunks: Vec<ChunkScratch>,
    /// Every chunk's proposals, merged into resolve order.
    all: Vec<(i64, VertexId)>,
    /// The serial resolve's queues and rollback state.
    resolve: ResolveScratch,
}

/// One propose worker's scratch, reused chunk to chunk.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Netlist workers' virtual pin counts; unused on graphs.
    overlay: NetOverlay,
    /// Local gain estimate per chunk position.
    gains: Vec<i64>,
    /// Whether the chunk position is fixed or already moved.
    locked: Vec<bool>,
    heap: BinaryHeap<(i64, Reverse<VertexId>)>,
    /// The chunk's moves in the order they were made, each with its
    /// local gain estimate.
    proposals: Vec<(i64, VertexId)>,
    /// Gain evaluations of the last [`propose`].
    evals: u64,
}

/// A netlist worker's private per-net pin counts for its own virtual
/// moves: a dense array read only where `stamp[net] == epoch`,
/// everything else falling through to the frozen bisection. Starting a
/// chunk bumps the epoch, invalidating every entry in O(1); the stamps
/// are cleared only when the epoch wraps.
#[derive(Debug, Default)]
pub(crate) struct NetOverlay {
    counts: Vec<[u32; 2]>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl NetOverlay {
    /// Empties the overlay for a level with `nets` nets.
    fn begin(&mut self, nets: usize) {
        if self.stamp.len() < nets {
            self.stamp.resize(nets, 0);
            self.counts.resize(nets, [0; 2]);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The virtual pin counts of `net`.
    #[inline]
    pub(crate) fn get(&self, net: NetId, frozen: &NetlistBisection) -> [u32; 2] {
        let n = net as usize;
        if self.stamp[n] == self.epoch {
            self.counts[n]
        } else {
            frozen.pins_on(net)
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, net: NetId, counts: [u32; 2]) {
        let n = net as usize;
        self.counts[n] = counts;
        self.stamp[n] = self.epoch;
    }
}

/// Runs up to [`MAX_ROUNDS`] rounds until one fails to improve the
/// cut, assuming the level's workspace gain cache is exact for
/// `(level, p)`; leaves it exact for the refined `p`. Returns before a
/// round whose sides are too far apart for any move to fit (see "Rounds
/// that cannot move" in the module docs). The last `fixed.len()` cells
/// never move. Adds every gain evaluation to the workspace's proposal
/// count and returns the number of productive rounds.
pub(crate) fn run_rounds<L: Cells>(
    level: &L,
    fixed: &[Side],
    p: &mut L::Part,
    ws: &mut Workspace,
    plan: Rounds,
) -> u64 {
    if level.num_cells() < 2 {
        return 0;
    }
    let tol = Tolerance::of(level);
    let mut productive = 0u64;
    for _ in 0..MAX_ROUNDS {
        // Such a round could not move a cell (module docs).
        if tol.beyond_one_move::<L>(p) {
            break;
        }
        let (improvement, evals) = round(level, fixed, p, ws, tol, plan);
        ws.add_proposals(evals);
        if improvement == 0 {
            break;
        }
        productive += 1;
    }
    productive
}

/// One propose/resolve round of a refiner running `plan`. Returns
/// `(cut improvement, gain evaluations)`; an improvement of zero means
/// the round applied nothing and the refiner is done.
pub(crate) fn round<L: Cells>(
    level: &L,
    fixed: &[Side],
    p: &mut L::Part,
    ws: &mut Workspace,
    tol: Tolerance,
    plan: Rounds,
) -> (u64, u64) {
    let (cache, scratch) = L::par_state(ws);
    let Some(evals) = propose_all(level, fixed, p, cache, scratch, plan) else {
        return (0, 0);
    };
    let (improvement, resolved) = resolve(
        level,
        p,
        cache,
        &scratch.all,
        &mut scratch.resolve,
        tol,
        plan.pair,
    );
    (improvement, evals + resolved)
}

/// The propose half of a round: runs one [`propose`] worker per chunk
/// against the snapshot `p` and merges their proposals into
/// `scratch.all` in resolve order. Returns the workers' gain
/// evaluations, or `None` when there is nothing to chunk.
fn propose_all<L: Cells>(
    level: &L,
    fixed: &[Side],
    p: &L::Part,
    cache: &L::Cache,
    scratch: &mut ParallelScratch,
    plan: Rounds,
) -> Option<u64> {
    let m = match plan.seeds {
        Seeds::All => level.num_cells(),
        Seeds::Boundary => L::boundary(cache).len(),
    };
    if m == 0 {
        return None;
    }
    let mobile = balance::mobile(level, fixed);
    let t = plan.threads.max(1).min(m);
    let chunk = m.div_ceil(t);
    let ranges = m.div_ceil(chunk);
    if scratch.chunks.len() < ranges {
        scratch.chunks.resize_with(ranges, ChunkScratch::default);
    }
    // Workers report into their own slots, so the merge below reads
    // them in chunk order regardless of scheduling.
    bisect_par::par_for_each_mut(t, &mut scratch.chunks[..ranges], |k, worker| {
        let range = k * chunk..((k + 1) * chunk).min(m);
        propose(level, p, cache, mobile, plan.seeds, range, worker);
    });
    let mut evals: u64 = 0;
    scratch.all.clear();
    for worker in &scratch.chunks[..ranges] {
        evals += worker.evals;
        scratch.all.extend_from_slice(&worker.proposals);
    }
    // Total merge order: best estimated gain first, cell id as the
    // deterministic tie-break.
    scratch
        .all
        .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    Some(evals)
}

/// Greedy positive-gain sweep over the chunk positions `range` against
/// the frozen bisection, with starting gains served straight from the
/// exact cache. In-chunk gains are maintained as the worker's own
/// virtual moves land ([`Cells::frozen_move`], lazy-deletion
/// max-heap keyed by `(gain, Reverse(cell))`); out-of-chunk cells stay
/// frozen at their snapshot sides. Fixed cells (from `mobile` on) never
/// move and never receive delta updates; every other cell moves at most
/// once. Leaves
/// the moves in `out.proposals` and the gain evaluations — one per
/// starting gain and one per delta update — in `out.evals`.
fn propose<L: Cells>(
    level: &L,
    frozen: &L::Part,
    cache: &L::Cache,
    mobile: VertexId,
    seeds: Seeds,
    range: Range<usize>,
    out: &mut ChunkScratch,
) {
    let boundary = L::boundary(cache);
    let Range { start: lo, end: hi } = range;
    // The chunk position of `c`, when it lies in the chunk.
    let slot = |c: VertexId| {
        let at = match seeds {
            Seeds::All => c as usize,
            Seeds::Boundary => L::boundary_index(cache, c)?,
        };
        (lo..hi).contains(&at).then(|| at - lo)
    };
    out.overlay.begin(level.overlay_nets());
    out.gains.clear();
    out.locked.clear();
    out.locked.resize(hi - lo, false);
    out.heap.clear();
    out.proposals.clear();
    for (i, at) in (lo..hi).enumerate() {
        let c = match seeds {
            Seeds::All => at as VertexId,
            Seeds::Boundary => boundary[at],
        };
        let gain = L::cached_gain(cache, c);
        out.gains.push(gain);
        if c >= mobile {
            out.locked[i] = true;
        } else if gain > 0 {
            out.heap.push((gain, Reverse(c)));
        }
    }
    let mut evals = (hi - lo) as u64;
    let ChunkScratch {
        overlay,
        gains,
        locked,
        heap,
        proposals,
        ..
    } = out;
    while let Some((gain, Reverse(c))) = heap.pop() {
        let Some(i) = slot(c) else {
            debug_assert!(false, "heap entries always come from the chunk");
            continue;
        };
        // Lazy deletion: stale entries (locked, or superseded by a
        // fresher gain) are skipped.
        if locked[i] || gains[i] != gain {
            continue;
        }
        locked[i] = true;
        proposals.push((gain, c));
        let side = L::side(frozen, c);
        level.frozen_move(frozen, overlay, c, |q, [same, opposite]| {
            let Some(j) = slot(q) else { return };
            if locked[j] {
                return;
            }
            let delta = if L::side(frozen, q) == side {
                same
            } else {
                opposite
            };
            if delta == 0 {
                return;
            }
            gains[j] += delta;
            evals += 1;
            if gains[j] > 0 {
                heap.push((gains[j], Reverse(q)));
            }
        });
    }
    out.evals = evals;
}

/// Serial resolve of the merged proposals under the level's balance
/// tolerances. Every live re-validation is a cached O(1) lookup, and
/// every applied (or rolled-back) move goes through the cache.
///
/// Phase 1 sweeps the proposals in merge order and applies each one
/// that still has positive live gain and keeps the sides within
/// `tol.pass`. With `pair`, a proposal blocked only by `tol.pass` is
/// queued by direction instead of dropped, and phase 2 pairs the queues
/// as KL pairs its swaps: it applies the head of whichever queue still
/// fits `tol.pass`, the higher live gain when both fit (ties move off
/// the heavier side), skips heads whose live gain is no longer
/// positive, and drops both heads when neither fits. Both phases feed
/// one best-balanced-prefix rollback, and phase 1 applies exactly what
/// a resolve without pairing does, so pairing never ends a round above
/// the cut it reaches without. Each cell moves at most once; the cost
/// stays O(proposals). Returns `(cut improvement, gain evaluations)`.
fn resolve<L: Cells>(
    level: &L,
    p: &mut L::Part,
    cache: &mut L::Cache,
    proposals: &[(i64, VertexId)],
    buf: &mut ResolveScratch,
    tol: Tolerance,
    pair: bool,
) -> (u64, u64) {
    let start_cut = L::cut(p);
    let mut evals: u64 = 0;
    buf.begin(start_cut);
    for &(_, c) in proposals {
        evals += 1;
        if L::cached_gain(cache, c) <= 0 {
            continue;
        }
        if tol.fits(level, p, c) {
            buf.apply(level, p, cache, c, tol.base);
        } else if pair {
            buf.blocked[L::side(p, c).index()].push(c);
        }
    }
    let mut next = [0usize; 2];
    loop {
        // Each queue's first head with positive live gain.
        let mut heads = [None; 2];
        for (s, head) in heads.iter_mut().enumerate() {
            while let Some(&c) = buf.blocked[s].get(next[s]) {
                evals += 1;
                let live = L::cached_gain(cache, c);
                if live > 0 {
                    *head = Some((live, c));
                    break;
                }
                next[s] += 1;
            }
        }
        if heads == [None, None] {
            break;
        }
        // The fitting head with the higher live gain; ties move off
        // the heavier side.
        let [a, b] = L::side_weights(p);
        let heavy = usize::from(b > a);
        let pick = heads
            .iter()
            .enumerate()
            .filter_map(|(s, h)| h.filter(|&(_, c)| tol.fits(level, p, c)).map(|h| (s, h)))
            .max_by_key(|&(s, (live, _))| (live, s == heavy));
        match pick {
            Some((s, (_, c))) => {
                next[s] += 1;
                buf.apply(level, p, cache, c, tol.base);
            }
            None => {
                next[0] += 1;
                next[1] += 1;
            }
        }
    }
    buf.rollback(level, p, cache);
    (start_cut - L::cut(p), evals)
}

/// The serial resolve's buffers and its best-balanced-prefix state.
#[derive(Debug, Default)]
pub(crate) struct ResolveScratch {
    /// The moves the resolve applied, for the best-prefix rollback.
    applied: Vec<VertexId>,
    /// Proposals blocked only by `tol.pass`, in merge order, indexed by
    /// the side they would leave.
    blocked: [Vec<VertexId>; 2],
    /// Length of the best balanced prefix of `applied`.
    best_len: usize,
    /// Cut after that prefix.
    best_cut: u64,
}

impl ResolveScratch {
    /// Starts a resolve from a bisection cutting `cut`.
    pub(crate) fn begin(&mut self, cut: u64) {
        self.applied.clear();
        for queue in &mut self.blocked {
            queue.clear();
        }
        self.best_len = 0;
        self.best_cut = cut;
    }

    /// Moves `c` through the cache and keeps the prefix if it ends
    /// within `base` at a new best cut.
    pub(crate) fn apply<L: Cells>(
        &mut self,
        level: &L,
        p: &mut L::Part,
        cache: &mut L::Cache,
        c: VertexId,
        base: u64,
    ) {
        level.cached_move(p, cache, c);
        self.applied.push(c);
        let [a, b] = L::side_weights(p);
        if a.abs_diff(b) <= base && L::cut(p) < self.best_cut {
            self.best_len = self.applied.len();
            self.best_cut = L::cut(p);
        }
    }

    /// Rolls back to the best balanced prefix (possibly empty). Each
    /// cell moved at most once, so moving it back restores its side.
    pub(crate) fn rollback<L: Cells>(&self, level: &L, p: &mut L::Part, cache: &mut L::Cache) {
        for &c in self.applied[self.best_len..].iter().rev() {
            level.cached_move(p, cache, c);
        }
        debug_assert_eq!(L::cut(p), self.best_cut);
        debug_assert_eq!(L::cut(p), level.recompute_cut(p));
    }
}

#[cfg(test)]
impl ParallelScratch {
    /// Sets every worker's overlay epoch, so a test can force the
    /// wrap-around (and its stamp reset) within a few rounds.
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        for worker in &mut self.chunks {
            worker.overlay.epoch = epoch;
        }
    }
}

/// [`round`] with `resolve` in place of the shared resolve, so tests
/// can hold the shared one to an independent oracle.
#[cfg(test)]
pub(crate) fn round_resolved_by<L: Cells>(
    level: &L,
    fixed: &[Side],
    p: &mut L::Part,
    ws: &mut Workspace,
    plan: Rounds,
    resolve: impl FnOnce(
        &mut L::Part,
        &mut L::Cache,
        &[(i64, VertexId)],
        &mut ResolveScratch,
    ) -> (u64, u64),
) -> (u64, u64) {
    let (cache, scratch) = L::par_state(ws);
    let Some(evals) = propose_all(level, fixed, p, cache, scratch, plan) else {
        return (0, 0);
    };
    let (improvement, resolved) = resolve(p, cache, &scratch.all, &mut scratch.resolve);
    (improvement, evals + resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Bisector;
    use crate::seed;
    use bisect_gen::special;
    use bisect_graph::hypergraph::Netlist;
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

    /// A `Gnp(n, 6/n)` sample with vertex and edge weights drawn from
    /// `1..=3`, contracted by `levels` random maximal matchings.
    fn contracted_gnp(n: usize, levels: usize, seed: u64) -> Graph {
        use bisect_graph::{contraction, matching, GraphBuilder};
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(seed);
        let params = bisect_gen::gnp::GnpParams::new(n, 6.0 / n as f64).unwrap();
        let base = bisect_gen::gnp::sample(&mut rng, &params);
        let mut b = GraphBuilder::new(n);
        for v in base.vertices() {
            b.set_vertex_weight(v, rng.gen_range(1..=3)).unwrap();
        }
        for (u, v, _) in base.edges() {
            b.add_weighted_edge(u, v, rng.gen_range(1..=3)).unwrap();
        }
        let mut g = b.build();
        for _ in 0..levels {
            let m = matching::random_maximal(&g, &mut rng);
            g = contraction::contract_matching(&g, &m).coarse().clone();
        }
        g
    }

    /// `g` as a netlist of 2-pin nets: one net per edge, added for
    /// `v < u` in adjacency order with the edge's weight, and the vertex
    /// weights as cell weights.
    fn two_pin_netlist(g: &Graph) -> Netlist {
        let mut b = bisect_graph::hypergraph::NetlistBuilder::new(g.num_vertices());
        for v in g.vertices() {
            b.set_cell_weight(v, g.vertex_weight(v)).unwrap();
            for (u, w) in g.neighbors_weighted(v) {
                if v < u {
                    b.add_weighted_net(&[v, u], w).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn graph_and_two_pin_netlist_matchers_pair_alike() {
        // One range loop serves both matchers; on 2-pin nets the
        // connectivity score of a partner is the edge weight, so the
        // heavy-edge and connectivity rules must pick the same pairs.
        use crate::netlist::ParallelCellMatching;
        use crate::pipeline::ParallelMatching;
        use bisect_graph::{contraction, matching};

        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = bisect_gen::gnp::GnpParams::with_average_degree(400, 3.0).unwrap();
            let gnp = bisect_gen::gnp::sample(&mut rng, &params);
            let m = matching::random_maximal(&gnp, &mut rng);
            let level = contraction::contract_matching(&gnp, &m).coarse().clone();
            let params = bisect_gen::gbreg::GbregParams::new(400, 16, 3).unwrap();
            let gbreg = bisect_gen::gbreg::sample(&mut rng, &params).unwrap();
            for (name, g) in [("gnp", &gnp), ("level", &level), ("gbreg", &gbreg)] {
                let nl = two_pin_netlist(g);
                for threads in 1..=3 {
                    let graph = ParallelMatching::new().with_threads(threads).matching(g);
                    let netlist = ParallelCellMatching::new()
                        .with_threads(threads)
                        .matching(&nl);
                    let at = format!("{name} seed {seed} threads {threads}");
                    assert!(!netlist.is_empty(), "{at}");
                    assert_eq!(graph.pairs(), netlist.as_slice(), "{at}");
                }
            }
        }
    }

    #[test]
    fn graph_and_two_pin_netlist_rounds_move_alike() {
        // One workspace per kind for every run: warm reuse must not
        // matter. The netlist resolve pairs nothing here, as on graphs.
        let (mut ws_graph, mut ws_netlist) = (Workspace::new(), Workspace::new());
        let mut rounds = 0;
        for levels in 0..=2 {
            let g = contracted_gnp(400, levels, 0x3F + levels as u64);
            let nl = two_pin_netlist(&g);
            for threads in 1..=3 {
                let plan = Rounds {
                    threads,
                    seeds: Seeds::Boundary,
                    pair: false,
                };
                for seed in 0..8u64 {
                    let mut pg = seed::weight_balanced_random(&g, &mut StdRng::seed_from_u64(seed));
                    let mut pn = NetlistBisection::from_sides(&nl, pg.sides().to_vec()).unwrap();
                    ws_graph.gain_cache.init(&g, &pg);
                    ws_netlist.netlist_cache.init(&nl, &pn);
                    let rounds_g = run_rounds(&g, &[], &mut pg, &mut ws_graph, plan);
                    let rounds_n = run_rounds(&nl, &[], &mut pn, &mut ws_netlist, plan);
                    let at = format!("levels {levels} threads {threads} seed {seed}");
                    assert_eq!(pg.sides(), pn.sides(), "{at}");
                    assert_eq!((pg.cut(), rounds_g), (pn.cut(), rounds_n), "{at}");
                    assert_eq!(
                        ws_graph.take_proposals(),
                        ws_netlist.take_proposals(),
                        "{at}"
                    );
                    rounds += rounds_g;
                }
            }
        }
        assert!(rounds > 72, "the runs must refine: {rounds} rounds");
    }

    /// Every plan a refiner can run: each chunk source, with and without
    /// pairing, at 1–3 threads.
    fn all_plans() -> impl Iterator<Item = Rounds> {
        (1..=3).flat_map(|threads| {
            [Seeds::All, Seeds::Boundary]
                .into_iter()
                .flat_map(move |seeds| {
                    [false, true].map(|pair| Rounds {
                        threads,
                        seeds,
                        pair,
                    })
                })
        })
    }

    /// The sides and cut of `p`, for comparing bisections of either kind.
    fn part_state<L: Cells>(level: &L, p: &L::Part) -> (Vec<Side>, u64) {
        let sides = (0..level.num_cells() as VertexId)
            .map(|c| L::side(p, c))
            .collect();
        (sides, L::cut(p))
    }

    /// Every cached gain and the boundary list, in order.
    fn cache_state<L: Cells>(level: &L, ws: &mut Workspace) -> (Vec<i64>, Vec<VertexId>) {
        let (cache, _) = L::par_state(ws);
        let gains = (0..level.num_cells() as VertexId)
            .map(|c| L::cached_gain(cache, c))
            .collect();
        (gains, L::boundary(cache).to_vec())
    }

    /// Draws a weight-balanced start and moves random cells from side B
    /// to side A until no single move fits, then up to two more. Checks,
    /// for every plan, that the unguarded round moves nothing and leaves
    /// the gain cache as a fresh init builds it, and that `run_rounds`
    /// skips it. Returns the evaluations the skipped rounds would spend.
    fn assert_rounds_past_the_bound_are_idle<L: Cells>(
        level: &L,
        fixed: &[Side],
        seed: u64,
    ) -> u64 {
        use rand::Rng;

        let tol = Tolerance::of(level);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut start = balance::weight_balanced(level, &[], &mut rng);
        let mut extra: usize = rng.gen_range(0..=2);
        let n = level.num_cells() as VertexId;
        loop {
            let beyond = tol.beyond_one_move::<L>(&start);
            if beyond && extra == 0 {
                break;
            }
            extra -= usize::from(beyond);
            let c = rng.gen_range(0..n);
            if L::side(&start, c) == Side::B {
                level.move_cell(&mut start, c);
            }
        }
        let mut fresh = Workspace::new();
        level.init_cache(&start, &mut fresh);
        let (want_part, want_cache) = (part_state(level, &start), cache_state(level, &mut fresh));
        let mut wasted = 0;
        for plan in all_plans() {
            let at = format!("seed {seed} {plan:?}");
            let mut ws = Workspace::new();
            level.init_cache(&start, &mut ws);
            let mut p = start.clone();
            let (improvement, evals) = round(level, fixed, &mut p, &mut ws, tol, plan);
            assert_eq!(improvement, 0, "{at}");
            assert_eq!(part_state(level, &p), want_part, "{at}");
            assert_eq!(cache_state(level, &mut ws), want_cache, "{at}");
            wasted += evals;
            ws.take_proposals();
            let rounds = run_rounds(level, fixed, &mut p, &mut ws, plan);
            assert_eq!((rounds, ws.take_proposals()), (0, 0), "{at}");
            assert_eq!(part_state(level, &p), want_part, "{at}");
            assert_eq!(cache_state(level, &mut ws), want_cache, "{at}");
        }
        wasted
    }

    /// A Rent netlist of `cells` cells, contracted by `levels` random
    /// cell matchings.
    fn contracted_rent(cells: usize, levels: usize, seed: u64) -> Netlist {
        use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
        use bisect_graph::hypergraph::{contract_cells, random_cell_matching};

        let mut rng = StdRng::seed_from_u64(seed);
        let params = RentNetlistParams::new(cells, 3 * cells / 2, 5, 1.8, 0.1).unwrap();
        let mut nl = sample_streamed(&mut rng, &params);
        for _ in 0..levels {
            let pairs = random_cell_matching(&nl, &mut rng);
            nl = contract_cells(&nl, &pairs).coarse().clone();
        }
        nl
    }

    #[test]
    fn rounds_past_twice_the_pass_slack_move_nothing_and_are_skipped() {
        use rand::Rng;

        let mut wasted = 0;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let unit_gnp = {
                let params = bisect_gen::gnp::GnpParams::with_average_degree(300, 4.0).unwrap();
                bisect_gen::gnp::sample(&mut rng, &params)
            };
            let weighted_gnp = contracted_gnp(400, 2, seed);
            let unit_rent = contracted_rent(300, 0, seed);
            let weighted_rent = contracted_rent(600, 2, seed);
            for fixed_percent in [0, 10] {
                // The last ~`fixed_percent`% of the cells are fixed; a
                // round reads only how many.
                let mut fixed_tail = |n: usize| -> Vec<Side> {
                    let k = (0..n)
                        .filter(|_| rng.gen_range(0..100) < fixed_percent)
                        .count();
                    vec![Side::A; k]
                };
                for g in [&unit_gnp, &weighted_gnp] {
                    let fixed = fixed_tail(g.num_vertices());
                    wasted += assert_rounds_past_the_bound_are_idle(g, &fixed, seed);
                }
                for nl in [&unit_rent, &weighted_rent] {
                    let fixed = fixed_tail(nl.num_cells());
                    wasted += assert_rounds_past_the_bound_are_idle(nl, &fixed, seed);
                }
            }
        }
        assert!(wasted > 0, "the skipped rounds must have had work to skip");
    }

    /// Runs a round and `run_rounds` on `level` from `sides`, which sit
    /// exactly `2 · pass` apart, and checks both reach cut 0 balanced.
    fn assert_round_from_the_bound_improves<L: Cells>(level: &L, sides: &[bool]) {
        let tol = Tolerance::of(level);
        let start = level.part(sides.to_vec());
        let [a, b] = L::side_weights(&start);
        assert_eq!(a.abs_diff(b), 2 * tol.pass);
        assert!(!tol.beyond_one_move::<L>(&start));
        for plan in all_plans() {
            let mut ws = Workspace::new();
            level.init_cache(&start, &mut ws);
            let mut p = start.clone();
            let (improvement, _) = round(level, &[], &mut p, &mut ws, tol, plan);
            assert_eq!((improvement, L::cut(&p)), (4, 0), "{plan:?}");
            let mut p = start.clone();
            level.init_cache(&p, &mut ws);
            let rounds = run_rounds(level, &[], &mut p, &mut ws, plan);
            assert!(rounds >= 1, "{plan:?}");
            let [a, b] = L::side_weights(&p);
            assert_eq!((L::cut(&p), a.abs_diff(b)), (0, 0), "{plan:?}");
        }
    }

    #[test]
    fn a_round_from_twice_the_pass_slack_can_improve() {
        // Eight unit cells, six on side A: the sides differ by 4, which
        // is 2 · pass. Cells 0 and 1 each cut both edges to side B's
        // cells 6 and 7; moving both leaves nothing cut, and the second
        // move restores balance. So the guard's bound cannot be lowered.
        let g = Graph::from_edges(8, &[(0, 6), (0, 7), (1, 6), (1, 7)]).unwrap();
        let sides = [false, false, false, false, false, false, true, true];
        assert_round_from_the_bound_improves(&g, &sides);
        assert_round_from_the_bound_improves(&two_pin_netlist(&g), &sides);
    }
}
