//! Coarse-grained parallel netlist refinement for million-cell
//! instances — the hypergraph counterpart of [`crate::par_fm`].
//!
//! [`ParallelNetlistFm`] chunks the cell boundary tracked by the
//! workspace [`NetlistGainCache`] by position, lets one worker per
//! chunk run a greedy positive-gain sweep against a *snapshot* of the
//! bisection (Gauss–Seidel within a chunk, Jacobi across chunks), then
//! merges the proposed moves serially in two phases. Phase 1 sweeps
//! them sorted by `(gain desc, cell asc)`, re-validates each against
//! the live cached gain and applies it if it still improves the cut
//! within the FM pass slack; a proposal blocked only by that slack is
//! queued by direction. Phase 2 pairs the two queues, as the paper's KL
//! pairs its swaps: the head of whichever queue still fits goes next.
//! A best-balanced-prefix rollback over both phases — the discipline
//! shared with [`super::NetlistFm`] — guarantees every round ends
//! balanced (if it started so) with a cut no larger than it started.
//! Phase 1 applies exactly what a single sweep would, so a round never
//! ends above the single sweep's cut from the same state: that is the
//! per-round dominance the unit tests check against the single sweep.
//!
//! Workers never touch the live bisection: each keeps a private,
//! epoch-stamped overlay of per-net pin counts for its own virtual
//! moves in a [`Workspace`] arena slot, so gain deltas use the same
//! [`super::gain_term`] algebra as the serial pass while reading
//! everything else from the frozen snapshot. Starting gains come
//! straight from the exact cache — a round costs `O(boundary · pins)`
//! rather than `O(cells + pins)`, and allocates nothing once warm.
//!
//! # Determinism contract
//!
//! Like [`crate::par_fm::ParallelFm`], this refiner draws **no
//! randomness** and is **deterministic at a fixed thread count**: the
//! boundary order is a pure function of the init state and move
//! history, the chunking is a pure function of that order and the
//! thread count, workers are pure functions of their chunk and the
//! snapshot, and the merge order is total. It is *not* bit-identical
//! across different thread counts (chunk boundaries move). The
//! golden-pinned serial netlist paths are unaffected.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bisect_graph::hypergraph::{NetId, Netlist};
use bisect_graph::VertexId;
use rand::RngCore;

use crate::balance::Tolerance;
use crate::partition::Side;
use crate::workspace::Workspace;

use super::{gain_term, NetlistBisection, NetlistGainCache, NetlistRefiner};

/// Boundary-chunked parallel Fiduccia–Mattheyses on netlists.
///
/// Rounds of *propose in parallel, resolve serially* run until a round
/// fails to improve the net cut (or `max_rounds` is hit). A round keeps
/// only a prefix of its moves that ends within the balance tolerance
/// ([`NetlistBisection::is_balanced`]), and the refiner does not
/// rebalance on entry. An input outside the tolerance therefore
/// usually comes back unchanged with 0 rounds: only when some prefix of
/// one round's moves happens to restore balance does it move at all.
/// Rebalance first (see [`super::rebalance_with_cache`]), as
/// [`super::NetlistPipeline`] does at every level. Implements
/// [`NetlistRefiner`] with the projected-cache protocol, so the engine
/// seeds each uncoarsening level from the projected cache instead of an
/// `O(cells + pins)` rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelNetlistFm {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
    /// Safety cap on propose/resolve rounds.
    max_rounds: usize,
}

impl Default for ParallelNetlistFm {
    fn default() -> ParallelNetlistFm {
        ParallelNetlistFm::new()
    }
}

impl ParallelNetlistFm {
    /// Creates the refiner with the process-default thread count and a
    /// generous round cap (rounds strictly decrease the cut, so the cap
    /// only guards against pathological inputs).
    pub fn new() -> ParallelNetlistFm {
        ParallelNetlistFm {
            threads: None,
            max_rounds: 64,
        }
    }

    /// Pins the worker (and chunk) count. The determinism regression
    /// tests use this to compare repeat runs at a fixed width.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> ParallelNetlistFm {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// Caps the number of propose/resolve rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> ParallelNetlistFm {
        assert!(max_rounds > 0, "need at least one round");
        self.max_rounds = max_rounds;
        self
    }

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }

    /// One propose/resolve round. `ws.netlist_cache` must be exact for
    /// `(nl, p)` on entry and is exact for the updated `p` on exit;
    /// every buffer comes from `ws.pnfm`. Returns `(cut improvement,
    /// gain evaluations)`; an improvement of zero means the round
    /// applied nothing and the refiner is done.
    fn round_boundary(
        nl: &Netlist,
        fixed: &[bool],
        p: &mut NetlistBisection,
        ws: &mut Workspace,
        tol: Tolerance,
        threads: usize,
        resolve: Resolve,
    ) -> (u64, u64) {
        let cache = &mut ws.netlist_cache;
        let scratch = &mut ws.pnfm;
        // Chunk the boundary list by *position* — no copy, no sort,
        // O(1) membership via the cache's position index. The list
        // order is a pure function of the init state and move history,
        // so the chunking (and the whole round) stays deterministic at
        // a fixed thread count.
        let m = cache.boundary().len();
        if m == 0 {
            return (0, 0);
        }
        let t = threads.max(1).min(m);
        let chunk = m.div_ceil(t);
        let ranges = m.div_ceil(chunk);
        if scratch.chunks.len() < ranges {
            scratch.chunks.resize_with(ranges, ChunkScratch::default);
        }

        let frozen: &NetlistBisection = p;
        let shared: &NetlistGainCache = cache;
        bisect_par::par_for_each_mut(t, &mut scratch.chunks[..ranges], |k, worker| {
            let lo = k * chunk;
            let hi = ((k + 1) * chunk).min(m);
            worker.propose(nl, frozen, shared, fixed, lo, hi);
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
        let (improvement, resolved) =
            resolve(nl, p, cache, &scratch.all, &mut scratch.resolve, tol);
        (improvement, evals + resolved)
    }

    /// Serial two-phase resolve of the merged proposals, with the
    /// tolerances of the serial netlist FM pass. Every live
    /// re-validation is a cached O(1) lookup, and every applied (or
    /// rolled-back) move is recorded so the cache stays exact round to
    /// round.
    ///
    /// Phase 1 sweeps the proposals in merge order and applies each one
    /// that still has positive live gain and keeps the sides within
    /// `tol.pass`. A proposal blocked only by `tol.pass` is queued by
    /// direction instead of dropped. Phase 2 pairs the queues as KL
    /// pairs its swaps: it applies the head of whichever queue still
    /// fits `tol.pass`, the higher live gain when both fit (ties move
    /// off the heavier side), skips heads whose live gain is no longer
    /// positive, and drops both heads when neither fits. Both phases
    /// feed one best-balanced-prefix rollback, and phase 1 applies
    /// exactly what the single sweep did, so a round never ends above
    /// the cut the single sweep reaches from the same state. Each cell
    /// moves at most once; the cost stays O(proposals). Returns `(cut
    /// improvement, gain evaluations)`.
    fn resolve(
        nl: &Netlist,
        p: &mut NetlistBisection,
        cache: &mut NetlistGainCache,
        proposals: &[(i64, VertexId)],
        buf: &mut ResolveScratch,
        tol: Tolerance,
    ) -> (u64, u64) {
        let start_cut = p.cut();
        let mut evals: u64 = 0;
        buf.begin(start_cut);
        for &(_, c) in proposals {
            evals += 1;
            if cache.gain(c) <= 0 {
                continue;
            }
            if tol.fits(nl, p, c) {
                buf.apply(nl, p, cache, c, tol.base);
            } else {
                buf.blocked[p.side(c).index()].push(c);
            }
        }
        let mut next = [0usize; 2];
        loop {
            // Each queue's first head with positive live gain.
            let mut heads = [None; 2];
            for (s, head) in heads.iter_mut().enumerate() {
                while let Some(&c) = buf.blocked[s].get(next[s]) {
                    evals += 1;
                    let live = cache.gain(c);
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
            let heavy = usize::from(p.weight(Side::B) > p.weight(Side::A));
            let pick = heads
                .iter()
                .enumerate()
                .filter_map(|(s, h)| h.filter(|&(_, c)| tol.fits(nl, p, c)).map(|h| (s, h)))
                .max_by_key(|&(s, (live, _))| (live, s == heavy));
            match pick {
                Some((s, (_, c))) => {
                    next[s] += 1;
                    buf.apply(nl, p, cache, c, tol.base);
                }
                None => {
                    next[0] += 1;
                    next[1] += 1;
                }
            }
        }
        buf.rollback(nl, p, cache);
        (start_cut - p.cut(), evals)
    }

    /// Round loop shared by both refine entry points; assumes
    /// `ws.netlist_cache` is exact for `(nl, init)` on entry.
    fn refine_rounds(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        init: &mut NetlistBisection,
        ws: &mut Workspace,
        resolve: Resolve,
    ) -> u64 {
        let tol = Tolerance::of(nl);
        let threads = self.threads();
        let mut productive = 0u64;
        for _ in 0..self.max_rounds {
            let (improvement, evals) =
                ParallelNetlistFm::round_boundary(nl, fixed, init, ws, tol, threads, resolve);
            ws.add_proposals(evals);
            if improvement == 0 {
                break;
            }
            productive += 1;
        }
        productive
    }
}

/// A serial resolve of one round's merged proposals; returns `(cut
/// improvement, gain evaluations)`.
type Resolve = fn(
    &Netlist,
    &mut NetlistBisection,
    &mut NetlistGainCache,
    &[(i64, VertexId)],
    &mut ResolveScratch,
    Tolerance,
) -> (u64, u64);

/// [`ParallelNetlistFm`]'s workspace arena: one [`ChunkScratch`] per
/// worker plus the serial merge buffers, all reused round to round and
/// call to call, so a warmed-up round allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ParallelNetlistScratch {
    /// Per-chunk worker scratch; slot `k` serves chunk `k`.
    chunks: Vec<ChunkScratch>,
    /// Every chunk's proposals, merged into resolve order.
    all: Vec<(i64, VertexId)>,
    /// The serial resolve's queues and rollback state.
    resolve: ResolveScratch,
}

/// The serial resolve's buffers and its best-balanced-prefix state.
#[derive(Debug, Default)]
struct ResolveScratch {
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
    fn begin(&mut self, cut: u64) {
        self.applied.clear();
        for queue in &mut self.blocked {
            queue.clear();
        }
        self.best_len = 0;
        self.best_cut = cut;
    }

    /// Moves `c` through the cache's mover and keeps the prefix if it
    /// ends within `base` at a new best cut.
    fn apply(
        &mut self,
        nl: &Netlist,
        p: &mut NetlistBisection,
        cache: &mut NetlistGainCache,
        c: VertexId,
        base: u64,
    ) {
        cache.move_cell(nl, p, c);
        self.applied.push(c);
        if p.weight_imbalance() <= base && p.cut() < self.best_cut {
            self.best_len = self.applied.len();
            self.best_cut = p.cut();
        }
    }

    /// Rolls back to the best balanced prefix (possibly empty). Each
    /// cell moved at most once, so moving it back restores its side.
    fn rollback(&self, nl: &Netlist, p: &mut NetlistBisection, cache: &mut NetlistGainCache) {
        for &c in self.applied[self.best_len..].iter().rev() {
            cache.move_cell(nl, p, c);
        }
        debug_assert_eq!(p.cut(), self.best_cut);
        debug_assert_eq!(p.cut(), p.recompute_cut(nl));
    }
}

#[cfg(test)]
impl ParallelNetlistScratch {
    /// Sets every worker's overlay epoch, so a test can force the
    /// wrap-around (and its stamp reset) within a few rounds.
    pub(crate) fn force_epoch(&mut self, epoch: u32) {
        for worker in &mut self.chunks {
            worker.overlay.epoch = epoch;
        }
    }
}

/// A worker's private per-net pin counts for its own virtual moves: a
/// dense array read only where `stamp[net] == epoch`, everything else
/// falling through to the frozen bisection. Starting a chunk bumps the
/// epoch, invalidating every entry in O(1); the stamps are cleared only
/// when the epoch wraps.
#[derive(Debug, Default)]
struct NetOverlay {
    counts: Vec<[u32; 2]>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl NetOverlay {
    /// Empties the overlay for a netlist with `nets` nets.
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
    fn get(&self, net: NetId, frozen: &NetlistBisection) -> [u32; 2] {
        let n = net as usize;
        if self.stamp[n] == self.epoch {
            self.counts[n]
        } else {
            frozen.pins_on(net)
        }
    }

    #[inline]
    fn set(&mut self, net: NetId, counts: [u32; 2]) {
        let n = net as usize;
        self.counts[n] = counts;
        self.stamp[n] = self.epoch;
    }
}

/// One propose worker's scratch, reused chunk to chunk.
#[derive(Debug, Default)]
struct ChunkScratch {
    overlay: NetOverlay,
    /// Local gain estimate per chunk position.
    gains: Vec<i64>,
    /// Whether the chunk position is fixed or already moved.
    locked: Vec<bool>,
    heap: BinaryHeap<(i64, Reverse<VertexId>)>,
    /// The chunk's moves in the order they were made, each with its
    /// local gain estimate.
    proposals: Vec<(i64, VertexId)>,
    /// Gain evaluations of the last [`ChunkScratch::propose`].
    evals: u64,
}

impl ChunkScratch {
    /// Greedy positive-gain sweep over the boundary-list positions
    /// `lo..hi` against the frozen bisection, with starting gains
    /// served straight from the exact cache. The worker's own virtual
    /// moves are tracked in its epoch-stamped [`NetOverlay`]; in-chunk
    /// net-mate gains are maintained with the same [`gain_term`] delta
    /// algebra as the serial pass, while out-of-chunk pins stay frozen
    /// at their snapshot sides. Every cell moves at most once. Leaves
    /// the moves in `proposals` and the gain evaluations performed in
    /// `evals`.
    fn propose(
        &mut self,
        nl: &Netlist,
        frozen: &NetlistBisection,
        cache: &NetlistGainCache,
        fixed: &[bool],
        lo: usize,
        hi: usize,
    ) {
        let is_fixed = |c: VertexId| fixed.get(c as usize).copied().unwrap_or(false);
        let cells = &cache.boundary()[lo..hi];
        let len = cells.len();
        self.overlay.begin(nl.num_nets());
        self.gains.clear();
        self.locked.clear();
        self.locked.resize(len, false);
        self.heap.clear();
        self.proposals.clear();
        for (i, &c) in cells.iter().enumerate() {
            let gain = cache.gain(c);
            self.gains.push(gain);
            if is_fixed(c) {
                // Fixed cells never move and never receive delta updates.
                self.locked[i] = true;
            } else if gain > 0 {
                self.heap.push((gain, Reverse(c)));
            }
        }
        let mut evals = len as u64;
        while let Some((gain, Reverse(c))) = self.heap.pop() {
            let i = match cache.boundary_index(c) {
                Some(b) if b >= lo && b < hi => b - lo,
                _ => {
                    debug_assert!(false, "heap entries always come from the chunk");
                    continue;
                }
            };
            // Lazy deletion: stale entries (locked, or superseded by a
            // fresher gain) are skipped.
            if self.locked[i] || self.gains[i] != gain {
                continue;
            }
            self.locked[i] = true;
            self.proposals.push((gain, c));
            // Unmoved cells sit on their snapshot sides (each cell moves
            // at most once and locks), so the pre-move pin counts of
            // every net of `c` are the frozen counts plus this worker's
            // overlay.
            let s = frozen.side(c).index();
            for &net in nl.nets_of(c) {
                let mut counts = self.overlay.get(net, frozen);
                let (my, other) = (counts[s], counts[1 - s]);
                let w = nl.net_weight(net) as i64;
                counts[s] -= 1;
                counts[1 - s] += 1;
                self.overlay.set(net, counts);
                let ds = gain_term(my - 1, other + 1, w) - gain_term(my, other, w);
                let dt = gain_term(other + 1, my - 1, w) - gain_term(other, my, w);
                if ds == 0 && dt == 0 {
                    continue;
                }
                for &q in nl.pins(net) {
                    if q == c {
                        continue;
                    }
                    let j = match cache.boundary_index(q) {
                        Some(b) if b >= lo && b < hi => b - lo,
                        _ => continue,
                    };
                    if self.locked[j] {
                        continue;
                    }
                    let delta = if frozen.side(q).index() == s { ds } else { dt };
                    if delta == 0 {
                        continue;
                    }
                    self.gains[j] += delta;
                    evals += 1;
                    if self.gains[j] > 0 {
                        self.heap.push((self.gains[j], Reverse(q)));
                    }
                }
            }
        }
        self.evals = evals;
    }
}

impl NetlistRefiner for ParallelNetlistFm {
    fn name(&self) -> String {
        "PNetFM".into()
    }

    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        mut init: NetlistBisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        if nl.num_cells() < 2 {
            return (init, 0);
        }
        let rounds = self.refine_rounds(nl, fixed, &mut init, ws, ParallelNetlistFm::resolve);
        (init, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::two_clusters;
    use super::super::{weight_balanced_random, NetlistPipeline};
    use super::*;
    use crate::pipeline::{CoarsenDepth, DEFAULT_COARSEST_SIZE};
    use bisect_gen::netlist::{self, RentNetlistParams};
    use bisect_gen::rng::LaggedFibonacci;
    use bisect_graph::hypergraph::NetlistBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The single-sweep resolve the two-phase one replaced: phase 1
    /// alone, every `tol.pass`-blocked proposal dropped.
    fn resolve_single_sweep(
        nl: &Netlist,
        p: &mut NetlistBisection,
        cache: &mut NetlistGainCache,
        proposals: &[(i64, VertexId)],
        buf: &mut ResolveScratch,
        tol: Tolerance,
    ) -> (u64, u64) {
        let start_cut = p.cut();
        buf.begin(start_cut);
        for &(_, c) in proposals {
            if cache.gain(c) > 0 && tol.fits(nl, p, c) {
                buf.apply(nl, p, cache, c, tol.base);
            }
        }
        buf.rollback(nl, p, cache);
        (start_cut - p.cut(), proposals.len() as u64)
    }

    /// [`ParallelNetlistFm`] with the single-sweep resolve.
    struct SingleSweep(ParallelNetlistFm);

    impl NetlistRefiner for SingleSweep {
        fn name(&self) -> String {
            "PNetFM-single-sweep".into()
        }

        fn refine_projected_counted(
            &self,
            nl: &Netlist,
            fixed: &[bool],
            mut init: NetlistBisection,
            _rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (NetlistBisection, u64) {
            if nl.num_cells() < 2 {
                return (init, 0);
            }
            let rounds = self
                .0
                .refine_rounds(nl, fixed, &mut init, ws, resolve_single_sweep);
            (init, rounds)
        }
    }

    /// One round from `init` with a fresh workspace.
    fn one_round(
        nl: &Netlist,
        fixed: &[bool],
        init: &NetlistBisection,
        threads: usize,
        resolve: Resolve,
    ) -> (NetlistBisection, Workspace) {
        let mut p = init.clone();
        let mut ws = Workspace::new();
        ws.netlist_cache.init(nl, &p);
        ParallelNetlistFm::round_boundary(
            nl,
            fixed,
            &mut p,
            &mut ws,
            Tolerance::of(nl),
            threads,
            resolve,
        );
        (p, ws)
    }

    /// Whether `cache` holds what a fresh `init` for `(nl, p)` would:
    /// the same gains, cut degrees and boundary set.
    fn matches_fresh_init(cache: &NetlistGainCache, nl: &Netlist, p: &NetlistBisection) -> bool {
        let mut fresh = NetlistGainCache::default();
        fresh.init(nl, p);
        let mut listed = cache.boundary().to_vec();
        listed.sort_unstable();
        nl.cells().all(|c| {
            cache.gain(c) == fresh.gain(c)
                && cache.cut_degree(c) == fresh.cut_degree(c)
                && cache.is_boundary(c) == fresh.is_boundary(c)
        }) && listed == fresh.boundary()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-round dominance: from the same state, the two-phase
        /// round cuts no more than the single sweep, ends balanced
        /// whenever the sweep does, keeps fixed cells, and leaves the
        /// cache exact.
        #[test]
        fn two_phase_round_dominates_the_single_sweep(
            cells in 4usize..=120,
            max_weight in 1u64..=3,
            fixed_percent in 0u64..=30,
            count_balanced_start in 0u64..2,
            seed in 0u64..1_000_000,
        ) {
            let nl = weighted_netlist(cells, 3 * cells / 2, max_weight, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd0);
            let fixed: Vec<bool> = (0..cells).map(|_| rng.gen_range(0..100) < fixed_percent).collect();
            // A count-balanced start leaves weighted cells out of tolerance.
            let init = if count_balanced_start == 1 {
                NetlistBisection::random_balanced(&nl, &mut rng)
            } else {
                weight_balanced_random(&nl, &mut rng)
            };
            for threads in [1usize, 2, 4] {
                let (sweep, _) = one_round(&nl, &fixed, &init, threads, resolve_single_sweep);
                let (paired, ws) = one_round(&nl, &fixed, &init, threads, ParallelNetlistFm::resolve);
                prop_assert!(paired.cut() <= sweep.cut(), "threads {}", threads);
                if sweep.is_balanced(&nl) {
                    prop_assert!(paired.is_balanced(&nl), "threads {}", threads);
                }
                for c in nl.cells().filter(|&c| fixed[c as usize]) {
                    prop_assert_eq!(paired.side(c), init.side(c));
                }
                prop_assert!(matches_fresh_init(&ws.netlist_cache, &nl, &paired));
                prop_assert_eq!(paired.cut(), paired.recompute_cut(&nl));
            }
        }
    }

    #[test]
    fn pairing_beats_the_single_sweep_on_unit_cells() {
        // Unit cells allow no slack (`base` 0, `pass` 2), so the sweep
        // drops most of its balance-blocked proposals and pairing them
        // must win somewhere.
        let mut wins = 0;
        for seed in 0..20 {
            let nl = weighted_netlist(200, 300, 1, seed);
            let init = weight_balanced_random(&nl, &mut StdRng::seed_from_u64(seed));
            let (sweep, _) = one_round(&nl, &[], &init, 2, resolve_single_sweep);
            let (paired, _) = one_round(&nl, &[], &init, 2, ParallelNetlistFm::resolve);
            assert!(paired.cut() <= sweep.cut(), "seed {seed}");
            wins += usize::from(paired.cut() < sweep.cut());
        }
        assert!(wins > 0);
    }

    /// The `"parallel"` rows of `tests/pipeline_equivalence.rs`'s
    /// netlist pins as the single-sweep resolve left them: `(cells,
    /// fixed cells, cut, work, side fingerprint)`.
    const SINGLE_SWEEP_PINS: &[(usize, usize, u64, u64, u64)] = &[
        (2, 0, 3, 0, 0x82f2407b4e8902a),
        (2, 2, 3, 0, 0x82f2407b4e8902a),
        (3, 0, 3, 0, 0xd0aa6418672cf911),
        (3, 2, 4, 0, 0xd0a6fb18672a10cf),
        (600, 0, 76, 5, 0x9091ad15d4844e5),
        (600, 2, 24, 7, 0x35e8780274b87b5d),
        (5000, 0, 237, 24, 0xbaca1d8e78b6c469),
        (5000, 2, 243, 22, 0x55293d8bc331f4d),
    ];

    #[test]
    fn single_sweep_oracle_reproduces_the_old_parallel_pins() {
        let pipeline = NetlistPipeline::new(
            CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE),
            SingleSweep(ParallelNetlistFm::new().with_threads(2)),
            "PNetMLFM-single-sweep",
        )
        .unwrap();
        let mut actual = Vec::new();
        for cells in [2usize, 3, 600, 5_000] {
            let nets = (3 * cells).div_ceil(2);
            let params = RentNetlistParams::new(cells, nets, 4.min(cells), 1.8, 0.1).unwrap();
            let nl = netlist::sample_streamed(
                &mut LaggedFibonacci::seed_from_u64(0x4E7 + cells as u64),
                &params,
            );
            let last = (cells - 1) as VertexId;
            for fixed in [&[][..], &[(0, Side::A), (last, Side::B)][..]] {
                let mut rng = StdRng::seed_from_u64(cells as u64);
                let (b, work) =
                    pipeline.bisect_fixed_counted(&nl, fixed, &mut rng, &mut Workspace::new());
                let mut h: u64 = 0xcbf29ce484222325;
                for &s in b.sides() {
                    h ^= s as u64 + 1;
                    h = h.wrapping_mul(0x100000001b3);
                }
                actual.push((cells, fixed.len(), b.cut(), work, h));
            }
        }
        assert_eq!(actual, SINGLE_SWEEP_PINS);
    }

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        weighted_netlist(cells, nets, 1, seed)
    }

    /// A random netlist of 2–5-pin nets whose cells weigh 1 to
    /// `max_weight`.
    fn weighted_netlist(cells: usize, nets: usize, max_weight: u64, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize.min(cells));
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        for c in 0..cells as u32 {
            b.set_cell_weight(c, rng.gen_range(1..=max_weight)).unwrap();
        }
        b.build()
    }

    fn refine(
        pfm: &ParallelNetlistFm,
        nl: &Netlist,
        init: NetlistBisection,
    ) -> (NetlistBisection, u64) {
        let mut dummy = StdRng::seed_from_u64(0);
        let mut ws = Workspace::new();
        pfm.refine_counted(nl, &[], init, &mut dummy, &mut ws)
    }

    #[test]
    fn refine_never_increases_cut_and_keeps_balance() {
        let nl = random_netlist(48, 70, 3);
        let pfm = ParallelNetlistFm::new().with_threads(4);
        for seed in 0..10 {
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let before = init.cut();
            let (p, _) = refine(&pfm, &nl, init);
            assert!(p.cut() <= before, "seed {seed}");
            assert!(p.is_balanced(&nl), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&nl), "seed {seed}");
        }
    }

    #[test]
    fn finds_the_bridge_cut() {
        let nl = two_clusters();
        let pfm = ParallelNetlistFm::new().with_threads(2);
        let mut best = u64::MAX;
        for seed in 0..8 {
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let (p, _) = refine(&pfm, &nl, init);
            best = best.min(p.cut());
        }
        assert_eq!(best, 1);
    }

    #[test]
    fn repeat_runs_at_fixed_threads_are_identical() {
        let nl = random_netlist(60, 90, 7);
        let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(42));
        for threads in [1usize, 2, 4] {
            let pfm = ParallelNetlistFm::new().with_threads(threads);
            let (a, ra) = refine(&pfm, &nl, init.clone());
            let (b, rb) = refine(&pfm, &nl, init.clone());
            assert_eq!(a, b, "threads {threads}");
            assert_eq!(ra, rb, "threads {threads}");
        }
    }

    #[test]
    fn consumes_no_randomness_when_refining() {
        let nl = random_netlist(30, 40, 1);
        let pfm = ParallelNetlistFm::new().with_threads(3);
        let mut rng = StdRng::seed_from_u64(7);
        let init = NetlistBisection::random_balanced(&nl, &mut rng);
        let probe = rng.clone();
        let mut ws = Workspace::new();
        let _ = pfm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
        assert_eq!(rng.next_u64(), probe.clone().next_u64());
    }

    #[test]
    fn projected_entry_matches_plain_refine() {
        let nl = random_netlist(40, 60, 5);
        let pfm = ParallelNetlistFm::new().with_threads(2);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let mut ws_a = Workspace::new();
            let (plain, _) = pfm.refine_counted(&nl, &[], init.clone(), &mut rng, &mut ws_a);
            let mut ws_b = Workspace::new();
            ws_b.netlist_cache.init(&nl, &init);
            let (projected, _) = pfm.refine_projected_counted(&nl, &[], init, &mut rng, &mut ws_b);
            assert_eq!(plain, projected, "seed {seed}");
        }
    }

    #[test]
    fn leaves_cache_exact() {
        let nl = random_netlist(36, 50, 9);
        let pfm = ParallelNetlistFm::new().with_threads(3);
        let mut ws = Workspace::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let (p, _) = pfm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            for c in nl.cells() {
                assert_eq!(ws.netlist_cache().gain(c), p.gain(&nl, c), "seed {seed}");
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        let large = random_netlist(600, 900, 21);
        let small = random_netlist(40, 60, 22);
        for threads in [1usize, 2, 4] {
            let pfm = ParallelNetlistFm::new().with_threads(threads);
            let mut ws = Workspace::new();
            for (step, nl) in [&large, &small, &large].into_iter().enumerate() {
                let init =
                    NetlistBisection::random_balanced(nl, &mut StdRng::seed_from_u64(step as u64));
                let fresh = refine(&pfm, nl, init.clone());
                let mut dummy = StdRng::seed_from_u64(0);
                let reused = pfm.refine_counted(nl, &[], init, &mut dummy, &mut ws);
                assert_eq!(reused, fresh, "threads {threads}, step {step}");
            }
        }
    }

    #[test]
    fn epoch_wrap_keeps_results() {
        let nl = random_netlist(300, 450, 23);
        for threads in [1usize, 2, 4] {
            let pfm = ParallelNetlistFm::new().with_threads(threads);
            let mut dummy = StdRng::seed_from_u64(0);
            let mut ws = Workspace::new();
            // A warm-up refine leaves stamps carrying small epochs.
            let warm = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(1));
            let _ = pfm.refine_counted(&nl, &[], warm, &mut dummy, &mut ws);
            ws.pnfm.force_epoch(u32::MAX - 1);
            // The next chunk runs at epoch u32::MAX, the one after wraps
            // to the small epochs the warm-up stamped.
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(2));
            let fresh = refine(&pfm, &nl, init.clone());
            let wrapped = pfm.refine_counted(&nl, &[], init, &mut dummy, &mut ws);
            assert!(
                wrapped.1 >= 1,
                "threads {threads}: needs a second round to wrap"
            );
            assert_eq!(wrapped, fresh, "threads {threads}");
        }
    }

    #[test]
    fn respects_fixed_cells() {
        let nl = two_clusters();
        let pfm = ParallelNetlistFm::new().with_threads(2);
        // Adversarial start: fixed cells open on the "wrong" sides.
        let init =
            NetlistBisection::from_sides(&nl, vec![false, true, false, true, false, true]).unwrap();
        let fixed = vec![true, false, false, false, false, true];
        let mut rng = StdRng::seed_from_u64(1);
        let mut ws = Workspace::new();
        let (p, _) = pfm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
        assert_eq!(p.side(0), init.side(0));
        assert_eq!(p.side(5), init.side(5));
        assert!(p.cut() <= init.cut());
    }

    #[test]
    fn weighted_netlists_respect_tolerance() {
        let mut b = NetlistBuilder::new(6);
        for c in 0..6u32 {
            b.set_cell_weight(c, (c as u64 % 3) + 1).unwrap();
        }
        for pins in [[0u32, 1].as_slice(), &[1, 2], &[2, 3], &[3, 4], &[4, 5]] {
            b.add_net(pins).unwrap();
        }
        let nl = b.build();
        let pfm = ParallelNetlistFm::new().with_threads(2);
        let mut rng = StdRng::seed_from_u64(5);
        let init = weight_balanced_random(&nl, &mut rng);
        let balanced_before = init.is_balanced(&nl);
        let (p, _) = refine(&pfm, &nl, init);
        if balanced_before {
            assert!(p.is_balanced(&nl));
        }
        assert_eq!(p.cut(), p.recompute_cut(&nl));
    }

    #[test]
    fn counts_proposals_in_workspace() {
        let nl = random_netlist(40, 60, 11);
        let pfm = ParallelNetlistFm::new().with_threads(2);
        let mut rng = StdRng::seed_from_u64(11);
        let init = NetlistBisection::random_balanced(&nl, &mut rng);
        let mut ws = Workspace::new();
        let (_, rounds) = pfm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
        assert!(rounds >= 1);
        assert!(ws.take_proposals() > 0);
    }

    #[test]
    fn tiny_netlists_are_no_ops() {
        let pfm = ParallelNetlistFm::new();
        for n in 0..2usize {
            let nl = NetlistBuilder::new(n).build();
            let init = NetlistBisection::from_sides(&nl, vec![false; n]).unwrap();
            let (p, rounds) = refine(&pfm, &nl, init);
            assert_eq!(rounds, 0);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn brute_force_cross_check_after_every_resolved_move() {
        // Single-round refinement on tiny netlists, checking the
        // maintained cut against a from-scratch recompute after the
        // round lands (the resolve's rollback also asserts it in debug
        // builds).
        let pfm = ParallelNetlistFm::new().with_threads(2).with_max_rounds(1);
        for seed in 0..12 {
            let nl = random_netlist(14, 16, seed);
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let (p, _) = refine(&pfm, &nl, init);
            assert_eq!(p.cut(), p.recompute_cut(&nl), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = ParallelNetlistFm::new().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = ParallelNetlistFm::new().with_max_rounds(0);
    }
}
