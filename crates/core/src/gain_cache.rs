//! Incrementally maintained per-vertex gains shared by the KL and FM
//! hot paths, plus the incremental **boundary set** behind the
//! boundary-localized refiners.
//!
//! The cache pays an `O(deg)` walk per recorded move and answers gain
//! queries with array reads — the classic Fiduccia-Mattheyses
//! maintained-gain discipline. KL and FM initialize their per-pass gain
//! state from it instead of rebuilding equivalent arrays locally.
//! (Simulated annealing keeps its own compact copy of the same
//! discipline in `sa.rs`.)
//!
//! Alongside each gain the cache tracks the vertex's **external
//! degree** (total weight of its cut edges) and maintains the set
//! `{v : ext(v) > 0}` — the cut boundary — as moves land: a vertex
//! enters or leaves the boundary in `O(deg)` exactly when its external
//! degree crosses zero. [`crate::fm::BoundaryFm`] and the
//! boundary-seeded [`crate::par_fm::ParallelFm`] mode seed their passes
//! from this set instead of scanning every vertex, and
//! [`GainCache::project`] maps the whole cache (gains, external
//! degrees, boundary) through an uncoarsening step so multilevel
//! pipelines never rebuild it `O(V + E)` per level.

use bisect_graph::{Graph, VertexId};

use crate::balance::RebalanceHeap;
use crate::partition::Bisection;

/// Per-vertex gain cache with an incrementally maintained boundary
/// set.
///
/// Invariants, established by [`GainCache::init`] (or
/// [`GainCache::project`]) and maintained by [`GainCache::record_move`]:
///
/// * `gain(v) == p.gain(g, v)` for every vertex — gains are *exact*
///   integers, never approximations, so cached and recomputed proposal
///   evaluation produce bit-identical accept decisions.
/// * `ext(v)` = total weight of `v`'s cut edges, so
///   `gain(v) == ext(v) − (weighted_degree(v) − ext(v))`.
/// * `boundary()` holds exactly the vertices with `ext(v) > 0`, each
///   once (order unspecified but a pure function of the move history).
///
/// All storage is retained across runs (`init` only grows buffers), so
/// a workspace-resident cache allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct GainCache {
    /// `gains[v]` = weight of v's cross edges − weight of v's internal
    /// edges, for the bisection the cache was initialized against.
    gains: Vec<i64>,
    /// `ext[v]` = weight of v's cross edges (external degree).
    ext: Vec<u64>,
    /// The vertices with `ext > 0`.
    boundary: BoundarySet,
    /// Scratch for [`crate::partition::rebalance_with_cache`].
    pub(crate) rebalance_heap: RebalanceHeap,
}

/// The cut boundary as a dense list with an O(1) position index, in
/// [`GainCache`] and [`NetlistGainCache`](crate::netlist::NetlistGainCache).
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundarySet {
    /// The boundary cells, each once, in an order that is a pure
    /// function of the update history.
    list: Vec<VertexId>,
    /// `pos[c]` = index of `c` in `list`; `u32::MAX` = not present.
    pos: Vec<u32>,
    /// The index [`BoundarySet::take_coarse`] rebuilds the set in.
    spare_pos: Vec<u32>,
}

impl BoundarySet {
    /// Empties the set for a level of `n` cells.
    pub(crate) fn reset(&mut self, n: usize) {
        self.list.clear();
        self.pos.clear();
        self.pos.resize(n, u32::MAX);
    }

    /// The boundary cells, each exactly once.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[VertexId] {
        &self.list
    }

    #[inline]
    pub(crate) fn contains(&self, c: VertexId) -> bool {
        self.pos[c as usize] != u32::MAX
    }

    /// The position of `c` in [`BoundarySet::as_slice`], if present.
    #[inline]
    pub(crate) fn index(&self, c: VertexId) -> Option<usize> {
        let at = self.pos[c as usize];
        (at != u32::MAX).then_some(at as usize)
    }

    /// Puts `c` in the set if `on`, else takes it out (moving the last
    /// cell into its slot); a no-op when `c` is already so.
    pub(crate) fn set(&mut self, c: VertexId, on: bool) {
        match (on, self.index(c)) {
            (true, None) => {
                self.pos[c as usize] = self.list.len() as u32;
                self.list.push(c);
            }
            (false, Some(at)) => {
                let removed = self.list.swap_remove(at);
                debug_assert_eq!(removed, c, "boundary list out of sync");
                if let Some(&swapped_in) = self.list.get(at) {
                    self.pos[swapped_in as usize] = at as u32;
                }
                self.pos[c as usize] = u32::MAX;
            }
            _ => {}
        }
    }

    /// Starts rebuilding the set for a finer level: returns the coarse
    /// set, which answers only [`BoundarySet::contains`], and leaves
    /// `self` the spare index to [`reset`](BoundarySet::reset). Hand
    /// the coarse set to [`BoundarySet::recycle`] afterwards.
    pub(crate) fn take_coarse(&mut self) -> BoundarySet {
        let pos = std::mem::take(&mut self.pos);
        self.pos = std::mem::take(&mut self.spare_pos);
        BoundarySet {
            pos,
            ..BoundarySet::default()
        }
    }

    /// Keeps a [`BoundarySet::take_coarse`] result's index as the spare.
    pub(crate) fn recycle(&mut self, coarse: BoundarySet) {
        self.spare_pos = coarse.pos;
    }
}

impl GainCache {
    /// (Re)builds the cache for bisection `p` of `g` in `O(V + E)`,
    /// reusing all previously allocated storage.
    pub fn init(&mut self, g: &Graph, p: &Bisection) {
        self.fill(g, p, |_| true);
    }

    /// Remaps the cache through one uncoarsening step, replacing the
    /// `O(V + E)` rebuild with `O(V + deg(boundary region))`: interior
    /// fine vertices are filled in `O(deg)` *sequential* reads (no
    /// neighbor-side lookups), and only fine vertices whose coarse
    /// image is on the coarse boundary pay the full adjacency walk.
    ///
    /// Correctness rests on boundary coverage: sides inherit through
    /// contraction, so a cut fine edge maps to a cut (or contracted,
    /// hence impossible) coarse edge — a fine vertex can only be on the
    /// fine boundary if its coarse image is on the coarse boundary.
    /// Interior images therefore have every fine neighbor on their own
    /// side: `gain = −weighted_degree`, `ext = 0`, exactly.
    ///
    /// On entry the cache must be exact for the *coarse* partition that
    /// `p` was projected from; `fine_to_coarse[v]` is that
    /// contraction's vertex map
    /// ([`bisect_graph::contraction::Contraction::fine_to_coarse`]) and
    /// `p` must equal the side-projection of the coarse partition onto
    /// `g`. On exit the cache is exact for `(g, p)`.
    pub fn project(&mut self, g: &Graph, p: &Bisection, fine_to_coarse: &[VertexId]) {
        let n = g.num_vertices();
        debug_assert_eq!(n, fine_to_coarse.len(), "vertex map does not match graph");
        let coarse = self.boundary.take_coarse();
        self.fill(g, p, |v| coarse.contains(fine_to_coarse[v]));
        self.boundary.recycle(coarse);
        #[cfg(debug_assertions)]
        for v in g.vertices() {
            debug_assert_eq!(
                self.gains[v as usize],
                p.gain(g, v),
                "projected gain of {v} is stale — was `p` side-projected from \
                 the partition this cache described?"
            );
        }
    }

    /// Rebuilds every array for `(g, p)`. Vertices `v` with `rescan(v)`
    /// walk their adjacency; the rest are interior, with the closed form
    /// `gain = −weighted_degree`, `ext = 0`.
    fn fill(&mut self, g: &Graph, p: &Bisection, rescan: impl Fn(usize) -> bool) {
        self.gains.clear();
        self.ext.clear();
        self.boundary.reset(g.num_vertices());
        let sides = p.sides();
        for v in g.vertices() {
            let vi = v as usize;
            let (gain, external) = if rescan(vi) {
                let sv = sides[vi];
                let mut internal = 0i64;
                let mut external = 0u64;
                for (u, w) in g.neighbors_weighted(v) {
                    if sides[u as usize] == sv {
                        internal += w as i64;
                    } else {
                        external += w;
                    }
                }
                (external as i64 - internal, external)
            } else {
                (-(g.weighted_degree(v) as i64), 0)
            };
            self.gains.push(gain);
            self.ext.push(external);
            if external > 0 {
                self.boundary.set(v, true);
            }
        }
    }

    /// The cached gain of moving `v` to the other side.
    #[inline]
    pub fn gain(&self, v: VertexId) -> i64 {
        self.gains[v as usize]
    }

    /// The cached external degree of `v`: the total weight of its cut
    /// edges. Zero exactly when `v` is interior to its side.
    #[inline]
    pub fn ext(&self, v: VertexId) -> u64 {
        self.ext[v as usize]
    }

    /// The current boundary vertices (`ext > 0`), each exactly once.
    /// The order is unspecified but deterministic: a pure function of
    /// the init state and the recorded move history.
    #[inline]
    pub fn boundary(&self) -> &[VertexId] {
        self.boundary.as_slice()
    }

    /// Whether `v` is currently a boundary vertex.
    #[inline]
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.contains(v)
    }

    /// The position of `v` within [`GainCache::boundary`], if `v` is a
    /// boundary vertex — an O(1) membership-and-index lookup for
    /// consumers that partition the boundary list (the boundary-seeded
    /// parallel refiner chunks it by position).
    #[inline]
    pub fn boundary_index(&self, v: VertexId) -> Option<usize> {
        self.boundary.index(v)
    }

    /// All cached gains, indexed by vertex.
    #[inline]
    pub fn gains(&self) -> &[i64] {
        &self.gains
    }

    /// Updates the cache for `v` moving to the other side, in
    /// `O(degree(v))`. Must be called while `p` still shows `v` on its
    /// *old* side (i.e. before `Bisection::move_vertex*`); `g` and `p`
    /// must be the pair the cache was initialized against.
    pub fn record_move(&mut self, g: &Graph, p: &Bisection, v: VertexId) {
        let old = p.side(v);
        let vi = v as usize;
        // v's external and internal edge sets trade places, so its new
        // external degree is its old internal one: ext − gain.
        let new_ext_v = (self.ext[vi] as i64 - self.gains[vi]) as u64;
        self.gains[vi] = -self.gains[vi];
        // Old-side neighbors lose an internal edge and get a cross
        // edge (gain += 2w, ext += w); new-side neighbors the reverse.
        // A neighbor enters or leaves the boundary exactly when its
        // external degree crosses zero. Graphs are self-loop free
        // (GraphError::SelfLoop), so u != v.
        for (u, w) in g.neighbors_weighted(v) {
            let ui = u as usize;
            let wi = w as i64;
            if p.side(u) == old {
                self.gains[ui] += 2 * wi;
                if self.ext[ui] == 0 {
                    self.boundary.set(u, true);
                }
                self.ext[ui] += w;
            } else {
                self.gains[ui] -= 2 * wi;
                self.ext[ui] -= w;
                if self.ext[ui] == 0 {
                    self.boundary.set(u, false);
                }
            }
        }
        self.boundary.set(v, new_ext_v > 0);
        self.ext[vi] = new_ext_v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Side;
    use crate::seed::random_balanced;
    use bisect_gen::gnp::{self, GnpParams};
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_gnp(n: usize, p: f64, seed: u64) -> Graph {
        let params = GnpParams::new(n, p).unwrap();
        gnp::sample(&mut StdRng::seed_from_u64(seed), &params)
    }

    /// Brute-force external degree: the weight of v's cut edges.
    fn brute_ext(g: &Graph, p: &Bisection, v: VertexId) -> u64 {
        g.neighbors_weighted(v)
            .filter(|&(u, _)| p.side(u) != p.side(v))
            .map(|(_, w)| w)
            .sum()
    }

    fn assert_cache_consistent(cache: &GainCache, g: &Graph, p: &Bisection) {
        let mut boundary = Vec::new();
        for v in g.vertices() {
            assert_eq!(cache.gain(v), p.gain(g, v), "gain of {v}");
            let ext = brute_ext(g, p, v);
            assert_eq!(cache.ext(v), ext, "external degree of {v}");
            assert_eq!(cache.is_boundary(v), ext > 0, "boundary flag of {v}");
            if ext > 0 {
                boundary.push(v);
            }
        }
        let mut cached: Vec<_> = cache.boundary().to_vec();
        cached.sort_unstable();
        assert_eq!(cached, boundary, "boundary set");
    }

    #[test]
    fn init_matches_bisection_gains() {
        let g = special::grid(7, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let p = random_balanced(&g, &mut rng);
        let mut cache = GainCache::default();
        cache.init(&g, &p);
        assert_cache_consistent(&cache, &g, &p);
    }

    #[test]
    fn record_move_tracks_random_flip_sequences() {
        let g = random_gnp(60, 0.12, 5);
        let mut rng = StdRng::seed_from_u64(17);
        let mut p = random_balanced(&g, &mut rng);
        let mut cache = GainCache::default();
        cache.init(&g, &p);
        for _ in 0..200 {
            let v = rng.gen_range(0..g.num_vertices()) as VertexId;
            cache.record_move(&g, &p, v);
            p.move_vertex(&g, v);
        }
        assert_cache_consistent(&cache, &g, &p);
    }

    #[test]
    fn boundary_membership_is_exact_after_every_accepted_move() {
        // The cross-check the boundary refiners rest on: after *each*
        // recorded move the boundary set equals the brute-force
        // external-degree scan, not just at the end of a sequence.
        for (n, p_edge, seed) in [(40, 0.08, 2u64), (40, 0.2, 3), (61, 0.1, 4)] {
            let g = random_gnp(n, p_edge, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0);
            let mut p = random_balanced(&g, &mut rng);
            let mut cache = GainCache::default();
            cache.init(&g, &p);
            for _ in 0..80 {
                let v = rng.gen_range(0..g.num_vertices()) as VertexId;
                cache.record_move(&g, &p, v);
                p.move_vertex(&g, v);
                assert_cache_consistent(&cache, &g, &p);
            }
        }
    }

    #[test]
    fn record_move_tracks_swaps() {
        let g = random_gnp(48, 0.2, 9);
        let mut rng = StdRng::seed_from_u64(23);
        let mut p = random_balanced(&g, &mut rng);
        let mut cache = GainCache::default();
        cache.init(&g, &p);
        let n = g.num_vertices();
        let draw_on = |rng: &mut StdRng, p: &Bisection, side: Side| loop {
            let v = rng.gen_range(0..n) as VertexId;
            if p.side(v) == side {
                break v;
            }
        };
        for _ in 0..120 {
            let a = draw_on(&mut rng, &p, Side::A);
            let b = draw_on(&mut rng, &p, Side::B);
            // A swap is two single moves; refresh b's gain after a
            // moves so the a–b edge adjustment is included.
            cache.record_move(&g, &p, a);
            p.move_vertex(&g, a);
            cache.record_move(&g, &p, b);
            p.move_vertex(&g, b);
        }
        assert_cache_consistent(&cache, &g, &p);
    }

    #[test]
    fn reinit_shrinks_and_grows_with_graph() {
        let mut cache = GainCache::default();
        let big = special::grid(10, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let p_big = random_balanced(&big, &mut rng);
        cache.init(&big, &p_big);
        let small = special::path(8);
        let p_small = random_balanced(&small, &mut rng);
        cache.init(&small, &p_small);
        assert_cache_consistent(&cache, &small, &p_small);
        assert_eq!(cache.gains().len(), 8);
    }

    #[test]
    fn project_matches_fresh_init() {
        use bisect_graph::{contraction, matching};
        for seed in 0..8u64 {
            let g = random_gnp(80, 0.06, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
            let m = matching::random_maximal(&g, &mut rng);
            let c = contraction::contract_matching(&g, &m);
            let coarse = c.coarse();
            let coarse_p = crate::seed::weight_balanced_random(coarse, &mut rng);

            let mut cache = GainCache::default();
            cache.init(coarse, &coarse_p);
            // Mutate a little so the boundary has move history, then
            // project the coarse state down to the fine graph.
            let mut coarse_p = coarse_p;
            for _ in 0..10 {
                let v = rng.gen_range(0..coarse.num_vertices()) as VertexId;
                cache.record_move(coarse, &coarse_p, v);
                coarse_p.move_vertex(coarse, v);
            }
            let fine_sides = c.project_sides(coarse_p.sides());
            let mut fine_p = Bisection::from_sides(&g, fine_sides).unwrap();
            cache.project(&g, &fine_p, c.fine_to_coarse());
            assert_cache_consistent(&cache, &g, &fine_p);

            // And the projected cache keeps tracking moves.
            for _ in 0..20 {
                let v = rng.gen_range(0..g.num_vertices()) as VertexId;
                cache.record_move(&g, &fine_p, v);
                fine_p.move_vertex(&g, v);
            }
            assert_cache_consistent(&cache, &g, &fine_p);
        }
    }

    #[test]
    fn boundary_empty_when_cut_is_zero() {
        let g = special::path(8);
        // Split the path at its middle edge: cut 1, boundary {3, 4} —
        // then a zero-cut partition of two disjoint paths.
        let mut b = bisect_graph::GraphBuilder::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)] {
            b.add_edge(u, v).unwrap();
        }
        let disjoint = b.build();
        let sides: Vec<bool> = (0..8).map(|v| v >= 4).collect();
        let p = Bisection::from_sides(&disjoint, sides).unwrap();
        let mut cache = GainCache::default();
        cache.init(&disjoint, &p);
        assert_eq!(p.cut(), 0);
        assert!(cache.boundary().is_empty());

        let sides: Vec<bool> = (0..8).map(|v| v >= 4).collect();
        let p = Bisection::from_sides(&g, sides).unwrap();
        cache.init(&g, &p);
        assert_eq!(p.cut(), 1);
        let mut boundary = cache.boundary().to_vec();
        boundary.sort_unstable();
        assert_eq!(boundary, vec![3, 4]);
    }
}
