//! The balance layer of graphs and netlists, each rule written once
//! over [`Cells`]: what counts as balanced, the move slack of an FM
//! pass, the random starts, and the two rebalances that restore balance
//! after the paper's §V projection of a coarse bisection. The public
//! names (`partition::rebalance`, `seed::random_balanced`, …) wrap it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bisect_graph::hypergraph::Netlist;
use bisect_graph::{Graph, VertexId, VertexWeight};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::gain_cache::GainCache;
use crate::netlist::{NetlistBisection, NetlistGainCache};
use crate::partition::{Bisection, Side};

/// The lazy max-heap of `(gain, Reverse(cell))` rebalance candidates,
/// kept in each gain cache so that warm rebalances allocate nothing.
pub(crate) type RebalanceHeap = BinaryHeap<(i64, Reverse<VertexId>)>;

/// A level's weighted cells, bisection and gain cache: [`Graph`] with
/// [`Bisection`] and [`GainCache`], or [`Netlist`] with
/// [`NetlistBisection`] and [`NetlistGainCache`]. Cells flagged in a
/// `fixed: &[bool]` never move; missing flags count as free.
pub(crate) trait Cells {
    /// The level's bisection.
    type Part;
    /// The level's gain cache.
    type Cache;

    fn num_cells(&self) -> usize;
    fn cell_weight(&self, c: VertexId) -> VertexWeight;
    /// The bisection with `sides`, which holds one side per cell.
    fn part(&self, sides: Vec<bool>) -> Self::Part;
    fn side(p: &Self::Part, c: VertexId) -> Side;
    /// The weights of sides A and B.
    fn side_weights(p: &Self::Part) -> [VertexWeight; 2];
    /// The gain of moving `c`, walked from `p`.
    fn gain(&self, p: &Self::Part, c: VertexId) -> i64;
    fn move_cell(&self, p: &mut Self::Part, c: VertexId);
    fn cached_gain(cache: &Self::Cache, c: VertexId) -> i64;
    /// Moves `c`, keeping `cache` exact for `p`.
    fn cached_move(&self, p: &mut Self::Part, cache: &mut Self::Cache, c: VertexId);
    /// The cells whose gain a move of `c` can change, possibly with
    /// repeats and `c` itself.
    fn mates(&self, c: VertexId) -> impl Iterator<Item = VertexId> + '_;
    fn heap(cache: &mut Self::Cache) -> &mut RebalanceHeap;
}

/// The balance tolerances of a level. A bisection is balanced when its
/// side weights differ by at most `base`; an FM pass (or resolved
/// round) may let them drift `pass` apart, and keeps only a prefix that
/// ends within `base`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tolerance {
    /// The parity remainder `n % 2` for unit cell weights, where exact
    /// balance is reachable; else the largest cell weight.
    pub(crate) base: VertexWeight,
    /// `max(base, 2 · largest cell weight)`: moving weight `w` changes
    /// the side difference by `2w`, so the classic FM criterion lets a
    /// single move overshoot balance by one cell.
    pub(crate) pass: VertexWeight,
}

impl Tolerance {
    /// Both tolerances of `level` from one walk over the cell weights.
    ///
    /// The rule keys on cell weights only. Graphs once also required
    /// unit edge weights for the parity rule, giving `base` 1, not
    /// `n % 2`, with unit vertex weights and weighted edges. No decision
    /// differs: every use compares a side difference, which then has
    /// the parity of `n`, so `≤ 1` holds exactly when `≤ n % 2`; and
    /// `pass` is 2 either way.
    pub(crate) fn of<L: Cells>(level: &L) -> Tolerance {
        let n = level.num_cells();
        let mut unit = true;
        let mut max_weight = 0;
        for c in 0..n as VertexId {
            let w = level.cell_weight(c);
            unit &= w == 1;
            max_weight = max_weight.max(w);
        }
        let base = if unit { n as u64 % 2 } else { max_weight };
        // A level without cells keeps the slack of one unit cell.
        if n == 0 {
            max_weight = 1;
        }
        Tolerance {
            base,
            pass: base.max(2 * max_weight),
        }
    }

    /// Whether moving `c` leaves the sides of `p` at most `pass` apart.
    pub(crate) fn fits<L: Cells>(self, level: &L, p: &L::Part, c: VertexId) -> bool {
        let [a, b] = L::side_weights(p);
        let (d, w) = (a as i64 - b as i64, 2 * level.cell_weight(c) as i64);
        let after = match L::side(p, c) {
            Side::A => d - w,
            Side::B => d + w,
        };
        after.unsigned_abs() <= self.pass
    }
}

/// The side difference of `p` and its heavier side (B on a tie).
fn heavy_side<L: Cells>(p: &L::Part) -> (VertexWeight, Side) {
    let [a, b] = L::side_weights(p);
    (a.abs_diff(b), if a > b { Side::A } else { Side::B })
}

/// A uniformly random count-balanced bisection: a random ⌈n/2⌉ of the
/// cells go to side A.
pub(crate) fn count_balanced<L: Cells, R: Rng + ?Sized>(level: &L, rng: &mut R) -> L::Part {
    let n = level.num_cells();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    perm.shuffle(rng);
    let mut side = vec![true; n];
    for &c in &perm[..n.div_ceil(2)] {
        side[c as usize] = false;
    }
    level.part(side)
}

/// A random weight-balanced bisection: each `(cell, side)` of `fixed`
/// is placed first (duplicates count once), then the other cells, in
/// random order, each join the currently lighter side.
pub(crate) fn weight_balanced<L: Cells, R: Rng + ?Sized>(
    level: &L,
    fixed: &[(VertexId, Side)],
    rng: &mut R,
) -> L::Part {
    let n = level.num_cells();
    let mut side = vec![false; n];
    let mut pinned = vec![false; n];
    let mut weights = [0 as VertexWeight; 2];
    for &(c, s) in fixed {
        if !std::mem::replace(&mut pinned[c as usize], true) {
            side[c as usize] = s == Side::B;
            weights[s.index()] += level.cell_weight(c);
        }
    }
    let mut free: Vec<VertexId> = (0..n as VertexId)
        .filter(|&c| !pinned[c as usize])
        .collect();
    free.shuffle(rng);
    for &c in &free {
        let target = usize::from(weights[1] < weights[0]);
        side[c as usize] = target == 1;
        weights[target] += level.cell_weight(c);
    }
    level.part(side)
}

/// Whether `c` may move off the `heavy` side to shrink `imbalance`: it
/// is free, on that side, and lighter than the imbalance.
fn eligible<L: Cells>(
    level: &L,
    p: &L::Part,
    fixed: &[bool],
    c: VertexId,
    imbalance: VertexWeight,
    heavy: Side,
) -> bool {
    L::side(p, c) == heavy
        && !fixed.get(c as usize).copied().unwrap_or(false)
        && level.cell_weight(c) < imbalance
}

/// Moves minimum-damage cells off the heavier side until `p` is
/// balanced: each step moves the eligible cell with the largest
/// `(gain, Reverse(cell))`, walking every gain from `p`. Only fixed
/// cells can leave no cell eligible: weights are at least 1, so past
/// the tolerance every cell is lighter than the imbalance (weighted
/// levels) or the imbalance is at least 2 (unit weights).
pub(crate) fn rebalance<L: Cells>(level: &L, p: &mut L::Part, fixed: &[bool]) {
    let tolerance = Tolerance::of(level).base;
    loop {
        let (imbalance, heavy) = heavy_side::<L>(p);
        if imbalance <= tolerance {
            break;
        }
        let pick = (0..level.num_cells() as VertexId)
            .filter(|&c| eligible(level, p, fixed, c, imbalance, heavy))
            .max_by_key(|&c| (level.gain(p, c), Reverse(c)));
        let Some(c) = pick else {
            break;
        };
        level.move_cell(p, c);
    }
}

/// [`rebalance`] on gains read from — and kept exact in — a `cache`
/// that is exact for `(level, p)` on entry, reporting each moved cell
/// to `on_move`.
///
/// Each step moves the cell the scan of [`rebalance`] would pick, but
/// finds it in a lazy max-heap kept in the cache, so a step costs
/// `O(mates of the moved cell · log)` rather than `O(cells)`.
pub(crate) fn rebalance_with_cache<L: Cells>(
    level: &L,
    p: &mut L::Part,
    fixed: &[bool],
    cache: &mut L::Cache,
    mut on_move: impl FnMut(VertexId),
) {
    let tolerance = Tolerance::of(level).base;
    let mut heap = std::mem::take(L::heap(cache));
    // Invariant: every eligible cell of the `built_for` side has an
    // entry carrying its current cached gain. Entries go stale when the
    // gain changes (a fresher one is pushed), when the cell moves, or
    // when it stops being lighter than the imbalance — which only
    // shrinks, so it never becomes eligible again.
    let mut built_for: Option<Side> = None;
    loop {
        let (imbalance, heavy) = heavy_side::<L>(p);
        if imbalance <= tolerance {
            break;
        }
        if built_for != Some(heavy) {
            // First step, or the heavy side flipped (which in practice
            // lands balanced: the tolerance is the largest weight).
            heap.clear();
            heap.extend(
                (0..level.num_cells() as VertexId)
                    .filter(|&c| eligible(level, p, fixed, c, imbalance, heavy))
                    .map(|c| (L::cached_gain(cache, c), Reverse(c))),
            );
            built_for = Some(heavy);
        }
        let mut pick = None;
        while let Some((gain, Reverse(c))) = heap.pop() {
            if gain == L::cached_gain(cache, c) && eligible(level, p, fixed, c, imbalance, heavy) {
                pick = Some(c);
                break;
            }
        }
        let Some(c) = pick else {
            break;
        };
        level.cached_move(p, cache, c);
        on_move(c);
        let imbalance = heavy_side::<L>(p).0;
        for q in level.mates(c) {
            if eligible(level, p, fixed, q, imbalance, heavy) {
                heap.push((L::cached_gain(cache, q), Reverse(q)));
            }
        }
    }
    heap.clear();
    *L::heap(cache) = heap;
}

impl Cells for Graph {
    type Part = Bisection;
    type Cache = GainCache;

    fn num_cells(&self) -> usize {
        self.num_vertices()
    }

    fn cell_weight(&self, v: VertexId) -> VertexWeight {
        self.vertex_weight(v)
    }

    fn part(&self, sides: Vec<bool>) -> Bisection {
        // lint: allow(no-panic) — every caller builds one side per vertex
        Bisection::from_sides(self, sides).expect("one side per vertex")
    }

    fn side(p: &Bisection, v: VertexId) -> Side {
        p.side(v)
    }

    fn side_weights(p: &Bisection) -> [VertexWeight; 2] {
        [p.weight(Side::A), p.weight(Side::B)]
    }

    fn gain(&self, p: &Bisection, v: VertexId) -> i64 {
        p.gain(self, v)
    }

    fn move_cell(&self, p: &mut Bisection, v: VertexId) {
        p.move_vertex(self, v);
    }

    fn cached_gain(cache: &GainCache, v: VertexId) -> i64 {
        cache.gain(v)
    }

    fn cached_move(&self, p: &mut Bisection, cache: &mut GainCache, v: VertexId) {
        let gain = cache.gain(v);
        cache.record_move(self, p, v);
        p.move_vertex_with_gain(self, v, gain);
    }

    fn mates(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v).iter().copied()
    }

    fn heap(cache: &mut GainCache) -> &mut RebalanceHeap {
        &mut cache.rebalance_heap
    }
}

impl Cells for Netlist {
    type Part = NetlistBisection;
    type Cache = NetlistGainCache;

    fn num_cells(&self) -> usize {
        Netlist::num_cells(self)
    }

    fn cell_weight(&self, c: VertexId) -> VertexWeight {
        Netlist::cell_weight(self, c)
    }

    fn part(&self, sides: Vec<bool>) -> NetlistBisection {
        // lint: allow(no-panic) — every caller builds one side per cell
        NetlistBisection::from_sides(self, sides).expect("one side per cell")
    }

    fn side(p: &NetlistBisection, c: VertexId) -> Side {
        p.side(c)
    }

    fn side_weights(p: &NetlistBisection) -> [VertexWeight; 2] {
        [p.weight(Side::A), p.weight(Side::B)]
    }

    fn gain(&self, p: &NetlistBisection, c: VertexId) -> i64 {
        p.gain(self, c)
    }

    fn move_cell(&self, p: &mut NetlistBisection, c: VertexId) {
        p.move_cell(self, c);
    }

    fn cached_gain(cache: &NetlistGainCache, c: VertexId) -> i64 {
        cache.gain(c)
    }

    fn cached_move(&self, p: &mut NetlistBisection, cache: &mut NetlistGainCache, c: VertexId) {
        cache.move_cell(self, p, c);
    }

    fn mates(&self, c: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.nets_of(c)
            .iter()
            .flat_map(move |&net| self.pins(net).iter().copied())
    }

    fn heap(cache: &mut NetlistGainCache) -> &mut RebalanceHeap {
        &mut cache.rebalance_heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_graph::contraction::contract_matching;
    use bisect_graph::hypergraph::NetlistBuilder;
    use bisect_graph::matching::random_maximal;
    use bisect_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The scan selection on cached gains: an `O(cells)` argmax per
    /// move, the reference the heap of [`rebalance_with_cache`] must
    /// match move for move.
    fn rebalance_with_cache_scan<L: Cells>(
        level: &L,
        p: &mut L::Part,
        fixed: &[bool],
        cache: &mut L::Cache,
    ) -> Vec<VertexId> {
        let tolerance = Tolerance::of(level).base;
        let mut moves = Vec::new();
        loop {
            let [a, b] = L::side_weights(p);
            let imbalance = a.abs_diff(b);
            if imbalance <= tolerance {
                return moves;
            }
            let heavy = if a > b { Side::A } else { Side::B };
            let candidate = (0..level.num_cells() as VertexId)
                .filter(|&c| {
                    L::side(p, c) == heavy
                        && !fixed.get(c as usize).copied().unwrap_or(false)
                        && level.cell_weight(c) < imbalance
                })
                .max_by_key(|&c| (L::cached_gain(cache, c), Reverse(c)));
            let Some(c) = candidate else {
                return moves;
            };
            level.cached_move(p, cache, c);
            moves.push(c);
        }
    }

    /// Rebalances `start` by the heap (reusing `heap_cache`'s arena),
    /// by the cached-gain scan and by the plain scan, and asserts the
    /// same move sequence, the same result and exact caches. Returns
    /// the number of moves and whether the heavy side flipped.
    fn assert_heap_moves_like_the_scan<L: Cells>(
        level: &L,
        start: &L::Part,
        fixed: &[bool],
        heap_cache: &mut L::Cache,
        init: impl Fn(&mut L::Cache, &L::Part),
    ) -> (usize, bool)
    where
        L::Part: Clone + PartialEq + std::fmt::Debug,
        L::Cache: Default,
    {
        let mut scan = start.clone();
        let mut scan_cache = L::Cache::default();
        init(&mut scan_cache, &scan);
        let scan_moves = rebalance_with_cache_scan(level, &mut scan, fixed, &mut scan_cache);

        let mut heap = start.clone();
        init(heap_cache, &heap);
        let mut heap_moves = Vec::new();
        rebalance_with_cache(level, &mut heap, fixed, heap_cache, |c| heap_moves.push(c));

        let mut plain = start.clone();
        rebalance(level, &mut plain, fixed);

        assert_eq!(heap_moves, scan_moves);
        assert_eq!(heap, scan);
        assert_eq!(plain, scan);
        for c in 0..level.num_cells() as VertexId {
            assert_eq!(L::cached_gain(heap_cache, c), level.gain(&heap, c));
        }
        let signed = |p: &L::Part| {
            let [a, b] = L::side_weights(p);
            a.cmp(&b)
        };
        let flipped = signed(start) != signed(&heap) && signed(&heap).is_ne();
        (heap_moves.len(), flipped)
    }

    /// `nl` with cell weights drawn from `1..=max_weight` and net
    /// weights from `1..=3`.
    fn reweighted(nl: &Netlist, max_weight: u64, rng: &mut StdRng) -> Netlist {
        let mut b = NetlistBuilder::new(nl.num_cells());
        for c in nl.cells() {
            b.set_cell_weight(c, rng.gen_range(1..=max_weight)).unwrap();
        }
        for n in nl.net_ids() {
            b.add_weighted_net(nl.pins(n), rng.gen_range(1..=3u64))
                .unwrap();
        }
        b.build()
    }

    /// A random graph of about `2·cells` vertices, contracted by one or
    /// two random maximal matchings: vertex and edge weights of up to 2
    /// or 4.
    fn contracted_graph(cells: usize, levels: usize, rng: &mut StdRng) -> Graph {
        let params = bisect_gen::gnp::GnpParams::with_average_degree(2 * cells, 3.0).unwrap();
        let mut g = bisect_gen::gnp::sample(rng, &params);
        for _ in 0..levels {
            let m = random_maximal(&g, rng);
            g = contract_matching(&g, &m).coarse().clone();
        }
        g
    }

    #[test]
    fn rebalance_with_cache_moves_exactly_like_the_scan() {
        use bisect_gen::netlist::{sample_streamed, RentNetlistParams};

        let mut rng = StdRng::seed_from_u64(2024);
        // One cache per kind for every heap run: its heap arena is
        // reused across levels of different sizes.
        let mut netlist_cache = NetlistGainCache::default();
        let mut graph_cache = GainCache::default();
        let (mut moved, mut flips) = ([0usize; 2], [0usize; 2]);
        for trial in 0..48 {
            let cells = rng.gen_range(20..400usize);
            let base = if trial % 2 == 0 {
                let locality = [0.02, 0.1, 1.0][trial % 3];
                let params =
                    RentNetlistParams::new(cells, cells * 14 / 10, 8, 1.8, locality).unwrap();
                sample_streamed(&mut rng, &params)
            } else {
                let mut b = NetlistBuilder::new(cells);
                let mut pins: Vec<u32> = (0..cells as u32).collect();
                for _ in 0..cells * 3 / 2 {
                    pins.shuffle(&mut rng);
                    b.add_net(&pins[..rng.gen_range(2..=6usize)]).unwrap();
                }
                b.build()
            };
            let nl = match trial % 4 {
                0 | 1 => base,
                _ => reweighted(&base, [2, 9][trial % 8 / 4], &mut rng),
            };
            // A lopsided start with ~10% of the cells fixed.
            let lean = rng.gen_range(0.6..1.0);
            let sides: Vec<bool> = (0..cells).map(|_| rng.gen_bool(lean)).collect();
            let fixed: Vec<bool> = (0..cells).map(|_| rng.gen_bool(0.1)).collect();
            let start = NetlistBisection::from_sides(&nl, sides).unwrap();
            let (m, f) =
                assert_heap_moves_like_the_scan(&nl, &start, &fixed, &mut netlist_cache, |c, p| {
                    c.init(&nl, p)
                });
            moved[0] += m;
            flips[0] += usize::from(f);

            // The same check on a weighted contracted graph.
            let g = contracted_graph(cells, 1 + trial % 2, &mut rng);
            let n = g.num_vertices();
            let sides: Vec<bool> = (0..n).map(|_| rng.gen_bool(lean)).collect();
            let fixed: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
            let start = Bisection::from_sides(&g, sides).unwrap();
            let (m, f) =
                assert_heap_moves_like_the_scan(&g, &start, &fixed, &mut graph_cache, |c, p| {
                    c.init(&g, p)
                });
            moved[1] += m;
            flips[1] += usize::from(f);
        }
        for kind in 0..2 {
            assert!(
                moved[kind] > 1000,
                "the corpus must exercise long move sequences"
            );
            assert!(
                flips[kind] > 0,
                "some weighted run must flip the heavy side"
            );
        }
    }

    #[test]
    fn rebalance_with_cache_follows_a_weighted_flip() {
        // All 6 units of weight on side A, tolerance 4 (the largest
        // weight). Cell 0 has no nets (edges), so its gain 0 beats
        // cells 1 and 2 (gain -1 each): moving it overshoots to 2 | 4.
        let mut b = NetlistBuilder::new(3);
        b.set_cell_weight(0, 4).unwrap();
        b.add_net(&[1, 2]).unwrap();
        let nl = b.build();
        let start = NetlistBisection::from_sides(&nl, vec![false; 3]).unwrap();
        let mut cache = NetlistGainCache::default();
        let run =
            assert_heap_moves_like_the_scan(&nl, &start, &[], &mut cache, |c, p| c.init(&nl, p));
        assert_eq!(run, (1, true));

        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(0, 4).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        let start = Bisection::from_sides(&g, vec![false; 3]).unwrap();
        let mut cache = GainCache::default();
        let run =
            assert_heap_moves_like_the_scan(&g, &start, &[], &mut cache, |c, p| c.init(&g, p));
        assert_eq!(run, (1, true));
    }

    #[test]
    fn weight_balanced_pins_the_fixed_cells() {
        let mut b = NetlistBuilder::new(6);
        for net in [&[0, 1, 2][..], &[0, 1], &[3, 4, 5], &[4, 5], &[2, 3]] {
            b.add_net(net).unwrap();
        }
        let nl = b.build();
        let fixed = [(0, Side::B), (3, Side::A), (0, Side::B)];
        for seed in 0..8 {
            let p = weight_balanced(&nl, &fixed, &mut StdRng::seed_from_u64(seed));
            assert_eq!(p.side(0), Side::B, "seed {seed}");
            assert_eq!(p.side(3), Side::A, "seed {seed}");
            assert!(p.is_balanced(&nl), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&nl));
        }
    }

    #[test]
    fn tolerance_keys_on_cell_weights_only() {
        // Unit vertex weights with weighted edges: the parity rule.
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 3).unwrap();
        let g = b.build();
        let t = Tolerance::of(&g);
        assert_eq!((t.base, t.pass), (1, 2));
        let t = Tolerance::of(&Graph::empty(4));
        assert_eq!((t.base, t.pass), (0, 2));
        let t = Tolerance::of(&Graph::empty(0));
        assert_eq!((t.base, t.pass), (0, 2));
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(1, 5).unwrap();
        let t = Tolerance::of(&b.build());
        assert_eq!((t.base, t.pass), (5, 10));
    }
}
