//! Edge contraction (coarsening) and projection back to the fine graph.
//!
//! Step 2 of the paper's compaction heuristic (§V): "Form a new graph
//! `G'` by contracting the edges in the random matching `M`. That is,
//! coalesce the two endpoints of an edge in the random matching to form
//! a new vertex."
//!
//! Contracting a matching merges each matched pair into one coarse
//! vertex. Parallel edges that arise are merged with summed weights, and
//! the matched edge itself disappears (it would be a self loop). Coarse
//! vertex weights record how many original vertices each coarse vertex
//! stands for, so that a *weight*-balanced bisection of `G'` projects to
//! a *vertex*-balanced bisection of `G`, and the weighted coarse cut
//! equals the fine cut exactly (tested below and by property tests).
//!
//! [`Contraction`] is the one contraction type of the workspace: the
//! coarse structure plus the fine-to-coarse map. Graphs use it as is;
//! netlists as [`NetlistContraction`](crate::hypergraph::NetlistContraction),
//! its alias over [`Netlist`](crate::hypergraph::Netlist).
//!
//! [`contract_matching`] writes the coarse CSR in one `O(V + E)` bucket
//! (transpose) pass with no edge list and no sort: visiting coarse
//! sources in ascending order makes every row come out sorted, and
//! visiting each source's members together makes its parallel edges
//! arrive back to back, so they merge into the row's last entry. The
//! `GraphBuilder` body it replaced (an `O(E log E)` sort of one record
//! per fine edge) is kept as the test oracle.

use crate::matching::Matching;
use crate::{EdgeWeight, Graph, VertexId, VertexWeight};

/// The result of contracting a matching: the coarse structure `T` (a
/// [`Graph`] unless stated otherwise) together with the fine-to-coarse
/// vertex map.
///
/// # Example
///
/// ```
/// use bisect_graph::{Graph, matching::Matching, contraction::contract_matching};
///
/// // Path 0-1-2-3; contract the edge (1, 2).
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let m = Matching::from_pairs(4, &[(1, 2)]);
/// let c = contract_matching(&g, &m);
/// assert_eq!(c.coarse().num_vertices(), 3);
/// assert_eq!(c.map(1), c.map(2));
/// assert_eq!(c.coarse().vertex_weight(c.map(1)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Contraction<T = Graph> {
    pub(crate) coarse: T,
    pub(crate) fine_to_coarse: Vec<VertexId>,
}

impl<T> Contraction<T> {
    /// The coarse (contracted) structure, `G'` for a graph.
    pub fn coarse(&self) -> &T {
        &self.coarse
    }

    /// The coarse vertex that fine vertex `v` was merged into.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the fine structure.
    pub fn map(&self, v: VertexId) -> VertexId {
        self.fine_to_coarse[v as usize]
    }

    /// The full fine-to-coarse map, indexed by fine vertex id; gain
    /// caches consume it to project themselves across an uncoarsening
    /// step.
    pub fn fine_to_coarse(&self) -> &[VertexId] {
        &self.fine_to_coarse
    }

    /// Every fine vertex inherits the side of its coarse image in
    /// `coarse_side`, which must have `coarse_len` entries.
    pub(crate) fn project(&self, coarse_len: usize, coarse_side: &[bool]) -> Vec<bool> {
        assert_eq!(
            coarse_side.len(),
            coarse_len,
            "side assignment length must match the coarse size"
        );
        self.fine_to_coarse
            .iter()
            .map(|&c| coarse_side[c as usize])
            .collect()
    }
}

impl Contraction {
    /// Projects a coarse side assignment (`side[c]` for each coarse
    /// vertex) to a fine side assignment: every fine vertex inherits the
    /// side of its coarse image. This is step 4 of the compaction
    /// heuristic ("uncompact the edges … and create an initial bisection
    /// `(A, B)` from `(A', B')`").
    ///
    /// # Panics
    ///
    /// Panics if `coarse_side.len()` differs from the coarse vertex
    /// count.
    pub fn project_sides(&self, coarse_side: &[bool]) -> Vec<bool> {
        self.project(self.coarse.num_vertices(), coarse_side)
    }
}

/// Contracts the matched pairs of `m` in `g`. Unmatched vertices survive
/// unchanged (with their original weight). Coarse ids are assigned in
/// order of first appearance of each group along fine vertex order (the
/// group's leader is its lower fine id), so the map is deterministic
/// given the matching.
///
/// Runs in `O(V + E)` time with no edge list and no sort: the coarse CSR
/// is written by one bucket (transpose) pass. Staging row `y` gets room
/// for the summed fine degrees of its members. Coarse vertices `c` are
/// visited in ascending order, and each fine neighbor `x` of a member of
/// `c` appends `c` to row `f2c[x]`, or adds the edge weight to that row's
/// last entry when it already is `c`. Sources reach every row in
/// ascending order and all of `c`'s entries for a row arrive together,
/// so each row comes out sorted with its parallel edges merged; by
/// symmetry row `y` holds exactly `y`'s coarse neighbors. The gaps the
/// merges leave are squeezed out in place at the end.
///
/// # Panics
///
/// Panics if the matching was built for a different vertex count.
pub fn contract_matching(g: &Graph, m: &Matching) -> Contraction {
    let n = g.num_vertices();
    assert_eq!(
        m.num_vertices(),
        n,
        "matching covers {} vertices but the graph has {n}",
        m.num_vertices()
    );
    if 2 * g.num_edges() <= u32::MAX as usize {
        bucket_pass::<u32>(g, m)
    } else {
        bucket_pass::<usize>(g, m)
    }
}

/// A slot index into CSR-shaped arrays: `u32` while every slot fits
/// (halving the row tables that the bucket pass here and the builder's
/// filling pass read at random), `usize` beyond.
pub(crate) trait Slot: Copy {
    fn new(i: usize) -> Self;
    fn get(self) -> usize;
}

impl Slot for u32 {
    #[inline]
    fn new(i: usize) -> u32 {
        i as u32
    }
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

impl Slot for usize {
    #[inline]
    fn new(i: usize) -> usize {
        i
    }
    #[inline]
    fn get(self) -> usize {
        self
    }
}

/// The body of [`contract_matching`], with staging rows held as
/// `(start, cursor)` slot pairs of type `S`.
fn bucket_pass<S: Slot>(g: &Graph, m: &Matching) -> Contraction {
    let n = g.num_vertices();
    // Coarse ids, vertex weights and staging rows, in leader order.
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    let mut vertex_weights: Vec<VertexWeight> = Vec::with_capacity(n - m.len());
    let mut rows: Vec<(S, S)> = Vec::with_capacity(n - m.len());
    let mut slots = 0;
    for v in 0..n as VertexId {
        if fine_to_coarse[v as usize] != VertexId::MAX {
            continue;
        }
        let c = vertex_weights.len() as VertexId;
        fine_to_coarse[v as usize] = c;
        let (mut weight, mut capacity) = (g.vertex_weight(v), g.degree(v));
        if let Some(u) = m.mate(v) {
            fine_to_coarse[u as usize] = c;
            weight += g.vertex_weight(u);
            capacity += g.degree(u);
        }
        vertex_weights.push(weight);
        rows.push((S::new(slots), S::new(slots)));
        slots += capacity;
    }

    let mut adjncy = vec![0 as VertexId; slots];
    let mut edge_weights = vec![0 as EdgeWeight; slots];
    for v in 0..n as VertexId {
        let mate = m.mate(v);
        if mate.is_some_and(|u| u < v) {
            continue;
        }
        let c = fine_to_coarse[v as usize];
        for f in std::iter::once(v).chain(mate) {
            for (&x, &w) in g.neighbors(f).iter().zip(g.neighbor_weights(f)) {
                let y = fine_to_coarse[x as usize];
                if y == c {
                    continue;
                }
                let (start, cursor) = &mut rows[y as usize];
                let last = cursor.get();
                if last > start.get() && adjncy[last - 1] == c {
                    edge_weights[last - 1] += w;
                } else {
                    adjncy[last] = c;
                    edge_weights[last] = w;
                    *cursor = S::new(last + 1);
                }
            }
        }
    }

    // Squeeze the merge gaps out; rows only move left.
    let mut xadj = Vec::with_capacity(rows.len() + 1);
    xadj.push(0);
    let mut out = 0;
    for (start, cursor) in rows {
        let (lo, hi) = (start.get(), cursor.get());
        adjncy.copy_within(lo..hi, out);
        edge_weights.copy_within(lo..hi, out);
        out += hi - lo;
        xadj.push(out);
    }
    adjncy.truncate(out);
    adjncy.shrink_to_fit();
    edge_weights.truncate(out);
    edge_weights.shrink_to_fit();
    Contraction {
        coarse: Graph::from_csr(xadj, adjncy, edge_weights, vertex_weights),
        fine_to_coarse,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{matching, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `GraphBuilder` contraction the bucket pass replaced, kept as
    /// the oracle: one `(cu, cv, w)` record per fine edge, sorted and
    /// merged by the builder.
    fn reference_contract_matching(g: &Graph, m: &Matching) -> Contraction {
        let n = g.num_vertices();
        let mut fine_to_coarse = vec![VertexId::MAX; n];
        let mut next: VertexId = 0;
        for v in 0..n as VertexId {
            if fine_to_coarse[v as usize] != VertexId::MAX {
                continue;
            }
            fine_to_coarse[v as usize] = next;
            if let Some(u) = m.mate(v) {
                assert_eq!(fine_to_coarse[u as usize], VertexId::MAX);
                fine_to_coarse[u as usize] = next;
            }
            next += 1;
        }
        let mut builder = GraphBuilder::new(next as usize);
        let mut weights = vec![0u64; next as usize];
        for v in 0..n as VertexId {
            weights[fine_to_coarse[v as usize] as usize] += g.vertex_weight(v);
        }
        for (c, &w) in weights.iter().enumerate() {
            builder.set_vertex_weight(c as VertexId, w).unwrap();
        }
        for (u, v, w) in g.edges() {
            let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
            if cu != cv {
                builder.add_weighted_edge(cu, cv, w).unwrap();
            }
        }
        Contraction {
            coarse: builder.build(),
            fine_to_coarse,
        }
    }

    /// Asserts that the bucket pass, with narrow and with wide slots,
    /// agrees with the oracle on `m` and returns the contraction.
    fn assert_matches_oracle(g: &Graph, m: &Matching) -> Contraction {
        let fast = contract_matching(g, m);
        let oracle = reference_contract_matching(g, m);
        assert_eq!(fast.coarse(), oracle.coarse());
        assert_eq!(fast.fine_to_coarse(), oracle.fine_to_coarse());
        let wide = bucket_pass::<usize>(g, m);
        assert_eq!(wide.coarse(), oracle.coarse());
        assert_eq!(wide.fine_to_coarse(), oracle.fine_to_coarse());
        fast
    }

    /// A random multigraph folded into a weighted graph: vertex weights
    /// 1-3, edge weights 1-4 (summed where edges repeat).
    pub(crate) fn random_weighted_graph(n: usize, edges: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.set_vertex_weight(v, rng.gen_range(1..4u64)).unwrap();
        }
        if n >= 2 {
            for _ in 0..edges {
                let u = rng.gen_range(0..n as VertexId);
                let v = rng.gen_range(0..n as VertexId);
                if u != v {
                    b.add_weighted_edge(u, v, rng.gen_range(1..5u64)).unwrap();
                }
            }
        }
        b.build()
    }

    /// Disjoint pairs drawn from a random permutation, adjacent in `g`
    /// or not: contraction does not require matched pairs to be edges.
    fn random_pairs(n: usize, pairs: usize, seed: u64) -> Matching {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
        ids.shuffle(&mut rng);
        let pairs: Vec<_> = ids
            .chunks_exact(2)
            .take(pairs)
            .map(|p| (p[0], p[1]))
            .collect();
        Matching::from_pairs(n, &pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bucket_pass_matches_builder_oracle(
            n in 0usize..60,
            density in 0usize..6,
            seed in 0u64..10_000,
        ) {
            let g = random_weighted_graph(n, n * density, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            assert_matches_oracle(&g, &matching::random_maximal(&g, &mut rng));
            assert_matches_oracle(&g, &matching::heavy_edge(&g, &mut rng));
            assert_matches_oracle(&g, &matching::random_edge_order(&g, &mut rng));
            assert_matches_oracle(&g, &random_pairs(n, n / 3, seed));
            assert_matches_oracle(&g, &random_pairs(n, n / 2, seed));
            assert_matches_oracle(&g, &Matching::empty(n));
        }
    }

    #[test]
    fn bucket_pass_matches_oracle_on_edge_cases() {
        assert_matches_oracle(&Graph::empty(0), &Matching::empty(0));
        assert_matches_oracle(&Graph::empty(6), &Matching::empty(6));
        assert_matches_oracle(&Graph::empty(6), &random_pairs(6, 3, 1));
        // A perfect matching of a cycle whose pairs are all edges, and
        // one whose pairs are none: the coarse graph is a 4-cycle either
        // way, with weight 2 on every edge for the second.
        let cycle =
            Graph::from_edges(8, &(0..8).map(|i| (i, (i + 1) % 8)).collect::<Vec<_>>()).unwrap();
        let edges = Matching::from_pairs(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        assert_eq!(
            assert_matches_oracle(&cycle, &edges).coarse().num_edges(),
            4
        );
        let opposite = Matching::from_pairs(8, &[(0, 4), (1, 5), (2, 6), (3, 7)]);
        let c = assert_matches_oracle(&cycle, &opposite);
        assert_eq!(c.coarse().num_vertices(), 4);
        assert_eq!(c.coarse().total_edge_weight(), 8);
        // A complete graph contracted to one vertex pair by pair.
        let k: Vec<_> = (0..6)
            .flat_map(|u| (u + 1..6).map(move |v| (u, v)))
            .collect();
        let k6 = Graph::from_edges(6, &k).unwrap();
        let c = assert_matches_oracle(&k6, &random_pairs(6, 3, 2));
        assert_eq!(c.coarse().num_edges(), 3);
        assert_eq!(c.coarse().total_edge_weight(), 12);
    }

    #[test]
    fn bucket_pass_matches_oracle_on_high_degree_ladders() {
        // A sparse random graph contracted level by level until its
        // coarse vertices average 20 or more distinct neighbors (as on
        // deep `Gbreg` levels), where every row merges many parallel
        // edges.
        let degree = |g: &Graph| 2 * g.num_edges() / g.num_vertices();
        for seed in 0..4u64 {
            let mut g = random_weighted_graph(4_000, 8_000, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut levels = 0;
            while degree(&g) < 20 {
                let m = if levels % 2 == 0 {
                    matching::heavy_edge(&g, &mut rng)
                } else {
                    matching::random_maximal(&g, &mut rng)
                };
                g = assert_matches_oracle(&g, &m).coarse().clone();
                levels += 1;
            }
            assert!(degree(&g) <= 40, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "matching covers 6 vertices but the graph has 4")]
    fn matching_for_a_larger_graph_panics() {
        // The extra pair lies above the graph's ids, so only the vertex
        // count check can catch it.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let _ = contract_matching(&g, &Matching::from_pairs(6, &[(0, 1), (4, 5)]));
    }

    fn cut_of(g: &Graph, side: &[bool]) -> u64 {
        g.edges()
            .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
            .map(|(_, _, w)| w)
            .sum()
    }

    #[test]
    fn contract_single_edge_of_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let m = Matching::from_pairs(4, &[(1, 2)]);
        let c = contract_matching(&g, &m);
        let gc = c.coarse();
        assert_eq!(gc.num_vertices(), 3);
        assert_eq!(gc.num_edges(), 2);
        assert_eq!(gc.total_vertex_weight(), 4);
        // Matched edge vanished; its weight is not in the coarse graph.
        assert_eq!(gc.total_edge_weight(), 2);
    }

    #[test]
    fn triangle_contraction_creates_weighted_edge() {
        // Triangle 0-1-2; contract (0,1): coarse graph has vertices
        // {01, 2} and a single edge of weight 2 (the two fine edges
        // 0-2 and 1-2 merge).
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let m = Matching::from_pairs(3, &[(0, 1)]);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse().num_vertices(), 2);
        assert_eq!(c.coarse().num_edges(), 1);
        assert_eq!(c.coarse().edge_weight(0, 1), Some(2));
    }

    #[test]
    fn empty_matching_is_identity_on_structure() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let m = Matching::empty(4);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse().num_vertices(), 4);
        assert_eq!(c.coarse().num_edges(), 2);
        assert_eq!(c.fine_to_coarse(), &[0, 1, 2, 3]);
    }

    #[test]
    fn map_is_consistent_with_matching() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let m = Matching::from_pairs(6, &[(1, 2), (4, 5)]);
        let c = contract_matching(&g, &m);
        assert_eq!(c.map(1), c.map(2));
        assert_eq!(c.map(4), c.map(5));
        assert_ne!(c.map(0), c.map(1));
        assert_eq!(c.fine_to_coarse().len(), 6);
    }

    #[test]
    fn projection_preserves_cut() {
        // Cut preservation: weighted coarse cut equals fine cut of the
        // projected sides, for a hand-built example.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (3, 4),
                (3, 5),
                (4, 5),
                (2, 3),
                (1, 4),
            ],
        )
        .unwrap();
        let m = Matching::from_pairs(6, &[(0, 1), (3, 4)]);
        let c = contract_matching(&g, &m);
        let gc = c.coarse();
        // Enumerate all coarse side assignments and compare cuts.
        let k = gc.num_vertices();
        for mask in 0..1u32 << k {
            let coarse_side: Vec<bool> = (0..k).map(|i| mask >> i & 1 == 1).collect();
            let fine_side = c.project_sides(&coarse_side);
            assert_eq!(
                cut_of(gc, &coarse_side),
                cut_of(&g, &fine_side),
                "mask {mask}"
            );
        }
    }

    #[test]
    fn projection_preserves_weight_balance() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let m = Matching::from_pairs(4, &[(0, 1), (2, 3)]);
        let c = contract_matching(&g, &m);
        let fine = c.project_sides(&[true, false]);
        assert_eq!(fine.iter().filter(|&&s| s).count(), 2);
    }

    #[test]
    #[should_panic(expected = "side assignment length")]
    fn project_wrong_length_panics() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let c = contract_matching(&g, &Matching::empty(2));
        let _ = c.project_sides(&[true]);
    }

    #[test]
    fn random_matching_contraction_preserves_total_weight() {
        let n = 40;
        let edges: Vec<_> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contract_matching(&g, &m);
        assert_eq!(c.coarse().total_vertex_weight(), n as u64);
        assert_eq!(c.coarse().num_vertices(), n - m.len());
    }
}
