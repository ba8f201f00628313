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

use crate::matching::Matching;
use crate::{Graph, GraphBuilder, VertexId};

/// The result of contracting a matching: the coarse graph together with
/// the fine-to-coarse vertex map.
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
pub struct Contraction {
    coarse: Graph,
    fine_to_coarse: Vec<VertexId>,
    num_fine: usize,
}

impl Contraction {
    /// The coarse (contracted) graph `G'`.
    pub fn coarse(&self) -> &Graph {
        &self.coarse
    }

    /// The coarse vertex that fine vertex `v` was merged into.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the fine graph.
    pub fn map(&self, v: VertexId) -> VertexId {
        self.fine_to_coarse[v as usize]
    }

    /// The full fine-to-coarse map, indexed by fine vertex id.
    pub fn fine_to_coarse(&self) -> &[VertexId] {
        &self.fine_to_coarse
    }

    /// Number of vertices of the fine graph.
    pub fn num_fine(&self) -> usize {
        self.num_fine
    }

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
        assert_eq!(
            coarse_side.len(),
            self.coarse.num_vertices(),
            "side assignment length must match coarse vertex count"
        );
        self.fine_to_coarse
            .iter()
            .map(|&c| coarse_side[c as usize])
            .collect()
    }
}

/// Contracts the matched pairs of `m` in `g`. Unmatched vertices survive
/// unchanged (with their original weight). Coarse ids are assigned in
/// order of first appearance of each group along fine vertex order, so
/// the map is deterministic given the matching.
///
/// # Panics
///
/// Panics if the matching was built for a different vertex count.
// lint: allow(no-panic) — sums of positive fine weights stay positive,
// cu != cv is checked before add_edge, and ids are in range.
pub fn contract_matching(g: &Graph, m: &Matching) -> Contraction {
    let n = g.num_vertices();
    // Assign coarse ids.
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    let mut next: VertexId = 0;
    for v in 0..n as VertexId {
        if fine_to_coarse[v as usize] != VertexId::MAX {
            continue;
        }
        fine_to_coarse[v as usize] = next;
        if let Some(u) = m.mate(v) {
            assert_eq!(
                fine_to_coarse[u as usize],
                VertexId::MAX,
                "matching must pair each vertex at most once"
            );
            fine_to_coarse[u as usize] = next;
        }
        next += 1;
    }
    let num_coarse = next as usize;

    let mut builder = GraphBuilder::new(num_coarse);
    builder.reserve_edges(g.num_edges());
    // Coarse vertex weights: sum of fine weights in each group.
    let mut weights = vec![0u64; num_coarse];
    for v in 0..n as VertexId {
        weights[fine_to_coarse[v as usize] as usize] += g.vertex_weight(v);
    }
    for (c, &w) in weights.iter().enumerate() {
        builder
            .set_vertex_weight(c as VertexId, w)
            .expect("coarse weights are positive sums of positive weights");
    }
    for (u, v, w) in g.edges() {
        let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
        if cu != cv {
            builder
                .add_weighted_edge(cu, cv, w)
                .expect("coarse endpoints are in range and distinct");
        }
    }
    Contraction {
        coarse: builder.build(),
        fine_to_coarse,
        num_fine: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert_eq!(c.num_fine(), 6);
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
