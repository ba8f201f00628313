//! Cache-conscious vertex relabelings.
//!
//! At paper scale (|V| ≈ 2000–5000) the CSR arrays fit in L2 and vertex
//! order is irrelevant; at 10^6+ vertices a refinement sweep walks the
//! adjacency of essentially random vertex ids and every neighbor lookup
//! is a cache miss. Relabeling vertices so that neighbors get nearby ids
//! (BFS order) or so that the hottest rows pack together (degree order)
//! makes the sweeps stride through memory instead.
//!
//! A [`Reordering`] is a permutation with both directions materialized.
//! The intended protocol, used by the `huge` bench profile, is: relabel
//! the graph with [`Reordering::apply`] *before* refinement, run the
//! partitioner on the relabeled graph, then map the resulting side
//! assignment back with [`Reordering::to_old_sides`]. Relabeling is a
//! graph isomorphism, so cut weights and degree sequences are preserved
//! exactly (property-tested in `tests/proptests.rs`).

use std::collections::VecDeque;

use crate::{EdgeWeight, Graph, GraphError, VertexId};

/// A bijective relabeling of the vertices `0..n`, with both the
/// `new -> old` and `old -> new` directions materialized.
///
/// # Example
///
/// ```
/// use bisect_graph::{reorder, Graph};
///
/// let g = Graph::from_edges(4, &[(0, 2), (2, 1), (1, 3)]).unwrap();
/// let r = reorder::bfs(&g);
/// let h = r.apply(&g);
/// assert_eq!(h.num_edges(), g.num_edges());
/// // BFS from vertex 0 visits 0, 2, 1, 3; vertex 2 becomes vertex 1.
/// assert_eq!(r.to_new(2), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reordering {
    new_to_old: Vec<VertexId>,
    old_to_new: Vec<VertexId>,
}

impl Reordering {
    /// The identity relabeling on `n` vertices.
    pub fn identity(n: usize) -> Reordering {
        let ids: Vec<VertexId> = (0..n as VertexId).collect();
        Reordering {
            new_to_old: ids.clone(),
            old_to_new: ids,
        }
    }

    /// Builds a reordering from an explicit `new -> old` visitation
    /// order: `order[i]` is the old id of the vertex that becomes `i`.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if an id is `>= order.len()`,
    /// [`GraphError::DuplicateVertex`] if an id repeats (i.e. `order` is
    /// not a permutation).
    pub fn from_new_to_old(order: Vec<VertexId>) -> Result<Reordering, GraphError> {
        let n = order.len();
        let mut old_to_new = vec![VertexId::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            if old as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: old as u64,
                    num_vertices: n,
                });
            }
            if old_to_new[old as usize] != VertexId::MAX {
                return Err(GraphError::DuplicateVertex { vertex: old as u64 });
            }
            old_to_new[old as usize] = new as VertexId;
        }
        Ok(Reordering {
            new_to_old: order,
            old_to_new,
        })
    }

    /// Internal constructor for orders already known to be permutations.
    fn from_order_unchecked(order: Vec<VertexId>) -> Reordering {
        let mut old_to_new = vec![VertexId::MAX; order.len()];
        for (new, &old) in order.iter().enumerate() {
            debug_assert_eq!(old_to_new[old as usize], VertexId::MAX);
            old_to_new[old as usize] = new as VertexId;
        }
        Reordering {
            new_to_old: order,
            old_to_new,
        }
    }

    /// Number of vertices the reordering covers.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Whether the reordering covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The old id of the vertex relabeled to `new`.
    ///
    /// # Panics
    ///
    /// Panics if `new` is out of range.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.new_to_old[new as usize]
    }

    /// The new id assigned to old vertex `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` is out of range.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> VertexId {
        self.old_to_new[old as usize]
    }

    /// The full `new -> old` map.
    pub fn new_to_old(&self) -> &[VertexId] {
        &self.new_to_old
    }

    /// The full `old -> new` map.
    pub fn old_to_new(&self) -> &[VertexId] {
        &self.old_to_new
    }

    /// The relabeled graph: vertex `new` of the result is vertex
    /// `to_old(new)` of `g`, with all edges and weights carried over.
    /// Builds the CSR arrays directly by one transpose scatter: new ids
    /// `r` are visited in ascending order and each appends itself to the
    /// row of every neighbor, so every row comes out sorted without a
    /// sort.
    ///
    /// # Panics
    ///
    /// Panics if the reordering was built for a different vertex count.
    pub fn apply(&self, g: &Graph) -> Graph {
        let n = g.num_vertices();
        assert_eq!(
            n,
            self.len(),
            "reordering covers {} vertices but the graph has {n}",
            self.len()
        );
        // `xadj[t + 1]` starts as row `t`'s first slot and serves as its
        // cursor, so after the scatter it is the row's end.
        let mut xadj = vec![0usize; n + 1];
        for t in 1..n {
            xadj[t + 1] = xadj[t] + g.degree(self.new_to_old[t - 1]);
        }
        let entries = 2 * g.num_edges();
        let mut adjncy = vec![0 as VertexId; entries];
        let mut edge_weights = vec![0 as EdgeWeight; entries];
        for (r, &old) in self.new_to_old.iter().enumerate() {
            for (u, w) in g.neighbors_weighted(old) {
                let row = &mut xadj[self.old_to_new[u as usize] as usize + 1];
                adjncy[*row] = r as VertexId;
                edge_weights[*row] = w;
                *row += 1;
            }
        }
        let vertex_weights = (0..n)
            .map(|new| g.vertex_weight(self.new_to_old[new]))
            .collect();
        Graph::from_csr(xadj, adjncy, edge_weights, vertex_weights)
    }

    /// Maps a side assignment on the *original* ids to the relabeled
    /// ids: entry `new` of the result is `old_side[to_old(new)]`.
    ///
    /// # Panics
    ///
    /// Panics if `old_side.len()` differs from [`len`](Reordering::len).
    pub fn to_new_sides(&self, old_side: &[bool]) -> Vec<bool> {
        assert_eq!(old_side.len(), self.len(), "side assignment length");
        self.new_to_old
            .iter()
            .map(|&old| old_side[old as usize])
            .collect()
    }

    /// Maps a side assignment on the *relabeled* ids back to the
    /// original ids — the inverse of
    /// [`to_new_sides`](Reordering::to_new_sides), used to report a
    /// partition computed on a relabeled graph in the caller's ids.
    ///
    /// # Panics
    ///
    /// Panics if `new_side.len()` differs from [`len`](Reordering::len).
    pub fn to_old_sides(&self, new_side: &[bool]) -> Vec<bool> {
        assert_eq!(new_side.len(), self.len(), "side assignment length");
        let mut old_side = vec![false; self.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            old_side[old as usize] = new_side[new];
        }
        old_side
    }

    /// Permutes any per-vertex array indexed by *original* ids into the
    /// relabeled index space: entry `new` of the result is
    /// `old_values[to_old(new)]`. The generic sibling of
    /// [`to_new_sides`](Reordering::to_new_sides), for carrying gains,
    /// weights, or side projections alongside a relabeled graph.
    ///
    /// # Panics
    ///
    /// Panics if `old_values.len()` differs from [`len`](Reordering::len).
    pub fn to_new_values<T: Copy>(&self, old_values: &[T]) -> Vec<T> {
        assert_eq!(old_values.len(), self.len(), "per-vertex array length");
        self.new_to_old
            .iter()
            .map(|&old| old_values[old as usize])
            .collect()
    }

    /// Permutes any per-vertex array indexed by *relabeled* ids back to
    /// the original index space — the inverse of
    /// [`to_new_values`](Reordering::to_new_values).
    ///
    /// # Panics
    ///
    /// Panics if `new_values.len()` differs from [`len`](Reordering::len).
    pub fn to_old_values<T: Copy>(&self, new_values: &[T]) -> Vec<T> {
        assert_eq!(new_values.len(), self.len(), "per-vertex array length");
        let mut old_values = new_values.to_vec();
        for (new, &old) in self.new_to_old.iter().enumerate() {
            old_values[old as usize] = new_values[new];
        }
        old_values
    }
}

/// Breadth-first relabeling: vertices are numbered in BFS visitation
/// order, entering components in increasing order of their smallest
/// vertex and visiting neighbors in increasing id order. Neighboring
/// vertices end up with nearby ids, so a refinement sweep over the
/// relabeled graph touches adjacency rows roughly in storage order.
pub fn bfs(g: &Graph) -> Reordering {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for root in 0..n as VertexId {
        if seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    Reordering::from_order_unchecked(order)
}

/// Degree relabeling: vertices are numbered by descending degree (ties
/// broken by ascending original id), so the largest adjacency rows — the
/// ones most often revisited by gain updates — pack together at the
/// front of the arrays.
pub fn by_degree(g: &Graph) -> Reordering {
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    Reordering::from_order_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut_of(g: &Graph, side: &[bool]) -> u64 {
        g.edges()
            .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
            .map(|(_, _, w)| w)
            .sum()
    }

    #[test]
    fn identity_roundtrip() {
        let r = Reordering::identity(4);
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(r.apply(&g), g);
        assert_eq!(r.to_new(3), 3);
    }

    #[test]
    fn bfs_orders_path_contiguously() {
        // Path stored in scrambled id order: 3-1-4-0-2.
        let g = Graph::from_edges(5, &[(3, 1), (1, 4), (4, 0), (0, 2)]).unwrap();
        let r = bfs(&g);
        let h = r.apply(&g);
        // In BFS order every path vertex neighbors ids within distance 2.
        for v in h.vertices() {
            for &u in h.neighbors(v) {
                assert!((v as i64 - u as i64).abs() <= 2, "{v} - {u}");
            }
        }
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    fn bfs_covers_all_components() {
        let g = Graph::from_edges(5, &[(3, 4)]).unwrap();
        let r = bfs(&g);
        let mut olds = r.new_to_old().to_vec();
        olds.sort_unstable();
        assert_eq!(olds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        // Star with center 3.
        let g = Graph::from_edges(5, &[(3, 0), (3, 1), (3, 2), (3, 4)]).unwrap();
        let r = by_degree(&g);
        assert_eq!(r.to_old(0), 3);
        let h = r.apply(&g);
        assert_eq!(h.degree(0), 4);
    }

    #[test]
    fn apply_preserves_cut_and_degrees() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .unwrap();
        let r = Reordering::from_new_to_old(vec![5, 3, 0, 4, 1, 2]).unwrap();
        let h = r.apply(&g);
        let old_side = vec![true, true, true, false, false, false];
        let new_side = r.to_new_sides(&old_side);
        assert_eq!(cut_of(&g, &old_side), cut_of(&h, &new_side));
        assert_eq!(r.to_old_sides(&new_side), old_side);
        for v in g.vertices() {
            assert_eq!(g.degree(v), h.degree(r.to_new(v)));
            assert_eq!(g.weighted_degree(v), h.weighted_degree(r.to_new(v)));
        }
    }

    #[test]
    fn apply_preserves_weights() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 7).unwrap();
        b.set_vertex_weight(2, 5).unwrap();
        let g = b.build();
        let r = Reordering::from_new_to_old(vec![2, 0, 1]).unwrap();
        let h = r.apply(&g);
        assert_eq!(h.vertex_weight(0), 5);
        assert_eq!(h.edge_weight(0, 1), Some(7));
    }

    #[test]
    fn apply_equals_relabeling_through_the_builder() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..80usize);
            let g = crate::contraction::tests::random_weighted_graph(n, 3 * n, seed);
            let mut order: Vec<VertexId> = (0..n as VertexId).collect();
            order.shuffle(&mut rng);
            let r = Reordering::from_new_to_old(order).unwrap();
            let mut oracle = crate::GraphBuilder::new(n);
            for v in g.vertices() {
                oracle
                    .set_vertex_weight(r.to_new(v), g.vertex_weight(v))
                    .unwrap();
            }
            for (u, v, w) in g.edges() {
                oracle
                    .add_weighted_edge(r.to_new(u), r.to_new(v), w)
                    .unwrap();
            }
            assert_eq!(r.apply(&g), oracle.build(), "seed {seed}");
        }
    }

    #[test]
    fn from_new_to_old_validates() {
        assert!(matches!(
            Reordering::from_new_to_old(vec![0, 0]),
            Err(GraphError::DuplicateVertex { vertex: 0 })
        ));
        assert!(matches!(
            Reordering::from_new_to_old(vec![0, 2]),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
    }

    #[test]
    fn generic_value_maps_roundtrip_and_match_side_maps() {
        let r = Reordering::from_new_to_old(vec![5, 3, 0, 4, 1, 2]).unwrap();
        let old_gains: Vec<i64> = vec![-3, 0, 7, 2, -1, 9];
        let new_gains = r.to_new_values(&old_gains);
        for new in 0..r.len() as VertexId {
            assert_eq!(new_gains[new as usize], old_gains[r.to_old(new) as usize]);
        }
        assert_eq!(r.to_old_values(&new_gains), old_gains);

        // `to_new_sides`/`to_old_sides` are the `bool` specialization.
        let old_side = vec![true, false, true, false, true, false];
        assert_eq!(r.to_new_values(&old_side), r.to_new_sides(&old_side));
        let new_side = r.to_new_sides(&old_side);
        assert_eq!(r.to_old_values(&new_side), r.to_old_sides(&new_side));
    }

    #[test]
    fn empty_reordering() {
        let r = Reordering::identity(0);
        assert!(r.is_empty());
        assert_eq!(r.apply(&Graph::empty(0)).num_vertices(), 0);
    }
}
