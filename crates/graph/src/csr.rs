use crate::{EdgeWeight, GraphError, VertexId, VertexWeight};

/// The CSR offset array, stored as `u32` when every offset fits (the
/// common case: graphs with fewer than 2^32 directed adjacency entries)
/// and widened to `usize` otherwise. At 10^6 vertices the narrow form
/// halves the offset footprint, which keeps more of the adjacency
/// structure resident in cache during refinement sweeps.
///
/// Equality is by offset *values*, not representation, so a narrow and a
/// wide array describing the same graph compare equal.
#[derive(Debug, Clone)]
pub(crate) enum Offsets {
    /// Offsets that fit in `u32`.
    Narrow(Vec<u32>),
    /// Fallback for graphs with 2^32 or more directed entries.
    Wide(Vec<usize>),
}

impl Offsets {
    /// Chooses the narrow representation when the final (largest) offset
    /// fits in `u32`.
    pub(crate) fn from_wide(xadj: Vec<usize>) -> Offsets {
        match xadj.last() {
            Some(&last) if last <= u32::MAX as usize => {
                Offsets::Narrow(xadj.into_iter().map(|x| x as u32).collect())
            }
            _ => Offsets::Wide(xadj),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            Offsets::Narrow(v) => v[i] as usize,
            Offsets::Wide(v) => v[i],
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Offsets::Narrow(v) => v.len(),
            Offsets::Wide(v) => v.len(),
        }
    }

    pub(crate) fn is_narrow(&self) -> bool {
        matches!(self, Offsets::Narrow(_))
    }
}

impl PartialEq for Offsets {
    fn eq(&self, other: &Offsets) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for Offsets {}

/// `v` without spare capacity. A grown or over-reserved `Vec` is copied
/// into an exact allocation rather than shrunk in place: under glibc
/// malloc an in-place shrink leaves its freed tail as a heap fragment
/// between live arrays (it raised the `netlist-local` benchmark's peak
/// RSS by about 10%), while the copy frees the whole old block for
/// reuse.
pub(crate) fn exact<T: Copy>(v: Vec<T>) -> Vec<T> {
    if v.capacity() == v.len() {
        v
    } else {
        v.as_slice().to_vec()
    }
}

/// An immutable undirected graph in compressed sparse row (CSR) form.
///
/// Vertices are `0..num_vertices() as VertexId`. Each undirected edge is
/// stored twice (once per endpoint) with identical weight; the adjacency
/// list of every vertex is sorted by neighbor id, which makes
/// [`has_edge`](Graph::has_edge) a binary search. Self loops are never
/// stored; parallel edges are merged into a single entry whose weight is
/// the sum of multiplicities.
///
/// Construct graphs with [`GraphBuilder`](crate::GraphBuilder) or the
/// [`Graph::from_edges`] convenience constructor.
///
/// # Example
///
/// ```
/// use bisect_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    xadj: Offsets,
    adjncy: Vec<VertexId>,
    edge_weights: Vec<EdgeWeight>,
    vertex_weights: Vec<VertexWeight>,
    num_edges: usize,
    total_edge_weight: EdgeWeight,
    total_vertex_weight: VertexWeight,
}

impl Graph {
    /// Builds a graph on `num_vertices` vertices from an edge list, with
    /// all vertex and edge weights equal to `1`. Duplicate edges are
    /// merged (weights summed).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>=
    /// num_vertices`, or [`GraphError::SelfLoop`] for an edge `(v, v)`.
    pub fn from_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Graph, GraphError> {
        let mut builder = crate::GraphBuilder::new(num_vertices);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// A graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Graph {
        Graph {
            xadj: Offsets::Narrow(vec![0; num_vertices + 1]),
            adjncy: Vec::new(),
            edge_weights: Vec::new(),
            vertex_weights: vec![1; num_vertices],
            num_edges: 0,
            total_edge_weight: 0,
            total_vertex_weight: num_vertices as VertexWeight,
        }
    }

    /// Internal constructor from finished CSR arrays. `adjncy[xadj[v]..
    /// xadj[v+1]]` must be sorted and self-loop free, with each edge
    /// mirrored. Checked by `debug_assert` only. Offsets are compacted
    /// to `u32` when they fit.
    pub(crate) fn from_csr(
        xadj: Vec<usize>,
        adjncy: Vec<VertexId>,
        edge_weights: Vec<EdgeWeight>,
        vertex_weights: Vec<VertexWeight>,
    ) -> Graph {
        debug_assert_eq!(xadj.last().copied().unwrap_or(0), adjncy.len());
        debug_assert_eq!(adjncy.len(), edge_weights.len());
        debug_assert_eq!(xadj.len(), vertex_weights.len() + 1);
        let num_edges = adjncy.len() / 2;
        let total_edge_weight = edge_weights.iter().sum::<EdgeWeight>() / 2;
        let total_vertex_weight = vertex_weights.iter().sum();
        let g = Graph {
            xadj: Offsets::from_wide(xadj),
            adjncy,
            edge_weights,
            vertex_weights,
            num_edges,
            total_edge_weight,
            total_vertex_weight,
        };
        debug_assert!(g.check_invariants());
        g
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) -> bool {
        for v in 0..self.num_vertices() {
            let adj = self.neighbors(v as VertexId);
            if !adj.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            if adj.contains(&(v as VertexId)) {
                return false;
            }
            for (&u, &w) in adj.iter().zip(self.neighbor_weights(v as VertexId)) {
                if self.edge_weight(u, v as VertexId) != Some(w) {
                    return false;
                }
            }
        }
        true
    }

    #[cfg(not(debug_assertions))]
    #[allow(dead_code)]
    fn check_invariants(&self) -> bool {
        true
    }

    /// The half-open range of adjacency indices belonging to vertex `v`.
    #[inline]
    fn span(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (self.xadj.get(v), self.xadj.get(v + 1))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Whether the CSR offset array is stored in its compact `u32` form
    /// (true whenever the directed adjacency length fits in `u32`; the
    /// wide `usize` fallback covers the rest).
    pub fn uses_compact_offsets(&self) -> bool {
        self.xadj.is_narrow()
    }

    /// Number of distinct undirected edges (multiplicities not counted;
    /// see [`total_edge_weight`](Graph::total_edge_weight) for the
    /// weighted count).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sum of the weights of all undirected edges. Equals
    /// [`num_edges`](Graph::num_edges) for simple unit-weight graphs.
    #[inline]
    pub fn total_edge_weight(&self) -> EdgeWeight {
        self.total_edge_weight
    }

    /// Sum of all vertex weights. Equals
    /// [`num_vertices`](Graph::num_vertices) for unit-weight graphs.
    #[inline]
    pub fn total_vertex_weight(&self) -> VertexWeight {
        self.total_vertex_weight
    }

    /// Number of distinct neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.span(v);
        hi - lo
    }

    /// Sum of the weights of edges incident to `v` (the degree in the
    /// original graph for contracted graphs).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn weighted_degree(&self, v: VertexId) -> EdgeWeight {
        let (lo, hi) = self.span(v);
        self.edge_weights[lo..hi].iter().sum()
    }

    /// The weight of vertex `v` (`1` for uncontracted graphs).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn vertex_weight(&self, v: VertexId) -> VertexWeight {
        self.vertex_weights[v as usize]
    }

    /// The sorted slice of neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.span(v);
        &self.adjncy[lo..hi]
    }

    /// Edge weights parallel to [`neighbors`](Graph::neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[EdgeWeight] {
        let (lo, hi) = self.span(v);
        &self.edge_weights[lo..hi]
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of `v` in neighbor
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors_weighted(&self, v: VertexId) -> NeighborIter<'_> {
        let (lo, hi) = self.span(v);
        NeighborIter {
            adjncy: self.adjncy[lo..hi].iter(),
            weights: self.edge_weights[lo..hi].iter(),
        }
    }

    /// Whether the edge `{u, v}` exists. `O(log degree(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The weight of edge `{u, v}`, or `None` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<EdgeWeight> {
        let base = self.xadj.get(u as usize);
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.edge_weights[base + i])
    }

    /// Iterates over all undirected edges as `(u, v, weight)` with
    /// `u < v`, in lexicographic order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            idx: 0,
        }
    }

    /// Iterates over all vertex ids `0..num_vertices()`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// `2·|E| / |V|` counting edge multiplicities, the quantity the
    /// paper's observations are parameterized by. Zero for the empty
    /// graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.total_edge_weight as f64 / self.num_vertices() as f64
        }
    }

    /// If every vertex has the same (unweighted) degree `d`, returns
    /// `Some(d)`.
    pub fn regular_degree(&self) -> Option<usize> {
        if self.num_vertices() == 0 {
            return None;
        }
        let d = self.degree(0);
        self.vertices().all(|v| self.degree(v) == d).then_some(d)
    }

    /// Whether all vertex and edge weights are `1` (i.e. the graph is an
    /// ordinary simple graph rather than a contracted multigraph).
    pub fn is_unit_weighted(&self) -> bool {
        self.vertex_weights.iter().all(|&w| w == 1) && self.edge_weights.iter().all(|&w| w == 1)
    }
}

/// Iterator over the `(neighbor, weight)` pairs of one vertex.
/// Created by [`Graph::neighbors_weighted`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    adjncy: std::slice::Iter<'a, VertexId>,
    weights: std::slice::Iter<'a, EdgeWeight>,
}

impl Iterator for NeighborIter<'_> {
    type Item = (VertexId, EdgeWeight);

    fn next(&mut self) -> Option<Self::Item> {
        Some((*self.adjncy.next()?, *self.weights.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.adjncy.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Iterator over all undirected edges `(u, v, weight)` with `u < v`.
/// Created by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: usize,
    idx: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId, EdgeWeight);

    fn next(&mut self) -> Option<Self::Item> {
        let g = self.graph;
        while self.u < g.num_vertices() {
            if self.idx >= g.xadj.get(self.u + 1) {
                self.u += 1;
                if self.u < g.num_vertices() {
                    self.idx = g.xadj.get(self.u);
                }
                continue;
            }
            let v = g.adjncy[self.idx];
            let w = g.edge_weights[self.idx];
            self.idx += 1;
            if (self.u as VertexId) < v {
                return Some((self.u as VertexId, v, w));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_edge_weight(), 0);
        assert_eq!(g.total_vertex_weight(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn path_degrees() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, &[(2, 1), (2, 3), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn has_edge_and_weight() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
        assert_eq!(g.total_edge_weight(), 3);
        assert!(!g.is_unit_weighted());
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(3, &[(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            }
        );
    }

    #[test]
    fn edges_iterator_lexicographic() {
        let g = Graph::from_edges(4, &[(3, 2), (0, 1), (1, 3)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (1, 3, 1), (2, 3, 1)]);
    }

    #[test]
    fn edges_iterator_counts_each_edge_once() {
        let g = path4();
        assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn average_degree_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.average_degree(), 2.0);
        assert_eq!(g.regular_degree(), Some(2));
    }

    #[test]
    fn not_regular() {
        assert_eq!(path4().regular_degree(), None);
    }

    #[test]
    fn neighbors_weighted_pairs() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (0, 2)]).unwrap();
        let pairs: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 1), (2, 2)]);
        assert_eq!(g.weighted_degree(0), 3);
    }

    #[test]
    fn unit_weighted_simple_graph() {
        assert!(path4().is_unit_weighted());
    }

    #[test]
    fn clone_and_eq() {
        let g = path4();
        let h = g.clone();
        assert_eq!(g, h);
    }

    #[test]
    fn vertices_range() {
        let g = path4();
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn small_graphs_use_compact_offsets() {
        assert!(path4().uses_compact_offsets());
        assert!(Graph::empty(3).uses_compact_offsets());
    }

    #[test]
    fn offsets_widen_when_out_of_u32_range() {
        let wide = Offsets::from_wide(vec![0, u32::MAX as usize + 1]);
        assert!(!wide.is_narrow());
        assert_eq!(wide.get(1), u32::MAX as usize + 1);
    }

    #[test]
    fn offsets_compare_by_value_across_representations() {
        let narrow = Offsets::from_wide(vec![0, 2, 4]);
        let wide = Offsets::Wide(vec![0, 2, 4]);
        assert!(narrow.is_narrow());
        assert_eq!(narrow, wide);
        assert_ne!(narrow, Offsets::Wide(vec![0, 2, 5]));
    }
}
