use crate::csr::exact;
use crate::{EdgeWeight, Graph, GraphError, VertexId, VertexWeight};

/// Incremental construction of a [`Graph`].
///
/// Edges may be added in any order and in both orientations; duplicates
/// are merged by summing weights at [`build`](GraphBuilder::build) time.
/// Self loops are rejected eagerly.
///
/// # Example
///
/// ```
/// use bisect_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_weighted_edge(1, 2, 5).unwrap();
/// b.set_vertex_weight(2, 2).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_weight(1, 2), Some(5));
/// assert_eq!(g.vertex_weight(2), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, EdgeWeight)>,
    vertex_weights: Vec<VertexWeight>,
}

impl GraphBuilder {
    /// A builder for a graph on `num_vertices` vertices with no edges
    /// and unit vertex weights.
    pub fn new(num_vertices: usize) -> GraphBuilder {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            vertex_weights: vec![1; num_vertices],
        }
    }

    /// Pre-allocates space for `additional` more edges.
    pub fn reserve_edges(&mut self, additional: usize) -> &mut GraphBuilder {
        self.edges.reserve(additional);
        self
    }

    /// Number of vertices of the graph being built.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds the undirected edge `{u, v}` with weight 1.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `u == v`;
    /// [`GraphError::VertexOutOfRange`] if an endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut GraphBuilder, GraphError> {
        self.add_weighted_edge(u, v, 1)
    }

    /// Adds the undirected edge `{u, v}` with the given weight
    /// (multiplicity).
    ///
    /// # Errors
    ///
    /// As [`add_edge`](GraphBuilder::add_edge), plus
    /// [`GraphError::ZeroWeight`] if `weight == 0`.
    pub fn add_weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: EdgeWeight,
    ) -> Result<&mut GraphBuilder, GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u as u64 });
        }
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, weight));
        Ok(self)
    }

    /// Sets the weight of vertex `v` (default 1).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if `v` is out of range;
    /// [`GraphError::ZeroWeight`] if `weight == 0`.
    pub fn set_vertex_weight(
        &mut self,
        v: VertexId,
        weight: VertexWeight,
    ) -> Result<&mut GraphBuilder, GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        self.check_vertex(v)?;
        self.vertex_weights[v as usize] = weight;
        Ok(self)
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v as u64,
                num_vertices: self.num_vertices,
            })
        }
    }

    /// Finalizes the CSR arrays, merging duplicate edges, and returns the
    /// graph: the stored records are replayed through the same count,
    /// fill, and per-vertex sort-and-merge as
    /// [`stream`](GraphBuilder::stream). Runs in `O(V + E log Δ)`.
    pub fn build(self) -> Graph {
        fill(self.num_vertices, self.vertex_weights, |sink| {
            for &(u, v, w) in &self.edges {
                sink.weighted_edge(u, v, w)?;
            }
            Ok(())
        })
        // lint: allow(no-panic) — the records were validated on insertion
        // and a stored list replays identically, so neither pass can fail
        .expect("stored records replay identically")
    }

    /// Builds a unit-vertex-weight graph without materializing an edge
    /// list: `emit` is invoked twice with an [`EdgeStream`] sink and must
    /// produce the *identical* edge sequence both times (re-run a cloned
    /// RNG, or re-scan the same staged arrays). The first pass counts
    /// endpoint slots, the second writes them straight into the CSR
    /// arrays (a counting sort by source vertex), after which each
    /// adjacency list is sorted and parallel edges are merged in place.
    ///
    /// Peak memory is the final CSR arrays plus `O(V)` counters — about
    /// half the edge-list path, which holds the `(u, v, w)` records and
    /// the CSR arrays simultaneously. [`build`](GraphBuilder::build)
    /// replays its records through this same fill, so both give the
    /// same graph for the same edges.
    ///
    /// # Errors
    ///
    /// Propagates per-edge errors from the sink
    /// ([`GraphError::SelfLoop`], [`GraphError::VertexOutOfRange`],
    /// [`GraphError::ZeroWeight`]) and returns
    /// [`GraphError::StreamMismatch`] if the two passes disagree.
    pub fn stream<F>(num_vertices: usize, emit: F) -> Result<Graph, GraphError>
    where
        F: FnMut(&mut EdgeStream<'_>) -> Result<(), GraphError>,
    {
        fill(num_vertices, vec![1; num_vertices], emit)
    }
}

/// The one CSR fill behind [`GraphBuilder::build`] and
/// [`GraphBuilder::stream`]: a counting pass, a filling pass that writes
/// each endpoint slot in place, then a per-vertex sort that merges
/// parallel edges and compacts the lists toward the front of the same
/// arrays.
fn fill<F>(n: usize, vertex_weights: Vec<VertexWeight>, mut emit: F) -> Result<Graph, GraphError>
where
    F: FnMut(&mut EdgeStream<'_>) -> Result<(), GraphError>,
{
    let mut degree = vec![0usize; n];
    let counted = {
        let mut sink = EdgeStream {
            num_vertices: n,
            records: 0,
            mode: StreamMode::Count {
                degree: &mut degree,
            },
        };
        emit(&mut sink)?;
        sink.records
    };
    let mut xadj = vec![0usize; n + 1];
    for v in 0..n {
        xadj[v + 1] = xadj[v] + degree[v];
    }
    let total = xadj[n];
    let mut adjncy = vec![0 as VertexId; total];
    let mut edge_weights = vec![0 as EdgeWeight; total];
    let mut cursor: Vec<usize> = xadj[..n].to_vec();
    let emitted = {
        let mut sink = EdgeStream {
            num_vertices: n,
            records: 0,
            mode: StreamMode::Fill {
                xadj: &xadj,
                cursor: &mut cursor,
                adjncy: &mut adjncy,
                edge_weights: &mut edge_weights,
            },
        };
        emit(&mut sink)?;
        sink.records
    };
    if emitted != counted || cursor.iter().zip(&xadj[1..]).any(|(&c, &end)| c != end) {
        return Err(GraphError::StreamMismatch { counted, emitted });
    }
    // Sort each adjacency list, merging parallel edges; the merged
    // lists are compacted toward the front of the same arrays (the
    // write cursor never overtakes the read range because merging
    // only shrinks lists). One scratch buffer serves every vertex.
    let mut pairs: Vec<(VertexId, EdgeWeight)> =
        Vec::with_capacity(degree.iter().copied().max().unwrap_or(0));
    let mut new_xadj = vec![0usize; n + 1];
    let mut write = 0usize;
    for v in 0..n {
        let (lo, hi) = (xadj[v], xadj[v + 1]);
        let start = write;
        pairs.clear();
        pairs.extend(
            adjncy[lo..hi]
                .iter()
                .copied()
                .zip(edge_weights[lo..hi].iter().copied()),
        );
        pairs.sort_unstable_by_key(|&(nbr, _)| nbr);
        for &(nbr, w) in &pairs {
            if write > start && adjncy[write - 1] == nbr {
                edge_weights[write - 1] += w;
            } else {
                adjncy[write] = nbr;
                edge_weights[write] = w;
                write += 1;
            }
        }
        new_xadj[v + 1] = write;
    }
    // Merged parallel edges leave spare capacity; release it so the
    // graph retains exactly its CSR.
    adjncy.truncate(write);
    edge_weights.truncate(write);
    Ok(Graph::from_csr(
        new_xadj,
        exact(adjncy),
        exact(edge_weights),
        vertex_weights,
    ))
}

/// The edge sink handed to the closure of [`GraphBuilder::stream`].
/// Validates each edge exactly as [`GraphBuilder::add_weighted_edge`]
/// does, so both passes fail identically on bad input.
#[derive(Debug)]
pub struct EdgeStream<'a> {
    num_vertices: usize,
    records: usize,
    mode: StreamMode<'a>,
}

#[derive(Debug)]
enum StreamMode<'a> {
    Count {
        degree: &'a mut [usize],
    },
    Fill {
        xadj: &'a [usize],
        cursor: &'a mut [usize],
        adjncy: &'a mut [VertexId],
        edge_weights: &'a mut [EdgeWeight],
    },
}

impl EdgeStream<'_> {
    /// Emits the undirected edge `{u, v}` with weight 1.
    ///
    /// # Errors
    ///
    /// As [`EdgeStream::weighted_edge`].
    pub fn edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.weighted_edge(u, v, 1)
    }

    /// Emits the undirected edge `{u, v}` with the given weight.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`], [`GraphError::VertexOutOfRange`], or
    /// [`GraphError::ZeroWeight`] as for
    /// [`GraphBuilder::add_weighted_edge`];
    /// [`GraphError::StreamMismatch`] if the filling pass emits more
    /// edges at some vertex than the counting pass declared.
    pub fn weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: EdgeWeight,
    ) -> Result<(), GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u as u64 });
        }
        for endpoint in [u, v] {
            if endpoint as usize >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: endpoint as u64,
                    num_vertices: self.num_vertices,
                });
            }
        }
        self.records += 1;
        match &mut self.mode {
            StreamMode::Count { degree } => {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
            StreamMode::Fill {
                xadj,
                cursor,
                adjncy,
                edge_weights,
            } => {
                for (a, b) in [(u, v), (v, u)] {
                    let slot = cursor[a as usize];
                    if slot >= xadj[a as usize + 1] {
                        return Err(GraphError::StreamMismatch {
                            counted: xadj[a as usize + 1] - xadj[a as usize],
                            emitted: slot + 1 - xadj[a as usize],
                        });
                    }
                    adjncy[slot] = b;
                    edge_weights[slot] = weight;
                    cursor[a as usize] = slot + 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn merges_duplicates_in_both_orientations() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn weighted_edges_sum() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 3).unwrap();
        b.add_weighted_edge(1, 0, 4).unwrap();
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(7));
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_weighted_edge(0, 1, 0).unwrap_err(),
            GraphError::ZeroWeight
        );
        assert_eq!(
            b.set_vertex_weight(0, 0).unwrap_err(),
            GraphError::ZeroWeight
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 2).is_err());
        assert!(b.set_vertex_weight(5, 1).is_err());
    }

    #[test]
    fn vertex_weights_preserved() {
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(1, 7).unwrap();
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 1);
        assert_eq!(g.vertex_weight(1), 7);
        assert_eq!(g.total_vertex_weight(), 9);
    }

    #[test]
    fn adjacency_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[(5, 0), (0, 3), (2, 0), (0, 1), (4, 0)] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn chaining_api() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn stream_matches_edge_list_build() {
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (3, 1), (0, 3), (1, 0)];
        let mut b = GraphBuilder::new(4);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let via_list = b.build();
        let via_stream = GraphBuilder::stream(4, |sink| {
            for &(u, v) in &edges {
                sink.edge(u, v)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(via_list, via_stream);
        assert_eq!(via_stream.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn stream_weighted_edges_merge() {
        let g = GraphBuilder::stream(2, |sink| {
            sink.weighted_edge(0, 1, 3)?;
            sink.weighted_edge(1, 0, 4)
        })
        .unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(7));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn stream_empty() {
        let g = GraphBuilder::stream(3, |_| Ok(())).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn stream_rejects_bad_edges() {
        assert!(matches!(
            GraphBuilder::stream(3, |sink| sink.edge(1, 1)),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        assert!(GraphBuilder::stream(3, |sink| sink.edge(0, 3)).is_err());
        assert_eq!(
            GraphBuilder::stream(3, |sink| sink.weighted_edge(0, 1, 0)),
            Err(GraphError::ZeroWeight)
        );
    }

    #[test]
    fn stream_detects_mismatched_passes() {
        let mut pass = 0;
        let err = GraphBuilder::stream(4, |sink| {
            pass += 1;
            sink.edge(0, 1)?;
            if pass > 1 {
                sink.edge(2, 3)?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::StreamMismatch { .. }));
    }

    #[test]
    fn larger_merge_correctness() {
        // Complete graph K5 added with every edge twice.
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 10);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
            assert_eq!(g.weighted_degree(v), 8);
        }
    }
}
