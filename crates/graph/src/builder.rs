use crate::contraction::Slot;
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
///
/// The weights start out all 1 and the filling pass writes only the
/// others. Passes that agree write every slot exactly once, so the
/// arrays are the same as if every weight were written.
fn fill<F>(n: usize, vertex_weights: Vec<VertexWeight>, mut emit: F) -> Result<Graph, GraphError>
where
    F: FnMut(&mut EdgeStream<'_>) -> Result<(), GraphError>,
{
    // Degrees are counted into `xadj[v + 1]`, then summed in place.
    let mut xadj = vec![0usize; n + 1];
    let counted = {
        let mut sink = EdgeStream {
            num_vertices: n,
            records: 0,
            mode: StreamMode::Count {
                degree: &mut xadj[1..],
            },
        };
        emit(&mut sink)?;
        sink.records
    };
    let mut max_degree = 0;
    for v in 0..n {
        max_degree = max_degree.max(xadj[v + 1]);
        xadj[v + 1] += xadj[v];
    }
    let total = xadj[n];
    let mut adjncy = vec![0 as VertexId; total];
    let mut edge_weights = vec![1 as EdgeWeight; total];
    if total <= u32::MAX as usize {
        fill_pass::<u32, F>(counted, &xadj, &mut adjncy, &mut edge_weights, &mut emit)?;
    } else {
        fill_pass::<usize, F>(counted, &xadj, &mut adjncy, &mut edge_weights, &mut emit)?;
    }
    // Sort each adjacency list, merging parallel edges; the merged
    // lists are compacted toward the front of the same arrays (the
    // write cursor never overtakes the read range because merging
    // only shrinks lists), and `xadj` is rewritten behind the row
    // being read. One scratch buffer serves every vertex. A list that
    // is strictly increasing and still in place is final as it stands
    // (`Gnp` emits every list that way).
    let mut pairs: Vec<(VertexId, EdgeWeight)> = Vec::with_capacity(max_degree);
    let (mut lo, mut write) = (0, 0);
    for v in 0..n {
        let hi = xadj[v + 1];
        if write == lo && adjncy[lo..hi].is_sorted_by(|a, b| a < b) {
            write = hi;
        } else {
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
        }
        xadj[v + 1] = write;
        lo = hi;
    }
    // Merged parallel edges leave spare capacity; release it so the
    // graph retains exactly its CSR.
    adjncy.truncate(write);
    edge_weights.truncate(write);
    Ok(Graph::from_csr(
        xadj,
        exact(adjncy),
        exact(edge_weights),
        vertex_weights,
    ))
}

/// The filling pass, with each row's `(cursor, end)` held as one pair
/// of type `S`: `u32` while every slot fits, so each endpoint reads one
/// narrow array at random instead of a cursor array and `xadj`.
///
/// # Errors
///
/// As `emit`, plus [`GraphError::StreamMismatch`] if the pass emits
/// other than the `counted` records of the counting pass or leaves a
/// row short.
fn fill_pass<S: FillSlot, F>(
    counted: usize,
    xadj: &[usize],
    adjncy: &mut [VertexId],
    edge_weights: &mut [EdgeWeight],
    emit: &mut F,
) -> Result<(), GraphError>
where
    F: FnMut(&mut EdgeStream<'_>) -> Result<(), GraphError>,
{
    let mut rows: Vec<(S, S)> = xadj
        .windows(2)
        .map(|w| (S::new(w[0]), S::new(w[1])))
        .collect();
    let mut sink = EdgeStream {
        num_vertices: rows.len(),
        records: 0,
        mode: S::mode(Fill {
            xadj,
            rows: &mut rows,
            adjncy,
            edge_weights,
        }),
    };
    emit(&mut sink)?;
    let emitted = sink.records;
    if emitted != counted || rows.iter().any(|&(cursor, end)| cursor.get() != end.get()) {
        return Err(GraphError::StreamMismatch { counted, emitted });
    }
    Ok(())
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
    Count { degree: &'a mut [usize] },
    Narrow(Fill<'a, u32>),
    Wide(Fill<'a, usize>),
}

/// A row cursor type the filling pass runs with.
trait FillSlot: Slot {
    /// The sink mode that fills through `fill`.
    fn mode(fill: Fill<'_, Self>) -> StreamMode<'_>;
}

impl FillSlot for u32 {
    fn mode(fill: Fill<'_, u32>) -> StreamMode<'_> {
        StreamMode::Narrow(fill)
    }
}

impl FillSlot for usize {
    fn mode(fill: Fill<'_, usize>) -> StreamMode<'_> {
        StreamMode::Wide(fill)
    }
}

/// The filling pass's state: each row's `(cursor, end)` slot pair and
/// the arrays the slots index.
#[derive(Debug)]
struct Fill<'a, S> {
    /// The row offsets, read only to report a row that overflows.
    xadj: &'a [usize],
    rows: &'a mut [(S, S)],
    adjncy: &'a mut [VertexId],
    /// Pre-filled with 1, so only the other weights are written.
    edge_weights: &'a mut [EdgeWeight],
}

impl<S: Slot> Fill<'_, S> {
    /// Writes `b`, and `weight` unless it is 1, into the next free slot
    /// of row `a`.
    ///
    /// # Errors
    ///
    /// [`GraphError::StreamMismatch`] if row `a` is already full.
    #[inline]
    fn put(&mut self, a: VertexId, b: VertexId, weight: EdgeWeight) -> Result<(), GraphError> {
        let (cursor, end) = &mut self.rows[a as usize];
        let slot = cursor.get();
        if slot >= end.get() {
            let start = self.xadj[a as usize];
            return Err(GraphError::StreamMismatch {
                counted: end.get() - start,
                emitted: slot + 1 - start,
            });
        }
        self.adjncy[slot] = b;
        if weight != 1 {
            self.edge_weights[slot] = weight;
        }
        *cursor = S::new(slot + 1);
        Ok(())
    }
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
            StreamMode::Narrow(fill) => {
                fill.put(u, v, weight)?;
                fill.put(v, u, weight)?;
            }
            StreamMode::Wide(fill) => {
                fill.put(u, v, weight)?;
                fill.put(v, u, weight)?;
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

    /// The error of a stream whose second pass emits `edges` plus
    /// `extra` (or, with `None`, `edges` without its last edge).
    fn second_pass_error(edges: &[(VertexId, VertexId)], extra: Option<(u32, u32)>) -> GraphError {
        let mut pass = 0;
        GraphBuilder::stream(6, |sink| {
            pass += 1;
            let emitted = match (pass, extra) {
                (1, _) | (_, Some(_)) => edges,
                (_, None) => &edges[..edges.len() - 1],
            };
            for &(u, v) in emitted {
                sink.edge(u, v)?;
            }
            match extra {
                Some((u, v)) if pass > 1 => sink.edge(u, v),
                _ => Ok(()),
            }
        })
        .unwrap_err()
    }

    #[test]
    fn stream_detects_mismatched_passes() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)];
        // An extra edge at vertex 1 (degree 3) overflows its row; the
        // error counts that row's records.
        assert_eq!(
            second_pass_error(&edges, Some((1, 5))),
            GraphError::StreamMismatch {
                counted: 3,
                emitted: 4
            }
        );
        // At an isolated vertex the row is empty.
        assert_eq!(
            second_pass_error(&edges, Some((5, 0))),
            GraphError::StreamMismatch {
                counted: 0,
                emitted: 1
            }
        );
        // One fewer edge leaves two rows short; the error counts the
        // passes' records.
        assert_eq!(
            second_pass_error(&edges, None),
            GraphError::StreamMismatch {
                counted: 5,
                emitted: 4
            }
        );
        // A pass that swaps the last edge for one overflowing row 2 and
        // ignores the error emits as many records but leaves row 4
        // short.
        let mut pass = 0;
        let err = GraphBuilder::stream(6, |sink| {
            pass += 1;
            for &(u, v) in &edges[..4] {
                sink.edge(u, v)?;
            }
            if pass == 1 {
                sink.edge(1, 4)
            } else {
                sink.edge(1, 2).or(Ok(()))
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            GraphError::StreamMismatch {
                counted: 5,
                emitted: 5
            }
        );
    }

    #[test]
    fn mixed_weights_with_parallel_edges_sum_per_pair() {
        // Unit and non-unit weights on the same pairs, in both
        // orientations, interleaved with simple edges.
        let edges = [
            (0u32, 1u32, 1u64),
            (2, 0, 5),
            (1, 0, 3),
            (3, 2, 1),
            (0, 2, 1),
            (1, 3, 7),
            (0, 1, 1),
            (2, 3, 1),
            (4, 0, 2),
        ];
        let mut b = GraphBuilder::new(5);
        let mut expected = std::collections::BTreeMap::new();
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w).unwrap();
            *expected.entry((u.min(v), u.max(v))).or_insert(0) += w;
        }
        let g = b.build();
        let got: Vec<((VertexId, VertexId), EdgeWeight)> =
            g.edges().map(|(u, v, w)| ((u, v), w)).collect();
        assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
        for v in g.vertices() {
            assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
        let streamed = GraphBuilder::stream(5, |sink| {
            for &(u, v, w) in &edges {
                sink.weighted_edge(u, v, w)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(streamed, g);
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
