//! Compact undirected graphs and the structural operations needed by the
//! graph-bisection heuristics of Bui, Heigham, Jones & Leighton (DAC 1989).
//!
//! The crate provides:
//!
//! * [`Graph`] — an immutable undirected graph in compressed sparse row
//!   form, with integer vertex and edge weights (weights are all `1` for
//!   the simple graphs of the paper, and carry multiplicities after
//!   [`contraction`] module).
//! * [`GraphBuilder`] — incremental, deduplicating construction.
//! * [`matching`] — random maximal matchings (the paper's "maximum random
//!   matching" used by the compaction heuristic) and heavy-edge matchings.
//! * [`contraction`] — edge contraction / coarsening with projection maps,
//!   the other half of the compaction heuristic.
//! * [`reorder`] — cache-conscious vertex relabelings (BFS and degree
//!   order) for million-vertex instances.
//! * [`traversal`] — BFS, connected components, bipartiteness.
//! * [`union_find`] — disjoint sets, used by contraction and components.
//! * [`io`] — METIS `.graph` and plain edge-list readers/writers.
//! * [`stats`] — degree statistics (the paper's analysis is parameterized
//!   by average degree).
//!
//! # Example
//!
//! ```
//! use bisect_graph::GraphBuilder;
//!
//! // A 4-cycle: 0-1-2-3-0.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1).unwrap();
//! b.add_edge(1, 2).unwrap();
//! b.add_edge(2, 3).unwrap();
//! b.add_edge(3, 0).unwrap();
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(0), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod error;

pub mod contraction;
pub mod hypergraph;
pub mod io;
pub mod matching;
pub mod reorder;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod union_find;

pub use builder::{EdgeStream, GraphBuilder};
pub use csr::{EdgeIter, Graph, NeighborIter};
pub use error::GraphError;

/// Identifier of a vertex; vertices of a graph on `n` vertices are
/// `0..n as VertexId`.
pub type VertexId = u32;

/// Integer edge weight. Simple graphs use weight `1`; contracted graphs
/// use weights to record edge multiplicities.
pub type EdgeWeight = u64;

/// Integer vertex weight. Simple graphs use weight `1`; contracted graphs
/// use weights to record how many original vertices a coarse vertex
/// represents.
pub type VertexWeight = u64;
