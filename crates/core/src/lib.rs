//! Graph bisection heuristics reproducing Bui, Heigham, Jones &
//! Leighton, *Improving the Performance of the Kernighan-Lin and
//! Simulated Annealing Graph Bisection Algorithms* (DAC 1989).
//!
//! The paper's algorithms:
//!
//! * [`kl::KernighanLin`] — the classical pass-based pair-swap
//!   heuristic (§III, Figure 2).
//! * [`sa::SimulatedAnnealing`] — Figure 1's generic annealing with a
//!   Johnson-et-al.-style schedule and both swap and single-flip move
//!   sets (§II).
//! * [`pipeline::Pipeline`] — the paper's contribution as a composable
//!   coarsen → partition → refine cycle: contract a random maximal
//!   matching, bisect the denser coarse graph, project back, and refine
//!   (§V). [`pipeline::Pipeline::ckl`] is **CKL**,
//!   [`pipeline::Pipeline::csa`] is **CSA**, and the same engine covers
//!   multilevel (V-cycle) bisection and recursive `2^k`-way
//!   partitioning.
//!
//! Extensions and baselines used by tests and the benchmark harness:
//!
//! * [`fm::FiducciaMattheyses`] — the 1982 bucket-gain successor of KL
//!   (single moves, linear-time passes), for ablations.
//! * [`fm::BoundaryFm`] — FM whose passes seed only from the cut
//!   boundary, tracked incrementally by [`gain_cache::GainCache`] and
//!   projected across uncoarsening levels so no level pays a full
//!   `O(V + E)` gain rebuild; `O(boundary · deg)` per pass on
//!   well-cut graphs.
//! * [`pipeline::CoarsenScheme`] — swappable coarsening (random,
//!   heavy-edge, edge-order matchings); the start of the coarsest graph
//!   is fixed by the coarsening depth (see [`pipeline`]).
//! * [`exact`] — branch-and-bound optimum for small graphs (ground
//!   truth in tests).
//! * [`degree2`] — the paper's `O(n²)` exact solver for maximum-degree-2
//!   graphs (unions of paths and chordless cycles).
//! * [`netlist`] — hypergraph-native FM on netlists
//!   (`bisect_graph::hypergraph`), the true objective of the paper's
//!   VLSI motivation.
//! * [`par_fm::ParallelFm`] — chunked parallel FM refinement for
//!   million-vertex instances; deterministic at a fixed thread count.
//!   Its netlist twin runs the same round. The huge experiments run
//!   them as the level refiners of a [`pipeline::Pipeline`] (or its
//!   netlist form [`netlist::NetlistPipeline`]) with
//!   [`pipeline::ParallelMatching`] (or [`netlist::ParallelCellMatching`])
//!   coarsening and a serial FM refiner set by `with_coarsest` on the
//!   coarsest level.
//! * [`spectral::SpectralBisector`] — Fiedler-vector bisection.
//! * [`greedy::GreedyGrowth`] — BFS region growing.
//! * [`bisector::RandomBisector`] — the trivial baseline.
//!
//! Everything operates on [`partition::Bisection`] via the
//! [`bisector::Bisector`]/[`bisector::Refiner`] traits, and draws
//! randomness from any [`rand::RngCore`] — the workspace's
//! lagged-Fibonacci generator (`bisect_gen::rng::LaggedFibonacci`)
//! reproduces the paper's choice.
//!
//! # Quickstart
//!
//! ```
//! use bisect_core::bisector::{best_of, Bisector};
//! use bisect_core::pipeline::Pipeline;
//! use bisect_gen::special;
//! use rand::SeedableRng;
//!
//! let g = special::grid(10, 10);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1989);
//! let ckl = Pipeline::ckl();
//! let p = best_of(&ckl, &g, 2, &mut rng); // the paper's best-of-two protocol
//! assert!(p.is_balanced(&g));
//! assert!(p.cut() <= 14); // bisection width of the 10×10 grid is 10
//! ```
//!
//! Invalid configurations surface a typed [`error::BisectError`]
//! (e.g. from [`pipeline::Pipeline::multilevel_to`]) instead of
//! panicking.
//!
//! The pre-pipeline wrappers (`Compacted`, `Multilevel`,
//! `RecursiveBisection`) have been removed; their behavior lives on
//! bit-identically in the [`pipeline`] descriptors, pinned by the
//! golden values in `tests/pipeline_equivalence.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
pub mod bisector;
pub mod degree2;
pub mod error;
pub mod exact;
pub mod fm;
pub(crate) mod gain;
pub mod gain_cache;
pub mod greedy;
pub mod kl;
pub mod netlist;
pub mod par_fm;
pub mod partition;
pub mod pipeline;
pub mod sa;
pub mod seed;
pub mod spectral;
pub mod workspace;
