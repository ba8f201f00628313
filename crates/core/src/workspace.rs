//! Reusable per-thread scratch memory for the refinement hot paths.
//!
//! Every KL/FM pass and SA run needs the same transient arrays — gain
//! arrays, locked flags, move sequences, candidate buckets, member
//! lists. Allocating them per pass dominated profile time on small
//! graphs and caused allocator contention once trials ran in parallel.
//! A [`Workspace`] owns all of them; the `*_in` entry points
//! ([`crate::bisector::Bisector::bisect_in`],
//! [`crate::kl::KernighanLin::pass_in`], …) borrow it, so after the
//! first trial has grown every buffer to the graph's size
//! (*warm-up*), the steady-state per-swap / per-pass / per-temperature
//! loops perform **zero heap allocations**. The per-trial O(n) setup
//! (drawing the random starting bisection, clearing arenas) still
//! touches memory, but not the allocator.
//!
//! A workspace is plain mutable state: not `Sync`, intended to live one
//! per worker thread (the experiment runner keeps one in a
//! `thread_local`). It can be reused across graphs of different sizes —
//! every arena is re-dimensioned on entry, shrinking logically but
//! never releasing capacity.

use bisect_graph::{Graph, VertexId};

use crate::fm::FmArena;
use crate::gain::SortedBuckets;
use crate::gain_cache::GainCache;
use crate::netlist::{NetlistBisection, NetlistGainCache};
use crate::par_fm::ParallelScratch;
use crate::partition::Bisection;
use crate::sa::SaArena;

/// Scratch arenas shared by the KL, FM, and SA hot paths. See the
/// [module docs](self) for the ownership model.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-vertex gain cache: the per-pass gain arena of KL and FM,
    /// maintained and projected by the boundary refiners and the
    /// pipeline engine.
    pub(crate) gain_cache: GainCache,
    /// Per-vertex locked flags (KL and FM passes).
    pub(crate) locked: Vec<bool>,
    /// Per-side ordered candidate buckets (KL incremental selection).
    pub(crate) kl_sides: [SortedBuckets; 2],
    /// Pair sequence of the current KL pass.
    pub(crate) sequence: Vec<(VertexId, VertexId)>,
    /// Cumulative gains of the current KL pass.
    pub(crate) cumulative: Vec<i64>,
    /// The FM pass's buckets, move log and touched list, shared by
    /// graphs and netlists.
    pub(crate) fm: FmArena,
    /// FM's virtually-moved working bisection.
    pub(crate) fm_work: Option<Bisection>,
    /// Per-cell netlist gain cache: maintained incrementally across
    /// moves and projected through uncoarsening by the netlist
    /// pipeline, used as the per-pass gain arena by netlist FM.
    pub(crate) netlist_cache: NetlistGainCache,
    /// The parallel FM round's per-chunk worker scratch and merge
    /// buffers, shared by [`crate::par_fm::ParallelFm`] and
    /// [`crate::netlist::ParallelNetlistFm`].
    pub(crate) pfm: ParallelScratch,
    /// Netlist FM's virtually-moved working bisection.
    pub(crate) netlist_work: Option<NetlistBisection>,
    /// SA's annealing state: side lists, compact adjacency and gains,
    /// acceptance table and best-so-far bisection.
    pub(crate) sa: SaArena,
    /// Work evaluations counted since the last
    /// [`Workspace::take_proposals`].
    proposals: u64,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Returns the evaluations counted through this workspace since the
    /// last call, resetting the counter — the benchmark harness reads
    /// this around each trial to report hot-loop throughput
    /// (`proposals_per_sec`). Simulated annealing counts its proposals,
    /// Kernighan-Lin its pair evaluations, and the parallel FM refiners
    /// ([`crate::par_fm::ParallelFm`],
    /// [`crate::netlist::ParallelNetlistFm`]) their gain evaluations;
    /// the serial FM pass counts none.
    pub fn take_proposals(&mut self) -> u64 {
        std::mem::take(&mut self.proposals)
    }

    /// Accumulates evaluations for [`Workspace::take_proposals`].
    pub(crate) fn add_proposals(&mut self, n: u64) {
        self.proposals = self.proposals.saturating_add(n);
    }

    /// Projects the workspace gain cache through one uncoarsening step;
    /// see [`GainCache::project`] for the contract.
    pub fn project_gain_cache(&mut self, g: &Graph, p: &Bisection, fine_to_coarse: &[VertexId]) {
        self.gain_cache.project(g, p, fine_to_coarse);
    }

    /// Read access to the workspace gain cache, valid after
    /// [`Workspace::project_gain_cache`] or a projected-cache refiner
    /// run (which leaves it exact for the partition it returned).
    pub fn gain_cache(&self) -> &GainCache {
        &self.gain_cache
    }

    /// Mutable access to the workspace gain cache, for drivers that
    /// apply moves outside a refiner ([`crate::partition`]'s
    /// `rebalance_with_cache`) and must keep the cache exact.
    pub fn gain_cache_mut(&mut self) -> &mut GainCache {
        &mut self.gain_cache
    }

    /// Projects the workspace netlist gain cache through one
    /// uncoarsening step; see [`NetlistGainCache::project`] for the
    /// contract.
    pub fn project_netlist_cache(
        &mut self,
        nl: &bisect_graph::hypergraph::Netlist,
        p: &NetlistBisection,
        fine_to_coarse: &[VertexId],
    ) {
        self.netlist_cache.project(nl, p, fine_to_coarse);
    }

    /// Read access to the workspace netlist gain cache, valid after
    /// [`Workspace::project_netlist_cache`] or a netlist refiner run
    /// (which leaves it exact for the bisection it returned).
    pub fn netlist_cache(&self) -> &NetlistGainCache {
        &self.netlist_cache
    }

    /// Mutable access to the workspace netlist gain cache, for drivers
    /// that apply moves outside a refiner
    /// ([`crate::netlist::rebalance_with_cache`]) and must keep the
    /// cache exact.
    pub fn netlist_cache_mut(&mut self) -> &mut NetlistGainCache {
        &mut self.netlist_cache
    }

    /// Checks out the SA best-so-far buffer seeded as a copy of
    /// `current`: recycles the previous run's buffer when present
    /// (allocation-free steady state) and clones only on first use.
    /// The SA run parks the buffer back in the arena when it finishes.
    pub(crate) fn checkout_sa_best(&mut self, current: &Bisection) -> Bisection {
        match self.sa.best.take() {
            Some(mut best) => {
                best.copy_from(current);
                best
            }
            // Warm-up: the one allocation this arena ever makes.
            None => current.clone(),
        }
    }
}
