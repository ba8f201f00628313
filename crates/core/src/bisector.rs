//! The common interface of all bisection algorithms.
//!
//! A [`Bisector`] produces a balanced bisection of a graph (or netlist)
//! from scratch;
//! a [`Refiner`] *improves a given starting bisection* — the property
//! the compaction heuristic exploits (§V step 5: "use `(A, B)` as the
//! starting configuration for the bisection procedure on the original
//! graph") — and bisects through one flat path. KL, SA and FM are
//! refiners; compacted and multilevel algorithms, and the one-shot
//! baselines (random, greedy, spectral, exact), are plain bisectors.
//! A refiner's one required work method,
//! [`Refiner::refine_projected_counted`], refines a start whose
//! workspace gain cache is already exact, which is what the engine hands
//! every level; [`Refiner::refine_counted`] builds that cache and calls
//! it.
//!
//! [`best_of`] reproduces the paper's evaluation protocol: run from `k`
//! independent random starts and keep the smallest cut ("all bisection
//! results reported here will be based on the best solution of the two
//! trials").

use bisect_graph::Graph;
use rand::RngCore;

use crate::balance;
use crate::partition::Bisection;
use crate::pipeline::engine::Level;
use crate::pipeline::CoarsenDepth;
use crate::seed;
use crate::workspace::Workspace;

/// An algorithm that bisects a graph (or, as `Bisector<Netlist>`, a
/// netlist).
///
/// Implementations must return a *balanced* bisection (per
/// [`Bisection::is_balanced`]) whose maintained cut is consistent with
/// the level. [`Bisector::bisect_counted`] is the one required work
/// method; [`Bisector::bisect_in`] and [`Bisector::bisect`] are views
/// of it.
pub trait Bisector<L: Level = Graph> {
    /// Human-readable name used in experiment tables (e.g. `"KL"`,
    /// `"CSA"`).
    fn name(&self) -> String;

    /// Computes a balanced bisection of `g`, drawing any randomness from
    /// `rng` and scratch memory from `ws` (so the hot path is
    /// allocation-free once the workspace is warm), and reports the
    /// algorithm's natural work count: productive passes for KL and FM,
    /// temperature steps for SA, the sum of every refinement stage for
    /// pipelines. Algorithms with no pass notion report 0.
    fn bisect_counted(&self, g: &L, rng: &mut dyn RngCore, ws: &mut Workspace) -> (L::Part, u64);

    /// [`Bisector::bisect_counted`] without the work count.
    fn bisect_in(&self, g: &L, rng: &mut dyn RngCore, ws: &mut Workspace) -> L::Part {
        self.bisect_counted(g, rng, ws).0
    }

    /// [`Bisector::bisect_in`] with a fresh workspace.
    fn bisect(&self, g: &L, rng: &mut dyn RngCore) -> L::Part {
        self.bisect_in(g, rng, &mut Workspace::new())
    }
}

/// An algorithm that improves a supplied starting bisection of a graph
/// (local search). [`Refiner::name`] and
/// [`Refiner::refine_projected_counted`] are required, as for
/// [`NetlistRefiner`](crate::netlist::NetlistRefiner): the engine builds
/// the workspace gain cache once, for the coarsest start, projects it
/// down the ladder, and hands every level's refiner a cache exact for
/// its start. [`Refiner::refine_counted`] builds that cache itself.
///
/// Every refiner is a [`Bisector`] through the engine's flat path, as
/// [`Pipeline::flat`](crate::pipeline::Pipeline::flat) runs it: a
/// uniformly random count-balanced start (the paper's protocol), one
/// `refine_counted`, then a rebalance should the side *weights* be off.
/// The guard never moves a vertex on unit vertex weights; on weighted
/// graphs it keeps the contract, as KL and SA swaps keep side counts.
pub trait Refiner {
    /// The name in experiment tables (e.g. `"KL"`).
    fn name(&self) -> String;

    /// Improves `init`, returning a bisection whose cut is no larger,
    /// together with the work count (see [`Bisector::bisect_counted`]).
    /// The returned bisection preserves balance (implementations keep
    /// the side sizes of `init` or restore balance before returning).
    /// Builds the workspace gain cache for `(g, init)`, then refines as
    /// [`Refiner::refine_projected_counted`].
    fn refine_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        if g.num_vertices() >= 2 {
            ws.gain_cache.init(g, &init);
        }
        self.refine_projected_counted(g, init, rng, ws)
    }

    /// [`Refiner::refine_counted`] with a fresh workspace and without
    /// the work count.
    fn refine(&self, g: &Graph, init: Bisection, rng: &mut dyn RngCore) -> Bisection {
        self.refine_counted(g, init, rng, &mut Workspace::new()).0
    }

    /// As [`Refiner::refine_counted`], under the *projected-cache
    /// contract*: the caller guarantees `ws.gain_cache` is exact for
    /// `(g, init)` on entry, and the call leaves it exact for the
    /// bisection it returns. Scratch memory comes from `ws`.
    ///
    /// The FM family ([`crate::fm::FiducciaMattheyses`],
    /// [`crate::fm::BoundaryFm`], [`crate::par_fm::ParallelFm`] in both
    /// modes) consumes the entry cache and maintains it move by move;
    /// KL and SA do not read it, and rebuild it for their result in
    /// O(V + E).
    fn refine_projected_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64);
}

/// The flat path (see [`Refiner`]), with the refiner's work count.
impl<R: Refiner + ?Sized> Bisector for R {
    fn name(&self) -> String {
        Refiner::name(self)
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = g.start(CoarsenDepth::Flat, false, &[], rng);
        let (mut p, work) = self.refine_counted(g, init, rng, ws);
        balance::rebalance(g, &mut p, &[]);
        (p, work)
    }
}

/// Runs `bisector` from `starts` independent attempts and returns the
/// bisection with the smallest cut (ties: first found). The paper uses
/// `starts = 2`.
///
/// # Panics
///
/// Panics if `starts == 0`.
pub fn best_of<L: Level, B: Bisector<L> + ?Sized>(
    bisector: &B,
    g: &L,
    starts: usize,
    rng: &mut dyn RngCore,
) -> L::Part {
    assert!(starts > 0, "need at least one start");
    let mut best: Option<L::Part> = None;
    for _ in 0..starts {
        let candidate = bisector.bisect(g, rng);
        if best.as_ref().is_none_or(|b| L::cut(&candidate) < L::cut(b)) {
            best = Some(candidate);
        }
    }
    // lint: allow(no-panic) — starts >= 1 is asserted by the caller contract above
    best.expect("at least one start ran")
}

/// The trivial bisector: a refiner's flat path with no refinement. The
/// baseline every heuristic must beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomBisector;

impl RandomBisector {
    /// Creates the random bisector.
    pub fn new() -> RandomBisector {
        RandomBisector
    }
}

impl Bisector for RandomBisector {
    fn name(&self) -> String {
        "Random".into()
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        _ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let mut p = seed::random_balanced(g, rng);
        balance::rebalance(g, &mut p, &[]);
        (p, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistPipeline;
    use bisect_graph::hypergraph::Netlist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bisector_balanced() {
        let g = bisect_gen::special::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let p = RandomBisector::new().bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn best_of_improves_over_single() {
        let g = bisect_gen::special::cycle(20);
        let mut rng = StdRng::seed_from_u64(7);
        let single = RandomBisector::new().bisect(&g, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let best = best_of(&RandomBisector::new(), &g, 50, &mut rng);
        assert!(best.cut() <= single.cut());
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn best_of_zero_starts_panics() {
        let g = bisect_gen::special::cycle(6);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = best_of(&RandomBisector::new(), &g, 0, &mut rng);
    }

    #[test]
    fn bisector_is_object_safe() {
        let boxed: Box<dyn Bisector> = Box::new(RandomBisector::new());
        assert_eq!(boxed.name(), "Random");
        let g = bisect_gen::special::path(4);
        let mut rng = StdRng::seed_from_u64(1);
        let p = best_of(boxed.as_ref(), &g, 2, &mut rng);
        assert!(p.is_balanced(&g));

        let boxed: Box<dyn Bisector<Netlist>> = Box::new(NetlistPipeline::multilevel_fm());
        assert_eq!(boxed.name(), "NetMLFM");
        let nl = crate::netlist::testutil::two_clusters();
        let p = best_of(boxed.as_ref(), &nl, 2, &mut rng);
        assert!(p.is_balanced(&nl));
        assert_eq!(p.cut(), p.recompute_cut(&nl));
    }

    #[test]
    fn default_workspace_entry_points_match_bisect() {
        let g = bisect_gen::special::grid(4, 4);
        let mut ws = Workspace::new();
        let plain = RandomBisector::new().bisect(&g, &mut StdRng::seed_from_u64(5));
        let with_ws = RandomBisector::new().bisect_in(&g, &mut StdRng::seed_from_u64(5), &mut ws);
        let (counted, count) =
            RandomBisector::new().bisect_counted(&g, &mut StdRng::seed_from_u64(5), &mut ws);
        assert_eq!(plain, with_ws);
        assert_eq!(plain, counted);
        assert_eq!(count, 0);
    }
}
