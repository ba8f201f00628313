//! The one coarsen → partition → refine engine, for graphs and
//! netlists alike.
//!
//! `run` drives every V-cycle of the crate from one descriptor, a
//! [`Pipeline`]`<L>` over a level kind `L` — a [`Graph`] or a
//! [`Netlist`](bisect_graph::hypergraph::Netlist). One-shot compaction
//! (§V of the paper; CKL/CSA) is [`CoarsenDepth::Levels`]`(1)`, the
//! multilevel V-cycle is [`CoarsenDepth::ToSize`], and a plain heuristic
//! from a random start is [`CoarsenDepth::Flat`]. The descriptor carries
//! the depth, the coarsener and the refiners; the engine owns the
//! ladder, the start, the gain cache built once at the coarsest level
//! and projected down, rebalance, refine and the final guard. A level
//! kind supplies only what differs: its coarsen step, start rule, gain
//! cache, projection and refiner call. Its weighted cells come from the
//! crate's balance layer (`balance.rs`), through which the engine
//! rebalances both kinds of level alike.
//!
//! The rng-draw order is part of the contract (pinned by the golden
//! values in `tests/pipeline_equivalence.rs`): (1) one coarsening call
//! per level, finest first; (2) the coarsest level's random start and
//! its refinement; (3) one refinement per finer level, coarsest first,
//! each from the projected and rebalanced bisection of the level below.
//!
//! Start rules: graphs draw a count-balanced start at `Flat`, and at
//! `Levels` when the coarsener made no progress (the §V fallback to the
//! plain heuristic); every other graph start is weight-balanced, since
//! count balance of a contracted graph does not project to vertex
//! balance. Netlists draw the count-balanced start only in that fallback
//! with nothing fixed, and the fixed-aware weight-balanced start
//! everywhere else, `Flat` included.

use std::sync::Arc;

use bisect_graph::contraction::Contraction;
use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::{self, Cells};
use crate::bisector::Refiner;
use crate::partition::{Bisection, Side};
use crate::workspace::Workspace;

use super::{CoarsenScheme, Pipeline, RandomMatching};

/// How far the pipeline coarsens before the random start. Together
/// with the coarsening progress it also fixes the start (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarsenDepth {
    /// No coarsening: the random start and its refinement happen
    /// directly on the input graph.
    Flat,
    /// Exactly this many contraction levels (stopping early only when
    /// the coarsener makes no progress). The paper's compaction is
    /// `Levels(1)`.
    Levels(usize),
    /// Contract until the graph has at most this many vertices — the
    /// multilevel (V-cycle) regime. Must be at least 2.
    ToSize(usize),
}

impl CoarsenDepth {
    /// Whether another coarsening level should be attempted given how
    /// many levels exist and how large the current coarsest graph is.
    pub(crate) fn wants_more(self, levels_done: usize, vertices: usize) -> bool {
        match self {
            CoarsenDepth::Flat => false,
            CoarsenDepth::Levels(k) => levels_done < k,
            CoarsenDepth::ToSize(target) => vertices > target,
        }
    }
}

pub(crate) use level::{Level, LevelRefiner};

/// The traits are `pub` so that the public [`Pipeline`] and
/// [`Bisector`](crate::bisector::Bisector) can name a kind's bisection
/// and refiner, but this module is private: no other crate can name or
/// implement them, or call their methods.
mod level {
    use super::{Arc, CoarsenDepth, Contraction, RngCore, Side, VertexId, Workspace};

    /// A kind of level the engine bisects, [`Graph`](bisect_graph::Graph)
    /// or [`Netlist`](bisect_graph::hypergraph::Netlist): what differs
    /// between the two beyond their weighted cells. Cells flagged in a
    /// `fixed: &[bool]` never move (empty: none).
    pub trait Level: Sized {
        /// The level's bisection.
        type Part;
        /// The refiner trait object a pipeline runs at every level.
        type Refiner: ?Sized + Send + Sync;
        /// A coarsener a pipeline may carry instead of the kind's random
        /// matcher.
        type Coarsener: Clone + Send + Sync;
        /// Scratch memory the coarsen step reuses across one run's levels.
        type Scratch: Default;

        fn cut(p: &Self::Part) -> u64;

        fn refiner_name(r: &Self::Refiner) -> String;

        /// The name of `c`, or of the random matcher for `None`.
        fn coarsener_name(c: Option<&Self::Coarsener>) -> &'static str;

        /// Contracts one level with `coarsener` (`None`: the random
        /// matcher), leaving the cells flagged in `skip` unmatched, or
        /// returns `None` to stop the ladder.
        fn coarsen(
            &self,
            coarsener: Option<&Self::Coarsener>,
            skip: &[bool],
            scratch: &mut Self::Scratch,
            rng: &mut dyn RngCore,
        ) -> Option<Contraction<Self>>;

        /// The coarsest level's random start; `fallback` is set when a
        /// `Levels` run made no coarsening progress.
        fn start(
            &self,
            depth: CoarsenDepth,
            fallback: bool,
            fixed: &[(VertexId, Side)],
            rng: &mut dyn RngCore,
        ) -> Self::Part;

        fn init_cache(&self, p: &Self::Part, ws: &mut Workspace);

        /// Projects the coarse `p` through `c` onto this level, with the
        /// gain cache.
        fn project(&self, c: &Contraction<Self>, p: &Self::Part, ws: &mut Workspace) -> Self::Part;

        /// `refine_projected_counted` if `projected` (the cache is exact
        /// for `p`), else `refine_counted`.
        fn refine(
            &self,
            refiner: &Self::Refiner,
            fixed: &[bool],
            p: Self::Part,
            projected: bool,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (Self::Part, u64);
    }

    /// A refiner a pipeline over `L` can run: every graph
    /// [`Refiner`](crate::bisector::Refiner) and every
    /// [`NetlistRefiner`](crate::netlist::NetlistRefiner) that is
    /// `Send + Sync + 'static`.
    pub trait LevelRefiner<L: Level> {
        fn shared(self) -> Arc<L::Refiner>;
    }
}

/// Runs `pipeline` on `input` with the cells of `fixed` (sorted,
/// deduplicated, in range) pinned: they are never matched or moved.
/// Returns the bisection and the summed work of every refinement (see
/// [`Bisector::bisect_counted`](crate::bisector::Bisector::bisect_counted)).
pub(crate) fn run<L: Cells>(
    pipeline: &Pipeline<L>,
    input: &L,
    fixed: &[(VertexId, Side)],
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> (L::Part, u64) {
    let depth = pipeline.depth;
    let refiner = pipeline.refiner.as_ref();
    let coarsest = pipeline.coarsest.as_deref().unwrap_or(refiner);
    // Coarsening ladder, finest first; each step carries the fixed cells
    // of its coarse level (empty when nothing is fixed). The coarsener
    // never matches a fixed cell, so each one survives as a singleton
    // and maps through unambiguously.
    let mut ladder: Vec<(Contraction<L>, Vec<_>)> = Vec::new();
    let mut flags: Vec<bool> = Vec::new();
    let mut scratch = L::Scratch::default();
    loop {
        let (level, level_fixed) = ladder
            .last()
            .map_or((input, fixed), |(c, f)| (c.coarse(), f));
        if !depth.wants_more(ladder.len(), level.num_cells()) {
            break;
        }
        fixed_flags(&mut flags, level.num_cells(), level_fixed);
        let coarsener = pipeline.coarsener.as_ref();
        let Some(c) = level.coarsen(coarsener, &flags, &mut scratch, rng) else {
            break;
        };
        let next = level_fixed.iter().map(|&(v, s)| (c.map(v), s)).collect();
        ladder.push((c, next));
    }

    let (level, level_fixed) = ladder
        .last()
        .map_or((input, fixed), |(c, f)| (c.coarse(), f));
    let fallback = ladder.is_empty() && matches!(depth, CoarsenDepth::Levels(_));
    let init = level.start(depth, fallback, level_fixed, rng);
    fixed_flags(&mut flags, level.num_cells(), level_fixed);
    let (mut current, mut work) = level.refine(coarsest, &flags, init, false, rng, ws);

    // Uncoarsening. The gain cache is built once on the (small) coarsest
    // level and projected through each step, so no level pays an
    // O(V + E) rebuild; rebalancing rides the same cache, and every
    // refiner leaves it exact for its result. A projection can miss
    // balance by up to a coarse cell's weight (a matching leaves
    // singletons), hence the rebalance.
    if !ladder.is_empty() {
        level.init_cache(&current, ws);
    }
    for i in (0..ladder.len()).rev() {
        let (fine, fine_fixed) = ladder[..i]
            .last()
            .map_or((input, fixed), |(c, f)| (c.coarse(), f));
        fixed_flags(&mut flags, fine.num_cells(), fine_fixed);
        let mut projected = fine.project(&ladder[i].0, &current, ws);
        balance::rebalance_with_cache(fine, &mut projected, &flags, L::cache(ws), |_| {});
        let (refined, stage) = fine.refine(refiner, &flags, projected, true, rng, ws);
        current = refined;
        work += stage;
    }
    // The final guard, should refinement leave balance off. `flags` now
    // describes the input level.
    balance::rebalance(input, &mut current, &flags);
    (current, work)
}

/// Rebuilds `flags` as the per-cell "fixed" flags of a `cells`-cell
/// level, leaving it empty (fixing nothing) when nothing is pinned.
fn fixed_flags(flags: &mut Vec<bool>, cells: usize, fixed: &[(VertexId, Side)]) {
    flags.clear();
    if !fixed.is_empty() {
        flags.resize(cells, false);
        for &(c, _) in fixed {
            flags[c as usize] = true;
        }
    }
}

impl<R: Refiner + Send + Sync + 'static> LevelRefiner<Graph> for R {
    fn shared(self) -> Arc<dyn Refiner + Send + Sync> {
        Arc::new(self)
    }
}

impl Level for Graph {
    type Part = Bisection;
    type Refiner = dyn Refiner + Send + Sync;
    type Coarsener = Arc<dyn CoarsenScheme>;
    type Scratch = ();

    fn cut(p: &Bisection) -> u64 {
        p.cut()
    }

    fn refiner_name(r: &Self::Refiner) -> String {
        r.name()
    }

    fn coarsener_name(c: Option<&Self::Coarsener>) -> &'static str {
        c.map_or(RandomMatching.name(), |c| c.name())
    }

    fn coarsen(
        &self,
        coarsener: Option<&Arc<dyn CoarsenScheme>>,
        _skip: &[bool],
        _scratch: &mut (),
        rng: &mut dyn RngCore,
    ) -> Option<Contraction> {
        let scheme: &dyn CoarsenScheme = coarsener.map_or(&RandomMatching, |c| c.as_ref());
        scheme.coarsen(self, rng)
    }

    fn start(
        &self,
        depth: CoarsenDepth,
        fallback: bool,
        _fixed: &[(VertexId, Side)],
        rng: &mut dyn RngCore,
    ) -> Bisection {
        if fallback || depth == CoarsenDepth::Flat {
            balance::count_balanced(self, rng)
        } else {
            balance::weight_balanced(self, &[], rng)
        }
    }

    fn init_cache(&self, p: &Bisection, ws: &mut Workspace) {
        ws.gain_cache.init(self, p);
    }

    fn project(&self, c: &Contraction, p: &Bisection, ws: &mut Workspace) -> Bisection {
        // Projection preserves the cut, so no level recounts it.
        let sides = c.project_sides(p.sides());
        let projected = Bisection::from_sides_with_cut(self, sides, p.cut())
            // lint: allow(no-panic) — a projection has one side per fine vertex
            .expect("projection covers every fine vertex");
        ws.gain_cache.project(self, &projected, c.fine_to_coarse());
        projected
    }

    fn refine(
        &self,
        refiner: &(dyn Refiner + Send + Sync),
        _fixed: &[bool],
        p: Bisection,
        projected: bool,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        if projected {
            refiner.refine_projected_counted(self, p, rng, ws)
        } else {
            refiner.refine_counted(self, p, rng, ws)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Bisector;
    use crate::fm::BoundaryFm;
    use crate::kl::KernighanLin;
    use crate::pipeline::Pipeline;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Random matching and `refiner` at every level, coarsened to
    /// `depth`.
    fn run_at<R: Refiner + Send + Sync + 'static>(
        refiner: R,
        g: &Graph,
        depth: CoarsenDepth,
        seed: u64,
    ) -> (Bisection, u64) {
        let pipeline = Pipeline {
            depth,
            ..Pipeline::multilevel(refiner)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        pipeline.bisect_counted(g, &mut rng, &mut Workspace::new())
    }

    fn run_kl(g: &Graph, depth: CoarsenDepth, seed: u64) -> (Bisection, u64) {
        run_at(KernighanLin::new(), g, depth, seed)
    }

    #[test]
    fn all_depths_produce_balanced_bisections() {
        let g = special::grid(8, 8);
        for depth in [
            CoarsenDepth::Flat,
            CoarsenDepth::Levels(1),
            CoarsenDepth::Levels(3),
            CoarsenDepth::ToSize(16),
        ] {
            let (p, _) = run_kl(&g, depth, 5);
            assert!(p.is_balanced(&g), "{depth:?}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "{depth:?}");
        }
    }

    #[test]
    fn deeper_coarsening_still_terminates_on_tiny_graphs() {
        let g = special::path(3);
        let (p, _) = run_kl(&g, CoarsenDepth::ToSize(2), 1);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn levels_mode_on_edgeless_graph_falls_through() {
        let g = Graph::empty(8);
        let (p, _) = run_kl(&g, CoarsenDepth::Levels(1), 3);
        assert_eq!(p.cut(), 0);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn work_count_accumulates_over_levels() {
        let g = special::grid(10, 10);
        let (_, flat) = run_kl(&g, CoarsenDepth::Flat, 8);
        let (_, ml) = run_kl(&g, CoarsenDepth::ToSize(8), 8);
        assert!(flat >= 1);
        // The multilevel run refines at every level of the ladder.
        assert!(ml >= flat.min(2));
    }

    #[test]
    fn boundary_fm_multilevel_is_balanced_consistent_and_deterministic() {
        let g = special::grid(12, 12);
        let run_once = |seed: u64| run_at(BoundaryFm::new(), &g, CoarsenDepth::ToSize(16), seed);
        for seed in 0..6 {
            let (p, work) = run_once(seed);
            assert!(p.is_balanced(&g), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "seed {seed}");
            assert!(work >= 1, "seed {seed}");
            // Multilevel boundary FM should land near the optimum 12.
            assert!(p.cut() <= 20, "seed {seed}: cut {}", p.cut());
            let (q, _) = run_once(seed);
            assert_eq!(p, q, "seed {seed}: nondeterministic");
        }
    }

    #[test]
    fn boundary_fm_flat_depth_is_balanced() {
        let g = special::grid(6, 6);
        let (p, _) = run_at(BoundaryFm::new(), &g, CoarsenDepth::Flat, 9);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn depth_validation() {
        let new = |depth| Pipeline::<Graph>::new(depth, KernighanLin::new(), "KL");
        assert!(new(CoarsenDepth::ToSize(1)).is_err());
        assert!(new(CoarsenDepth::ToSize(2)).is_ok());
        assert!(new(CoarsenDepth::Levels(0)).is_ok());
        assert!(new(CoarsenDepth::Flat).is_ok());
    }
}
