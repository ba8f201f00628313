//! The one coarsen → partition → refine engine, for graphs and
//! netlists alike.
//!
//! `run` drives every V-cycle of the crate over a `Level` — a [`Graph`]
//! or a [`Netlist`](bisect_graph::hypergraph::Netlist). One-shot
//! compaction (§V of the paper; CKL/CSA) is [`CoarsenDepth::Levels`]`(1)`,
//! the multilevel V-cycle is [`CoarsenDepth::ToSize`], and a plain
//! heuristic from a random start is [`CoarsenDepth::Flat`]. The
//! descriptors ([`Pipeline`](super::Pipeline),
//! [`NetlistPipeline`](crate::netlist::NetlistPipeline)) check their
//! inputs and pass a coarsening closure; the engine owns the ladder, the
//! start, the gain cache built once at the coarsest level and projected
//! down, rebalance, refine and the final guard. A level supplies only
//! what differs: its start rule, gain cache, projection and refiner
//! call. Its weighted cells come from the crate's balance layer
//! (`balance.rs`), through which the engine rebalances both kinds of
//! level alike.
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

use bisect_graph::contraction::Contraction;
use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::balance::{self, Cells};
use crate::bisector::Refiner;
use crate::error::BisectError;
use crate::gain_cache::GainCache;
use crate::partition::{Bisection, Side};
use crate::workspace::Workspace;

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

    /// Validates the depth, rejecting `ToSize` targets below 2 (a
    /// 1-vertex coarsest graph has no bisection to refine).
    pub(crate) fn validate(self) -> Result<CoarsenDepth, BisectError> {
        if let CoarsenDepth::ToSize(target) = self {
            if target < 2 {
                return Err(BisectError::InvalidConfig(format!(
                    "coarsest size must be at least 2, got {target}"
                )));
            }
        }
        Ok(self)
    }
}

/// One level of a V-cycle: what differs between graphs and netlists
/// beyond their weighted [`Cells`]. Cells flagged in a
/// `fixed: &[bool]` never move (empty: none).
pub(crate) trait Level: Cells + Sized {
    /// The refiner trait object driven at every level.
    type Refiner: ?Sized;

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

    /// The workspace's gain cache for this kind of level.
    fn cache(ws: &mut Workspace) -> &mut Self::Cache;

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

/// Runs the V-cycle on `input` with the cells of `fixed` (sorted,
/// deduplicated, in range) pinned. `coarsen` contracts one level,
/// leaving flagged cells unmatched, or returns `None` to stop the
/// ladder. Returns the bisection and the summed work of every refinement
/// (see [`Bisector::bisect_counted`](crate::bisector::Bisector::bisect_counted)).
pub(crate) fn run<L: Level>(
    input: &L,
    fixed: &[(VertexId, Side)],
    depth: CoarsenDepth,
    mut coarsen: impl FnMut(&L, &[bool], &mut dyn RngCore) -> Option<Contraction<L>>,
    (coarsest, refiner): (&L::Refiner, &L::Refiner),
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> (L::Part, u64) {
    // Coarsening ladder, finest first; each step carries the fixed cells
    // of its coarse level (empty when nothing is fixed). The coarsener
    // never matches a fixed cell, so each one survives as a singleton
    // and maps through unambiguously.
    let mut ladder: Vec<(Contraction<L>, Vec<_>)> = Vec::new();
    let mut flags: Vec<bool> = Vec::new();
    loop {
        let (level, level_fixed) = ladder
            .last()
            .map_or((input, fixed), |(c, f)| (c.coarse(), f));
        if !depth.wants_more(ladder.len(), level.num_cells()) {
            break;
        }
        fixed_flags(&mut flags, level.num_cells(), level_fixed);
        let Some(c) = coarsen(level, &flags, rng) else {
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

impl Level for Graph {
    type Refiner = dyn Refiner + Send + Sync;

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

    fn cache(ws: &mut Workspace) -> &mut GainCache {
        &mut ws.gain_cache
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
        assert!(CoarsenDepth::ToSize(1).validate().is_err());
        assert!(CoarsenDepth::ToSize(2).validate().is_ok());
        assert!(CoarsenDepth::Levels(0).validate().is_ok());
        assert!(CoarsenDepth::Flat.validate().is_ok());
    }
}
