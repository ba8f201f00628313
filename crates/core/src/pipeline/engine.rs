//! The shared coarsen → partition → refine engine.
//!
//! One function, `run`, subsumes the three bespoke drivers the crate
//! used to carry:
//!
//! * one-shot compaction (§V of the paper; CKL/CSA) is
//!   [`CoarsenDepth::Levels`]`(1)`,
//! * multilevel (V-cycle) bisection is [`CoarsenDepth::ToSize`], and
//! * a plain heuristic from a random start is [`CoarsenDepth::Flat`].
//!
//! [`Pipeline`] is a thin descriptor around this one
//! call — which is what made the pipeline *bit-identical* to the
//! bespoke drivers it replaced: both sides executed this exact
//! sequence of rng draws (pinned today by the golden values in
//! `tests/pipeline_equivalence.rs`).
//!
//! The rng-draw order is part of the contract and must not be
//! reordered: (1) one matching per coarsening level, finest first;
//! (2) the random start of the coarsest graph and its refinement
//! by the coarsest-level refiner — or, in `Levels` mode when the
//! coarsener made no progress, that refiner's own from-scratch
//! bisection (the legacy §V fallback for edgeless graphs); (3) one
//! refinement per finer level, coarsest first, each from the projected
//! and rebalanced bisection of the level below.

use bisect_graph::contraction::Contraction;
use bisect_graph::Graph;
use rand::RngCore;

use crate::error::BisectError;
use crate::partition::{rebalance, rebalance_with_cache, Bisection};
use crate::seed;
use crate::workspace::Workspace;

use super::Pipeline;

/// How far the pipeline coarsens before the random start. The depth
/// also fixes the start: count-balanced at `Flat`, weight-balanced at
/// every other depth.
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

/// Runs `pipeline`'s full coarsen → partition → refine cycle. Returns
/// the final balanced bisection of `g` together with the summed work
/// count of every refinement stage (see
/// [`Bisector::bisect_counted`](crate::bisector::Bisector::bisect_counted)).
pub(crate) fn run(
    pipeline: &Pipeline,
    g: &Graph,
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> (Bisection, u64) {
    let depth = pipeline.depth;
    let refiner = pipeline.refiner.as_ref();
    let coarsest = pipeline.coarsest.as_deref().unwrap_or(refiner);
    // Coarsening phase: a ladder of contractions, finest first.
    let mut ladder: Vec<Contraction> = Vec::new();
    loop {
        let step = {
            let current: &Graph = ladder.last().map_or(g, |c| c.coarse());
            if depth.wants_more(ladder.len(), current.num_vertices()) {
                pipeline.coarsener.coarsen(current, rng)
            } else {
                None
            }
        };
        match step {
            Some(c) => ladder.push(c),
            None => break,
        }
    }

    // Start of the coarsest graph. In Levels mode an empty ladder means
    // the coarsener made no progress on the input graph itself; the
    // paper's compaction then falls through to the plain heuristic (its
    // own random start), which we preserve exactly. Otherwise the depth,
    // not the ladder, picks the start: a `ToSize` run whose input is
    // already small enough keeps the weight-balanced draw.
    let (mut current, mut work) = if ladder.is_empty() && matches!(depth, CoarsenDepth::Levels(_)) {
        coarsest.bisect_counted(g, rng, ws)
    } else {
        let level: &Graph = ladder.last().map_or(g, |c| c.coarse());
        let init = match depth {
            CoarsenDepth::Flat => seed::random_balanced(level, rng),
            _ => seed::weight_balanced_random(level, rng),
        };
        coarsest.refine_counted(level, init, rng, ws)
    };

    // Uncoarsening phase: project and refine level by level. The fine
    // graph of ladder level `i` is the coarse graph of level `i − 1`
    // (or the input graph at the bottom). Projection preserves the cut,
    // so no level recounts it. It can be off by one weight unit when a
    // matching leaves singletons, so each level rebalances before
    // refining.
    //
    // The gain cache is built once on the (small) coarsest graph and
    // *projected* through each uncoarsening step; rebalancing rides the
    // same cache, and every refiner leaves it exact for its result (see
    // `Refiner::refine_projected_counted`).
    if let Some(c) = ladder.last() {
        ws.gain_cache.init(c.coarse(), &current);
    }
    for i in (0..ladder.len()).rev() {
        let fine: &Graph = if i == 0 { g } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let mut projected = Bisection::from_sides_with_cut(fine, sides, current.cut())
            // lint: allow(no-panic) — a projection has one side per fine vertex
            .expect("projection covers every fine vertex");
        ws.gain_cache
            .project(fine, &projected, ladder[i].fine_to_coarse());
        rebalance_with_cache(fine, &mut projected, &mut ws.gain_cache);
        let (refined, stage_work) = refiner.refine_projected_counted(fine, projected, rng, ws);
        current = refined;
        work += stage_work;
    }
    if !current.is_balanced(g) {
        rebalance(g, &mut current);
    }
    (current, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Refiner;
    use crate::fm::BoundaryFm;
    use crate::kl::KernighanLin;
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
        run(&pipeline, g, &mut rng, &mut Workspace::new())
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
