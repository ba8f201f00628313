//! The coarsen → partition → refine engine on netlists — the
//! hypergraph counterpart of [`crate::pipeline`]'s graph engine, sharing
//! its [`CoarsenDepth`] vocabulary and its projected-cache protocol.
//!
//! Coarsening contracts random cell matchings along nets (hMETIS-style
//! pin-connectivity scores, see
//! [`bisect_graph::hypergraph::random_cell_matching`]); the coarsest
//! netlist gets a weight-balanced random bisection; refinement walks
//! the ladder back up, projecting sides and the
//! [`super::NetlistGainCache`] level by level.
//!
//! The engine additionally supports *fixed cells*: cells pinned to a
//! side that never match, never move, and survive every coarsening
//! level as singletons. [`super::recursive_placement`] uses this for
//! terminal propagation, fixing one anchor cell per side whose nets
//! bias the gains of cells connected outside the current subproblem.

use std::sync::Arc;

use bisect_graph::hypergraph::{
    contract_cells, random_cell_matching_with_skip, Netlist, NetlistContraction,
};
use bisect_graph::VertexId;
use rand::RngCore;

use crate::error::BisectError;
use crate::partition::Side;
use crate::pipeline::{CoarsenDepth, DEFAULT_COARSEST_SIZE};
use crate::workspace::Workspace;

use super::{
    rebalance_fixed, rebalance_with_cache, weight_balanced_random_fixed, NetlistBisection,
    NetlistFm, NetlistRefiner,
};

/// A named, reusable netlist bisection pipeline: a [`CoarsenDepth`]
/// plus a [`NetlistRefiner`], mirroring the graph-side
/// [`crate::pipeline::Pipeline`] descriptor.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::NetlistPipeline;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(8);
/// for pins in [[0u32, 1, 2, 3].as_slice(), &[4, 5, 6, 7], &[3, 4]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = NetlistPipeline::multilevel_fm().bisect(&nl, &mut rng);
/// assert!(p.is_balanced(&nl));
/// ```
#[derive(Clone)]
pub struct NetlistPipeline {
    depth: CoarsenDepth,
    refiner: Arc<dyn NetlistRefiner + Send + Sync>,
    name: String,
}

impl std::fmt::Debug for NetlistPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistPipeline")
            .field("name", &self.name)
            .field("depth", &self.depth)
            .field("refiner", &self.refiner.name())
            .finish()
    }
}

impl NetlistPipeline {
    /// A pipeline from a coarsening depth, a refiner, and a display
    /// name.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] for
    /// [`CoarsenDepth::ToSize`] targets below 2.
    pub fn new<R: NetlistRefiner + Send + Sync + 'static>(
        depth: CoarsenDepth,
        refiner: R,
        name: impl Into<String>,
    ) -> Result<NetlistPipeline, BisectError> {
        Ok(NetlistPipeline {
            depth: depth.validate()?,
            refiner: Arc::new(refiner),
            name: name.into(),
        })
    }

    /// [`NetlistFm`] directly on the input netlist (no coarsening).
    pub fn flat_fm() -> NetlistPipeline {
        NetlistPipeline::new(CoarsenDepth::Flat, NetlistFm::new(), "NetFM")
            // lint: allow(no-panic) — Flat always validates
            .expect("Flat is a valid depth")
    }

    /// One compaction level around [`NetlistFm`] (the paper's §V on the
    /// hypergraph objective).
    pub fn compacted_fm() -> NetlistPipeline {
        NetlistPipeline::new(CoarsenDepth::Levels(1), NetlistFm::new(), "NetCFM")
            // lint: allow(no-panic) — Levels(1) always validates
            .expect("Levels(1) is a valid depth")
    }

    /// A full multilevel V-cycle around [`NetlistFm`], coarsening to
    /// [`DEFAULT_COARSEST_SIZE`] cells.
    pub fn multilevel_fm() -> NetlistPipeline {
        NetlistPipeline::multilevel_fm_to(DEFAULT_COARSEST_SIZE)
            // lint: allow(no-panic) — the default coarsest size is ≥ 2
            .expect("default coarsest size is valid")
    }

    /// As [`NetlistPipeline::multilevel_fm`] with an explicit coarsest
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] if `coarsest_size < 2`.
    pub fn multilevel_fm_to(coarsest_size: usize) -> Result<NetlistPipeline, BisectError> {
        NetlistPipeline::new(
            CoarsenDepth::ToSize(coarsest_size),
            NetlistFm::new(),
            "NetMLFM",
        )
    }

    /// The pipeline's display name (benchmark tables, reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bisects `nl` with a throwaway workspace.
    pub fn bisect(&self, nl: &Netlist, rng: &mut dyn RngCore) -> NetlistBisection {
        self.bisect_counted(nl, rng, &mut Workspace::new()).0
    }

    /// Bisects `nl`, drawing scratch memory from `ws`; returns the
    /// bisection and the summed productive-pass count of every
    /// refinement stage.
    pub fn bisect_counted(
        &self,
        nl: &Netlist,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        self.bisect_fixed_counted(nl, &[], rng, ws)
    }

    /// As [`NetlistPipeline::bisect_counted`], with cells pinned to
    /// sides: each `(cell, side)` pair is excluded from matching and
    /// movement at every level, so the returned bisection honors every
    /// assignment. Duplicate pairs must agree.
    ///
    /// # Panics
    ///
    /// Panics if a fixed cell is out of range or assigned both sides.
    pub fn bisect_fixed_counted(
        &self,
        nl: &Netlist,
        fixed: &[(VertexId, Side)],
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        run(self.depth, self.refiner.as_ref(), nl, fixed, rng, ws)
    }
}

/// The engine. Mirrors the graph-side `pipeline::engine::run` step for
/// step: (1) one matching per coarsening level, finest first, with
/// fixed cells skipped; (2) a weight-balanced random bisection of the
/// coarsest netlist honoring fixed sides (or, in `Levels` mode with no
/// coarsening progress and nothing fixed, the legacy fallback of a
/// plain random start); (3) one refinement per level, coarsest first,
/// each from the projected and rebalanced bisection of the level below,
/// with the gain cache built once at the coarsest level and projected
/// alongside.
// lint: allow(no-panic) — V-cycle shape invariants: fixed_ladder has one
// entry per level, and project_sides returns one entry per fine cell.
fn run(
    depth: CoarsenDepth,
    refiner: &(dyn NetlistRefiner + Send + Sync),
    nl: &Netlist,
    fixed_pairs: &[(VertexId, Side)],
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> (NetlistBisection, u64) {
    let n = nl.num_cells();
    let mut fixed = fixed_pairs.to_vec();
    fixed.sort_unstable_by_key(|&(c, _)| c);
    fixed.dedup();
    if let Some(&(c, _)) = fixed.last() {
        assert!(
            (c as usize) < n,
            "fixed cell {c} out of range for {n} cells"
        );
    }
    for pair in fixed.windows(2) {
        let c = pair[0].0;
        assert!(c != pair[1].0, "cell {c} fixed to both sides");
    }

    // Coarsening ladder, finest first; `fixed_ladder[i]` lists the
    // pinned cells of level `i`'s netlist (level 0 = input). Fixed
    // cells are skipped by the matcher, so each survives as a
    // singleton coarse cell and its pin maps through unambiguously.
    let mut ladder: Vec<NetlistContraction> = Vec::new();
    let mut fixed_ladder: Vec<Vec<(VertexId, Side)>> = vec![fixed];
    let mut flags: Vec<bool> = Vec::new();
    loop {
        let cur: &Netlist = ladder.last().map_or(nl, |c| c.coarse());
        if !depth.wants_more(ladder.len(), cur.num_cells()) {
            break;
        }
        let cur_fixed = fixed_ladder.last().expect("one entry per level");
        fixed_flags(&mut flags, cur.num_cells(), cur_fixed);
        let pairs = random_cell_matching_with_skip(cur, &flags, rng);
        if pairs.is_empty() {
            break;
        }
        let contraction = contract_cells(cur, &pairs);
        let next = cur_fixed
            .iter()
            .map(|&(c, s)| (contraction.map(c), s))
            .collect();
        fixed_ladder.push(next);
        ladder.push(contraction);
    }

    // Initial bisection of the coarsest netlist.
    let coarsest: &Netlist = ladder.last().map_or(nl, |c| c.coarse());
    let coarsest_fixed = fixed_ladder.last().expect("one entry per level");
    let (mut current, mut work) = if ladder.is_empty()
        && matches!(depth, CoarsenDepth::Levels(_))
        && coarsest_fixed.is_empty()
    {
        // Legacy §V fallback: the matcher made no progress on the
        // input itself, so compaction degenerates to the plain
        // heuristic from its own random start.
        let init = NetlistBisection::random_balanced(nl, rng);
        refiner.refine_counted(nl, &[], init, rng, ws)
    } else {
        let init = weight_balanced_random_fixed(coarsest, coarsest_fixed, rng);
        fixed_flags(&mut flags, coarsest.num_cells(), coarsest_fixed);
        refiner.refine_counted(coarsest, &flags, init, rng, ws)
    };

    // Uncoarsening: project and refine level by level. The gain cache
    // is built once on the (small) coarsest netlist and projected
    // through each step, so no level pays an O(cells + pins) rebuild;
    // rebalancing rides the same cache.
    if !ladder.is_empty() {
        ws.netlist_cache.init(coarsest, &current);
    }
    for i in (0..ladder.len()).rev() {
        let fine: &Netlist = if i == 0 { nl } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let mut projected =
            NetlistBisection::from_sides(fine, sides).expect("projection covers every fine cell");
        ws.netlist_cache
            .project(fine, &projected, ladder[i].fine_to_coarse());
        fixed_flags(&mut flags, fine.num_cells(), &fixed_ladder[i]);
        rebalance_with_cache(fine, &mut projected, &flags, &mut ws.netlist_cache);
        let (refined, stage) = refiner.refine_projected_counted(fine, &flags, projected, rng, ws);
        current = refined;
        work += stage;
    }
    if !current.is_balanced(nl) {
        fixed_flags(&mut flags, n, &fixed_ladder[0]);
        rebalance_fixed(nl, &mut current, &flags);
    }
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

#[cfg(test)]
mod tests {
    use super::super::testutil::{brute_force_cut, two_clusters};
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        random_netlist_with(&mut StdRng::seed_from_u64(seed), cells, nets, 5)
    }

    /// `nets` random nets of 2 to `max_size` pins over `cells` cells.
    fn random_netlist_with(
        rng: &mut StdRng,
        cells: usize,
        nets: usize,
        max_size: usize,
    ) -> Netlist {
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=max_size);
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(rng);
            b.add_net(&pins[..size]).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_depths_produce_balanced_bisections() {
        let nl = random_netlist(48, 64, 2);
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(8).unwrap(),
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let b = p.bisect(&nl, &mut rng);
            assert!(b.is_balanced(&nl), "{}", p.name());
            assert_eq!(b.cut(), b.recompute_cut(&nl), "{}", p.name());
        }
    }

    #[test]
    fn compacted_and_multilevel_find_the_bridge() {
        let nl = two_clusters();
        for (p, seed) in [
            (NetlistPipeline::compacted_fm(), 4),
            (NetlistPipeline::multilevel_fm_to(3).unwrap(), 5),
        ] {
            let b = p.bisect(&nl, &mut StdRng::seed_from_u64(seed));
            assert_eq!(b.cut(), 1, "{}", p.name());
            assert!(b.is_balanced(&nl), "{}", p.name());
        }
    }

    #[test]
    fn compacted_never_beats_brute_force() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let nl = random_netlist_with(&mut rng, 10, 8, 4);
            let optimal = brute_force_cut(&nl);
            let p = NetlistPipeline::compacted_fm().bisect(&nl, &mut StdRng::seed_from_u64(1));
            assert!(p.cut() >= optimal);
            assert!(p.is_balanced(&nl));
        }
    }

    #[test]
    fn compacted_competitive_on_clusters() {
        // Four 10-cell clusters chained by single bridges: compaction
        // should match plain FM or better on most seeds.
        let mut b = NetlistBuilder::new(40);
        let mut rng = StdRng::seed_from_u64(8);
        for cluster in 0..4 {
            let base = cluster * 10;
            for _ in 0..12 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (base..base + 10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
        }
        b.add_net(&[9, 10]).unwrap();
        b.add_net(&[19, 20]).unwrap();
        b.add_net(&[29, 30]).unwrap();
        let nl = b.build();
        let mut fm_total = 0u64;
        let mut cfm_total = 0u64;
        for seed in 0..5 {
            fm_total += NetlistPipeline::flat_fm()
                .bisect(&nl, &mut StdRng::seed_from_u64(seed))
                .cut();
            cfm_total += NetlistPipeline::compacted_fm()
                .bisect(&nl, &mut StdRng::seed_from_u64(seed))
                .cut();
        }
        assert!(
            cfm_total <= fm_total + 2,
            "compacted FM ({cfm_total}) should be competitive with FM ({fm_total})"
        );
    }

    #[test]
    fn rejects_tiny_coarsest() {
        assert!(NetlistPipeline::multilevel_fm_to(1).is_err());
        assert!(NetlistPipeline::multilevel_fm_to(2).is_ok());
    }

    #[test]
    fn deterministic_across_runs_and_workspace_reuse() {
        let nl = random_netlist(60, 80, 9);
        let pipeline = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let mut ws = Workspace::new();
        let run = |ws: &mut Workspace| {
            let mut rng = StdRng::seed_from_u64(17);
            pipeline.bisect_counted(&nl, &mut rng, ws)
        };
        let (a, wa) = run(&mut ws);
        // Warm (differently sized) workspace must not change anything.
        let small = two_clusters();
        let mut srng = StdRng::seed_from_u64(1);
        let _ = pipeline.bisect_counted(&small, &mut srng, &mut ws);
        let (b, wb) = run(&mut ws);
        let (c, wc) = run(&mut Workspace::new());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(wa, wb);
        assert_eq!(wa, wc);
    }

    #[test]
    fn parallel_refiner_rides_the_projected_cache_protocol() {
        // ParallelNetlistFm opts into the projected cache, so the
        // engine initializes it once at the coarsest level and projects
        // it down the ladder; the result must be valid, balanced, and
        // deterministic at a fixed thread count.
        let nl = random_netlist(64, 90, 12);
        let pipeline = NetlistPipeline::new(
            CoarsenDepth::ToSize(8),
            crate::netlist::ParallelNetlistFm::new().with_threads(2),
            "PNetMLFM",
        )
        .unwrap();
        let run = || {
            let mut rng = StdRng::seed_from_u64(5);
            pipeline.bisect(&nl, &mut rng)
        };
        let a = run();
        assert!(a.is_balanced(&nl));
        assert_eq!(a.cut(), a.recompute_cut(&nl));
        assert_eq!(a, run());
        // And it never loses to the projected start it was handed: the
        // serial-FM pipeline at the same seed is a sanity yardstick.
        let serial = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let s = serial.bisect(&nl, &mut rng);
        assert!(a.cut() <= 2 * s.cut().max(4), "parallel cut far off serial");
    }

    #[test]
    fn fixed_cells_stay_put_through_every_depth() {
        let nl = random_netlist(40, 50, 4);
        let fixed = [(0u32, Side::A), (7u32, Side::B), (13u32, Side::B)];
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(6).unwrap(),
        ] {
            for seed in 0..6 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ws = Workspace::new();
                let (b, _) = p.bisect_fixed_counted(&nl, &fixed, &mut rng, &mut ws);
                for &(c, s) in &fixed {
                    assert_eq!(b.side(c), s, "{} seed {seed} cell {c}", p.name());
                }
                assert_eq!(b.cut(), b.recompute_cut(&nl), "{} seed {seed}", p.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_out_of_range_rejected() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = NetlistPipeline::flat_fm().bisect_fixed_counted(
            &nl,
            &[(99, Side::A)],
            &mut rng,
            &mut Workspace::new(),
        );
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn conflicting_fixed_sides_rejected() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = NetlistPipeline::flat_fm().bisect_fixed_counted(
            &nl,
            &[(2, Side::A), (2, Side::B)],
            &mut rng,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn tiny_netlists_across_depths() {
        // Netless cells, including the compaction fallback on 8 cells
        // the matcher cannot pair.
        for n in [0usize, 1, 2, 3, 8] {
            let nl = NetlistBuilder::new(n).build();
            for p in [
                NetlistPipeline::flat_fm(),
                NetlistPipeline::compacted_fm(),
                NetlistPipeline::multilevel_fm(),
            ] {
                let mut rng = StdRng::seed_from_u64(1);
                let b = p.bisect(&nl, &mut rng);
                assert_eq!(b.cut(), 0, "{} on {n} cells", p.name());
                assert!(b.is_balanced(&nl), "{} on {n} cells", p.name());
            }
        }
    }
}
