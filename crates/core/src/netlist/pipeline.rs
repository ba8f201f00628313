//! [`NetlistPipeline`]: the one [`Pipeline`] descriptor over netlists,
//! with its presets and what only netlists have: fixed cells and the
//! [`ParallelCellMatching`] coarsener.
//!
//! Coarsening contracts random cell matchings along nets (hMETIS-style
//! pin-connectivity scores, see
//! [`bisect_graph::hypergraph::random_cell_matching`]) or, with
//! [`NetlistPipeline::with_coarsener`], the rng-free
//! [`ParallelCellMatching`] behind its 5% stall guard.
//!
//! Netlists may pin their last `k` cells to sides as *fixed cells*:
//! they never match, never move, and stay the last `k` cells, as
//! singletons, at every coarsening level.
//! [`super::recursive_placement`] uses this for terminal propagation,
//! appending one anchor cell per side whose nets bias the gains of
//! cells connected outside the current subproblem.

use std::sync::Arc;

use bisect_graph::hypergraph::{
    contract_cells_into, random_cell_matching_with_skip, Netlist, NetlistContraction,
    NetlistContractionScratch,
};
use rand::RngCore;

use crate::balance::{self, Cells};
use crate::error::BisectError;
use crate::partition::Side;
use crate::pipeline::coarsen::shrinks_enough;
use crate::pipeline::engine::{self, Level, LevelRefiner};
use crate::pipeline::{CoarsenDepth, Pipeline, DEFAULT_COARSEST_SIZE};
use crate::workspace::Workspace;

use super::{NetlistBisection, NetlistFm, NetlistRefiner, ParallelCellMatching};

/// A named, reusable netlist bisection pipeline: a [`CoarsenDepth`]
/// plus a [`NetlistRefiner`]. Optionally, a [`ParallelCellMatching`]
/// coarsener and a separate refiner for the coarsest level. It bisects
/// through [`Bisector`](crate::bisector::Bisector)`<Netlist>`, and with
/// fixed cells through [`NetlistPipeline::bisect_fixed_counted`].
///
/// # Example
///
/// ```
/// use bisect_core::bisector::Bisector;
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
pub type NetlistPipeline = Pipeline<Netlist>;

impl NetlistPipeline {
    /// Coarsens with `matcher` instead of the random matcher. It draws
    /// no randomness, leaves the fixed cells unmatched, and stops
    /// the ladder at the first level its pairs would shrink by less
    /// than 5%: sparse netlists carry cells that can never match.
    pub fn with_coarsener(mut self, matcher: ParallelCellMatching) -> NetlistPipeline {
        self.coarsener = Some(matcher);
        self
    }

    /// [`NetlistFm`] directly on the input netlist (no coarsening).
    pub fn flat_fm() -> NetlistPipeline {
        Pipeline::at(CoarsenDepth::Flat, NetlistFm::new(), "NetFM".into())
    }

    /// One compaction level around [`NetlistFm`] (the paper's §V on the
    /// hypergraph objective).
    pub fn compacted_fm() -> NetlistPipeline {
        Pipeline::at(CoarsenDepth::Levels(1), NetlistFm::new(), "NetCFM".into())
    }

    /// A full multilevel V-cycle around [`NetlistFm`], coarsening to
    /// [`DEFAULT_COARSEST_SIZE`] cells.
    pub fn multilevel_fm() -> NetlistPipeline {
        let depth = CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE);
        Pipeline::at(depth, NetlistFm::new(), "NetMLFM".into())
    }

    /// As [`NetlistPipeline::multilevel_fm`] with an explicit coarsest
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] if `coarsest_size < 2`.
    pub fn multilevel_fm_to(coarsest_size: usize) -> Result<NetlistPipeline, BisectError> {
        Pipeline::new(
            CoarsenDepth::ToSize(coarsest_size),
            NetlistFm::new(),
            "NetMLFM",
        )
    }

    /// As [`Bisector::bisect_counted`](crate::bisector::Bisector::bisect_counted),
    /// with the last `k = fixed.len()` cells pinned: cell `n − k + i`
    /// stays on side `fixed[i]`. The fixed cells are excluded from
    /// matching and movement at every level, so the returned bisection
    /// puts each on its side.
    ///
    /// # Panics
    ///
    /// Panics if `fixed` is longer than the netlist has cells.
    pub fn bisect_fixed_counted(
        &self,
        nl: &Netlist,
        fixed: &[Side],
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        let n = nl.num_cells();
        assert!(
            fixed.len() <= n,
            "{} fixed cells for {n} cells",
            fixed.len()
        );
        engine::run(self, nl, fixed, rng, ws)
    }
}

impl<R: NetlistRefiner + Send + Sync + 'static> LevelRefiner<Netlist> for R {
    fn shared(self) -> Arc<dyn NetlistRefiner + Send + Sync> {
        Arc::new(self)
    }
}

impl Level for Netlist {
    type Part = NetlistBisection;
    type Refiner = dyn NetlistRefiner + Send + Sync;
    type Coarsener = ParallelCellMatching;
    type Scratch = NetlistContractionScratch;

    fn cut(p: &NetlistBisection) -> u64 {
        p.cut()
    }

    fn refiner_name(r: &Self::Refiner) -> String {
        r.name()
    }

    fn coarsener_name(c: Option<&ParallelCellMatching>) -> &'static str {
        match c {
            Some(_) => "parallel-cell-matching",
            None => "random-cell-matching",
        }
    }

    fn coarsen(
        &self,
        coarsener: Option<&ParallelCellMatching>,
        fixed: &[Side],
        scratch: &mut NetlistContractionScratch,
        rng: &mut dyn RngCore,
    ) -> Option<NetlistContraction> {
        let pairs = match coarsener {
            Some(matcher) => {
                let pairs = matcher.matching_skipping(self, fixed.len());
                let cells = self.num_cells();
                if !shrinks_enough(cells, cells - pairs.len()) {
                    return None;
                }
                pairs
            }
            None => random_cell_matching_with_skip(self, fixed.len(), rng),
        };
        (!pairs.is_empty()).then(|| contract_cells_into(self, &pairs, scratch))
    }

    fn start(
        &self,
        _depth: CoarsenDepth,
        fallback: bool,
        fixed: &[Side],
        rng: &mut dyn RngCore,
    ) -> NetlistBisection {
        if fallback && fixed.is_empty() {
            balance::count_balanced(self, rng)
        } else {
            balance::weight_balanced(self, fixed, rng)
        }
    }

    fn init_cache(&self, p: &NetlistBisection, ws: &mut Workspace) {
        ws.netlist_cache.init(self, p);
    }

    fn project(
        &self,
        c: &NetlistContraction,
        p: &NetlistBisection,
        ws: &mut Workspace,
    ) -> NetlistBisection {
        let projected = self.part(c.project_sides(p.sides()));
        ws.netlist_cache
            .project(self, &projected, c.fine_to_coarse());
        projected
    }

    fn refine(
        &self,
        refiner: &(dyn NetlistRefiner + Send + Sync),
        fixed: &[Side],
        p: NetlistBisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        refiner.refine_projected_counted(self, fixed, p, rng, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{brute_force_cut, two_clusters};
    use super::*;
    use crate::bisector::Bisector;
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
        // The engine initializes the gain cache once at the coarsest
        // level and projects it down the ladder, and ParallelNetlistFm
        // keeps it exact level by level; the result must be valid,
        // balanced, and deterministic at a fixed thread count.
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
        let fixed = [Side::A, Side::B, Side::B];
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(6).unwrap(),
            NetlistPipeline::multilevel_fm_to(6)
                .unwrap()
                .with_coarsener(ParallelCellMatching::new().with_threads(2)),
        ] {
            for seed in 0..6 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ws = Workspace::new();
                let (b, _) = p.bisect_fixed_counted(&nl, &fixed, &mut rng, &mut ws);
                for (c, &s) in (37..).zip(&fixed) {
                    assert_eq!(b.side(c), s, "{} seed {seed} cell {c}", p.name());
                }
                assert_eq!(b.cut(), b.recompute_cut(&nl), "{} seed {seed}", p.name());
            }
        }
    }

    /// A netlist refiner that changes nothing and logs the size of
    /// every level it is handed.
    struct LevelLog(Arc<std::sync::Mutex<Vec<usize>>>);

    impl NetlistRefiner for LevelLog {
        fn name(&self) -> String {
            "log".into()
        }

        fn refine_projected_counted(
            &self,
            nl: &Netlist,
            _fixed: &[Side],
            init: NetlistBisection,
            _rng: &mut dyn RngCore,
            _ws: &mut Workspace,
        ) -> (NetlistBisection, u64) {
            self.0.lock().unwrap().push(nl.num_cells());
            (init, 0)
        }
    }

    #[test]
    fn coarsest_refiner_runs_once_at_the_coarsest_level() {
        let nl = random_netlist(64, 90, 12);
        let coarsest = Arc::new(std::sync::Mutex::new(Vec::new()));
        let levels = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pipeline =
            NetlistPipeline::new(CoarsenDepth::ToSize(8), LevelLog(levels.clone()), "log")
                .unwrap()
                .with_coarsest(LevelLog(coarsest.clone()));
        let p = pipeline.bisect(&nl, &mut StdRng::seed_from_u64(5));
        assert!(p.is_balanced(&nl));
        let coarsest = coarsest.lock().unwrap();
        let levels = levels.lock().unwrap();
        assert_eq!(coarsest.len(), 1);
        assert!(coarsest[0] < nl.num_cells());
        assert!(!levels.is_empty());
        assert!(levels.iter().all(|&n| n > coarsest[0]), "{levels:?}");
        assert_eq!(levels.last(), Some(&nl.num_cells()));
    }

    #[test]
    #[should_panic(expected = "7 fixed cells for 6 cells")]
    fn more_fixed_cells_than_cells_rejected() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = NetlistPipeline::flat_fm().bisect_fixed_counted(
            &nl,
            &[Side::A; 7],
            &mut rng,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn an_all_fixed_netlist_keeps_the_given_sides() {
        let nl = random_netlist(12, 20, 3);
        let fixed: Vec<Side> = (0..12)
            .map(|c| if c % 3 == 0 { Side::B } else { Side::A })
            .collect();
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(4).unwrap(),
            NetlistPipeline::multilevel_fm_to(4)
                .unwrap()
                .with_coarsener(ParallelCellMatching::new().with_threads(2)),
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let (b, work) = p.bisect_fixed_counted(&nl, &fixed, &mut rng, &mut Workspace::new());
            let sides: Vec<Side> = nl.cells().map(|c| b.side(c)).collect();
            assert_eq!(sides, fixed, "{}", p.name());
            assert_eq!(work, 0, "{}", p.name());
            assert_eq!(b.cut(), b.recompute_cut(&nl), "{}", p.name());
        }
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
