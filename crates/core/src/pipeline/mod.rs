//! The composable coarsen → partition → refine pipeline.
//!
//! The paper's compaction trick — contract a random maximal matching,
//! bisect the compacted graph, project back, refine (§V) — is one level
//! of what later became the multilevel paradigm. This module expresses
//! the whole family as one architecture, for graphs and, as
//! [`NetlistPipeline`](crate::netlist::NetlistPipeline), netlists:
//!
//! * a [`CoarsenScheme`] contracts the graph one level at a time
//!   (random maximal matching — the paper's compaction — heavy-edge
//!   matching, or edge-order matching),
//! * the coarsest graph starts from a random bisection, count- or
//!   weight-balanced by the depth and the coarsening progress (see
//!   [`engine`]), and
//! * a [`Refiner`] (Kernighan-Lin, Fiduccia-Mattheyses, or simulated
//!   annealing) improves the bisection at every level, threading one
//!   [`Workspace`] through the whole cycle so the hot paths stay
//!   allocation-free. [`Pipeline::with_coarsest`] gives the coarsest
//!   level a refiner of its own.
//!
//! A [`Pipeline`] composes them behind the ordinary
//! [`Bisector`] interface. Descriptors reproduce the paper's
//! algorithms *bit-for-bit* relative to the bespoke pre-pipeline
//! wrappers they replaced (pinned by the golden values in
//! `tests/pipeline_equivalence.rs`):
//!
//! | descriptor | algorithm | table name |
//! |---|---|---|
//! | [`Pipeline::ckl`] | compaction around Kernighan-Lin (§V) | `CKL` |
//! | [`Pipeline::csa`] | compaction around simulated annealing (§V) | `CSA` |
//! | [`Pipeline::compacted`] | compaction around any refiner | `C{r}` |
//! | [`Pipeline::multilevel`] | multilevel V-cycle around any refiner | `ML-{r}` |
//! | [`Pipeline::flat`] | the bare refiner | `{r}` |
//!
//! # Example
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
//! assert_eq!(ckl.name(), "CKL");
//! let p = best_of(&ckl, &g, 2, &mut rng);
//! assert!(p.is_balanced(&g));
//! ```
//!
//! An invalid coarsest size surfaces as a typed [`BisectError`] from
//! [`Pipeline::new`] and [`Pipeline::multilevel_to`] instead of a panic.

pub mod coarsen;
pub mod engine;
pub mod kway;

use std::sync::Arc;

#[cfg(doc)]
use bisect_graph::hypergraph::Netlist;
use bisect_graph::Graph;
use rand::RngCore;

use crate::balance::Cells;
use crate::bisector::{Bisector, Refiner};
use crate::error::BisectError;
use crate::kl::KernighanLin;
use crate::sa::SimulatedAnnealing;
use crate::workspace::Workspace;

pub use coarsen::{
    CoarsenScheme, EdgeOrderMatching, HeavyEdgeMatching, ParallelMatching, RandomMatching,
};
pub use engine::CoarsenDepth;
use engine::{Level, LevelRefiner};
pub use kway::{recursive_partition, KWayPartition};

/// Default coarsest size of [`Pipeline::multilevel`].
pub const DEFAULT_COARSEST_SIZE: usize = 32;

/// A composed coarsen → partition → refine bisection algorithm over
/// graphs (the default) or [`Netlist`]s.
///
/// Cheap to clone (the stages are shared behind [`Arc`]s) and `Sync`,
/// so one pipeline value can drive every worker thread of the parallel
/// experiment engine.
// The refiners' `<L as Level>::` form keeps `derive(Clone)` from
// asking the refiner trait object for `Clone`.
#[derive(Clone)]
pub struct Pipeline<L: Level = Graph> {
    /// `None` coarsens with the kind's random matcher.
    pub(crate) coarsener: Option<L::Coarsener>,
    pub(crate) depth: CoarsenDepth,
    pub(crate) refiner: Arc<<L as Level>::Refiner>,
    /// Refiner of the coarsest level; `None` means `refiner`.
    pub(crate) coarsest: Option<Arc<<L as Level>::Refiner>>,
    name: String,
}

impl<L: Level> std::fmt::Debug for Pipeline<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("stages", &self.describe())
            .finish()
    }
}

impl<L: Level> Pipeline<L> {
    /// A pipeline from a coarsening depth, the refiner of every level
    /// (a [`Refiner`] for graphs, a
    /// [`NetlistRefiner`](crate::netlist::NetlistRefiner) for netlists),
    /// and a display name. It coarsens with the kind's random matcher.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] for
    /// [`CoarsenDepth::ToSize`] targets below 2.
    pub fn new(
        depth: CoarsenDepth,
        refiner: impl LevelRefiner<L>,
        name: impl Into<String>,
    ) -> Result<Pipeline<L>, BisectError> {
        // A 1-cell coarsest level has no bisection to refine.
        if let CoarsenDepth::ToSize(target @ 0..=1) = depth {
            return Err(BisectError::InvalidConfig(format!(
                "coarsest size must be at least 2, got {target}"
            )));
        }
        Ok(Pipeline::at(depth, refiner, name.into()))
    }

    /// [`Pipeline::new`] at a depth that passes its check.
    pub(crate) fn at(depth: CoarsenDepth, refiner: impl LevelRefiner<L>, name: String) -> Self {
        Pipeline {
            coarsener: None,
            depth,
            refiner: refiner.shared(),
            coarsest: None,
            name,
        }
    }

    /// Refines the coarsest level with `refiner` instead of the level
    /// refiner; every finer level keeps the level refiner. A
    /// hill-crossing serial refiner there sets the basin a greedy
    /// parallel level refiner then works within.
    pub fn with_coarsest(mut self, refiner: impl LevelRefiner<L>) -> Pipeline<L> {
        self.coarsest = Some(refiner.shared());
        self
    }

    /// A one-line description of the composed stages, for diagnostics
    /// (e.g. `"random-matching → levels(1) → KL"`; a
    /// separate coarsest-level refiner shows as `BFM/PFM`).
    pub fn describe(&self) -> String {
        let depth = match self.depth {
            CoarsenDepth::Flat => "flat".to_string(),
            CoarsenDepth::Levels(k) => format!("levels({k})"),
            CoarsenDepth::ToSize(s) => format!("to-size({s})"),
        };
        let refiner = L::refiner_name(&self.refiner);
        let refiners = match self.coarsest.as_deref() {
            Some(c) => format!("{}/{refiner}", L::refiner_name(c)),
            None => refiner,
        };
        let coarsener = L::coarsener_name(self.coarsener.as_ref());
        format!("{coarsener} → {depth} → {refiners}")
    }
}

impl Pipeline {
    /// The paper's **CKL**: one level of random-matching compaction
    /// around Kernighan-Lin.
    pub fn ckl() -> Pipeline {
        Pipeline::compacted(KernighanLin::new())
    }

    /// The paper's **CSA**: one level of random-matching compaction
    /// around simulated annealing with the paper's schedule.
    pub fn csa() -> Pipeline {
        Pipeline::compacted(SimulatedAnnealing::new())
    }

    /// Plain Kernighan-Lin from a random start, as a flat pipeline.
    pub fn kl() -> Pipeline {
        Pipeline::flat(KernighanLin::new())
    }

    /// Plain simulated annealing from a random start, as a flat
    /// pipeline.
    pub fn sa() -> Pipeline {
        Pipeline::flat(SimulatedAnnealing::new())
    }

    /// One level of compaction (§V) around any refiner: random maximal
    /// matching, weight-balanced coarse start, refine coarse then fine.
    /// Named `C{refiner}` after the paper's CKL/CSA convention.
    pub fn compacted<R: Refiner + Send + Sync + 'static>(refiner: R) -> Pipeline {
        let name = format!("C{}", refiner.name());
        Pipeline::at(CoarsenDepth::Levels(1), refiner, name)
    }

    /// Multilevel (V-cycle) bisection around any refiner, coarsening to
    /// at most [`DEFAULT_COARSEST_SIZE`] vertices. Named `ML-{refiner}`.
    pub fn multilevel<R: Refiner + Send + Sync + 'static>(refiner: R) -> Pipeline {
        let name = format!("ML-{}", refiner.name());
        Pipeline::at(CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE), refiner, name)
    }

    /// As [`Pipeline::multilevel`] with an explicit coarsest size.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] if `coarsest_size < 2`.
    pub fn multilevel_to<R: Refiner + Send + Sync + 'static>(
        refiner: R,
        coarsest_size: usize,
    ) -> Result<Pipeline, BisectError> {
        let name = format!("ML-{}", refiner.name());
        Pipeline::new(CoarsenDepth::ToSize(coarsest_size), refiner, name)
    }

    /// A flat pipeline: no coarsening, random balanced start, one
    /// refinement — the bare heuristic of the paper's protocol,
    /// bit-identical to calling the refiner directly. Named after the
    /// refiner.
    pub fn flat<R: Refiner + Send + Sync + 'static>(refiner: R) -> Pipeline {
        let name = refiner.name();
        Pipeline::at(CoarsenDepth::Flat, refiner, name)
    }

    /// Replaces the coarsening scheme (e.g. [`HeavyEdgeMatching`]).
    pub fn with_coarsener<C: CoarsenScheme + 'static>(mut self, coarsener: C) -> Pipeline {
        self.coarsener = Some(Arc::new(coarsener));
        self
    }

    /// Partitions `g` into `parts` balanced parts by recursive
    /// bisection with this pipeline (see [`kway::recursive_partition`]).
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidPartCount`] unless `parts` is a
    /// positive power of two, and propagates any stage error.
    pub fn partition_into(
        &self,
        g: &Graph,
        parts: usize,
        rng: &mut dyn RngCore,
    ) -> Result<KWayPartition, BisectError> {
        recursive_partition(self, g, parts, rng)
    }
}

impl<L: Cells> Bisector<L> for Pipeline<L> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn bisect_counted(
        &self,
        level: &L,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (L::Part, u64) {
        engine::run(self, level, &[], rng, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::FiducciaMattheyses;
    use crate::netlist::{NetlistFm, NetlistPipeline, ParallelCellMatching};
    use crate::partition::Bisection;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn descriptor_names_match_the_tables() {
        assert_eq!(Pipeline::ckl().name(), "CKL");
        assert_eq!(Pipeline::csa().name(), "CSA");
        assert_eq!(Pipeline::kl().name(), "KL");
        assert_eq!(Pipeline::sa().name(), "SA");
        assert_eq!(Pipeline::compacted(FiducciaMattheyses::new()).name(), "CFM");
        assert_eq!(Pipeline::multilevel(KernighanLin::new()).name(), "ML-KL");
    }

    #[test]
    fn flat_pipeline_is_bit_identical_to_bare_refiner() {
        let g = special::grid(8, 8);
        let mut ws = Workspace::new();
        let direct =
            KernighanLin::new().bisect_counted(&g, &mut StdRng::seed_from_u64(42), &mut ws);
        let piped = Pipeline::kl().bisect_counted(&g, &mut StdRng::seed_from_u64(42), &mut ws);
        assert_eq!(direct, piped);
    }

    #[test]
    fn compacted_pipeline_balances_and_improves_trees() {
        let g = special::binary_tree(254);
        let mut rng = StdRng::seed_from_u64(1989);
        let kl = crate::bisector::best_of(&Pipeline::kl(), &g, 2, &mut rng);
        let ckl = crate::bisector::best_of(&Pipeline::ckl(), &g, 2, &mut rng);
        assert!(ckl.is_balanced(&g));
        assert!(ckl.cut() <= kl.cut(), "CKL {} > KL {}", ckl.cut(), kl.cut());
    }

    #[test]
    fn multilevel_pipeline_near_optimal_on_grid() {
        let g = special::grid(12, 12);
        let mut rng = StdRng::seed_from_u64(1989);
        let p =
            crate::bisector::best_of(&Pipeline::multilevel(KernighanLin::new()), &g, 2, &mut rng);
        assert!(p.cut() <= 16, "ML-KL cut {} (optimal 12)", p.cut());
    }

    #[test]
    fn heavy_edge_coarsener_slots_in() {
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(4);
        let p = Pipeline::ckl()
            .with_coarsener(HeavyEdgeMatching)
            .bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn invalid_coarsest_size_is_a_typed_error() {
        let err = Pipeline::multilevel_to(KernighanLin::new(), 1).unwrap_err();
        assert!(matches!(err, BisectError::InvalidConfig(_)));
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn kway_partitioning_through_a_pipeline() {
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let p = Pipeline::kl().partition_into(&g, 4, &mut rng).unwrap();
        assert_eq!(p.part_sizes(), vec![16, 16, 16, 16]);
        let err = Pipeline::kl().partition_into(&g, 3, &mut rng).unwrap_err();
        assert_eq!(err, BisectError::InvalidPartCount { parts: 3 });
    }

    #[test]
    fn clone_shares_stages_and_is_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pipeline>();
        let a = Pipeline::ckl();
        let b = a.clone();
        let g = special::grid(6, 6);
        let x = a.bisect(&g, &mut StdRng::seed_from_u64(9));
        let y = b.bisect(&g, &mut StdRng::seed_from_u64(9));
        assert_eq!(x, y);
    }

    #[test]
    fn describe_lists_all_stages() {
        let d = Pipeline::ckl().describe();
        assert!(d.contains("random-matching"), "{d}");
        assert!(d.contains("levels(1)"), "{d}");
        assert!(d.contains("KL"), "{d}");

        let netlist = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let d = netlist.describe();
        assert_eq!(d, "random-cell-matching → to-size(8) → NetFM");
        let d = netlist
            .with_coarsener(ParallelCellMatching::new())
            .with_coarsest(NetlistFm::new())
            .describe();
        assert_eq!(d, "parallel-cell-matching → to-size(8) → NetFM/NetFM");
    }

    /// A refiner that changes nothing and logs the size of every level
    /// it is handed.
    struct LevelLog(Arc<std::sync::Mutex<Vec<usize>>>);

    impl Bisector for LevelLog {
        fn name(&self) -> String {
            "log".into()
        }

        fn bisect_counted(
            &self,
            g: &Graph,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (Bisection, u64) {
            self.refine_counted(g, crate::seed::random_balanced(g, rng), rng, ws)
        }
    }

    impl Refiner for LevelLog {
        fn refine_counted(
            &self,
            g: &Graph,
            init: Bisection,
            _rng: &mut dyn RngCore,
            _ws: &mut Workspace,
        ) -> (Bisection, u64) {
            self.0.lock().unwrap().push(g.num_vertices());
            (init, 0)
        }
    }

    #[test]
    fn coarsest_refiner_runs_once_at_the_coarsest_level() {
        let g = special::grid(12, 12);
        let coarsest = Arc::new(std::sync::Mutex::new(Vec::new()));
        let levels = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pipeline = Pipeline::multilevel_to(LevelLog(levels.clone()), 16)
            .unwrap()
            .with_coarsest(LevelLog(coarsest.clone()));
        assert!(pipeline.describe().ends_with("log/log"));
        let p = pipeline.bisect(&g, &mut StdRng::seed_from_u64(3));
        assert!(p.is_balanced(&g));
        let coarsest = coarsest.lock().unwrap();
        let levels = levels.lock().unwrap();
        assert_eq!(coarsest.len(), 1);
        assert!(coarsest[0] <= 16, "coarsest level {}", coarsest[0]);
        assert!(!levels.is_empty());
        assert!(levels.iter().all(|&n| n > coarsest[0]), "{levels:?}");
        assert_eq!(levels.last(), Some(&g.num_vertices()));
    }

    #[test]
    fn start_is_fixed_by_the_depth_not_the_ladder() {
        // A pass-through refiner returns the start itself.
        let log = || LevelLog(Arc::new(std::sync::Mutex::new(Vec::new())));
        let g = special::grid(6, 6);
        let rng = || StdRng::seed_from_u64(11);
        let flat = Pipeline::flat(log()).bisect(&g, &mut rng());
        assert_eq!(flat, crate::seed::random_balanced(&g, &mut rng()));
        // 36 vertices are already below the target: the ladder is empty,
        // yet the ToSize depth keeps the weight-balanced start.
        let to_size = Pipeline::multilevel_to(log(), 64)
            .unwrap()
            .bisect(&g, &mut rng());
        assert_eq!(to_size, crate::seed::weight_balanced_random(&g, &mut rng()));
        assert_ne!(flat, to_size);
    }
}
