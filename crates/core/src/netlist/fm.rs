//! Fiduccia-Mattheyses refinement on netlists — the 1982 algorithm in
//! its native habitat. [`NetlistFm`] runs the one FM pass of
//! [`crate::fm`], boundary-seeded and workspace-resident like
//! [`crate::fm::BoundaryFm`], with the fixed cells (the netlist's last
//! `fixed.len()`) locked for the whole refine.
//!
//! The netlist's own step, the virtual move (one walk over the moved
//! cell's nets), sits in [`crate::fm`] next to the graph's. An interior
//! cell has only uncut nets, hence gain `≤ 0`, and enters the buckets
//! when such a walk first reaches it.

use bisect_graph::hypergraph::Netlist;
use rand::RngCore;

use crate::fm::{self, Seeds};
use crate::partition::Side;
use crate::workspace::Workspace;

use super::{NetlistBisection, NetlistRefiner};

/// Fiduccia-Mattheyses on netlists.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::{weight_balanced_random, NetlistFm, NetlistRefiner};
/// use bisect_core::workspace::Workspace;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(6);
/// for pins in [[0u32, 1, 2].as_slice(), &[3, 4, 5], &[2, 3]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let init = weight_balanced_random(&nl, &mut rng);
/// let mut ws = Workspace::new();
/// let (p, _passes) = NetlistFm::new().refine_counted(&nl, &[], init, &mut rng, &mut ws);
/// assert_eq!(p.cut(), 1); // only the 2-pin bridge net is cut
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistFm {
    max_passes: usize,
}

impl Default for NetlistFm {
    fn default() -> NetlistFm {
        NetlistFm::new()
    }
}

impl NetlistFm {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> NetlistFm {
        NetlistFm { max_passes: 64 }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> NetlistFm {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }
}

impl NetlistRefiner for NetlistFm {
    fn name(&self) -> String {
        "NetFM".into()
    }

    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[Side],
        mut init: NetlistBisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        let passes =
            fm::refine_with_cache(nl, fixed, &mut init, ws, self.max_passes, Seeds::Boundary);
        (init, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{brute_force_cut, two_clusters};
    use super::super::NetlistPipeline;
    use super::*;
    use crate::bisector::Bisector;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fm_finds_the_bridge_cut() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(3);
        let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn fm_matches_brute_force_on_small_netlists() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            // Random netlist on 10 cells with 8 nets of 2-4 pins.
            let mut b = NetlistBuilder::new(10);
            for _ in 0..8 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (0..10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
            let nl = b.build();
            let optimal = brute_force_cut(&nl);
            let mut best = u64::MAX;
            for seed in 0..8 {
                let p = NetlistPipeline::flat_fm().bisect(&nl, &mut StdRng::seed_from_u64(seed));
                assert!(p.cut() >= optimal, "trial {trial}: below optimum");
                best = best.min(p.cut());
            }
            assert!(
                best <= optimal + 1,
                "trial {trial}: FM best {best} far from optimum {optimal}"
            );
        }
    }

    #[test]
    fn refines_validly_and_repeats_bit_identically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = NetlistBuilder::new(24);
        for _ in 0..40 {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..24).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        let nl = b.build();
        for seed in 0..6 {
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let fm = NetlistFm::new();
            let mut ws = Workspace::new();
            let (p, _) = fm.refine_counted(
                &nl,
                &[],
                init.clone(),
                &mut StdRng::seed_from_u64(0),
                &mut ws,
            );
            assert!(p.cut() <= init.cut());
            assert!(p.is_balanced(&nl));
            assert_eq!(p.cut(), p.recompute_cut(&nl));
            // Repeat runs are bit-identical.
            let mut ws2 = Workspace::new();
            let (q, _) = fm.refine_counted(
                &nl,
                &[],
                init.clone(),
                &mut StdRng::seed_from_u64(0),
                &mut ws2,
            );
            assert_eq!(p.sides(), q.sides());
        }
    }

    #[test]
    fn pass_never_increases_cut() {
        let nl = two_clusters();
        let fm = NetlistFm::new().with_max_passes(1);
        let mut ws = Workspace::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let before = init.cut();
            let (p, passes) = fm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            assert!(p.cut() <= before);
            assert_eq!(passes, u64::from(p.cut() < before));
            assert!(p.is_balanced(&nl));
        }
    }

    #[test]
    fn refine_leaves_cache_exact() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let (refined, _) = fm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            for c in nl.cells() {
                assert_eq!(
                    ws.netlist_cache.gain(c),
                    refined.gain(&nl, c),
                    "seed {seed}, cell {c}"
                );
            }
        }
    }

    #[test]
    fn refine_respects_fixed_cells() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        // Adversarial start: the fixed cells 4 and 5 split their cluster.
        let init =
            NetlistBisection::from_sides(&nl, vec![false, true, false, true, false, true]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let fixed = [Side::A, Side::B];
        let (refined, _) = fm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
        assert_eq!(refined.side(4), init.side(4));
        assert_eq!(refined.side(5), init.side(5));
        assert!(refined.cut() <= init.cut());
    }

    #[test]
    fn refine_with_fixed_cells_leaves_the_workspace_clean() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = NetlistBuilder::new(40);
        for _ in 0..60 {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..40).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        let nl = b.build();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            // The last 4 to 9 cells fixed where the start has them.
            let fixed: Vec<Side> = (36 - seed as u32..40).map(|c| init.side(c)).collect();
            let (p, passes) = fm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
            assert!(passes > 0, "seed {seed}: the refine must move something");
            assert!(ws.locked.iter().all(|&l| !l), "seed {seed}");
            assert_eq!(ws.netlist_work.as_ref(), Some(&p), "seed {seed}");
            for c in 36 - seed as u32..40 {
                assert_eq!(p.side(c), init.side(c), "seed {seed}");
            }
        }
    }

    #[test]
    fn tiny_netlists() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..3usize {
            let nl = NetlistBuilder::new(n).build();
            let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn weighted_nets_and_cells() {
        let mut b = NetlistBuilder::new(4);
        b.add_weighted_net(&[0, 1], 10).unwrap();
        b.add_weighted_net(&[1, 2], 1).unwrap();
        b.add_weighted_net(&[2, 3], 10).unwrap();
        let nl = b.build();
        let mut rng = StdRng::seed_from_u64(2);
        let p = NetlistPipeline::flat_fm().bisect(&nl, &mut rng);
        // Optimal: cut the middle weight-1 net.
        assert_eq!(p.cut(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = NetlistFm::new().with_max_passes(0);
    }
}
