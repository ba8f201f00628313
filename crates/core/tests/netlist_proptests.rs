//! Property tests for the parallel netlist stack: gain-cache
//! projection against from-scratch rebuilds after arbitrary
//! accepted-move sequences, and fixed-thread-count determinism of
//! `ParallelNetlistFm` with net-cut cross-checks.

use bisect_core::netlist::{
    NetlistBisection, NetlistGainCache, NetlistRefiner, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::workspace::Workspace;
use bisect_graph::hypergraph::{contract_cells, random_cell_matching, Netlist, NetlistBuilder};
use bisect_graph::VertexId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(cells);
    for _ in 0..nets {
        let size = rng.gen_range(2..=5usize.min(cells));
        let mut pins: Vec<u32> = (0..cells as u32).collect();
        pins.shuffle(&mut rng);
        let w = rng.gen_range(1..=3u64);
        b.add_weighted_net(&pins[..size], w).unwrap();
    }
    b.build()
}

fn assert_cache_matches_fresh(
    cache: &NetlistGainCache,
    nl: &Netlist,
    p: &NetlistBisection,
) -> Result<(), TestCaseError> {
    let mut fresh = NetlistGainCache::default();
    fresh.init(nl, p);
    for c in nl.cells() {
        prop_assert_eq!(cache.gain(c), fresh.gain(c), "gain of {}", c);
        prop_assert_eq!(
            cache.cut_degree(c),
            fresh.cut_degree(c),
            "cut degree of {}",
            c
        );
        prop_assert_eq!(
            cache.is_boundary(c),
            fresh.is_boundary(c),
            "boundary flag of {}",
            c
        );
    }
    let mut a: Vec<VertexId> = cache.boundary().to_vec();
    let mut b: Vec<VertexId> = fresh.boundary().to_vec();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "boundary set");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projection through an uncoarsening step, after an arbitrary
    /// accepted-move history at the coarse level, must agree with an
    /// O(cells + pins) rebuild — and must keep agreeing after further
    /// fine-level moves.
    #[test]
    fn projection_matches_from_scratch_rebuild(
        cells in 6usize..36,
        nets in 4usize..40,
        netlist_seed in 0u64..10_000,
        move_seed in 0u64..10_000,
        coarse_moves in 0usize..12,
        fine_moves in 0usize..12,
    ) {
        let fine = random_netlist(cells, nets, netlist_seed);
        let mut rng = StdRng::seed_from_u64(move_seed);
        let pairs = random_cell_matching(&fine, &mut rng);
        prop_assume!(!pairs.is_empty());
        let contraction = contract_cells(&fine, &pairs);
        let coarse = contraction.coarse();

        let mut cp = NetlistBisection::random_balanced(coarse, &mut rng);
        let mut cache = NetlistGainCache::default();
        cache.init(coarse, &cp);
        for _ in 0..coarse_moves {
            let c = rng.gen_range(0..coarse.num_cells()) as VertexId;
            cache.move_cell(coarse, &mut cp, c);
        }

        let mut fp =
            NetlistBisection::from_sides(&fine, contraction.project_sides(cp.sides())).unwrap();
        cache.project(&fine, &fp, contraction.fine_to_coarse());
        assert_cache_matches_fresh(&cache, &fine, &fp)?;

        for _ in 0..fine_moves {
            let c = rng.gen_range(0..fine.num_cells()) as VertexId;
            cache.move_cell(&fine, &mut fp, c);
        }
        assert_cache_matches_fresh(&cache, &fine, &fp)?;
    }

    /// `ParallelNetlistFm` at 1/2/4 threads: bit-identical across
    /// repeat runs at each fixed thread count, never worse than the
    /// start, balanced, and with the maintained net cut agreeing with a
    /// brute-force recompute on the untouched netlist.
    #[test]
    fn parallel_netlist_fm_is_deterministic_per_thread_count(
        cells in 8usize..48,
        nets in 6usize..60,
        netlist_seed in 0u64..10_000,
        init_seed in 0u64..10_000,
    ) {
        let nl = random_netlist(cells, nets, netlist_seed);
        let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(init_seed));
        for threads in [1usize, 2, 4] {
            let pfm = ParallelNetlistFm::new().with_threads(threads);
            let run = || {
                let mut dummy = StdRng::seed_from_u64(0);
                let mut ws = Workspace::new();
                pfm.refine_counted(&nl, &[], init.clone(), &mut dummy, &mut ws)
            };
            let (a, ra) = run();
            let (b, rb) = run();
            prop_assert_eq!(&a, &b, "threads {}", threads);
            prop_assert_eq!(ra, rb, "threads {}", threads);
            prop_assert!(a.cut() <= init.cut(), "threads {}", threads);
            prop_assert!(a.is_balanced(&nl), "threads {}", threads);
            prop_assert_eq!(a.cut(), a.recompute_cut(&nl), "threads {}", threads);
        }
    }

    /// The parallel matcher composes with contraction into a valid
    /// coarsening step at any thread count: pairs are disjoint, weight
    /// is conserved, and repeat runs are identical.
    #[test]
    fn parallel_matching_contracts_validly(
        cells in 4usize..40,
        nets in 2usize..50,
        netlist_seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let nl = random_netlist(cells, nets, netlist_seed);
        let matcher = ParallelCellMatching::new().with_threads(threads);
        let pairs = matcher.matching(&nl);
        prop_assert_eq!(&pairs, &matcher.matching(&nl));
        prop_assume!(!pairs.is_empty());
        let c = contract_cells(&nl, &pairs);
        prop_assert_eq!(
            c.coarse().total_cell_weight(),
            nl.total_cell_weight()
        );
        prop_assert_eq!(
            c.coarse().num_cells(),
            nl.num_cells() - pairs.len()
        );
    }
}
