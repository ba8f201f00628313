//! Integration guarantees of the hypergraph (netlist) pipeline:
//! incremental net-cut bookkeeping must agree with brute-force
//! recounts under arbitrary move sequences, the native net cut is
//! sandwiched by its clique-expansion counterparts, and the recursive
//! placement protocol is bit-identical at every thread count.

use bisect_core::bisector::Bisector;
use bisect_core::netlist::{recursive_placement, NetlistBisection, NetlistPipeline};
use bisect_core::partition::Bisection;
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::{LaggedFibonacci, SeedSequence};
use bisect_graph::hypergraph::Netlist;
use proptest::prelude::*;
use rand::SeedableRng;

/// A small Rent-style netlist for the given seed.
fn rent_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
    let params =
        RentNetlistParams::new(cells, nets, 5, 2.0, 0.3).expect("feasible test parameters");
    sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params)
}

/// Brute-force net cut: one full sweep over every net's pins.
fn brute_force_net_cut(nl: &Netlist, sides: &[bool]) -> u64 {
    nl.net_ids()
        .map(|n| {
            let pins = nl.pins(n);
            let first = sides[pins[0] as usize];
            if pins.iter().any(|&p| sides[p as usize] != first) {
                nl.net_weight(n)
            } else {
                0
            }
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The incremental per-net pin-count bookkeeping of
    /// [`NetlistBisection::move_cell`] must agree with a brute-force
    /// recount after *every* prefix of an arbitrary move sequence —
    /// including unbalanced states mid-sequence.
    #[test]
    fn incremental_net_cut_matches_brute_force_after_arbitrary_moves(
        cells in 16usize..=48,
        nets in 20usize..=64,
        seed in 0u64..500,
        moves in proptest::collection::vec(0usize..48, 1..40),
    ) {
        let nl = rent_netlist(cells, nets, seed);
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0x5eed);
        let mut p = NetlistBisection::random_balanced(&nl, &mut rng);
        prop_assert_eq!(p.cut(), brute_force_net_cut(&nl, p.sides()));
        for m in moves {
            let c = (m % cells) as u32;
            p.move_cell(&nl, c);
            prop_assert_eq!(p.cut(), brute_force_net_cut(&nl, p.sides()));
            prop_assert_eq!(p.cut(), p.recompute_cut(&nl));
        }
    }

    /// Clique-expansion-vs-native comparison: for the bisection the
    /// native multilevel pipeline produces, the net cut is bounded
    /// above by the clique-expansion edge cut of the *same* sides
    /// (every cut net contributes at least one clique edge), which in
    /// turn is bounded by the worst-case ⌊k/2⌋·⌈k/2⌉ overcount the
    /// clique approximation can charge a cut k-pin net.
    #[test]
    fn native_net_cut_is_sandwiched_by_the_clique_expansion(
        cells in 24usize..=64,
        nets in 30usize..=90,
        seed in 0u64..500,
    ) {
        let nl = rent_netlist(cells, nets, seed);
        let pipeline = NetlistPipeline::multilevel_fm();
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xb15ec7);
        let p = pipeline.bisect(&nl, &mut rng);
        prop_assert!(p.is_balanced(&nl));
        let net_cut = p.cut();
        prop_assert_eq!(net_cut, brute_force_net_cut(&nl, p.sides()));

        let clique = Bisection::from_sides(&nl.to_clique_graph(), p.sides().to_vec())
            .expect("side vector matches the clique graph");
        let clique_cut = clique.cut();
        let worst_case: u64 = nl
            .net_ids()
            .map(|n| {
                let pins = nl.pins(n);
                let first = p.sides()[pins[0] as usize];
                if pins.iter().any(|&c| p.sides()[c as usize] != first) {
                    let k = pins.len() as u64;
                    nl.net_weight(n) * (k / 2) * k.div_ceil(2)
                } else {
                    0
                }
            })
            .sum();
        prop_assert!(net_cut <= clique_cut, "net {} > clique {}", net_cut, clique_cut);
        prop_assert!(
            clique_cut <= worst_case,
            "clique {} > worst-case bound {}",
            clique_cut,
            worst_case
        );
    }

    /// The best-of-starts recursive placement protocol — per-trial seed
    /// streams, lowest-index-minimal net-cut winner — must give the
    /// same placement at 1, 2, and 4 threads.
    #[test]
    fn recursive_placement_is_thread_invariant(seed in 0u64..200) {
        let nl = rent_netlist(60, 80, seed);
        let pipeline = NetlistPipeline::multilevel_fm();
        let run = |threads: usize| {
            let seq = SeedSequence::new(seed ^ 0xfa7);
            let trials = bisect_par::par_map_with(threads, 4, |i| {
                let mut ws = Workspace::new();
                let mut rng = seq.rng(i as u64);
                recursive_placement(&pipeline, &nl, 4, &mut rng, &mut ws)
                    .expect("4 is a valid part count")
            });
            trials
                .into_iter()
                .min_by_key(|p| p.net_cut(&nl))
                .expect("at least one trial")
        };
        let serial = run(1);
        prop_assert!(serial.part_sizes().iter().all(|&s| s > 0));
        for threads in [2usize, 4] {
            prop_assert_eq!(&run(threads), &serial, "threads {}", threads);
        }
    }
}
