//! Property-based tests (proptest) on the core invariants listed in
//! DESIGN.md §6.

use bisect_core::bisector::{Bisector, Refiner};
use bisect_core::fm::FiducciaMattheyses;
use bisect_core::kl::KernighanLin;
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::{rebalance, Bisection, Side};
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::reorder::Reordering;
use bisect_graph::{contraction, io, matching, Graph, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// A uniform random permutation of `0..n` (Fisher-Yates over the
/// deterministic generator, so the permutation is part of the test's
/// reproducible seed space).
fn permutation_from_seed(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Strategy: a random simple graph as (n, edge list).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32).prop_filter("no self loop", |(u, v)| u != v);
            (Just(n), proptest::collection::vec(edge, 0..(3 * n)))
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.add_edge(u, v).expect("filtered edges are valid");
            }
            b.build()
        })
}

/// Strategy: a weighted graph (vertex weights 1-3, edge weights 1-4).
fn arb_weighted_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 1u64..=4)
                .prop_filter("no self loop", |(u, v, _)| u != v);
            (
                Just(n),
                proptest::collection::vec(edge, 0..(2 * n)),
                proptest::collection::vec(1u64..=3, n),
            )
        })
        .prop_map(|(n, edges, weights)| {
            let mut b = GraphBuilder::new(n);
            for (v, &w) in weights.iter().enumerate() {
                b.set_vertex_weight(v as VertexId, w)
                    .expect("weights positive");
            }
            for (u, v, w) in edges {
                b.add_weighted_edge(u, v, w)
                    .expect("filtered edges are valid");
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cut_is_symmetric_under_side_flip(g in arb_graph(24), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let p = seed::random_balanced(&g, &mut rng);
        let flipped: Vec<bool> = p.sides().iter().map(|s| !s).collect();
        let q = Bisection::from_sides(&g, flipped).unwrap();
        prop_assert_eq!(p.cut(), q.cut());
    }

    #[test]
    fn incremental_moves_match_recompute(g in arb_graph(20), moves in proptest::collection::vec(0u32..20, 1..30), seed in 0u64..100) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let mut p = seed::random_balanced(&g, &mut rng);
        for &m in &moves {
            let v = m % g.num_vertices() as u32;
            p.move_vertex(&g, v);
            prop_assert_eq!(p.cut(), p.recompute_cut(&g));
        }
    }

    #[test]
    fn kl_pass_never_increases_cut(g in arb_graph(24), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let mut p = seed::random_balanced(&g, &mut rng);
        let kl = KernighanLin::new();
        let before = p.cut();
        let improvement = kl.pass_in(&g, &mut p, &mut Workspace::new());
        prop_assert!(p.cut() <= before);
        prop_assert_eq!(before - p.cut(), improvement);
        prop_assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn kl_preserves_side_counts(g in arb_graph(24), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let init = seed::random_balanced(&g, &mut rng);
        let counts = (init.count(Side::A), init.count(Side::B));
        let refined = KernighanLin::new().refine(&g, init, &mut rng);
        prop_assert_eq!((refined.count(Side::A), refined.count(Side::B)), counts);
    }

    #[test]
    fn fm_refine_is_monotone_and_balanced(g in arb_graph(24), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let refined = FiducciaMattheyses::new().refine(&g, init, &mut rng);
        prop_assert!(refined.cut() <= before);
        prop_assert!(refined.is_balanced(&g));
        prop_assert_eq!(refined.cut(), refined.recompute_cut(&g));
    }

    #[test]
    fn contraction_preserves_projected_cut(g in arb_weighted_graph(20), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let coarse_p = seed::weight_balanced_random(coarse, &mut rng);
        let fine_p = Bisection::from_sides(&g, c.project_sides(coarse_p.sides())).unwrap();
        // Weighted coarse cut equals the fine cut of the projection.
        prop_assert_eq!(coarse_p.cut(), fine_p.cut());
        // Weight balance projects exactly.
        prop_assert_eq!(coarse_p.weight(Side::A), fine_p.weight(Side::A));
        // Total vertex weight is preserved by contraction.
        prop_assert_eq!(coarse.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn matching_is_maximal_and_disjoint(g in arb_graph(30), seed in 0u64..1000) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let m = matching::random_maximal(&g, &mut rng);
        prop_assert!(m.is_maximal(&g));
        prop_assert!(m.respects_graph(&g));
        for &(u, v) in m.pairs() {
            prop_assert_eq!(m.mate(u), Some(v));
            prop_assert_eq!(m.mate(v), Some(u));
        }
    }

    #[test]
    fn rebalance_always_balances(g in arb_graph(20), bits in proptest::collection::vec(any::<bool>(), 20)) {
        let sides: Vec<bool> = (0..g.num_vertices()).map(|v| bits[v % bits.len()]).collect();
        let mut p = Bisection::from_sides(&g, sides).unwrap();
        rebalance(&g, &mut p);
        prop_assert!(p.is_balanced(&g));
        prop_assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn metis_roundtrip(g in arb_weighted_graph(16)) {
        let mut buffer = Vec::new();
        io::write_metis(&g, &mut buffer).unwrap();
        let h = io::read_metis(buffer.as_slice()).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    // arb_graph, not arb_weighted_graph: the edge-list format carries
    // edge weights (duplicate edges merge into them) but not vertex
    // weights.
    fn edge_list_roundtrip(g in arb_graph(16)) {
        let mut buffer = Vec::new();
        io::write_edge_list(&g, &mut buffer).unwrap();
        let h = io::read_edge_list(buffer.as_slice(), Some(g.num_vertices())).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn gbreg_samples_satisfy_model(n_half in 4usize..20, d in 2usize..5, b_raw in 0usize..10, seed in 0u64..100) {
        prop_assume!(d < n_half);
        let nd = n_half * d;
        let b = if (nd.wrapping_sub(b_raw)) % 2 != 0 { b_raw + 1 } else { b_raw };
        prop_assume!(b <= nd && b <= n_half * n_half);
        let params = bisect_gen::gbreg::GbregParams::new(2 * n_half, b, d).unwrap();
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = bisect_gen::gbreg::sample(&mut rng, &params).unwrap();
        prop_assert_eq!(g.regular_degree(), Some(d));
        prop_assert_eq!(bisect_gen::gbreg::planted_cut(&g), b as u64);
        prop_assert!(g.is_unit_weighted());
    }

    #[test]
    fn g2set_exact_cross_count(n_half in 3usize..20, bis in 0usize..9, seed in 0u64..100) {
        prop_assume!(bis <= n_half * n_half);
        let params = bisect_gen::g2set::G2setParams::new(2 * n_half, 0.3, 0.3, bis).unwrap();
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = bisect_gen::g2set::sample(&mut rng, &params);
        let planted = Bisection::planted(&g);
        prop_assert_eq!(planted.cut(), bis as u64);
    }

    #[test]
    fn netlist_cut_consistent_under_moves(
        nets in proptest::collection::vec(proptest::collection::vec(0u32..12, 2..5), 1..10),
        moves in proptest::collection::vec(0u32..12, 1..20),
        seed in 0u64..100,
    ) {
        use bisect_core::netlist::NetlistBisection;
        use bisect_graph::hypergraph::NetlistBuilder;
        let mut b = NetlistBuilder::new(12);
        for net in &nets {
            b.add_net(net).unwrap();
        }
        let nl = b.build();
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let mut p = NetlistBisection::random_balanced(&nl, &mut rng);
        for &c in &moves {
            let gain = p.gain(&nl, c);
            let before = p.cut() as i64;
            p.move_cell(&nl, c);
            prop_assert_eq!(p.cut(), p.recompute_cut(&nl));
            prop_assert_eq!(before - p.cut() as i64, gain);
        }
    }

    #[test]
    fn netlist_fm_monotone_and_balanced(
        nets in proptest::collection::vec(proptest::collection::vec(0u32..14, 2..6), 1..12),
        seed in 0u64..100,
    ) {
        use bisect_core::netlist::{NetlistBisection, NetlistFm, NetlistRefiner};
        use bisect_graph::hypergraph::NetlistBuilder;
        let mut b = NetlistBuilder::new(14);
        for net in &nets {
            b.add_net(net).unwrap();
        }
        let nl = b.build();
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let init = NetlistBisection::random_balanced(&nl, &mut rng);
        let before = init.cut();
        let (refined, _) =
            NetlistFm::new().refine_counted(&nl, &[], init, &mut rng, &mut Workspace::new());
        prop_assert!(refined.cut() <= before);
        prop_assert!(refined.is_balanced(&nl));
        prop_assert_eq!(refined.cut(), refined.recompute_cut(&nl));
    }

    #[test]
    fn clique_expansion_cut_bounds_net_cut(
        nets in proptest::collection::vec(proptest::collection::vec(0u32..10, 2..5), 1..8),
        seed in 0u64..100,
    ) {
        use bisect_core::netlist::NetlistBisection;
        use bisect_graph::hypergraph::NetlistBuilder;
        let mut b = NetlistBuilder::new(10);
        for net in &nets {
            b.add_net(net).unwrap();
        }
        let nl = b.build();
        let clique = nl.to_clique_graph();
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let p = seed::random_balanced(&clique, &mut rng);
        let netp = NetlistBisection::from_sides(&nl, p.sides().to_vec()).unwrap();
        // A cut net contributes at least one clique edge, so the net
        // cut never exceeds the clique-edge cut.
        prop_assert!(netp.cut() <= p.cut());
    }

    #[test]
    fn kl_incremental_matches_exhaustive_reference(
        g in arb_graph(24),
        seed in 0u64..200,
    ) {
        use bisect_core::kl::PairSelection;
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let init = seed::random_balanced(&g, &mut rng);
        let reference = KernighanLin::new()
            .with_pair_selection(PairSelection::Exhaustive)
            .refine_counted(&g, init.clone(), &mut rng, &mut Workspace::new());
        let incremental = KernighanLin::new()
            .with_pair_selection(PairSelection::Incremental)
            .refine_counted(&g, init, &mut rng, &mut Workspace::new());
        // Bit-identical refinement, not merely an equal cut: the
        // incremental bucket scan must make the same pair choices as
        // Figure 2's exhaustive scan on every pass.
        prop_assert_eq!(incremental.1, reference.1, "pass counts differ");
        prop_assert_eq!(incremental.0, reference.0);
    }

    #[test]
    fn permutation_preserves_structure_and_cuts(
        g in arb_weighted_graph(20),
        perm_seed in 0u64..1000,
        part_seed in 0u64..1000,
    ) {
        let n = g.num_vertices();
        let perm = permutation_from_seed(n, perm_seed);
        let r = Reordering::from_new_to_old(perm).unwrap();
        let h = r.apply(&g);
        // Degree sequence and weights survive relabeling vertex by
        // vertex, not merely in aggregate.
        for old in 0..n as VertexId {
            let new = r.to_new(old);
            prop_assert_eq!(g.degree(old), h.degree(new));
            prop_assert_eq!(g.vertex_weight(old), h.vertex_weight(new));
        }
        prop_assert_eq!(g.total_vertex_weight(), h.total_vertex_weight());
        // Any partition keeps its cut weight under the relabeling.
        let mut rng = LaggedFibonacci::seed_from_u64(part_seed);
        let p = seed::weight_balanced_random(&g, &mut rng);
        let q = Bisection::from_sides(&h, r.to_new_sides(p.sides())).unwrap();
        prop_assert_eq!(p.cut(), q.cut());
        // And the inverse mapping is exact: new sides -> old sides ->
        // new sides is the identity.
        let back = r.to_new_sides(&r.to_old_sides(q.sides()));
        prop_assert_eq!(back, q.sides().to_vec());
    }

    #[test]
    fn serial_bisections_map_back_exactly_through_permutations(
        g in arb_graph(20),
        perm_seed in 0u64..200,
        seed in 0u64..200,
    ) {
        // Bisect the *relabeled* graph with the pinned serial
        // algorithms, map the result back through the inverse
        // permutation, and re-verify the cut on the original graph:
        // the exact check the huge pipeline performs after BFS
        // reordering.
        let r = Reordering::from_new_to_old(
            permutation_from_seed(g.num_vertices(), perm_seed),
        ).unwrap();
        let h = r.apply(&g);
        let algos: Vec<Box<dyn Bisector>> = vec![
            Box::new(KernighanLin::new()),
            Box::new(SimulatedAnnealing::quick()),
        ];
        for algo in algos {
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            let p = algo.bisect(&h, &mut rng);
            let q = Bisection::from_sides(&g, r.to_old_sides(p.sides())).unwrap();
            prop_assert_eq!(p.cut(), q.cut(), "{} cut changed under inverse mapping", algo.name());
            prop_assert_eq!(q.cut(), q.recompute_cut(&g));
        }
    }

    #[test]
    fn streamed_build_is_identical_to_edge_list_build(
        n in 2usize..24,
        edges in proptest::collection::vec((0u32..24, 0u32..24, 1u64..=4), 0..60),
        vertex_weights in proptest::collection::vec(1u64..=5, 24),
    ) {
        // Same edge multiset (duplicates merge, order arbitrary)
        // through both construction paths, each checked against an
        // independent oracle: a map from the unordered pair to its
        // summed weight.
        let edges: Vec<(u32, u32, u64)> = edges
            .into_iter()
            .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
            .filter(|(u, v, _)| u != v)
            .collect();
        let mut oracle: BTreeMap<(VertexId, VertexId), u64> = BTreeMap::new();
        for &(u, v, w) in &edges {
            *oracle.entry((u.min(v), u.max(v))).or_insert(0) += w;
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        for (v, &w) in vertex_weights[..n].iter().enumerate() {
            b.set_vertex_weight(v as VertexId, w).unwrap();
        }
        let listed = b.build();
        let streamed = GraphBuilder::stream(n, |sink| {
            for &(u, v, w) in &edges {
                sink.weighted_edge(u, v, w)?;
            }
            Ok(())
        }).unwrap();
        for (g, weights) in [(&listed, &vertex_weights[..n]), (&streamed, &[1; 24][..n])] {
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert_eq!(g.num_edges(), oracle.len());
            for v in 0..n as VertexId {
                // Every pair the oracle holds at `v`, in both
                // orientations, ascending by neighbour.
                let mut expected: Vec<(VertexId, u64)> = oracle
                    .iter()
                    .filter_map(|(&(a, c), &w)| {
                        (a == v).then_some((c, w)).or((c == v).then_some((a, w)))
                    })
                    .collect();
                expected.sort_unstable();
                let (nbrs, ws): (Vec<VertexId>, Vec<u64>) = expected.into_iter().unzip();
                prop_assert_eq!(g.neighbors(v), &nbrs[..]);
                prop_assert_eq!(g.neighbor_weights(v), &ws[..]);
                prop_assert_eq!(g.vertex_weight(v), weights[v as usize]);
            }
        }
    }

    #[test]
    fn parallel_fm_refine_is_monotone_balanced_and_thread_deterministic(
        g in arb_graph(24),
        seed in 0u64..200,
    ) {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let pfm = ParallelFm::new().with_threads(4);
        let refined = pfm.refine(&g, init.clone(), &mut rng);
        prop_assert!(refined.cut() <= before);
        prop_assert!(refined.is_balanced(&g));
        prop_assert_eq!(refined.cut(), refined.recompute_cut(&g));
        // Deterministic at a fixed thread count: a second run from the
        // same start produces the identical partition.
        let again = pfm.refine(&g, init, &mut rng);
        prop_assert_eq!(refined.sides(), again.sides());
    }

    #[test]
    fn bisectors_always_balanced(g in arb_graph(20), seed in 0u64..100) {
        let algos: Vec<Box<dyn Bisector>> = vec![
            Box::new(KernighanLin::new()),
            Box::new(FiducciaMattheyses::new()),
            Box::new(bisect_core::pipeline::Pipeline::ckl()),
        ];
        for algo in algos {
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            let p = algo.bisect(&g, &mut rng);
            prop_assert!(p.is_balanced(&g), "{} unbalanced", algo.name());
            prop_assert_eq!(p.cut(), p.recompute_cut(&g));
        }
    }
}
