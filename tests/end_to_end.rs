//! Cross-crate integration tests: every generator feeding every
//! algorithm, with invariants checked end to end.

use bisect_core::bisector::{best_of, Bisector, RandomBisector};
use bisect_core::exact::minimum_bisection;
use bisect_core::fm::{BoundaryFm, FiducciaMattheyses};
use bisect_core::greedy::GreedyGrowth;
use bisect_core::kl::KernighanLin;
use bisect_core::par_fm::ParallelFm;
use bisect_core::pipeline::Pipeline;
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::spectral::SpectralBisector;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{g2set, gbreg, gnp, special};
use bisect_graph::{contraction, matching, Graph, GraphBuilder};
use rand::{Rng, SeedableRng};

fn all_algorithms() -> Vec<Box<dyn Bisector>> {
    vec![
        Box::new(RandomBisector::new()),
        Box::new(GreedyGrowth::new()),
        Box::new(KernighanLin::new()),
        Box::new(FiducciaMattheyses::new()),
        Box::new(BoundaryFm::new()),
        Box::new(ParallelFm::new()),
        Box::new(SimulatedAnnealing::quick()),
        Box::new(Pipeline::ckl()),
        Box::new(Pipeline::compacted(SimulatedAnnealing::quick())),
        Box::new(Pipeline::compacted(FiducciaMattheyses::new())),
        Box::new(Pipeline::multilevel(KernighanLin::new())),
        Box::new(Pipeline::multilevel(FiducciaMattheyses::new())),
        Box::new(SpectralBisector::new()),
    ]
}

fn workloads() -> Vec<(String, Graph)> {
    let mut rng = LaggedFibonacci::seed_from_u64(2024);
    let mut graphs: Vec<(String, Graph)> = vec![
        ("grid 7x8".into(), special::grid(7, 8)),
        ("ladder 20".into(), special::ladder(20)),
        ("binary tree 63".into(), special::binary_tree(63)),
        ("cycle 30".into(), special::cycle(30)),
        ("two cycles".into(), special::cycle_collection(2, 9)),
        ("hypercube 5".into(), special::hypercube(5)),
        ("star 17".into(), special::star(17)),
        ("empty".into(), Graph::empty(12)),
    ];
    graphs.push((
        "gnp 80 deg 3".into(),
        gnp::sample(
            &mut rng,
            &gnp::GnpParams::with_average_degree(80, 3.0).unwrap(),
        ),
    ));
    graphs.push((
        "g2set 80".into(),
        g2set::sample(
            &mut rng,
            &g2set::G2setParams::with_average_degree(80, 3.0, 6).unwrap(),
        ),
    ));
    graphs.push((
        "gbreg 80 d3".into(),
        gbreg::sample(&mut rng, &gbreg::GbregParams::new(80, 4, 3).unwrap()).unwrap(),
    ));
    // Weighted vertices, as on a compacted level (§V): balance is by
    // weight, which swaps of equal counts do not keep.
    let weighted = weighted_gnp(120, 4.0, &mut rng);
    let m = matching::random_maximal(&weighted, &mut rng);
    let contracted = contraction::contract_matching(&weighted, &m)
        .coarse()
        .clone();
    graphs.push(("weighted gnp 120 deg 4".into(), weighted));
    graphs.push(("weighted gnp 120, contracted".into(), contracted));
    graphs
}

/// A `Gnp` sample at average degree `degree` with vertex and edge
/// weights drawn from `1..=3`.
fn weighted_gnp(n: usize, degree: f64, rng: &mut LaggedFibonacci) -> Graph {
    let base = gnp::sample(
        rng,
        &gnp::GnpParams::with_average_degree(n, degree).unwrap(),
    );
    let mut b = GraphBuilder::new(n);
    for v in base.vertices() {
        b.set_vertex_weight(v, rng.gen_range(1..=3u64)).unwrap();
    }
    for (u, v, _) in base.edges() {
        b.add_weighted_edge(u, v, rng.gen_range(1..=3u64)).unwrap();
    }
    b.build()
}

#[test]
fn every_algorithm_on_every_workload_is_valid() {
    for (wname, g) in workloads() {
        for algo in all_algorithms() {
            let mut rng = LaggedFibonacci::seed_from_u64(77);
            let p = algo.bisect(&g, &mut rng);
            assert!(
                p.is_balanced(&g),
                "{} on {wname}: unbalanced (weights {} vs {})",
                algo.name(),
                p.weight(bisect_core::partition::Side::A),
                p.weight(bisect_core::partition::Side::B),
            );
            assert_eq!(
                p.cut(),
                p.recompute_cut(&g),
                "{} on {wname}: inconsistent incremental cut",
                algo.name()
            );
        }
    }
}

#[test]
fn heuristics_never_beat_exact_optimum() {
    let graphs = vec![
        special::grid(4, 5),
        special::ladder(9),
        special::binary_tree(18),
        special::cycle(14),
        special::wheel(12),
    ];
    for g in graphs {
        let optimal = minimum_bisection(&g).unwrap().cut();
        for algo in all_algorithms() {
            let mut rng = LaggedFibonacci::seed_from_u64(5);
            let p = best_of(algo.as_ref(), &g, 3, &mut rng);
            assert!(
                p.cut() >= optimal,
                "{} found {} below optimum {} on {} vertices",
                algo.name(),
                p.cut(),
                optimal,
                g.num_vertices()
            );
        }
    }
}

#[test]
fn local_search_reaches_optimum_on_easy_instances() {
    // KL, FM, CKL should all hit the exact optimum of small structured
    // graphs within a few starts.
    let instances = vec![special::cycle(16), special::grid(4, 4), special::ladder(8)];
    for g in instances {
        let optimal = minimum_bisection(&g).unwrap().cut();
        for algo in [
            Box::new(KernighanLin::new()) as Box<dyn Bisector>,
            Box::new(FiducciaMattheyses::new()),
            Box::new(Pipeline::ckl()),
        ] {
            let mut rng = LaggedFibonacci::seed_from_u64(9);
            let p = best_of(algo.as_ref(), &g, 8, &mut rng);
            assert_eq!(
                p.cut(),
                optimal,
                "{} stuck at {} (optimum {}) on {} vertices",
                algo.name(),
                p.cut(),
                optimal,
                g.num_vertices()
            );
        }
    }
}

#[test]
fn metis_file_roundtrip_preserves_bisection_results() {
    let mut rng = LaggedFibonacci::seed_from_u64(3);
    let params = gbreg::GbregParams::new(60, 4, 3).unwrap();
    let g = gbreg::sample(&mut rng, &params).unwrap();
    let mut buffer = Vec::new();
    bisect_graph::io::write_metis(&g, &mut buffer).unwrap();
    let h = bisect_graph::io::read_metis(buffer.as_slice()).unwrap();
    assert_eq!(g, h);
    // Same seed, same graph → same KL result.
    let a = KernighanLin::new().bisect(&g, &mut LaggedFibonacci::seed_from_u64(4));
    let b = KernighanLin::new().bisect(&h, &mut LaggedFibonacci::seed_from_u64(4));
    assert_eq!(a.cut(), b.cut());
    assert_eq!(a.sides(), b.sides());
}

#[test]
fn facade_crate_reexports_work() {
    // The root `graph-bisect` crate re-exports the three libraries.
    let g = graph_bisect::gen::special::cycle(10);
    let mut rng = <graph_bisect::gen::rng::LaggedFibonacci as rand::SeedableRng>::seed_from_u64(0);
    let p = graph_bisect::core::seed::random_balanced(&g, &mut rng);
    assert_eq!(graph_bisect::graph::stats::DegreeStats::of(&g).max, 2);
    assert!(p.is_balanced(&g));
}

#[test]
fn recursive_placement_pipeline() {
    // The full min-cut placement workflow: geometric netlist →
    // recursive KL → labeled regions.
    use bisect_gen::geometric::{self, GeometricParams};
    let mut rng = LaggedFibonacci::seed_from_u64(12);
    let params = GeometricParams::with_average_degree(400, 6.0).unwrap();
    let g = geometric::sample(&mut rng, &params);
    let placement = Pipeline::kl().partition_into(&g, 8, &mut rng).unwrap();
    let sizes = placement.part_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 400);
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 2);
    // Recursive bisection's 8-way cut can't beat 1x the single
    // bisection cut and shouldn't exceed the full edge count.
    assert!(placement.cut(&g) <= g.num_edges() as u64);
}

#[test]
fn degree2_solver_is_lower_bound_for_heuristics() {
    use bisect_core::degree2::bisect_degree2;
    let mut rng = LaggedFibonacci::seed_from_u64(13);
    let params = gbreg::GbregParams::new(100, 4, 2).unwrap();
    let g = gbreg::sample(&mut rng, &params).unwrap();
    let optimal = bisect_degree2(&g).unwrap();
    for algo in all_algorithms() {
        let mut rng = LaggedFibonacci::seed_from_u64(14);
        let p = best_of(algo.as_ref(), &g, 2, &mut rng);
        assert!(
            p.cut() >= optimal.cut(),
            "{} found {} below the degree-2 optimum {}",
            algo.name(),
            p.cut(),
            optimal.cut()
        );
    }
}

#[test]
fn hgr_file_to_netlist_bisection_pipeline() {
    use bisect_core::netlist::{NetlistBisection, NetlistPipeline};
    // A netlist in hMETIS format: two 3-cell clusters and a bridge net.
    let hgr = "5 6\n1 2 3\n1 2\n4 5 6\n5 6\n3 4\n";
    let nl = bisect_graph::io::read_hgr(hgr.as_bytes()).unwrap();
    assert_eq!(nl.num_cells(), 6);
    let mut rng = LaggedFibonacci::seed_from_u64(2);
    let p = NetlistPipeline::compacted_fm().bisect(&nl, &mut rng);
    assert_eq!(p.cut(), 1);
    // Round-trip and bisect again: identical netlist, identical result.
    let mut buf = Vec::new();
    bisect_graph::io::write_hgr(&nl, &mut buf).unwrap();
    let nl2 = bisect_graph::io::read_hgr(buf.as_slice()).unwrap();
    assert_eq!(nl, nl2);
    let q = NetlistBisection::from_sides(&nl2, p.sides().to_vec()).unwrap();
    assert_eq!(q.cut(), 1);
}

#[test]
fn io_readers_never_panic_on_garbage() {
    // Malformed inputs must produce errors, not panics.
    let inputs = [
        "",
        "\n\n\n",
        "x y z",
        "3 2\n-1\n1\n1\n",
        "3 2 11\n",
        "1 0\n\u{0}\u{ff}\n",
        "9999999999999999999999 1\n",
        "2 1 1\n2\n1\n",
        "# only a comment\n0 0 0 0 0\n",
        "0 18446744073709551616\n",
    ];
    for input in inputs {
        let _ = bisect_graph::io::read_metis(input.as_bytes());
        let _ = bisect_graph::io::read_edge_list(input.as_bytes(), None);
        let _ = bisect_graph::io::read_edge_list(input.as_bytes(), Some(4));
        let _ = bisect_graph::io::read_hgr(input.as_bytes());
    }
}

#[test]
fn planted_bisection_is_respected_by_gbreg() {
    // The planted partition's cut equals b, and heuristics can only do
    // as well or better (b is an upper bound on the width).
    let mut rng = LaggedFibonacci::seed_from_u64(6);
    let params = gbreg::GbregParams::new(120, 6, 4).unwrap();
    let g = gbreg::sample(&mut rng, &params).unwrap();
    let planted = bisect_core::partition::Bisection::planted(&g);
    assert_eq!(planted.cut(), 6);
    let p = best_of(&Pipeline::ckl(), &g, 4, &mut rng);
    assert!(
        p.cut() <= 6 * 3,
        "CKL cut {} far above planted width",
        p.cut()
    );
}
