//! Equivalence guarantees of the pipeline refactor: the composable
//! [`Pipeline`] descriptors replaced bespoke legacy implementations
//! bit for bit, and must keep reproducing them. Golden pins lock the
//! absolute values captured from the pre-refactor tree — cut, pass
//! count, and a fingerprint of the side vector — and property tests
//! keep the best-of-starts protocol bit-identical at every thread
//! count on random `Gbreg`/`Gnp` instances, so nothing can drift
//! silently.

use bisect_bench::profile::Profile;
use bisect_bench::runner::run_best_of_sides;
use bisect_bench::Suite;
use bisect_core::bisector::{Bisector, Refiner};
use bisect_core::fm::{BoundaryFm, FiducciaMattheyses};
use bisect_core::kl::KernighanLin;
use bisect_core::netlist::{recursive_placement_counted, NetlistPipeline, ParallelNetlistFm};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Side;
use bisect_core::pipeline::{CoarsenDepth, Pipeline, DEFAULT_COARSEST_SIZE};
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::workspace::Workspace;
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::netlist::{self, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::special;
use bisect_graph::hypergraph::Netlist;
use bisect_graph::{Graph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the side bits — the fingerprint used when the golden
/// values were captured from the pre-refactor tree.
fn sides_fingerprint(sides: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &s in sides {
        h ^= s as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Asserts the paper's best-of-starts protocol bit-identical between a
/// serial run and a parallel trial pool — same cut, same pass count,
/// same side vector.
fn assert_thread_invariant(
    pipeline: &(dyn Bisector + Sync),
    g: &Graph,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (sr, ss) = run_best_of_sides(pipeline, g, 2, seed, 1);
    for threads in [2usize, 4] {
        let (pr, ps) = run_best_of_sides(pipeline, g, 2, seed, threads);
        prop_assert_eq!(
            pr.cut,
            sr.cut,
            "cut differs at {} threads ({})",
            threads,
            pipeline.name()
        );
        prop_assert_eq!(
            pr.passes,
            sr.passes,
            "passes differ at {} threads ({})",
            threads,
            pipeline.name()
        );
        prop_assert_eq!(
            ps,
            ss.clone(),
            "side vector differs at {} threads ({})",
            threads,
            pipeline.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ckl_is_thread_invariant_on_gbreg(
        half in 10usize..=30,
        b in 1usize..=4,
        d in 3usize..=4,
        seed in 0u64..1000,
    ) {
        // Parity: each side's internal degree sum `half·d − b` must be
        // even, so give `b` the parity of `half·d`.
        let b = 2 * b + (half * d) % 2;
        let params = GbregParams::new(2 * half, b, d).expect("feasible parameters");
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gbreg::sample(&mut rng, &params).expect("construction succeeds");
        assert_thread_invariant(&Pipeline::ckl(), &g, seed)?;
    }

    #[test]
    fn csa_is_thread_invariant_on_gnp(
        half in 8usize..=16,
        degree in 2u32..=4,
        seed in 0u64..1000,
    ) {
        let params = GnpParams::with_average_degree(2 * half, degree as f64)
            .expect("feasible parameters");
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gnp::sample(&mut rng, &params);
        assert_thread_invariant(&Pipeline::csa(), &g, seed)?;
    }
}

// ---------------------------------------------------------------------
// Golden pins: absolute values captured by running the *pre-refactor*
// legacy implementations (the bespoke compaction/multilevel/recursive
// drivers, before the engine existed) on these exact workloads. The
// pipeline must keep reproducing them bit for bit.
// ---------------------------------------------------------------------

fn gbreg_graph(n: usize, b: usize, d: usize, seed: u64) -> Graph {
    let params = GbregParams::new(n, b, d).expect("feasible parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    gbreg::sample(&mut rng, &params).expect("construction succeeds")
}

#[test]
fn golden_ckl_on_gbreg500() {
    let g = gbreg_graph(500, 16, 3, 0xDAC_1989);
    let (r, sides) = run_best_of_sides(&Pipeline::ckl(), &g, 4, 77, 1);
    assert_eq!(r.cut, 16);
    assert_eq!(r.passes, 14);
    assert_eq!(sides_fingerprint(&sides), 0x3b7164fad75fde8f);
}

/// Re-pinned when SA began drawing swap pairs from the gain cache's
/// side member lists instead of rejection-sampling them from all of V:
/// the pair distribution (uniform over A×B) is unchanged, but the
/// random stream, and with it each seed's result, is not. The old pins
/// were CSA (8, 227) and SA (8, 110), both at 0x672fd7132ec05c99.
#[test]
fn golden_sa_family_on_gbreg120() {
    let g = gbreg_graph(120, 8, 3, 0xDAC_1990);
    let suite = Suite::for_profile(&Profile::smoke());
    let (r, sides) = run_best_of_sides(&suite.csa, &g, 4, 91, 1);
    assert_eq!((r.cut, r.passes), (8, 221), "CSA");
    assert_eq!(sides_fingerprint(&sides), 0xd5061cca87466b77, "CSA");
    let (r, sides) = run_best_of_sides(&suite.sa, &g, 4, 91, 1);
    assert_eq!((r.cut, r.passes), (8, 126), "SA");
    assert_eq!(sides_fingerprint(&sides), 0x07e20caeb598c1eb, "SA");
}

#[test]
fn golden_multilevel_on_grid10() {
    let g = special::grid(10, 10);
    let p = Pipeline::multilevel(KernighanLin::new()).bisect(&g, &mut StdRng::seed_from_u64(1));
    assert_eq!(
        (p.cut(), sides_fingerprint(p.sides())),
        (10, 0x4d9aae4ebce23667)
    );
    let ml8 = Pipeline::multilevel_to(KernighanLin::new(), 8).expect("8 >= 2");
    let p = ml8.bisect(&g, &mut StdRng::seed_from_u64(4));
    assert_eq!(
        (p.cut(), sides_fingerprint(p.sides())),
        (10, 0xdb6617adcd90ab31)
    );
    let p =
        Pipeline::multilevel(SimulatedAnnealing::quick()).bisect(&g, &mut StdRng::seed_from_u64(9));
    assert_eq!(
        (p.cut(), sides_fingerprint(p.sides())),
        (10, 0xdb6617adcd90ab31)
    );
}

// ---------------------------------------------------------------------
// Graph refiner pins: absolute values captured from the graph engine
// while it still chose between rebuilding the gain cache per level and
// projecting it, by refiner. They cover every graph refiner under both
// compaction and a deep V-cycle, including weighted-level rebalancing
// (the Gnp graph has isolated vertices, so its ladder is deep and its
// projections are lopsided). The "SA" rows were re-pinned when SA began
// drawing swap pairs from the gain cache's side member lists instead of
// rejection-sampling them from all of V: the pair distribution is
// unchanged, the random stream is not. Every other row is as captured.
// ---------------------------------------------------------------------

/// `(pipeline, refiner, graph, cut, work, side fingerprint)`.
type GraphPin = (&'static str, &'static str, &'static str, u64, u64, u64);

#[rustfmt::skip]
const GRAPH_PINS: &[GraphPin] = &[
    ("compacted", "KL", "path3", 1, 0, 0xd0aa6118672cf3f8),
    ("multilevel8", "KL", "path3", 1, 1, 0xd0a6fb18672a10cf),
    ("compacted", "FM", "path3", 1, 0, 0xd0aa6118672cf3f8),
    ("multilevel8", "FM", "path3", 1, 1, 0xd0aa6118672cf3f8),
    ("compacted", "SA", "path3", 1, 177, 0xd0aa6118672cf3f8),
    ("multilevel8", "SA", "path3", 1, 88, 0xea9ca31875dc4b97),
    ("compacted", "BFM", "path3", 1, 0, 0xd0aa6118672cf3f8),
    ("multilevel8", "BFM", "path3", 1, 1, 0xd0aa6118672cf3f8),
    ("compacted", "PFM", "path3", 1, 0, 0xd0aa6118672cf3f8),
    ("multilevel8", "PFM", "path3", 1, 1, 0xd0aa6118672cf3f8),
    ("compacted", "PFM-b", "path3", 1, 0, 0xd0aa6118672cf3f8),
    ("multilevel8", "PFM-b", "path3", 1, 1, 0xd0aa6118672cf3f8),
    ("compacted", "KL", "grid10", 10, 2, 0xdb6617adcd90ab31),
    ("multilevel8", "KL", "grid10", 10, 2, 0x364925056cda9c47),
    ("compacted", "FM", "grid10", 13, 4, 0xefca9a25f61c0a7),
    ("multilevel8", "FM", "grid10", 10, 3, 0xe94d4c206bde38a9),
    ("compacted", "SA", "grid10", 10, 55, 0x4d9aae4ebce23667),
    ("multilevel8", "SA", "grid10", 10, 133, 0x364925056cda9c47),
    ("compacted", "BFM", "grid10", 10, 3, 0xdb6617adcd90ab31),
    ("multilevel8", "BFM", "grid10", 10, 3, 0xe94d4c206bde38a9),
    ("compacted", "PFM", "grid10", 32, 2, 0xd21cfd39d7c1f3f9),
    ("multilevel8", "PFM", "grid10", 10, 2, 0xdb6617adcd90ab31),
    ("compacted", "PFM-b", "grid10", 28, 1, 0x83515c7b1d97f611),
    ("multilevel8", "PFM-b", "grid10", 10, 2, 0xdb6617adcd90ab31),
    ("compacted", "KL", "gbreg500", 16, 4, 0x9143faf21ac1b78f),
    ("multilevel8", "KL", "gbreg500", 16, 7, 0x9143faf21ac1b78f),
    ("compacted", "FM", "gbreg500", 20, 3, 0x17f21b33e5baed19),
    ("multilevel8", "FM", "gbreg500", 16, 7, 0xf9ce7252e6b94edf),
    ("compacted", "SA", "gbreg500", 24, 62, 0x639a23a81fd81a8b),
    ("multilevel8", "SA", "gbreg500", 26, 219, 0x452a60286ae7e385),
    ("compacted", "BFM", "gbreg500", 16, 4, 0x3a6c0d49f706f473),
    ("multilevel8", "BFM", "gbreg500", 16, 7, 0xf9ce7252e6b94edf),
    ("compacted", "PFM", "gbreg500", 120, 7, 0x5e3c263aac4d5b29),
    ("multilevel8", "PFM", "gbreg500", 22, 5, 0x4d0f63d1b8bb694f),
    ("compacted", "PFM-b", "gbreg500", 118, 7, 0x230c3f011137fdff),
    ("multilevel8", "PFM-b", "gbreg500", 22, 5, 0x4d0f63d1b8bb694f),
    ("compacted", "KL", "gnp600", 84, 2, 0x86c63778e859515d),
    ("multilevel8", "KL", "gnp600", 66, 20, 0x4f80fdb447ce1683),
    ("compacted", "FM", "gnp600", 69, 7, 0xd6b9862e1a1d9005),
    ("multilevel8", "FM", "gnp600", 61, 10, 0x67f9d7b0b5a125f7),
    ("compacted", "SA", "gnp600", 65, 134, 0xadef6a047be68023),
    ("multilevel8", "SA", "gnp600", 66, 1186, 0x5edd270399569a8b),
    ("compacted", "BFM", "gnp600", 65, 6, 0x54814fefc23be781),
    ("multilevel8", "BFM", "gnp600", 58, 12, 0xbd81c9de48fb1977),
    ("compacted", "PFM", "gnp600", 132, 5, 0x262dbf50d245679f),
    ("multilevel8", "PFM", "gnp600", 68, 5, 0x76ee81728833d20b),
    ("compacted", "PFM-b", "gnp600", 122, 5, 0x854daa1221473113),
    ("multilevel8", "PFM-b", "gnp600", 68, 5, 0x76ee81728833d20b),
];

/// Appends the compacted and 8-vertex multilevel rows of `refiner` on
/// `g`, each from a fresh workspace and an rng seeded by the graph size.
fn graph_pin_rows<R: Refiner + Clone + Send + Sync + 'static>(
    name: &'static str,
    refiner: R,
    graph: &'static str,
    g: &Graph,
    out: &mut Vec<GraphPin>,
) {
    let pipelines = [
        ("compacted", Pipeline::compacted(refiner.clone())),
        (
            "multilevel8",
            Pipeline::multilevel_to(refiner, 8).expect("8 >= 2"),
        ),
    ];
    for (pipeline, p) in pipelines {
        let mut rng = StdRng::seed_from_u64(g.num_vertices() as u64);
        let (b, work) = p.bisect_counted(g, &mut rng, &mut Workspace::new());
        assert!(b.is_balanced(g), "{pipeline} {name} on {graph}");
        assert_eq!(b.cut(), b.recompute_cut(g), "{pipeline} {name} on {graph}");
        out.push((
            pipeline,
            name,
            graph,
            b.cut(),
            work,
            sides_fingerprint(b.sides()),
        ));
    }
}

#[test]
fn golden_graph_refiners_under_compaction_and_multilevel() {
    let gnp_params = GnpParams::with_average_degree(600, 2.5).expect("feasible parameters");
    let graphs = [
        ("path3", special::path(3)),
        ("grid10", special::grid(10, 10)),
        ("gbreg500", gbreg_graph(500, 16, 3, 0x9_1989)),
        (
            "gnp600",
            gnp::sample(&mut LaggedFibonacci::seed_from_u64(0x600), &gnp_params),
        ),
    ];
    let mut actual: Vec<GraphPin> = Vec::new();
    for (graph, g) in &graphs {
        graph_pin_rows("KL", KernighanLin::new(), graph, g, &mut actual);
        graph_pin_rows("FM", FiducciaMattheyses::new(), graph, g, &mut actual);
        graph_pin_rows("SA", SimulatedAnnealing::quick(), graph, g, &mut actual);
        graph_pin_rows("BFM", BoundaryFm::new(), graph, g, &mut actual);
        let pfm = ParallelFm::new().with_threads(2);
        graph_pin_rows("PFM", pfm, graph, g, &mut actual);
        graph_pin_rows("PFM-b", pfm.with_boundary_seeds(), graph, g, &mut actual);
    }
    let table: String = actual
        .iter()
        .map(|(p, r, g, cut, w, fp)| format!("    ({p:?}, {r:?}, {g:?}, {cut}, {w}, {fp:#x}),\n"))
        .collect();
    assert_eq!(actual, GRAPH_PINS, "actual pins:\n{table}");
}

#[test]
fn golden_recursive_partition_on_grid8() {
    let g = special::grid(8, 8);
    let part = Pipeline::kl()
        .partition_into(&g, 4, &mut StdRng::seed_from_u64(3))
        .expect("4 is a power of two");
    assert_eq!(part.cut(&g), 16);
    assert_eq!(part.part_sizes(), vec![16, 16, 16, 16]);
    let mut h: u64 = 0xcbf29ce484222325;
    for &l in part.labels() {
        h ^= l as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    assert_eq!(h, 0x189326d85ea1b885);
}

// ---------------------------------------------------------------------
// Netlist golden pins: absolute values captured from the netlist engine
// while it still carried its non-projected refinement branch and its
// cells-sized fixed-side ladder. The single-protocol engine must keep
// reproducing them bit for bit. The "parallel" rows were re-pinned when
// the `ParallelNetlistFm` resolve began pairing balance-blocked moves;
// `netlist::par_fm`'s unit tests hold its single-sweep oracle to the
// rows it replaced.
// ---------------------------------------------------------------------

/// A seeded Rent netlist: 3/2 nets per cell, nets of 2-4 pins, γ 1.8,
/// pins drawn from a 10% window.
fn rent_netlist(cells: usize, seed: u64) -> Netlist {
    let nets = (3 * cells).div_ceil(2);
    let params =
        RentNetlistParams::new(cells, nets, 4.min(cells), 1.8, 0.1).expect("feasible parameters");
    netlist::sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params)
}

/// `(pipeline, cells, fixed cells, cut, work, side fingerprint)`.
type NetlistPin = (&'static str, usize, usize, u64, u64, u64);

#[rustfmt::skip]
const NETLIST_PINS: &[NetlistPin] = &[
    ("flat", 2, 0, 3, 0, 0x82f2407b4e8902a),
    ("compacted", 2, 0, 3, 0, 0x8395307b4f1348c),
    ("multilevel", 2, 0, 3, 0, 0x82f2407b4e8902a),
    ("parallel", 2, 0, 3, 0, 0x82f2407b4e8902a),
    ("flat", 2, 2, 3, 0, 0x82f2407b4e8902a),
    ("compacted", 2, 2, 3, 0, 0x82f2407b4e8902a),
    ("multilevel", 2, 2, 3, 0, 0x82f2407b4e8902a),
    ("parallel", 2, 2, 3, 0, 0x82f2407b4e8902a),
    ("flat", 3, 0, 3, 0, 0xd0aa6418672cf911),
    ("compacted", 3, 0, 3, 0, 0xea9ca41875dc4d4a),
    ("multilevel", 3, 0, 3, 0, 0xd0aa6418672cf911),
    ("parallel", 3, 0, 3, 0, 0xd0aa6418672cf911),
    ("flat", 3, 2, 4, 0, 0xd0a6fb18672a10cf),
    ("compacted", 3, 2, 4, 0, 0xd0a6fb18672a10cf),
    ("multilevel", 3, 2, 4, 0, 0xd0a6fb18672a10cf),
    ("parallel", 3, 2, 4, 0, 0xd0a6fb18672a10cf),
    ("flat", 600, 0, 50, 5, 0x1b5db8e97956196b),
    ("compacted", 600, 0, 21, 4, 0x4d7755ab277daa23),
    ("multilevel", 600, 0, 22, 3, 0x759329a489edfedb),
    ("parallel", 600, 0, 75, 5, 0x8d4961d7a629f5bf),
    ("flat", 600, 2, 20, 6, 0x67e8250df2c569d),
    ("compacted", 600, 2, 22, 4, 0x7c26487b86c5923),
    ("multilevel", 600, 2, 21, 7, 0xda0ff9512b38754b),
    ("parallel", 600, 2, 24, 6, 0x35e8780274b87b5d),
    ("flat", 5000, 0, 656, 4, 0x544760b15f9e7a6d),
    ("compacted", 5000, 0, 227, 11, 0x33a00e5ec7e6cf91),
    ("multilevel", 5000, 0, 220, 11, 0xdc84c8d2d45c1815),
    ("parallel", 5000, 0, 236, 12, 0x3805437235c12545),
    ("flat", 5000, 2, 405, 6, 0xbb41ae076022067),
    ("compacted", 5000, 2, 222, 7, 0x222a62ff9ec92a9b),
    ("multilevel", 5000, 2, 232, 12, 0x79127687321f3507),
    ("parallel", 5000, 2, 246, 12, 0xecb6fcef5b203557),
];

#[test]
fn golden_netlist_pipelines_on_rent_netlists() {
    let pipelines = [
        ("flat", NetlistPipeline::flat_fm()),
        ("compacted", NetlistPipeline::compacted_fm()),
        ("multilevel", NetlistPipeline::multilevel_fm()),
        (
            "parallel",
            NetlistPipeline::new(
                CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE),
                ParallelNetlistFm::new().with_threads(2),
                "PNetMLFM",
            )
            .expect("default coarsest size is valid"),
        ),
    ];
    let mut actual: Vec<NetlistPin> = Vec::new();
    for cells in [2usize, 3, 600, 5_000] {
        let nl = rent_netlist(cells, 0x4E7 + cells as u64);
        let last = (cells - 1) as VertexId;
        for fixed in [&[][..], &[(0, Side::A), (last, Side::B)][..]] {
            for (name, p) in &pipelines {
                let mut rng = StdRng::seed_from_u64(cells as u64);
                let (b, work) = p.bisect_fixed_counted(&nl, fixed, &mut rng, &mut Workspace::new());
                assert!(b.is_balanced(&nl), "{} on {cells} cells", p.name());
                assert_eq!(b.cut(), b.recompute_cut(&nl), "{}", p.name());
                for &(c, s) in fixed {
                    assert_eq!(b.side(c), s, "{} moved fixed cell {c}", p.name());
                }
                actual.push((
                    *name,
                    cells,
                    fixed.len(),
                    b.cut(),
                    work,
                    sides_fingerprint(b.sides()),
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, c, f, cut, w, fp)| format!("    ({n:?}, {c}, {f}, {cut}, {w}, {fp:#x}),\n"))
        .collect();
    assert_eq!(actual, NETLIST_PINS, "actual pins:\n{table}");
}

#[test]
fn golden_recursive_placement_on_rent5000() {
    let nl = rent_netlist(5_000, 0x91AC);
    let (placement, work) = recursive_placement_counted(
        &NetlistPipeline::multilevel_fm(),
        &nl,
        16,
        &mut StdRng::seed_from_u64(16),
        &mut Workspace::new(),
    )
    .expect("16 is a power of two");
    let mut h: u64 = 0xcbf29ce484222325;
    for &l in placement.labels() {
        h ^= l as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    assert_eq!(
        (placement.net_cut(&nl), work, h),
        (2851, 171, 0xa0a35577f1ea274b)
    );
}

#[test]
fn golden_ckl_on_edgeless_graph() {
    // The empty-matching fallback path (§V: compaction on an edgeless
    // graph degenerates to the bare refiner).
    let g = Graph::empty(8);
    let p = Pipeline::ckl().bisect(&g, &mut StdRng::seed_from_u64(3));
    assert_eq!(p.cut(), 0);
    assert_eq!(sides_fingerprint(p.sides()), 0xbf7bb3530de7b57);
}
