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
use bisect_core::gain_cache::GainCache;
use bisect_core::kl::KernighanLin;
use bisect_core::netlist::{
    rebalance_fixed, recursive_placement_counted, NetlistBisection, NetlistFm, NetlistGainCache,
    NetlistPipeline, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::{rebalance, rebalance_with_cache, Bisection, Side};
use bisect_core::pipeline::{CoarsenDepth, ParallelMatching, Pipeline, DEFAULT_COARSEST_SIZE};
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::netlist::{self, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::special;
use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
use bisect_graph::{Graph, GraphBuilder, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

// ---------------------------------------------------------------------
// Start-rule pins: absolute values captured from the two engines while
// graphs and netlists still ran separate V-cycle loops. They pin which
// random start each depth draws (count- or weight-balanced, with or
// without fixed cells) and the coarsest/level refiner split.
// ---------------------------------------------------------------------

/// `(cut, work, side fingerprint)` of one pinned run.
type StartPin = (u64, u64, u64);

/// Asserts that compaction of an edgeless graph — where the matcher
/// makes no progress — returns exactly what `refiner` returns from its
/// own random start at the same seed, once the rng has paid for the
/// empty matching.
fn assert_edgeless_compaction_is_the_bare_refiner<R: Refiner + Clone + Send + Sync + 'static>(
    refiner: R,
) {
    let g = Graph::empty(10);
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert!(bisect_graph::matching::random_maximal(&g, &mut rng).is_empty());
        let direct = refiner.bisect_counted(&g, &mut rng, &mut Workspace::new());
        let compacted = Pipeline::compacted(refiner.clone()).bisect_counted(
            &g,
            &mut StdRng::seed_from_u64(seed),
            &mut Workspace::new(),
        );
        assert_eq!(compacted, direct, "{} seed {seed}", refiner.name());
    }
}

#[test]
fn edgeless_compaction_equals_the_bare_refiner() {
    assert_edgeless_compaction_is_the_bare_refiner(KernighanLin::new());
    assert_edgeless_compaction_is_the_bare_refiner(SimulatedAnnealing::quick());
    assert_edgeless_compaction_is_the_bare_refiner(FiducciaMattheyses::new());
    assert_edgeless_compaction_is_the_bare_refiner(BoundaryFm::new());
}

/// Runs `p` on `nl` with `fixed` from a fresh workspace and checks the
/// result before pinning it.
fn netlist_start_pin(
    p: &NetlistPipeline,
    nl: &Netlist,
    fixed: &[(VertexId, Side)],
    seed: u64,
) -> StartPin {
    let mut rng = StdRng::seed_from_u64(seed);
    let (b, work) = p.bisect_fixed_counted(nl, fixed, &mut rng, &mut Workspace::new());
    assert!(b.is_balanced(nl), "{}", p.name());
    assert_eq!(b.cut(), b.recompute_cut(nl), "{}", p.name());
    for &(c, s) in fixed {
        assert_eq!(b.side(c), s, "{} moved fixed cell {c}", p.name());
    }
    (b.cut(), work, sides_fingerprint(b.sides()))
}

#[test]
fn golden_flat_netlist_start_with_and_without_fixed_cells() {
    let nl = rent_netlist(300, 0x5747);
    let fixed = [(0, Side::A), (299, Side::B)];
    let p = NetlistPipeline::flat_fm();
    let actual = [
        netlist_start_pin(&p, &nl, &[], 7),
        netlist_start_pin(&p, &nl, &fixed, 7),
    ];
    assert_eq!(
        actual,
        [(38, 4, 0x24ba83190276b587), (15, 5, 0xac1ecb05fc8cb311)],
        "{actual:?}"
    );
}

#[test]
fn golden_compacted_start_on_a_netless_netlist() {
    // No nets: the matcher pairs nothing. Without fixed cells the run
    // takes the §V fallback to the plain heuristic; with them it keeps
    // the fixed-aware weight-balanced start.
    let nl = bisect_graph::hypergraph::NetlistBuilder::new(8).build();
    let fixed = [(1, Side::B), (6, Side::A)];
    let p = NetlistPipeline::compacted_fm();
    let actual = [
        netlist_start_pin(&p, &nl, &[], 3),
        netlist_start_pin(&p, &nl, &fixed, 3),
    ];
    assert_eq!(
        actual,
        [(0, 0, 0xbf7bb3530de7b57), (0, 0, 0x7bc204bd5d0057ad)],
        "{actual:?}"
    );
}

#[test]
fn golden_parallel_matching_netlist_ladder_with_fixed_cells() {
    let nl = rent_netlist(600, 0x6006);
    let fixed = [(0, Side::A), (300, Side::B), (599, Side::B)];
    let p = NetlistPipeline::multilevel_fm_to(6)
        .expect("6 >= 2")
        .with_coarsener(ParallelCellMatching::new().with_threads(2))
        .with_coarsest(NetlistFm::new());
    let actual = netlist_start_pin(&p, &nl, &fixed, 11);
    assert_eq!(actual, (25, 3, 0xdd0f1e06953de11d), "{actual:?}");
}

#[test]
fn golden_parallel_graph_ladder_with_a_coarsest_refiner() {
    let g = gbreg_graph(400, 12, 3, 0x400);
    let p = Pipeline::multilevel_to(ParallelFm::new().with_threads(2), 8)
        .expect("8 >= 2")
        .with_coarsener(ParallelMatching::new().with_threads(2))
        .with_coarsest(BoundaryFm::new());
    let (b, work) = p.bisect_counted(&g, &mut StdRng::seed_from_u64(13), &mut Workspace::new());
    assert!(b.is_balanced(&g));
    assert_eq!(b.cut(), b.recompute_cut(&g));
    let actual = (b.cut(), work, sides_fingerprint(b.sides()));
    assert_eq!(actual, (12, 4, 0x5ad233c3cec3290d), "{actual:?}");
}

// ---------------------------------------------------------------------
// Balance pins: absolute values captured while graphs and netlists
// still carried separate tolerance rules, start draws and rebalances.
// A rebalance pin is `(cut, moves, side fingerprint)`, with `moves` the
// number of cells whose side changed; a draw pin carries the weight
// imbalance in the middle slot instead.
// ---------------------------------------------------------------------

/// `(cut, moves or imbalance, side fingerprint)`.
type BalancePin = (u64, u64, u64);

/// A `Gnp(n, 6/n)` sample with vertex weights drawn from
/// `1..=max_weight` and edge weights from `1..=3`.
fn weighted_gnp(n: usize, max_weight: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = GnpParams::new(n, 6.0 / n as f64).expect("feasible parameters");
    let base = gnp::sample(&mut rng, &params);
    let mut b = GraphBuilder::new(n);
    for v in base.vertices() {
        b.set_vertex_weight(v, rng.gen_range(1..=max_weight))
            .expect("vertex in range");
    }
    for (u, v, _) in base.edges() {
        b.add_weighted_edge(u, v, rng.gen_range(1..=3u64))
            .expect("edge in range");
    }
    b.build()
}

/// [`rent_netlist`] with cell weights drawn from `1..=max_weight`.
fn weighted_rent(cells: usize, max_weight: u64, seed: u64) -> Netlist {
    let base = rent_netlist(cells, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(cells);
    for c in base.cells() {
        b.set_cell_weight(c, rng.gen_range(1..=max_weight))
            .expect("cell in range");
    }
    for n in base.net_ids() {
        b.add_weighted_net(base.pins(n), base.net_weight(n))
            .expect("pins in range");
    }
    b.build()
}

/// A start far out of balance: each cell lands on side B with
/// probability `lean`.
fn lopsided(cells: usize, lean: f64, rng: &mut StdRng) -> Vec<bool> {
    (0..cells).map(|_| rng.gen_bool(lean)).collect()
}

/// The number of cells whose side differs between `a` and `b`.
fn moved(a: &[bool], b: &[bool]) -> u64 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
}

/// Whether side A is the heavier side of `weights`, or `None` when the
/// sides weigh the same.
fn heavy_a(weights: [u64; 2]) -> Option<bool> {
    (weights[0] != weights[1]).then_some(weights[0] > weights[1])
}

/// Vertex weights 4, 1, 1 with one edge between the light vertices,
/// all on side A: the best candidate, the edgeless heavy vertex,
/// overshoots to 2 | 4.
fn flip_graph() -> Graph {
    let mut b = GraphBuilder::new(3);
    b.set_vertex_weight(0, 4).expect("vertex in range");
    b.add_edge(1, 2).expect("edge in range");
    b.build()
}

/// Rebalances `start` with and without a gain cache, checks that both
/// agree, reach balance and keep the cache exact, and returns the
/// result with its pin.
fn graph_rebalance(g: &Graph, start: &Bisection) -> (Bisection, BalancePin) {
    let mut plain = start.clone();
    rebalance(g, &mut plain);
    let mut cached = start.clone();
    let mut cache = GainCache::default();
    cache.init(g, &cached);
    rebalance_with_cache(g, &mut cached, &mut cache);
    assert_eq!(plain, cached);
    assert!(plain.is_balanced(g));
    assert_eq!(plain.cut(), plain.recompute_cut(g));
    for v in g.vertices() {
        assert_eq!(cache.gain(v), cached.gain(g, v));
    }
    let pin = (
        plain.cut(),
        moved(start.sides(), plain.sides()),
        sides_fingerprint(plain.sides()),
    );
    (plain, pin)
}

#[test]
fn golden_graph_rebalances_from_lopsided_starts() {
    let mut actual: Vec<BalancePin> = Vec::new();
    let mut flips = 0;
    let side_weights = |p: &Bisection| [p.weight(Side::A), p.weight(Side::B)];
    let cases = [
        (200, 1, 0),
        (201, 1, 1),
        (300, 3, 0),
        (150, 40, 3),
        (40, 100, 0),
    ];
    for &(n, max_weight, seed) in &cases {
        let g = weighted_gnp(n, max_weight, 0xBA1 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for lean in [0.7, 0.1] {
            let start = Bisection::from_sides(&g, lopsided(n, lean, &mut rng)).unwrap();
            assert!(!start.is_balanced(&g), "n = {n}");
            let (end, pin) = graph_rebalance(&g, &start);
            if heavy_a(side_weights(&end)).is_some_and(|a| Some(a) != heavy_a(side_weights(&start)))
            {
                flips += 1;
            }
            actual.push(pin);
        }
    }
    let g = flip_graph();
    let (end, pin) = graph_rebalance(&g, &Bisection::from_sides(&g, vec![false; 3]).unwrap());
    assert_eq!(side_weights(&end), [2, 4]);
    actual.push(pin);
    assert!(flips > 0, "some random start must flip the heavy side");
    assert_eq!(
        actual,
        [
            (343, 43, 0xf2dec7c457f08633),
            (282, 78, 0xd1d6d0e81fec9b17),
            (435, 47, 0x5defcd422d30a833),
            (349, 79, 0x2b85713ccbb9b64c),
            (545, 69, 0xc7c253ae8daa8e77),
            (419, 124, 0x11df0d972e3cc25a),
            (233, 26, 0x73496858096cbaad),
            (185, 63, 0x6bcb82208413e345),
            (69, 12, 0x84a4dc6a6f3ef08f),
            (67, 14, 0xf41f42f7aaea1228),
            (0, 1, 0xea9ca31875dc4b97),
        ],
        "{actual:#x?}"
    );
}

#[test]
fn golden_netlist_rebalances_from_lopsided_starts() {
    let mut actual: Vec<BalancePin> = Vec::new();
    let mut flips = 0;
    let cases = [
        (200, 1, 0),
        (301, 1, 1),
        (400, 9, 3),
        (60, 40, 1),
        (100, 20, 0),
    ];
    for (i, &(cells, max_weight, seed)) in cases.iter().enumerate() {
        let nl = weighted_rent(cells, max_weight, 0xBA1 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for lean in [0.7, 0.1] {
            let start = NetlistBisection::from_sides(&nl, lopsided(cells, lean, &mut rng)).unwrap();
            assert!(!start.is_balanced(&nl), "case {i}");
            let fixed: Vec<bool> = (0..cells).map(|_| rng.gen_bool(0.1)).collect();
            for fixed in [&[][..], &fixed[..]] {
                let mut plain = start.clone();
                rebalance_fixed(&nl, &mut plain, fixed);
                let mut cached = start.clone();
                let mut cache = NetlistGainCache::default();
                cache.init(&nl, &cached);
                bisect_core::netlist::rebalance_with_cache(&nl, &mut cached, fixed, &mut cache);
                assert_eq!(plain, cached, "case {i}");
                assert_eq!(plain.cut(), plain.recompute_cut(&nl), "case {i}");
                for c in nl.cells() {
                    assert_eq!(cache.gain(c), cached.gain(&nl, c), "case {i}");
                    if fixed.get(c as usize) == Some(&true) {
                        assert_eq!(plain.side(c), start.side(c), "case {i} moved {c}");
                    }
                }
                let side_weights = |p: &NetlistBisection| [p.weight(Side::A), p.weight(Side::B)];
                if heavy_a(side_weights(&plain))
                    .is_some_and(|a| Some(a) != heavy_a(side_weights(&start)))
                {
                    flips += 1;
                }
                actual.push((
                    plain.cut(),
                    moved(start.sides(), plain.sides()),
                    sides_fingerprint(plain.sides()),
                ));
            }
        }
    }
    assert!(flips > 0, "some random start must flip the heavy side");
    assert_eq!(
        actual,
        [
            (99, 43, 0x322cba2541c57a25),
            (108, 43, 0x4a57dac45c6650e3),
            (34, 87, 0x8825798a66166331),
            (68, 87, 0x6a71742f019304c9),
            (145, 66, 0x52918f52951fd6e9),
            (158, 66, 0x5ff09670d3c3e837),
            (83, 121, 0x669167552054fc06),
            (131, 121, 0x7e7ca0972d3e0508),
            (254, 69, 0x83a656506ac0f377),
            (265, 66, 0x899dc68f9943a828),
            (75, 164, 0x79cfa59b8e6ccd98),
            (142, 170, 0xaa223e71f0022d5a),
            (26, 16, 0x521c9b5520c28749),
            (29, 15, 0x120592c44249cabe),
            (15, 26, 0xbd0213a394e6734e),
            (16, 25, 0x68f3ffc6ab631561),
            (28, 35, 0x965929665b419802),
            (35, 34, 0x4e509b846bcfd477),
            (27, 43, 0xd1fbcf79809d6d52),
            (34, 43, 0x1c1403d3696a1fc0),
        ],
        "{actual:#x?}"
    );
}

#[test]
fn golden_start_draws() {
    let g = weighted_gnp(101, 5, 0xD4A);
    let nl = weighted_rent(301, 5, 0xD4A);
    let mut actual: Vec<BalancePin> = Vec::new();
    for seed in 1..=3u64 {
        let rng = || StdRng::seed_from_u64(seed);
        for p in [
            seed::random_balanced(&g, &mut rng()),
            seed::weight_balanced_random(&g, &mut rng()),
        ] {
            assert_eq!(p.cut(), p.recompute_cut(&g));
            actual.push((p.cut(), p.weight_imbalance(), sides_fingerprint(p.sides())));
        }
        for p in [
            NetlistBisection::random_balanced(&nl, &mut rng()),
            bisect_core::netlist::weight_balanced_random(&nl, &mut rng()),
        ] {
            assert_eq!(p.cut(), p.recompute_cut(&nl));
            actual.push((p.cut(), p.weight_imbalance(), sides_fingerprint(p.sides())));
        }
    }
    assert_eq!(
        actual,
        [
            (346, 4, 0x3036da8b01f6830a),
            (331, 0, 0xde3e460978594ead),
            (290, 21, 0xd808b53ea0483436),
            (280, 3, 0x784530ac02739d16),
            (288, 10, 0x1ea1cf9f4ac67bec),
            (324, 2, 0xa98a20d525fe6f32),
            (306, 15, 0xe63bfd978e86a776),
            (287, 1, 0xb17c5f0388c3f947),
            (323, 12, 0x781971baf3e5e83e),
            (347, 2, 0xcc3d21ba3f696390),
            (288, 3, 0x440aff539cbdb1f4),
            (294, 3, 0xa7938c6e8a0c8f0e),
        ],
        "{actual:#x?}"
    );
}

#[test]
fn golden_balance_on_unit_vertices_with_weighted_edges() {
    // Unit vertex weights, edge weights 1..=3: the side imbalance has
    // the parity of n, so only exact halves are balanced at even n and
    // only the two near-halves at odd n.
    for n in [10usize, 11] {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_weighted_edge(v - 1, v, 1 + u64::from(v % 3))
                .expect("edge in range");
        }
        let g = b.build();
        let balanced: Vec<usize> = (0..=n)
            .filter(|&k| {
                let sides = (0..n).map(|v| v < k).collect();
                Bisection::from_sides(&g, sides).unwrap().is_balanced(&g)
            })
            .collect();
        let expected = if n % 2 == 0 {
            vec![n / 2]
        } else {
            vec![n / 2, n / 2 + 1]
        };
        assert_eq!(balanced, expected, "n = {n}");
    }
    // FM runs its pass and prefix tolerances on such a graph.
    let g = weighted_gnp(120, 1, 0xF3);
    let mut actual: Vec<BalancePin> = Vec::new();
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let init = seed::random_balanced(&g, &mut rng);
        let (p, passes) =
            FiducciaMattheyses::new().refine_counted(&g, init, &mut rng, &mut Workspace::new());
        assert!(p.is_balanced(&g));
        actual.push((p.cut(), passes, sides_fingerprint(p.sides())));
    }
    assert_eq!(
        actual,
        [
            (159, 3, 0x3183e91fe289b3cf),
            (160, 2, 0x747a73b51320a8d1),
            (157, 2, 0xc4018275777b11f7),
        ],
        "{actual:#x?}"
    );
}
