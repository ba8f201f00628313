//! Full-scan FM vs boundary-seeded FM passes (DESIGN.md §12).
//!
//! The scenario is the one the multilevel pipeline actually pays for:
//! re-refining a partition that is already *near-converged* — exactly
//! what projection through an uncoarsening level hands the refiner.
//! Each instance is refined to a fixpoint once, then perturbed by a few
//! balanced pair swaps, and the benches measure re-refinement from that
//! start. The full-scan pass seeds its gain buckets from every vertex
//! (`O(V + E)` per pass); `BoundaryFm` seeds only from the incrementally
//! tracked cut boundary (`O(boundary · deg)`).
//!
//! * `fm-repass/*` — re-refinement on `Gnp` across average degree 2–8.
//!   `Gnp`'s best cut is a constant *fraction* of the edges, so the
//!   boundary stays a constant fraction of `V` and the two refiners
//!   land within noise of each other (boundary pays its cache upkeep,
//!   saves little seeding).
//! * `fm-repass-planted/*` — re-refinement on `Gbreg` with a small
//!   planted cut: the boundary is tiny, and seeding from it is the
//!   measurable win. The full multilevel payoff (projection replacing
//!   every per-level `O(V + E)` rebuild) is measured end-to-end by
//!   `repro --huge-smoke`, not here.
//! * `fm-two-pin-100k/*` — `BoundaryFm` on one weighted level of a
//!   BFS-reordered `Gnp(10^5, deg 3)` (the graph contracted once) and
//!   `NetlistFm` on the same level written as 2-pin nets, both refined
//!   to a fixpoint from one weight-balanced start. The two make the same
//!   moves, so the gap between the rows is the netlist stack's overhead
//!   on the nets that dominate Rent netlists.
//! * `pfm-two-pin-100k/*` — the same level, start and 2-pin netlist
//!   refined by boundary-seeded `ParallelFm` and by `ParallelNetlistFm`,
//!   both at one thread. They run one parallel round, but the netlist
//!   resolve also pairs the proposals it blocked for balance, so the
//!   rows differ in moves as well as in the gain update.
//! * `pfm-idle/*` — `ParallelNetlistFm::refine_projected_counted` at one
//!   thread on a twice-contracted global Rent level, from a fresh cache.
//!   `skipped` starts from a count-balanced bisection whose sides differ
//!   by more than twice the pass slack, where no single move fits and
//!   the refiner returns before its first round; `productive` starts
//!   from a weight-balanced one and refines. The count-balanced start is
//!   the one the benchmark's netlist ladders refine at every level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::bisector::Refiner;
use bisect_core::fm::{BoundaryFm, FiducciaMattheyses};
use bisect_core::netlist::{
    self, NetlistBisection, NetlistFm, NetlistGainCache, NetlistRefiner, ParallelCellMatching,
    ParallelNetlistFm,
};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::ParallelMatching;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::hypergraph::{contract_cells, Netlist, NetlistBuilder};
use bisect_graph::{contraction, reorder, Graph};
use rand::{RngCore, SeedableRng};

/// Refines a random balanced start to a fixpoint, then perturbs it by
/// `swaps` balanced pair swaps — a stand-in for the partition a
/// projection step hands the next level's refiner.
fn near_converged(g: &Graph, swaps: usize) -> Bisection {
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let init = seed::random_balanced(g, &mut rng);
    let refined = FiducciaMattheyses::new().refine(g, init, &mut rng);
    let mut sides = refined.sides().to_vec();
    let n = sides.len();
    let mut done = 0;
    while done < swaps {
        let a = (rng.next_u64() % n as u64) as usize;
        let b = (rng.next_u64() % n as u64) as usize;
        if sides[a] != sides[b] {
            sides.swap(a, b);
            done += 1;
        }
    }
    Bisection::from_sides(g, sides).expect("same length as the graph")
}

fn bench_repass<R: Refiner>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    refiner: &R,
    g: &Graph,
    init: &Bisection,
) {
    group.bench_with_input(id, g, |b, g| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            std::hint::black_box(
                refiner
                    .refine_counted(g, init.clone(), &mut rng, &mut ws)
                    .0
                    .cut(),
            )
        });
    });
}

fn bench_fm_repass_by_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm-repass");
    group.sample_size(10);
    for degree in [2u32, 4, 8] {
        let params =
            gnp::GnpParams::with_average_degree(2000, degree as f64).expect("valid parameters");
        let mut grng = LaggedFibonacci::seed_from_u64(7);
        let g = gnp::sample(&mut grng, &params);
        let init = near_converged(&g, 10);
        bench_repass(
            &mut group,
            BenchmarkId::new("full-scan", degree),
            &FiducciaMattheyses::new(),
            &g,
            &init,
        );
        bench_repass(
            &mut group,
            BenchmarkId::new("boundary", degree),
            &BoundaryFm::new(),
            &g,
            &init,
        );
    }
    group.finish();
}

fn bench_fm_repass_planted(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm-repass-planted");
    group.sample_size(10);
    let params = gbreg::GbregParams::new(2000, 16, 4).expect("valid parameters");
    let mut grng = LaggedFibonacci::seed_from_u64(1989);
    let g = gbreg::sample(&mut grng, &params).expect("construction succeeds");
    let init = near_converged(&g, 10);
    bench_repass(
        &mut group,
        BenchmarkId::new("full-scan", 4),
        &FiducciaMattheyses::new(),
        &g,
        &init,
    );
    bench_repass(
        &mut group,
        BenchmarkId::new("boundary", 4),
        &BoundaryFm::new(),
        &g,
        &init,
    );
    group.finish();
}

/// `g` as a netlist of 2-pin nets: one net per edge, added for `v < u`
/// in adjacency order with the edge's weight, and the vertex weights as
/// cell weights.
fn two_pin_netlist(g: &Graph) -> Netlist {
    let mut b = NetlistBuilder::new(g.num_vertices());
    for v in g.vertices() {
        b.set_cell_weight(v, g.vertex_weight(v))
            .expect("cell in range");
        for (u, w) in g.neighbors_weighted(v) {
            if v < u {
                b.add_weighted_net(&[v, u], w).expect("pins in range");
            }
        }
    }
    b.build()
}

fn bench_two_pin_level(c: &mut Criterion) {
    let params = gnp::GnpParams::with_average_degree(100_000, 3.0).expect("valid parameters");
    let g = gnp::sample(&mut LaggedFibonacci::seed_from_u64(7), &params);
    let g = reorder::bfs(&g).apply(&g);
    let m = ParallelMatching::new().with_threads(1).matching(&g);
    let level = contraction::contract_matching(&g, &m).coarse().clone();
    let nl = two_pin_netlist(&level);
    let init = seed::weight_balanced_random(&level, &mut LaggedFibonacci::seed_from_u64(3));
    let netlist_init =
        NetlistBisection::from_sides(&nl, init.sides().to_vec()).expect("one side per cell");
    let bench_netlist =
        |group: &mut criterion::BenchmarkGroup<'_>, name, refiner: &dyn NetlistRefiner| {
            group.bench_with_input(BenchmarkId::new(name, "gnp-deg3"), &nl, |b, nl| {
                let mut ws = Workspace::new();
                b.iter(|| {
                    let mut rng = LaggedFibonacci::seed_from_u64(1);
                    let (p, _) =
                        refiner.refine_counted(nl, &[], netlist_init.clone(), &mut rng, &mut ws);
                    std::hint::black_box(p.cut())
                });
            });
        };

    let mut group = c.benchmark_group("fm-two-pin-100k");
    group.sample_size(10);
    bench_repass(
        &mut group,
        BenchmarkId::new("boundary-fm", "gnp-deg3"),
        &BoundaryFm::new(),
        &level,
        &init,
    );
    bench_netlist(&mut group, "netlist-fm", &NetlistFm::new());
    group.finish();

    let mut group = c.benchmark_group("pfm-two-pin-100k");
    group.sample_size(10);
    bench_repass(
        &mut group,
        BenchmarkId::new("parallel-fm", "gnp-deg3"),
        &ParallelFm::new().with_threads(1).with_boundary_seeds(),
        &level,
        &init,
    );
    bench_netlist(
        &mut group,
        "parallel-netlist-fm",
        &ParallelNetlistFm::new().with_threads(1),
    );
    group.finish();
}

fn bench_idle_rounds(c: &mut Criterion) {
    // A `netlist-global` instance of the benchmark: 12,500 cells, 17,500
    // nets of up to 8 pins, no locality.
    let params = RentNetlistParams::new(12_500, 17_500, 8, 1.8, 1.0).expect("valid parameters");
    let mut level = sample_streamed(&mut LaggedFibonacci::seed_from_u64(1), &params);
    let matcher = ParallelCellMatching::new().with_threads(1);
    for _ in 0..2 {
        let pairs = matcher.matching(&level);
        level = contract_cells(&level, &pairs).coarse().clone();
    }
    let mut rng = LaggedFibonacci::seed_from_u64(3);
    let skipped = NetlistBisection::random_balanced(&level, &mut rng);
    let productive = netlist::weight_balanced_random(&level, &mut rng);
    // The pass slack is twice the heaviest cell.
    let max_weight = level.cells().map(|c| level.cell_weight(c)).max();
    let bound = 4 * max_weight.expect("the level has cells");
    assert!(
        skipped.weight_imbalance() > bound,
        "the skipped start must be past the bound"
    );
    assert!(productive.weight_imbalance() <= bound);

    let pnfm = ParallelNetlistFm::new().with_threads(1);
    let mut group = c.benchmark_group("pfm-idle");
    group.sample_size(10);
    for (name, start) in [("skipped", &skipped), ("productive", &productive)] {
        let mut cache = NetlistGainCache::default();
        cache.init(&level, start);
        group.bench_with_input(BenchmarkId::new(name, "rent-global"), &level, |b, level| {
            let mut ws = Workspace::new();
            b.iter(|| {
                let mut rng = LaggedFibonacci::seed_from_u64(1);
                ws.netlist_cache_mut().clone_from(&cache);
                let (p, _) =
                    pnfm.refine_projected_counted(level, &[], start.clone(), &mut rng, &mut ws);
                std::hint::black_box(p.cut())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fm_repass_by_density,
    bench_fm_repass_planted,
    bench_two_pin_level,
    bench_idle_rounds
);
criterion_main!(benches);
