//! The coarsening layer, one level at a time (DESIGN.md §15).
//!
//! * `netlist-coarsen-100k/*` — the two steps of one netlist coarsening
//!   level, `ParallelCellMatching::matching` and `contract_cells_into`
//!   (one warm scratch, as a ladder reuses it), on a 10^5-cell Rent
//!   netlist (γ 1.8, max net size 8, BFS-reordered as the huge-netlist
//!   ladder runs it), with pin locality 2% (`loc2`) and without
//!   (`global`). Each is timed at level 0 (the input) and at the middle
//!   level of the ladder down to 5,000 cells, where cells are heavier,
//!   nets merge and degrees are higher.
//! * `graph-coarsen-100k/*` — `ParallelMatching::coarsen` (heavy-edge
//!   matching plus contraction) on Gnp(10^5, deg 3), the graph side's
//!   baseline for the same layer.
//!
//! Every worker count is 1, so the numbers are serial costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::netlist::ParallelCellMatching;
use bisect_core::pipeline::{CoarsenScheme, ParallelMatching};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{
    bfs_cell_order, contract_cells_into, permute_cells, Netlist, NetlistContractionScratch,
};
use rand::SeedableRng;

const CELLS: usize = 100_000;

/// The size the huge-netlist ladder coarsens a 10^5-cell netlist to.
const COARSEST: usize = 5_000;

/// A BFS-reordered 10^5-cell Rent netlist with 1.4·10^5 nets.
fn rent_netlist(locality: f64, seed: u64) -> Netlist {
    let params =
        RentNetlistParams::new(CELLS, CELLS * 14 / 10, 8, 1.8, locality).expect("valid parameters");
    let nl = sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params);
    permute_cells(&nl, &bfs_cell_order(&nl))
}

/// The input and the middle level of its ladder down to [`COARSEST`]
/// cells.
fn level0_and_mid(nl: Netlist, matcher: &ParallelCellMatching) -> [(&'static str, Netlist); 2] {
    let mut scratch = NetlistContractionScratch::new();
    let mut ladder = vec![nl];
    loop {
        let level = ladder.last().expect("the input is level 0");
        if level.num_cells() <= COARSEST {
            break;
        }
        let pairs = matcher.matching(level);
        if pairs.is_empty() {
            break;
        }
        let coarse = contract_cells_into(level, &pairs, &mut scratch)
            .coarse()
            .clone();
        ladder.push(coarse);
    }
    let mid = ladder[ladder.len() / 2].clone();
    let level0 = ladder.swap_remove(0);
    [("level0", level0), ("mid", mid)]
}

fn bench_netlist_coarsen(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-coarsen-100k");
    group.sample_size(10);
    let matcher = ParallelCellMatching::new().with_threads(1);
    for (shape, locality) in [("loc2", 0.02), ("global", 1.0)] {
        for (level_name, level) in level0_and_mid(rent_netlist(locality, 1989), &matcher) {
            let label = format!("{shape}-{level_name}");
            group.bench_with_input(BenchmarkId::new("match", &label), &level, |b, level| {
                b.iter(|| std::hint::black_box(matcher.matching(level).len()));
            });
            let pairs = matcher.matching(&level);
            group.bench_with_input(BenchmarkId::new("contract", &label), &level, |b, level| {
                let mut scratch = NetlistContractionScratch::new();
                b.iter(|| {
                    let c = contract_cells_into(level, &pairs, &mut scratch);
                    std::hint::black_box(c.coarse().num_nets())
                });
            });
        }
    }
    group.finish();
}

fn bench_graph_coarsen(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph-coarsen-100k");
    group.sample_size(10);
    let params = GnpParams::with_average_degree(CELLS, 3.0).expect("valid parameters");
    let g = gnp::sample_streamed(&mut LaggedFibonacci::seed_from_u64(1989), &params);
    let scheme = ParallelMatching::new().with_threads(1);
    group.bench_with_input(
        BenchmarkId::new("parallel-matching", "gnp-deg3"),
        &g,
        |b, g| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            b.iter(|| {
                let c = scheme.coarsen(g, &mut rng);
                std::hint::black_box(c.map_or(0, |c| c.coarse().num_vertices()))
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_netlist_coarsen, bench_graph_coarsen);
criterion_main!(benches);
