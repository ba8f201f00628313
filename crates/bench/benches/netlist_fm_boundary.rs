//! Boundary-seeded netlist FM re-passes and one uncoarsening level
//! (DESIGN.md §15).
//!
//! The hypergraph twin of `fm_boundary`: the scenario is re-refining a
//! netlist bisection that is already *near-converged* — what
//! projection through an uncoarsening level hands the refiner. Each
//! instance is refined to a fixpoint once, then perturbed by a few
//! balanced pair swaps, and the benches measure re-refinement from
//! that start. [`NetlistFm`] seeds its gain buckets only from the
//! incrementally tracked cut boundary (`O(boundary · pins)` per pass).
//!
//! * `netlist-fm-repass/boundary/*` — 20k-cell Rent netlists across
//!   net-size exponent γ and pin locality. Locality-clustered
//!   instances (`loc5`) keep a small boundary; global instances cut a
//!   constant fraction of the nets.
//! * `netlist-fm-repass-100k/boundary/*` — one 10^5-cell
//!   locality-clustered instance. The full multilevel payoff
//!   (projection replacing every per-level cache rebuild) is measured
//!   end-to-end by `repro --huge-netlist-smoke`, not here.
//! * `netlist-uncoarsen-100k/*` — the two steps of one uncoarsening
//!   level on a 10^5-cell locality-clustered instance: a
//!   `ParallelNetlistFm` refine of the bisection projected from the
//!   level above (the cache projected with it), and
//!   `rebalance_with_cache` of a bisection projected straight from a
//!   coarsest level of ~3,000 heavy cells, whose balance tolerance is
//!   far looser than the fine level's. Each iteration restores the
//!   projected start first, a copy included in the time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::netlist::{
    rebalance_with_cache, weight_balanced_random, NetlistBisection, NetlistFm, NetlistGainCache,
    NetlistRefiner, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{contract_cells, Netlist, NetlistContraction};
use rand::{RngCore, SeedableRng};

/// Refines a random balanced start to a fixpoint, then perturbs it by
/// `swaps` balanced pair swaps — a stand-in for the bisection a
/// projection step hands the next level's refiner.
fn near_converged(nl: &Netlist, swaps: usize) -> NetlistBisection {
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let init = NetlistBisection::random_balanced(nl, &mut rng);
    let (refined, _) =
        NetlistFm::new().refine_counted(nl, &[], init, &mut rng, &mut Workspace::new());
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
    NetlistBisection::from_sides(nl, sides).expect("same length as the netlist")
}

fn rent_netlist(cells: usize, gamma: f64, locality: f64, seed: u64) -> Netlist {
    let params = RentNetlistParams::new(cells, cells * 14 / 10, 8, gamma, locality)
        .expect("valid parameters");
    sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params)
}

fn bench_repass(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    nl: &Netlist,
    init: &NetlistBisection,
) {
    group.bench_with_input(id, nl, |b, nl| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            std::hint::black_box(
                NetlistFm::new()
                    .refine_counted(nl, &[], init.clone(), &mut rng, &mut ws)
                    .0
                    .cut(),
            )
        });
    });
}

fn bench_netlist_repass_by_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-fm-repass");
    group.sample_size(10);
    for (label, gamma, locality) in [
        ("g0-global", 0.0, 1.0),
        ("g1.8-global", 1.8, 1.0),
        ("g1.8-loc5", 1.8, 0.05),
        ("g3-loc5", 3.0, 0.05),
    ] {
        let nl = rent_netlist(20_000, gamma, locality, 7);
        let init = near_converged(&nl, 10);
        bench_repass(&mut group, BenchmarkId::new("boundary", label), &nl, &init);
    }
    group.finish();
}

fn bench_netlist_repass_100k(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-fm-repass-100k");
    group.sample_size(10);
    let nl = rent_netlist(100_000, 1.8, 0.05, 1989);
    let init = near_converged(&nl, 10);
    bench_repass(
        &mut group,
        BenchmarkId::new("boundary", "g1.8-loc5"),
        &nl,
        &init,
    );
    group.finish();
}

/// A projected start at the finest level: the bisection and a gain
/// cache exact for it.
struct Projected {
    p: NetlistBisection,
    cache: NetlistGainCache,
}

/// Coarsens `nl` to about 3,000 cells, refines the coarsest level and
/// returns two projected starts at the finest level: one through every
/// level with a refine at each (the cache projected from the level
/// above, as the uncoarsening ladder hands it to its refiner), and one
/// projected straight from the coarsest level (the imbalance left for
/// the rebalance).
fn projected_starts(nl: &Netlist) -> (Projected, Projected) {
    let matcher = ParallelCellMatching::new().with_threads(1);
    let mut ladder: Vec<NetlistContraction> = Vec::new();
    while ladder.last().map_or(nl, |c| c.coarse()).num_cells() > 3_000 {
        let level = ladder.last().map_or(nl, |c| c.coarse());
        let pairs = matcher.matching(level);
        if pairs.is_empty() {
            break;
        }
        ladder.push(contract_cells(level, &pairs));
    }
    let level_of = |i: usize| if i == 0 { nl } else { ladder[i - 1].coarse() };
    let coarsest = ladder.last().map_or(nl, |c| c.coarse());
    let mut rng = LaggedFibonacci::seed_from_u64(5);
    let init = weight_balanced_random(coarsest, &mut rng);
    let (top, _) =
        NetlistFm::new().refine_counted(coarsest, &[], init, &mut rng, &mut Workspace::new());

    // Straight projection: sides only, cache built at the finest level.
    let mut sides = top.sides().to_vec();
    for c in ladder.iter().rev() {
        sides = c.project_sides(&sides);
    }
    let straight = NetlistBisection::from_sides(nl, sides).expect("one side per cell");
    let mut straight_cache = NetlistGainCache::default();
    straight_cache.init(nl, &straight);

    // Level-by-level projection with a refine above the finest level.
    let pnfm = ParallelNetlistFm::new().with_threads(1);
    let mut ws = Workspace::new();
    let mut current = top;
    ws.netlist_cache_mut().init(coarsest, &current);
    for i in (0..ladder.len()).rev() {
        let level = level_of(i);
        let p = NetlistBisection::from_sides(level, ladder[i].project_sides(current.sides()))
            .expect("one side per cell");
        ws.project_netlist_cache(level, &p, ladder[i].fine_to_coarse());
        if i == 0 {
            let level_start = Projected {
                p,
                cache: ws.netlist_cache().clone(),
            };
            let straight = Projected {
                p: straight,
                cache: straight_cache,
            };
            return (level_start, straight);
        }
        current = pnfm
            .refine_projected_counted(level, &[], p, &mut rng, &mut ws)
            .0;
    }
    unreachable!("a 10^5-cell netlist coarsens at least once")
}

fn bench_uncoarsen_100k(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-uncoarsen-100k");
    group.sample_size(10);
    let nl = rent_netlist(100_000, 1.8, 0.02, 1989);
    let (level_start, straight) = projected_starts(&nl);
    let pnfm = ParallelNetlistFm::new().with_threads(1);
    group.bench_function(BenchmarkId::new("pnfm-refine", "g1.8-loc2"), |b| {
        let mut ws = Workspace::new();
        let mut rng = LaggedFibonacci::seed_from_u64(1);
        b.iter(|| {
            *ws.netlist_cache_mut() = level_start.cache.clone();
            let (p, _) =
                pnfm.refine_projected_counted(&nl, &[], level_start.p.clone(), &mut rng, &mut ws);
            std::hint::black_box(p.cut())
        });
    });
    group.bench_function(BenchmarkId::new("rebalance", "g1.8-loc2"), |b| {
        let mut p = straight.p.clone();
        let mut cache = straight.cache.clone();
        b.iter(|| {
            p.copy_from(&straight.p);
            cache.clone_from(&straight.cache);
            rebalance_with_cache(&nl, &mut p, &[], &mut cache);
            std::hint::black_box(p.cut())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_netlist_repass_by_shape,
    bench_netlist_repass_100k,
    bench_uncoarsen_100k
);
criterion_main!(benches);
