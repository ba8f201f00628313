//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `matching/*` — random maximal vs heavy-edge vs edge-order matching
//!   inside CKL.
//! * `klpair/*` — incremental (pruned bucket scan) vs exhaustive pair
//!   selection in KL (identical outputs, different asymptotics).
//! * `samove/*` — swap moves vs single-flip-with-penalty SA.
//! * `multilevel/*` — one compaction level (the paper) vs a full
//!   multilevel V-cycle.

use criterion::{criterion_group, criterion_main, Criterion};

use bisect_core::bisector::Bisector;
use bisect_core::kl::{KernighanLin, PairSelection};
use bisect_core::pipeline::{EdgeOrderMatching, HeavyEdgeMatching, Pipeline};
use bisect_core::sa::{MoveKind, SimulatedAnnealing};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, special};
use bisect_graph::Graph;
use rand::SeedableRng;

fn sparse_planted() -> Graph {
    let mut rng = LaggedFibonacci::seed_from_u64(1989);
    let params = gbreg::GbregParams::new(600, 6, 3).expect("valid parameters");
    gbreg::sample(&mut rng, &params).expect("construction succeeds")
}

fn bench_matching_kind(c: &mut Criterion) {
    let g = sparse_planted();
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    let variants = [
        ("random", Pipeline::ckl()),
        (
            "heavy-edge",
            Pipeline::ckl().with_coarsener(HeavyEdgeMatching),
        ),
        (
            "edge-order",
            Pipeline::ckl().with_coarsener(EdgeOrderMatching),
        ),
    ];
    for (name, algo) in variants {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect(&g, &mut rng).cut())
            });
        });
    }
    group.finish();
}

fn bench_kl_pair_selection(c: &mut Criterion) {
    let g = special::grid(18, 18);
    let mut group = c.benchmark_group("klpair");
    group.sample_size(10);
    for (name, selection) in [
        ("incremental", PairSelection::Incremental),
        ("exhaustive", PairSelection::Exhaustive),
    ] {
        let algo = KernighanLin::new().with_pair_selection(selection);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect(&g, &mut rng).cut())
            });
        });
    }
    group.finish();
}

fn bench_sa_move_kind(c: &mut Criterion) {
    let g = special::grid(16, 16);
    let mut group = c.benchmark_group("samove");
    group.sample_size(10);
    for (name, kind) in [
        ("swap", MoveKind::Swap),
        (
            "flip",
            MoveKind::Flip {
                imbalance_factor: 0.05,
            },
        ),
    ] {
        let algo = SimulatedAnnealing::quick().with_move_kind(kind);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect(&g, &mut rng).cut())
            });
        });
    }
    group.finish();
}

fn bench_compaction_depth(c: &mut Criterion) {
    let g = sparse_planted();
    let mut group = c.benchmark_group("multilevel");
    group.sample_size(10);
    let algos: Vec<(&str, Box<dyn Bisector>)> = vec![
        ("plain-KL", Box::new(KernighanLin::new())),
        ("one-level-CKL", Box::new(Pipeline::ckl())),
        (
            "full-multilevel",
            Box::new(Pipeline::multilevel(KernighanLin::new())),
        ),
    ];
    for (name, algo) in algos {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect(&g, &mut rng).cut())
            });
        });
    }
    group.finish();
}

fn bench_kl_pass_budget(c: &mut Criterion) {
    // The ladder finding of EXPERIMENTS.md: pass-limited KL (the
    // plausible 1989 operating point) vs fixpoint KL.
    let g = special::ladder(250);
    let mut group = c.benchmark_group("klbudget");
    group.sample_size(10);
    for (name, passes) in [("1-pass", 1usize), ("3-pass", 3), ("fixpoint", 64)] {
        let algo = KernighanLin::new().with_max_passes(passes);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect(&g, &mut rng).cut())
            });
        });
    }
    group.finish();
}

fn bench_hypergraph_vs_clique(c: &mut Criterion) {
    use bisect_core::netlist::NetlistPipeline;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::seq::SliceRandom;
    use rand::Rng;

    // Block-structured netlist with 3-5 pin nets.
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let mut builder = NetlistBuilder::new(240);
    for block in 0..6 {
        let base = (block * 40) as u32;
        for _ in 0..50 {
            let size = rng.gen_range(3..=5usize);
            let mut pins: Vec<u32> = (base..base + 40).collect();
            pins.shuffle(&mut rng);
            builder.add_net(&pins[..size]).expect("pins valid");
        }
    }
    let nl = builder.build();
    let clique = nl.to_clique_graph();

    let mut group = c.benchmark_group("hypergraph");
    group.sample_size(10);
    group.bench_function("native-fm", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            std::hint::black_box(NetlistPipeline::flat_fm().bisect(&nl, &mut rng).cut())
        });
    });
    group.bench_function("clique-kl", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            std::hint::black_box(KernighanLin::new().bisect(&clique, &mut rng).cut())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching_kind,
    bench_kl_pair_selection,
    bench_sa_move_kind,
    bench_compaction_depth,
    bench_kl_pass_budget,
    bench_hypergraph_vs_clique
);
criterion_main!(benches);
