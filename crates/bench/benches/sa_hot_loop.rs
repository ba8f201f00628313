//! SA hot-loop benches for the proposal-evaluation overhaul
//! (DESIGN.md §10): the cached path (incremental gain cache,
//! per-temperature `exp` table, monomorphized inner loop) against the
//! naive reference that recomputes every proposal's gain from
//! adjacency. Both paths are bit-identical in results
//! (`tests/sa_equivalence.rs`); these benches measure the speed gap.
//!
//! * `sa-eval/*` — full SA runs, swap moves, cached vs naive.
//! * `sa-eval-flip/*` — full SA runs, flip moves, cached vs naive.
//! * `sa-density/*` — cached vs naive across average degree (the
//!   naive path's per-proposal cost grows with degree; the cached
//!   path's rejected proposals stay O(1)).
//! * `sa-paper/{sa,csa}` — SA and CSA at the paper's size and default
//!   schedule, on `Gbreg(5000,16,3)`: the `paper-5000` benchmark
//!   workload's heaviest solves (`cargo bench --bench sa_hot_loop --
//!   sa-paper`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::bisector::Bisector;
use bisect_core::pipeline::Pipeline;
use bisect_core::sa::{MoveKind, ProposalEval, SimulatedAnnealing};
use bisect_core::workspace::Workspace;
use bisect_gen::rng::{LaggedFibonacci, SeedSequence};
use bisect_gen::{gbreg, gnp};
use bisect_graph::Graph;
use rand::SeedableRng;

fn sparse_planted(n: usize) -> Graph {
    let mut rng = LaggedFibonacci::seed_from_u64(1989);
    let params = gbreg::GbregParams::new(n, 6, 3).expect("valid parameters");
    gbreg::sample(&mut rng, &params).expect("construction succeeds")
}

const EVALS: [(&str, ProposalEval); 2] = [
    ("cached", ProposalEval::Cached),
    ("naive", ProposalEval::Naive),
];

fn bench_eval_swap(c: &mut Criterion) {
    let g = sparse_planted(600);
    let mut group = c.benchmark_group("sa-eval");
    group.sample_size(10);
    for (name, eval) in EVALS {
        let algo = SimulatedAnnealing::quick().with_proposal_eval(eval);
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect_in(&g, &mut rng, &mut ws).cut())
            });
        });
    }
    group.finish();
}

fn bench_eval_flip(c: &mut Criterion) {
    let g = sparse_planted(600);
    let mut group = c.benchmark_group("sa-eval-flip");
    group.sample_size(10);
    for (name, eval) in EVALS {
        let algo = SimulatedAnnealing::quick()
            .with_move_kind(MoveKind::Flip {
                imbalance_factor: 0.05,
            })
            .with_proposal_eval(eval);
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(algo.bisect_in(&g, &mut rng, &mut ws).cut())
            });
        });
    }
    group.finish();
}

fn bench_eval_by_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa-density");
    group.sample_size(10);
    for degree in [4u32, 16, 48] {
        let params =
            gnp::GnpParams::with_average_degree(400, degree as f64).expect("valid parameters");
        let mut grng = LaggedFibonacci::seed_from_u64(7);
        let g = gnp::sample(&mut grng, &params);
        for (name, eval) in EVALS {
            let algo = SimulatedAnnealing::quick().with_proposal_eval(eval);
            group.bench_with_input(BenchmarkId::new(name, degree), &g, |b, g| {
                let mut ws = Workspace::new();
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = LaggedFibonacci::seed_from_u64(seed);
                    std::hint::black_box(algo.bisect_in(g, &mut rng, &mut ws).cut())
                });
            });
        }
    }
    group.finish();
}

fn bench_paper_size(c: &mut Criterion) {
    let mut grng = LaggedFibonacci::seed_from_u64(1989);
    let params = gbreg::GbregParams::new(5000, 16, 3).expect("valid parameters");
    let g = gbreg::sample(&mut grng, &params).expect("construction succeeds");
    let mut group = c.benchmark_group("sa-paper");
    group.sample_size(10);
    let algos: [(&str, &dyn Bisector); 2] = [
        ("sa", &SimulatedAnnealing::new()),
        ("csa", &Pipeline::csa()),
    ];
    for (name, algo) in algos {
        group.bench_function(name, |b| {
            let mut ws = Workspace::new();
            let seeds = SeedSequence::new(5000);
            let mut start = 0u64;
            b.iter(|| {
                start += 1;
                let mut rng = seeds.rng(start);
                std::hint::black_box(algo.bisect_in(&g, &mut rng, &mut ws).cut())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eval_swap,
    bench_eval_flip,
    bench_eval_by_density,
    bench_paper_size
);
criterion_main!(benches);
