//! Criterion timing of the graph generators — the substrate cost of
//! the study (the paper generated 556 random graphs; these benches
//! check that regenerating the whole corpus stays cheap).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{g2set, gbreg, geometric, gnp, regular};
use rand::SeedableRng;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.sample_size(10);
    for &n in &[1000usize, 5000] {
        group.bench_with_input(BenchmarkId::new("gnp-deg3", n), &n, |b, &n| {
            let params = gnp::GnpParams::with_average_degree(n, 3.0).expect("feasible");
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(gnp::sample(&mut rng, &params).num_edges())
            });
        });
        group.bench_with_input(BenchmarkId::new("g2set-deg3", n), &n, |b, &n| {
            let params = g2set::G2setParams::with_average_degree(n, 3.0, 16).expect("feasible");
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(g2set::sample(&mut rng, &params).num_edges())
            });
        });
        group.bench_with_input(BenchmarkId::new("gbreg-d3", n), &n, |b, &n| {
            let params = gbreg::GbregParams::new(n, 16, 3).expect("feasible");
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(
                    gbreg::sample(&mut rng, &params)
                        .expect("construction succeeds")
                        .num_edges(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("geometric-deg6", n), &n, |b, &n| {
            let params = geometric::GeometricParams::with_average_degree(n, 6.0).expect("feasible");
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = LaggedFibonacci::seed_from_u64(seed);
                std::hint::black_box(geometric::sample(&mut rng, &params).num_edges())
            });
        });
    }
    // The `graph-huge` benchmark instance: two configuration-model
    // repairs of 125,000 degree-≤4 vertices dominate it.
    group.bench_function(BenchmarkId::new("gbreg-d4", 250_000), |b| {
        let params = gbreg::GbregParams::new(250_000, 64, 4).expect("feasible");
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            std::hint::black_box(
                gbreg::sample(&mut rng, &params)
                    .expect("construction succeeds")
                    .num_edges(),
            )
        });
    });
    group.finish();

    // A dense sequence: long slot rows make each multiplicity scan
    // O(64), the repair's worst case in cost per lookup.
    let mut group = c.benchmark_group("regular");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("dense", "2000x64"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = LaggedFibonacci::seed_from_u64(seed);
            std::hint::black_box(
                regular::sample_regular(&mut rng, 2000, 64)
                    .expect("construction succeeds")
                    .len(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_generators);
criterion_main!(benches);
