//! Determinism regression tests for the parallel experiment engine:
//! `run_best_of` must produce bit-identical winners (cut *and*
//! bisection) at every thread count, because each trial's randomness is
//! derived from the trial index, not from scheduling order.

use bisect_bench::profile::Profile;
use bisect_bench::runner::run_best_of_sides;
use bisect_bench::Suite;
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::rng::LaggedFibonacci;
use rand::SeedableRng;

/// The ISSUE's reference workload: a `Gbreg(500, b, 3)` instance
/// (parity requires `n·d − b` even; with `n = 250`, `d = 3` that means
/// `b` even).
fn gbreg_500() -> bisect_graph::Graph {
    let params = GbregParams::new(500, 16, 3).expect("feasible parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(0xDAC_1989);
    gbreg::sample(&mut rng, &params).expect("construction succeeds")
}

#[test]
fn serial_and_parallel_runs_are_bit_identical_per_algorithm() {
    let g = gbreg_500();
    let suite = Suite::for_profile(&Profile::smoke());
    let starts = 4;
    let seed = 77;
    let algos: [(&str, &(dyn bisect_core::bisector::Bisector + Sync)); 2] =
        [("KL", &suite.kl), ("CKL", &suite.ckl)];
    // SA/CSA run through the same engine but are slow on 500 vertices;
    // the SA determinism path is covered by the smaller test below.
    for (name, algo) in algos {
        let serial = run_best_of_sides(algo, &g, starts, seed, 1);
        for threads in [2, 4] {
            let par = run_best_of_sides(algo, &g, starts, seed, threads);
            assert_eq!(
                par.0.cut, serial.0.cut,
                "{name} cut differs at {threads} threads"
            );
            assert_eq!(
                par.0.passes, serial.0.passes,
                "{name} passes differ at {threads} threads"
            );
            assert_eq!(
                par.1, serial.1,
                "{name} bisection differs at {threads} threads"
            );
        }
    }
}

#[test]
fn sa_family_is_bit_identical_across_thread_counts() {
    let params = GbregParams::new(120, 8, 3).expect("feasible parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(0xDAC_1990);
    let g = gbreg::sample(&mut rng, &params).expect("construction succeeds");
    let suite = Suite::for_profile(&Profile::smoke());
    let algos: [(&str, &(dyn bisect_core::bisector::Bisector + Sync)); 2] =
        [("SA", &suite.sa), ("CSA", &suite.csa)];
    for (name, algo) in algos {
        let serial = run_best_of_sides(algo, &g, 4, 91, 1);
        for threads in [2, 4] {
            let par = run_best_of_sides(algo, &g, 4, 91, threads);
            assert_eq!(
                par.0.cut, serial.0.cut,
                "{name} cut differs at {threads} threads"
            );
            assert_eq!(
                par.1, serial.1,
                "{name} bisection differs at {threads} threads"
            );
        }
    }
}

#[test]
fn composed_pipelines_are_bit_identical_across_thread_counts() {
    // Custom pipeline compositions (not just the packaged descriptors)
    // go through the same derived-seed trial engine, so they must also
    // be scheduling-independent.
    use bisect_core::kl::KernighanLin;
    use bisect_core::pipeline::{HeavyEdgeMatching, Pipeline};
    let g = gbreg_500();
    let algos: [(&str, Pipeline); 3] = [
        ("ML-KL", Pipeline::multilevel(KernighanLin::new())),
        (
            "ML-KL-8",
            Pipeline::multilevel_to(KernighanLin::new(), 8).expect("8 >= 2"),
        ),
        (
            "CKL-heavy",
            Pipeline::ckl().with_coarsener(HeavyEdgeMatching),
        ),
    ];
    for (name, algo) in &algos {
        let serial = run_best_of_sides(algo, &g, 4, 77, 1);
        for threads in [2, 4] {
            let par = run_best_of_sides(algo, &g, 4, 77, threads);
            assert_eq!(
                par.0.cut, serial.0.cut,
                "{name} cut differs at {threads} threads"
            );
            assert_eq!(
                par.0.passes, serial.0.passes,
                "{name} passes differ at {threads} threads"
            );
            assert_eq!(
                par.1, serial.1,
                "{name} bisection differs at {threads} threads"
            );
        }
    }
}

#[test]
fn suite_results_do_not_depend_on_ambient_thread_count() {
    // Suite::run fans the four algorithms out in parallel; the results
    // must still match a rerun (same seeds, arbitrary scheduling).
    let g = gbreg_500();
    let suite = Suite::for_profile(&Profile::smoke());
    let a = suite.run(&g, 2, 1234);
    let b = suite.run(&g, 2, 1234);
    for (x, y) in [(&a.0, &b.0), (&a.1, &b.1), (&a.2, &b.2), (&a.3, &b.3)] {
        assert_eq!(x.cut, y.cut);
        assert_eq!(x.passes, y.passes);
        assert_eq!(x.name, y.name);
    }
}
