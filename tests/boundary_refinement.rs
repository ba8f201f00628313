//! Property tests for boundary-localized refinement (DESIGN.md §12):
//! [`BoundaryFm`] and the boundary-seeded [`ParallelFm`] mode against
//! their full-scan counterparts on random `Gnp`/`Gbreg` instances, a
//! brute-force cross-check of the incremental boundary set, and the
//! projected-cache exit contract of every graph refiner.

use bisect_core::bisector::Refiner;
use bisect_core::fm::{BoundaryFm, FiducciaMattheyses};
use bisect_core::gain_cache::GainCache;
use bisect_core::kl::KernighanLin;
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::{Graph, VertexId};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

/// A `Gnp` instance in the paper's sparse regime (avg degree 2–6).
fn gnp_instance(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let params = gnp::GnpParams::with_average_degree(n, avg_degree).expect("valid parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    gnp::sample(&mut rng, &params)
}

/// A `Gbreg` instance with a planted cut of `b` edges.
fn gbreg_instance(n2: usize, b: usize, d: usize, seed: u64) -> Graph {
    let params = gbreg::GbregParams::new(n2, b, d).expect("valid parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    gbreg::sample(&mut rng, &params).expect("construction succeeds")
}

/// Brute-force external degree of `v`: total weight of its cut edges.
fn ext_brute(g: &Graph, p: &Bisection, v: VertexId) -> u64 {
    g.neighbors_weighted(v)
        .filter(|&(u, _)| p.side(u) != p.side(v))
        .map(|(_, w)| w)
        .sum()
}

/// Asserts the refined bisection is balanced, no worse than `before`,
/// and carries an exact cut.
fn assert_refinement_invariants(g: &Graph, before: u64, refined: &Bisection) {
    assert!(
        refined.cut() <= before,
        "cut rose {} -> {}",
        before,
        refined.cut()
    );
    assert!(refined.is_balanced(g), "refinement lost balance");
    assert_eq!(refined.cut(), refined.recompute_cut(g), "stale cached cut");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BoundaryFm is monotone, balanced, and cut-exact on sparse Gnp
    /// instances across the paper's degree range. (Quality against
    /// full-scan FM is checked in aggregate below — the two walk
    /// different pass trajectories, so per-instance dominance does not
    /// hold in either direction.)
    #[test]
    fn boundary_fm_invariants_hold_on_gnp(seed in 0u64..500, deg in 0u8..5) {
        let g = gnp_instance(60, 2.0 + f64::from(deg), seed);
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0x9e37);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let mut rng_b = LaggedFibonacci::seed_from_u64(1);
        let boundary = BoundaryFm::new().refine(&g, init, &mut rng_b);
        assert_refinement_invariants(&g, before, &boundary);
    }

    /// Same invariants on Gbreg, where a planted cut of `b` edges gives
    /// the refiner a known target to converge toward.
    #[test]
    fn boundary_fm_invariants_hold_on_gbreg(seed in 0u64..500) {
        let g = gbreg_instance(80, 8, 4, seed);
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0x51f);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();
        let mut rng_b = LaggedFibonacci::seed_from_u64(1);
        let boundary = BoundaryFm::new().refine(&g, init, &mut rng_b);
        assert_refinement_invariants(&g, before, &boundary);
    }

    /// The incremental boundary set equals the brute-force external-
    /// degree scan after *every* accepted move of a random walk, and the
    /// cached gains stay exact throughout.
    #[test]
    fn boundary_set_matches_brute_force_scan_after_every_move(seed in 0u64..500) {
        let g = gnp_instance(40, 3.0, seed);
        let n = g.num_vertices();
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xb0);
        let mut p = seed::random_balanced(&g, &mut rng);
        let mut cache = GainCache::default();
        cache.init(&g, &p);

        for _ in 0..60 {
            let v = (rng.next_u64() % n as u64) as VertexId;
            let gain = cache.gain(v);
            prop_assert_eq!(gain, p.gain(&g, v), "stale cached gain for {}", v);
            cache.record_move(&g, &p, v);
            p.move_vertex_with_gain(&g, v, gain);

            let mut boundary_size = 0usize;
            for u in g.vertices() {
                let ext = ext_brute(&g, &p, u);
                prop_assert_eq!(cache.ext(u), ext, "stale external degree for {}", u);
                prop_assert_eq!(
                    cache.is_boundary(u),
                    ext > 0,
                    "boundary membership of {} disagrees with brute force",
                    u
                );
                boundary_size += usize::from(ext > 0);
            }
            // Same cardinality + exact membership ⇒ no duplicates.
            prop_assert_eq!(cache.boundary().len(), boundary_size);
        }
    }

    /// The boundary-seeded parallel mode is monotone, balanced, and
    /// deterministic at a fixed thread count — repeat runs at 1 and at 4
    /// threads each reproduce themselves bit-identically.
    #[test]
    fn boundary_seeded_parallel_fm_is_deterministic_at_fixed_threads(seed in 0u64..500) {
        let g = gnp_instance(90, 3.0, seed);
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0x7a11);
        let init = seed::random_balanced(&g, &mut rng);
        let before = init.cut();

        for threads in [1usize, 4] {
            let pfm = ParallelFm::new().with_threads(threads).with_boundary_seeds();
            let mut rng_a = LaggedFibonacci::seed_from_u64(1);
            let refined = pfm.refine(&g, init.clone(), &mut rng_a);
            assert_refinement_invariants(&g, before, &refined);

            let mut rng_b = LaggedFibonacci::seed_from_u64(1);
            let again = pfm.refine(&g, init.clone(), &mut rng_b);
            prop_assert_eq!(
                refined.sides(),
                again.sides(),
                "repeat run at {} threads diverged",
                threads
            );
        }
    }

    /// The projected-cache contract that multilevel drivers rely on:
    /// every graph refiner, started from an exact workspace cache, leaves
    /// that cache exact for the bisection it returns. FM runs twice: to
    /// a fixpoint, whose last pass moves nothing, and capped at one
    /// improving pass, which returns a bisection its pass-start cache
    /// no longer describes. The plain entry, `refine_counted` on a fresh
    /// workspace, is that entry after a cache build: the same bisection,
    /// work count, proposal count and next draw of the generator.
    #[test]
    fn every_refiner_leaves_the_projected_cache_exact(seed in 0u64..500, is_gnp in any::<bool>()) {
        let g = if is_gnp {
            gnp_instance(120, 3.0, seed)
        } else {
            gbreg_instance(120, 6, 3, seed)
        };
        let refiners: [Box<dyn Refiner>; 7] = [
            Box::new(KernighanLin::new()),
            Box::new(FiducciaMattheyses::new()),
            Box::new(FiducciaMattheyses::new().with_max_passes(1)),
            Box::new(SimulatedAnnealing::quick()),
            Box::new(BoundaryFm::new()),
            Box::new(ParallelFm::new().with_threads(2)),
            Box::new(ParallelFm::new().with_threads(2).with_boundary_seeds()),
        ];
        for refiner in &refiners {
            let who = refiner.name();
            let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xCAC4E);
            let init = seed::random_balanced(&g, &mut rng);
            let mut plain_rng = rng.clone();
            let mut ws = Workspace::new();
            ws.gain_cache_mut().init(&g, &init);
            let (refined, work) =
                refiner.refine_projected_counted(&g, init.clone(), &mut rng, &mut ws);
            assert_cache_exact(&g, &refined, ws.gain_cache(), &who)?;

            let mut plain_ws = Workspace::new();
            let (plain, plain_work) =
                refiner.refine_counted(&g, init, &mut plain_rng, &mut plain_ws);
            prop_assert_eq!(&plain, &refined, "{}: plain entry's bisection", &who);
            prop_assert_eq!(plain_work, work, "{}: plain entry's work", &who);
            prop_assert_eq!(
                plain_ws.take_proposals(),
                ws.take_proposals(),
                "{}: plain entry's proposals",
                &who
            );
            prop_assert_eq!(plain_rng.next_u64(), rng.next_u64(), "{}: next draw", &who);
        }
    }
}

/// Asserts `cache` equals a freshly built cache for `(g, p)`: per-vertex
/// gain and external degree, and the boundary compared as a set.
fn assert_cache_exact(
    g: &Graph,
    p: &Bisection,
    cache: &GainCache,
    who: &str,
) -> Result<(), TestCaseError> {
    let mut fresh = GainCache::default();
    fresh.init(g, p);
    prop_assert_eq!(cache.gains().len(), g.num_vertices(), "{}: cache size", who);
    for v in g.vertices() {
        prop_assert_eq!(cache.gain(v), fresh.gain(v), "{}: gain of {}", who, v);
        prop_assert_eq!(cache.ext(v), fresh.ext(v), "{}: ext of {}", who, v);
    }
    let sorted = |list: &[VertexId]| {
        let mut list = list.to_vec();
        list.sort_unstable();
        list
    };
    prop_assert_eq!(
        sorted(cache.boundary()),
        sorted(fresh.boundary()),
        "{}: boundary",
        who
    );
    Ok(())
}

/// Aggregate quality: over many seeded instances, boundary-seeded FM's
/// total cut stays within 5% of full-scan FM's. Per instance the two
/// land in different local optima (each wins some), but boundary
/// seeding misses no positive-gain candidate — positive gain implies
/// boundary membership — so in aggregate the quality is the same.
/// Every input is seeded, so the totals reproduce exactly.
#[test]
fn boundary_fm_quality_matches_full_scan_fm_in_aggregate() {
    for (name, is_gnp) in [("Gnp", true), ("Gbreg", false)] {
        let mut total_full = 0u64;
        let mut total_boundary = 0u64;
        for seed in 0u64..60 {
            let g = if is_gnp {
                gnp_instance(60, 3.0, seed)
            } else {
                gbreg_instance(80, 8, 4, seed)
            };
            let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0x9e37);
            let init = seed::random_balanced(&g, &mut rng);
            let mut rng_a = LaggedFibonacci::seed_from_u64(1);
            total_full += FiducciaMattheyses::new()
                .refine(&g, init.clone(), &mut rng_a)
                .cut();
            let mut rng_b = LaggedFibonacci::seed_from_u64(1);
            total_boundary += BoundaryFm::new().refine(&g, init, &mut rng_b).cut();
        }
        assert!(
            total_boundary as f64 <= total_full as f64 * 1.05,
            "{name}: boundary total {total_boundary} > 1.05 x full-scan total {total_full}"
        );
    }
}
