//! Equivalence guarantees of the SA hot-loop overhaul: the cached
//! proposal-evaluation path ([`ProposalEval::Cached`] — incremental
//! gain cache, per-temperature `exp` table, monomorphized inner loops)
//! must be *bit-identical* — same cut, same side vector, same
//! temperature-step counts, same proposal counts — to the naive
//! reference path that recomputes every gain from adjacency, for both
//! move kinds, with calibrated and explicit starting temperatures, at
//! every thread count. A dyn-fallback pin additionally checks that an
//! opaque rng (no [`rand::RngCore::as_any_mut`] override) takes the
//! non-monomorphized loop and still reproduces the same results.

use bisect_bench::runner::run_best_of_sides;
use bisect_core::bisector::Bisector;
use bisect_core::sa::{MoveKind, ProposalEval, Schedule, SimulatedAnnealing};
use bisect_core::workspace::Workspace;
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::Graph;
use proptest::prelude::*;
use rand::{Error, RngCore, SeedableRng};

/// FNV-1a over the side bits (same fingerprint as
/// `tests/pipeline_equivalence.rs`).
fn sides_fingerprint(sides: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &s in sides {
        h ^= s as u64 + 1;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A quick schedule so the property tests stay fast; `initial` selects
/// calibration (`None`) or an explicit starting temperature.
fn quick_schedule(initial: Option<f64>) -> Schedule {
    Schedule {
        initial_temperature: initial,
        sizefactor: 4,
        cooling: 0.9,
        max_temperatures: 120,
        ..Schedule::default()
    }
}

/// Asserts the cached and naive evaluation paths bit-identical for one
/// SA configuration under the paper's best-of-starts protocol, serially
/// and with a parallel trial pool.
fn assert_eval_paths_identical(
    sa: &SimulatedAnnealing,
    g: &Graph,
    seed: u64,
) -> Result<(), TestCaseError> {
    let cached = sa.clone().with_proposal_eval(ProposalEval::Cached);
    let naive = sa.clone().with_proposal_eval(ProposalEval::Naive);
    for threads in [1usize, 4] {
        let (cr, cs) = run_best_of_sides(&cached, g, 2, seed, threads);
        let (nr, ns) = run_best_of_sides(&naive, g, 2, seed, threads);
        prop_assert_eq!(cr.cut, nr.cut, "cut differs at {} threads", threads);
        prop_assert_eq!(cr.passes, nr.passes, "passes differ at {} threads", threads);
        prop_assert_eq!(
            cr.proposals,
            nr.proposals,
            "proposals differ at {} threads",
            threads
        );
        prop_assert_eq!(cs, ns, "side vector differs at {} threads", threads);
    }
    Ok(())
}

/// Maps a proptest-drawn selector to a starting-temperature choice:
/// calibrated, hot explicit, or near-frozen explicit.
fn initial_temperature(selector: u8) -> Option<f64> {
    match selector % 3 {
        0 => None,
        1 => Some(3.0),
        _ => Some(0.25),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_matches_naive_swap_on_gbreg(
        half in 10usize..=25,
        b in 1usize..=4,
        d in 3usize..=4,
        t_sel in 0u8..3,
        seed in 0u64..1000,
    ) {
        // Parity: each side's internal degree sum `half·d − b` must be
        // even, so give `b` the parity of `half·d`.
        let b = 2 * b + (half * d) % 2;
        let params = GbregParams::new(2 * half, b, d).expect("feasible parameters");
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gbreg::sample(&mut rng, &params).expect("construction succeeds");
        let sa = SimulatedAnnealing::new()
            .with_schedule(quick_schedule(initial_temperature(t_sel)));
        assert_eval_paths_identical(&sa, &g, seed)?;
    }

    #[test]
    fn cached_matches_naive_flip_on_gnp(
        half in 8usize..=16,
        degree in 2u32..=4,
        t_sel in 0u8..3,
        seed in 0u64..1000,
    ) {
        let params = GnpParams::with_average_degree(2 * half, degree as f64)
            .expect("feasible parameters");
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gnp::sample(&mut rng, &params);
        let sa = SimulatedAnnealing::new()
            .with_move_kind(MoveKind::Flip { imbalance_factor: 0.05 })
            .with_schedule(quick_schedule(initial_temperature(t_sel)));
        assert_eval_paths_identical(&sa, &g, seed)?;
    }
}

// ---------------------------------------------------------------------
// Dyn-fallback pin: a generator that does *not* opt into `as_any_mut`
// must be served by the non-monomorphized loop with identical draws.
// ---------------------------------------------------------------------

/// A [`LaggedFibonacci`] hidden behind a newtype that forwards the four
/// draw methods but keeps the default `as_any_mut` (`None`), so the SA
/// dispatcher cannot recover a concrete type and falls back to the
/// `dyn`-generic loop.
struct Opaque(LaggedFibonacci);

impl RngCore for Opaque {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.0.try_fill_bytes(dest)
    }
}

#[test]
fn dyn_fallback_matches_monomorphized_loop() {
    let params = GbregParams::new(60, 4, 3).expect("feasible parameters");
    let mut grng = LaggedFibonacci::seed_from_u64(0xBEEF);
    let g = gbreg::sample(&mut grng, &params).expect("construction succeeds");
    for sa in [
        SimulatedAnnealing::quick(),
        SimulatedAnnealing::quick().with_move_kind(MoveKind::Flip {
            imbalance_factor: 0.05,
        }),
        SimulatedAnnealing::quick().with_proposal_eval(ProposalEval::Naive),
    ] {
        for seed in [1u64, 42, 91] {
            let mut ws = Workspace::new();
            let mut fast = LaggedFibonacci::seed_from_u64(seed);
            let direct = sa.bisect_counted(&g, &mut fast, &mut ws);
            let direct_proposals = ws.take_proposals();

            let mut slow = Opaque(LaggedFibonacci::seed_from_u64(seed));
            let opaque = sa.bisect_counted(&g, &mut slow, &mut ws);
            let opaque_proposals = ws.take_proposals();

            assert_eq!(direct.0.cut(), opaque.0.cut(), "seed {seed}");
            assert_eq!(direct.0.sides(), opaque.0.sides(), "seed {seed}");
            assert_eq!(direct.1, opaque.1, "temperature steps, seed {seed}");
            assert_eq!(direct_proposals, opaque_proposals, "proposals, seed {seed}");
            // Both generators must also have consumed identical draws.
            assert_eq!(fast, slow.0, "generator state diverged, seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Golden pin: absolute values first captured from the pre-overhaul SA
// (naive evaluation, virtual per-draw dispatch, direct `exp` calls) on
// this exact workload. Both evaluation paths must keep reproducing
// them. Re-pinned once, when swap pairs began to be drawn from the gain
// cache's side member lists instead of by rejection sampling over V:
// the pair distribution did not change, the random stream did (old pin
// (8, 110) at 0x672fd7132ec05c99).
// ---------------------------------------------------------------------

#[test]
fn golden_sa_eval_paths_on_gbreg120() {
    let params = GbregParams::new(120, 8, 3).expect("feasible parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(0xDAC_1990);
    let g = gbreg::sample(&mut rng, &params).expect("construction succeeds");
    let sa = SimulatedAnnealing::new().with_schedule(quick_schedule(None));
    for eval in [ProposalEval::Cached, ProposalEval::Naive] {
        let sa = sa.clone().with_proposal_eval(eval);
        let (r, sides) = run_best_of_sides(&sa, &g, 4, 91, 1);
        assert_eq!((r.cut, r.passes), (8, 126), "{eval:?}");
        assert_eq!(sides_fingerprint(&sides), 0x07e20caeb598c1eb, "{eval:?}");
        assert!(r.proposals > 0, "{eval:?}");
    }
}
