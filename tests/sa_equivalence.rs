//! Equivalence guarantees of the SA hot-loop overhaul: the cached
//! proposal-evaluation path ([`ProposalEval::Cached`] — incremental
//! gain cache, per-temperature `exp` table, monomorphized inner loops)
//! must be *bit-identical* — same cut, same side vector, same
//! temperature-step counts, same proposal counts — to the naive
//! reference path that recomputes every gain from adjacency, for both
//! move kinds, with calibrated and explicit starting temperatures, at
//! every thread count — on unit-weight graphs, on weighted contracted
//! levels, on graphs whose weights are too wide for the compact state's
//! `i32` gains (so `Cached` mode falls back to the naive arm), and at
//! the edges of the acceptance test (zero, tiny and huge temperatures). A
//! dyn-fallback pin additionally checks that an opaque rng (no
//! [`rand::RngCore::as_any_mut`] override) takes the non-monomorphized
//! loop and still reproduces the same results.

use bisect_bench::runner::run_best_of_sides;
use bisect_core::bisector::Bisector;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::Pipeline;
use bisect_core::sa::{MoveKind, ProposalEval, Schedule, SimulatedAnnealing};
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::g2set::{self, G2setParams};
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::rng::{LaggedFibonacci, SeedSequence};
use bisect_graph::{contraction, matching, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Error, Rng, RngCore, SeedableRng};

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

/// Asserts the cached and naive evaluation paths bit-identical on one
/// SA run from a weight-balanced start: the same bisection, the same
/// statistics (temperatures bit for bit) and the same generator state
/// afterwards. Swap moves keep side counts, not side weights, so on
/// weighted graphs the result need not pass `is_balanced` and the
/// best-of-starts runner's balance assertion does not apply.
fn assert_runs_identical(
    sa: &SimulatedAnnealing,
    g: &Graph,
    stream: u64,
) -> Result<(), TestCaseError> {
    let run = |eval| {
        let mut rng = LaggedFibonacci::seed_from_u64(stream);
        let init = seed::weight_balanced_random(g, &mut rng);
        let sa = sa.clone().with_proposal_eval(eval);
        let (p, stats) = sa.refine_with_stats_in(g, init, &mut rng, &mut Workspace::new());
        prop_assert_eq!(p.cut(), p.recompute_cut(g));
        Ok((p, stats, rng))
    };
    let (cached, naive) = (run(ProposalEval::Cached)?, run(ProposalEval::Naive)?);
    prop_assert_eq!(&cached.0, &naive.0, "bisection differs");
    prop_assert_eq!(cached.1, naive.1, "statistics differ");
    prop_assert_eq!(&cached.2, &naive.2, "generator state differs");
    Ok(())
}

/// Starting temperatures at the edges of the acceptance test:
/// calibrated; zero, where every uphill move is rejected without a
/// draw; tiny, where the table reads 1 then 0; and huge, where every
/// entry is 1.0, so the lazy shared-edge lookup's early reject never
/// fires and every uphill draw looks the edge up.
fn edge_temperature(selector: u8) -> Option<f64> {
    match selector % 4 {
        0 => None,
        1 => Some(0.0),
        2 => Some(1e-300),
        _ => Some(1e300),
    }
}

/// A move kind from a proptest-drawn selector.
fn move_kind(selector: u8) -> MoveKind {
    if selector.is_multiple_of(2) {
        MoveKind::Swap
    } else {
        MoveKind::Flip {
            imbalance_factor: 0.05,
        }
    }
}

/// `Gnp(n, deg 4)` with vertex weights up to 3 and edge weights up to
/// `max_edge_weight`, as a weighted graph of its own.
fn weighted_gnp(n: usize, max_edge_weight: u64, min_edge_weight: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = GnpParams::with_average_degree(n, 4.0).expect("feasible parameters");
    let base = gnp::sample(&mut rng, &params);
    let mut b = GraphBuilder::new(n);
    for v in base.vertices() {
        b.set_vertex_weight(v, rng.gen_range(1..=3))
            .expect("vertex in range");
    }
    for (u, v, _) in base.edges() {
        b.add_weighted_edge(u, v, rng.gen_range(min_edge_weight..=max_edge_weight))
            .expect("edge in range");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contracted levels carry merged edge and vertex weights, so their
    /// gains and deltas are no longer the unit-graph integers.
    #[test]
    fn cached_matches_naive_on_weighted_contracted_levels(
        n in 40usize..=90,
        levels in 1usize..=2,
        kind in 0u8..2,
        t_sel in 0u8..4,
        seed in 0u64..1000,
    ) {
        let mut g = weighted_gnp(2 * n, 3, 1, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..levels {
            let m = matching::random_maximal(&g, &mut rng);
            g = contraction::contract_matching(&g, &m).coarse().clone();
        }
        let sa = SimulatedAnnealing::new()
            .with_move_kind(move_kind(kind))
            .with_schedule(quick_schedule(edge_temperature(t_sel)));
        assert_runs_identical(&sa, &g, seed)?;
    }

    /// Edge weights near 2^28 put `4 · max weighted degree` past
    /// `i32::MAX`, too wide for the compact state's gains: `Cached` mode
    /// anneals on the naive fallback, which must match `Naive` mode
    /// bit for bit.
    #[test]
    fn cached_matches_naive_on_wide_gains(
        n in 20usize..=40,
        kind in 0u8..2,
        t_sel in 0u8..4,
        seed in 0u64..1000,
    ) {
        let g = weighted_gnp(2 * n, (1 << 28) + 1000, 1 << 28, seed);
        let max_wdeg = g.vertices().map(|v| g.weighted_degree(v)).max().unwrap_or(0);
        prop_assert!(4 * max_wdeg > i32::MAX as u64);
        let sa = SimulatedAnnealing::new()
            .with_move_kind(move_kind(kind))
            .with_schedule(quick_schedule(edge_temperature(t_sel)));
        assert_runs_identical(&sa, &g, seed)?;
    }

    /// The acceptance edges on unit-weight `Gbreg`, where the compact
    /// state runs, the table covers every delta and the lazy lookup
    /// runs.
    #[test]
    fn cached_matches_naive_at_edge_temperatures(
        half in 10usize..=25,
        d in 3usize..=4,
        kind in 0u8..2,
        t_sel in 1u8..4,
        seed in 0u64..1000,
    ) {
        let b = 2 + (half * d) % 2;
        let params = GbregParams::new(2 * half, b, d).expect("feasible parameters");
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gbreg::sample(&mut rng, &params).expect("construction succeeds");
        let sa = SimulatedAnnealing::new()
            .with_move_kind(move_kind(kind))
            .with_schedule(quick_schedule(edge_temperature(t_sel)));
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

// ---------------------------------------------------------------------
// Golden pins under the benchmark's `paper-5000` protocol, at n = 200:
// SA and CSA with the default schedule, best of 2 starts, one
// `SeedSequence` stream per start, on the paper's four graph families
// and on one weighted contracted level as CSA anneals it. Captured
// before SA moved onto its own compact annealing state; the fast path
// must keep reproducing every value.
// ---------------------------------------------------------------------

/// `(cut, temperatures, proposals, accepted, initial temperature bits)`
/// of one SA start.
type SaPin = (u64, usize, usize, usize, u64);

/// `(cut, passes, proposals)` of one pipeline start.
type PipelinePin = (u64, u64, u64);

/// The paper-5000 instance families at `n` vertices: `Gbreg(n,16,3)`,
/// `Gbreg(n,16,4)`, `G2set(n, deg 3, 32)` and `Gnp(n, deg 2.5)`.
fn paper_graphs(n: usize) -> Vec<Graph> {
    (0..4u64)
        .map(|which| {
            let mut rng = LaggedFibonacci::seed_from_u64(0x5A_0500 + which);
            match which {
                0 | 1 => {
                    let params = GbregParams::new(n, 16, 3 + which as usize).expect("feasible");
                    gbreg::sample(&mut rng, &params).expect("construction succeeds")
                }
                2 => {
                    let params = G2setParams::with_average_degree(n, 3.0, 32).expect("feasible");
                    g2set::sample(&mut rng, &params)
                }
                _ => {
                    let params = GnpParams::with_average_degree(n, 2.5).expect("feasible");
                    gnp::sample(&mut rng, &params)
                }
            }
        })
        .collect()
}

/// Runs SA from `init` and returns its pin and the annealed bisection.
fn sa_pin(
    g: &Graph,
    init: Bisection,
    rng: &mut LaggedFibonacci,
    ws: &mut Workspace,
) -> (SaPin, Bisection) {
    let (p, stats) = SimulatedAnnealing::new().refine_with_stats_in(g, init, rng, ws);
    assert_eq!(p.cut(), p.recompute_cut(g));
    let pin = (
        p.cut(),
        stats.temperatures,
        stats.proposals,
        stats.accepted,
        stats.initial_temperature.to_bits(),
    );
    (pin, p)
}

#[test]
fn golden_sa_and_csa_under_the_benchmark_protocol() {
    let mut ws = Workspace::new();
    let mut sa_pins: Vec<SaPin> = Vec::new();
    let mut csa_pins: Vec<PipelinePin> = Vec::new();
    let mut best_sides: Vec<u64> = Vec::new();
    for (which, g) in paper_graphs(200).iter().enumerate() {
        let seq = SeedSequence::new(0x5A5A_0001 ^ which as u64);
        let mut best: Option<Bisection> = None;
        for start in 0..2 {
            let mut rng = seq.rng(start);
            let init = seed::random_balanced(g, &mut rng);
            let (pin, p) = sa_pin(g, init, &mut rng, &mut ws);
            assert!(p.is_balanced(g));
            sa_pins.push(pin);
            if best.as_ref().is_none_or(|b| p.cut() < b.cut()) {
                best = Some(p);
            }
        }
        best_sides.push(sides_fingerprint(best.expect("two starts").sides()));

        let seq = SeedSequence::new(0x5A5A_0002 ^ which as u64);
        let mut best: Option<Bisection> = None;
        for start in 0..2 {
            let mut rng = seq.rng(start);
            let _ = ws.take_proposals();
            let (p, passes) = Pipeline::csa().bisect_counted(g, &mut rng, &mut ws);
            assert!(p.is_balanced(g));
            csa_pins.push((p.cut(), passes, ws.take_proposals()));
            if best.as_ref().is_none_or(|b| p.cut() < b.cut()) {
                best = Some(p);
            }
        }
        best_sides.push(sides_fingerprint(best.expect("two starts").sides()));
    }

    // One weighted contracted level, started and annealed as CSA's
    // coarse level is: random maximal matching, contraction,
    // weight-balanced start.
    let g = &paper_graphs(200)[0];
    let mut rng = SeedSequence::new(0x5A5A_00C0).rng(0);
    let m = matching::random_maximal(g, &mut rng);
    let c = contraction::contract_matching(g, &m);
    let coarse = c.coarse();
    assert!(!coarse.is_unit_weighted());
    let init = seed::weight_balanced_random(coarse, &mut rng);
    let (coarse_pin, p) = sa_pin(coarse, init, &mut rng, &mut ws);
    best_sides.push(sides_fingerprint(p.sides()));

    assert_eq!(
        sa_pins,
        [
            (16, 42, 67200, 17920, 4613371720223118279),
            (16, 46, 73600, 18636, 4613513648371404739),
            (16, 43, 68800, 18298, 4615021586127414714),
            (16, 40, 64000, 17473, 4614554969024593446),
            (26, 50, 80000, 17150, 4612809775976263852),
            (27, 45, 72000, 14711, 4612229399490666776),
            (21, 45, 72000, 16504, 4612471109799323415),
            (23, 45, 72000, 16698, 4612633637753946357)
        ],
        "{sa_pins:?}"
    );
    assert_eq!(
        csa_pins,
        [
            (20, 91, 120960),
            (16, 94, 123344),
            (16, 82, 109120),
            (16, 84, 113040),
            (26, 262, 293432),
            (26, 169, 210208),
            (23, 111, 147024),
            (21, 116, 154400)
        ],
        "{csa_pins:?}"
    );
    assert_eq!(
        coarse_pin,
        (21, 39, 34944, 9441, 4614254048607263811),
        "{coarse_pin:?}"
    );
    assert_eq!(
        best_sides,
        [
            0xb1f2b6de03c382fd,
            0x9c45332249b11645,
            0x598733261b39b4b9,
            0x598733261b39b4b9,
            0x47df2705f02191d1,
            0x39d1c32986bf28fd,
            0x8872cf4afec5a507,
            0x47057b77f8cceebf,
            0xf87fa7d7952acc10
        ],
        "{best_sides:#x?}"
    );
}
