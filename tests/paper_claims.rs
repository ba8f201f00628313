//! The paper's five observations (§VI), asserted as directional claims
//! on moderate instances. Thresholds are deliberately loose — the
//! precise magnitudes are measured in EXPERIMENTS.md — but the *shape*
//! (who wins, roughly by how much) must hold for fixed seeds.

use bisect_core::bisector::best_of;
use bisect_core::kl::KernighanLin;
use bisect_core::partition::Side;
use bisect_core::pipeline::Pipeline;
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, special};
use rand::SeedableRng;

fn sa() -> SimulatedAnnealing {
    SimulatedAnnealing::quick()
}

/// Observation 1: both algorithms do much better on degree-4 `Gbreg`
/// than degree-3; at degree 4 KL finds the planted bisection.
#[test]
fn observation1_degree_cliff() {
    let b = 8;
    let mut cuts = [0u64; 2];
    for (i, d) in [3usize, 4].into_iter().enumerate() {
        let params = gbreg::GbregParams::new(600, b, d).unwrap();
        let mut rng = LaggedFibonacci::seed_from_u64(1989 + d as u64);
        let g = gbreg::sample(&mut rng, &params).unwrap();
        cuts[i] = best_of(&KernighanLin::new(), &g, 2, &mut rng).cut();
    }
    let [d3, d4] = cuts;
    assert_eq!(
        d4, b as u64,
        "KL should find the planted bisection at degree 4"
    );
    assert!(
        d3 >= 5 * b as u64,
        "KL at degree 3 should be far from planted: got {d3} vs b = {b}"
    );
}

/// Observation 2: compaction improves quality dramatically on sparse
/// (degree-3) instances — the paper reports > 90% improvement on
/// `Gbreg(5000, b, 3)`. KL's gap is wide enough to assert on one
/// instance; SA's is asserted in aggregate, as the paper reports it,
/// over 16 instances (one instance's SA and CSA cuts are two draws from
/// overlapping distributions, and either can win).
#[test]
fn observation2_compaction_rescues_sparse_instances() {
    let params = gbreg::GbregParams::new(600, 8, 3).unwrap();
    let (mut sa_total, mut csa_total) = (0u64, 0u64);
    for seed in 1..=16u64 {
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gbreg::sample(&mut rng, &params).unwrap();
        let kl = best_of(&KernighanLin::new(), &g, 2, &mut rng).cut();
        let ckl = best_of(&Pipeline::ckl(), &g, 2, &mut rng).cut();
        if seed == 2 {
            assert!(
                (ckl as f64) < 0.5 * kl as f64,
                "CKL ({ckl}) should cut at most half of KL ({kl}) on degree-3 Gbreg"
            );
        }
        sa_total += best_of(&sa(), &g, 2, &mut rng).cut();
        csa_total += best_of(&Pipeline::compacted(sa()), &g, 2, &mut rng).cut();
    }
    assert!(
        csa_total <= sa_total,
        "CSA (total {csa_total}) should not be worse than SA (total {sa_total}) on degree-3 Gbreg"
    );
}

/// Observation 3: compaction helps KL on binary trees (the paper's
/// biggest Table 1 entry, 56%).
#[test]
fn observation3_compaction_on_binary_trees() {
    let g = special::binary_tree(510);
    let mut rng = LaggedFibonacci::seed_from_u64(3);
    let kl = best_of(&KernighanLin::new(), &g, 2, &mut rng).cut();
    let ckl = best_of(&Pipeline::ckl(), &g, 2, &mut rng).cut();
    assert!(
        ckl < kl,
        "CKL ({ckl}) should beat KL ({kl}) on a binary tree"
    );
}

/// Observation 4a: KL is much faster than SA (the paper: SA up to 20×
/// slower), measured in counted work rather than on a clock. Each
/// algorithm's work is its candidate evaluations plus the adjacency
/// entries it reads:
///
/// * SA: one per proposal, plus the neighbours that every accepted move
///   walks (`SaStats::adjacency_walked`);
/// * KL: one per pair evaluation (`Workspace::take_proposals`), plus,
///   per pass, the gain initialisation over every adjacency entry and
///   the adjacency walk of every vertex the pass locks.
///
/// The counts are exact and identical in every build, unlike the wall
/// clock this assertion replaced.
#[test]
fn observation4_kl_faster_than_sa() {
    let g = special::grid(16, 16);
    let adjacency = 2 * g.num_edges() as u64;
    let mut rng = LaggedFibonacci::seed_from_u64(4);
    let mut ws = Workspace::new();

    // `best_of(&KernighanLin::new(), &g, 2, …)`, pass by pass.
    let kl = KernighanLin::new();
    let mut kl_work = 0u64;
    for _ in 0..2 {
        let mut p = seed::random_balanced(&g, &mut rng);
        // Every pass locks min(|A|, |B|) pairs, which on this even,
        // balanced start is every vertex once: its lock walks read all
        // adjacency entries, as its gain initialisation does.
        assert_eq!(p.count(Side::A), p.count(Side::B));
        // KL's default pass cap, which this grid never reaches.
        for _ in 0..64 {
            let gain = kl.pass_in(&g, &mut p, &mut ws);
            kl_work += ws.take_proposals() + 2 * adjacency;
            if gain == 0 {
                break;
            }
        }
    }

    // `best_of(&sa(), &g, 2, …)` on the same stream.
    let mut sa_work = 0u64;
    for _ in 0..2 {
        let init = seed::random_balanced(&g, &mut rng);
        let (_, stats) = sa().refine_with_stats_in(&g, init, &mut rng, &mut ws);
        sa_work += (stats.proposals + stats.adjacency_walked) as u64;
    }
    // 124,336 against 20,502 (6.06×) when this bound was set. 5× sits
    // at 82% of that ratio, closer than the replaced 2× sat to the
    // 2.7–3.5× wall-clock ratios of debug builds (57–74%).
    assert!(
        sa_work > 5 * kl_work,
        "SA ({sa_work} evaluations and reads) expected well above KL ({kl_work})"
    );
}

/// Observation 4b: SA beats KL on binary trees (best of two starts) —
/// one of the two families where the paper's KL loses to SA.
#[test]
fn observation4_sa_wins_on_binary_trees() {
    let g = special::binary_tree(1022);
    let mut sa_wins = 0usize;
    let trials = 3usize;
    for seed in 0..trials as u64 {
        let mut rng = LaggedFibonacci::seed_from_u64(100 + seed);
        let kl = best_of(&KernighanLin::new(), &g, 2, &mut rng).cut();
        let sa_cut = best_of(&sa(), &g, 2, &mut rng).cut();
        if sa_cut < kl {
            sa_wins += 1;
        }
    }
    assert!(
        sa_wins * 2 >= trials,
        "SA should beat KL on binary trees most of the time ({sa_wins}/{trials})"
    );
}

/// Observation 4c: the ladder graph is the paper's example where KL
/// "is known to fail badly". This reproduces for the era's
/// *pass-limited* KL; interestingly, KL run to a fixpoint escapes (it
/// keeps shifting the cut interval by one pair per pass) — a genuine
/// implementation-sensitivity finding recorded in EXPERIMENTS.md.
#[test]
fn observation4_pass_limited_kl_fails_on_ladders() {
    let g = special::ladder(500);
    let mut rng = LaggedFibonacci::seed_from_u64(100);
    let limited = best_of(&KernighanLin::new().with_max_passes(3), &g, 2, &mut rng).cut();
    let fixpoint = best_of(&KernighanLin::new(), &g, 2, &mut rng).cut();
    assert!(
        limited >= 10,
        "pass-limited KL should be far from the optimal 2, got {limited}"
    );
    assert!(
        fixpoint <= 4,
        "fixpoint KL should solve the ladder, got {fixpoint}"
    );
}

/// Observation 5: with compaction the quality gap between CKL and CSA
/// closes on sparse planted instances (both near the planted width).
#[test]
fn observation5_compacted_gap_closes() {
    let params = gbreg::GbregParams::new(400, 8, 3).unwrap();
    let mut rng = LaggedFibonacci::seed_from_u64(5);
    let g = gbreg::sample(&mut rng, &params).unwrap();
    let ckl = best_of(&Pipeline::ckl(), &g, 2, &mut rng).cut();
    let csa = best_of(&Pipeline::compacted(sa()), &g, 2, &mut rng).cut();
    let spread = ckl.abs_diff(csa);
    assert!(
        spread <= 16,
        "compacted variants should be close: CKL {ckl} vs CSA {csa}"
    );
}

/// The degree-2 remark: `Gbreg(2n, b, 2)` instances are unions of
/// chordless cycles with optimal bisection ≤ 2, and the algorithms
/// (with compaction) find near-zero cuts.
#[test]
fn degree2_instances_near_zero_cut() {
    let params = gbreg::GbregParams::new(200, 4, 2).unwrap();
    let mut rng = LaggedFibonacci::seed_from_u64(6);
    let g = gbreg::sample(&mut rng, &params).unwrap();
    let ckl = best_of(&Pipeline::ckl(), &g, 2, &mut rng).cut();
    assert!(
        ckl <= 4,
        "CKL on a union of cycles found {ckl}, expected near zero"
    );
}
