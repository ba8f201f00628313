//! The `huge-netlist` experiment: million-cell netlist bisection
//! feasibility — the hypergraph twin of the [`huge`](super::huge)
//! graph experiment.
//!
//! Two Rent-style netlists (one locality-clustered, one global) at
//! [`Profile::huge_netlist_shape`] cells each go through the
//! cache-conscious large-instance pipeline:
//!
//! 1. **streaming generation** —
//!    [`bisect_gen::netlist::sample_streamed`] feeds the two-pass
//!    counting-sorted pin-CSR build
//!    ([`NetlistBuilder::stream`](bisect_graph::hypergraph::NetlistBuilder::stream))
//!    and never materializes the flat pin list;
//! 2. **BFS cell reordering**
//!    ([`bisect_graph::hypergraph::bfs_cell_order`]) so refinement
//!    walks near-contiguous pin arrays;
//! 3. **parallel multilevel bisection** —
//!    [`ParallelCellMatching`](bisect_core::netlist::ParallelCellMatching)
//!    coarsening through the allocation-free
//!    [`contract_cells_into`](bisect_graph::hypergraph::contract_cells_into)
//!    (one scratch arena serves the whole ladder), a random balanced
//!    start plus serial hill-crossing
//!    [`NetlistFm`](bisect_core::netlist::NetlistFm) on the coarsest
//!    netlist, then *boundary-localized* uncoarsening: the workspace
//!    [`NetlistGainCache`](bisect_core::netlist::NetlistGainCache) is
//!    built once at the coarsest level and **projected** through every
//!    contraction on the way back up, where boundary-seeded
//!    [`ParallelNetlistFm`](bisect_core::netlist::ParallelNetlistFm)
//!    rounds refine only the tracked cut boundary instead of sweeping
//!    all cells;
//! 4. **inverse mapping** back to the original cell labels, with the
//!    net cut re-verified on the untouched input netlist.
//!
//! Reported per instance: net cut, wall time, refinement-phase wall
//! time, refinement rounds, gain evaluations per second, end-to-end
//! cell throughput, and the process peak RSS so far. Results are
//! deterministic at a fixed thread count (see the `ParallelNetlistFm`
//! determinism contract); they are not part of the golden-pinned paper
//! tables.

use std::time::Instant;

use bisect_core::netlist::{
    rebalance_with_cache, NetlistBisection, NetlistFm, NetlistRefiner, ParallelCellMatching,
    ParallelNetlistFm,
};
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{
    bfs_cell_order, contract_cells_into, permute_cells, Netlist, NetlistContraction,
    NetlistContractionScratch,
};
use rand::SeedableRng;

use super::huge::{coarse_target, fmt_bytes, peak_rss_bytes, shrinks_enough};
use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_cut, fmt_duration, Table};

/// Net-size power-law exponent of both instances: mass concentrated on
/// 2- and 3-pin nets, as in real netlists.
const GAMMA: f64 = 1.8;

/// Runs the huge-netlist feasibility experiment.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if the Rent parameters are rejected
/// (impossible for the shapes the profiles produce).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let (cells, nets) = profile.huge_netlist_shape();
    let threads = bisect_par::num_threads();
    let mut table = Table::new(
        format!("Huge-netlist feasibility: {cells} cells, {nets} nets, {threads} threads"),
        [
            "netlist", "algo", "net cut", "time", "refine", "rounds", "Mprop/s", "kcell/s",
            "peak RSS",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for (which, locality, label, setting) in [
        (
            0u64,
            0.02f64,
            format!("Rent({cells}, loc 2%)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=0.02"),
        ),
        (
            1u64,
            1.0f64,
            format!("Rent({cells}, global)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=1"),
        ),
    ] {
        let seed = derive_seed(profile.seed, &[41, cells as u64, which]);
        let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
        let params = RentNetlistParams::new(cells, nets, 8.min(cells), GAMMA, locality)?;
        let nl = sample_streamed(&mut gen_rng, &params);
        let begin = Instant::now();
        let outcome = bisect_huge_netlist(&nl, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            outcome.proposals as f64 / total_time_s
        } else {
            0.0
        };
        let cells_per_sec = if total_time_s > 0.0 {
            cells as f64 / total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            "PNetFM".into(),
            fmt_cut(outcome.cut as f64),
            fmt_duration(elapsed),
            format!("{:.0}ms", outcome.refine_time_s * 1000.0),
            outcome.rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            format!("{:.0}", cells_per_sec / 1.0e3),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge-netlist".into(),
            setting,
            algorithm: "PNetFM".into(),
            mean_cut: outcome.cut as f64,
            total_time_s,
            mean_passes: outcome.rounds as f64,
            proposals: outcome.proposals as f64,
            proposals_per_sec,
            refine_time_s: outcome.refine_time_s,
            hpwl: 0.0,
            graphs: 1,
        });
    }
    Ok(ExperimentResult {
        id: "huge-netlist".into(),
        title: "Million-cell netlist feasibility: streaming pin-CSR build, BFS cell reorder, \
                parallel multilevel"
            .into(),
        tables: vec![table],
        records,
    })
}

/// Result of one huge netlist bisection.
struct HugeNetlistOutcome {
    cut: u64,
    rounds: u64,
    proposals: u64,
    /// Wall time of the refinement phase alone: from the initial
    /// coarsest-netlist partition through the final polish, excluding
    /// generation, reordering, and ladder construction.
    refine_time_s: f64,
}

/// BFS cell reorder → parallel multilevel V-cycle → map back. The
/// returned net cut is re-verified on the *original* netlist, so the
/// relabeling is provably cut-preserving in every run, not just in
/// tests.
fn bisect_huge_netlist(nl: &Netlist, seed: u64, threads: usize) -> HugeNetlistOutcome {
    let order = bfs_cell_order(nl);
    let nlr = permute_cells(nl, &order);

    let matcher = ParallelCellMatching::new().with_threads(threads);
    let pnfm = ParallelNetlistFm::new().with_threads(threads);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let _ = ws.take_proposals();

    // Coarsen down to the target size through the scratch-reusing
    // contraction: one arena serves every level. A level must pass the
    // 5% stall guard to be kept: netlists carry netless and
    // degenerate-net cells that can never match.
    let target = coarse_target(nlr.num_cells());
    let mut ladder: Vec<NetlistContraction> = Vec::new();
    let mut scratch = NetlistContractionScratch::new();
    while current_netlist(&nlr, &ladder).num_cells() > target {
        let level = current_netlist(&nlr, &ladder);
        let before = level.num_cells();
        let pairs = matcher.matching(level);
        if pairs.is_empty() {
            break;
        }
        let c = contract_cells_into(level, &pairs, &mut scratch);
        if shrinks_enough(before, c.coarse().num_cells()) {
            ladder.push(c);
        } else {
            break;
        }
    }

    // Initial partition on the coarsest netlist. The coarsest level
    // sets the basin every finer level refines within, so it gets the
    // serial FM refiner — whose pass mechanics cross gain hills —
    // rather than the strictly greedy parallel one. Its run leaves
    // `ws.netlist_cache` exact for the bisection it returns.
    let refine_begin = Instant::now();
    let coarsest = current_netlist(&nlr, &ladder);
    let p = NetlistBisection::random_balanced(coarsest, &mut rng);
    let mut rounds = 0u64;
    let mut dummy = LaggedFibonacci::seed_from_u64(0);
    let fm = NetlistFm::new();
    let (refined, r) = fm.refine_counted(coarsest, &[], p, &mut dummy, &mut ws);
    rounds += r;

    // Uncoarsen under the projected-cache protocol: the cache is
    // *projected* through every contraction on the way up — no level
    // pays the O(cells + pins) rebuild, and each level's
    // boundary-seeded ParallelNetlistFm rounds touch only the cut
    // boundary instead of the whole cell range.
    let mut current = refined;
    for i in (0..ladder.len()).rev() {
        let sides = ladder[i].project_sides(current.sides());
        let level: &Netlist = if i == 0 { &nlr } else { ladder[i - 1].coarse() };
        let projected =
            NetlistBisection::from_sides(level, sides).expect("projected sides match level size");
        ws.project_netlist_cache(level, &projected, ladder[i].fine_to_coarse());
        let (refined, r) =
            pnfm.refine_projected_counted(level, &[], projected, &mut dummy, &mut ws);
        rounds += r;
        current = refined;
    }

    // Restore exact balance on the finest netlist and give local
    // search one more shot from the rebalanced state. The cache is
    // exact for `current`, so rebalancing rides its O(1) gains and
    // keeps it exact for the final boundary polish.
    rebalance_with_cache(&nlr, &mut current, &[], ws.netlist_cache_mut());
    let (refined, r) = pnfm.refine_projected_counted(&nlr, &[], current, &mut dummy, &mut ws);
    rounds += r;
    let refine_time_s = refine_begin.elapsed().as_secs_f64();

    // Map back to original labels and re-verify the net cut there.
    let mut old_sides = vec![false; nl.num_cells()];
    for (new, &old) in order.iter().enumerate() {
        old_sides[old as usize] = refined.sides()[new];
    }
    let original =
        NetlistBisection::from_sides(nl, old_sides).expect("inverse mapping is a permutation");
    assert_eq!(
        original.cut(),
        refined.cut(),
        "relabeling must preserve the net cut"
    );
    HugeNetlistOutcome {
        cut: original.cut(),
        rounds,
        proposals: ws.take_proposals(),
        refine_time_s,
    }
}

/// Helper: the netlist a ladder of contractions currently bottoms out
/// at.
fn current_netlist<'a>(fine: &'a Netlist, ladder: &'a [NetlistContraction]) -> &'a Netlist {
    ladder.last().map_or(fine, |c| c.coarse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Scale;

    #[test]
    fn smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run(&profile).expect("huge-netlist experiment at smoke scale");
        assert_eq!(result.id, "huge-netlist");
        assert_eq!(result.records.len(), 2);
        for r in &result.records {
            assert_eq!(r.algorithm, "PNetFM");
            assert!(r.mean_cut >= 0.0);
            assert!(r.graphs == 1);
        }
        // The locality-clustered instance confines nets to 2% windows,
        // so a good bisection cuts far fewer nets than the global one.
        assert!(
            result.records[0].mean_cut < result.records[1].mean_cut,
            "local {} vs global {}",
            result.records[0].mean_cut,
            result.records[1].mean_cut
        );
        assert_eq!(result.tables.len(), 1);
        assert_eq!(result.tables[0].rows().len(), 2);
    }

    #[test]
    fn deterministic_at_fixed_threads() {
        let params = RentNetlistParams::new(1500, 2100, 6, GAMMA, 0.1).unwrap();
        let nl = sample_streamed(&mut LaggedFibonacci::seed_from_u64(7), &params);
        let a = bisect_huge_netlist(&nl, 123, 4);
        let b = bisect_huge_netlist(&nl, 123, 4);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.proposals, b.proposals);
    }

    #[test]
    fn huge_netlist_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_netlist_shape(), (100_000, 140_000));
        assert_eq!(p.starts, 1);
    }
}
