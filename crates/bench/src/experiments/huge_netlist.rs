//! The `huge-netlist` experiment: million-cell netlist bisection
//! feasibility — the hypergraph twin of the [`huge`](super::huge)
//! graph experiment.
//!
//! Two Rent-style netlists (one locality-clustered, one global) at
//! [`Profile::huge_netlist_shape`] cells each go through four steps:
//!
//! 1. **streaming generation** —
//!    [`bisect_gen::netlist::sample_streamed`] feeds the two-pass
//!    counting-sorted pin-CSR build
//!    ([`NetlistBuilder::stream`](bisect_graph::hypergraph::NetlistBuilder::stream))
//!    and never materializes the flat pin list;
//! 2. **BFS cell reordering**
//!    ([`bisect_graph::hypergraph::bfs_cell_order`]) so refinement
//!    walks near-contiguous pin arrays;
//! 3. **the [`pipeline`] descriptor** — a [`NetlistPipeline`] V-cycle
//!    with [`ParallelCellMatching`] (rng-free, 5% stall guard)
//!    coarsening to [`coarse_target`] through one reused contraction
//!    scratch, a weight-balanced random start refined by serial
//!    hill-crossing [`NetlistFm`] on the coarsest netlist, and
//!    boundary-seeded [`ParallelNetlistFm`] on every finer level. The
//!    engine projects the workspace
//!    [`NetlistGainCache`](bisect_core::netlist::NetlistGainCache)
//!    through every contraction and rebalances each projected level on
//!    it, so no level pays an O(cells + pins) rebuild and each refines
//!    only the cut boundary;
//! 4. **inverse mapping** back to the original cell labels, with the
//!    net cut re-verified on the untouched input netlist.
//!
//! Reported per instance: net cut, wall time (reorder through
//! re-verify), refinement rounds, gain evaluations per second,
//! end-to-end cell throughput, and the process peak RSS so far. Results
//! are deterministic at a fixed thread count (see the
//! `ParallelNetlistFm` determinism contract); they are not part of the
//! golden-pinned paper tables.

use std::time::Instant;

use bisect_core::netlist::{
    NetlistBisection, NetlistFm, NetlistPipeline, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::pipeline::CoarsenDepth;
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{bfs_cell_order, permute_cells, Netlist};
use rand::SeedableRng;

use super::huge::{coarse_target, fmt_bytes, peak_rss_bytes};
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
            "netlist", "algo", "net cut", "time", "rounds", "Mprop/s", "kcell/s", "peak RSS",
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
        let (nl, seed) = instance(profile, which, locality)?;
        let begin = Instant::now();
        let (p, rounds, proposals) = solve(&nl, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            proposals as f64 / total_time_s
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
            fmt_cut(p.cut() as f64),
            fmt_duration(elapsed),
            rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            format!("{:.0}", cells_per_sec / 1.0e3),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge-netlist".into(),
            setting,
            algorithm: "PNetFM".into(),
            mean_cut: p.cut() as f64,
            total_time_s,
            mean_passes: rounds as f64,
            proposals: proposals as f64,
            proposals_per_sec,
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

/// The profile's `which`-th Rent netlist at the given locality, and
/// the seed it was drawn from.
fn instance(profile: &Profile, which: u64, locality: f64) -> Result<(Netlist, u64), BenchError> {
    let (cells, nets) = profile.huge_netlist_shape();
    let seed = derive_seed(profile.seed, &[41, cells as u64, which]);
    let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
    let params = RentNetlistParams::new(cells, nets, 8.min(cells), GAMMA, locality)?;
    Ok((sample_streamed(&mut gen_rng, &params), seed))
}

/// The experiment's engine descriptor for an `n`-cell netlist. The
/// coarsest level sets the basin every finer level refines within, so
/// it gets the serial FM refiner, whose pass mechanics cross gain
/// hills, rather than the strictly greedy parallel one.
fn pipeline(n: usize, threads: usize) -> NetlistPipeline {
    NetlistPipeline::new(
        CoarsenDepth::ToSize(coarse_target(n)),
        ParallelNetlistFm::new().with_threads(threads),
        "PNetFM",
    )
    .expect("coarse_target is at least 64")
    .with_coarsener(ParallelCellMatching::new().with_threads(threads))
    .with_coarsest(NetlistFm::new())
}

/// BFS cell reorder → [`pipeline`] → map back. Returns the bisection in
/// `nl`'s own labels, the refinement rounds and the gain evaluations.
/// The net cut is re-verified on `nl` itself, so the relabeling is
/// provably cut-preserving in every run, not just in tests.
fn solve(nl: &Netlist, seed: u64, threads: usize) -> (NetlistBisection, u64, u64) {
    let order = bfs_cell_order(nl);
    let nlr = permute_cells(nl, &order);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let (p, rounds) = pipeline(nlr.num_cells(), threads).bisect_counted(&nlr, &mut rng, &mut ws);
    let mut old_sides = vec![false; nl.num_cells()];
    for (new, &old) in order.iter().enumerate() {
        old_sides[old as usize] = p.sides()[new];
    }
    let original =
        NetlistBisection::from_sides(nl, old_sides).expect("inverse mapping is a permutation");
    assert_eq!(
        original.cut(),
        p.cut(),
        "relabeling must preserve the net cut"
    );
    (original, rounds, ws.take_proposals())
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
        let (a, ra, pa) = solve(&nl, 123, 4);
        let (b, rb, pb) = solve(&nl, 123, 4);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        assert!(a.is_balanced(&nl));
    }

    #[test]
    fn local_instance_beats_the_index_split() {
        // The locality-clustered generator places each net's pins in a
        // 2% index window, so splitting the cell range in half is a
        // trivial baseline any real partitioner must match.
        let (nl, seed) = instance(&Profile::quick(), 0, 0.02).unwrap();
        let n = nl.num_cells();
        let split = NetlistBisection::from_sides(&nl, (0..n).map(|c| c >= n / 2).collect())
            .unwrap()
            .cut();
        let (p, _, _) = solve(&nl, seed ^ 0xABCD, 1);
        assert!(
            p.cut() <= split,
            "pipeline cut {} vs index split {split}",
            p.cut()
        );
    }

    #[test]
    fn huge_netlist_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_netlist_shape(), (100_000, 140_000));
        assert_eq!(p.starts, 1);
    }
}
