//! The `placement` experiment: recursive k-way netlist partitioning
//! with terminal propagation, scored as a placement.
//!
//! A Rent's-rule-style random netlist
//! ([`bisect_gen::netlist::sample`]) is split into `parts` regions two
//! ways:
//!
//! * **native** — [`bisect_core::netlist::recursive_placement`] with
//!   the multilevel hypergraph pipeline
//!   ([`NetlistPipeline::multilevel_fm`]): heavy-net coarsening, net-cut
//!   FM with a projected gain cache, and terminal-propagation anchors
//!   biasing each sub-bisection toward the external pins' region;
//! * **clique expansion** — the netlist's clique graph through the
//!   graph-side multilevel KL pipeline's
//!   [`recursive_partition`](bisect_core::pipeline::recursive_partition),
//!   then rescored on the *netlist* objectives.
//!
//! Both report the k-way **net cut** and the **HPWL** (half-perimeter
//! wirelength over part-region centers, the placement quality proxy) of
//! [`NetlistPlacement`]. The point of the table: optimizing net cut
//! natively on the hypergraph beats optimizing the clique surrogate,
//! on the objective VLSI placement actually cares about.
//!
//! Trials fan out over threads with the same bit-identical protocol as
//! the paper tables: per-trial seed streams and a lowest-index-minimal
//! net-cut winner, so results match at any thread count.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use bisect_core::kl::KernighanLin;
use bisect_core::netlist::{recursive_placement_counted, NetlistPipeline, NetlistPlacement};
use bisect_core::pipeline::{recursive_partition, Pipeline};
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample, RentNetlistParams};
use bisect_gen::rng::{LaggedFibonacci, SeedSequence};
use bisect_graph::hypergraph::Netlist;
use rand::SeedableRng;

use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_duration, Table};

thread_local! {
    /// One warm scratch workspace per worker thread for the netlist
    /// trials (the runner's graph workspace is private to it).
    static NETLIST_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Net-size power-law exponent of the generated instances.
const GAMMA: f64 = 2.2;
/// Pin-window fraction of the generated instances.
const LOCALITY: f64 = 0.1;
/// Largest net size of the generated instances.
const MAX_NET_SIZE: usize = 6;

/// Outcome of one best-of-starts placement run.
struct PlacementResult {
    placement: NetlistPlacement,
    /// Total productive passes across the starts.
    work: u64,
    /// Total wall time across the starts (summed per trial).
    elapsed: Duration,
}

/// Best-of-`starts` native recursive placement, bit-identical at any
/// thread count (per-trial seed streams, lowest-index-minimal winner).
fn run_native(
    nl: &Netlist,
    parts: usize,
    starts: usize,
    seed: u64,
    threads: usize,
) -> Result<PlacementResult, BenchError> {
    let pipeline = NetlistPipeline::multilevel_fm();
    let seq = SeedSequence::new(seed);
    let trials = bisect_par::par_map_with(threads, starts.max(1), |i| {
        NETLIST_WORKSPACE.with(|ws| {
            let mut ws = ws.borrow_mut();
            let mut rng = seq.rng(i as u64);
            let begin = Instant::now();
            let result = recursive_placement_counted(&pipeline, nl, parts, &mut rng, &mut ws);
            result.map(|(p, work)| (p, work, begin.elapsed()))
        })
    });
    collect_best(nl, trials)
}

/// Best-of-`starts` clique-expansion partitioning (multilevel KL on
/// [`Netlist::to_clique_graph`]), rescored as a [`NetlistPlacement`].
fn run_clique(
    nl: &Netlist,
    parts: usize,
    starts: usize,
    seed: u64,
    threads: usize,
) -> Result<PlacementResult, BenchError> {
    let clique = nl.to_clique_graph();
    let pipeline = Pipeline::multilevel(KernighanLin::new());
    let seq = SeedSequence::new(seed);
    let trials = bisect_par::par_map_with(threads, starts.max(1), |i| {
        let mut rng = seq.rng(i as u64);
        let begin = Instant::now();
        let kway = recursive_partition(&pipeline, &clique, parts, &mut rng)?;
        let placement = NetlistPlacement::from_labels(nl, kway.labels().to_vec(), parts)?;
        Ok((placement, 0u64, begin.elapsed()))
    });
    collect_best(nl, trials)
}

/// Sums trial times/work and picks the lowest-indexed minimal net cut.
fn collect_best(
    nl: &Netlist,
    trials: Vec<Result<(NetlistPlacement, u64, Duration), bisect_core::error::BisectError>>,
) -> Result<PlacementResult, BenchError> {
    let mut best: Option<(NetlistPlacement, u64)> = None;
    let mut work = 0u64;
    let mut elapsed = Duration::ZERO;
    for trial in trials {
        let (placement, trial_work, trial_time) = trial?;
        work += trial_work;
        elapsed += trial_time;
        let cut = placement.net_cut(nl);
        if best.as_ref().is_none_or(|(_, b)| cut < *b) {
            best = Some((placement, cut));
        }
    }
    let (placement, _) = best.expect("at least one start");
    Ok(PlacementResult {
        placement,
        work,
        elapsed,
    })
}

/// Runs the placement experiment.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] for infeasible generator parameters and
/// propagates pipeline errors (none expected for the fixed shapes).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let (cells, nets, parts, instances) = profile.placement_shape();
    let threads = bisect_par::num_threads();
    let params = RentNetlistParams::new(cells, nets, MAX_NET_SIZE, GAMMA, LOCALITY)?;
    let mut table = Table::new(
        format!(
            "Recursive {parts}-way placement of Rent-style netlists \
             ({cells} cells, {nets} nets): native net-cut FM vs clique expansion"
        ),
        ["instance", "algo", "net cut", "HPWL", "passes", "time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let mut records = Vec::new();
    for instance in 0..instances {
        let seed = derive_seed(profile.seed, &[80, instance as u64]);
        let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
        let nl = sample(&mut gen_rng, &params);
        let setting = format!("rent n={cells} nets={nets} parts={parts} i={instance}");
        for (algo, result) in [
            (
                "NetFM-ML",
                run_native(&nl, parts, profile.starts, seed ^ 0xABCD, threads)?,
            ),
            (
                "CliqueKL-ML",
                run_clique(&nl, parts, profile.starts, seed ^ 0xCDEF, threads)?,
            ),
        ] {
            let cut = result.placement.net_cut(&nl);
            let hpwl = result.placement.hpwl(&nl);
            table.push_row(vec![
                format!("#{instance}"),
                algo.into(),
                cut.to_string(),
                format!("{hpwl:.1}"),
                result.work.to_string(),
                fmt_duration(result.elapsed),
            ]);
            records.push(BenchRecord {
                experiment: "placement".into(),
                setting: setting.clone(),
                algorithm: algo.into(),
                mean_cut: cut as f64,
                total_time_s: result.elapsed.as_secs_f64(),
                mean_passes: result.work as f64,
                proposals: 0.0,
                proposals_per_sec: 0.0,
                hpwl,
                graphs: 1,
            });
        }
    }
    Ok(ExperimentResult {
        id: "placement".into(),
        title: "Recursive k-way netlist placement: native multilevel net-cut FM with terminal \
                propagation vs the clique approximation"
            .into(),
        tables: vec![table],
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run(&profile).expect("placement at smoke scale");
        assert_eq!(result.id, "placement");
        // One instance, two algorithms.
        assert_eq!(result.records.len(), 2);
        let native = &result.records[0];
        let clique = &result.records[1];
        assert_eq!(native.algorithm, "NetFM-ML");
        assert_eq!(clique.algorithm, "CliqueKL-ML");
        // The point of the experiment: optimizing net cut natively must
        // not lose to the clique surrogate on its own objective.
        assert!(
            native.mean_cut <= clique.mean_cut,
            "native {} vs clique {}",
            native.mean_cut,
            clique.mean_cut
        );
        for r in &result.records {
            assert!(r.mean_cut > 0.0);
            assert!(r.hpwl > 0.0, "{} hpwl {}", r.algorithm, r.hpwl);
            assert_eq!(r.graphs, 1);
        }
        assert_eq!(result.tables[0].rows().len(), 2);
    }

    #[test]
    fn identical_across_thread_counts() {
        let (cells, nets, parts, _) = Profile::smoke().placement_shape();
        let params = RentNetlistParams::new(cells, nets, MAX_NET_SIZE, GAMMA, LOCALITY).unwrap();
        let nl = sample(&mut LaggedFibonacci::seed_from_u64(99), &params);
        let serial = run_native(&nl, parts, 4, 5, 1).unwrap();
        for threads in [2, 4] {
            let par = run_native(&nl, parts, 4, 5, threads).unwrap();
            assert_eq!(par.placement, serial.placement, "threads {threads}");
            assert_eq!(par.work, serial.work, "threads {threads}");
        }
    }
}
