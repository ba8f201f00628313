//! The `huge` and `huge-netlist` experiments: million-vertex graph and
//! million-cell netlist bisection feasibility.
//!
//! [`run`] bisects one `Gbreg` and one `Gnp` graph at
//! [`Profile::huge_vertices`] vertices each; [`run_netlists`] bisects
//! two Rent-style netlists (one locality-clustered, one global) at
//! [`Profile::huge_netlist_shape`] cells each. Every instance goes
//! through four steps:
//!
//! 1. **streaming generation** — `Gnp` uses
//!    [`bisect_gen::gnp::sample_streamed`], which never materializes an
//!    edge list (`Gbreg`'s generator streams its staged pair lists
//!    internally), and [`bisect_gen::netlist::sample_streamed`] draws
//!    each net straight into the flat net-major arrays of a
//!    [`NetlistBuilder`](bisect_graph::hypergraph::NetlistBuilder), with
//!    no per-net allocation;
//! 2. **BFS reordering** ([`bisect_graph::reorder::bfs`],
//!    [`bisect_graph::hypergraph::bfs_cell_order`]) so refinement walks
//!    near-contiguous adjacency and pin arrays;
//! 3. **the kind's descriptor** — a V-cycle (`pipeline`,
//!    `netlist_pipeline`) with an rng-free parallel matcher (5% stall
//!    guard) coarsening to `coarse_target`, a weight-balanced random
//!    start refined by serial hill-crossing FM ([`BoundaryFm`],
//!    [`NetlistFm`]) on the coarsest level, and boundary-seeded parallel
//!    FM ([`ParallelFm`], [`ParallelNetlistFm`]) on every finer level.
//!    The engine projects the workspace gain cache through every
//!    contraction and rebalances each projected level on it, so no
//!    level pays an O(cells + pins) rebuild and each refines only the
//!    cut boundary;
//! 4. **inverse mapping** back to the original labels, with the cut
//!    re-verified on the untouched input.
//!
//! One function, `drive`, serves both kinds: it generates and drops
//! one instance at a time, times its solve (reorder through re-verify),
//! and writes its table row and record. Reported per instance: cut,
//! wall time, refinement rounds, gain evaluations per second,
//! end-to-end cell throughput, and the process peak RSS so far. Results
//! are deterministic at a fixed thread count (see the parallel
//! refiners' determinism contract); they are not part of the
//! golden-pinned paper tables.

use std::time::Instant;

use bisect_core::bisector::Bisector;
use bisect_core::fm::BoundaryFm;
use bisect_core::netlist::{
    NetlistBisection, NetlistFm, NetlistPipeline, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::{CoarsenDepth, ParallelMatching, Pipeline};
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::hypergraph::{bfs_cell_order, permute_cells, Netlist};
use bisect_graph::{reorder, Graph};
use rand::SeedableRng;

use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_cut, fmt_duration, Table};

/// Ceiling for the coarsest level's size (or a level stops making
/// progress first). Shared by the graph and netlist pipelines.
const COARSE_TARGET: usize = 5_000;

/// Net-size power-law exponent of both netlists: mass concentrated on
/// 2- and 3-pin nets, as in real netlists.
const GAMMA: f64 = 1.8;

/// Coarsest-level size for an `n`-vertex graph or `n`-cell netlist:
/// small instances still get a few coarsening levels (pure greedy
/// refinement from a random start is much weaker than a V-cycle), huge
/// ones stop at [`COARSE_TARGET`] where the serial seed partition is
/// cheap.
fn coarse_target(n: usize) -> usize {
    (n / 16).clamp(64, COARSE_TARGET)
}

/// What one huge experiment's table and records name: the parts
/// `drive` does not take from the instances.
struct Experiment {
    id: &'static str,
    title: &'static str,
    /// The algorithm column and record field.
    algorithm: &'static str,
    /// The table's instance column, cut column and cell-throughput
    /// column headers.
    columns: [&'static str; 3],
}

/// Generates each of `instances` (its table label and record setting)
/// with `generate`, from its index, and times `solve` on it, which
/// returns the cut, the refinement rounds and the gain evaluations.
/// One instance is alive at a time. `caption` names the instance shape
/// and `cells` is each instance's size, for the throughput column.
fn drive<T>(
    experiment: Experiment,
    caption: &str,
    cells: usize,
    instances: [(String, String); 2],
    mut generate: impl FnMut(u64) -> Result<(T, u64), BenchError>,
    solve: impl Fn(&T, u64, usize) -> (u64, u64, u64),
) -> Result<ExperimentResult, BenchError> {
    let threads = bisect_par::num_threads();
    let [instance, cut, rate] = experiment.columns;
    let mut table = Table::new(
        format!("{caption}, {threads} threads"),
        [
            instance, "algo", cut, "time", "rounds", "Mprop/s", rate, "peak RSS",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for (which, (label, setting)) in (0u64..).zip(instances) {
        let (level, seed) = generate(which)?;
        let begin = Instant::now();
        let (cut, rounds, proposals) = solve(&level, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let record = BenchRecord {
            experiment: experiment.id.into(),
            setting,
            algorithm: experiment.algorithm.into(),
            mean_cut: cut as f64,
            total_time_s: elapsed.as_secs_f64(),
            mean_passes: rounds as f64,
            proposals: proposals as f64,
            hpwl: 0.0,
            graphs: 1,
        };
        let cells_per_sec = if record.total_time_s > 0.0 {
            cells as f64 / record.total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            experiment.algorithm.into(),
            fmt_cut(record.mean_cut),
            fmt_duration(elapsed),
            rounds.to_string(),
            format!("{:.2}", record.proposals_per_sec() / 1.0e6),
            format!("{:.0}", cells_per_sec / 1.0e3),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(record);
    }
    Ok(ExperimentResult {
        id: experiment.id.into(),
        title: experiment.title.into(),
        tables: vec![table],
        records,
    })
}

/// Runs the huge-instance feasibility experiment on graphs.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if instance generation fails (for the
/// fixed `d = 4`, `b = 64` parameters this is vanishingly rare).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let n = profile.huge_vertices();
    let experiment = Experiment {
        id: "huge",
        title: "Million-vertex feasibility: streaming build, BFS reorder, parallel multilevel",
        algorithm: "PFM",
        columns: ["graph", "cut", "kvert/s"],
    };
    let instances = [
        (
            format!("Gbreg({n}, 64, 4)"),
            format!("gbreg n={n} d=4 b=64"),
        ),
        (format!("Gnp({n}, deg 3)"), format!("gnp n={n} deg=3")),
    ];
    let generate = |which| {
        let seed = derive_seed(profile.seed, &[40, n as u64, which]);
        let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
        let g = match which {
            0 => {
                let params = gbreg::GbregParams::new(n, 64.min(n / 4), 4)?;
                gbreg::sample(&mut gen_rng, &params)?
            }
            _ => {
                let params = gnp::GnpParams::with_average_degree(n, 3.0)?;
                gnp::sample_streamed(&mut gen_rng, &params)
            }
        };
        Ok((g, seed))
    };
    drive(
        experiment,
        &format!("Huge-instance feasibility: {n} vertices"),
        n,
        instances,
        generate,
        |g, seed, threads| {
            let (p, rounds, proposals) = solve(g, seed, threads);
            (p.cut(), rounds, proposals)
        },
    )
}

/// Runs the huge-instance feasibility experiment on netlists.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if the Rent parameters are rejected
/// (impossible for the shapes the profiles produce).
pub fn run_netlists(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let (cells, nets) = profile.huge_netlist_shape();
    let experiment = Experiment {
        id: "huge-netlist",
        title: "Million-cell netlist feasibility: streaming pin-CSR build, BFS cell reorder, \
                parallel multilevel",
        algorithm: "PNetFM",
        columns: ["netlist", "net cut", "kcell/s"],
    };
    let instances = [
        (
            format!("Rent({cells}, loc 2%)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=0.02"),
        ),
        (
            format!("Rent({cells}, global)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=1"),
        ),
    ];
    drive(
        experiment,
        &format!("Huge-netlist feasibility: {cells} cells, {nets} nets"),
        cells,
        instances,
        |which| instance(profile, which, [0.02, 1.0][which as usize]),
        |nl, seed, threads| {
            let (p, rounds, proposals) = solve_netlist(nl, seed, threads);
            (p.cut(), rounds, proposals)
        },
    )
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

/// The graph experiment's engine descriptor for an `n`-vertex graph.
/// The coarsest level sets the basin every finer level refines within,
/// so it gets the serial FM refiner, whose pass mechanics cross gain
/// hills, rather than the strictly greedy parallel one.
fn pipeline(n: usize, threads: usize) -> Pipeline {
    let pfm = ParallelFm::new()
        .with_threads(threads)
        .with_boundary_seeds();
    Pipeline::multilevel_to(pfm, coarse_target(n))
        .expect("coarse_target is at least 64")
        .with_coarsener(ParallelMatching::new().with_threads(threads))
        .with_coarsest(BoundaryFm::new())
}

/// The netlist experiment's engine descriptor for an `n`-cell netlist,
/// with the serial FM refiner on the coarsest level as in [`pipeline`].
fn netlist_pipeline(n: usize, threads: usize) -> NetlistPipeline {
    NetlistPipeline::new(
        CoarsenDepth::ToSize(coarse_target(n)),
        ParallelNetlistFm::new().with_threads(threads),
        "PNetFM",
    )
    .expect("coarse_target is at least 64")
    .with_coarsener(ParallelCellMatching::new().with_threads(threads))
    .with_coarsest(NetlistFm::new())
}

/// BFS reorder → [`pipeline`] → map back. Returns the bisection in
/// `g`'s own labels, the refinement rounds and the gain evaluations.
/// The cut is re-verified on `g` itself, so the reordering is provably
/// cut-preserving in every run, not just in tests.
fn solve(g: &Graph, seed: u64, threads: usize) -> (Bisection, u64, u64) {
    let order = reorder::bfs(g);
    let gr = order.apply(g);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let (p, rounds) = pipeline(gr.num_vertices(), threads).bisect_counted(&gr, &mut rng, &mut ws);
    let original = Bisection::from_sides(g, order.to_old_sides(p.sides()))
        .expect("inverse mapping is a permutation");
    assert_eq!(original.cut(), p.cut(), "reordering must preserve the cut");
    (original, rounds, ws.take_proposals())
}

/// BFS cell reorder → [`netlist_pipeline`] → map back, as [`solve`].
/// The net cut is re-verified on `nl` itself.
fn solve_netlist(nl: &Netlist, seed: u64, threads: usize) -> (NetlistBisection, u64, u64) {
    let order = bfs_cell_order(nl);
    let nlr = permute_cells(nl, &order);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let (p, rounds) =
        netlist_pipeline(nlr.num_cells(), threads).bisect_counted(&nlr, &mut rng, &mut ws);
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

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface does not exist.
pub fn peak_rss_bytes() -> u64 {
    peak_rss().0
}

/// As [`peak_rss_bytes`], with an explanation when the value degrades
/// to 0: the field is still *recorded* (as 0) so the report schema
/// stays uniform across platforms, and the note tells the reader (and
/// the `repro` log) why it is 0 instead of silently looking like a
/// measurement.
pub fn peak_rss() -> (u64, Option<&'static str>) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (
            0,
            Some("/proc/self/status unavailable on this platform; peak RSS recorded as 0"),
        );
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            if kb == 0 {
                return (
                    0,
                    Some("VmHWM in /proc/self/status did not parse; peak RSS recorded as 0"),
                );
            }
            return (kb * 1024, None);
        }
    }
    (
        0,
        Some("/proc/self/status has no VmHWM line; peak RSS recorded as 0"),
    )
}

/// Formats a byte count as MiB for the table.
fn fmt_bytes(bytes: u64) -> String {
    if bytes == 0 {
        "n/a".into()
    } else {
        format!("{:.0} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Scale;

    #[test]
    fn smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run(&profile).expect("huge experiment at smoke scale");
        assert_eq!(result.id, "huge");
        assert_eq!(result.records.len(), 2);
        for r in &result.records {
            assert_eq!(r.algorithm, "PFM");
            assert!(r.mean_cut >= 0.0);
            assert!(r.graphs == 1);
        }
        // Gbreg plants a 64-edge bisection; multilevel local search on
        // 2000 vertices should land well under a random cut (~2000).
        assert!(
            result.records[0].mean_cut < 1000.0,
            "cut {}",
            result.records[0].mean_cut
        );
        assert_eq!(result.tables.len(), 1);
        assert_eq!(result.tables[0].rows().len(), 2);
        // Both kinds' tables share `drive`'s eight columns.
        assert_eq!(result.tables[0].headers().len(), 8);
    }

    #[test]
    fn netlist_smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run_netlists(&profile).expect("huge-netlist experiment at smoke scale");
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
        // Both kinds' tables share `drive`'s eight columns.
        assert_eq!(result.tables[0].headers().len(), 8);
    }

    #[test]
    fn deterministic_at_fixed_threads() {
        let g = bisect_gen::special::grid(40, 40);
        let (a, ra, pa) = solve(&g, 123, 4);
        let (b, rb, pb) = solve(&g, 123, 4);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        assert!(a.is_balanced(&g));
    }

    #[test]
    fn netlist_deterministic_at_fixed_threads() {
        let params = RentNetlistParams::new(1500, 2100, 6, GAMMA, 0.1).unwrap();
        let nl = sample_streamed(&mut LaggedFibonacci::seed_from_u64(7), &params);
        let (a, ra, pa) = solve_netlist(&nl, 123, 4);
        let (b, rb, pb) = solve_netlist(&nl, 123, 4);
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
        let (p, _, _) = solve_netlist(&nl, seed ^ 0xABCD, 1);
        assert!(
            p.cut() <= split,
            "pipeline cut {} vs index split {split}",
            p.cut()
        );
    }

    #[test]
    fn huge_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_vertices(), 100_000);
        assert_eq!(p.huge_netlist_shape(), (100_000, 140_000));
        assert_eq!(p.starts, 1);
    }

    #[test]
    fn peak_rss_reports_something_on_linux() {
        // On Linux /proc exists and the value is at least a megabyte;
        // elsewhere the function degrades to 0.
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 1 << 20, "rss {rss}");
        }
    }

    #[test]
    fn fmt_bytes_handles_zero_and_large() {
        assert_eq!(fmt_bytes(0), "n/a");
        assert_eq!(fmt_bytes(512 * 1024 * 1024), "512 MiB");
    }

    #[test]
    fn coarse_target_clamps_to_64_and_the_ceiling() {
        assert_eq!(coarse_target(100), 64);
        assert_eq!(coarse_target(32_000), 2_000);
        assert_eq!(coarse_target(1_000_000), COARSE_TARGET);
    }
}
