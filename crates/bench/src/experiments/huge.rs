//! The `huge` experiment: million-vertex bisection feasibility.
//!
//! One `Gbreg` and one `Gnp` instance at [`Profile::huge_vertices`]
//! vertices each go through four steps:
//!
//! 1. **streaming generation** — `Gnp` uses
//!    [`bisect_gen::gnp::sample_streamed`], which never materializes an
//!    edge list (`Gbreg`'s generator streams its staged pair lists
//!    internally);
//! 2. **BFS vertex reordering** ([`bisect_graph::reorder::bfs`]) so
//!    refinement walks near-contiguous adjacency;
//! 3. **the [`pipeline`] descriptor** — a [`Pipeline`] V-cycle with
//!    [`ParallelMatching`] (heavy-edge, rng-free, 5% stall guard)
//!    coarsening to [`coarse_target`], a weight-balanced random start
//!    refined by serial hill-crossing [`BoundaryFm`] on the coarsest
//!    graph, and boundary-seeded [`ParallelFm`] on every finer level.
//!    The engine projects the workspace gain cache through every
//!    contraction and rebalances each projected level on it, so no
//!    level pays an O(V + E) rebuild and each refines only the cut
//!    boundary;
//! 4. **inverse mapping** back to the original vertex labels, with the
//!    cut re-verified on the untouched input graph.
//!
//! Reported per instance: cut, wall time (reorder through re-verify),
//! refinement rounds, gain evaluations per second, and the process
//! peak RSS so far. Results are deterministic at a fixed thread count
//! (see the `ParallelFm` determinism contract); they are not part of
//! the golden-pinned paper tables.

use std::time::Instant;

use bisect_core::bisector::Bisector;
use bisect_core::fm::BoundaryFm;
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::{ParallelMatching, Pipeline};
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
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

/// Coarsest-level size for an `n`-vertex graph or `n`-cell netlist:
/// small instances still get a few coarsening levels (pure greedy
/// refinement from a random start is much weaker than a V-cycle), huge
/// ones stop at [`COARSE_TARGET`] where the serial seed partition is
/// cheap.
pub(crate) fn coarse_target(n: usize) -> usize {
    (n / 16).clamp(64, COARSE_TARGET)
}

/// The experiment's engine descriptor for an `n`-vertex graph. The
/// coarsest level sets the basin every finer level refines within, so
/// it gets the serial FM refiner, whose pass mechanics cross gain
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

/// Runs the huge-instance feasibility experiment.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if instance generation fails (for the
/// fixed `d = 4`, `b = 64` parameters this is vanishingly rare).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let n = profile.huge_vertices();
    let threads = bisect_par::num_threads();
    let mut table = Table::new(
        format!("Huge-instance feasibility: {n} vertices, {threads} threads"),
        [
            "graph", "algo", "cut", "time", "rounds", "Mprop/s", "peak RSS",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for (which, label, setting) in [
        (
            0u64,
            format!("Gbreg({n}, 64, 4)"),
            format!("gbreg n={n} d=4 b=64"),
        ),
        (1u64, format!("Gnp({n}, deg 3)"), format!("gnp n={n} deg=3")),
    ] {
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
        let begin = Instant::now();
        let (p, rounds, proposals) = solve(&g, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            proposals as f64 / total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            "PFM".into(),
            fmt_cut(p.cut() as f64),
            fmt_duration(elapsed),
            rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge".into(),
            setting,
            algorithm: "PFM".into(),
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
        id: "huge".into(),
        title: "Million-vertex feasibility: streaming build, BFS reorder, parallel multilevel"
            .into(),
        tables: vec![table],
        records,
    })
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

/// Formats a byte count as MiB for the table (shared with the
/// `huge-netlist` twin experiment).
pub(crate) fn fmt_bytes(bytes: u64) -> String {
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
    fn huge_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_vertices(), 100_000);
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
