//! The `huge` experiment: million-vertex bisection feasibility.
//!
//! One `Gbreg` and one `Gnp` instance at [`Profile::huge_vertices`]
//! vertices each go through the cache-conscious large-instance
//! pipeline:
//!
//! 1. **streaming generation** — `Gnp` uses
//!    [`bisect_gen::gnp::sample_streamed`], which never materializes an
//!    edge list (`Gbreg`'s generator streams its staged pair lists
//!    internally);
//! 2. **BFS vertex reordering** ([`bisect_graph::reorder::bfs`]) so
//!    refinement walks near-contiguous adjacency;
//! 3. **parallel multilevel bisection** —
//!    [`ParallelMatching`](bisect_core::pipeline::ParallelMatching)
//!    (heavy-edge) coarsening, a weight-balanced random start plus
//!    serial hill-crossing FM on the coarsest graph, then
//!    *boundary-localized* uncoarsening: the workspace
//!    [`GainCache`](bisect_core::gain_cache::GainCache) is built once
//!    at the coarsest level and **projected** through every
//!    contraction on the way back up, where boundary-seeded
//!    [`ParallelFm`](bisect_core::par_fm::ParallelFm) rounds refine
//!    only the tracked cut boundary instead of sweeping all vertices;
//! 4. **inverse mapping** back to the original vertex labels, with the
//!    cut re-verified on the untouched input graph.
//!
//! Reported per instance: cut, wall time, refinement-phase wall time
//! (initial partition through final polish), refinement rounds, gain
//! evaluations per second, and the process peak RSS so far. Results are
//! deterministic at a fixed thread count (see the `ParallelFm`
//! determinism contract); they are not part of the golden-pinned paper
//! tables.

use std::time::Instant;

use bisect_core::bisector::Refiner;
use bisect_core::fm::BoundaryFm;
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::{rebalance_with_cache, Bisection};
use bisect_core::pipeline::{CoarsenScheme, ParallelMatching};
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::contraction::Contraction;
use bisect_graph::{reorder, Graph};
use rand::SeedableRng;

use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_cut, fmt_duration, Table};

/// Ceiling for the coarsest level's size (or a level stops making
/// progress first). Shared by the graph and netlist ladders.
const COARSE_TARGET: usize = 5_000;

/// Coarsest-level size for an `n`-vertex graph or `n`-cell netlist:
/// small instances still get a few coarsening levels (pure greedy
/// refinement from a random start is much weaker than a V-cycle), huge
/// ones stop at [`COARSE_TARGET`] where the serial seed partition is
/// cheap.
pub(crate) fn coarse_target(n: usize) -> usize {
    (n / 16).clamp(64, COARSE_TARGET)
}

/// The stall guard of both huge ladders: a level that took `before`
/// vertices (or cells) down to `after` is kept only if it shrank them
/// by at least 5%. Sparse instances carry vertices that can never
/// match, so demanding mere shrinkage would stack near-identical levels
/// once only those remain.
pub(crate) fn shrinks_enough(before: usize, after: usize) -> bool {
    after * 20 <= before * 19
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
            "graph", "algo", "cut", "time", "refine", "rounds", "Mprop/s", "peak RSS",
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
        let outcome = bisect_huge(&g, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            outcome.proposals as f64 / total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            "PFM".into(),
            fmt_cut(outcome.cut as f64),
            fmt_duration(elapsed),
            format!("{:.0}ms", outcome.refine_time_s * 1000.0),
            outcome.rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge".into(),
            setting,
            algorithm: "PFM".into(),
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
        id: "huge".into(),
        title: "Million-vertex feasibility: streaming build, BFS reorder, parallel multilevel"
            .into(),
        tables: vec![table],
        records,
    })
}

/// Result of one huge bisection.
struct HugeOutcome {
    cut: u64,
    rounds: u64,
    proposals: u64,
    /// Wall time of the refinement phase alone: from the initial
    /// coarsest-graph partition through the final polish, excluding
    /// generation, reordering, and ladder construction.
    refine_time_s: f64,
}

/// BFS reorder → parallel multilevel V-cycle → map back. The returned
/// cut is re-verified on the *original* graph, so the reordering is
/// provably cut-preserving in every run, not just in tests.
fn bisect_huge(g: &Graph, seed: u64, threads: usize) -> HugeOutcome {
    let order = reorder::bfs(g);
    let gr = order.apply(g);

    let scheme = ParallelMatching::new().with_threads(threads);
    let pfm = ParallelFm::new()
        .with_threads(threads)
        .with_boundary_seeds();
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let _ = ws.take_proposals();

    // Coarsen down to the target size. A level must pass the 5% stall
    // guard to be kept: sparse random graphs carry isolated vertices
    // (≈ e^-d of Gnp) that can never match.
    let target = coarse_target(g.num_vertices());
    let mut ladder: Vec<Contraction> = Vec::new();
    while current_graph(&gr, &ladder).num_vertices() > target {
        let level = current_graph(&gr, &ladder);
        let before = level.num_vertices();
        match scheme.coarsen(level, &mut rng) {
            Some(c) if shrinks_enough(before, c.coarse().num_vertices()) => {
                ladder.push(c);
            }
            _ => break,
        }
    }

    // Initial partition on the coarsest graph. The coarsest level sets
    // the basin every finer level refines within, so it gets the
    // serial Fiduccia-Mattheyses refiner — whose pass mechanics cross
    // gain hills — rather than the strictly greedy parallel one.
    let refine_begin = Instant::now();
    let coarsest = current_graph(&gr, &ladder);
    let p = seed::weight_balanced_random(coarsest, &mut rng);
    let mut rounds = 0u64;
    let mut dummy = LaggedFibonacci::seed_from_u64(0);
    let fm = BoundaryFm::new();
    let (refined, r) = fm.refine_counted(coarsest, p, &mut dummy, &mut ws);
    rounds += r;

    // Uncoarsen under the projected-cache protocol: the coarsest-level
    // BoundaryFm left `ws.gain_cache` exact for `refined`, and from
    // here it is *projected* through every contraction on the way up —
    // no level pays the O(V + E) cache rebuild, cut bookkeeping rides
    // the projection (projection preserves the cut exactly), and each
    // level's boundary-seeded ParallelFm rounds touch only the cut
    // boundary instead of the whole vertex range.
    let mut current = refined;
    for i in (0..ladder.len()).rev() {
        let sides = ladder[i].project_sides(current.sides());
        let level: &Graph = if i == 0 { &gr } else { ladder[i - 1].coarse() };
        let projected = Bisection::from_sides_with_cut(level, sides, current.cut())
            .expect("projected sides match level size");
        ws.project_gain_cache(level, &projected, ladder[i].fine_to_coarse());
        let (refined, r) = pfm.refine_projected_counted(level, projected, &mut dummy, &mut ws);
        rounds += r;
        current = refined;
    }

    // Restore exact unit balance on the finest graph and give local
    // search one more shot from the rebalanced state. The cache is
    // exact for `current`, so rebalancing rides its O(1) gains and
    // keeps it exact for the boundary polish.
    rebalance_with_cache(&gr, &mut current, ws.gain_cache_mut());
    let (refined, r) = pfm.refine_projected_counted(&gr, current, &mut dummy, &mut ws);
    rounds += r;
    // Quality backstop: one full-range sweep catches any interior
    // cascade the boundary rounds deferred. From an already-converged
    // state this typically terminates in a round or two.
    let full = ParallelFm::new().with_threads(threads);
    let (refined, r) = full.refine_counted(&gr, refined, &mut dummy, &mut ws);
    rounds += r;
    let refine_time_s = refine_begin.elapsed().as_secs_f64();

    // Map back to original labels and re-verify the cut there.
    let old_sides = order.to_old_sides(refined.sides());
    let original = Bisection::from_sides(g, old_sides).expect("inverse mapping is a permutation");
    assert_eq!(
        original.cut(),
        refined.cut(),
        "reordering must preserve the cut"
    );
    HugeOutcome {
        cut: original.cut(),
        rounds,
        proposals: ws.take_proposals(),
        refine_time_s,
    }
}

/// Helper: the graph a ladder of contractions currently bottoms out at.
fn current_graph<'a>(fine: &'a Graph, ladder: &'a [Contraction]) -> &'a Graph {
    ladder.last().map_or(fine, |c| c.coarse())
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
        let a = bisect_huge(&g, 123, 4);
        let b = bisect_huge(&g, 123, 4);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.proposals, b.proposals);
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
    fn stall_guard_keeps_levels_that_shrink_by_five_percent() {
        assert!(shrinks_enough(100, 95));
        assert!(!shrinks_enough(100, 96));
        assert!(!shrinks_enough(100, 100));
        assert_eq!(coarse_target(100), 64);
        assert_eq!(coarse_target(1_000_000), COARSE_TARGET);
    }
}
