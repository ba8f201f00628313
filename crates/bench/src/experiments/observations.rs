//! Observation experiments: the qualitative claims of §VI rendered as
//! tables.
//!
//! * **Observation 1** — KL and SA degrade sharply from degree 4 to
//!   degree 3 on `Gbreg`; degree-4 instances are solved to the planted
//!   width and faster.
//! * **Observation 4** — KL is faster than SA and usually better,
//!   except on binary trees and ladder graphs where SA wins.

use bisect_core::bisector::Refiner;
use bisect_core::kl::KernighanLin;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, special};
use rand::SeedableRng;

use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::quad_records;
use crate::profile::Profile;
use crate::runner::{QuadAverage, Suite};
use crate::table::{fmt_duration, Table};

/// Observation 1: the degree-3 vs degree-4 cliff on `Gbreg`. Rows per
/// degree report found/planted cut ratios and times for all four
/// algorithms.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if the `Gbreg` parameters are infeasible
/// or the randomized construction exhausts its restarts.
pub fn obs1(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let suite = Suite::for_profile(profile);
    let size = *profile
        .random_model_sizes()
        .last()
        .expect("profile has sizes");
    let b0 = profile.gbreg_widths()[profile.gbreg_widths().len() / 2];
    let mut table = Table::new(
        format!("Observation 1: Gbreg({size}, b≈{b0}, d) quality cliff (cut / planted b)"),
        [
            "d",
            "b",
            "SA ratio",
            "CSA ratio",
            "KL ratio",
            "CKL ratio",
            "KL passes",
            "t_SA",
            "t_KL",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for d in [3usize, 4] {
        let b = super::random::feasible_width(size / 2, d, b0);
        let params = gbreg::GbregParams::new(size, b, d)?;
        let reps = bisect_par::par_map(profile.replicates, |rep| {
            let seed = derive_seed(profile.seed, &[50, d as u64, rep as u64]);
            let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
            let g = gbreg::sample(&mut gen_rng, &params)?;
            let quad = suite.run(&g, profile.starts, seed ^ 0xABCD);
            // Pass count behind the speed difference ("it takes fewer
            // passes for the algorithms to converge on degree 4").
            let init = bisect_core::seed::random_balanced(&g, &mut gen_rng);
            let (_, passes) =
                KernighanLin::new().refine_counted(&g, init, &mut gen_rng, &mut Workspace::new());
            Ok::<_, bisect_gen::GenError>((quad, passes))
        });
        let reps = reps.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut ratios = [0.0f64; 4];
        let mut t_sa = std::time::Duration::ZERO;
        let mut t_kl = std::time::Duration::ZERO;
        let mut kl_passes = 0u64;
        let mut avg = QuadAverage::default();
        for (quad, passes) in &reps {
            let (sa, csa, kl, ckl) = quad;
            for (i, r) in [sa, csa, kl, ckl].iter().enumerate() {
                ratios[i] += r.cut as f64 / b as f64;
            }
            t_sa += sa.elapsed;
            t_kl += kl.elapsed;
            kl_passes += passes;
            avg.add(quad);
        }
        records.extend(quad_records("obs1", &format!("d={d} b={b}"), &avg.finish()));
        let n = profile.replicates as f64;
        table.push_row(vec![
            d.to_string(),
            b.to_string(),
            format!("{:.1}x", ratios[0] / n),
            format!("{:.1}x", ratios[1] / n),
            format!("{:.1}x", ratios[2] / n),
            format!("{:.1}x", ratios[3] / n),
            format!("{:.1}", kl_passes as f64 / n),
            fmt_duration(t_sa / profile.replicates as u32),
            fmt_duration(t_kl / profile.replicates as u32),
        ]);
    }
    Ok(ExperimentResult {
        id: "obs1".into(),
        title: "Observation 1: algorithms improve as average degree increases".into(),
        tables: vec![table],
        records,
    })
}

/// Observation 4: KL vs SA head to head — speed everywhere, quality on
/// special graphs (SA wins on trees and ladders).
///
/// # Errors
///
/// Currently infallible (special-graph construction cannot fail); the
/// `Result` keeps the signature uniform across experiments.
pub fn obs4(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let suite = Suite::for_profile(profile);
    let mut table = Table::new(
        "Observation 4: KL vs SA (uncompacted, best of starts)",
        [
            "graph",
            "bkl",
            "bsa",
            "t_KL",
            "t_SA",
            "SA/KL time",
            "quality winner",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let grid_side = *profile.grid_sides().last().expect("profile has grid sizes");
    let rungs = *profile
        .ladder_rungs()
        .last()
        .expect("profile has ladder sizes");
    let tree = *profile.tree_sizes().last().expect("profile has tree sizes");
    let workloads: Vec<(String, bisect_graph::Graph)> = vec![
        (
            format!("grid {grid_side}x{grid_side}"),
            special::grid(grid_side, grid_side),
        ),
        (format!("ladder 2x{rungs}"), special::ladder(rungs)),
        (format!("binary tree {tree}"), special::binary_tree(tree)),
    ];
    let runs = bisect_par::par_map(workloads.len(), |i| {
        let seed = derive_seed(profile.seed, &[60, i as u64]);
        suite.run(&workloads[i].1, profile.starts, seed)
    });
    let mut records = Vec::new();
    for ((label, _), quad) in workloads.iter().zip(&runs) {
        let (sa, _, kl, _) = quad;
        let mut avg = QuadAverage::default();
        avg.add(quad);
        records.extend(quad_records("obs4", label, &avg.finish()));
        let time_ratio = if kl.elapsed.as_secs_f64() > 0.0 {
            sa.elapsed.as_secs_f64() / kl.elapsed.as_secs_f64()
        } else {
            0.0
        };
        let winner = match kl.cut.cmp(&sa.cut) {
            std::cmp::Ordering::Less => "KL",
            std::cmp::Ordering::Greater => "SA",
            std::cmp::Ordering::Equal => "tie",
        };
        table.push_row(vec![
            label.clone(),
            kl.cut.to_string(),
            sa.cut.to_string(),
            fmt_duration(kl.elapsed),
            fmt_duration(sa.elapsed),
            format!("{time_ratio:.1}x"),
            winner.into(),
        ]);
    }
    Ok(ExperimentResult {
        id: "obs4".into(),
        title: "Observation 4: KL is faster; SA wins trees and ladders".into(),
        tables: vec![table],
        records,
    })
}

/// §VI head-to-head claim: "On graphs of average degree of 2.5 to 3.5,
/// when a noticeable difference was observed in the quality of the
/// bisection returned, the Kernighan-Lin procedure had the better
/// bisection sixty percent of the time." Counts KL-better / SA-better /
/// tie over a `G2set` corpus at those degrees.
///
/// # Errors
///
/// Currently infallible (infeasible `(degree, b)` instances are skipped
/// by design); the `Result` keeps the signature uniform.
pub fn winrate(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let suite = Suite::for_profile(profile);
    let size = *profile
        .random_model_sizes()
        .first()
        .expect("profile has sizes");
    let mut table = Table::new(
        format!("KL vs SA quality head-to-head on G2set({size}, ·, ·, b), best of starts"),
        [
            "deg",
            "KL better",
            "SA better",
            "tie",
            "KL share of decided",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for &degree in &[2.5f64, 3.0, 3.5] {
        let instances = (profile.replicates * 4).max(4);
        let outcomes = bisect_par::par_map(instances, |rep| {
            let b = profile.g2set_widths()[rep % profile.g2set_widths().len()];
            let Ok(params) = bisect_gen::g2set::G2setParams::with_average_degree(size, degree, b)
            else {
                return None;
            };
            let seed = derive_seed(profile.seed, &[80, degree.to_bits(), rep as u64]);
            let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
            let g = bisect_gen::g2set::sample(&mut gen_rng, &params);
            let (sa, _, kl, _) = suite.run(&g, profile.starts, seed ^ 0xABCD);
            Some(kl.cut.cmp(&sa.cut))
        });
        let mut kl_wins = 0usize;
        let mut sa_wins = 0usize;
        let mut ties = 0usize;
        for outcome in outcomes.into_iter().flatten() {
            match outcome {
                std::cmp::Ordering::Less => kl_wins += 1,
                std::cmp::Ordering::Greater => sa_wins += 1,
                std::cmp::Ordering::Equal => ties += 1,
            }
        }
        let decided = kl_wins + sa_wins;
        let share = if decided == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", kl_wins as f64 / decided as f64 * 100.0)
        };
        table.push_row(vec![
            format!("{degree}"),
            kl_wins.to_string(),
            sa_wins.to_string(),
            ties.to_string(),
            share,
        ]);
    }
    Ok(ExperimentResult {
        id: "winrate".into(),
        title: "§VI head-to-head: KL wins ~60% of decided instances at degree 2.5-3.5".into(),
        tables: vec![table],
        records: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winrate_rows_and_consistency() {
        let result = winrate(&Profile::smoke()).unwrap();
        assert_eq!(result.tables[0].rows().len(), 3);
        for row in result.tables[0].rows() {
            let kl: usize = row[1].parse().unwrap();
            let sa: usize = row[2].parse().unwrap();
            let tie: usize = row[3].parse().unwrap();
            assert!(kl + sa + tie >= 4);
        }
    }

    #[test]
    fn obs1_rows_per_degree() {
        let result = obs1(&Profile::smoke()).unwrap();
        assert_eq!(result.tables[0].rows().len(), 2);
        assert_eq!(result.tables[0].rows()[0][0], "3");
        assert_eq!(result.tables[0].rows()[1][0], "4");
    }

    #[test]
    fn obs4_covers_three_workloads() {
        let result = obs4(&Profile::smoke()).unwrap();
        assert_eq!(result.tables[0].rows().len(), 3);
        let winners: Vec<&str> = result.tables[0]
            .rows()
            .iter()
            .map(|r| r.last().unwrap().as_str())
            .collect();
        for w in winners {
            assert!(["KL", "SA", "tie"].contains(&w));
        }
    }
}
