//! Analysis experiments extending the paper's §IV/§VI prose into
//! tables:
//!
//! * [`models`] quantifies the two model critiques of §IV — `Gnp`'s
//!   minimum cut is close to a random cut (so the model cannot
//!   separate good heuristics from mediocre ones), and `G2set`'s
//!   planted bound is loose at small average degree (heuristics beat
//!   `bis`).
//! * [`klpasses`] traces KL's cut pass by pass on a ladder graph,
//!   substantiating the ladder finding of EXPERIMENTS.md: the 1989
//!   "KL fails badly on ladders" behavior is a *pass-budget* artifact;
//!   the fixpoint run converges to the optimum.

use bisect_core::bisector::best_of;
use bisect_core::bisector::RandomBisector;
use bisect_core::kl::KernighanLin;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{g2set, gnp, special};
use rand::SeedableRng;

use super::{derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::profile::Profile;
use crate::runner::Suite;
use crate::table::Table;

/// Model diagnostics: random-cut vs best-found cut per model.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if a profile degree is infeasible for
/// the profile size.
pub fn models(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let suite = Suite::for_profile(profile);
    let size = *profile
        .random_model_sizes()
        .last()
        .expect("profile has sizes");

    // Gnp: best heuristic cut as a fraction of a random cut.
    let mut gnp_table = Table::new(
        format!("Gnp({size}, p): minimum cut is close to a random cut (§IV)"),
        ["deg", "random cut", "best found", "found/random"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for &degree in &profile.gnp_degrees() {
        let params = gnp::GnpParams::with_average_degree(size, degree)?;
        let seed = derive_seed(profile.seed, &[70, degree.to_bits()]);
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = gnp::sample(&mut rng, &params);
        let random = best_of(&RandomBisector::new(), &g, profile.starts, &mut rng).cut();
        let (_, _, kl, ckl) = suite.run(&g, profile.starts, seed ^ 0xABCD);
        let best = kl.cut.min(ckl.cut);
        let ratio = if random == 0 {
            1.0
        } else {
            best as f64 / random as f64
        };
        gnp_table.push_row(vec![
            format!("{degree}"),
            random.to_string(),
            best.to_string(),
            format!("{ratio:.2}"),
        ]);
    }

    // G2set: how often the found cut beats the planted bound at small
    // degree (the bound is not the true width).
    let mut g2set_table = Table::new(
        format!("G2set({size}, pA, pB, b): planted bound vs found cut (§IV)"),
        ["deg", "b", "best found", "beats planted bound"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let b = *profile.g2set_widths().last().expect("profile has widths");
    for &degree in &profile.g2set_degrees() {
        let Ok(params) = g2set::G2setParams::with_average_degree(size, degree, b) else {
            continue;
        };
        let seed = derive_seed(profile.seed, &[71, degree.to_bits()]);
        let mut rng = LaggedFibonacci::seed_from_u64(seed);
        let g = g2set::sample(&mut rng, &params);
        let (_, _, kl, ckl) = suite.run(&g, profile.starts, seed ^ 0xABCD);
        let best = kl.cut.min(ckl.cut);
        g2set_table.push_row(vec![
            format!("{degree}"),
            b.to_string(),
            best.to_string(),
            if best < b as u64 { "yes" } else { "no" }.into(),
        ]);
    }

    Ok(ExperimentResult {
        id: "models".into(),
        title: "Model diagnostics: why the paper introduced Gbreg".into(),
        tables: vec![gnp_table, g2set_table],
        records: vec![],
    })
}

/// KL cut after each pass on a ladder graph, for increasing pass
/// budgets.
///
/// # Errors
///
/// Currently infallible; the `Result` keeps the signature uniform.
pub fn klpasses(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let rungs = *profile
        .ladder_rungs()
        .last()
        .expect("profile has ladder sizes");
    let g = special::ladder(rungs);
    let kl = KernighanLin::new();
    let seed = derive_seed(profile.seed, &[72]);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut p = seed::random_balanced(&g, &mut rng);
    let mut ws = Workspace::new();

    let mut table = Table::new(
        format!("KL cut per pass on the 2x{rungs} ladder (optimal cut: 2)"),
        ["pass", "cut", "improvement"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.push_row(vec!["start".into(), p.cut().to_string(), "-".into()]);
    for pass in 1..=64 {
        let improvement = kl.pass_in(&g, &mut p, &mut ws);
        table.push_row(vec![
            pass.to_string(),
            p.cut().to_string(),
            improvement.to_string(),
        ]);
        if improvement == 0 {
            break;
        }
    }
    Ok(ExperimentResult {
        id: "klpasses".into(),
        title: "KL pass-by-pass convergence on a ladder (the 1989 failure is a pass budget)".into(),
        tables: vec![table],
        records: vec![],
    })
}

/// Hypergraph extension: native net-cut FM (plain and compacted) vs
/// graph algorithms on the clique expansion, all scored by nets cut —
/// the objective of the paper's VLSI motivation.
///
/// # Errors
///
/// Currently infallible (the synthesized netlist is valid by
/// construction); the `Result` keeps the signature uniform.
pub fn netlist(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    use bisect_core::netlist::{NetlistBisection, NetlistFm, NetlistPipeline};
    use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
    use rand::seq::SliceRandom;
    use rand::Rng;
    use std::time::Instant;

    fn synthesize(
        rng: &mut dyn rand::RngCore,
        blocks: usize,
        cells: usize,
        nets_per_block: usize,
    ) -> Netlist {
        let mut b = NetlistBuilder::new(blocks * cells);
        for block in 0..blocks {
            let base = (block * cells) as u32;
            for _ in 0..nets_per_block {
                let size = rng.gen_range(3..=6usize);
                let mut pins: Vec<u32> = (base..base + cells as u32).collect();
                pins.shuffle(rng);
                b.add_net(&pins[..size]).expect("pins valid");
            }
        }
        for block in 0..blocks.saturating_sub(1) {
            for _ in 0..3 {
                let size = rng.gen_range(3..=4usize);
                let mut pins = Vec::with_capacity(size);
                for _ in 0..size {
                    let which = block + rng.gen_range(0..2usize);
                    pins.push((which * cells + rng.gen_range(0..cells)) as u32);
                }
                b.add_net(&pins).expect("pins valid");
            }
        }
        b.build()
    }

    let suite = Suite::for_profile(profile);
    let (blocks, cells) = match profile.scale {
        crate::profile::Scale::Smoke => (4, 12),
        crate::profile::Scale::Paper => (16, 80),
        // The huge scales keep the quick-sized analysis experiments.
        _ => (8, 40),
    };
    let seed = derive_seed(profile.seed, &[73]);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let nl = synthesize(&mut rng, blocks, cells, cells * 3 / 2);
    let clique = nl.to_clique_graph();

    let mut table = Table::new(
        format!(
            "Netlist bisection, {} cells / {} nets (avg net size {:.1}), scored in nets cut",
            nl.num_cells(),
            nl.num_nets(),
            nl.average_net_size()
        ),
        ["algorithm", "nets cut", "time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );

    // Native hypergraph FM and compacted FM (best of starts).
    let fm = NetlistFm::new();
    let cfm = NetlistPipeline::compacted_fm();
    let t = Instant::now();
    let native = (0..profile.starts)
        .map(|_| fm.bisect(&nl, &mut rng))
        .min_by_key(NetlistBisection::cut)
        .expect("starts >= 1");
    table.push_row(vec![
        "hypergraph FM".into(),
        native.cut().to_string(),
        crate::table::fmt_duration(t.elapsed()),
    ]);
    let t = Instant::now();
    let compacted = (0..profile.starts)
        .map(|_| cfm.bisect(&nl, &mut rng))
        .min_by_key(NetlistBisection::cut)
        .expect("starts >= 1");
    table.push_row(vec![
        "hypergraph CFM".into(),
        compacted.cut().to_string(),
        crate::table::fmt_duration(t.elapsed()),
    ]);
    let mlfm = NetlistPipeline::multilevel_fm();
    let t = Instant::now();
    let multilevel = (0..profile.starts)
        .map(|_| mlfm.bisect(&nl, &mut rng))
        .min_by_key(NetlistBisection::cut)
        .expect("starts >= 1");
    table.push_row(vec![
        "hypergraph ML-FM".into(),
        multilevel.cut().to_string(),
        crate::table::fmt_duration(t.elapsed()),
    ]);

    // Clique expansion + graph algorithms, rescored in nets.
    for (name, algo) in [
        (
            "clique KL",
            &suite.kl as &dyn bisect_core::bisector::Bisector,
        ),
        ("clique CKL", &suite.ckl),
    ] {
        let t = Instant::now();
        let p = best_of(algo, &clique, profile.starts, &mut rng);
        let elapsed = t.elapsed();
        let rescored =
            NetlistBisection::from_sides(&nl, p.sides().to_vec()).expect("same cell count");
        table.push_row(vec![
            name.into(),
            rescored.cut().to_string(),
            crate::table::fmt_duration(elapsed),
        ]);
    }

    Ok(ExperimentResult {
        id: "netlist".into(),
        title: "Hypergraph extension: native net-cut FM vs the clique approximation".into(),
        tables: vec![table],
        records: vec![],
    })
}

/// SA schedule sweep: the paper's §VII lament that "one may have to
/// spend a great deal of computation time to find the correct setting
/// of the parameters" rendered as a table — cut quality, run time, and
/// run statistics across (sizefactor, cooling) settings on a sparse
/// `Gbreg` instance.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if the `Gbreg` parameters are infeasible
/// or the randomized construction exhausts its restarts.
pub fn satune(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    use bisect_core::sa::{Schedule, SimulatedAnnealing};
    use std::time::Instant;

    let size = *profile
        .random_model_sizes()
        .first()
        .expect("profile has sizes");
    let b = super::random::feasible_width(size / 2, 3, 8);
    let params = bisect_gen::gbreg::GbregParams::new(size, b, 3)?;
    let seed = derive_seed(profile.seed, &[74]);
    let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
    let g = bisect_gen::gbreg::sample(&mut gen_rng, &params)?;

    let mut table = Table::new(
        format!("SA schedule sweep on Gbreg({size}, {b}, 3): quality/time tradeoff (§VII)"),
        ["sizefactor", "cooling", "cut", "temps", "accept%", "time"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for &sizefactor in &[1usize, 4, 8, 16] {
        for &cooling in &[0.8f64, 0.9, 0.95] {
            let sa = SimulatedAnnealing::new().with_schedule(Schedule {
                sizefactor,
                cooling,
                ..Schedule::default()
            });
            let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xFEED);
            let init = bisect_core::seed::random_balanced(&g, &mut rng);
            let t = Instant::now();
            let (p, stats) = sa.refine_with_stats_in(&g, init, &mut rng, &mut Workspace::new());
            table.push_row(vec![
                sizefactor.to_string(),
                format!("{cooling}"),
                p.cut().to_string(),
                stats.temperatures.to_string(),
                format!("{:.0}%", stats.acceptance_ratio() * 100.0),
                crate::table::fmt_duration(t.elapsed()),
            ]);
        }
    }
    Ok(ExperimentResult {
        id: "satune".into(),
        title: "SA schedule tuning sweep (the §VII 'fine tuning' cost)".into(),
        tables: vec![table],
        records: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satune_covers_the_grid() {
        let result = satune(&Profile::smoke()).unwrap();
        assert_eq!(result.tables[0].rows().len(), 12);
    }

    #[test]
    fn netlist_experiment_has_five_rows() {
        let result = netlist(&Profile::smoke()).unwrap();
        assert_eq!(result.tables[0].rows().len(), 5);
    }

    #[test]
    fn models_tables_have_rows() {
        let result = models(&Profile::smoke()).unwrap();
        assert_eq!(result.tables.len(), 2);
        assert!(!result.tables[0].rows().is_empty());
        assert!(!result.tables[1].rows().is_empty());
    }

    #[test]
    fn klpasses_monotone_and_terminates() {
        let result = klpasses(&Profile::smoke()).unwrap();
        let rows = result.tables[0].rows();
        assert!(rows.len() >= 2);
        let cuts: Vec<u64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            cuts.windows(2).all(|w| w[1] <= w[0]),
            "cuts must be non-increasing: {cuts:?}"
        );
        // Last pass improved by 0 (fixpoint) unless the cap was hit.
        assert_eq!(rows.last().unwrap()[2], "0");
    }
}
