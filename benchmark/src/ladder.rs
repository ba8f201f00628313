//! The reference multilevel ladders, written against the libraries'
//! public calls only, step for step as the `huge-netlist` and `huge`
//! experiments run them, with a span around every layer call.
//!
//! The ladders stop once labels for the *original* cell/vertex order
//! exist; checking them against the input is the caller's job.

use bisect_core::bisector::Refiner;
use bisect_core::fm::BoundaryFm;
use bisect_core::netlist::{
    self, NetlistBisection, NetlistFm, NetlistRefiner, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::{self, Bisection};
use bisect_core::pipeline::{CoarsenScheme, ParallelMatching};
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::contraction::Contraction;
use bisect_graph::hypergraph::{
    bfs_cell_order, contract_cells_into, permute_cells, Netlist, NetlistContraction,
    NetlistContractionScratch,
};
use bisect_graph::{reorder, Graph};
use rand::SeedableRng;

use crate::trace::Trace;

/// Worker count of every parallel layer. Results depend on it, so it
/// is fixed.
pub const THREADS: usize = 1;

/// Ceiling of the coarsest level's size.
const COARSE_TARGET: usize = 5_000;

/// Coarsest-level size for an `n`-element instance.
fn coarse_target(n: usize) -> usize {
    (n / 16).clamp(64, COARSE_TARGET)
}

/// Whether a contraction from `before` to `after` elements shrank by
/// the 5% the stall guard demands.
fn shrinks_enough(before: usize, after: usize) -> bool {
    after * 20 <= before * 19
}

/// A bisection in the input's own labels, with the cut the solver
/// maintained for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    /// `false` = side A, per original cell or vertex.
    pub sides: Vec<bool>,
    /// The cut the solver reports.
    pub cut: u64,
}

/// BFS cell reorder → matching/contraction ladder → coarsest-level
/// serial FM → projected-cache parallel FM per level → rebalance →
/// polish → original labels.
pub fn netlist_ladder(nl: &Netlist, seed: u64, ws: &mut Workspace, t: &mut Trace) -> Labels {
    t.enter("reorder");
    let order = bfs_cell_order(nl);
    let nlr = permute_cells(nl, &order);
    t.exit(&[]);

    let matcher = ParallelCellMatching::new().with_threads(THREADS);
    let pnfm = ParallelNetlistFm::new().with_threads(THREADS);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let _ = ws.take_proposals();

    t.enter("coarsen");
    let target = coarse_target(nlr.num_cells());
    let mut ladder: Vec<NetlistContraction> = Vec::new();
    let mut scratch = NetlistContractionScratch::new();
    let (mut stalled, mut matched, mut visited) = (0.0, 0.0, 0.0);
    loop {
        let level = ladder.last().map_or(&nlr, |c| c.coarse());
        let before = level.num_cells();
        if before <= target {
            break;
        }
        t.enter("coarsen.match");
        let pairs = matcher.matching(level);
        t.exit(&[
            ("level", ladder.len() as f64),
            ("pairs", pairs.len() as f64),
        ]);
        matched += 2.0 * pairs.len() as f64;
        visited += before as f64;
        if pairs.is_empty() {
            break;
        }
        t.enter("coarsen.contract");
        let c = contract_cells_into(level, &pairs, &mut scratch);
        t.exit(&[
            ("level", ladder.len() as f64),
            ("cells", c.coarse().num_cells() as f64),
        ]);
        if !shrinks_enough(before, c.coarse().num_cells()) {
            stalled = 1.0;
            break;
        }
        ladder.push(c);
    }
    let coarsest = ladder.last().map_or(&nlr, |c| c.coarse());
    t.exit(&[
        ("levels", ladder.len() as f64),
        ("coarsest", coarsest.num_cells() as f64),
        ("stalled", stalled),
        ("matched", matched),
        ("visited", visited),
    ]);

    t.enter("initial");
    let p = NetlistBisection::random_balanced(coarsest, &mut rng);
    let mut dummy = LaggedFibonacci::seed_from_u64(0);
    let (mut current, _) = NetlistFm::new().refine_counted(coarsest, &[], p, &mut dummy, ws);
    t.exit(&[
        ("cut", current.cut() as f64),
        ("imbalance", current.weight_imbalance() as f64),
    ]);

    for i in (0..ladder.len()).rev() {
        t.enter("project");
        let level: &Netlist = if i == 0 { &nlr } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let projected =
            NetlistBisection::from_sides(level, sides).expect("projected sides match level size");
        ws.project_netlist_cache(level, &projected, ladder[i].fine_to_coarse());
        t.exit(&[("level", i as f64)]);

        let (cut_in, boundary) = (projected.cut(), ws.netlist_cache().boundary().len());
        t.enter("refine");
        let (refined, rounds) =
            pnfm.refine_projected_counted(level, &[], projected, &mut dummy, ws);
        t.exit(&[
            ("level", i as f64),
            ("cells", level.num_cells() as f64),
            ("boundary", boundary as f64),
            ("rounds", rounds as f64),
            ("evals", ws.take_proposals() as f64),
            ("cut_in", cut_in as f64),
            ("cut_out", refined.cut() as f64),
        ]);
        current = refined;
    }

    let cut_in = current.cut();
    t.enter("rebalance");
    netlist::rebalance_with_cache(&nlr, &mut current, &[], ws.netlist_cache_mut());
    t.exit(&[("cut_delta", current.cut() as f64 - cut_in as f64)]);

    let cut_in = current.cut();
    t.enter("refine.polish");
    let (refined, rounds) = pnfm.refine_projected_counted(&nlr, &[], current, &mut dummy, ws);
    t.exit(&[
        ("rounds", rounds as f64),
        ("evals", ws.take_proposals() as f64),
        ("cut_in", cut_in as f64),
        ("cut_out", refined.cut() as f64),
    ]);

    t.enter("reorder.back");
    let mut sides = vec![false; nl.num_cells()];
    for (new, &old) in order.iter().enumerate() {
        sides[old as usize] = refined.sides()[new];
    }
    t.exit(&[]);
    Labels {
        sides,
        cut: refined.cut(),
    }
}

/// BFS vertex reorder → heavy-edge matching ladder → coarsest-level
/// boundary FM → projected-cache boundary `ParallelFm` per level →
/// rebalance → boundary polish plus one full-range sweep → original
/// labels.
pub fn graph_ladder(g: &Graph, seed: u64, ws: &mut Workspace, t: &mut Trace) -> Labels {
    t.enter("reorder");
    let order = reorder::bfs(g);
    let gr = order.apply(g);
    t.exit(&[]);

    let scheme = ParallelMatching::new().with_threads(THREADS);
    let pfm = ParallelFm::new()
        .with_threads(THREADS)
        .with_boundary_seeds();
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let _ = ws.take_proposals();

    t.enter("coarsen");
    let target = coarse_target(g.num_vertices());
    let mut ladder: Vec<Contraction> = Vec::new();
    let (mut stalled, mut matched, mut visited) = (0.0, 0.0, 0.0);
    loop {
        let level = ladder.last().map_or(&gr, |c| c.coarse());
        let before = level.num_vertices();
        if before <= target {
            break;
        }
        t.enter("coarsen.level");
        let c = scheme.coarsen(level, &mut rng);
        let after = c.as_ref().map_or(before, |c| c.coarse().num_vertices());
        t.exit(&[("level", ladder.len() as f64), ("vertices", after as f64)]);
        matched += 2.0 * (before - after) as f64;
        visited += before as f64;
        match c {
            Some(c) if shrinks_enough(before, after) => ladder.push(c),
            Some(_) => {
                stalled = 1.0;
                break;
            }
            None => break,
        }
    }
    let coarsest = ladder.last().map_or(&gr, |c| c.coarse());
    t.exit(&[
        ("levels", ladder.len() as f64),
        ("coarsest", coarsest.num_vertices() as f64),
        ("stalled", stalled),
        ("matched", matched),
        ("visited", visited),
    ]);

    t.enter("initial");
    let p = seed::weight_balanced_random(coarsest, &mut rng);
    let mut dummy = LaggedFibonacci::seed_from_u64(0);
    let (mut current, _) = BoundaryFm::new().refine_counted(coarsest, p, &mut dummy, ws);
    t.exit(&[
        ("cut", current.cut() as f64),
        ("imbalance", current.weight_imbalance() as f64),
    ]);

    for i in (0..ladder.len()).rev() {
        t.enter("project");
        let level: &Graph = if i == 0 { &gr } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let projected = Bisection::from_sides_with_cut(level, sides, current.cut())
            .expect("projected sides match level size");
        ws.project_gain_cache(level, &projected, ladder[i].fine_to_coarse());
        t.exit(&[("level", i as f64)]);

        let (cut_in, boundary) = (projected.cut(), ws.gain_cache().boundary().len());
        t.enter("refine");
        let (refined, rounds) = pfm.refine_projected_counted(level, projected, &mut dummy, ws);
        t.exit(&[
            ("level", i as f64),
            ("cells", level.num_vertices() as f64),
            ("boundary", boundary as f64),
            ("rounds", rounds as f64),
            ("evals", ws.take_proposals() as f64),
            ("cut_in", cut_in as f64),
            ("cut_out", refined.cut() as f64),
        ]);
        current = refined;
    }

    let cut_in = current.cut();
    t.enter("rebalance");
    partition::rebalance_with_cache(&gr, &mut current, ws.gain_cache_mut());
    t.exit(&[("cut_delta", current.cut() as f64 - cut_in as f64)]);

    let cut_in = current.cut();
    t.enter("refine.polish");
    let (refined, r1) = pfm.refine_projected_counted(&gr, current, &mut dummy, ws);
    let full = ParallelFm::new().with_threads(THREADS);
    let (refined, r2) = full.refine_counted(&gr, refined, &mut dummy, ws);
    t.exit(&[
        ("rounds", (r1 + r2) as f64),
        ("evals", ws.take_proposals() as f64),
        ("cut_in", cut_in as f64),
        ("cut_out", refined.cut() as f64),
    ]);

    t.enter("reorder.back");
    let sides = order.to_old_sides(refined.sides());
    t.exit(&[]);
    Labels {
        sides,
        cut: refined.cut(),
    }
}
