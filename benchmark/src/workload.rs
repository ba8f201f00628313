//! The five workloads: input generation from the seed, the timed
//! solve loop, verification on the untouched input, and the metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bisect_core::bisector::Bisector;
use bisect_core::netlist::{recursive_placement_counted, NetlistPipeline, NetlistPlacement};
use bisect_core::pipeline::Pipeline;
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::{LaggedFibonacci, SeedSequence};
use bisect_gen::{g2set, gbreg, gnp};
use bisect_graph::hypergraph::Netlist;
use bisect_graph::Graph;
use rand::SeedableRng;

use crate::ladder::{self, Labels, THREADS};
use crate::metrics::{self, Metric};
use crate::stats::{geomean, median};
use crate::trace::Trace;

/// Input size: `Full` is what the benchmark measures, `Smoke` keeps
/// the same code paths at a size tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Locality-clustered Rent netlists through the netlist ladder.
    NetlistLocal,
    /// Global Rent netlists through the netlist ladder.
    NetlistGlobal,
    /// Large planted and random graphs through the graph ladder.
    GraphHuge,
    /// The paper's four algorithms on its 5,000-vertex random graphs.
    Paper5000,
    /// Recursive 64-way placement of a Rent netlist.
    Placement,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::NetlistLocal,
        Workload::NetlistGlobal,
        Workload::GraphHuge,
        Workload::Paper5000,
        Workload::Placement,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetlistLocal => "netlist-local",
            Workload::NetlistGlobal => "netlist-global",
            Workload::GraphHuge => "graph-huge",
            Workload::Paper5000 => "paper-5000",
            Workload::Placement => "placement",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Net-size power-law exponent of every Rent netlist.
const GAMMA: f64 = 1.8;
/// Largest net size of every Rent netlist.
const MAX_NET_SIZE: usize = 8;
/// Nets per cell of every Rent netlist.
const NETS_PER_CELL: f64 = 1.4;
/// Parts of the placement workload.
const PARTS: usize = 64;
/// Starts per algorithm in the paper's protocol.
const STARTS: u64 = 2;

/// Setup is repeated at least this often and until it has taken
/// [`SETUP_BUDGET_S`], so its median is steady even when one
/// generation takes milliseconds.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

enum Input {
    Netlist(Netlist),
    Graph(Graph),
}

impl Input {
    fn elements(&self) -> usize {
        match self {
            Input::Netlist(nl) => nl.num_cells(),
            Input::Graph(g) => g.num_vertices(),
        }
    }
}

struct Instance {
    input: Input,
    /// Which generator (and parameters) drew it; instances of one
    /// family are exchangeable.
    family: usize,
    /// Seed the instance was generated from; solver seeds derive from
    /// it.
    seed: u64,
}

/// The paper's four algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Sa,
    Csa,
    Kl,
    Ckl,
}

impl Algo {
    const ALL: [Algo; 4] = [Algo::Sa, Algo::Csa, Algo::Kl, Algo::Ckl];

    fn pipeline(self) -> Pipeline {
        match self {
            Algo::Sa => Pipeline::sa(),
            Algo::Csa => Pipeline::csa(),
            Algo::Kl => Pipeline::kl(),
            Algo::Ckl => Pipeline::ckl(),
        }
    }

    /// Span name of one start.
    fn span(self) -> &'static str {
        match self {
            Algo::Sa => "sa",
            Algo::Csa => "pipeline.csa",
            Algo::Kl => "kl",
            Algo::Ckl => "pipeline.ckl",
        }
    }

    /// Per-algorithm seed salt, as the paper tables' suite uses.
    fn salt(self) -> u64 {
        match self {
            Algo::Sa => 0x5a5a_0001,
            Algo::Csa => 0x5a5a_0002,
            Algo::Kl => 0x5a5a_0003,
            Algo::Ckl => 0x5a5a_0004,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    NetlistLadder,
    GraphLadder,
    Paper(Algo),
    Placement,
}

/// One solve call of a pass: a solver on an instance.
struct Job {
    instance: usize,
    solver: Solver,
}

enum Outcome {
    Bisection(Labels),
    Placement(NetlistPlacement),
}

impl Outcome {
    /// The cut the solver reports.
    fn cut(&self, input: &Input) -> u64 {
        match (self, input) {
            (Outcome::Bisection(l), _) => l.cut,
            (Outcome::Placement(p), Input::Netlist(nl)) => p.net_cut(nl),
            (Outcome::Placement(_), Input::Graph(_)) => unreachable!("placements are of netlists"),
        }
    }
}

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input size.
    pub scale: Scale,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the solve loop measures (at least one full pass runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that panicked or failed verification.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run), in declaration order.
    pub metrics: Vec<Metric>,
    /// The traced run's spans as JSON.
    pub spans_json: Option<String>,
}

/// Runs `workload` once.
pub fn run(workload: Workload, cfg: &RunConfig) -> Report {
    bisect_par::set_thread_override(THREADS);
    let mut trace = if cfg.traced {
        Trace::on()
    } else {
        Trace::off()
    };
    let mut run_id = 0u32;

    // Setup, repeated; the last repetition's inputs are kept.
    let mut setup_times = Vec::new();
    let mut setup_runs = Vec::new();
    let mut instances: Vec<Instance> = Vec::new();
    while setup_times.len() < SETUP_MIN_REPS
        || (setup_times.iter().sum::<f64>() < SETUP_BUDGET_S && setup_times.len() < SETUP_MAX_REPS)
    {
        drop(std::mem::take(&mut instances));
        trace.set_run(run_id);
        setup_runs.push(run_id);
        run_id += 1;
        let begin = Instant::now();
        instances = generate(workload, cfg.scale, cfg.seed, &mut trace);
        setup_times.push(begin.elapsed().as_secs_f64());
    }

    let jobs = jobs(workload, &instances);
    let splits: Vec<u64> = jobs
        .iter()
        .map(|j| index_split_cut(&instances[j.instance].input, j.solver))
        .collect();

    let mut runner = Runner {
        instances: &instances,
        ws: Workspace::new(),
        attempted: 0,
        failed: 0,
        first: (0..jobs.len()).map(|_| None).collect(),
    };
    let mut untraced_times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    // ln(traced ÷ untraced) per pair, grouped by which ran first.
    let mut log_ratios: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_runs = Vec::new();
    let mut off = Trace::off();
    // One untimed solve first, so the allocator's heap and the workspace
    // arenas have grown before anything is timed: a caller pays that
    // once per process, not per solve.
    let _ = runner.attempt(0, &jobs[0], &mut off);
    let begin = Instant::now();
    let mut pass_begin = begin;
    for pass in 0.. {
        // Start another pass only if one more like the last still ends
        // within the measuring time; the first pass always runs.
        let now = Instant::now();
        if pass > 0 && (now - begin) + (now - pass_begin) > Duration::from_secs_f64(cfg.seconds) {
            break;
        }
        pass_begin = now;
        trace.set_run(run_id);
        if cfg.traced {
            traced_runs.push(run_id);
        }
        run_id += 1;
        for (j, job) in jobs.iter().enumerate() {
            if cfg.traced {
                // The second solve of a pair finds the instance in
                // cache, so the order alternates and each order gets
                // its own group in the overhead estimate.
                let traced_first = (j + pass) % 2 == 1;
                let (u, t) = if traced_first {
                    let t = runner.attempt(j, job, &mut trace);
                    (runner.attempt(j, job, &mut off), t)
                } else {
                    let u = runner.attempt(j, job, &mut off);
                    (u, runner.attempt(j, job, &mut trace))
                };
                if let (Some(u), Some(t)) = (u, t) {
                    log_ratios[usize::from(traced_first)].push((t / u).ln());
                }
            } else {
                let dt = runner.attempt(j, job, &mut off);
                untraced_times[j].extend(dt);
            }
        }
    }

    let mut out = metrics::Builder::new(cfg.traced);
    if cfg.traced {
        let group_means: Vec<f64> = log_ratios
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| g.iter().sum::<f64>() / g.len() as f64)
            .collect();
        let overhead =
            (group_means.iter().sum::<f64>() / group_means.len().max(1) as f64).exp() - 1.0;
        let quality = |algo: Algo| -> f64 {
            jobs.iter()
                .zip(&runner.first)
                .filter(|(j, _)| j.solver == Solver::Paper(algo))
                .filter_map(|(j, o)| o.as_ref().map(|o| o.cut(&instances[j.instance].input)))
                .sum::<u64>() as f64
        };
        let hpwl: f64 = jobs
            .iter()
            .zip(&runner.first)
            .filter_map(|(j, o)| match (o, &instances[j.instance].input) {
                (Some(Outcome::Placement(p)), Input::Netlist(nl)) => Some(p.hpwl(nl)),
                _ => None,
            })
            .sum();
        metrics::layer_metrics(
            &mut out,
            &trace,
            &setup_runs,
            &traced_runs,
            overhead,
            Algo::ALL.map(quality),
            hpwl,
        );
    } else {
        let classes = classes(&jobs, &instances);
        let times: Vec<Option<f64>> = untraced_times
            .iter()
            .map(|t| (!t.is_empty()).then(|| median(t)))
            .collect();
        let cuts: Vec<Option<f64>> = jobs
            .iter()
            .zip(&runner.first)
            .map(|(j, o)| Some(o.as_ref()?.cut(&instances[j.instance].input) as f64))
            .collect();
        let vs_split: Vec<Option<f64>> = cuts
            .iter()
            .zip(&splits)
            .map(|(&c, &s)| Some(c? / s as f64).filter(|_| s > 0))
            .collect();
        out.push("solve_s", set_total(&classes, &times));
        out.push("setup_s", median(&setup_times));
        out.push("peak_rss_mib", metrics::peak_rss_mib());
        // Geometric means weigh every class alike, so a class with large
        // cuts (KL's, or Gnp's beside Gbreg's planted 64) cannot hide a
        // change in another.
        let per_class = |values: &[Option<f64>]| -> f64 {
            let medians: Vec<f64> = classes
                .iter()
                .filter_map(|members| class_median(members, values))
                .collect();
            geomean(&medians)
        };
        out.push("cut", per_class(&cuts));
        out.push("cut_vs_split", per_class(&vs_split));
    }
    Report {
        attempted: runner.attempted,
        failed: runner.failed,
        metrics: out.finish(),
        spans_json: cfg.traced.then(|| trace.to_json()),
    }
}

/// Generates the workload's instances, one `gen` span each.
fn generate(workload: Workload, scale: Scale, seed: u64, t: &mut Trace) -> Vec<Instance> {
    let full = scale == Scale::Full;
    let mut out = Vec::new();
    let mut gen =
        |family: usize, seed: u64, t: &mut Trace, make: &dyn Fn(&mut LaggedFibonacci) -> Input| {
            t.enter("gen");
            let input = make(&mut LaggedFibonacci::seed_from_u64(seed));
            let pins = match &input {
                Input::Netlist(nl) => nl.num_pins(),
                Input::Graph(g) => 2 * g.num_edges(),
            };
            t.exit(&[("pins", pins as f64)]);
            out.push(Instance {
                input,
                family,
                seed,
            });
        };
    let rent = |cells: usize, locality: f64| {
        let nets = (cells as f64 * NETS_PER_CELL) as usize;
        let params = RentNetlistParams::new(cells, nets, MAX_NET_SIZE, GAMMA, locality)
            .expect("Rent parameters are valid");
        move |rng: &mut LaggedFibonacci| Input::Netlist(sample_streamed(rng, &params))
    };
    match workload {
        Workload::NetlistLocal | Workload::NetlistGlobal => {
            let (cells, count) = if full { (12_500, 48) } else { (1_000, 3) };
            let (locality, first) = if workload == Workload::NetlistLocal {
                (0.02, 0)
            } else {
                (1.0, 1)
            };
            // At 10^5 cells and seed 1989, `which` = 0 / 1 is the
            // `huge-netlist` experiment's own locality / global instance.
            let make = rent(cells, locality);
            for which in (0..count).map(|i| first + 2 * i) {
                let s = SeedSequence::derive(seed, &[41, cells as u64, which]);
                gen(0, s, t, &make);
            }
        }
        Workload::GraphHuge => {
            let (n, count) = if full { (250_000, 4) } else { (4_000, 2) };
            let gbreg_params = gbreg::GbregParams::new(n, 64, 4).expect("Gbreg parameters");
            let gnp_params = gnp::GnpParams::with_average_degree(n, 3.0).expect("Gnp parameters");
            for i in 0..count {
                let s = SeedSequence::derive(seed, &[40, n as u64, 2 * i]);
                gen(0, s, t, &|rng| {
                    Input::Graph(gbreg::sample(rng, &gbreg_params).expect("Gbreg construction"))
                });
                let s = SeedSequence::derive(seed, &[40, n as u64, 2 * i + 1]);
                gen(1, s, t, &|rng| {
                    Input::Graph(gnp::sample_streamed(rng, &gnp_params))
                });
            }
        }
        Workload::Paper5000 => {
            let n = if full { 5_000 } else { 400 };
            for which in 0..4 {
                let s = SeedSequence::derive(seed, &[50, n as u64, which as u64]);
                gen(which, s, t, &|rng| {
                    Input::Graph(match which {
                        0 | 1 => {
                            let params = gbreg::GbregParams::new(n, 16, 3 + which)
                                .expect("Gbreg parameters");
                            gbreg::sample(rng, &params).expect("Gbreg construction")
                        }
                        2 => {
                            let params = g2set::G2setParams::with_average_degree(n, 3.0, 32)
                                .expect("G2set parameters");
                            g2set::sample(rng, &params)
                        }
                        _ => {
                            let params = gnp::GnpParams::with_average_degree(n, 2.5)
                                .expect("Gnp parameters");
                            gnp::sample(rng, &params)
                        }
                    })
                });
            }
        }
        Workload::Placement => {
            let cells = if full { 25_000 } else { 2_000 };
            let s = SeedSequence::derive(seed, &[80, cells as u64]);
            gen(0, s, t, &rent(cells, 0.02));
        }
    }
    out
}

fn jobs(workload: Workload, instances: &[Instance]) -> Vec<Job> {
    let solvers: Vec<Solver> = match workload {
        Workload::NetlistLocal | Workload::NetlistGlobal => vec![Solver::NetlistLadder],
        Workload::GraphHuge => vec![Solver::GraphLadder],
        Workload::Paper5000 => Algo::ALL.into_iter().map(Solver::Paper).collect(),
        Workload::Placement => vec![Solver::Placement],
    };
    (0..instances.len())
        .flat_map(|instance| solvers.iter().map(move |&solver| Job { instance, solver }))
        .collect()
}

/// Job indices per class: one solver on one instance family. Jobs of
/// a class are exchangeable draws, so a class is summarised by medians,
/// which a few chaotic solves cannot drag.
fn classes(jobs: &[Job], instances: &[Instance]) -> Vec<Vec<usize>> {
    let mut keys: Vec<(usize, Solver)> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let key = (instances[job.instance].family, job.solver);
        match keys.iter().position(|k| *k == key) {
            Some(c) => members[c].push(j),
            None => {
                keys.push(key);
                members.push(vec![j]);
            }
        }
    }
    members
}

/// Median of the values the class's jobs produced.
fn class_median(members: &[usize], values: &[Option<f64>]) -> Option<f64> {
    let v: Vec<f64> = members.iter().filter_map(|&j| values[j]).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// The instance set's total, estimated as Σ over classes of class size
/// × class median.
fn set_total(classes: &[Vec<usize>], values: &[Option<f64>]) -> f64 {
    classes
        .iter()
        .filter_map(|m| Some(m.len() as f64 * class_median(m, values)?))
        .sum()
}

/// Drives solves, catching panics and checking every result.
struct Runner<'a> {
    instances: &'a [Instance],
    ws: Workspace,
    attempted: u64,
    failed: u64,
    /// Each job's first verified outcome; later passes must repeat it.
    first: Vec<Option<Outcome>>,
}

impl Runner<'_> {
    /// Solves job `j` once; returns its wall time if it succeeded.
    fn attempt(&mut self, j: usize, job: &Job, t: &mut Trace) -> Option<f64> {
        self.attempted += 1;
        let inst = &self.instances[job.instance];
        let ws = &mut self.ws;
        let begin = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            t.enter("solve");
            let out = solve(inst, job.solver, ws, t);
            t.exit(&[]);
            out
        }));
        let elapsed = begin.elapsed().as_secs_f64();
        let Ok(outcome) = result else {
            t.close_open();
            self.ws = Workspace::new();
            self.failed += 1;
            return None;
        };
        t.enter("verify");
        let verdict = verify(&inst.input, &outcome);
        t.exit(&[]);
        let cut = outcome.cut(&inst.input);
        let verdict = verdict.and_then(|()| match &self.first[j] {
            Some(first) if first.cut(&inst.input) != cut => Err(format!(
                "cut {cut} differs from the first pass's {}",
                first.cut(&inst.input)
            )),
            _ => Ok(()),
        });
        match verdict {
            Ok(()) => {
                if self.first[j].is_none() {
                    self.first[j] = Some(outcome);
                }
                Some(elapsed)
            }
            Err(why) => {
                eprintln!("verification failed on instance {}: {why}", job.instance);
                self.failed += 1;
                None
            }
        }
    }
}

fn solve(inst: &Instance, solver: Solver, ws: &mut Workspace, t: &mut Trace) -> Outcome {
    match (solver, &inst.input) {
        (Solver::NetlistLadder, Input::Netlist(nl)) => {
            Outcome::Bisection(ladder::netlist_ladder(nl, inst.seed ^ 0xABCD, ws, t))
        }
        (Solver::GraphLadder, Input::Graph(g)) => {
            Outcome::Bisection(ladder::graph_ladder(g, inst.seed ^ 0xABCD, ws, t))
        }
        (Solver::Paper(algo), Input::Graph(g)) => {
            let pipeline = algo.pipeline();
            let seq = SeedSequence::new(inst.seed ^ 0xABCD ^ algo.salt());
            let mut best: Option<Labels> = None;
            for start in 0..STARTS {
                let mut rng = seq.rng(start);
                let _ = ws.take_proposals();
                t.enter(algo.span());
                let (p, passes) = pipeline.bisect_counted(g, &mut rng, ws);
                t.exit(&[
                    ("passes", passes as f64),
                    ("proposals", ws.take_proposals() as f64),
                    ("cut", p.cut() as f64),
                ]);
                if best.as_ref().is_none_or(|b| p.cut() < b.cut) {
                    let cut = p.cut();
                    best = Some(Labels {
                        sides: p.into_sides(),
                        cut,
                    });
                }
            }
            Outcome::Bisection(best.expect("at least one start"))
        }
        (Solver::Placement, Input::Netlist(nl)) => {
            let mut rng = SeedSequence::new(inst.seed ^ 0xABCD).rng(0);
            t.enter("kway");
            let (placement, passes) = recursive_placement_counted(
                &NetlistPipeline::multilevel_fm(),
                nl,
                PARTS,
                &mut rng,
                ws,
            )
            .expect("the part count is a power of two");
            t.exit(&[("passes", passes as f64)]);
            Outcome::Placement(placement)
        }
        _ => unreachable!("every solver is paired with its input kind"),
    }
}

/// Checks an outcome against the untouched input with code of its
/// own: labels in range, parts balanced, and the recomputed cut equal
/// to the reported one.
fn verify(input: &Input, outcome: &Outcome) -> Result<(), String> {
    match (input, outcome) {
        (_, Outcome::Bisection(l)) => {
            if l.sides.len() != input.elements() {
                return Err(format!(
                    "{} labels for {} elements",
                    l.sides.len(),
                    input.elements()
                ));
            }
            let labels: Vec<u32> = l.sides.iter().map(|&s| u32::from(s)).collect();
            check_balance(input, &labels, 2)?;
            let cut = cut_of(input, &labels);
            if cut != l.cut {
                return Err(format!("reported cut {} but the input says {cut}", l.cut));
            }
            Ok(())
        }
        (Input::Netlist(nl), Outcome::Placement(p)) => {
            let labels = p.labels();
            if labels.len() != nl.num_cells() {
                return Err(format!(
                    "{} labels for {} cells",
                    labels.len(),
                    nl.num_cells()
                ));
            }
            if let Some(bad) = labels.iter().find(|&&l| l as usize >= p.num_parts()) {
                return Err(format!("label {bad} out of range"));
            }
            check_balance(input, labels, p.num_parts())?;
            let (reported, cut) = (p.net_cut(nl), cut_of(input, labels));
            if cut != reported {
                return Err(format!("reported cut {reported} but the input says {cut}"));
            }
            Ok(())
        }
        (Input::Graph(_), Outcome::Placement(_)) => Err("placement of a graph".into()),
    }
}

/// Part weights must lie near the even share: the two sides of a
/// bisection differ by at most the parity of the total, and each part
/// of a recursive placement (one unit of slack per split) stays within
/// one element of it. Every generated instance has unit weights.
fn check_balance(input: &Input, labels: &[u32], parts: usize) -> Result<(), String> {
    let mut weights = vec![0u64; parts];
    for (e, &l) in labels.iter().enumerate() {
        weights[l as usize] += match input {
            Input::Netlist(nl) => nl.cell_weight(e as u32),
            Input::Graph(g) => g.vertex_weight(e as u32),
        };
    }
    let total: u64 = weights.iter().sum();
    let share = total as f64 / parts as f64;
    let slack = if parts == 2 { 0.5 } else { 1.0 };
    match weights.iter().find(|&&w| (w as f64 - share).abs() > slack) {
        Some(w) => Err(format!("part weight {w} against an even share of {share}")),
        None => Ok(()),
    }
}

/// Weighted cut of a labelling: nets (or edges) whose pins carry more
/// than one label.
fn cut_of(input: &Input, labels: &[u32]) -> u64 {
    match input {
        Input::Netlist(nl) => nl
            .net_ids()
            .filter(|&n| {
                let pins = nl.pins(n);
                pins.iter()
                    .any(|&p| labels[p as usize] != labels[pins[0] as usize])
            })
            .map(|n| nl.net_weight(n))
            .sum(),
        Input::Graph(g) => g
            .edges()
            .filter(|&(u, v, _)| labels[u as usize] != labels[v as usize])
            .map(|(_, _, w)| w)
            .sum(),
    }
}

/// The trivial baseline: elements split by index into equal
/// contiguous blocks (`0..n/2 | n/2..n` for a bisection). For `Gbreg`
/// and `G2set` this is the planted cut.
fn index_split_cut(input: &Input, solver: Solver) -> u64 {
    let n = input.elements();
    let parts = if solver == Solver::Placement {
        PARTS
    } else {
        2
    };
    let labels: Vec<u32> = (0..n).map(|e| (e * parts / n) as u32).collect();
    cut_of(input, &labels)
}
