//! Simulated annealing for graph bisection (§II, Figure 1 of the paper;
//! Kirkpatrick-Gelatt-Vecchi 1983, schedule in the style of
//! Johnson-Aragon-McGeoch-Schevon).
//!
//! The generic algorithm of Figure 1 is parameterized here by:
//!
//! * **Move set** ([`MoveKind`]) — [`MoveKind::Swap`] exchanges a random
//!   pair across the cut (balance preserved at every step);
//!   [`MoveKind::Flip`] moves one random vertex and charges an imbalance
//!   penalty `α·(w_A − w_B)²` in the cost function, the formulation
//!   Johnson et al. use. Flip explores more freely but must be
//!   rebalanced at the end.
//! * **Schedule** ([`Schedule`]) — initial temperature (explicit, or
//!   calibrated so a target fraction of uphill moves is accepted),
//!   geometric cooling, `sizefactor·|V|` trials per temperature, and a
//!   freezing criterion (several consecutive temperatures with low
//!   acceptance and no improvement of the best solution).
//!
//! As the paper notes, SA "may migrate away from an optimal solution if
//! it is found at a high temperature. One must then save the best
//! bisection found as the algorithm progresses" — the implementation
//! does exactly that, and the paper's observation that this raises SA's
//! time and storage cost relative to KL is visible in the benchmarks.
//! Swaps keep side counts, not weights, so on weighted levels a swap
//! run's best may be off balance. That is kept: the engine and the flat
//! path of [`Refiner`] end with a rebalance, while recording only states
//! within tolerance, as flips do, would change CSA's coarse results.
//!
//! # Hot-path engineering
//!
//! The inner loop evaluates `sizefactor·|V|` proposals per temperature
//! and rejects most of them at useful temperatures, so it is built
//! around four *bit-identical* optimizations (DESIGN.md §10):
//!
//! 1. **A compact annealing state** (default [`ProposalEval::Cached`]) —
//!    SA anneals on its own arrays in a [`Workspace`] arena, filled once
//!    per run: `u32` offsets over interleaved `(neighbour, 2·weight)`
//!    pairs, per-vertex `i32` gains maintained FM-style across accepted
//!    moves, and its own sides, cut and side weights. Gains are stored
//!    side-free, as each vertex's pull toward side B, so an accepted
//!    move updates its neighbours without reading their sides. A
//!    rejected proposal costs O(1) array reads instead of O(deg); an
//!    accepted move walks one contiguous adjacency slice. The state
//!    reaches the [`Bisection`] API only when the best cut improves and
//!    once at the end. The original
//!    recompute-per-proposal path survives as [`ProposalEval::Naive`],
//!    and `tests/sa_equivalence.rs` pins the two bit-identical. Graphs
//!    the compact state cannot hold (`4 · max weighted degree` past
//!    `i32::MAX`, or 2^32 adjacency entries) anneal on that path.
//! 2. **Lazy shared-edge lookup** — a swap's delta is
//!    `d0 + 2·w(a, b)` with `d0 = −(g_a + g_b)`. The shared edge can only
//!    raise the delta, and the acceptance threshold never rises with it,
//!    so when `d0 > 0` the acceptance number is drawn first and checked
//!    against `d0`'s threshold; only a draw that passes looks the edge up.
//! 3. **Monomorphization** — the public API keeps `&mut dyn RngCore`,
//!    but [`SimulatedAnnealing::refine_with_stats_in`] downcasts the
//!    trait object once (via `RngCore::as_any_mut`) and dispatches into
//!    a generic inner loop, so per-draw generator calls inline instead
//!    of going through the vtable. Unknown generators take an equally
//!    correct `dyn` fallback.
//! 4. **Table-driven acceptance** — swap deltas are small bounded
//!    integers, so `exp(-δ/T)` is precomputed per temperature into a
//!    workspace slice; entries are produced by the exact expression
//!    `accept` evaluates, so lookups change nothing about accept
//!    decisions.
//!
//! A swap proposal's pair is drawn with one uniform index into each
//! side's member list, which both evaluation modes keep exact through
//! the same moves: uniform over A×B, the paper's "random pair across
//! the cut", for two draws at any balance. This draw is not
//! bit-identical to versions that rejection-sampled pairs from all of
//! V; the distribution is the same, the random stream is not
//! (DESIGN.md §10).

use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::{EdgeWeight, Graph, VertexId, VertexWeight};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::balance::Tolerance;
use crate::bisector::Refiner;
use crate::partition::{rebalance, Bisection, Side};
use crate::workspace::Workspace;

/// The SA move set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MoveKind {
    /// Swap a random vertex of side A with a random vertex of side B.
    /// Every visited state is balanced.
    #[default]
    Swap,
    /// Move a single random vertex; the cost function is
    /// `cut + imbalance_factor · (w_A − w_B)²`. The returned bisection
    /// is rebalanced.
    Flip {
        /// The `α` weight of the squared imbalance penalty.
        imbalance_factor: f64,
    },
}

/// How the annealing loop evaluates a proposal's cost delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProposalEval {
    /// Read per-vertex gains from SA's compact annealing state, updated
    /// in O(deg) only on accepted moves; rejected proposals cost O(1)
    /// array reads (plus, for swaps whose draw passes the shared-edge
    /// free threshold, one edge lookup).
    #[default]
    Cached,
    /// Recompute each proposal's gain from [`Graph`] adjacency and the
    /// [`Bisection`], as the original implementation did. Retained as
    /// the reference that the cached path is proptest-pinned against
    /// (`tests/sa_equivalence.rs`); both produce bit-identical draws,
    /// accepts, and results.
    Naive,
}

/// The annealing schedule. "The fine tuning of the annealing schedule
/// can be a big job, as we found out" — every knob is exposed.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Starting temperature; `None` calibrates it from
    /// `initial_acceptance` by sampling uphill moves.
    pub initial_temperature: Option<f64>,
    /// Target fraction of *uphill* moves accepted at the start
    /// (used only when `initial_temperature` is `None`).
    pub initial_acceptance: f64,
    /// Geometric cooling ratio `r` (`T ← r·T`), in `(0, 1)`.
    pub cooling: f64,
    /// Trials per temperature = `sizefactor · |V|`.
    pub sizefactor: usize,
    /// A temperature counts toward freezing when its acceptance ratio
    /// falls below this.
    pub min_acceptance: f64,
    /// Number of consecutive low-acceptance, no-improvement
    /// temperatures after which the system is frozen.
    pub freeze_limit: usize,
    /// Hard floor on the temperature.
    pub min_temperature: f64,
    /// Hard cap on the number of temperature steps (safety bound).
    pub max_temperatures: usize,
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule {
            initial_temperature: None,
            initial_acceptance: 0.4,
            cooling: 0.95,
            sizefactor: 8,
            min_acceptance: 0.02,
            freeze_limit: 5,
            min_temperature: 1e-4,
            max_temperatures: 400,
        }
    }
}

/// Entries in the per-temperature `exp(-δ/T)` table, capped so filling
/// the table never costs more than the per-proposal `exp` calls it
/// replaces (deltas beyond the cap fall back to a direct `exp`).
const EXP_TABLE_CAP: usize = 4096;

/// Simulated annealing bisection.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, sa::SimulatedAnnealing};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::cycle(24);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let p = SimulatedAnnealing::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedAnnealing {
    move_kind: MoveKind,
    schedule: Schedule,
    proposal_eval: ProposalEval,
}

impl Default for SimulatedAnnealing {
    fn default() -> SimulatedAnnealing {
        SimulatedAnnealing::new()
    }
}

impl SimulatedAnnealing {
    /// SA with swap moves, cached proposal evaluation, and the default
    /// schedule.
    pub fn new() -> SimulatedAnnealing {
        SimulatedAnnealing {
            move_kind: MoveKind::default(),
            schedule: Schedule::default(),
            proposal_eval: ProposalEval::default(),
        }
    }

    /// Selects the move set.
    pub fn with_move_kind(mut self, move_kind: MoveKind) -> SimulatedAnnealing {
        self.move_kind = move_kind;
        self
    }

    /// Selects how proposal deltas are evaluated. Results are
    /// bit-identical either way; [`ProposalEval::Naive`] exists as the
    /// reference path for equivalence tests and benchmarks.
    pub fn with_proposal_eval(mut self, proposal_eval: ProposalEval) -> SimulatedAnnealing {
        self.proposal_eval = proposal_eval;
        self
    }

    /// Replaces the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `cooling` is not in `(0, 1)`, `sizefactor` is 0, or
    /// `max_temperatures` is 0.
    pub fn with_schedule(mut self, schedule: Schedule) -> SimulatedAnnealing {
        assert!(
            schedule.cooling > 0.0 && schedule.cooling < 1.0,
            "cooling ratio must be in (0, 1)"
        );
        assert!(schedule.sizefactor > 0, "sizefactor must be positive");
        assert!(
            schedule.max_temperatures > 0,
            "need at least one temperature"
        );
        self.schedule = schedule;
        self
    }

    /// A fast low-quality schedule for tests and smoke runs.
    pub fn quick() -> SimulatedAnnealing {
        SimulatedAnnealing::new().with_schedule(Schedule {
            sizefactor: 4,
            cooling: 0.9,
            max_temperatures: 120,
            ..Schedule::default()
        })
    }

    /// The starting temperature: the explicit one, or calibrated from
    /// sampled moves of `p`. Swap pairs come from `lists`, which must
    /// hold `p`'s sides. Deltas are recomputed from adjacency in both
    /// evaluation modes, so the calibrated T0 is identical.
    fn initial_temperature<R: RngCore + ?Sized>(
        &self,
        g: &Graph,
        p: &Bisection,
        lists: &SideLists,
        rng: &mut R,
    ) -> f64 {
        if let Some(t0) = self.schedule.initial_temperature {
            return t0;
        }
        // Sample random moves; average the uphill deltas and solve
        // exp(-avg/T0) = initial_acceptance.
        let samples = (g.num_vertices() * 2).clamp(32, 2048);
        let mut uphill_total = 0.0f64;
        let mut uphill_count = 0usize;
        for _ in 0..samples {
            let delta = match self.move_kind {
                MoveKind::Swap => lists
                    .draw_pair(rng)
                    .map(|(a, b)| -p.swap_gain(g, a, b) as f64),
                MoveKind::Flip { imbalance_factor } => draw_flip_vertex(g, rng)
                    .map(|v| naive_flip_delta(g, p, imbalance_factor, v, p.gain(g, v))),
            };
            if let Some(d) = delta {
                if d > 0.0 {
                    uphill_total += d;
                    uphill_count += 1;
                }
            }
        }
        if uphill_count == 0 {
            return 1.0;
        }
        let avg = uphill_total / uphill_count as f64;
        (avg / (1.0 / self.schedule.initial_acceptance).ln()).max(self.schedule.min_temperature)
    }
}

/// SA's scratch in the [`Workspace`]: the side member lists swap pairs
/// are drawn from, the compact annealing state, the acceptance table
/// and the best-so-far buffer.
/// Every buffer is refilled per run and keeps its capacity across runs.
#[derive(Debug, Default)]
pub(crate) struct SaArena {
    lists: SideLists,
    compact: Compact,
    exp: ExpTable,
    /// The best-so-far bisection, recycled between runs.
    pub(crate) best: Option<Bisection>,
}

/// The vertices of each side, in the order swap pairs are drawn from.
///
/// Ascending after [`SideLists::fill`], then reordered by each move's
/// swap-remove: unspecified but a pure function of the move history, so
/// SA's draws, and with them its results, depend on that order.
#[derive(Debug, Default)]
struct SideLists {
    /// Vertex lists per side, indexed by [`Side::index`].
    lists: [Vec<VertexId>; 2],
    /// `pos[v]` = index of `v` within its side's list.
    pos: Vec<u32>,
}

impl SideLists {
    /// Rebuilds both lists for the side vector `sides`.
    fn fill(&mut self, sides: &[bool]) {
        self.pos.clear();
        for list in &mut self.lists {
            list.clear();
        }
        for (v, &s) in sides.iter().enumerate() {
            let list = &mut self.lists[s as usize];
            self.pos.push(list.len() as u32);
            list.push(v as VertexId);
        }
    }

    /// Draws the two vertices of a swap proposal: one uniform index
    /// into each side's list. The pair is uniform over A×B at any
    /// balance and costs exactly two draws. `None` if a side is empty.
    #[inline]
    fn draw_pair<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<(VertexId, VertexId)> {
        let [a_side, b_side] = &self.lists;
        if a_side.is_empty() || b_side.is_empty() {
            return None;
        }
        let a = a_side[rng.gen_range(0..a_side.len())];
        let b = b_side[rng.gen_range(0..b_side.len())];
        Some((a, b))
    }

    /// Moves `v` from the list of side index `from` to the other one.
    #[inline]
    fn relocate(&mut self, v: VertexId, from: usize) {
        let at = self.pos[v as usize] as usize;
        let removed = self.lists[from].swap_remove(at);
        debug_assert_eq!(removed, v, "side list out of sync");
        if let Some(&swapped_in) = self.lists[from].get(at) {
            self.pos[swapped_in as usize] = at as u32;
        }
        let to = &mut self.lists[1 - from];
        self.pos[v as usize] = to.len() as u32;
        to.push(v);
    }

    /// Vertex counts per side.
    #[inline]
    fn counts(&self) -> [usize; 2] {
        [self.lists[0].len(), self.lists[1].len()]
    }
}

/// SA's own bisection of one graph: a copy of its adjacency, laid out
/// for the annealing loop, with gains, sides, cut and side weights that
/// SA maintains itself.
///
/// Gains are kept side-free, as each vertex's *pull* toward side B:
/// `pull[v] = w(v, B) − w(v, A)`, the weight of `v`'s edges into B
/// minus that into A. A vertex's gain ([`Bisection::gain`]) is its pull
/// on side A and minus its pull on side B. Moving a vertex leaves its
/// own pull unchanged and shifts every neighbour's by the same `±2w`,
/// so an accepted move never reads a neighbour's side: with gains, the
/// neighbour's side decides the sign, a branch the processor mispredicts
/// about half the time.
///
/// Invariants after [`Compact::fill`], kept by [`Compact::relocate`]:
/// `pull` is exact, and `cut`, `weights` and `side` describe the
/// annealed bisection.
#[derive(Debug, Default)]
struct Compact {
    /// `adj[off[v]..off[v + 1]]` is `v`'s adjacency.
    off: Vec<u32>,
    /// `(neighbour, 2 · edge weight)`, ascending by neighbour per
    /// vertex: the doubled weight is both a move's pull update and a
    /// swap's shared-edge term.
    adj: Vec<(VertexId, i32)>,
    /// Each vertex's pull toward side B.
    pull: Vec<i32>,
    /// `false` = side A, as in [`Bisection::sides`].
    side: Vec<bool>,
    cut: EdgeWeight,
    weights: [VertexWeight; 2],
}

impl Compact {
    /// Rebuilds the state for bisection `p` of `g` in `O(V + E)`. The
    /// caller has checked that `4 · max weighted degree` fits `i32`, so
    /// every doubled weight, pull and swap delta does.
    fn fill(&mut self, g: &Graph, p: &Bisection) {
        let sides = p.sides();
        let n = g.num_vertices();
        // Exact sizes: the arena keeps the largest graph's state, and
        // doubling growth would add up to as much again in slack.
        self.off.clear();
        self.off.reserve_exact(n + 1);
        self.adj.clear();
        self.adj.reserve_exact(2 * g.num_edges());
        self.pull.clear();
        self.pull.reserve_exact(n);
        self.off.push(0);
        for v in g.vertices() {
            let mut pull = 0i64;
            for (u, w) in g.neighbors_weighted(v) {
                self.adj.push((u, (2 * w) as i32));
                pull += if sides[u as usize] {
                    w as i64
                } else {
                    -(w as i64)
                };
            }
            self.pull.push(pull as i32);
            self.off.push(self.adj.len() as u32);
        }
        self.side.clear();
        self.side.extend_from_slice(sides);
        self.cut = p.cut();
        self.weights = [p.weight(Side::A), p.weight(Side::B)];
    }

    /// Twice the weight of edge `{a, b}`, zero when there is none.
    #[inline]
    fn shared(&self, a: VertexId, b: VertexId) -> i32 {
        let a = a as usize;
        let adj = &self.adj[self.off[a] as usize..self.off[a + 1] as usize];
        match adj.binary_search_by_key(&b, |&(u, _)| u) {
            Ok(i) => adj[i].1,
            Err(_) => 0,
        }
    }

    /// The gain of moving `v`: its pull on side A, minus it on side B.
    #[inline]
    fn gain(&self, v: VertexId) -> i32 {
        let pull = self.pull[v as usize];
        if self.side[v as usize] {
            -pull
        } else {
            pull
        }
    }

    /// Moves `v` to the other side in `O(degree(v))`: shifts each
    /// neighbour's pull by the doubled edge weight, toward B when `v`
    /// leaves A and toward A when it leaves B (graphs are self-loop
    /// free), and updates cut, side weights and `lists`. Returns `v`'s
    /// degree.
    #[inline]
    fn relocate(&mut self, g: &Graph, v: VertexId, lists: &mut SideLists) -> usize {
        let vi = v as usize;
        let from = self.side[vi];
        self.cut = self.cut.wrapping_add_signed(-i64::from(self.gain(v)));
        let (lo, hi) = (self.off[vi] as usize, self.off[vi + 1] as usize);
        for &(u, w2) in &self.adj[lo..hi] {
            if from {
                self.pull[u as usize] -= w2;
            } else {
                self.pull[u as usize] += w2;
            }
        }
        self.side[vi] = !from;
        let w = g.vertex_weight(v);
        self.weights[from as usize] -= w;
        self.weights[!from as usize] += w;
        lists.relocate(v, from as usize);
        hi - lo
    }

    /// Writes the annealed bisection into `p`.
    fn write_into(&self, p: &mut Bisection, lists: &SideLists) {
        p.assign(&self.side, self.cut, lists.counts(), self.weights);
    }

    /// One temperature's trials on the compact state.
    fn sweep<R: RngCore + ?Sized>(
        &mut self,
        g: &Graph,
        lists: &mut SideLists,
        table: &ExpTable,
        run: &mut Run<'_>,
        rng: &mut R,
    ) -> Sweep {
        let temperature = run.temperature;
        let mut out = Sweep::default();
        match run.kind {
            MoveKind::Swap => {
                for _ in 0..run.trials {
                    out.proposals += 1;
                    let Some((a, b)) = lists.draw_pair(rng) else {
                        break;
                    };
                    // The delta before the shared-edge term. That term
                    // is 2·w(a, b) ≥ 0 and the table never rises with δ
                    // (`ExpTable::lazy`), so when the number drawn for
                    // `d0 > 0` already fails `d0`'s threshold it fails
                    // the full delta's too, and the edge lookup is
                    // skipped: same draw, same decision.
                    // a is on A and b on B, so g_a + g_b is
                    // pull[a] − pull[b].
                    let d0 = self.pull[b as usize] - self.pull[a as usize];
                    let take = if table.lazy && d0 > 0 {
                        let r = rng.gen::<f64>();
                        r < threshold(i64::from(d0), temperature, &table.values)
                            && r < threshold(
                                i64::from(d0 + self.shared(a, b)),
                                temperature,
                                &table.values,
                            )
                    } else {
                        let delta = i64::from(d0 + self.shared(a, b));
                        accept_with_table(delta, temperature, &table.values, rng)
                    };
                    if take {
                        // A swap is two single moves; b's gain is read
                        // after a's move, so the a–b edge is included.
                        out.walked += self.relocate(g, a, lists) + self.relocate(g, b, lists);
                        out.accepted += 1;
                        if self.cut < run.best.cut() {
                            self.write_into(run.best, lists);
                            out.improved = true;
                        }
                    }
                }
            }
            MoveKind::Flip { imbalance_factor } => {
                for _ in 0..run.trials {
                    out.proposals += 1;
                    let Some(v) = draw_flip_vertex(g, rng) else {
                        break;
                    };
                    let delta = flip_cost_delta(
                        imbalance_factor,
                        self.weights,
                        g.vertex_weight(v),
                        self.side[v as usize],
                        i64::from(self.gain(v)),
                    );
                    if accept(delta, temperature, rng) {
                        out.walked += self.relocate(g, v, lists);
                        out.accepted += 1;
                        let imbalance = self.weights[0].abs_diff(self.weights[1]);
                        if imbalance <= run.tol && self.cut < run.best.cut() {
                            self.write_into(run.best, lists);
                            out.improved = true;
                        }
                    }
                }
            }
        }
        out
    }
}

/// The per-temperature acceptance table: `values[δ] = exp(-δ/T)` for
/// integer uphill deltas δ at the current temperature.
#[derive(Debug, Default)]
struct ExpTable {
    values: Vec<f64>,
    /// Whether the lazy shared-edge lookup is exact at this
    /// temperature: `T > 0`, the table covers every swap delta of the
    /// graph, and its entries never rise with δ. Checked per fill
    /// rather than assumed of the platform's `exp`; when it does not
    /// hold, swaps look the edge up eagerly.
    lazy: bool,
}

impl ExpTable {
    /// Fills `values[δ] = exp(-δ/T)` for `δ ∈ 0..=radius`, reusing the
    /// capacity across temperatures. `covers` says whether `radius`
    /// bounds every swap delta.
    fn fill(&mut self, radius: usize, temperature: f64, covers: bool) {
        self.values.clear();
        for d in 0..=radius {
            self.values.push((-(d as f64) / temperature).exp());
        }
        self.lazy =
            temperature > 0.0 && covers && self.values.windows(2).all(|pair| pair[1] <= pair[0]);
    }
}

/// Per-run context the sweeps share.
struct Run<'a> {
    kind: MoveKind,
    /// The current temperature.
    temperature: f64,
    /// Trials per temperature.
    trials: usize,
    /// The weight imbalance a flip state must be within to count as a
    /// best.
    tol: VertexWeight,
    best: &'a mut Bisection,
}

/// What one temperature's trials did.
#[derive(Debug, Default)]
struct Sweep {
    proposals: usize,
    accepted: usize,
    /// Adjacency entries the accepted moves walked.
    walked: usize,
    /// Whether the best bisection improved.
    improved: bool,
}

/// One temperature's trials on `current`, every delta recomputed from
/// adjacency ([`ProposalEval::Naive`]).
fn naive_sweep<R: RngCore + ?Sized>(
    g: &Graph,
    current: &mut Bisection,
    lists: &mut SideLists,
    run: &mut Run<'_>,
    rng: &mut R,
) -> Sweep {
    let temperature = run.temperature;
    let mut out = Sweep::default();
    match run.kind {
        MoveKind::Swap => {
            for _ in 0..run.trials {
                out.proposals += 1;
                let Some((a, b)) = lists.draw_pair(rng) else {
                    break;
                };
                let delta = -current.swap_gain(g, a, b);
                if accept(delta as f64, temperature, rng) {
                    // The same two moves as the cached path, so the
                    // side lists, and with them the next draws, stay
                    // identical.
                    lists.relocate(a, Side::A.index());
                    current.move_vertex(g, a);
                    lists.relocate(b, Side::B.index());
                    current.move_vertex(g, b);
                    out.accepted += 1;
                    out.walked += g.degree(a) + g.degree(b);
                    if current.cut() < run.best.cut() {
                        run.best.copy_from(current);
                        out.improved = true;
                    }
                }
            }
        }
        MoveKind::Flip { imbalance_factor } => {
            for _ in 0..run.trials {
                out.proposals += 1;
                let Some(v) = draw_flip_vertex(g, rng) else {
                    break;
                };
                let delta = naive_flip_delta(g, current, imbalance_factor, v, current.gain(g, v));
                if accept(delta, temperature, rng) {
                    current.move_vertex(g, v);
                    out.accepted += 1;
                    out.walked += g.degree(v);
                    if current.weight_imbalance() <= run.tol && current.cut() < run.best.cut() {
                        run.best.copy_from(current);
                        out.improved = true;
                    }
                }
            }
        }
    }
    out
}

/// Draws the vertex of a flip proposal (`None` on the empty graph).
#[inline]
fn draw_flip_vertex<R: RngCore + ?Sized>(g: &Graph, rng: &mut R) -> Option<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    Some(rng.gen_range(0..n) as VertexId)
}

/// The flip cost delta `−gain + α·((w_A − w_B)²_after − (w_A − w_B)²)`
/// for moving a vertex of weight `w` off side B if `on_b`, else off
/// side A, given the side weights and the vertex's cut gain.
#[inline]
fn flip_cost_delta(
    imbalance_factor: f64,
    weights: [VertexWeight; 2],
    w: VertexWeight,
    on_b: bool,
    gain: i64,
) -> f64 {
    let cut_delta = (-gain) as f64;
    let w = w as i64;
    let imb = weights[0] as i64 - weights[1] as i64;
    let new_imb = if on_b { imb + 2 * w } else { imb - 2 * w };
    let pen_delta = imbalance_factor * ((new_imb * new_imb - imb * imb) as f64);
    cut_delta + pen_delta
}

/// [`flip_cost_delta`] of moving `v` in `p`.
#[inline]
fn naive_flip_delta(
    g: &Graph,
    p: &Bisection,
    imbalance_factor: f64,
    v: VertexId,
    gain: i64,
) -> f64 {
    let weights = [p.weight(Side::A), p.weight(Side::B)];
    let on_b = p.side(v) == Side::B;
    flip_cost_delta(imbalance_factor, weights, g.vertex_weight(v), on_b, gain)
}

/// Run statistics of one annealing, for schedule tuning and the
/// harness's diagnostics — the paper spends a paragraph on how hard
/// "fine tuning of the annealing schedule" is; these numbers are what
/// one tunes against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaStats {
    /// Starting temperature (given or calibrated).
    pub initial_temperature: f64,
    /// Temperature when the run stopped.
    pub final_temperature: f64,
    /// Temperature steps executed.
    pub temperatures: usize,
    /// Moves proposed in total.
    pub proposals: usize,
    /// Moves accepted in total.
    pub accepted: usize,
    /// Adjacency entries walked by accepted moves: the summed degree of
    /// every vertex an accepted move relocated. With `proposals` this
    /// counts SA's work without a clock.
    pub adjacency_walked: usize,
    /// Whether the run ended by freezing (vs the temperature floor or
    /// the step cap).
    pub froze: bool,
}

impl SaStats {
    /// Overall acceptance ratio.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposals as f64
        }
    }
}

/// Which state a run anneals on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Eval {
    /// [`ProposalEval::Naive`], and graphs the compact state cannot
    /// hold: adjacency that overflows its `u32` offsets, or a swap delta
    /// bound (`4 · max weighted degree`) past its `i32` gains. Both
    /// arms are bit-identical.
    Naive,
    /// The compact state.
    Compact,
}

impl SimulatedAnnealing {
    /// As [`Refiner::refine_counted`], returning the full run
    /// statistics instead of the temperature count. The annealing state
    /// (side lists, compact adjacency and gains), acceptance table and
    /// best-so-far buffer come from `ws`: once the workspace is warm,
    /// the per-temperature and per-move loops perform no heap
    /// allocations.
    ///
    /// This is the monomorphization boundary: the trait object is
    /// downcast once (never per draw) to the workspace's production
    /// generator or the test generator; any other `RngCore` runs the
    /// bit-identical `dyn` fallback.
    pub fn refine_with_stats_in(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, SaStats) {
        if let Some(any) = rng.as_any_mut() {
            if let Some(r) = any.downcast_mut::<LaggedFibonacci>() {
                return self.anneal(g, init, r, ws);
            }
            if let Some(r) = any.downcast_mut::<StdRng>() {
                return self.anneal(g, init, r, ws);
            }
        }
        self.anneal(g, init, rng, ws)
    }

    /// The annealing loop, generic over the concrete generator so every
    /// per-draw call inlines. Bit-identical for every `R` wrapping the
    /// same underlying draw stream, and across [`ProposalEval`] modes.
    fn anneal<R: RngCore + ?Sized>(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut R,
        ws: &mut Workspace,
    ) -> (Bisection, SaStats) {
        let n = g.num_vertices();
        let mut stats = SaStats {
            initial_temperature: 0.0,
            final_temperature: 0.0,
            temperatures: 0,
            proposals: 0,
            accepted: 0,
            adjacency_walked: 0,
            froze: false,
        };
        if n < 2 {
            return (init, stats);
        }
        let schedule = &self.schedule;
        let mut current = init;
        // Best balanced solution seen so far ("one must then save the
        // best bisection found as the algorithm progresses"). The
        // buffer is recycled via the workspace so tracking the best
        // never allocates after the first run.
        let mut best = ws.checkout_sa_best(&current);
        rebalance(g, &mut best);
        let SaArena {
            lists,
            compact,
            exp,
            ..
        } = &mut ws.sa;
        // Filled once per run (no RNG draws) and updated only on
        // accepted moves; both evaluation modes draw swap pairs from
        // these lists, and calibration below does too.
        lists.fill(current.sides());
        let mut temperature = self.initial_temperature(g, &current, lists, rng);
        stats.initial_temperature = temperature;

        // Swap deltas are bounded: |δ| = |g_a + g_b − 2δ_ab| ≤ 4·max
        // weighted degree, which sizes the acceptance table and decides
        // whether the compact state's `i32` gains can hold them.
        let max_wdeg = g
            .vertices()
            .map(|v| g.weighted_degree(v))
            .max()
            .unwrap_or(0);
        let delta_bound = max_wdeg.saturating_mul(4);
        let eval = if self.proposal_eval == ProposalEval::Naive
            || u32::try_from(2 * g.num_edges()).is_err()
            || delta_bound > i32::MAX as u64
        {
            Eval::Naive
        } else {
            compact.fill(g, &current);
            Eval::Compact
        };
        let radius = (delta_bound as usize).min(EXP_TABLE_CAP);
        let covers = delta_bound <= EXP_TABLE_CAP as u64;
        let mut run = Run {
            kind: self.move_kind,
            temperature,
            trials: schedule.sizefactor * n,
            // One tolerance walk per run, not per accepted flip.
            tol: Tolerance::of(g).base,
            best: &mut best,
        };
        let mut frozen_streak = 0usize;

        for _step in 0..schedule.max_temperatures {
            stats.temperatures += 1;
            run.temperature = temperature;
            if eval != Eval::Naive && run.kind == MoveKind::Swap {
                exp.fill(radius, temperature, covers);
            }
            // One dispatch per temperature; each sweep is a tight loop
            // with the move kind and evaluation mode fixed.
            let sweep = match eval {
                Eval::Naive => naive_sweep(g, &mut current, lists, &mut run, rng),
                Eval::Compact => compact.sweep(g, lists, exp, &mut run, rng),
            };
            stats.proposals += sweep.proposals;
            stats.accepted += sweep.accepted;
            stats.adjacency_walked += sweep.walked;
            let acceptance = sweep.accepted as f64 / run.trials as f64;
            if acceptance < schedule.min_acceptance && !sweep.improved {
                frozen_streak += 1;
                if frozen_streak >= schedule.freeze_limit {
                    stats.froze = true;
                    break;
                }
            } else {
                frozen_streak = 0;
            }
            temperature *= schedule.cooling;
            if temperature < schedule.min_temperature {
                break;
            }
        }
        stats.final_temperature = temperature;
        if eval == Eval::Compact {
            compact.write_into(&mut current, lists);
        }

        // In flip mode the current state may beat `best` after
        // rebalancing; check both.
        if let MoveKind::Flip { .. } = self.move_kind {
            rebalance(g, &mut current);
            if current.cut() < best.cut() {
                best.copy_from(&current);
            }
        }
        debug_assert_eq!(best.cut(), best.recompute_cut(g));
        // Return a bisection equal to `best` while parking the tracking
        // buffer back in the workspace for the next run.
        current.copy_from(&best);
        ws.sa.best = Some(best);
        ws.add_proposals(stats.proposals as u64);
        (current, stats)
    }
}

impl Refiner for SimulatedAnnealing {
    fn name(&self) -> String {
        "SA".into()
    }

    /// SA anneals on its own state, so the workspace gain cache is
    /// rebuilt for the result.
    fn refine_projected_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let (p, stats) = self.refine_with_stats_in(g, init, rng, ws);
        ws.gain_cache.init(g, &p);
        (p, stats.temperatures as u64)
    }
}

/// The Metropolis criterion: accept downhill always (no draw), uphill
/// with probability `exp(-δ/T)` (one `f64` draw when `T > 0`).
#[inline]
fn accept<R: RngCore + ?Sized>(delta: f64, temperature: f64, rng: &mut R) -> bool {
    delta <= 0.0 || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp())
}

/// [`accept`] for integer deltas with the per-temperature table of
/// `exp(-δ/T)` values: draws and decisions are bit-identical because
/// table entries are computed by the exact expression `accept`
/// evaluates.
#[inline]
fn accept_with_table<R: RngCore + ?Sized>(
    delta: i64,
    temperature: f64,
    table: &[f64],
    rng: &mut R,
) -> bool {
    if delta <= 0 {
        return true;
    }
    if temperature <= 0.0 {
        return false;
    }
    rng.gen::<f64>() < threshold(delta, temperature, table)
}

/// The acceptance threshold `exp(-δ/T)` of an uphill delta: the table
/// entry, or beyond the precomputed radius (possible only past the
/// `EXP_TABLE_CAP` clamp) what the table would hold.
#[inline]
fn threshold(delta: i64, temperature: f64, table: &[f64]) -> f64 {
    match table.get(delta as usize) {
        Some(&t) => t,
        None => (-(delta as f64) / temperature).exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisector::Bisector;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn swap_sa_is_balanced_and_consistent() {
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let p = SimulatedAnnealing::quick().bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
        assert_eq!(p.count(Side::A), 18);
    }

    #[test]
    fn flip_sa_returns_balanced() {
        let g = special::grid(6, 6);
        let sa = SimulatedAnnealing::quick().with_move_kind(MoveKind::Flip {
            imbalance_factor: 0.05,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let p = sa.bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn finds_small_cut_on_cycle() {
        let g = special::cycle(30);
        let mut rng = StdRng::seed_from_u64(5);
        let best = crate::bisector::best_of(&SimulatedAnnealing::quick(), &g, 2, &mut rng);
        assert!(best.cut() <= 4, "cut {}", best.cut());
    }

    #[test]
    fn beats_random_on_planted_instance() {
        let params = bisect_gen::g2set::G2setParams::with_average_degree(100, 4.0, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let g = bisect_gen::g2set::sample(&mut rng, &params);
        let random = crate::bisector::RandomBisector::new().bisect(&g, &mut rng);
        let annealed = SimulatedAnnealing::quick().bisect(&g, &mut rng);
        assert!(
            annealed.cut() < random.cut(),
            "{} !< {}",
            annealed.cut(),
            random.cut()
        );
    }

    #[test]
    fn respects_explicit_initial_temperature() {
        let g = special::cycle(12);
        let sa = SimulatedAnnealing::new().with_schedule(Schedule {
            initial_temperature: Some(0.5),
            max_temperatures: 10,
            sizefactor: 2,
            ..Schedule::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let p = sa.bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn tiny_graphs_do_not_crash() {
        for n in [0usize, 1, 2, 3] {
            let g = bisect_graph::Graph::empty(n);
            let mut rng = StdRng::seed_from_u64(1);
            let p = SimulatedAnnealing::quick().bisect(&g, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "cooling ratio")]
    fn bad_cooling_rejected() {
        let _ = SimulatedAnnealing::new().with_schedule(Schedule {
            cooling: 1.5,
            ..Schedule::default()
        });
    }

    #[test]
    #[should_panic(expected = "sizefactor")]
    fn zero_sizefactor_rejected() {
        let _ = SimulatedAnnealing::new().with_schedule(Schedule {
            sizefactor: 0,
            ..Schedule::default()
        });
    }

    #[test]
    fn accept_always_takes_downhill() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(accept(-1.0, 0.0, &mut rng));
        assert!(accept(0.0, 1e-9, &mut rng));
    }

    #[test]
    fn accept_rejects_uphill_at_zero_temperature() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(!accept(1.0, 0.0, &mut rng));
        }
    }

    #[test]
    fn accept_rate_matches_boltzmann_roughly() {
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| accept(1.0, 1.0, &mut rng)).count();
        let rate = hits as f64 / trials as f64;
        let expected = (-1.0f64).exp();
        assert!((rate - expected).abs() < 0.02, "rate {rate} vs {expected}");
    }

    #[test]
    fn table_accept_matches_direct_accept_bit_for_bit() {
        // Same seeds, same integer deltas: the table path and the
        // direct path must make identical decisions AND leave the
        // generator in identical states. A deliberately undersized
        // table exercises the out-of-range fallback too.
        for temperature in [0.0, 0.3, 1.0, 7.5] {
            let mut table = ExpTable::default();
            table.fill(8, temperature, false);
            let mut direct = StdRng::seed_from_u64(99);
            let mut tabled = StdRng::seed_from_u64(99);
            for delta in (-3..20).chain([1000, 5000]) {
                let want = accept(delta as f64, temperature, &mut direct);
                let got = accept_with_table(delta, temperature, &table.values, &mut tabled);
                assert_eq!(want, got, "delta {delta} at T={temperature}");
                assert_eq!(direct, tabled, "generator state diverged");
            }
        }
    }

    /// Draws `draws` swap pairs from `lists` (holding `p`'s sides) and
    /// asserts every pair lies in A×B and every pair of A×B comes out
    /// within 5σ of its expected count `draws / (|A|·|B|)`.
    fn assert_pair_draw_uniform(g: &Graph, p: &Bisection, lists: &SideLists, seed: u64) {
        let n = g.num_vertices();
        let draws = 100_000usize;
        let mut counts = vec![0usize; n * n];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..draws {
            let (a, b) = lists.draw_pair(&mut rng).expect("both sides nonempty");
            assert_eq!(
                (p.side(a), p.side(b)),
                (Side::A, Side::B),
                "pair ({a}, {b})"
            );
            counts[a as usize * n + b as usize] += 1;
        }
        let pairs = p.count(Side::A) * p.count(Side::B);
        let prob = 1.0 / pairs as f64;
        let expected = draws as f64 * prob;
        let sigma = (draws as f64 * prob * (1.0 - prob)).sqrt();
        let members = |s: Side| {
            let sides = p.sides().iter().enumerate();
            sides
                .filter(move |&(_, &b)| b == (s == Side::B))
                .map(|(v, _)| v)
        };
        for a in members(Side::A) {
            for b in members(Side::B) {
                let got = counts[a * n + b] as f64;
                assert!(
                    (got - expected).abs() <= 5.0 * sigma,
                    "pair ({a}, {b}): {got} draws, expected {expected:.0} ± {sigma:.0}"
                );
            }
        }
    }

    #[test]
    fn pair_draw_is_uniform_over_cross_pairs() {
        let g = special::grid(3, 4);
        let mut rng = StdRng::seed_from_u64(31);
        let mut p = crate::seed::random_balanced(&g, &mut rng);
        let mut lists = SideLists::default();
        lists.fill(p.sides());
        assert_pair_draw_uniform(&g, &p, &lists, 1);

        // After moves the side lists are no longer ascending; the draw
        // must not care about their order.
        for _ in 0..40 {
            let v = rng.gen_range(0..g.num_vertices()) as VertexId;
            if p.count(p.side(v)) > 1 {
                lists.relocate(v, p.side(v).index());
                p.move_vertex(&g, v);
            }
        }
        assert!(
            lists
                .lists
                .iter()
                .any(|l| l.windows(2).any(|w| w[0] > w[1])),
            "the moves should leave a side list out of order"
        );
        assert_pair_draw_uniform(&g, &p, &lists, 2);

        // One vertex against the rest: A×B is a tiny share of V×V.
        let mut sides = vec![true; g.num_vertices()];
        sides[5] = false;
        let lopsided = Bisection::from_sides(&g, sides).expect("sized to the graph");
        lists.fill(lopsided.sides());
        assert_pair_draw_uniform(&g, &lopsided, &lists, 3);
    }

    #[test]
    fn pair_draw_on_an_empty_side_is_none() {
        let mut lists = SideLists::default();
        lists.fill(&[true; 12]);
        assert_eq!(lists.draw_pair(&mut StdRng::seed_from_u64(1)), None);
    }

    #[test]
    fn compact_state_tracks_moves_exactly() {
        // Gains, cut, side weights and lists stay exact for the
        // bisection the same moves produce.
        let g = weighted_contracted(120, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = crate::seed::weight_balanced_random(&g, &mut rng);
        let mut lists = SideLists::default();
        lists.fill(p.sides());
        let mut state = Compact::default();
        state.fill(&g, &p);
        for _ in 0..60 {
            let v = rng.gen_range(0..g.num_vertices()) as VertexId;
            assert_eq!(state.relocate(&g, v, &mut lists), g.degree(v));
            p.move_vertex(&g, v);
        }
        for v in g.vertices() {
            assert_eq!(i64::from(state.gain(v)), p.gain(&g, v), "gain of {v}");
            let u = v.wrapping_add(1) % g.num_vertices() as VertexId;
            let w = 2 * g.edge_weight(v, u).unwrap_or(0) as i64;
            assert_eq!(i64::from(state.shared(v, u)), w, "edge {v}–{u}");
        }
        let mut written = crate::seed::random_balanced(&g, &mut rng);
        state.write_into(&mut written, &lists);
        assert_eq!(written, p);
        for s in [Side::A, Side::B] {
            let list = &lists.lists[s.index()];
            assert_eq!(list.len(), p.count(s));
            assert!(list.iter().all(|&v| p.side(v) == s));
        }
    }

    #[test]
    fn exp_table_allows_the_lazy_lookup_only_when_exact() {
        let mut table = ExpTable::default();
        table.fill(16, 1.5, true);
        assert!(table.lazy);
        // Past the size cap some deltas fall outside the table.
        table.fill(16, 1.5, false);
        assert!(!table.lazy);
        // T ≤ 0 rejects every uphill delta without a draw.
        for t in [0.0, -1.0, f64::NAN] {
            table.fill(16, t, true);
            assert!(!table.lazy, "T = {t}");
        }
        // Flat tables are monotone: every draw passes d0's threshold.
        table.fill(16, 1e300, true);
        assert!(table.lazy && table.values.iter().all(|&t| t == 1.0));
    }

    /// A weighted Gnp level after one random matching contraction.
    fn weighted_contracted(n: usize, seed: u64) -> Graph {
        let params = bisect_gen::gnp::GnpParams::with_average_degree(n, 4.0).expect("valid");
        let g = bisect_gen::gnp::sample(&mut StdRng::seed_from_u64(seed), &params);
        let m = bisect_graph::matching::random_maximal(&g, &mut StdRng::seed_from_u64(seed));
        bisect_graph::contraction::contract_matching(&g, &m)
            .coarse()
            .clone()
    }

    /// A cycle with chords whose edge weights near 2^30 put every
    /// weighted degree past `i32::MAX`: too wide for the compact state's
    /// gains, which would overflow, so `Cached` mode falls back to the
    /// naive arm.
    fn heavy_cycle(n: usize) -> Graph {
        let mut b = bisect_graph::GraphBuilder::new(n);
        for v in 0..n {
            let w = (1u64 << 30) + 3 * v as u64;
            b.add_weighted_edge(v as VertexId, ((v + 1) % n) as VertexId, w)
                .expect("valid edge");
            b.add_weighted_edge(v as VertexId, ((v + 5) % n) as VertexId, 7 + v as u64)
                .expect("valid edge");
        }
        let g = b.build();
        let min_wdeg = g.vertices().map(|v| g.weighted_degree(v)).min().unwrap();
        assert!(min_wdeg > i32::MAX as u64);
        g
    }

    #[test]
    fn cached_matches_naive_on_compact_gains_and_the_wide_fallback() {
        // The in-crate copy of the equivalence proptests, so release
        // builds (overflow checks off) run the compact state's `i32`
        // gains too. The wide graph pins that its fallback is the
        // naive arm, bit for bit.
        let narrow = weighted_contracted(200, 5);
        let wide = heavy_cycle(40);
        for g in [&narrow, &wide] {
            for move_kind in [
                MoveKind::Swap,
                MoveKind::Flip {
                    imbalance_factor: 0.05,
                },
            ] {
                for initial_temperature in [None, Some(0.0), Some(1e-300), Some(1e300)] {
                    let sa = SimulatedAnnealing::quick()
                        .with_move_kind(move_kind)
                        .with_schedule(Schedule {
                            initial_temperature,
                            ..SimulatedAnnealing::quick().schedule
                        });
                    let run = |eval| {
                        let mut rng = StdRng::seed_from_u64(17);
                        let init = crate::seed::weight_balanced_random(g, &mut rng);
                        let sa = sa.clone().with_proposal_eval(eval);
                        let (p, stats) =
                            sa.refine_with_stats_in(g, init, &mut rng, &mut Workspace::new());
                        (p, stats.proposals, stats.accepted, stats.temperatures, rng)
                    };
                    let (cached, naive) = (run(ProposalEval::Cached), run(ProposalEval::Naive));
                    assert_eq!(cached, naive, "{move_kind:?} at {initial_temperature:?}");
                }
            }
        }
    }

    #[test]
    fn cached_and_naive_eval_are_bit_identical() {
        // The full-run pin lives in tests/sa_equivalence.rs; this is
        // the in-crate smoke version.
        let g = special::grid(8, 6);
        for move_kind in [
            MoveKind::Swap,
            MoveKind::Flip {
                imbalance_factor: 0.05,
            },
        ] {
            let cached = SimulatedAnnealing::quick()
                .with_move_kind(move_kind)
                .bisect(&g, &mut StdRng::seed_from_u64(21));
            let naive = SimulatedAnnealing::quick()
                .with_move_kind(move_kind)
                .with_proposal_eval(ProposalEval::Naive)
                .bisect(&g, &mut StdRng::seed_from_u64(21));
            assert_eq!(cached, naive, "{move_kind:?}");
        }
    }

    #[test]
    fn proposals_counter_reaches_workspace() {
        let g = special::grid(6, 6);
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(12);
        let init = crate::seed::random_balanced(&g, &mut rng);
        let (_, stats) =
            SimulatedAnnealing::quick().refine_with_stats_in(&g, init, &mut rng, &mut ws);
        assert!(stats.proposals > 0);
        assert_eq!(ws.take_proposals(), stats.proposals as u64);
        assert_eq!(ws.take_proposals(), 0, "take drains the counter");
    }

    #[test]
    fn sa_better_than_kl_on_ladder_best_of_two() {
        // Observation 4: SA outperforms KL on ladder graphs. This holds
        // in aggregate; with fixed seeds we assert SA reaches a small
        // cut on a modest ladder.
        let g = special::ladder(24);
        let mut rng = StdRng::seed_from_u64(1989);
        let sa = crate::bisector::best_of(&SimulatedAnnealing::quick(), &g, 2, &mut rng);
        assert!(sa.cut() <= 6, "SA cut {}", sa.cut());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = special::grid(5, 4);
        let a = SimulatedAnnealing::quick().bisect(&g, &mut StdRng::seed_from_u64(3));
        let b = SimulatedAnnealing::quick().bisect(&g, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_does_not_change_results() {
        // A dirty workspace (left over from other graphs/runs) must not
        // leak into the next run.
        let small = special::grid(4, 4);
        let big = special::grid(6, 6);
        let sa = SimulatedAnnealing::quick();
        let mut ws = crate::workspace::Workspace::new();
        let _ = sa.bisect_in(&big, &mut StdRng::seed_from_u64(7), &mut ws);
        let reused = sa.bisect_in(&small, &mut StdRng::seed_from_u64(3), &mut ws);
        let fresh = sa.bisect(&small, &mut StdRng::seed_from_u64(3));
        assert_eq!(reused, fresh);
    }

    #[test]
    fn stats_are_consistent() {
        let g = special::grid(6, 6);
        let sa = SimulatedAnnealing::quick();
        let mut rng = StdRng::seed_from_u64(8);
        let init = crate::seed::random_balanced(&g, &mut rng);
        let (p, stats) = sa.refine_with_stats_in(&g, init, &mut rng, &mut Workspace::new());
        assert!(p.is_balanced(&g));
        assert!(stats.temperatures >= 1);
        assert!(stats.proposals >= stats.accepted);
        assert!(stats.initial_temperature > 0.0);
        assert!(stats.final_temperature <= stats.initial_temperature);
        let ratio = stats.acceptance_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn stats_trivial_graph() {
        let g = bisect_graph::Graph::empty(1);
        let sa = SimulatedAnnealing::quick();
        let mut rng = StdRng::seed_from_u64(8);
        let init = crate::seed::random_balanced(&g, &mut rng);
        let (_, stats) = sa.refine_with_stats_in(&g, init, &mut rng, &mut Workspace::new());
        assert_eq!(stats.proposals, 0);
        assert_eq!(stats.acceptance_ratio(), 0.0);
    }

    #[test]
    fn freezing_is_reported() {
        // A frozen run on an easy instance should report froze = true
        // before exhausting max_temperatures.
        let g = special::cycle(16);
        let sa = SimulatedAnnealing::new().with_schedule(Schedule {
            max_temperatures: 1000,
            sizefactor: 4,
            cooling: 0.8,
            ..Schedule::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let init = crate::seed::random_balanced(&g, &mut rng);
        let (_, stats) = sa.refine_with_stats_in(&g, init, &mut rng, &mut Workspace::new());
        assert!(
            stats.froze || stats.final_temperature < 1e-3,
            "run should end by freezing or the floor: {stats:?}"
        );
        assert!(stats.temperatures < 1000);
    }
}
