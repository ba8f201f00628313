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
//!
//! # Hot-path engineering
//!
//! The inner loop evaluates `sizefactor·|V|` proposals per temperature
//! and rejects most of them at useful temperatures, so it is built
//! around three *bit-identical* optimizations (DESIGN.md §10):
//!
//! 1. **Incremental gain cache** ([`crate::gain_cache::GainCache`],
//!    default [`ProposalEval::Cached`]) — per-vertex gains are
//!    maintained FM-style across accepted moves, making the common
//!    rejected proposal O(1) instead of O(deg). The original
//!    recompute-per-proposal path survives as [`ProposalEval::Naive`],
//!    and `tests/sa_equivalence.rs` pins the two bit-identical.
//! 2. **Monomorphization** — the public API keeps `&mut dyn RngCore`,
//!    but [`SimulatedAnnealing::refine_with_stats_in`] downcasts the
//!    trait object once (via `RngCore::as_any_mut`) and dispatches into
//!    a generic inner loop, so per-draw generator calls inline instead
//!    of going through the vtable. Unknown generators take an equally
//!    correct `dyn` fallback.
//! 3. **Table-driven acceptance** — swap deltas are small bounded
//!    integers, so `exp(-δ/T)` is precomputed per temperature into a
//!    workspace slice; entries are produced by the exact expression
//!    `accept` evaluates, so lookups change nothing about accept
//!    decisions.
//!
//! A swap proposal's pair is drawn with one uniform index into each
//! side's member list of the gain cache, which both evaluation modes
//! keep exact through the same recorded moves: uniform over A×B, the
//! paper's "random pair across the cut", for two draws at any balance.
//! This draw is not bit-identical to versions that rejection-sampled
//! pairs from all of V; the distribution is the same, the random
//! stream is not (DESIGN.md §10).

use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::balance::Tolerance;
use crate::bisector::{Bisector, Refiner};
use crate::gain_cache::GainCache;
use crate::partition::{rebalance, Bisection, Side};
use crate::seed;
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
    /// Read per-vertex gains from the workspace
    /// [`crate::gain_cache::GainCache`], updated in O(deg) only on
    /// accepted moves; rejected proposals cost O(1) array reads (plus
    /// one edge lookup for swaps).
    #[default]
    Cached,
    /// Recompute each proposal's gain from adjacency, as the original
    /// implementation did. Retained as the reference that the cached
    /// path is proptest-pinned against (`tests/sa_equivalence.rs`);
    /// both produce bit-identical draws, accepts, and results.
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

    fn initial_temperature<R: RngCore + ?Sized>(
        &self,
        g: &Graph,
        p: &Bisection,
        rng: &mut R,
        ws: &mut Workspace,
        cached: bool,
    ) -> f64 {
        if let Some(t0) = self.schedule.initial_temperature {
            return t0;
        }
        // Sample random moves; average the uphill deltas and solve
        // exp(-avg/T0) = initial_acceptance. Cached and naive gains are
        // the same integers, so the calibrated T0 is identical.
        let samples = (g.num_vertices() * 2).clamp(32, 2048);
        let mut uphill_total = 0.0f64;
        let mut uphill_count = 0usize;
        for _ in 0..samples {
            let delta = match self.move_kind {
                MoveKind::Swap => draw_swap_pair(&ws.gain_cache, rng).map(|(a, b)| {
                    let d = if cached {
                        -ws.gain_cache.swap_gain(g, a, b)
                    } else {
                        -p.swap_gain(g, a, b)
                    };
                    d as f64
                }),
                MoveKind::Flip { imbalance_factor } => draw_flip_vertex(g, rng).map(|v| {
                    let gain = if cached {
                        ws.gain_cache.gain(v)
                    } else {
                        p.gain(g, v)
                    };
                    flip_cost_delta(g, p, imbalance_factor, v, gain)
                }),
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

/// Draws the two vertices of a swap proposal: one uniform index into
/// each side's member list of `cache`, which must be exact for the
/// current bisection. The pair is uniform over A×B at any balance and
/// costs exactly two draws. `None` if a side is empty.
#[inline]
fn draw_swap_pair<R: RngCore + ?Sized>(
    cache: &GainCache,
    rng: &mut R,
) -> Option<(VertexId, VertexId)> {
    let (members_a, members_b) = (cache.members(Side::A), cache.members(Side::B));
    if members_a.is_empty() || members_b.is_empty() {
        return None;
    }
    let a = members_a[rng.gen_range(0..members_a.len())];
    let b = members_b[rng.gen_range(0..members_b.len())];
    Some((a, b))
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
/// for moving `v`, given `v`'s current cut gain.
#[inline]
fn flip_cost_delta(g: &Graph, p: &Bisection, imbalance_factor: f64, v: VertexId, gain: i64) -> f64 {
    let cut_delta = (-gain) as f64;
    let w = g.vertex_weight(v) as i64;
    let imb = p.weight(Side::A) as i64 - p.weight(Side::B) as i64;
    let new_imb = if p.side(v) == Side::A {
        imb - 2 * w
    } else {
        imb + 2 * w
    };
    let pen_delta = imbalance_factor * ((new_imb * new_imb - imb * imb) as f64);
    cut_delta + pen_delta
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

impl SimulatedAnnealing {
    /// As [`Refiner::refine_counted`], returning the full run
    /// statistics instead of the temperature count. The gain cache
    /// (with the side member lists swap pairs are drawn from),
    /// acceptance table and best-so-far buffer come from `ws`: once the
    /// workspace is warm, the per-temperature and per-move loops
    /// perform no heap allocations.
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
            froze: false,
        };
        if n < 2 {
            return (init, stats);
        }
        let schedule = &self.schedule;
        let cached = self.proposal_eval == ProposalEval::Cached;
        let mut current = init;
        // The cache is built once per run (no RNG draws) and updated
        // only on accepted moves. Both evaluation modes draw swap pairs
        // from its member lists, and calibration below reads it too.
        ws.gain_cache.init(g, &current);
        let mut temperature = self.initial_temperature(g, &current, rng, ws, cached);
        stats.initial_temperature = temperature;

        // Best balanced solution seen so far ("one must then save the
        // best bisection found as the algorithm progresses"). The
        // buffer is recycled via the workspace so tracking the best
        // never allocates after the first run.
        let mut best = ws.checkout_sa_best(&current);
        rebalance(g, &mut best);
        // One tolerance walk per run, not per accepted flip.
        let tol = Tolerance::of(g).base;
        // Swap deltas are bounded: |δ| = |g_a + g_b − 2δ_ab| ≤ 4·max
        // weighted degree, which sizes the acceptance table.
        let exp_radius = if cached && matches!(self.move_kind, MoveKind::Swap) {
            let max_wdeg = g
                .vertices()
                .map(|v| g.weighted_degree(v))
                .max()
                .unwrap_or(0);
            (max_wdeg as usize).saturating_mul(4).min(EXP_TABLE_CAP)
        } else {
            0
        };
        let trials = schedule.sizefactor * n;
        let mut frozen_streak = 0usize;

        for _step in 0..schedule.max_temperatures {
            stats.temperatures += 1;
            let mut accepted = 0usize;
            let mut improved_best = false;
            // One dispatch per temperature; each arm is a tight loop
            // with the move kind and evaluation mode fixed.
            match (self.move_kind, cached) {
                (MoveKind::Swap, true) => {
                    fill_exp_table(&mut ws.sa_exp, exp_radius, temperature);
                    for _ in 0..trials {
                        stats.proposals += 1;
                        let Some((a, b)) = draw_swap_pair(&ws.gain_cache, rng) else {
                            break;
                        };
                        let delta = -ws.gain_cache.swap_gain(g, a, b);
                        if accept_with_table(delta, temperature, &ws.sa_exp, rng) {
                            // A swap is two single moves; b's gain is
                            // re-read after a's move so the a–b edge
                            // adjustment is included.
                            let gain_a = ws.gain_cache.gain(a);
                            ws.gain_cache.record_move_untracked(g, &current, a);
                            current.move_vertex_with_gain(g, a, gain_a);
                            let gain_b = ws.gain_cache.gain(b);
                            ws.gain_cache.record_move_untracked(g, &current, b);
                            current.move_vertex_with_gain(g, b, gain_b);
                            accepted += 1;
                            if current.cut() < best.cut() {
                                best.copy_from(&current);
                                improved_best = true;
                            }
                        }
                    }
                }
                (MoveKind::Swap, false) => {
                    for _ in 0..trials {
                        stats.proposals += 1;
                        let Some((a, b)) = draw_swap_pair(&ws.gain_cache, rng) else {
                            break;
                        };
                        let delta = -current.swap_gain(g, a, b);
                        if accept(delta as f64, temperature, rng) {
                            // The same two recorded moves as the cached
                            // arm, so the member lists, and with them
                            // the next draws, stay identical.
                            ws.gain_cache.record_move_untracked(g, &current, a);
                            current.move_vertex(g, a);
                            ws.gain_cache.record_move_untracked(g, &current, b);
                            current.move_vertex(g, b);
                            accepted += 1;
                            if current.cut() < best.cut() {
                                best.copy_from(&current);
                                improved_best = true;
                            }
                        }
                    }
                }
                (MoveKind::Flip { imbalance_factor }, true) => {
                    for _ in 0..trials {
                        stats.proposals += 1;
                        let Some(v) = draw_flip_vertex(g, rng) else {
                            break;
                        };
                        let gain = ws.gain_cache.gain(v);
                        let delta = flip_cost_delta(g, &current, imbalance_factor, v, gain);
                        if accept(delta, temperature, rng) {
                            ws.gain_cache.record_move_untracked(g, &current, v);
                            current.move_vertex_with_gain(g, v, gain);
                            accepted += 1;
                            if current.weight_imbalance() <= tol && current.cut() < best.cut() {
                                best.copy_from(&current);
                                improved_best = true;
                            }
                        }
                    }
                }
                (MoveKind::Flip { imbalance_factor }, false) => {
                    for _ in 0..trials {
                        stats.proposals += 1;
                        let Some(v) = draw_flip_vertex(g, rng) else {
                            break;
                        };
                        let delta =
                            flip_cost_delta(g, &current, imbalance_factor, v, current.gain(g, v));
                        if accept(delta, temperature, rng) {
                            current.move_vertex(g, v);
                            accepted += 1;
                            if current.weight_imbalance() <= tol && current.cut() < best.cut() {
                                best.copy_from(&current);
                                improved_best = true;
                            }
                        }
                    }
                }
            }
            stats.accepted += accepted;
            let acceptance = accepted as f64 / trials as f64;
            if acceptance < schedule.min_acceptance && !improved_best {
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
        ws.sa_best = Some(best);
        ws.add_proposals(stats.proposals as u64);
        (current, stats)
    }
}

impl Bisector for SimulatedAnnealing {
    fn name(&self) -> String {
        "SA".into()
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = seed::random_balanced(g, rng);
        self.refine_counted(g, init, rng, ws)
    }
}

impl Refiner for SimulatedAnnealing {
    fn refine_counted(
        &self,
        g: &Graph,
        init: Bisection,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let (p, stats) = self.refine_with_stats_in(g, init, rng, ws);
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
    let threshold = match table.get(delta as usize) {
        Some(&t) => t,
        // Beyond the precomputed radius (possible only past the
        // EXP_TABLE_CAP clamp): compute what the table would hold.
        None => (-(delta as f64) / temperature).exp(),
    };
    rng.gen::<f64>() < threshold
}

/// Fills `table[δ] = exp(-δ/T)` for `δ ∈ 0..=radius`, reusing the
/// slice's capacity across temperatures.
fn fill_exp_table(table: &mut Vec<f64>, radius: usize, temperature: f64) {
    table.clear();
    for d in 0..=radius {
        table.push((-(d as f64) / temperature).exp());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut table = Vec::new();
            fill_exp_table(&mut table, 8, temperature);
            let mut direct = StdRng::seed_from_u64(99);
            let mut tabled = StdRng::seed_from_u64(99);
            for delta in (-3..20).chain([1000, 5000]) {
                let want = accept(delta as f64, temperature, &mut direct);
                let got = accept_with_table(delta, temperature, &table, &mut tabled);
                assert_eq!(want, got, "delta {delta} at T={temperature}");
                assert_eq!(direct, tabled, "generator state diverged");
            }
        }
    }

    /// Draws `draws` swap pairs from `cache` (exact for `p`) and asserts
    /// every pair lies in A×B and every pair of A×B comes out within 5σ
    /// of its expected count `draws / (|A|·|B|)`.
    fn assert_pair_draw_uniform(g: &Graph, p: &Bisection, cache: &GainCache, seed: u64) {
        let n = g.num_vertices();
        let draws = 100_000usize;
        let mut counts = vec![0usize; n * n];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..draws {
            let (a, b) = draw_swap_pair(cache, &mut rng).expect("both sides nonempty");
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
        for a in p.members(Side::A) {
            for b in p.members(Side::B) {
                let got = counts[a as usize * n + b as usize] as f64;
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
        let mut cache = GainCache::default();
        cache.init(&g, &p);
        assert_pair_draw_uniform(&g, &p, &cache, 1);

        // After recorded moves the member lists are no longer ascending;
        // the draw must not care about their order.
        for _ in 0..40 {
            let v = rng.gen_range(0..g.num_vertices()) as VertexId;
            if p.count(p.side(v)) > 1 {
                cache.record_move_untracked(&g, &p, v);
                p.move_vertex(&g, v);
            }
        }
        assert!(
            [Side::A, Side::B]
                .iter()
                .any(|&s| cache.members(s).windows(2).any(|w| w[0] > w[1])),
            "the moves should leave a member list out of order"
        );
        assert_pair_draw_uniform(&g, &p, &cache, 2);

        // One vertex against the rest: A×B is a tiny share of V×V.
        let mut sides = vec![true; g.num_vertices()];
        sides[5] = false;
        let lopsided = Bisection::from_sides(&g, sides).expect("sized to the graph");
        cache.init(&g, &lopsided);
        assert_pair_draw_uniform(&g, &lopsided, &cache, 3);
    }

    #[test]
    fn pair_draw_on_an_empty_side_is_none() {
        let g = special::grid(3, 4);
        let all_b = Bisection::from_sides(&g, vec![true; g.num_vertices()]).expect("sized");
        let mut cache = GainCache::default();
        cache.init(&g, &all_b);
        assert_eq!(draw_swap_pair(&cache, &mut StdRng::seed_from_u64(1)), None);
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
