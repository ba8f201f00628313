//! Greedy region-growing bisection — a cheap constructive baseline.
//!
//! Grows side A as a breadth-first ball from a random start vertex
//! until it holds half the vertices, optionally retrying several random
//! roots, and rebalances the best by weight. On "geometric" graphs
//! (grids, ladders, paths) this is hard to beat; on expanders it is
//! poor — a useful contrast to the local-search heuristics.

use bisect_graph::Graph;
use rand::RngCore;

use crate::balance;
use crate::bisector::Bisector;
use crate::partition::Bisection;
use crate::seed;
use crate::workspace::Workspace;

/// BFS region-growing bisector.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, greedy::GreedyGrowth};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::path(20);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = GreedyGrowth::new().bisect(&g, &mut rng);
/// assert!(p.cut() <= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyGrowth {
    attempts: usize,
}

impl Default for GreedyGrowth {
    fn default() -> GreedyGrowth {
        GreedyGrowth::new()
    }
}

impl GreedyGrowth {
    /// Greedy growth with 4 random roots.
    pub fn new() -> GreedyGrowth {
        GreedyGrowth { attempts: 4 }
    }

    /// Sets the number of random roots tried.
    ///
    /// # Panics
    ///
    /// Panics if `attempts == 0`.
    pub fn with_attempts(mut self, attempts: usize) -> GreedyGrowth {
        assert!(attempts > 0, "need at least one attempt");
        self.attempts = attempts;
        self
    }
}

impl Bisector for GreedyGrowth {
    fn name(&self) -> String {
        "Greedy".into()
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        _ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let mut best: Option<Bisection> = None;
        for _ in 0..self.attempts {
            let candidate = seed::bfs_balanced(g, rng);
            if best.as_ref().is_none_or(|b| candidate.cut() < b.cut()) {
                best = Some(candidate);
            }
        }
        // lint: allow(no-panic) — attempts is validated >= 1 at construction
        let mut best = best.expect("attempts >= 1");
        balance::rebalance(g, &mut best, &[]);
        (best, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimal_on_path() {
        let g = special::path(30);
        let mut rng = StdRng::seed_from_u64(0);
        let p = GreedyGrowth::new().bisect(&g, &mut rng);
        assert!(p.cut() <= 2);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn good_on_grid() {
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let p = GreedyGrowth::new().with_attempts(8).bisect(&g, &mut rng);
        // A BFS ball on a grid cuts O(perimeter); allow some slack.
        assert!(p.cut() <= 24, "cut {}", p.cut());
    }

    #[test]
    fn zero_cut_on_disconnected_cycles() {
        let g = special::cycle_collection(4, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let p = GreedyGrowth::new().bisect(&g, &mut rng);
        assert_eq!(p.cut(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = GreedyGrowth::new().with_attempts(0);
    }

    #[test]
    fn name() {
        assert_eq!(GreedyGrowth::new().name(), "Greedy");
    }
}
