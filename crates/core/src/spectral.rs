//! Spectral bisection via the Fiedler vector — an extension baseline.
//!
//! The second-smallest eigenvector of the graph Laplacian `L = D − A`
//! (the Fiedler vector) orders vertices along the graph's "softest"
//! direction; splitting at the median yields a balanced bisection. This
//! technique (Donath-Hoffman / Fiedler, popularized for partitioning by
//! Pothen-Simon-Liou 1990) is the other classical family of bisection
//! algorithms contemporary with the paper, included for comparison in
//! the harness.
//!
//! The Fiedler vector is computed without any linear-algebra
//! dependency, by power iteration on the spectrally shifted operator
//! `M = c·I − L` (`c = 1 + max weighted degree`, making `M` positive
//! semidefinite with the Fiedler vector as its second-largest
//! eigenvector) while deflating the all-ones eigenvector.

use bisect_graph::{Graph, VertexId};
use rand::{Rng, RngCore};

use crate::bisector::Bisector;
use crate::partition::{rebalance, Bisection};
use crate::workspace::Workspace;

/// Fiedler-vector bisector.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, spectral::SpectralBisector};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let p = SpectralBisector::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// assert!(p.cut() <= 12); // spectral is near optimal on grids
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralBisector {
    iterations: usize,
}

impl Default for SpectralBisector {
    fn default() -> SpectralBisector {
        SpectralBisector::new()
    }
}

impl SpectralBisector {
    /// Spectral bisection with 300 power iterations.
    pub fn new() -> SpectralBisector {
        SpectralBisector { iterations: 300 }
    }

    /// Sets the number of power iterations.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn with_iterations(mut self, iterations: usize) -> SpectralBisector {
        assert!(iterations > 0, "need at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Computes an approximate Fiedler vector of `g`.
    pub fn fiedler_vector(&self, g: &Graph, rng: &mut dyn RngCore) -> Vec<f64> {
        let n = g.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let shift = 1.0
            + g.vertices()
                .map(|v| g.weighted_degree(v))
                .max()
                .unwrap_or(0) as f64
                * 2.0;
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut y = vec![0.0f64; n];
        for _ in 0..self.iterations {
            deflate_ones(&mut x);
            normalize(&mut x);
            // y = (shift·I − L)·x = shift·x − D·x + A·x.
            for v in 0..n {
                let vid = v as VertexId;
                let mut acc = (shift - g.weighted_degree(vid) as f64) * x[v];
                for (u, w) in g.neighbors_weighted(vid) {
                    acc += w as f64 * x[u as usize];
                }
                y[v] = acc;
            }
            std::mem::swap(&mut x, &mut y);
        }
        deflate_ones(&mut x);
        normalize(&mut x);
        x
    }
}

fn deflate_ones(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for value in x.iter_mut() {
        *value -= mean;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for value in x.iter_mut() {
            *value /= norm;
        }
    }
}

impl Bisector for SpectralBisector {
    fn name(&self) -> String {
        "Spectral".into()
    }

    // lint: allow(no-panic) — the empty assignment is balanced for n = 0,
    // and otherwise side has n entries with exactly ⌈n/2⌉ on side A.
    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        _ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let n = g.num_vertices();
        if n == 0 {
            return (Bisection::from_sides(g, Vec::new()).expect("empty ok"), 0);
        }
        let fiedler = self.fiedler_vector(g, rng);
        // Side A = the ⌈n/2⌉ vertices with smallest Fiedler value.
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by(|&a, &b| {
            fiedler[a as usize]
                .partial_cmp(&fiedler[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut side = vec![true; n];
        for &v in order.iter().take(n.div_ceil(2)) {
            side[v as usize] = false;
        }
        let mut p = Bisection::from_sides(g, side).expect("side vector correct length");
        rebalance(g, &mut p);
        (p, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fiedler_vector_orthogonal_to_ones_and_unit() {
        let g = special::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let f = SpectralBisector::new().fiedler_vector(&g, &mut rng);
        let sum: f64 = f.iter().sum();
        let norm: f64 = f.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(sum.abs() < 1e-9, "sum {sum}");
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn fiedler_splits_path_monotonically() {
        // On a path the Fiedler vector is monotone (a cosine), so the
        // two median halves are the two ends.
        let g = special::path(12);
        let mut rng = StdRng::seed_from_u64(2);
        let p = SpectralBisector::new().bisect(&g, &mut rng);
        assert_eq!(p.cut(), 1, "spectral must find the optimal path cut");
    }

    #[test]
    fn near_optimal_on_grid() {
        let g = special::grid(10, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let p = SpectralBisector::new().bisect(&g, &mut rng);
        assert!(p.cut() <= 14, "cut {}", p.cut());
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn good_on_planted_partition() {
        let params = bisect_gen::g2set::G2setParams::with_average_degree(200, 6.0, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let g = bisect_gen::g2set::sample(&mut rng, &params);
        let p = SpectralBisector::new().bisect(&g, &mut rng);
        assert!(p.cut() <= 40, "cut {} vs planted 10", p.cut());
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = special::cycle_collection(2, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let p = SpectralBisector::new().bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        // Fiedler value separates the two components: cut 0.
        assert_eq!(p.cut(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = bisect_graph::Graph::empty(0);
        let mut rng = StdRng::seed_from_u64(5);
        let p = SpectralBisector::new().bisect(&g, &mut rng);
        assert_eq!(p.cut(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = SpectralBisector::new().with_iterations(0);
    }
}
