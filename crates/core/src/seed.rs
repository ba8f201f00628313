//! Initial bisections (starting configurations).
//!
//! The paper starts every heuristic "from two different randomly
//! generated initial bisections" — [`random_balanced`], by count, the
//! start of every refiner's flat path, which ends by rebalancing by
//! weight (see [`Refiner`](crate::bisector::Refiner)). Contracted
//! graphs start from [`weight_balanced_random`] instead, so the
//! projected bisection is vertex-balanced on the fine graph; the
//! pipeline engine picks between the two by its coarsening depth.
//! [`bfs_balanced`] grows one side as a BFS ball, the start of
//! [`GreedyGrowth`](crate::greedy::GreedyGrowth).
//!
//! The two random draws come from the crate's balance layer
//! (`balance.rs`) and draw exactly as their netlist namesakes do.

use bisect_graph::{traversal, Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::balance::{self, Cells};
use crate::partition::Bisection;

/// A uniformly random balanced bisection: a random half of the vertices
/// (by count) goes to side A. For odd vertex counts side A gets the
/// extra vertex.
pub fn random_balanced<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Bisection {
    balance::count_balanced(g, rng)
}

/// A random bisection balanced by vertex *weight*: vertices are visited
/// in random order and each goes to the currently lighter side. The
/// final weight imbalance is at most the largest vertex weight, which is
/// what contracted (coarse) graphs need — count-balanced splits of a
/// coarse graph can be badly weight-imbalanced.
pub fn weight_balanced_random<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Bisection {
    balance::weight_balanced(g, &[], rng)
}

/// A bisection whose side A is a breadth-first ball around a random
/// start vertex: the first ⌈n/2⌉ vertices of a BFS order (continuing
/// from further random roots if the component is exhausted).
pub fn bfs_balanced<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Bisection {
    let n = g.num_vertices();
    let half = n.div_ceil(2);
    let mut side = vec![true; n];
    let mut taken = 0usize;
    let mut visited = vec![false; n];
    let mut roots: Vec<VertexId> = (0..n as VertexId).collect();
    roots.shuffle(rng);
    'outer: for &root in &roots {
        if visited[root as usize] {
            continue;
        }
        for v in traversal::bfs_order(g, root) {
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            side[v as usize] = false;
            taken += 1;
            if taken == half {
                break 'outer;
            }
        }
    }
    g.part(side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Side;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_balanced_is_balanced() {
        let g = bisect_gen::special::grid(4, 5);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = random_balanced(&g, &mut rng);
            assert_eq!(p.count(Side::A), 10);
            assert!(p.is_balanced(&g));
        }
    }

    #[test]
    fn random_balanced_odd_graph() {
        let g = bisect_gen::special::path(7);
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_balanced(&g, &mut rng);
        assert_eq!(p.count(Side::A), 4);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn random_balanced_varies_with_seed() {
        let g = bisect_gen::special::grid(6, 6);
        let a = random_balanced(&g, &mut StdRng::seed_from_u64(1));
        let b = random_balanced(&g, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.sides(), b.sides());
    }

    #[test]
    fn weight_balanced_random_on_unit_graph() {
        let g = bisect_gen::special::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(8);
        let p = weight_balanced_random(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.count(Side::A), 8);
    }

    #[test]
    fn weight_balanced_random_on_weighted_graph() {
        use bisect_graph::{contraction::contract_matching, matching::Matching};
        let g = bisect_gen::special::ladder(8);
        let m = Matching::from_pairs(16, &[(0, 8), (1, 9), (2, 10)]);
        let c = contract_matching(&g, &m);
        let coarse = c.coarse();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = weight_balanced_random(coarse, &mut rng);
            assert!(
                p.weight_imbalance() <= 2,
                "imbalance {}",
                p.weight_imbalance()
            );
        }
    }

    #[test]
    fn bfs_balanced_is_balanced_and_contiguous_on_path() {
        let g = bisect_gen::special::path(10);
        let mut rng = StdRng::seed_from_u64(3);
        let p = bfs_balanced(&g, &mut rng);
        assert_eq!(p.count(Side::A), 5);
        // A BFS ball on a path is an interval, so the cut is 1 or 2.
        assert!(p.cut() <= 2, "cut {}", p.cut());
    }

    #[test]
    fn bfs_balanced_handles_disconnected() {
        let g = bisect_gen::special::cycle_collection(4, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let p = bfs_balanced(&g, &mut rng);
        assert_eq!(p.count(Side::A), 6);
        // Whole cycles fit on one side: cut 0.
        assert_eq!(p.cut(), 0);
    }

    #[test]
    fn bfs_balanced_empty_graph() {
        let g = bisect_graph::Graph::empty(0);
        let mut rng = StdRng::seed_from_u64(3);
        let p = bfs_balanced(&g, &mut rng);
        assert_eq!(p.count(Side::A), 0);
    }
}
