//! Exact minimum bisection by branch and bound — ground truth for small
//! graphs.
//!
//! Graph bisection is NP-hard, but instances up to ~30 vertices solve
//! quickly with a simple depth-first branch and bound: vertices are
//! assigned to sides in decreasing-degree order, the running cut is the
//! bound, vertex 0's side is fixed to break the mirror symmetry, and a
//! branch is cut off when either side is full or the running cut
//! reaches the incumbent. The test suites use this to verify that the
//! heuristics never "beat" the true optimum and to measure their
//! optimality gap on small instances.

use bisect_graph::{Graph, VertexId};
use rand::RngCore;

use crate::bisector::Bisector;
use crate::partition::Bisection;
use crate::workspace::Workspace;

/// Hard limit on the vertex count accepted by [`minimum_bisection`].
pub const MAX_VERTICES: usize = 40;

/// Error returned when a graph is too large for exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLargeError {
    /// Vertices in the offending graph.
    pub num_vertices: usize,
}

impl std::fmt::Display for TooLargeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exact bisection limited to {MAX_VERTICES} vertices, graph has {}",
            self.num_vertices
        )
    }
}

impl std::error::Error for TooLargeError {}

/// Computes a minimum balanced bisection exactly.
///
/// Runs in `O*(2^n)` worst case; practical well past 30 vertices on
/// sparse graphs thanks to the cut bound.
///
/// # Errors
///
/// Returns [`TooLargeError`] if the graph has more than
/// [`MAX_VERTICES`] vertices.
// lint: allow(no-panic) — branch-and-bound expects: the empty assignment
// is balanced for n = 0, exactly ⌊n/2⌋ vertices are sent to side B, and
// the search only stores full balanced assignments.
pub fn minimum_bisection(g: &Graph) -> Result<Bisection, TooLargeError> {
    let n = g.num_vertices();
    if n > MAX_VERTICES {
        return Err(TooLargeError { num_vertices: n });
    }
    if n == 0 {
        return Ok(Bisection::from_sides(g, Vec::new()).expect("empty sides fit"));
    }

    // Assign high-degree vertices first: their edges resolve early, so
    // the running-cut bound bites sooner.
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));

    let cap_a = n.div_ceil(2);
    let cap_b = n / 2;

    let mut best_sides = vec![false; n];
    // Initial incumbent: first ⌈n/2⌉ of the order on side A.
    for &v in order.iter().skip(cap_a) {
        best_sides[v as usize] = true;
    }
    let mut best_cut = Bisection::from_sides(g, best_sides.clone())
        .expect("initial incumbent valid")
        .cut();

    let mut depth_of = vec![usize::MAX; n];
    for (depth, &v) in order.iter().enumerate() {
        depth_of[v as usize] = depth;
    }

    let mut sides = vec![false; n];
    let mut search = Search {
        g,
        order: &order,
        depth_of: &depth_of,
        cap_a,
        cap_b,
        best_cut: &mut best_cut,
        best_sides: &mut best_sides,
    };
    if n.is_multiple_of(2) {
        // Fix the first vertex on side A: for even n the mirrored
        // assignment has the same cut and side sizes, halving the tree.
        // For odd n the sides have different sizes so the mirror lives
        // in a different capacity profile — no symmetry to break.
        sides[order[0] as usize] = false;
        search.recurse(&mut sides, 1, 1, 0, 0);
    } else {
        search.recurse(&mut sides, 0, 0, 0, 0);
    }

    Ok(Bisection::from_sides(g, best_sides).expect("search produced full assignment"))
}

struct Search<'a> {
    g: &'a Graph,
    order: &'a [VertexId],
    depth_of: &'a [usize],
    cap_a: usize,
    cap_b: usize,
    best_cut: &'a mut u64,
    best_sides: &'a mut Vec<bool>,
}

impl Search<'_> {
    fn recurse(
        &mut self,
        sides: &mut Vec<bool>,
        depth: usize,
        count_a: usize,
        count_b: usize,
        cut: u64,
    ) {
        if cut >= *self.best_cut {
            return;
        }
        if depth == self.order.len() {
            *self.best_cut = cut;
            self.best_sides.clone_from(sides);
            return;
        }
        let v = self.order[depth];
        for side in [false, true] {
            let (na, nb) = if side {
                (count_a, count_b + 1)
            } else {
                (count_a + 1, count_b)
            };
            if na > self.cap_a || nb > self.cap_b {
                continue;
            }
            // Added cut: edges from v to already-assigned vertices on
            // the other side.
            let mut added = 0u64;
            for (u, w) in self.g.neighbors_weighted(v) {
                if self.depth_of[u as usize] < depth && sides[u as usize] != side {
                    added += w;
                }
            }
            sides[v as usize] = side;
            self.recurse(sides, depth + 1, na, nb, cut + added);
        }
    }
}

/// [`minimum_bisection`] as a [`Bisector`] (for plugging ground truth
/// into the shared harness on tiny graphs). It is the minimum over
/// *count*-balanced bisections, with no weight guard, as the oracle on
/// unit graphs; on weighted vertices it may fail
/// [`Bisection::is_balanced`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactBisector;

impl ExactBisector {
    /// Creates the exact bisector.
    pub fn new() -> ExactBisector {
        ExactBisector
    }
}

impl Bisector for ExactBisector {
    fn name(&self) -> String {
        "Exact".into()
    }

    /// # Panics
    ///
    /// Panics if the graph exceeds [`MAX_VERTICES`].
    fn bisect_counted(
        &self,
        g: &Graph,
        _rng: &mut dyn RngCore,
        _ws: &mut Workspace,
    ) -> (Bisection, u64) {
        // lint: allow(no-panic) — documented panic contract of the infallible Bisector facade
        let p = minimum_bisection(g).expect("graph within exact solver limits");
        (p, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;

    fn brute_force(g: &Graph) -> u64 {
        let n = g.num_vertices();
        assert!(n <= 20);
        let cap_a = n.div_ceil(2);
        let mut best = u64::MAX;
        for mask in 0..1u32 << n {
            if mask.count_ones() as usize != cap_a {
                continue;
            }
            let sides: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 0).collect();
            let cut = Bisection::from_sides(g, sides).unwrap().cut();
            best = best.min(cut);
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let graphs = vec![
            special::cycle(8),
            special::path(9),
            special::grid(3, 4),
            special::ladder(5),
            special::binary_tree(10),
            special::complete(6),
            special::star(7),
            special::wheel(8),
        ];
        for g in graphs {
            let exact = minimum_bisection(&g).unwrap();
            assert!(exact.is_balanced(&g));
            assert_eq!(exact.cut(), exact.recompute_cut(&g));
            assert_eq!(
                exact.cut(),
                brute_force(&g),
                "graph with {} vertices",
                g.num_vertices()
            );
        }
    }

    #[test]
    fn known_bisection_widths() {
        assert_eq!(minimum_bisection(&special::cycle(12)).unwrap().cut(), 2);
        assert_eq!(minimum_bisection(&special::ladder(6)).unwrap().cut(), 2);
        assert_eq!(minimum_bisection(&special::grid(4, 4)).unwrap().cut(), 4);
        assert_eq!(minimum_bisection(&special::complete(8)).unwrap().cut(), 16);
        assert_eq!(minimum_bisection(&special::hypercube(3)).unwrap().cut(), 4);
        assert_eq!(minimum_bisection(&special::star(8)).unwrap().cut(), 4);
    }

    #[test]
    fn disconnected_graph_zero_cut() {
        let g = special::cycle_collection(2, 5);
        assert_eq!(minimum_bisection(&g).unwrap().cut(), 0);
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(minimum_bisection(&Graph::empty(0)).unwrap().cut(), 0);
        assert_eq!(minimum_bisection(&Graph::empty(1)).unwrap().cut(), 0);
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(minimum_bisection(&g).unwrap().cut(), 1);
    }

    #[test]
    fn rejects_large_graph() {
        let g = Graph::empty(MAX_VERTICES + 1);
        let err = minimum_bisection(&g).unwrap_err();
        assert_eq!(err.num_vertices, MAX_VERTICES + 1);
        assert!(err.to_string().contains("41"));
    }

    #[test]
    fn exact_bisector_trait() {
        use rand::SeedableRng;
        let g = special::cycle(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let p = ExactBisector::new().bisect(&g, &mut rng);
        assert_eq!(p.cut(), 2);
        assert_eq!(ExactBisector::new().name(), "Exact");
    }

    #[test]
    fn weighted_graph_exact() {
        let mut b = bisect_graph::GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 5).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 3).unwrap();
        b.add_edge(3, 0).unwrap();
        let g = b.build();
        // Keep the weight-5 edge internal: split {0,1} | {2,3}, cut 2.
        assert_eq!(minimum_bisection(&g).unwrap().cut(), 2);
    }
}
