//! The `Gbreg(2n, b, d)` model of Bui, Chaudhuri, Leighton & Sipser
//! (Combinatorica 1987) — the paper's primary test model (§IV).
//!
//! `Gbreg(2n, b, d)` is the class of simple `d`-regular graphs on `2n`
//! vertices with exactly `b` edges crossing the planted bisection
//! `A = 0..n` vs `B = n..2n`, so the bisection width is at most `b`.
//! For `b` well below the typical cut of a random regular graph, the
//! planted bisection is with high probability the unique minimum, which
//! is what makes the model useful: "this model overcomes the weakness of
//! `Gnp`" and, unlike `G2set`, can plant a *small* unique bisection in a
//! *small-degree* graph.
//!
//! Construction: distribute `b` cross stubs over each side (each vertex
//! at most `d`), realize the cross edges as a random simple bipartite
//! graph with those degrees, then realize each side's residual degree
//! sequence (`d` minus cross degree) as a random simple graph — both via
//! the repaired configuration model in [`crate::regular`].
//!
//! The paper notes degree-2 instances are disjoint unions of chordless
//! cycles with true optimum ≤ 2; tests below check that shape.

use bisect_graph::{Graph, GraphBuilder, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{regular, GenError};

/// Parameters of the `Gbreg` model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GbregParams {
    /// Total number of vertices (the paper's `2n`); must be even.
    pub num_vertices: usize,
    /// Exact number of planted cross edges (bisection width ≤ `b`).
    pub b: usize,
    /// Degree of every vertex.
    pub d: usize,
}

impl GbregParams {
    /// Validates and constructs the parameters.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] unless all of:
    /// `num_vertices` positive, even and at most `VertexId::MAX`; `d < n`
    /// (so each side can be simple); `b ≤ n·d` (enough stubs) and
    /// `b ≤ n²` (enough distinct cross pairs); and `n·d − b` even (each
    /// side's residual degree sum must be even).
    pub fn new(num_vertices: usize, b: usize, d: usize) -> Result<GbregParams, GenError> {
        GenError::check_id_range("num_vertices", num_vertices)?;
        if num_vertices == 0 || !num_vertices.is_multiple_of(2) {
            return Err(GenError::InvalidParameter(format!(
                "number of vertices must be positive and even, got {num_vertices}"
            )));
        }
        let n = num_vertices / 2;
        if d >= n {
            return Err(GenError::InvalidParameter(format!(
                "degree d = {d} must be smaller than the side size n = {n}"
            )));
        }
        if b > n * d {
            return Err(GenError::InvalidParameter(format!(
                "b = {b} exceeds the {} cross stubs available per side (n·d)",
                n * d
            )));
        }
        if b > n * n {
            return Err(GenError::InvalidParameter(format!(
                "b = {b} exceeds the {} distinct cross pairs (n²)",
                n * n
            )));
        }
        if !(n * d).wrapping_sub(b).is_multiple_of(2) {
            return Err(GenError::InvalidParameter(format!(
                "n·d − b must be even (each side's internal degree sum), got n·d = {}, b = {b}",
                n * d
            )));
        }
        Ok(GbregParams { num_vertices, b, d })
    }

    /// Half the vertex count (side size `n`).
    pub fn side_size(&self) -> usize {
        self.num_vertices / 2
    }
}

/// Samples a `Gbreg` graph. Side A is `0..n`, side B is `n..2n`; the
/// planted bisection crosses exactly `b` edges.
///
/// # Errors
///
/// [`GenError::ConstructionFailed`] if the randomized construction
/// (including the per-side residual sequences, which can occasionally be
/// non-graphical) fails repeatedly. For the paper's parameter ranges
/// this is vanishingly rare.
pub fn sample<R: Rng + ?Sized>(rng: &mut R, params: &GbregParams) -> Result<Graph, GenError> {
    let n = params.side_size();
    let (b, d) = (params.b, params.d);
    let mut last_err = GenError::ConstructionFailed {
        attempts: regular::MAX_ATTEMPTS,
    };
    for _ in 0..regular::MAX_ATTEMPTS {
        // 1. Cross degrees: b stubs per side, each vertex at most d.
        //    Taking the first b entries of a shuffled list containing
        //    each vertex d times caps per-vertex cross degree at d.
        let cross_a = draw_cross_degrees(rng, n, d, b);
        let cross_b = draw_cross_degrees(rng, n, d, b);

        // 2. Cross edges: simple bipartite realization.
        let cross = match regular::sample_bipartite(rng, &cross_a, &cross_b) {
            Ok(pairs) => pairs,
            Err(e) => {
                last_err = e;
                continue;
            }
        };

        // 3. Internal edges of each side.
        let resid_a: Vec<usize> = cross_a.iter().map(|&c| d - c).collect();
        let resid_b: Vec<usize> = cross_b.iter().map(|&c| d - c).collect();
        let internal_a = match regular::sample_degree_sequence(rng, &resid_a) {
            Ok(pairs) => pairs,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let internal_b = match regular::sample_degree_sequence(rng, &resid_b) {
            Ok(pairs) => pairs,
            Err(e) => {
                last_err = e;
                continue;
            }
        };

        // Stream the three staged pair lists straight into the CSR
        // build: the closure re-scans the same arrays on both passes, so
        // no `(u, v, w)` edge list is ever materialized on top of them.
        let g = GraphBuilder::stream(params.num_vertices, |sink| {
            for &(u, v) in &internal_a {
                sink.edge(u, v)?;
            }
            for &(u, v) in &internal_b {
                sink.edge(u + n as VertexId, v + n as VertexId)?;
            }
            for &(a, bb) in &cross {
                sink.edge(a, bb + n as VertexId)?;
            }
            Ok(())
        })
        // lint: allow(no-panic) — sampled half-ids are < n, shifts stay in range,
        // and both passes scan the same staged arrays
        .expect("staged Gbreg edges valid");
        debug_assert_eq!(g.regular_degree(), Some(d));
        return Ok(g);
    }
    Err(last_err)
}

/// Picks cross-degree counts for one side: `b` stubs spread over `n`
/// vertices with each vertex getting at most `d`, by taking the first
/// `b` entries of a shuffled list with `d` copies of each vertex.
fn draw_cross_degrees<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize, b: usize) -> Vec<usize> {
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for v in 0..n as u32 {
        stubs.extend(std::iter::repeat_n(v, d));
    }
    stubs.shuffle(rng);
    let mut counts = vec![0usize; n];
    for &v in &stubs[..b] {
        counts[v as usize] += 1;
    }
    counts
}

/// The planted bisection width bound `b` of a `Gbreg` instance, i.e. the
/// cut of the planted sides. Provided for symmetry with the harness.
pub fn planted_cut(g: &Graph) -> u64 {
    let n = g.num_vertices() / 2;
    g.edges()
        .filter(|&(u, v, _)| ((u as usize) < n) != ((v as usize) < n))
        .map(|(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_vertex_counts_beyond_the_id_range() {
        // Even, so only the id range rules it out.
        let too_many = VertexId::MAX as usize + 1;
        assert!(matches!(
            GbregParams::new(too_many, 64, 4),
            Err(GenError::InvalidParameter(_))
        ));
        assert!(GbregParams::new(VertexId::MAX as usize - 1, 64, 4).is_ok());
    }

    #[test]
    fn params_reject_odd_vertices() {
        assert!(GbregParams::new(9, 2, 3).is_err());
        assert!(GbregParams::new(0, 0, 1).is_err());
    }

    #[test]
    fn params_reject_large_degree() {
        assert!(GbregParams::new(10, 1, 5).is_err());
        assert!(GbregParams::new(10, 2, 4).is_ok());
    }

    #[test]
    fn params_reject_parity_violation() {
        // n = 5, d = 3: n·d = 15 odd, so b must be odd.
        assert!(GbregParams::new(10, 2, 3).is_err());
        assert!(GbregParams::new(10, 3, 3).is_ok());
    }

    #[test]
    fn params_reject_excess_b() {
        // n = 4, d = 2: n·d = 8.
        assert!(GbregParams::new(8, 10, 2).is_err());
        assert!(GbregParams::new(8, 8, 2).is_ok());
    }

    #[test]
    fn sampled_graph_is_regular_with_exact_cut() {
        for &(nv, b, d) in &[(20, 2, 3), (20, 4, 4), (40, 6, 3), (100, 10, 4), (60, 0, 4)] {
            let params = GbregParams::new(nv, b, d).unwrap();
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + nv as u64);
                let g = sample(&mut rng, &params).unwrap();
                assert_eq!(g.num_vertices(), nv);
                assert_eq!(
                    g.regular_degree(),
                    Some(d),
                    "nv={nv} b={b} d={d} seed={seed}"
                );
                assert_eq!(planted_cut(&g), b as u64, "nv={nv} b={b} d={d} seed={seed}");
                assert!(g.is_unit_weighted());
            }
        }
    }

    #[test]
    fn degree_two_instances_are_unions_of_cycles() {
        let params = GbregParams::new(40, 4, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let g = sample(&mut rng, &params).unwrap();
        // Every vertex has degree 2 and the graph is simple, so each
        // component is a chordless cycle (the paper's remark).
        assert_eq!(g.regular_degree(), Some(2));
        for (comp, _) in bisect_graph::subgraph::split_components(&g).unwrap() {
            assert_eq!(comp.num_edges(), comp.num_vertices());
        }
    }

    #[test]
    fn zero_cross_edges_disconnect_sides() {
        let params = GbregParams::new(24, 0, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample(&mut rng, &params).unwrap();
        assert_eq!(planted_cut(&g), 0);
    }

    #[test]
    fn large_instance_matches_paper_scale() {
        // The appendix's largest setting: 5000 vertices, degree 3.
        let params = GbregParams::new(5000, 16, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1989);
        let g = sample(&mut rng, &params).unwrap();
        assert_eq!(g.regular_degree(), Some(3));
        assert_eq!(planted_cut(&g), 16);
        assert_eq!(g.num_edges(), 7500);
    }

    #[test]
    fn deterministic_given_seed() {
        let params = GbregParams::new(50, 5, 3).unwrap();
        let a = sample(&mut StdRng::seed_from_u64(2), &params).unwrap();
        let b = sample(&mut StdRng::seed_from_u64(2), &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let params = GbregParams::new(50, 5, 3).unwrap();
        let a = sample(&mut StdRng::seed_from_u64(2), &params).unwrap();
        let b = sample(&mut StdRng::seed_from_u64(3), &params).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn side_size_accessor() {
        let params = GbregParams::new(10, 1, 3).unwrap();
        assert_eq!(params.side_size(), 5);
    }

    #[test]
    fn max_cross_degree_respected() {
        // b = n·d forces every vertex to have all stubs crossing.
        let params = GbregParams::new(12, 12, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let g = sample(&mut rng, &params).unwrap();
        assert_eq!(planted_cut(&g), 12);
        // All edges cross: internal degree 0 everywhere.
        assert_eq!(g.num_edges(), 12);
    }
}
