//! The `G2set(2n, pA, pB, bis)` planted-cut model (§IV of the paper).
//!
//! The vertex set is split into halves `A = 0..n` and `B = n..2n`.
//! Within `A` each edge appears independently with probability `pA`,
//! within `B` with probability `pB`, and exactly `bis` cross edges are
//! placed uniformly at random (without repetition), so `bis` is an upper
//! bound on the bisection width.
//!
//! The paper notes the model's weakness that motivates `Gbreg`: at small
//! average degree the *actual* minimum bisection is often much smaller
//! than `bis` (degree < 2 usually gives bisection width 0). The planted
//! sides are recoverable from vertex ids (`v < n` ⇔ side A), which the
//! harness uses to report `b` alongside the cuts found.

use bisect_graph::{Graph, GraphBuilder, VertexId};
use rand::Rng;

use crate::{gnp, GenError};

/// Parameters of the `G2set` model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct G2setParams {
    /// Total number of vertices (the paper's `2n`); must be even.
    pub num_vertices: usize,
    /// Edge probability within side A.
    pub p_a: f64,
    /// Edge probability within side B.
    pub p_b: f64,
    /// Exact number of cross edges (upper bound on bisection width).
    pub bis: usize,
}

impl G2setParams {
    /// Validates and constructs the parameters.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if `num_vertices` is odd or zero,
    /// exceeds `VertexId::MAX`, a probability leaves `[0, 1]`, or
    /// `bis > n²` (more cross edges than distinct cross pairs).
    pub fn new(
        num_vertices: usize,
        p_a: f64,
        p_b: f64,
        bis: usize,
    ) -> Result<G2setParams, GenError> {
        GenError::check_id_range("num_vertices", num_vertices)?;
        if num_vertices == 0 || !num_vertices.is_multiple_of(2) {
            return Err(GenError::InvalidParameter(format!(
                "number of vertices must be positive and even, got {num_vertices}"
            )));
        }
        for (name, p) in [("pA", p_a), ("pB", p_b)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(GenError::InvalidParameter(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        let n = num_vertices / 2;
        if bis > n * n {
            return Err(GenError::InvalidParameter(format!(
                "bis = {bis} exceeds the {} distinct cross pairs",
                n * n
            )));
        }
        Ok(G2setParams {
            num_vertices,
            p_a,
            p_b,
            bis,
        })
    }

    /// Parameters with `pA = pB` chosen so the *expected* overall
    /// average degree is `avg_degree` once the `bis` cross edges are
    /// counted — the parameterization the paper's appendix tables use
    /// ("`G2set(5000, pA, pB, b)` with average degree 2.5").
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if the implied probability leaves
    /// `[0, 1]` or the basic constraints of [`G2setParams::new`] fail.
    pub fn with_average_degree(
        num_vertices: usize,
        avg_degree: f64,
        bis: usize,
    ) -> Result<G2setParams, GenError> {
        if num_vertices < 4 || !num_vertices.is_multiple_of(2) {
            return Err(GenError::InvalidParameter(format!(
                "number of vertices must be even and at least 4, got {num_vertices}"
            )));
        }
        let n = (num_vertices / 2) as f64;
        // Expected edges: 2·C(n,2)·p + bis = (2n)·avg/2 = n·avg.
        let target_internal = n * avg_degree - bis as f64;
        if target_internal < 0.0 {
            return Err(GenError::InvalidParameter(format!(
                "bis = {bis} alone exceeds the edge budget of average degree {avg_degree}"
            )));
        }
        let p = target_internal / (n * (n - 1.0));
        G2setParams::new(num_vertices, p, p, bis)
    }

    /// Half the vertex count (side size `n`).
    pub fn side_size(&self) -> usize {
        self.num_vertices / 2
    }

    /// The expected average degree implied by the parameters.
    pub fn expected_average_degree(&self) -> f64 {
        let n = self.side_size() as f64;
        let internal = n * (n - 1.0) / 2.0 * (self.p_a + self.p_b);
        (internal + self.bis as f64) / n
    }
}

/// Samples a `G2set` graph. Side A is vertices `0..n`, side B is
/// `n..2n`.
// lint: allow(no-panic) — side/cross ids are < 2n by construction
pub fn sample<R: Rng + ?Sized>(rng: &mut R, params: &G2setParams) -> Graph {
    let n = params.side_size();
    let mut builder = GraphBuilder::new(params.num_vertices);
    // Expected edge count: both sides' internal edges plus the planted
    // cross edges (rounded up to absorb sampling variance).
    let pairs = (n * n.saturating_sub(1) / 2) as f64;
    let expected = (pairs * (params.p_a + params.p_b)).ceil() as usize + params.bis;
    builder.reserve_edges(expected + expected / 8);

    // Internal edges of each side, reusing the Gnp sampler on n vertices.
    let side_a = gnp::sample(
        rng,
        &gnp::GnpParams {
            num_vertices: n,
            p: params.p_a,
        },
    );
    for (u, v, _) in side_a.edges() {
        builder.add_edge(u, v).expect("side A edges valid");
    }
    let side_b = gnp::sample(
        rng,
        &gnp::GnpParams {
            num_vertices: n,
            p: params.p_b,
        },
    );
    for (u, v, _) in side_b.edges() {
        builder
            .add_edge(u + n as VertexId, v + n as VertexId)
            .expect("side B edges valid");
    }

    // Exactly `bis` distinct cross pairs. `bis` is far below n² in all
    // the paper's settings, so rejection sampling is cheap; fall back to
    // dense enumeration when `bis` approaches n².
    let total_pairs = n * n;
    if params.bis * 2 > total_pairs {
        // Dense: choose `bis` of all n² pairs via partial Fisher-Yates.
        let mut pairs: Vec<(VertexId, VertexId)> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a as VertexId, (n + b) as VertexId)))
            .collect();
        for i in 0..params.bis {
            let j = rng.gen_range(i..pairs.len());
            pairs.swap(i, j);
            let (a, b) = pairs[i];
            builder.add_edge(a, b).expect("cross edges valid");
        }
    } else {
        // Membership-only (edges are emitted in draw order), but a
        // BTreeSet keeps hasher state out of the generator entirely.
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < params.bis {
            let a = rng.gen_range(0..n) as VertexId;
            let b = (n + rng.gen_range(0..n)) as VertexId;
            if chosen.insert((a, b)) {
                builder.add_edge(a, b).expect("cross edges valid");
            }
        }
    }
    builder.build()
}

/// The planted side assignment of a `G2set` (or `Gbreg`) instance on
/// `num_vertices` vertices: `false` for `v < n` (side A), `true`
/// otherwise.
pub fn planted_sides(num_vertices: usize) -> Vec<bool> {
    let n = num_vertices / 2;
    (0..num_vertices).map(|v| v >= n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_vertex_counts_beyond_the_id_range() {
        let too_many = VertexId::MAX as usize + 1;
        assert!(matches!(
            G2setParams::new(too_many, 0.0, 0.0, 8),
            Err(GenError::InvalidParameter(_))
        ));
        assert!(matches!(
            G2setParams::with_average_degree(too_many, 3.0, 8),
            Err(GenError::InvalidParameter(_))
        ));
        assert!(G2setParams::new(VertexId::MAX as usize - 1, 0.0, 0.0, 8).is_ok());
    }

    fn cross_cut(g: &Graph) -> usize {
        let sides = planted_sides(g.num_vertices());
        g.edges()
            .filter(|&(u, v, _)| sides[u as usize] != sides[v as usize])
            .count()
    }

    #[test]
    fn params_reject_odd() {
        assert!(G2setParams::new(7, 0.1, 0.1, 0).is_err());
        assert!(G2setParams::new(0, 0.1, 0.1, 0).is_err());
    }

    #[test]
    fn params_reject_bad_probability() {
        assert!(G2setParams::new(10, 1.2, 0.1, 0).is_err());
        assert!(G2setParams::new(10, 0.1, -0.5, 0).is_err());
    }

    #[test]
    fn params_reject_excess_bis() {
        assert!(G2setParams::new(6, 0.1, 0.1, 10).is_err());
        assert!(G2setParams::new(6, 0.1, 0.1, 9).is_ok());
    }

    #[test]
    fn exact_cross_edge_count() {
        let params = G2setParams::new(60, 0.1, 0.1, 13).unwrap();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = sample(&mut rng, &params);
            assert_eq!(cross_cut(&g), 13, "seed {seed}");
        }
    }

    #[test]
    fn zero_bis_disconnects_sides() {
        let params = G2setParams::new(40, 0.3, 0.3, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample(&mut rng, &params);
        assert_eq!(cross_cut(&g), 0);
    }

    #[test]
    fn dense_bis_path() {
        // bis > n²/2 triggers the partial Fisher-Yates branch.
        let params = G2setParams::new(8, 0.0, 0.0, 14).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample(&mut rng, &params);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(cross_cut(&g), 14);
    }

    #[test]
    fn full_bipartite_when_bis_max() {
        let params = G2setParams::new(6, 0.0, 0.0, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample(&mut rng, &params);
        assert_eq!(g.num_edges(), 9);
    }

    #[test]
    fn with_average_degree_hits_target() {
        let params = G2setParams::with_average_degree(2000, 3.0, 32).unwrap();
        assert!((params.expected_average_degree() - 3.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        let g = sample(&mut rng, &params);
        assert!(
            (g.average_degree() - 3.0).abs() < 0.3,
            "avg {}",
            g.average_degree()
        );
    }

    #[test]
    fn with_average_degree_rejects_excess_bis() {
        assert!(G2setParams::with_average_degree(100, 1.0, 1000).is_err());
    }

    #[test]
    fn asymmetric_probabilities() {
        let params = G2setParams::new(200, 0.2, 0.0, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let g = sample(&mut rng, &params);
        let n = 100;
        let b_internal = g
            .edges()
            .filter(|&(u, v, _)| u as usize >= n && v as usize >= n)
            .count();
        assert_eq!(b_internal, 0);
        assert!(g.num_edges() > 5);
    }

    #[test]
    fn planted_sides_balanced() {
        let sides = planted_sides(10);
        assert_eq!(sides.iter().filter(|&&s| s).count(), 5);
        assert!(!sides[0] && sides[9]);
    }

    #[test]
    fn deterministic_given_seed() {
        let params = G2setParams::with_average_degree(100, 2.5, 8).unwrap();
        let a = sample(&mut StdRng::seed_from_u64(1), &params);
        let b = sample(&mut StdRng::seed_from_u64(1), &params);
        assert_eq!(a, b);
    }
}
