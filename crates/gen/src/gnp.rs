//! The `Gnp(2n, p)` Erdős–Rényi model (§IV of the paper).
//!
//! Every one of the `C(2n, 2)` possible edges is present independently
//! with probability `p`; the expected average degree is `(2n-1)p`. The
//! paper observes that for fixed `p` these graphs have minimum bisection
//! close to half the edges — a random bisection is near optimal — so the
//! model "may not distinguish good heuristics from mediocre ones". It is
//! still reproduced here because the appendix reports `Gnp(5000, p)` and
//! `Gnp(2000, p)` tables.
//!
//! Sampling skips over absent edges geometrically, so the cost is
//! `O(n + m)` rather than `O(n²)`.

use bisect_graph::{EdgeStream, Graph, GraphBuilder, GraphError, VertexId};
use rand::Rng;

use crate::GenError;

/// Parameters of the `Gnp` model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnpParams {
    /// Number of vertices (the paper's `2n`).
    pub num_vertices: usize,
    /// Edge probability in `[0, 1]`.
    pub p: f64,
}

impl GnpParams {
    /// Validates and constructs the parameters.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if `p` is not in `[0, 1]` or not
    /// finite, or `num_vertices` exceeds `VertexId::MAX`.
    pub fn new(num_vertices: usize, p: f64) -> Result<GnpParams, GenError> {
        GenError::check_id_range("num_vertices", num_vertices)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(GenError::InvalidParameter(format!(
                "edge probability must be in [0, 1], got {p}"
            )));
        }
        Ok(GnpParams { num_vertices, p })
    }

    /// Parameters whose *expected average degree* is `avg_degree`:
    /// `p = avg_degree / (num_vertices - 1)`.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidParameter`] if the implied `p` leaves `[0, 1]`
    /// or `num_vertices < 2`.
    pub fn with_average_degree(
        num_vertices: usize,
        avg_degree: f64,
    ) -> Result<GnpParams, GenError> {
        if num_vertices < 2 {
            return Err(GenError::InvalidParameter(
                "need at least 2 vertices to target an average degree".into(),
            ));
        }
        GnpParams::new(num_vertices, avg_degree / (num_vertices as f64 - 1.0))
    }

    /// The expected average degree `(num_vertices - 1) * p`.
    pub fn expected_average_degree(&self) -> f64 {
        (self.num_vertices.saturating_sub(1)) as f64 * self.p
    }
}

/// Samples a `Gnp` graph.
// lint: allow(no-panic) — u < v < n by the loop bounds, and unrank_pair
// yields a < b < n for positions < C(n,2).
pub fn sample<R: Rng + ?Sized>(rng: &mut R, params: &GnpParams) -> Graph {
    let n = params.num_vertices;
    let p = params.p;
    let mut builder = GraphBuilder::new(n);
    if n < 2 || p <= 0.0 {
        return builder.build();
    }
    if p >= 1.0 {
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                builder.add_edge(u, v).expect("complete graph edges valid");
            }
        }
        return builder.build();
    }
    // Geometric skipping over the linearized strict upper triangle
    // (Batagelj-Brandes): jump ~Geom(p) positions between present edges.
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    // Pre-size for the expected edge count plus slack for variance.
    let expected = (total_pairs as f64 * p).ceil() as usize;
    builder.reserve_edges(expected + expected / 8);
    let mut position: u64 = 0;
    // First gap is also geometric; start from -1 conceptually.
    while let Some((a, b)) = next_present_pair(rng, &mut position, n as u64, total_pairs, p) {
        builder
            .add_edge(a as VertexId, b as VertexId)
            .expect("unranked pairs are valid distinct vertices");
    }
    builder.build()
}

/// Samples a `Gnp` graph without materializing an edge list: edges are
/// streamed twice (from a cloned generator, then the caller's) straight
/// into the counting-sorted CSR build of [`GraphBuilder::stream`]. The
/// result and the caller-visible generator state are identical to
/// [`sample`] — this path just halves peak memory during construction,
/// which is what makes the `huge` bench profile's 10^6-vertex instances
/// comfortable.
pub fn sample_streamed<R: Rng + Clone>(rng: &mut R, params: &GnpParams) -> Graph {
    let n = params.num_vertices;
    let p = params.p;
    if n < 2 || p <= 0.0 {
        return GraphBuilder::new(n).build();
    }
    if p >= 1.0 {
        // The complete-graph path draws nothing from the generator.
        return sample(rng, params);
    }
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    let mut replay = rng.clone();
    let mut pass = 0usize;
    GraphBuilder::stream(n, |sink| {
        pass += 1;
        // The counting pass replays a clone, so the caller's generator
        // advances exactly once — ending in the same state as `sample`.
        let r: &mut R = if pass == 1 { &mut replay } else { rng };
        emit_present_pairs(r, n as u64, total_pairs, p, sink)
    })
    // lint: allow(no-panic) — both passes replay the same generator state,
    // so the emitted sequences are identical and every pair is valid
    .expect("replayed Gnp passes emit identical valid edges")
}

/// Streams every present pair of one full geometric-skipping sweep into
/// `sink`.
fn emit_present_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    n: u64,
    total_pairs: u64,
    p: f64,
    sink: &mut EdgeStream<'_>,
) -> Result<(), GraphError> {
    let mut position: u64 = 0;
    while let Some((a, b)) = next_present_pair(rng, &mut position, n, total_pairs, p) {
        sink.edge(a as VertexId, b as VertexId)?;
    }
    Ok(())
}

/// Advances the geometric skip chain by one draw and returns the next
/// present pair, or `None` once the position leaves the triangle. Shared
/// verbatim by [`sample`] and [`sample_streamed`] so both consume the
/// generator identically.
fn next_present_pair<R: Rng + ?Sized>(
    rng: &mut R,
    position: &mut u64,
    n: u64,
    total_pairs: u64,
    p: f64,
) -> Option<(u64, u64)> {
    let log_q = (1.0 - p).ln();
    let u: f64 = rng.gen::<f64>();
    // Skip of k means k absent pairs before the next present one.
    let skip = if u <= 0.0 {
        total_pairs
    } else {
        (u.ln() / log_q).floor() as u64
    };
    *position = position.saturating_add(skip);
    if *position >= total_pairs {
        return None;
    }
    let pair = unrank_pair(*position, n);
    *position += 1;
    Some(pair)
}

/// Maps a linear index in `0..C(n,2)` to the pair `(a, b)` with `a < b`,
/// enumerating pairs row by row: (0,1), (0,2), …, (0,n-1), (1,2), ….
fn unrank_pair(index: u64, n: u64) -> (u64, u64) {
    // Row a starts at offset a*n - a*(a+1)/2 - a ... solve directly by
    // walking rows; rows shrink so use the quadratic formula.
    // Offset of row a is S(a) = a*(2n - a - 1)/2.
    // Find largest a with S(a) <= index.
    let fa = n as f64 - 0.5;
    let disc = fa * fa - 2.0 * index as f64;
    let mut a = (fa - disc.max(0.0).sqrt()).floor() as u64;
    // Guard against floating point off-by-one.
    while row_offset(a + 1, n) <= index {
        a += 1;
    }
    while a > 0 && row_offset(a, n) > index {
        a -= 1;
    }
    let b = a + 1 + (index - row_offset(a, n));
    debug_assert!(a < b && b < n);
    (a, b)
}

fn row_offset(a: u64, n: u64) -> u64 {
    a * (2 * n - a - 1) / 2
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
            GnpParams::new(too_many, 0.0),
            Err(GenError::InvalidParameter(_))
        ));
        assert!(matches!(
            GnpParams::with_average_degree(too_many, 3.0),
            Err(GenError::InvalidParameter(_))
        ));
        assert!(GnpParams::new(VertexId::MAX as usize, 0.0).is_ok());
    }

    #[test]
    fn params_validate_probability() {
        assert!(GnpParams::new(10, -0.1).is_err());
        assert!(GnpParams::new(10, 1.5).is_err());
        assert!(GnpParams::new(10, f64::NAN).is_err());
        assert!(GnpParams::new(10, 0.5).is_ok());
    }

    #[test]
    fn with_average_degree_computes_p() {
        let p = GnpParams::with_average_degree(101, 4.0).unwrap();
        assert!((p.p - 0.04).abs() < 1e-12);
        assert!((p.expected_average_degree() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn with_average_degree_rejects_infeasible() {
        assert!(GnpParams::with_average_degree(1, 2.0).is_err());
        assert!(GnpParams::with_average_degree(5, 10.0).is_err());
    }

    #[test]
    fn p_zero_gives_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample(&mut rng, &GnpParams::new(50, 0.0).unwrap());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn p_one_gives_complete() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample(&mut rng, &GnpParams::new(20, 1.0).unwrap());
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            sample(&mut rng, &GnpParams::new(0, 0.5).unwrap()).num_vertices(),
            0
        );
        assert_eq!(
            sample(&mut rng, &GnpParams::new(1, 0.5).unwrap()).num_edges(),
            0
        );
    }

    #[test]
    fn unrank_pair_enumerates_all() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n * (n - 1) / 2 {
            let (a, b) = unrank_pair(i, n);
            assert!(a < b && b < n, "index {i} gave ({a},{b})");
            assert!(seen.insert((a, b)), "duplicate pair at index {i}");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn unrank_pair_order() {
        assert_eq!(unrank_pair(0, 5), (0, 1));
        assert_eq!(unrank_pair(3, 5), (0, 4));
        assert_eq!(unrank_pair(4, 5), (1, 2));
        assert_eq!(unrank_pair(9, 5), (3, 4));
    }

    #[test]
    fn edge_count_near_expectation() {
        let params = GnpParams::new(400, 0.05).unwrap();
        let expected = 400.0 * 399.0 / 2.0 * 0.05;
        let mut total = 0usize;
        let trials = 20;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            total += sample(&mut rng, &params).num_edges();
        }
        let mean = total as f64 / trials as f64;
        // Std dev of one draw is ~sqrt(m*(1-p)) ≈ 61; mean of 20 draws
        // has std ≈ 14. Allow 5 sigma.
        assert!(
            (mean - expected).abs() < 70.0,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = sample(&mut rng, &GnpParams::new(100, 0.1).unwrap());
        assert!(g.is_unit_weighted());
        for v in g.vertices() {
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn deterministic_given_rng_state() {
        let params = GnpParams::new(60, 0.2).unwrap();
        let a = sample(&mut StdRng::seed_from_u64(4), &params);
        let b = sample(&mut StdRng::seed_from_u64(4), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_matches_edge_list_sample() {
        for &(nv, p) in &[(60usize, 0.2), (200, 0.03), (5, 1.0), (40, 0.0), (1, 0.5)] {
            let params = GnpParams::new(nv, p).unwrap();
            let mut rng_a = StdRng::seed_from_u64(4);
            let mut rng_b = StdRng::seed_from_u64(4);
            let a = sample(&mut rng_a, &params);
            let b = sample_streamed(&mut rng_b, &params);
            assert_eq!(a, b, "nv={nv} p={p}");
            // The caller-visible generator state must also agree.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "nv={nv} p={p}");
        }
    }

    #[test]
    fn average_degree_close_to_target() {
        let params = GnpParams::with_average_degree(2000, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let g = sample(&mut rng, &params);
        assert!(
            (g.average_degree() - 3.0).abs() < 0.3,
            "avg {}",
            g.average_degree()
        );
    }
}
