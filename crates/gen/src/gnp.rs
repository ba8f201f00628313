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

use bisect_graph::{Graph, GraphBuilder, VertexId};
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
// lint: allow(no-panic) — u < v < n by the loop bounds, and the sweep
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
    let pairs = PresentPairs::new(rng, n as u64, p);
    // Pre-size for the expected edge count plus slack for variance.
    let expected = (pairs.total_pairs as f64 * p).ceil() as usize;
    builder.reserve_edges(expected + expected / 8);
    for (a, b) in pairs {
        builder
            .add_edge(a, b)
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
    let mut replay = rng.clone();
    let mut pass = 0usize;
    GraphBuilder::stream(n, |sink| {
        pass += 1;
        // The counting pass replays a clone, so the caller's generator
        // advances exactly once — ending in the same state as `sample`.
        let r: &mut R = if pass == 1 { &mut replay } else { rng };
        for (a, b) in PresentPairs::new(r, n as u64, p) {
            sink.edge(a, b)?;
        }
        Ok(())
    })
    // lint: allow(no-panic) — both passes replay the same generator state,
    // so the emitted sequences are identical and every pair is valid
    .expect("replayed Gnp passes emit identical valid edges")
}

/// The present pairs of one geometric-skipping sweep over the
/// linearized strict upper triangle (Batagelj–Brandes), in order: each
/// draw skips ~Geom(p) absent pairs. Every pair costs one draw, and one
/// more draw leaves the triangle and ends the sweep. [`sample`] and
/// [`sample_streamed`] both iterate this, so both consume the generator
/// identically. Stop at the first `None`: polling on would draw more.
struct PresentPairs<'r, R: ?Sized> {
    rng: &'r mut R,
    /// `ln(1 − p)`, the same for every draw.
    log_q: f64,
    total_pairs: u64,
    position: u64,
    rows: RowCursor,
}

impl<'r, R: Rng + ?Sized> PresentPairs<'r, R> {
    /// The sweep over the `C(n, 2)` pairs of `n ≥ 2` vertices with edge
    /// probability `0 < p < 1`.
    fn new(rng: &'r mut R, n: u64, p: f64) -> PresentPairs<'r, R> {
        // Below about 1.1e-16, `1 − p` rounds to 1 and its logarithm to
        // 0, which would make every skip 0 and every pair present.
        // `ln_1p` keeps such a `p`; every other `p` keeps the bits of
        // `ln(1 − p)`, and so its sample.
        let q = 1.0 - p;
        let log_q = if q == 1.0 { (-p).ln_1p() } else { q.ln() };
        PresentPairs {
            rng,
            log_q,
            total_pairs: n * (n - 1) / 2,
            position: 0,
            rows: RowCursor::new(n),
        }
    }
}

impl<R: Rng + ?Sized> Iterator for PresentPairs<'_, R> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<(VertexId, VertexId)> {
        let u: f64 = self.rng.gen::<f64>();
        // Skip of k means k absent pairs before the next present one.
        // Both logarithms are negative, so truncating the quotient is
        // its floor.
        let skip = if u <= 0.0 {
            self.total_pairs
        } else {
            (u.ln() / self.log_q) as u64
        };
        self.position = self.position.saturating_add(skip);
        if self.position >= self.total_pairs {
            return None;
        }
        let (a, b) = self.rows.pair(self.position);
        self.position += 1;
        Some((a as VertexId, b as VertexId))
    }
}

/// Rows stepped before a jump falls back to [`unrank_pair`].
const ROW_STEPS: u32 = 8;

/// [`unrank_pair`] for rising indices: tracks the row `a` holding the
/// last index and its offsets `S(a)..S(a + 1)`, and steps rows forward.
/// Each row is entered at most once, so a sweep steps `O(n)` rows in
/// all; a jump past [`ROW_STEPS`] rows is unranked directly.
#[derive(Debug)]
struct RowCursor {
    n: u64,
    row: u64,
    start: u64,
    end: u64,
}

impl RowCursor {
    /// The cursor at row 0 of `n ≥ 2` vertices.
    fn new(n: u64) -> RowCursor {
        RowCursor {
            n,
            row: 0,
            start: 0,
            end: n - 1,
        }
    }

    /// `unrank_pair(index, n)`, for an `index < C(n, 2)` no lower than
    /// the previous call's.
    fn pair(&mut self, index: u64) -> (u64, u64) {
        let mut steps = 0;
        while index >= self.end {
            if steps == ROW_STEPS {
                let (a, _) = unrank_pair(index, self.n);
                self.row = a;
                self.start = row_offset(a, self.n);
                self.end = row_offset(a + 1, self.n);
                break;
            }
            self.row += 1;
            self.start = self.end;
            self.end += self.n - 1 - self.row;
            steps += 1;
        }
        (self.row, self.row + 1 + (index - self.start))
    }
}

/// Maps a linear index in `0..C(n,2)` to the pair `(a, b)` with `a < b`,
/// enumerating pairs row by row: (0,1), (0,2), …, (0,n-1), (1,2), ….
/// [`RowCursor`] falls back to this on long jumps, and its tests use it
/// as the oracle.
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
    fn p_below_the_rounding_of_one_minus_p_gives_no_edges() {
        // `1 − 1e-17 == 1.0`: the skip must still be drawn from `p`.
        let params = GnpParams::new(40, 1e-17).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample(&mut rng, &params).num_edges(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_streamed(&mut rng, &params).num_edges(), 0);
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

    /// Checks `RowCursor::pair` against `unrank_pair` on every position
    /// of a rising sequence.
    fn check_rising(n: u64, positions: impl IntoIterator<Item = u64>) {
        let mut rows = RowCursor::new(n);
        let mut last = 0;
        for i in positions {
            assert!(i >= last && i < n * (n - 1) / 2, "n={n}: bad position {i}");
            assert_eq!(rows.pair(i), unrank_pair(i, n), "n={n} index {i}");
            last = i;
        }
    }

    #[test]
    fn row_cursor_matches_unrank_pair_on_rising_positions() {
        for n in [2u64, 3, 1_000, 250_000] {
            let total = n * (n - 1) / 2;
            let head = total.min(3 * n);
            // Skips of 0 through the first rows and the shortest ones.
            check_rising(n, 0..head);
            check_rising(n, total - head..total);
            // Strides within one row, of several rows and of many rows
            // (past `ROW_STEPS`, so unranked directly), each ending on
            // the last pair.
            for stride in [(n / 3).max(1), 3 * n, 50 * n] {
                let walk = (0..total).step_by(stride as usize).take(200_000);
                check_rising(n, walk.chain([total - 1]));
            }
            // Random skips mixing all three.
            let mut rng = StdRng::seed_from_u64(n);
            let mut i = 0;
            let walk = std::iter::from_fn(|| {
                let scale = [1, n, 20 * n][rng.gen_range(0..3usize)];
                i += rng.gen_range(0..scale);
                (i < total).then_some(i)
            });
            check_rising(n, walk.take(200_000));
        }
    }

    /// The sweep as it was before `RowCursor`: every position unranked
    /// from scratch and the skip floored.
    fn reference_sweep<R: Rng>(rng: &mut R, n: u64, p: f64) -> Vec<(u64, u64)> {
        let total = n * (n - 1) / 2;
        let mut pairs = Vec::new();
        let mut position: u64 = 0;
        loop {
            let u: f64 = rng.gen::<f64>();
            let skip = if u <= 0.0 {
                total
            } else {
                (u.ln() / (1.0 - p).ln()).floor() as u64
            };
            position = position.saturating_add(skip);
            if position >= total {
                return pairs;
            }
            pairs.push(unrank_pair(position, n));
            position += 1;
        }
    }

    #[test]
    fn sweep_matches_the_reference_sweep() {
        let cases = [
            (2u64, 0.5),
            (3, 0.5),
            (1_000, 0.9),
            (1_000, 0.01),
            (250_000, 3.0 / 249_999.0),
        ];
        for (n, p) in cases {
            let mut rng = StdRng::seed_from_u64(n);
            let mut reference_rng = rng.clone();
            let pairs: Vec<(u64, u64)> = PresentPairs::new(&mut rng, n, p)
                .map(|(a, b)| (u64::from(a), u64::from(b)))
                .collect();
            assert_eq!(
                pairs,
                reference_sweep(&mut reference_rng, n, p),
                "n={n} p={p}"
            );
            assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "n={n} p={p}");
        }
    }

    /// A generator that hands out a fixed list of words, counting them.
    struct Script(Vec<u64>, usize);

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[self.1 - 1]
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("the sweep draws only words")
        }
        fn try_fill_bytes(&mut self, _: &mut [u8]) -> Result<(), rand::Error> {
            unreachable!("the sweep draws only words")
        }
    }

    #[test]
    fn sweep_ends_on_the_first_draw_past_the_last_pair() {
        // `u` = 1 − 2⁻⁵³ skips 0 pairs; `u` = 2⁻⁵³ skips ⌊36.7 / −ln(1 − p)⌋,
        // 53 at p = 1/2 and past every pair at p = 10⁻¹²; `u` = 0 takes
        // the `u ≤ 0` path.
        const NEXT: u64 = u64::MAX;
        const FAR: u64 = 1 << 11;
        for (n, p, words, pairs) in [
            (2, 0.5, vec![NEXT, NEXT], vec![(0, 1)]),
            (2, 0.5, vec![0], vec![]),
            (
                3,
                0.5,
                vec![NEXT, NEXT, NEXT, 0],
                vec![(0, 1), (0, 2), (1, 2)],
            ),
            (3, 0.5, vec![NEXT, FAR], vec![(0, 1)]),
            (1_000, 0.5, vec![NEXT, FAR, 0], vec![(0, 1), (0, 55)]),
            (250_000, 1e-12, vec![NEXT, NEXT, FAR], vec![(0, 1), (0, 2)]),
        ] {
            let mut script = Script(words, 0);
            let got: Vec<(VertexId, VertexId)> = PresentPairs::new(&mut script, n, p).collect();
            assert_eq!(got, pairs, "n={n}");
            assert_eq!(
                script.1,
                script.0.len(),
                "n={n}: one draw per pair, one to end"
            );
        }
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
