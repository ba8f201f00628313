//! Coarsening schemes: how one level of the pipeline contracts a graph.
//!
//! A [`CoarsenScheme`] produces at most one [`Contraction`] per call;
//! the [engine](super) drives it repeatedly according to the pipeline's
//! [`CoarsenDepth`](super::CoarsenDepth). All three schemes here match
//! a maximal matching and contract it — they differ only in how the
//! matching is chosen:
//!
//! * [`RandomMatching`] — the paper's "maximum random matching" (§V
//!   step 1): random vertex order, random free neighbor.
//! * [`HeavyEdgeMatching`] — random vertex order, heaviest free
//!   neighbor; the refinement later multilevel partitioners (Chaco,
//!   METIS) settled on, where it concentrates weight inside coarse
//!   vertices and keeps the projected cut small on weighted graphs.
//! * [`EdgeOrderMatching`] — greedy over a random edge order, for the
//!   `ablate-matching` benchmark.

use bisect_graph::contraction::{contract_matching, Contraction};
use bisect_graph::matching::Matching;
use bisect_graph::{matching, Graph, VertexId};
use rand::RngCore;

/// One level of coarsening. Implementations draw all randomness from
/// the supplied rng (and nothing else), so a pipeline built from them
/// inherits the crate-wide determinism guarantee: same graph, same rng
/// stream, same ladder.
pub trait CoarsenScheme: Send + Sync {
    /// Scheme name for diagnostics and pipeline descriptions.
    fn name(&self) -> &'static str;

    /// Contracts one matching of `g`, or returns `None` when the scheme
    /// cannot make progress (its matching came back empty — for the
    /// matching-based schemes that means `g` has no edges — or, for
    /// [`ParallelMatching`], too small to shrink `g` by 5%).
    ///
    /// Implementations must consume the rng exactly as their matching
    /// routine does even when returning `None`, so that legacy callers
    /// and pipeline callers observe identical streams.
    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction>;
}

/// The stall guard of the parallel coarseners: a level that took
/// `before` vertices (or cells) down to `after` is kept only if it
/// shrank them by at least 5%. Sparse instances carry vertices that can
/// never match, so demanding mere shrinkage would stack near-identical
/// levels once only those remain.
pub(crate) fn shrinks_enough(before: usize, after: usize) -> bool {
    after * 20 <= before * 19
}

/// The paper's compaction matching: random vertex visiting order,
/// uniformly random free neighbor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomMatching;

impl CoarsenScheme for RandomMatching {
    fn name(&self) -> &'static str {
        "random-matching"
    }

    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction> {
        let m = matching::random_maximal(g, rng);
        (!m.is_empty()).then(|| contract_matching(g, &m))
    }
}

/// Heavy-edge matching: random vertex order, heaviest free neighbor
/// (ties broken randomly). On unit-weight graphs this degenerates to a
/// random maximal matching with a different tie-breaking distribution;
/// on the weighted coarse graphs deeper in a multilevel ladder it hides
/// heavy edges inside coarse vertices, which is why later multilevel
/// partitioners adopted it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeavyEdgeMatching;

impl CoarsenScheme for HeavyEdgeMatching {
    fn name(&self) -> &'static str {
        "heavy-edge-matching"
    }

    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction> {
        let m = matching::heavy_edge(g, rng);
        (!m.is_empty()).then(|| contract_matching(g, &m))
    }
}

/// Greedy matching over a uniformly random edge order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeOrderMatching;

impl CoarsenScheme for EdgeOrderMatching {
    fn name(&self) -> &'static str {
        "edge-order-matching"
    }

    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction> {
        let m = matching::random_edge_order(g, rng);
        (!m.is_empty()).then(|| contract_matching(g, &m))
    }
}

/// Range-partitioned parallel greedy matching for million-vertex
/// coarsening: workers match within disjoint contiguous vertex ranges
/// (heaviest free incident edge, ties to the lowest neighbor id), then
/// a serial sweep matches the leftover vertices across range
/// boundaries, so the result is maximal. A matching `M` that would
/// shrink the graph by less than 5% (`|M|·20 < n`) is not contracted:
/// [`CoarsenScheme::coarsen`] returns `None` and the ladder stops there.
///
/// Unlike the other schemes this one draws **no randomness** — the rng
/// argument is untouched, trivially satisfying the stream contract of
/// [`CoarsenScheme::coarsen`]. Like
/// [`ParallelFm`](crate::par_fm::ParallelFm) it is deterministic at a
/// fixed thread count but not across thread counts (range boundaries
/// move); it is intended for the huge-profile pipelines, not the
/// golden-pinned paper experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelMatching {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
}

impl ParallelMatching {
    /// Creates the scheme with the process-default thread count.
    pub fn new() -> ParallelMatching {
        ParallelMatching { threads: None }
    }

    /// Pins the worker (and range) count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> ParallelMatching {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }

    /// The matching [`coarsen`](CoarsenScheme::coarsen) would contract,
    /// before the stall guard: maximal, and a pure function of the
    /// graph and the thread count.
    pub fn matching(&self, g: &Graph) -> Matching {
        let n = g.num_vertices();
        Matching::from_pairs(n, &range_pairs(n, self.threads(), &[], || g))
    }
}

impl CoarsenScheme for ParallelMatching {
    fn name(&self) -> &'static str {
        "parallel-matching"
    }

    fn coarsen(&self, g: &Graph, rng: &mut dyn RngCore) -> Option<Contraction> {
        // Deterministic and rng-free: nothing to consume, so the
        // stream-preservation contract holds vacuously.
        let _ = rng;
        let n = g.num_vertices();
        let m = self.matching(g);
        (!m.is_empty() && shrinks_enough(n, n - m.len())).then(|| contract_matching(g, &m))
    }
}

/// How [`range_pairs`] picks a cell's partner: the heaviest edge for
/// graphs, the netlist's
/// [`ConnectivityScorer`](bisect_graph::hypergraph::ConnectivityScorer)
/// for netlists. A rule may keep scratch, so every range gets its own.
pub(crate) trait PartnerRule {
    /// The best partner of `c` among the cells `admit` accepts (ties to
    /// the lowest id), or `None`.
    fn partner(&mut self, c: VertexId, admit: impl Fn(VertexId) -> bool) -> Option<VertexId>;
}

/// The heavy-edge rule of [`ParallelMatching`]: the heaviest admissible
/// neighbor, ties to the lowest id.
///
/// On contracted graphs heavy edges mark clusters that earlier levels
/// already merged, so following them keeps the coarsening inside
/// natural communities instead of randomly welding across them; on
/// unit-weight inputs the rule degrades to first-free-neighbor.
impl PartnerRule for &Graph {
    fn partner(&mut self, v: VertexId, admit: impl Fn(VertexId) -> bool) -> Option<VertexId> {
        let g = *self;
        let mut best: Option<(u64, VertexId)> = None;
        for (u, w) in g.neighbors(v).iter().copied().zip(g.neighbor_weights(v)) {
            if admit(u) && best.is_none_or(|(bw, bu)| (*w > bw) || (*w == bw && u < bu)) {
                best = Some((*w, u));
            }
        }
        best.map(|(_, u)| u)
    }
}

/// The matching behind both parallel matchers, [`ParallelMatching`]
/// and [`ParallelCellMatching`](crate::netlist::ParallelCellMatching),
/// on `n` cells: a parallel in-range greedy phase (ascending cell order
/// within `threads` contiguous ranges, both endpoints inside one range,
/// so disjoint ranges cannot conflict), then a serial ascending-order
/// cleanup for cells whose only partners cross a range boundary.
/// Maximal by construction. With a single range the cleanup is skipped:
/// the in-range pass already saw every partner, so every cell it left
/// unmatched has no unmatched neighbour and the cleanup would match
/// nothing. Cells flagged in `skip` start out matched, so neither the
/// visit nor the admit filter ever pairs them.
///
/// `rule` makes one [`PartnerRule`] per range and one for the cleanup.
/// Dispatch is static, so the admit filter inlines into the rule's
/// neighbor loop.
pub(crate) fn range_pairs<R: PartnerRule>(
    n: usize,
    threads: usize,
    skip: &[bool],
    rule: impl Fn() -> R + Sync,
) -> Vec<(VertexId, VertexId)> {
    if n == 0 {
        return Vec::new();
    }
    let skipped = |c: usize| skip.get(c).copied().unwrap_or(false);
    let t = threads.max(1).min(n);
    let chunk = n.div_ceil(t);
    let ranges = n.div_ceil(chunk);
    let mut local: Vec<Vec<(VertexId, VertexId)>> = bisect_par::par_map_with(t, ranges, |k| {
        let lo = k * chunk;
        let hi = ((k + 1) * chunk).min(n);
        let mut matched: Vec<bool> = (lo..hi).map(skipped).collect();
        let mut pairs = Vec::new();
        let mut rule = rule();
        for c in lo..hi {
            if matched[c - lo] {
                continue;
            }
            let mate = rule.partner(c as VertexId, |p| {
                let pi = p as usize;
                pi >= lo && pi < hi && !matched[pi - lo]
            });
            if let Some(p) = mate {
                matched[c - lo] = true;
                matched[p as usize - lo] = true;
                pairs.push((c as VertexId, p));
            }
        }
        pairs
    });
    if ranges == 1 {
        return local.pop().unwrap_or_default();
    }
    let mut taken: Vec<bool> = (0..n).map(skipped).collect();
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for local_pairs in &local {
        for &(a, b) in local_pairs {
            taken[a as usize] = true;
            taken[b as usize] = true;
        }
        pairs.extend_from_slice(local_pairs);
    }
    let mut rule = rule();
    for c in 0..n {
        if taken[c] {
            continue;
        }
        if let Some(p) = rule.partner(c as VertexId, |p| !taken[p as usize]) {
            taken[c] = true;
            taken[p as usize] = true;
            pairs.push((c as VertexId, p));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schemes_contract_nontrivial_graphs() {
        let g = special::grid(6, 6);
        let schemes: [&dyn CoarsenScheme; 3] =
            [&RandomMatching, &HeavyEdgeMatching, &EdgeOrderMatching];
        for s in schemes {
            let mut rng = StdRng::seed_from_u64(1);
            let c = s.coarsen(&g, &mut rng).expect("grid has edges");
            assert!(c.coarse().num_vertices() < g.num_vertices(), "{}", s.name());
            assert_eq!(
                c.coarse().total_vertex_weight(),
                g.num_vertices() as u64,
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn edgeless_graph_yields_none() {
        let g = bisect_graph::Graph::empty(5);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(RandomMatching.coarsen(&g, &mut rng).is_none());
        assert!(HeavyEdgeMatching.coarsen(&g, &mut rng).is_none());
        assert!(EdgeOrderMatching.coarsen(&g, &mut rng).is_none());
    }

    #[test]
    fn random_matching_stream_matches_legacy_call() {
        // The scheme must consume the rng exactly like a direct
        // `matching::random_maximal` call so the pipeline stays
        // bit-identical to the legacy compaction path.
        let g = special::ladder(10);
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let c = RandomMatching.coarsen(&g, &mut a).unwrap();
        let m = matching::random_maximal(&g, &mut b);
        let d = contract_matching(&g, &m);
        assert_eq!(c.fine_to_coarse(), d.fine_to_coarse());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn parallel_matching_is_maximal_and_deterministic() {
        let g = special::grid(9, 7);
        for threads in [1, 2, 4] {
            let m = ParallelMatching::new().with_threads(threads).matching(&g);
            assert!(m.is_maximal(&g), "threads {threads}");
            assert!(m.respects_graph(&g), "threads {threads}");
            let again = ParallelMatching::new().with_threads(threads).matching(&g);
            assert_eq!(m.pairs(), again.pairs(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_matching_contracts_and_preserves_weight() {
        let g = special::grid(6, 6);
        let scheme = ParallelMatching::new().with_threads(4);
        let mut rng = StdRng::seed_from_u64(1);
        let c = scheme.coarsen(&g, &mut rng).expect("grid has edges");
        assert!(c.coarse().num_vertices() < g.num_vertices());
        assert_eq!(c.coarse().total_vertex_weight(), g.num_vertices() as u64);
    }

    /// The contraction of `m` built independently through
    /// `GraphBuilder`: coarse ids in leader (lower fine id) order, one
    /// weighted record per fine edge, merged by the builder.
    fn builder_contraction(g: &Graph, m: &Matching) -> (Graph, Vec<VertexId>) {
        let mut map = vec![VertexId::MAX; g.num_vertices()];
        let mut next = 0;
        for v in g.vertices() {
            if map[v as usize] == VertexId::MAX {
                map[v as usize] = next;
                if let Some(u) = m.mate(v) {
                    map[u as usize] = next;
                }
                next += 1;
            }
        }
        let mut b = bisect_graph::GraphBuilder::new(next as usize);
        let mut weights = vec![0; next as usize];
        for v in g.vertices() {
            weights[map[v as usize] as usize] += g.vertex_weight(v);
        }
        for (c, w) in weights.into_iter().enumerate() {
            b.set_vertex_weight(c as VertexId, w).unwrap();
        }
        for (u, v, w) in g.edges() {
            if map[u as usize] != map[v as usize] {
                b.add_weighted_edge(map[u as usize], map[v as usize], w)
                    .unwrap();
            }
        }
        (b.build(), map)
    }

    #[test]
    fn parallel_matching_ladders_contract_like_the_builder() {
        use bisect_gen::gnp::{self, GnpParams};
        for seed in 0..3u64 {
            let params = GnpParams::with_average_degree(2_000, 4.0).unwrap();
            let input = gnp::sample(&mut StdRng::seed_from_u64(seed), &params);
            for threads in [1, 2, 4] {
                let mut g = input.clone();
                let mut levels = 0;
                loop {
                    let m = ParallelMatching::new().with_threads(threads).matching(&g);
                    if m.is_empty() {
                        break;
                    }
                    let c = contract_matching(&g, &m);
                    let (coarse, map) = builder_contraction(&g, &m);
                    assert_eq!(c.coarse(), &coarse, "seed {seed} threads {threads}");
                    assert_eq!(c.fine_to_coarse(), map.as_slice());
                    g = coarse;
                    levels += 1;
                }
                assert!(
                    levels >= 6,
                    "seed {seed} threads {threads}: {levels} levels"
                );
            }
        }
    }

    #[test]
    fn parallel_matching_draws_no_randomness() {
        let g = special::ladder(10);
        let scheme = ParallelMatching::new().with_threads(2);
        let mut rng = StdRng::seed_from_u64(3);
        let probe = rng.clone();
        let _ = scheme.coarsen(&g, &mut rng);
        assert_eq!(rng.clone().next_u64(), probe.clone().next_u64());
    }

    #[test]
    fn parallel_matching_handles_edgeless_and_empty() {
        let mut rng = StdRng::seed_from_u64(4);
        let scheme = ParallelMatching::new().with_threads(2);
        assert!(scheme
            .coarsen(&bisect_graph::Graph::empty(5), &mut rng)
            .is_none());
        assert!(scheme
            .coarsen(&bisect_graph::Graph::empty(0), &mut rng)
            .is_none());
    }

    #[test]
    fn stall_guard_keeps_levels_that_shrink_by_five_percent() {
        assert!(shrinks_enough(100, 95));
        assert!(!shrinks_enough(100, 96));
        assert!(!shrinks_enough(100, 100));
        // A star matches one pair of its 40 vertices (2.5%): the
        // parallel scheme stalls, the others still contract it.
        let star = special::star(40);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(ParallelMatching::new()
            .with_threads(1)
            .coarsen(&star, &mut rng)
            .is_none());
        assert!(RandomMatching.coarsen(&star, &mut rng).is_some());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            RandomMatching.name(),
            HeavyEdgeMatching.name(),
            EdgeOrderMatching.name(),
            ParallelMatching::new().name(),
        ];
        assert_eq!(
            names.len(),
            names.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }
}
