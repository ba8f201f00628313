//! Matchings: sets of vertex-disjoint edges.
//!
//! The compaction heuristic of the paper (§V) starts by forming a
//! *random maximal matching* — visit vertices in random order and match
//! each unmatched vertex to a random unmatched neighbor. The paper calls
//! this a "maximum random matching"; it is maximal (no edge can be
//! added), not maximum-cardinality, which is what the randomized greedy
//! process produces.
//!
//! [`heavy_edge`] (match along the heaviest incident edge) is provided as
//! the later multilevel-partitioning refinement of the same idea, used by
//! the `ablate-matching` benchmark.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, VertexId};

const UNMATCHED: VertexId = VertexId::MAX;

/// A matching in a graph: a set of edges no two of which share an
/// endpoint.
///
/// # Example
///
/// ```
/// use bisect_graph::{Graph, matching};
/// use rand::SeedableRng;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let m = matching::random_maximal(&g, &mut rng);
/// assert!(m.is_maximal(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<VertexId>,
    pairs: Vec<(VertexId, VertexId)>,
}

impl Matching {
    /// The empty matching on a graph with `num_vertices` vertices.
    pub fn empty(num_vertices: usize) -> Matching {
        Matching {
            mate: vec![UNMATCHED; num_vertices],
            pairs: Vec::new(),
        }
    }

    /// Builds a matching from explicit pairs.
    ///
    /// # Panics
    ///
    /// Panics if a vertex appears in two pairs, in a pair with itself,
    /// or is out of range.
    pub fn from_pairs(num_vertices: usize, pairs: &[(VertexId, VertexId)]) -> Matching {
        let mut m = Matching::empty(num_vertices);
        for &(u, v) in pairs {
            m.add(u, v);
        }
        m
    }

    fn add(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "a vertex cannot be matched with itself");
        assert_eq!(
            self.mate[u as usize], UNMATCHED,
            "vertex {u} already matched"
        );
        assert_eq!(
            self.mate[v as usize], UNMATCHED,
            "vertex {v} already matched"
        );
        self.mate[u as usize] = v;
        self.mate[v as usize] = u;
        self.pairs.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Number of vertices of the graph the matching was built for.
    pub fn num_vertices(&self) -> usize {
        self.mate.len()
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no vertex is matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The partner of `v`, if matched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        let m = self.mate[v as usize];
        (m != UNMATCHED).then_some(m)
    }

    /// Whether `v` is covered by the matching.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.mate[v as usize] != UNMATCHED
    }

    /// The matched pairs, each as `(u, v)` with `u < v`.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.pairs
    }

    /// Whether every edge of `g` has at least one matched endpoint,
    /// i.e. no edge can be added to the matching.
    pub fn is_maximal(&self, g: &Graph) -> bool {
        g.edges()
            .all(|(u, v, _)| self.is_matched(u) || self.is_matched(v))
    }

    /// Whether every matched pair is an edge of `g`.
    pub fn respects_graph(&self, g: &Graph) -> bool {
        self.pairs.iter().all(|&(u, v)| g.has_edge(u, v))
    }
}

/// Forms a random maximal matching: visits vertices in a uniformly random
/// order and matches each still-unmatched vertex to a uniformly random
/// unmatched neighbor (if any). This is the matching used by the paper's
/// compaction heuristic.
///
/// The result is maximal but generally not maximum; by a classical
/// argument it covers at least half the vertices a maximum matching
/// covers.
pub fn random_maximal<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Matching {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);
    let mut m = Matching::empty(n);
    let mut candidates: Vec<VertexId> = Vec::new();
    for &v in &order {
        if m.is_matched(v) {
            continue;
        }
        candidates.clear();
        candidates.extend(g.neighbors(v).iter().copied().filter(|&u| !m.is_matched(u)));
        if let Some(&u) = candidates.as_slice().choose(rng) {
            m.add(v, u);
        }
    }
    m
}

/// Forms a maximal matching preferring heavy edges: visits vertices in a
/// random order and matches each unmatched vertex to the unmatched
/// neighbor reachable over the heaviest edge (ties broken by the random
/// adjacency position). On unit-weight graphs this degenerates to a
/// random maximal matching with a different tie-breaking distribution.
pub fn heavy_edge<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Matching {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);
    let mut m = Matching::empty(n);
    for &v in &order {
        if m.is_matched(v) {
            continue;
        }
        let mut best: Option<(VertexId, u64, u64)> = None;
        for (u, w) in g.neighbors_weighted(v) {
            if m.is_matched(u) {
                continue;
            }
            let tiebreak = rng.gen::<u64>();
            match best {
                Some((_, bw, bt)) if (w, tiebreak) <= (bw, bt) => {}
                _ => best = Some((u, w, tiebreak)),
            }
        }
        if let Some((u, _, _)) = best {
            m.add(v, u);
        }
    }
    m
}

/// Forms a maximal matching by scanning the edges in a uniformly random
/// order and keeping each edge whose endpoints are both still free.
pub fn random_edge_order<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Matching {
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    edges.shuffle(rng);
    let mut m = Matching::empty(g.num_vertices());
    for (u, v) in edges {
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add(u, v);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.mate(0), None);
        assert!(!m.is_matched(2));
    }

    #[test]
    fn from_pairs_symmetry() {
        let m = Matching::from_pairs(4, &[(2, 0), (1, 3)]);
        assert_eq!(m.mate(0), Some(2));
        assert_eq!(m.mate(2), Some(0));
        assert_eq!(m.pairs(), &[(0, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "already matched")]
    fn from_pairs_rejects_overlap() {
        Matching::from_pairs(3, &[(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "matched with itself")]
    fn from_pairs_rejects_self_pair() {
        Matching::from_pairs(3, &[(1, 1)]);
    }

    #[test]
    fn random_maximal_is_maximal_and_valid() {
        for seed in 0..20 {
            let g = cycle(17);
            let m = random_maximal(&g, &mut rng(seed));
            assert!(m.is_maximal(&g), "seed {seed}");
            assert!(m.respects_graph(&g), "seed {seed}");
        }
    }

    #[test]
    fn random_maximal_on_edgeless_graph() {
        let g = Graph::empty(5);
        let m = random_maximal(&g, &mut rng(1));
        assert!(m.is_empty());
        assert!(m.is_maximal(&g));
    }

    #[test]
    fn perfect_matching_on_disjoint_edges() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let m = random_maximal(&g, &mut rng(3));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn heavy_edge_prefers_heavy() {
        // Star with center 0; edge (0,3) has weight 10, others weight 1.
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        b.add_weighted_edge(0, 3, 10).unwrap();
        let g = b.build();
        for seed in 0..10 {
            let m = heavy_edge(&g, &mut rng(seed));
            // Whoever is visited first among {0,1,2,3}, vertex 0 ends up
            // matched; if 0 is visited first it must pick 3.
            assert!(m.is_maximal(&g));
            if m.mate(0) != Some(3) {
                // 1 or 2 was visited before 0 and grabbed it.
                assert!(m.mate(0) == Some(1) || m.mate(0) == Some(2));
            }
        }
    }

    #[test]
    fn random_edge_order_is_maximal() {
        for seed in 0..10 {
            let g = cycle(12);
            let m = random_edge_order(&g, &mut rng(seed));
            assert!(m.is_maximal(&g));
            assert!(m.respects_graph(&g));
        }
    }

    #[test]
    fn matching_never_exceeds_half_vertices() {
        let g = cycle(9);
        for seed in 0..10 {
            let m = random_maximal(&g, &mut rng(seed));
            assert!(m.len() <= g.num_vertices() / 2);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cycle(30);
        let a = random_maximal(&g, &mut rng(42));
        let b = random_maximal(&g, &mut rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = cycle(30);
        let a = random_maximal(&g, &mut rng(1));
        let b = random_maximal(&g, &mut rng(2));
        assert_ne!(a, b);
    }
}
