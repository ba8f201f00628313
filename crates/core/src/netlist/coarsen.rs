//! Range-partitioned parallel cell matching for million-cell
//! coarsening — the hypergraph counterpart of
//! [`crate::pipeline::ParallelMatching`].
//!
//! Workers match cells within disjoint contiguous id ranges through the
//! same dense [`ConnectivityScorer`] as
//! [`bisect_graph::hypergraph::random_cell_matching`] (`Σ
//! w(net)/(|net|−1)` over shared nets, ties to the lowest cell id),
//! then a serial sweep matches the leftover cells across range
//! boundaries, so the result is maximal. The range loop is the graph
//! matcher's own (`pipeline::coarsen::range_pairs`); only the partner
//! rule differs.
//!
//! Like the graph-side scheme this draws **no randomness** and is
//! deterministic at a fixed thread count but not across thread counts
//! (range boundaries move which partners a worker can see). It is
//! intended for the huge-profile netlist pipeline
//! ([`NetlistPipeline::with_coarsener`](super::NetlistPipeline::with_coarsener)),
//! not the golden-pinned paper experiments, which match through the
//! serial `random_cell_matching`.

use bisect_graph::hypergraph::{ConnectivityScorer, Netlist};
use bisect_graph::VertexId;

use crate::pipeline::coarsen::{range_pairs, PartnerRule};

/// Parallel maximal cell matching over contiguous cell ranges.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::ParallelCellMatching;
/// use bisect_graph::hypergraph::{contract_cells, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new(4);
/// b.add_net(&[0, 1]).unwrap();
/// b.add_net(&[2, 3]).unwrap();
/// let nl = b.build();
/// let pairs = ParallelCellMatching::new().with_threads(2).matching(&nl);
/// let c = contract_cells(&nl, &pairs);
/// assert_eq!(c.coarse().num_cells(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelCellMatching {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
}

impl ParallelCellMatching {
    /// Creates the matcher with the process-default thread count.
    pub fn new() -> ParallelCellMatching {
        ParallelCellMatching { threads: None }
    }

    /// Pins the worker (and range) count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> ParallelCellMatching {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }

    /// Computes a maximal cell matching of `nl`; the pairs feed
    /// [`bisect_graph::hypergraph::contract_cells`] (or its
    /// scratch-reusing `contract_cells_into` variant) directly.
    pub fn matching(&self, nl: &Netlist) -> Vec<(VertexId, VertexId)> {
        self.matching_skipping(nl, 0)
    }

    /// As [`ParallelCellMatching::matching`], leaving the last `skip`
    /// cells unmatched.
    pub(crate) fn matching_skipping(&self, nl: &Netlist, skip: usize) -> Vec<(VertexId, VertexId)> {
        let n = nl.num_cells();
        range_pairs(n, self.threads(), skip, || Connectivity {
            nl,
            scorer: ConnectivityScorer::new(n),
        })
    }
}

/// The connectivity rule of [`ParallelCellMatching`]: a
/// [`ConnectivityScorer`] over `nl`.
struct Connectivity<'a> {
    nl: &'a Netlist,
    scorer: ConnectivityScorer,
}

impl PartnerRule for Connectivity<'_> {
    fn partner(&mut self, c: VertexId, admit: impl Fn(VertexId) -> bool) -> Option<VertexId> {
        self.scorer.best_partner(self.nl, c, admit)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::two_clusters;
    use super::*;
    use bisect_graph::hypergraph::{
        contract_cells, contract_cells_into, NetlistBuilder, NetlistContractionScratch,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize.min(cells));
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        b.build()
    }

    /// Maximal: no two unmatched cells share a ≥ 2-pin net.
    fn assert_maximal(nl: &Netlist, pairs: &[(VertexId, VertexId)]) {
        let mut matched = vec![false; nl.num_cells()];
        for &(a, b) in pairs {
            assert_ne!(a, b, "self-pair");
            assert!(!matched[a as usize] && !matched[b as usize], "overlap");
            matched[a as usize] = true;
            matched[b as usize] = true;
        }
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            if pins.len() < 2 {
                continue;
            }
            let free: Vec<VertexId> = pins
                .iter()
                .copied()
                .filter(|&p| !matched[p as usize])
                .collect();
            assert!(free.len() <= 1, "net {n} still joins free cells {free:?}");
        }
    }

    #[test]
    fn matching_is_maximal_and_deterministic_per_thread_count() {
        for seed in [2u64, 9] {
            let nl = random_netlist(40, 55, seed);
            for threads in [1usize, 2, 4] {
                let m = ParallelCellMatching::new().with_threads(threads);
                let pairs = m.matching(&nl);
                assert_maximal(&nl, &pairs);
                assert_eq!(pairs, m.matching(&nl), "threads {threads}");
            }
        }
    }

    #[test]
    fn matching_contracts_and_preserves_weight() {
        let nl = random_netlist(30, 40, 5);
        let pairs = ParallelCellMatching::new().with_threads(4).matching(&nl);
        assert!(!pairs.is_empty());
        let c = contract_cells(&nl, &pairs);
        assert!(c.coarse().num_cells() < nl.num_cells());
        assert_eq!(c.coarse().total_cell_weight(), nl.total_cell_weight());
    }

    #[test]
    fn single_thread_matches_full_range_greedy() {
        // One worker sees the whole netlist, so the serial cleanup has
        // nothing to do and the result is the plain ascending greedy.
        let nl = two_clusters();
        let pairs = ParallelCellMatching::new().with_threads(1).matching(&nl);
        assert_maximal(&nl, &pairs);
    }

    #[test]
    fn handles_netless_and_empty_netlists() {
        let empty = NetlistBuilder::new(0).build();
        assert!(ParallelCellMatching::new()
            .with_threads(2)
            .matching(&empty)
            .is_empty());
        let netless = NetlistBuilder::new(5).build();
        assert!(ParallelCellMatching::new()
            .with_threads(2)
            .matching(&netless)
            .is_empty());
    }

    #[test]
    fn degenerate_nets_never_match() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[]).unwrap();
        b.add_net(&[1]).unwrap();
        b.add_net(&[2, 3]).unwrap();
        let nl = b.build();
        let pairs = ParallelCellMatching::new().with_threads(2).matching(&nl);
        assert_eq!(pairs, vec![(2, 3)]);
    }

    /// The `BTreeMap` scorer the dense [`ConnectivityScorer`] replaced.
    fn reference_best_partner(
        nl: &Netlist,
        c: VertexId,
        admit: &dyn Fn(VertexId) -> bool,
    ) -> Option<VertexId> {
        let mut score: std::collections::BTreeMap<VertexId, f64> =
            std::collections::BTreeMap::new();
        for &net in nl.nets_of(c) {
            let pins = nl.pins(net);
            if pins.len() < 2 {
                continue;
            }
            let contribution = nl.net_weight(net) as f64 / (pins.len() - 1) as f64;
            for &p in pins {
                if p != c && admit(p) {
                    *score.entry(p).or_insert(0.0) += contribution;
                }
            }
        }
        score
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)))
            .map(|(&partner, _)| partner)
    }

    /// The range protocol as it stood with the `BTreeMap` scorer, run
    /// serially and always with the cross-range cleanup — the oracle
    /// for [`ParallelCellMatching::matching`].
    fn reference_range_matching(nl: &Netlist, threads: usize) -> Vec<(VertexId, VertexId)> {
        let n = nl.num_cells();
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(threads.min(n));
        let mut taken = vec![false; n];
        let mut pairs = Vec::new();
        for lo in (0..n).step_by(chunk) {
            let hi = (lo + chunk).min(n);
            for c in lo..hi {
                if taken[c] {
                    continue;
                }
                let admit = |p: VertexId| (lo..hi).contains(&(p as usize)) && !taken[p as usize];
                if let Some(p) = reference_best_partner(nl, c as VertexId, &admit) {
                    taken[c] = true;
                    taken[p as usize] = true;
                    pairs.push((c as VertexId, p));
                }
            }
        }
        for c in 0..n {
            if taken[c] {
                continue;
            }
            if let Some(p) = reference_best_partner(nl, c as VertexId, &|p| !taken[p as usize]) {
                taken[c] = true;
                taken[p as usize] = true;
                pairs.push((c as VertexId, p));
            }
        }
        pairs
    }

    fn random_weighted_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for c in 0..cells as VertexId {
            b.set_cell_weight(c, rng.gen_range(1..4u64)).unwrap();
        }
        for _ in 0..nets {
            let size = rng.gen_range(1..=6usize);
            let pins: Vec<VertexId> = (0..size)
                .map(|_| rng.gen_range(0..cells as VertexId))
                .collect();
            b.add_weighted_net(&pins, rng.gen_range(1..4u64)).unwrap();
        }
        b.build()
    }

    /// Coarsens `nl` to the end with `threads` workers, asserting every
    /// level's pairs equal the oracle's; returns the level count.
    fn assert_ladder_matches_oracle(nl: &Netlist, threads: usize) -> usize {
        let matcher = ParallelCellMatching::new().with_threads(threads);
        let mut scratch = NetlistContractionScratch::new();
        let mut cur = nl.clone();
        let mut levels = 0;
        loop {
            let pairs = matcher.matching(&cur);
            assert_eq!(
                pairs,
                reference_range_matching(&cur, threads),
                "threads {threads} level {levels}"
            );
            assert_maximal(&cur, &pairs);
            if pairs.is_empty() {
                return levels;
            }
            cur = contract_cells_into(&cur, &pairs, &mut scratch)
                .coarse()
                .clone();
            levels += 1;
        }
    }

    #[test]
    fn dense_scorer_matches_btreemap_oracle_on_random_weighted_netlists() {
        for seed in 0..8u64 {
            let nl = random_weighted_netlist(90, 130, seed);
            for threads in [1usize, 2, 4] {
                assert!(assert_ladder_matches_oracle(&nl, threads) > 0);
            }
        }
    }

    #[test]
    fn dense_scorer_matches_btreemap_oracle_on_tied_ladders() {
        // Unit-weight 2-pin ladder: every first-level score ties, and
        // coarse levels gain high degree and merged parallel nets.
        let n: VertexId = 256;
        let mut b = NetlistBuilder::new(n as usize);
        for c in 0..n / 2 {
            b.add_net(&[c, c + n / 2]).unwrap();
            if c + 1 < n / 2 {
                b.add_net(&[c, c + 1]).unwrap();
                b.add_net(&[c + n / 2, c + 1 + n / 2]).unwrap();
            }
        }
        let ladder = b.build();
        for threads in [1usize, 2, 4] {
            assert!(assert_ladder_matches_oracle(&ladder, threads) >= 6);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = ParallelCellMatching::new().with_threads(0);
    }
}
