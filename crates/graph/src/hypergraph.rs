//! Hypergraph netlists: cells connected by multi-pin nets.
//!
//! The paper's motivating application — "VLSI placement and routing
//! problems" — really concerns *netlists*, where a net (hyperedge) may
//! connect more than two cells, and the quantity minimized is the
//! number of nets spanning both sides, not graph edges. The paper (and
//! its cited Goldberg-Burstein technique) works on the graph
//! abstraction; this module provides the faithful substrate so the
//! workspace can also run Fiduccia-Mattheyses in its native hypergraph
//! form (`bisect_core::netlist`) and measure what the clique
//! approximation costs.
//!
//! A [`Netlist`] stores both incidence directions in CSR form: net →
//! pins and cell → nets.

use crate::csr::Offsets;
use crate::{EdgeWeight, Graph, GraphBuilder, GraphError, VertexId, VertexWeight};

/// Identifier of a net; nets of a netlist are `0..num_nets as NetId`.
pub type NetId = u32;

/// An immutable hypergraph netlist.
///
/// # Example
///
/// ```
/// use bisect_graph::hypergraph::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new(4);
/// b.add_net(&[0, 1, 2]).unwrap(); // a 3-pin net
/// b.add_net(&[2, 3]).unwrap();
/// let netlist = b.build();
/// assert_eq!(netlist.num_cells(), 4);
/// assert_eq!(netlist.num_nets(), 2);
/// assert_eq!(netlist.pins(0), &[0, 1, 2]);
/// assert_eq!(netlist.nets_of(2), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    xpins: Offsets,
    pins: Vec<VertexId>,
    xnets: Offsets,
    nets: Vec<NetId>,
    cell_weights: Vec<VertexWeight>,
    net_weights: Vec<EdgeWeight>,
}

impl Netlist {
    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.xnets.len() - 1
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.xpins.len() - 1
    }

    /// Total number of pins (sum of net sizes).
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Whether *both* incidence-offset arrays use the `u32` narrow form
    /// (see [`Graph::uses_compact_offsets`]); true for every netlist
    /// under 2^32 pins, i.e. all realistic instances.
    pub fn uses_compact_offsets(&self) -> bool {
        self.xpins.is_narrow() && self.xnets.is_narrow()
    }

    /// The cells of net `n`, sorted, without duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn pins(&self, n: NetId) -> &[VertexId] {
        let n = n as usize;
        &self.pins[self.xpins.get(n)..self.xpins.get(n + 1)]
    }

    /// The nets incident to cell `c`, sorted.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn nets_of(&self, c: VertexId) -> &[NetId] {
        let c = c as usize;
        &self.nets[self.xnets.get(c)..self.xnets.get(c + 1)]
    }

    /// The weight of cell `c` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cell_weight(&self, c: VertexId) -> VertexWeight {
        self.cell_weights[c as usize]
    }

    /// The weight of net `n` (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn net_weight(&self, n: NetId) -> EdgeWeight {
        self.net_weights[n as usize]
    }

    /// Sum of all cell weights.
    pub fn total_cell_weight(&self) -> VertexWeight {
        self.cell_weights.iter().sum()
    }

    /// Iterates over all cell ids.
    pub fn cells(&self) -> std::ops::Range<VertexId> {
        0..self.num_cells() as VertexId
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> std::ops::Range<NetId> {
        0..self.num_nets() as NetId
    }

    /// Average pins per net (0 for zero nets).
    pub fn average_net_size(&self) -> f64 {
        if self.num_nets() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_nets() as f64
        }
    }

    /// The *clique expansion*: every net of `k ≥ 2` pins becomes a
    /// clique on its pins, each clique edge carrying the net's weight
    /// (parallel contributions from different nets merge by summing).
    /// This is the standard graph approximation of a netlist — it
    /// over-counts multi-pin nets in the cut, which is what the
    /// hypergraph-native FM avoids.
    // lint: allow(no-panic) — netlist cell weights are positive by
    // construction, and pins are deduped in-range cells with u < v.
    pub fn to_clique_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_cells());
        for (c, &w) in self.cell_weights.iter().enumerate() {
            b.set_vertex_weight(c as VertexId, w)
                .expect("cell weights positive");
        }
        for n in self.net_ids() {
            let pins = self.pins(n);
            let w = self.net_weight(n);
            for (i, &u) in pins.iter().enumerate() {
                for &v in &pins[i + 1..] {
                    b.add_weighted_edge(u, v, w).expect("pins valid, distinct");
                }
            }
        }
        b.build()
    }

    /// Views a graph as a netlist of two-pin nets (the inverse of
    /// [`to_clique_graph`](Netlist::to_clique_graph) for ordinary
    /// graphs).
    // lint: allow(no-panic) — graph vertex weights are positive by
    // construction, and edges have in-range endpoints and positive weight.
    pub fn from_graph(g: &Graph) -> Netlist {
        let mut b = NetlistBuilder::new(g.num_vertices());
        for v in g.vertices() {
            b.set_cell_weight(v, g.vertex_weight(v))
                .expect("weights valid");
        }
        for (u, v, w) in g.edges() {
            b.add_weighted_net(&[u, v], w)
                .expect("edges are valid 2-pin nets");
        }
        b.build()
    }
}

/// The result of contracting matched cell pairs of a netlist: the
/// coarse netlist plus the fine-to-coarse cell map. Produced by
/// [`contract_cells`]; the netlist analogue of
/// [`crate::contraction::Contraction`].
#[derive(Debug, Clone)]
pub struct NetlistContraction {
    coarse: Netlist,
    fine_to_coarse: Vec<VertexId>,
}

impl NetlistContraction {
    /// The coarse (contracted) netlist.
    pub fn coarse(&self) -> &Netlist {
        &self.coarse
    }

    /// The coarse cell that fine cell `c` was merged into.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range for the fine netlist.
    pub fn map(&self, c: VertexId) -> VertexId {
        self.fine_to_coarse[c as usize]
    }

    /// The full fine-to-coarse cell map, indexed by fine cell id — the
    /// netlist analogue of
    /// [`crate::contraction::Contraction::fine_to_coarse`], consumed by
    /// gain-cache projection across uncoarsening steps.
    pub fn fine_to_coarse(&self) -> &[VertexId] {
        &self.fine_to_coarse
    }

    /// Projects a coarse side assignment to the fine cells.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_side.len()` differs from the coarse cell count.
    pub fn project_sides(&self, coarse_side: &[bool]) -> Vec<bool> {
        assert_eq!(
            coarse_side.len(),
            self.coarse.num_cells(),
            "side assignment length must match coarse cell count"
        );
        self.fine_to_coarse
            .iter()
            .map(|&c| coarse_side[c as usize])
            .collect()
    }
}

/// Contracts matched cell pairs (`pairs` must be vertex-disjoint) in
/// the netlist sense: coarse cell weights are summed, each net's pins
/// are mapped and deduplicated, nets left with fewer than two distinct
/// pins are dropped, and nets that become *identical* pin sets are
/// merged with summed weights — the standard hypergraph coarsening step
/// (the paper's compaction, §V, in its netlist form).
///
/// # Panics
///
/// Panics if a cell appears in two pairs, a pair repeats a cell, or a
/// cell id is out of range.
// lint: allow(no-panic) — sums of positive fine weights stay positive,
// and merged pin sets are in-range coarse cells.
pub fn contract_cells(nl: &Netlist, pairs: &[(VertexId, VertexId)]) -> NetlistContraction {
    let n = nl.num_cells();
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    let mut mate = vec![VertexId::MAX; n];
    for &(a, b) in pairs {
        assert_ne!(a, b, "a cell cannot be matched with itself");
        assert!((a as usize) < n && (b as usize) < n, "pair out of range");
        assert!(
            mate[a as usize] == VertexId::MAX && mate[b as usize] == VertexId::MAX,
            "matching must be vertex-disjoint"
        );
        mate[a as usize] = b;
        mate[b as usize] = a;
    }
    let mut next: VertexId = 0;
    for c in 0..n as VertexId {
        if fine_to_coarse[c as usize] != VertexId::MAX {
            continue;
        }
        fine_to_coarse[c as usize] = next;
        let m = mate[c as usize];
        if m != VertexId::MAX {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let num_coarse = next as usize;

    let mut builder = NetlistBuilder::new(num_coarse);
    let mut weights = vec![0u64; num_coarse];
    for c in 0..n as VertexId {
        weights[fine_to_coarse[c as usize] as usize] += nl.cell_weight(c);
    }
    for (c, &w) in weights.iter().enumerate() {
        builder
            .set_cell_weight(c as VertexId, w)
            .expect("coarse weights are positive sums");
    }
    // Coarse nets, merged by identical pin sets. A BTreeMap keeps the
    // merge order-independent *and* yields nets in sorted pin order,
    // which is exactly the order the old sort-after-HashMap produced
    // (pin sets are unique keys).
    let mut merged: std::collections::BTreeMap<Vec<VertexId>, EdgeWeight> =
        std::collections::BTreeMap::new();
    for net in nl.net_ids() {
        let mut pins: Vec<VertexId> = nl
            .pins(net)
            .iter()
            .map(|&p| fine_to_coarse[p as usize])
            .collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.len() < 2 {
            continue;
        }
        *merged.entry(pins).or_insert(0) += nl.net_weight(net);
    }
    for (pins, w) in merged {
        builder
            .add_weighted_net(&pins, w)
            .expect("coarse pins valid");
    }
    NetlistContraction {
        coarse: builder.build(),
        fine_to_coarse,
    }
}

/// Reusable scratch for [`contract_cells_into`]: the per-net merge
/// buffers that [`contract_cells`] would otherwise reallocate at every
/// coarsening level. One instance serves a whole ladder — each level
/// clears and refills the buffers, whose capacity stays warm at the
/// finest level's size.
#[derive(Debug, Default)]
pub struct NetlistContractionScratch {
    /// Per-fine-cell matched partner (`VertexId::MAX` = unmatched).
    mate: Vec<VertexId>,
    /// Mapped, per-net sorted and deduped pins of surviving nets,
    /// concatenated.
    pin_buf: Vec<VertexId>,
    /// `(start, end, weight)` spans into `pin_buf`, one per surviving
    /// net.
    spans: Vec<(usize, usize, EdgeWeight)>,
    /// Net permutation used to sort spans into lexicographic pin order.
    order: Vec<u32>,
}

impl NetlistContractionScratch {
    /// Fresh, empty scratch.
    pub fn new() -> NetlistContractionScratch {
        NetlistContractionScratch::default()
    }
}

/// As [`contract_cells`], drawing every intermediate buffer from
/// `scratch` instead of allocating per level: pins are mapped into one
/// shared buffer, nets are sorted by pin-set order through an index
/// permutation, and equal pin sets merge by walking adjacent runs. The
/// output is **identical** to [`contract_cells`] — the merge emits nets
/// in the same lexicographic pin-set order with the same summed weights
/// (tested) — so callers can pick either path without changing results.
///
/// # Panics
///
/// As [`contract_cells`].
pub fn contract_cells_into(
    nl: &Netlist,
    pairs: &[(VertexId, VertexId)],
    scratch: &mut NetlistContractionScratch,
) -> NetlistContraction {
    let n = nl.num_cells();
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    scratch.mate.clear();
    scratch.mate.resize(n, VertexId::MAX);
    let mate = &mut scratch.mate;
    for &(a, b) in pairs {
        assert_ne!(a, b, "a cell cannot be matched with itself");
        assert!((a as usize) < n && (b as usize) < n, "pair out of range");
        assert!(
            mate[a as usize] == VertexId::MAX && mate[b as usize] == VertexId::MAX,
            "matching must be vertex-disjoint"
        );
        mate[a as usize] = b;
        mate[b as usize] = a;
    }
    let mut next: VertexId = 0;
    for c in 0..n as VertexId {
        if fine_to_coarse[c as usize] != VertexId::MAX {
            continue;
        }
        fine_to_coarse[c as usize] = next;
        let m = mate[c as usize];
        if m != VertexId::MAX {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let num_coarse = next as usize;
    let mut cell_weights = vec![0u64; num_coarse];
    for c in 0..n as VertexId {
        cell_weights[fine_to_coarse[c as usize] as usize] += nl.cell_weight(c);
    }

    // Map, sort, and dedup every net's pins into the shared buffer;
    // record spans of nets that keep at least two distinct pins.
    scratch.pin_buf.clear();
    scratch.spans.clear();
    for net in nl.net_ids() {
        let start = scratch.pin_buf.len();
        scratch
            .pin_buf
            .extend(nl.pins(net).iter().map(|&p| fine_to_coarse[p as usize]));
        let slice = &mut scratch.pin_buf[start..];
        slice.sort_unstable();
        let mut keep = start;
        for i in start..scratch.pin_buf.len() {
            if keep == start || scratch.pin_buf[keep - 1] != scratch.pin_buf[i] {
                scratch.pin_buf[keep] = scratch.pin_buf[i];
                keep += 1;
            }
        }
        scratch.pin_buf.truncate(keep);
        if keep - start < 2 {
            scratch.pin_buf.truncate(start);
            continue;
        }
        scratch.spans.push((start, keep, nl.net_weight(net)));
    }
    // Lexicographic pin-set order — the order the BTreeMap merge of
    // [`contract_cells`] emits. Equal sets land adjacent; their summed
    // weight is order-independent, so unstable sorting is safe.
    scratch.order.clear();
    scratch.order.extend(0..scratch.spans.len() as u32);
    let (pin_buf, spans) = (&scratch.pin_buf, &scratch.spans);
    let key = |i: u32| {
        let (s, e, _) = spans[i as usize];
        &pin_buf[s..e]
    };
    scratch.order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));

    // Merge adjacent equal pin sets and emit the coarse CSR directly.
    let mut xpins: Vec<usize> = Vec::with_capacity(scratch.spans.len() + 1);
    xpins.push(0);
    let mut pins: Vec<VertexId> = Vec::new();
    let mut net_weights: Vec<EdgeWeight> = Vec::new();
    let mut cell_degree = vec![0usize; num_coarse];
    for &i in &scratch.order {
        let set = key(i);
        let w = spans[i as usize].2;
        if net_weights.is_empty() || &pins[xpins[xpins.len() - 2]..] != set {
            pins.extend_from_slice(set);
            xpins.push(pins.len());
            net_weights.push(w);
            for &p in set {
                cell_degree[p as usize] += 1;
            }
        } else {
            let last = net_weights.len() - 1;
            net_weights[last] += w;
        }
    }
    let mut xnets = vec![0usize; num_coarse + 1];
    for c in 0..num_coarse {
        xnets[c + 1] = xnets[c] + cell_degree[c];
    }
    let mut cursor: Vec<usize> = xnets[..num_coarse].to_vec();
    let mut nets = vec![0 as NetId; xnets[num_coarse]];
    for net in 0..net_weights.len() {
        for &p in &pins[xpins[net]..xpins[net + 1]] {
            nets[cursor[p as usize]] = net as NetId;
            cursor[p as usize] += 1;
        }
    }
    NetlistContraction {
        coarse: Netlist {
            xpins: Offsets::from_wide(xpins),
            pins,
            xnets: Offsets::from_wide(xnets),
            nets,
            cell_weights,
            net_weights,
        },
        fine_to_coarse,
    }
}

/// Breadth-first cell visitation order (`new -> old`): cells are
/// numbered in BFS order over the net incidence structure, entering
/// components in increasing order of their smallest cell and expanding
/// each cell's nets (and each net's pins) in increasing id order. The
/// netlist analogue of [`crate::reorder::bfs`] — cells sharing nets get
/// nearby ids, so refinement sweeps stride through the CSR arrays
/// instead of hopping randomly.
pub fn bfs_cell_order(nl: &Netlist) -> Vec<VertexId> {
    let n = nl.num_cells();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n as VertexId {
        if seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        queue.push_back(root);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &net in nl.nets_of(c) {
                for &p in nl.pins(net) {
                    if !seen[p as usize] {
                        seen[p as usize] = true;
                        queue.push_back(p);
                    }
                }
            }
        }
    }
    order
}

/// The relabeled netlist: cell `new` of the result is cell
/// `new_to_old[new]` of `nl`, with nets, pins, and weights carried
/// over (net ids and order are unchanged). Relabeling is an
/// isomorphism, so every bisection of the result maps to a bisection
/// of `nl` with the same net cut.
///
/// # Panics
///
/// Panics if `new_to_old` is not a permutation of `0..nl.num_cells()`.
pub fn permute_cells(nl: &Netlist, new_to_old: &[VertexId]) -> Netlist {
    let n = nl.num_cells();
    assert_eq!(new_to_old.len(), n, "permutation length must match cells");
    let mut old_to_new = vec![VertexId::MAX; n];
    for (new, &old) in new_to_old.iter().enumerate() {
        assert!((old as usize) < n, "cell id out of range");
        assert_eq!(
            old_to_new[old as usize],
            VertexId::MAX,
            "cell id repeats — not a permutation"
        );
        old_to_new[old as usize] = new as VertexId;
    }
    // Net sizes are untouched by relabeling, so xpins carries over;
    // each net's pins are remapped and re-sorted in place.
    let mut xpins: Vec<usize> = Vec::with_capacity(nl.num_nets() + 1);
    xpins.push(0);
    let mut pins: Vec<VertexId> = Vec::with_capacity(nl.num_pins());
    for net in nl.net_ids() {
        let start = pins.len();
        pins.extend(nl.pins(net).iter().map(|&p| old_to_new[p as usize]));
        pins[start..].sort_unstable();
        xpins.push(pins.len());
    }
    let mut xnets = vec![0usize; n + 1];
    for new in 0..n {
        let old = new_to_old[new];
        xnets[new + 1] = xnets[new] + nl.nets_of(old).len();
    }
    let mut cursor: Vec<usize> = xnets[..n].to_vec();
    let mut nets = vec![0 as NetId; xnets[n]];
    for net in nl.net_ids() {
        for &p in &pins[xpins[net as usize]..xpins[net as usize + 1]] {
            nets[cursor[p as usize]] = net;
            cursor[p as usize] += 1;
        }
    }
    let cell_weights = new_to_old.iter().map(|&old| nl.cell_weight(old)).collect();
    let net_weights = nl.net_ids().map(|net| nl.net_weight(net)).collect();
    Netlist {
        xpins: Offsets::from_wide(xpins),
        pins,
        xnets: Offsets::from_wide(xnets),
        nets,
        cell_weights,
        net_weights,
    }
}

/// Forms a random maximal cell matching along nets: visits cells in a
/// random order and matches each unmatched cell to an unmatched cell
/// sharing a net, preferring partners connected through *small* nets
/// (connectivity score `Σ w(net)/(|net|−1)`, hMETIS-style edge
/// coarsening). Returns the matched pairs.
pub fn random_cell_matching<R: rand::Rng + ?Sized>(
    nl: &Netlist,
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    random_cell_matching_with_skip(nl, &[], rng)
}

/// As [`random_cell_matching`], but cells flagged in `skip` are never
/// matched — neither visited nor offered as partners. An empty `skip`
/// slice skips nothing; a shorter-than-`num_cells` slice treats missing
/// entries as `false`. Multilevel pipelines use this to keep *fixed*
/// cells (terminal-propagation anchors) as singleton coarse cells so
/// their side constraint survives every coarsening level.
pub fn random_cell_matching_with_skip<R: rand::Rng + ?Sized>(
    nl: &Netlist,
    skip: &[bool],
    rng: &mut R,
) -> Vec<(VertexId, VertexId)> {
    use rand::seq::SliceRandom;
    let n = nl.num_cells();
    let skipped = |c: VertexId| skip.get(c as usize).copied().unwrap_or(false);
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);
    let mut matched = vec![false; n];
    let mut pairs = Vec::new();
    // BTreeMap so iteration order — and with it the f64 accumulation
    // and tie-breaking below — never depends on hasher state.
    let mut score: std::collections::BTreeMap<VertexId, f64> = std::collections::BTreeMap::new();
    for &c in &order {
        if matched[c as usize] || skipped(c) {
            continue;
        }
        score.clear();
        for &net in nl.nets_of(c) {
            let pins = nl.pins(net);
            if pins.len() < 2 {
                continue;
            }
            let contribution = nl.net_weight(net) as f64 / (pins.len() - 1) as f64;
            for &p in pins {
                if p != c && !matched[p as usize] && !skipped(p) {
                    *score.entry(p).or_insert(0.0) += contribution;
                }
            }
        }
        let best = score.iter().max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0.cmp(a.0))
        });
        if let Some((&partner, _)) = best {
            matched[c as usize] = true;
            matched[partner as usize] = true;
            pairs.push((c, partner));
        }
    }
    pairs
}

/// Incremental construction of a [`Netlist`].
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    num_cells: usize,
    nets: Vec<(Vec<VertexId>, EdgeWeight)>,
    cell_weights: Vec<VertexWeight>,
}

impl NetlistBuilder {
    /// A builder for a netlist on `num_cells` cells with no nets.
    pub fn new(num_cells: usize) -> NetlistBuilder {
        NetlistBuilder {
            num_cells,
            nets: Vec::new(),
            cell_weights: vec![1; num_cells],
        }
    }

    /// Adds a net with weight 1 over the given pins. Duplicate pins are
    /// merged; single-pin and empty nets are accepted (they can never
    /// be cut) to mirror real netlist files.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if a pin is out of range.
    pub fn add_net(&mut self, pins: &[VertexId]) -> Result<NetId, GraphError> {
        self.add_weighted_net(pins, 1)
    }

    /// Adds a net with the given weight.
    ///
    /// # Errors
    ///
    /// As [`add_net`](NetlistBuilder::add_net), plus
    /// [`GraphError::ZeroWeight`] for `weight == 0`.
    pub fn add_weighted_net(
        &mut self,
        pins: &[VertexId],
        weight: EdgeWeight,
    ) -> Result<NetId, GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        for &p in pins {
            if p as usize >= self.num_cells {
                return Err(GraphError::VertexOutOfRange {
                    vertex: p as u64,
                    num_vertices: self.num_cells,
                });
            }
        }
        let mut sorted: Vec<VertexId> = pins.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let id = self.nets.len() as NetId;
        self.nets.push((sorted, weight));
        Ok(id)
    }

    /// Sets the weight of cell `c` (default 1).
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::ZeroWeight`].
    pub fn set_cell_weight(
        &mut self,
        c: VertexId,
        weight: VertexWeight,
    ) -> Result<&mut NetlistBuilder, GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        if c as usize >= self.num_cells {
            return Err(GraphError::VertexOutOfRange {
                vertex: c as u64,
                num_vertices: self.num_cells,
            });
        }
        self.cell_weights[c as usize] = weight;
        Ok(self)
    }

    /// Finalizes both CSR directions.
    pub fn build(self) -> Netlist {
        let num_nets = self.nets.len();
        let mut xpins = Vec::with_capacity(num_nets + 1);
        xpins.push(0usize);
        let mut pins = Vec::new();
        let mut net_weights = Vec::with_capacity(num_nets);
        let mut cell_degree = vec![0usize; self.num_cells];
        for (net_pins, w) in &self.nets {
            pins.extend_from_slice(net_pins);
            xpins.push(pins.len());
            net_weights.push(*w);
            for &p in net_pins {
                cell_degree[p as usize] += 1;
            }
        }
        let mut xnets = vec![0usize; self.num_cells + 1];
        for c in 0..self.num_cells {
            xnets[c + 1] = xnets[c] + cell_degree[c];
        }
        let mut cursor = xnets.clone();
        let mut nets = vec![0 as NetId; xnets[self.num_cells]];
        for (n, (net_pins, _)) in self.nets.iter().enumerate() {
            for &p in net_pins {
                nets[cursor[p as usize]] = n as NetId;
                cursor[p as usize] += 1;
            }
        }
        // Nets were appended in increasing id order per cell, so the
        // per-cell lists are already sorted.
        Netlist {
            xpins: Offsets::from_wide(xpins),
            pins,
            xnets: Offsets::from_wide(xnets),
            nets,
            cell_weights: self.cell_weights,
            net_weights,
        }
    }

    /// Builds a unit-cell-weight netlist without materializing the full
    /// pin list: `emit` is invoked twice with a [`PinStream`] sink and
    /// must produce the *identical* net sequence both times (re-run a
    /// cloned RNG, or re-scan the same staged arrays). The first pass
    /// counts per-net pin slots and per-cell net degrees, the second
    /// writes both CSR directions straight into their final arrays — a
    /// counting sort, the netlist analogue of [`GraphBuilder::stream`].
    ///
    /// Peak memory is the final CSR arrays plus `O(cells + nets)`
    /// counters; the edge-list path holds every net's pin `Vec`
    /// alongside the CSR arrays. Each net's pins are sorted and deduped
    /// in a small per-net scratch buffer exactly as
    /// [`add_net`](NetlistBuilder::add_net) does, so the result is
    /// byte-identical to adding the same nets to a [`NetlistBuilder`]
    /// and calling [`build`](NetlistBuilder::build) (property-tested).
    ///
    /// # Errors
    ///
    /// Propagates per-net errors from the sink
    /// ([`GraphError::VertexOutOfRange`], [`GraphError::ZeroWeight`])
    /// and returns [`GraphError::StreamMismatch`] if the two passes
    /// disagree.
    pub fn stream<F>(num_cells: usize, mut emit: F) -> Result<Netlist, GraphError>
    where
        F: FnMut(&mut PinStream<'_>) -> Result<(), GraphError>,
    {
        let mut cell_degree = vec![0usize; num_cells];
        let mut net_sizes: Vec<u32> = Vec::new();
        let counted = {
            let mut sink = PinStream {
                num_cells,
                records: 0,
                scratch: Vec::new(),
                mode: PinStreamMode::Count {
                    cell_degree: &mut cell_degree,
                    net_sizes: &mut net_sizes,
                },
            };
            emit(&mut sink)?;
            sink.records
        };
        let num_nets = net_sizes.len();
        let mut xpins = vec![0usize; num_nets + 1];
        for n in 0..num_nets {
            xpins[n + 1] = xpins[n] + net_sizes[n] as usize;
        }
        let mut xnets = vec![0usize; num_cells + 1];
        for c in 0..num_cells {
            xnets[c + 1] = xnets[c] + cell_degree[c];
        }
        let mut pins = vec![0 as VertexId; xpins[num_nets]];
        let mut nets = vec![0 as NetId; xnets[num_cells]];
        let mut net_weights = vec![0 as EdgeWeight; num_nets];
        let mut cell_cursor: Vec<usize> = xnets[..num_cells].to_vec();
        let emitted = {
            let mut sink = PinStream {
                num_cells,
                records: 0,
                scratch: Vec::new(),
                mode: PinStreamMode::Fill {
                    xpins: &xpins,
                    xnets: &xnets,
                    cell_cursor: &mut cell_cursor,
                    pins: &mut pins,
                    nets: &mut nets,
                    net_weights: &mut net_weights,
                },
            };
            emit(&mut sink)?;
            sink.records
        };
        if emitted != counted
            || cell_cursor
                .iter()
                .zip(&xnets[1..])
                .any(|(&c, &end)| c != end)
        {
            return Err(GraphError::StreamMismatch { counted, emitted });
        }
        // Both pass-2 write orders match the builder's: pins in net
        // order (each net sorted and deduped by the sink), per-cell net
        // lists in increasing net id because nets arrive in id order.
        Ok(Netlist {
            xpins: Offsets::from_wide(xpins),
            pins,
            xnets: Offsets::from_wide(xnets),
            nets,
            cell_weights: vec![1; num_cells],
            net_weights,
        })
    }
}

/// The net sink handed to the closure of [`NetlistBuilder::stream`].
/// Validates each net exactly as [`NetlistBuilder::add_weighted_net`]
/// does, so both passes fail identically on bad input.
#[derive(Debug)]
pub struct PinStream<'a> {
    num_cells: usize,
    records: usize,
    /// Per-net sort/dedup buffer, reused across nets — the only pin
    /// storage besides the final CSR arrays.
    scratch: Vec<VertexId>,
    mode: PinStreamMode<'a>,
}

#[derive(Debug)]
enum PinStreamMode<'a> {
    Count {
        cell_degree: &'a mut [usize],
        net_sizes: &'a mut Vec<u32>,
    },
    Fill {
        xpins: &'a [usize],
        xnets: &'a [usize],
        cell_cursor: &'a mut [usize],
        pins: &'a mut [VertexId],
        nets: &'a mut [NetId],
        net_weights: &'a mut [EdgeWeight],
    },
}

impl PinStream<'_> {
    /// Emits a net with weight 1 over the given pins. As in
    /// [`NetlistBuilder::add_net`], duplicate pins merge and degenerate
    /// (< 2 pin) nets are accepted.
    ///
    /// # Errors
    ///
    /// As [`PinStream::weighted_net`].
    pub fn net(&mut self, pins: &[VertexId]) -> Result<(), GraphError> {
        self.weighted_net(pins, 1)
    }

    /// Emits a net with the given weight.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::ZeroWeight`] as
    /// for [`NetlistBuilder::add_weighted_net`];
    /// [`GraphError::StreamMismatch`] if the filling pass diverges from
    /// the counting pass (more nets, or different pins for some net or
    /// cell).
    pub fn weighted_net(
        &mut self,
        pins: &[VertexId],
        weight: EdgeWeight,
    ) -> Result<(), GraphError> {
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        for &p in pins {
            if p as usize >= self.num_cells {
                return Err(GraphError::VertexOutOfRange {
                    vertex: p as u64,
                    num_vertices: self.num_cells,
                });
            }
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(pins);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let net = self.records;
        self.records += 1;
        match &mut self.mode {
            PinStreamMode::Count {
                cell_degree,
                net_sizes,
            } => {
                net_sizes.push(self.scratch.len() as u32);
                for &p in &self.scratch {
                    cell_degree[p as usize] += 1;
                }
            }
            PinStreamMode::Fill {
                xpins,
                xnets,
                cell_cursor,
                pins,
                nets,
                net_weights,
            } => {
                if net + 1 >= xpins.len() {
                    return Err(GraphError::StreamMismatch {
                        counted: xpins.len() - 1,
                        emitted: net + 1,
                    });
                }
                let (lo, hi) = (xpins[net], xpins[net + 1]);
                if self.scratch.len() != hi - lo {
                    return Err(GraphError::StreamMismatch {
                        counted: hi - lo,
                        emitted: self.scratch.len(),
                    });
                }
                pins[lo..hi].copy_from_slice(&self.scratch);
                net_weights[net] = weight;
                for &p in &self.scratch {
                    let slot = cell_cursor[p as usize];
                    if slot >= xnets[p as usize + 1] {
                        return Err(GraphError::StreamMismatch {
                            counted: xnets[p as usize + 1] - xnets[p as usize],
                            emitted: slot + 1 - xnets[p as usize],
                        });
                    }
                    nets[slot] = net as NetId;
                    cell_cursor[p as usize] = slot + 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new(5);
        b.add_net(&[0, 1, 2]).unwrap();
        b.add_net(&[2, 3]).unwrap();
        b.add_weighted_net(&[0, 3, 4], 3).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let nl = sample();
        assert_eq!(nl.num_cells(), 5);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 8);
        assert!((nl.average_net_size() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn incidence_is_consistent_both_ways() {
        let nl = sample();
        for n in nl.net_ids() {
            for &c in nl.pins(n) {
                assert!(nl.nets_of(c).contains(&n), "cell {c} missing net {n}");
            }
        }
        for c in nl.cells() {
            for &n in nl.nets_of(c) {
                assert!(nl.pins(n).contains(&c), "net {n} missing cell {c}");
            }
        }
    }

    #[test]
    fn pins_sorted_and_deduped() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[3, 1, 3, 0, 1]).unwrap();
        let nl = b.build();
        assert_eq!(nl.pins(0), &[0, 1, 3]);
    }

    #[test]
    fn degenerate_nets_accepted() {
        let mut b = NetlistBuilder::new(2);
        b.add_net(&[]).unwrap();
        b.add_net(&[1]).unwrap();
        let nl = b.build();
        assert_eq!(nl.num_nets(), 2);
        assert!(nl.pins(0).is_empty());
        assert_eq!(nl.pins(1), &[1]);
    }

    #[test]
    fn rejects_bad_input() {
        let mut b = NetlistBuilder::new(2);
        assert!(b.add_net(&[0, 5]).is_err());
        assert!(b.add_weighted_net(&[0, 1], 0).is_err());
        assert!(b.set_cell_weight(7, 1).is_err());
        assert!(b.set_cell_weight(0, 0).is_err());
    }

    #[test]
    fn weights() {
        let nl = sample();
        assert_eq!(nl.net_weight(2), 3);
        assert_eq!(nl.cell_weight(0), 1);
        assert_eq!(nl.total_cell_weight(), 5);
    }

    #[test]
    fn clique_expansion() {
        let nl = sample();
        let g = nl.to_clique_graph();
        assert_eq!(g.num_vertices(), 5);
        // Net 0 (0,1,2): edges 01, 02, 12. Net 1 (2,3): 23.
        // Net 2 (0,3,4) weight 3: 03, 04, 34 each weight 3.
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(2, 3), Some(1));
        assert_eq!(g.edge_weight(0, 4), Some(3));
        assert_eq!(g.num_edges(), 7);
    }

    #[test]
    fn from_graph_roundtrip_via_clique() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let nl = Netlist::from_graph(&g);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.average_net_size(), 2.0);
        // Two-pin nets expand back to the same graph.
        assert_eq!(nl.to_clique_graph(), g);
    }

    #[test]
    fn empty_netlist() {
        let nl = NetlistBuilder::new(0).build();
        assert_eq!(nl.num_cells(), 0);
        assert_eq!(nl.num_nets(), 0);
        assert_eq!(nl.average_net_size(), 0.0);
    }

    #[test]
    fn contract_merges_cells_and_drops_internal_nets() {
        // Net {0,1} becomes single-pin after contracting (0,1): dropped.
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[0, 1]).unwrap();
        b.add_net(&[1, 2, 3]).unwrap();
        let nl = b.build();
        let c = contract_cells(&nl, &[(0, 1)]);
        assert_eq!(c.coarse().num_cells(), 3);
        assert_eq!(c.coarse().num_nets(), 1);
        assert_eq!(c.map(0), c.map(1));
        assert_eq!(c.coarse().cell_weight(c.map(0)), 2);
    }

    #[test]
    fn contract_merges_identical_nets() {
        // Nets {0,2} and {1,2} become identical after contracting (0,1).
        let mut b = NetlistBuilder::new(3);
        b.add_net(&[0, 2]).unwrap();
        b.add_net(&[1, 2]).unwrap();
        let nl = b.build();
        let c = contract_cells(&nl, &[(0, 1)]);
        assert_eq!(c.coarse().num_nets(), 1);
        assert_eq!(c.coarse().net_weight(0), 2);
    }

    #[test]
    fn contract_projection_shape() {
        let nl = sample();
        let c = contract_cells(&nl, &[(0, 1), (3, 4)]);
        let fine = c.project_sides(&[true, false, true]);
        assert_eq!(fine.len(), 5);
        assert_eq!(fine[0], fine[1]);
        assert_eq!(fine[3], fine[4]);
    }

    #[test]
    #[should_panic(expected = "vertex-disjoint")]
    fn contract_rejects_overlapping_pairs() {
        let nl = sample();
        let _ = contract_cells(&nl, &[(0, 1), (1, 2)]);
    }

    #[test]
    fn random_cell_matching_is_valid() {
        use rand::SeedableRng;
        let nl = sample();
        for seed in 0..10 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs = random_cell_matching(&nl, &mut rng);
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in &pairs {
                assert_ne!(a, b);
                assert!(seen.insert(a), "cell {a} matched twice");
                assert!(seen.insert(b), "cell {b} matched twice");
                // Partners must share a net.
                assert!(
                    nl.nets_of(a).iter().any(|&n| nl.pins(n).contains(&b)),
                    "pair ({a},{b}) shares no net"
                );
            }
        }
    }

    #[test]
    fn random_cell_matching_deterministic_given_seed() {
        use rand::SeedableRng;
        let nl = sample();
        let a = random_cell_matching(&nl, &mut rand::rngs::StdRng::seed_from_u64(5));
        let b = random_cell_matching(&nl, &mut rand::rngs::StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn skip_matching_never_touches_skipped_cells() {
        use rand::SeedableRng;
        let nl = wide_netlist();
        let mut skip = vec![false; nl.num_cells()];
        for c in [0usize, 7, 13, 30, 59] {
            skip[c] = true;
        }
        for seed in 0..8 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs = random_cell_matching_with_skip(&nl, &skip, &mut rng);
            assert!(!pairs.is_empty());
            for &(a, b) in &pairs {
                assert!(!skip[a as usize], "skipped cell {a} was matched");
                assert!(!skip[b as usize], "skipped cell {b} was matched");
            }
        }
    }

    #[test]
    fn empty_skip_matches_plain_matching() {
        use rand::SeedableRng;
        let nl = wide_netlist();
        let a = random_cell_matching(&nl, &mut rand::rngs::StdRng::seed_from_u64(3));
        let b = random_cell_matching_with_skip(&nl, &[], &mut rand::rngs::StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn fine_to_coarse_agrees_with_map() {
        let nl = sample();
        let c = contract_cells(&nl, &[(0, 1), (3, 4)]);
        let full = c.fine_to_coarse();
        assert_eq!(full.len(), nl.num_cells());
        for cell in nl.cells() {
            assert_eq!(full[cell as usize], c.map(cell));
        }
    }

    #[test]
    fn matching_on_netless_cells_is_empty() {
        use rand::SeedableRng;
        let nl = NetlistBuilder::new(5).build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(random_cell_matching(&nl, &mut rng).is_empty());
    }

    #[test]
    fn contraction_preserves_total_cell_weight() {
        use rand::SeedableRng;
        let nl = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pairs = random_cell_matching(&nl, &mut rng);
        let c = contract_cells(&nl, &pairs);
        assert_eq!(c.coarse().total_cell_weight(), nl.total_cell_weight());
    }

    /// A netlist big enough that net merging and score tie-breaking
    /// actually occur during coarsening.
    fn wide_netlist() -> Netlist {
        let n: u32 = 60;
        let mut b = NetlistBuilder::new(n as usize);
        for c in 0..n {
            // Local 3-pin nets (rings) plus long weighted nets, so
            // contraction produces duplicate pin sets to merge.
            b.add_net(&[c, (c + 1) % n, (c + 2) % n]).unwrap();
            if c % 5 == 0 {
                b.add_weighted_net(&[c, (c + 7) % n, (c + 14) % n, (c + 21) % n], 2)
                    .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn stream_matches_builder_build() {
        let nets: &[(&[VertexId], EdgeWeight)] = &[
            (&[0, 1, 2], 1),
            (&[2, 3], 1),
            (&[0, 3, 4], 3),
            (&[4, 1, 4, 0], 2), // duplicate pin merges
            (&[2], 1),          // degenerate single-pin net
            (&[], 1),           // degenerate empty net
        ];
        let mut b = NetlistBuilder::new(5);
        for &(pins, w) in nets {
            b.add_weighted_net(pins, w).unwrap();
        }
        let via_builder = b.build();
        let via_stream = NetlistBuilder::stream(5, |sink| {
            for &(pins, w) in nets {
                sink.weighted_net(pins, w)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(via_builder, via_stream);
    }

    #[test]
    fn stream_empty_and_degenerate() {
        let nl = NetlistBuilder::stream(3, |_| Ok(())).unwrap();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_nets(), 0);
        assert!(nl.uses_compact_offsets());
    }

    #[test]
    fn stream_rejects_bad_nets() {
        assert!(matches!(
            NetlistBuilder::stream(3, |sink| sink.net(&[0, 5])),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
        assert_eq!(
            NetlistBuilder::stream(3, |sink| sink.weighted_net(&[0, 1], 0)),
            Err(GraphError::ZeroWeight)
        );
    }

    #[test]
    fn stream_detects_mismatched_passes() {
        // Extra net in pass 2.
        let mut pass = 0;
        let err = NetlistBuilder::stream(4, |sink| {
            pass += 1;
            sink.net(&[0, 1])?;
            if pass > 1 {
                sink.net(&[2, 3])?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::StreamMismatch { .. }));
        // Same net count and sizes but different pins in pass 2.
        let mut pass = 0;
        let err = NetlistBuilder::stream(4, |sink| {
            pass += 1;
            sink.net(if pass == 1 { &[0, 1] } else { &[0, 2] })?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::StreamMismatch { .. }));
        // Fewer nets in pass 2.
        let mut pass = 0;
        let err = NetlistBuilder::stream(4, |sink| {
            pass += 1;
            if pass == 1 {
                sink.net(&[0, 1])?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::StreamMismatch { .. }));
    }

    #[test]
    fn builder_and_stream_netlists_use_compact_offsets() {
        assert!(sample().uses_compact_offsets());
        assert!(wide_netlist().uses_compact_offsets());
    }

    #[test]
    fn scratch_contraction_matches_allocating_path() {
        use rand::SeedableRng;
        let mut scratch = NetlistContractionScratch::new();
        for (nl, seeds) in [(sample(), 0..6u64), (wide_netlist(), 0..6u64)] {
            for seed in seeds {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let pairs = random_cell_matching(&nl, &mut rng);
                let a = contract_cells(&nl, &pairs);
                let b = contract_cells_into(&nl, &pairs, &mut scratch);
                assert_eq!(a.coarse(), b.coarse(), "seed {seed}");
                assert_eq!(a.fine_to_coarse(), b.fine_to_coarse(), "seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_contraction_survives_a_ladder() {
        // One scratch reused across every level of a coarsening ladder
        // must keep matching the allocating path.
        use rand::SeedableRng;
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(9);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(9);
        let mut scratch = NetlistContractionScratch::new();
        let mut cur_a = wide_netlist();
        let mut cur_b = wide_netlist();
        for _ in 0..4 {
            let pairs_a = random_cell_matching(&cur_a, &mut rng_a);
            let pairs_b = random_cell_matching(&cur_b, &mut rng_b);
            assert_eq!(pairs_a, pairs_b);
            if pairs_a.is_empty() {
                break;
            }
            cur_a = contract_cells(&cur_a, &pairs_a).coarse().clone();
            cur_b = contract_cells_into(&cur_b, &pairs_b, &mut scratch)
                .coarse()
                .clone();
            assert_eq!(cur_a, cur_b);
        }
    }

    #[test]
    fn bfs_cell_order_is_a_permutation_and_clusters_components() {
        let nl = wide_netlist();
        let order = bfs_cell_order(&nl);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..nl.num_cells() as VertexId).collect::<Vec<_>>());
        // A netless cell forms its own component and still appears.
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[1, 3]).unwrap();
        let nl = b.build();
        let order = bfs_cell_order(&nl);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        // Cell 1 pulls in its net-mate 3 before isolated cell 2.
        assert_eq!(&order[1..], &[1, 3, 2]);
    }

    #[test]
    fn permute_cells_preserves_structure_and_cut() {
        let nl = sample();
        let order: Vec<VertexId> = vec![4, 2, 0, 3, 1];
        let permuted = permute_cells(&nl, &order);
        assert_eq!(permuted.num_cells(), nl.num_cells());
        assert_eq!(permuted.num_nets(), nl.num_nets());
        assert_eq!(permuted.num_pins(), nl.num_pins());
        for (new, &old) in order.iter().enumerate() {
            assert_eq!(permuted.cell_weight(new as VertexId), nl.cell_weight(old));
            assert_eq!(
                permuted.nets_of(new as VertexId).len(),
                nl.nets_of(old).len()
            );
        }
        // Net cut of any side assignment is isomorphism-invariant.
        let old_sides = [true, false, true, false, true];
        let new_sides: Vec<bool> = order.iter().map(|&old| old_sides[old as usize]).collect();
        let cut = |nl: &Netlist, sides: &[bool]| -> u64 {
            nl.net_ids()
                .filter(|&n| {
                    let pins = nl.pins(n);
                    pins.iter().any(|&p| sides[p as usize])
                        && pins.iter().any(|&p| !sides[p as usize])
                })
                .map(|n| nl.net_weight(n))
                .sum()
        };
        assert_eq!(cut(&nl, &old_sides), cut(&permuted, &new_sides));
        // Pins stay sorted and per-cell net lists stay sorted.
        for n in permuted.net_ids() {
            assert!(permuted.pins(n).windows(2).all(|w| w[0] < w[1]));
        }
        for c in permuted.cells() {
            assert!(permuted.nets_of(c).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bfs_permute_roundtrip_keeps_identity_cut() {
        let nl = wide_netlist();
        let order = bfs_cell_order(&nl);
        let permuted = permute_cells(&nl, &order);
        assert_eq!(permuted.total_cell_weight(), nl.total_cell_weight());
        assert_eq!(permuted.num_pins(), nl.num_pins());
    }

    #[test]
    fn coarsening_is_deterministic_across_repeated_runs() {
        // Repeated in-process runs exercise fresh map instances; with
        // the old HashMap-based merge/score maps, differing hasher
        // states could reorder f64 accumulation and net emission. The
        // whole ladder must now be reproducible run-to-run.
        use rand::SeedableRng;
        let nl = wide_netlist();
        let run = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let mut current = nl.clone();
            let mut levels = Vec::new();
            while current.num_cells() > 8 {
                let pairs = random_cell_matching(&current, &mut rng);
                if pairs.is_empty() {
                    break;
                }
                let c = contract_cells(&current, &pairs);
                levels.push((c.coarse().clone(), c.fine_to_coarse().to_vec()));
                current = c.coarse().clone();
            }
            levels
        };
        let first = run();
        assert!(!first.is_empty(), "coarsening made progress");
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }
}
