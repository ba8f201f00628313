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
//! pins and cell → nets. Every netlist — from [`NetlistBuilder`],
//! [`contract_cells_into`] or [`permute_cells`] — is finished by one
//! private constructor: its producer writes the net-major arrays, and
//! the constructor derives the cell-major side by a counting-sort
//! transpose, compacts both offset arrays and trims spare capacity.
//!
//! Contracting matched cells yields a [`NetlistContraction`]: the one
//! [`Contraction`] type of the workspace over a [`Netlist`], so graph
//! and netlist ladders share one shape.

use crate::contraction::Contraction;
use crate::csr::{exact, Offsets};
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

    /// The one constructor. Takes the net-major side (per-net pins,
    /// each net sorted and deduped, and the net weights) and derives the
    /// cell-major side by a counting-sort transpose: nets are visited in
    /// increasing id, so every cell's net list comes out sorted. Both
    /// offset arrays are compacted to `u32` when they fit, and spare
    /// capacity is released first so retained memory is exact.
    fn from_net_major(
        xpins: Vec<usize>,
        pins: Vec<VertexId>,
        net_weights: Vec<EdgeWeight>,
        cell_weights: Vec<VertexWeight>,
    ) -> Netlist {
        let (pins, net_weights) = (exact(pins), exact(net_weights));
        let num_cells = cell_weights.len();
        let mut xnets = vec![0usize; num_cells + 1];
        for &p in &pins {
            xnets[p as usize + 1] += 1;
        }
        for c in 0..num_cells {
            xnets[c + 1] += xnets[c];
        }
        let mut cursor: Vec<usize> = xnets[..num_cells].to_vec();
        let mut nets = vec![0 as NetId; pins.len()];
        for (net, span) in xpins.windows(2).enumerate() {
            for &p in &pins[span[0]..span[1]] {
                nets[cursor[p as usize]] = net as NetId;
                cursor[p as usize] += 1;
            }
        }
        Netlist {
            xpins: Offsets::from_wide(xpins),
            pins,
            xnets: Offsets::from_wide(xnets),
            nets,
            cell_weights,
            net_weights,
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
}

/// The result of contracting matched cell pairs of a netlist: the
/// coarse netlist plus the fine-to-coarse cell map. Produced by
/// [`contract_cells`]; the one [`Contraction`] type over a [`Netlist`].
pub type NetlistContraction = Contraction<Netlist>;

impl NetlistContraction {
    /// Projects a coarse side assignment to the fine cells.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_side.len()` differs from the coarse cell count.
    pub fn project_sides(&self, coarse_side: &[bool]) -> Vec<bool> {
        self.project(self.coarse.num_cells(), coarse_side)
    }
}

/// Contracts matched cell pairs (`pairs` must be vertex-disjoint) in
/// the netlist sense: coarse cell weights are summed, each net's pins
/// are mapped and deduplicated, nets left with fewer than two distinct
/// pins are dropped, and nets that become *identical* pin sets are
/// merged with summed weights — the standard hypergraph coarsening step
/// (the paper's compaction, §V, in its netlist form). Coarse nets come
/// out in lexicographic pin-set order.
///
/// A one-shot call of [`contract_cells_into`] with fresh scratch.
///
/// # Panics
///
/// Panics if a cell appears in two pairs, a pair repeats a cell, or a
/// cell id is out of range.
pub fn contract_cells(nl: &Netlist, pairs: &[(VertexId, VertexId)]) -> NetlistContraction {
    contract_cells_into(nl, pairs, &mut NetlistContractionScratch::new())
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
    /// The permutation after the first (second-pin) counting pass.
    by_second: Vec<u32>,
    /// Counting-sort bucket offsets, one per coarse cell plus one.
    buckets: Vec<usize>,
}

impl NetlistContractionScratch {
    /// Fresh, empty scratch.
    pub fn new() -> NetlistContractionScratch {
        NetlistContractionScratch::default()
    }
}

/// As [`contract_cells`], drawing every intermediate buffer from
/// `scratch` instead of allocating per level. Pins are mapped into one
/// shared buffer and each net is sorted and deduped in place. The
/// surviving nets are then put in lexicographic pin-set order in
/// O(nets + cells): two stable counting-sort passes over the coarse
/// cell ids (second pin, then first pin — LSD order), and a comparison
/// sort only inside runs that share both leading pins. Equal pin sets
/// land adjacent and merge with summed weights, so the coarse netlist
/// equals the `BTreeMap` merge it replaced, net for net (tested against
/// that reference).
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
        sort_dedup_tail(&mut scratch.pin_buf, start);
        let end = scratch.pin_buf.len();
        if end - start < 2 {
            scratch.pin_buf.truncate(start);
            continue;
        }
        scratch.spans.push((start, end, nl.net_weight(net)));
    }
    // Lexicographic pin-set order. Every surviving net has at least two
    // pins, so LSD counting passes on the second and then the first pin
    // order the nets by their leading pair; only runs sharing that pair
    // need a comparison sort. Equal sets land adjacent; their summed
    // weight is order-independent, so the unstable run sort is safe.
    let NetlistContractionScratch {
        pin_buf,
        spans,
        order,
        by_second,
        buckets,
        ..
    } = scratch;
    let (pin_buf, spans) = (&*pin_buf, &*spans);
    let key = |i: u32| {
        let (s, e, _) = spans[i as usize];
        &pin_buf[s..e]
    };
    order.clear();
    order.extend(0..spans.len() as u32);
    counting_sort(order, by_second, buckets, num_coarse, |i| key(i)[1]);
    counting_sort(by_second, order, buckets, num_coarse, |i| key(i)[0]);
    let mut start = 0;
    while start < order.len() {
        let lead = &key(order[start])[..2];
        let end = start
            + order[start..]
                .iter()
                .position(|&i| &key(i)[..2] != lead)
                .unwrap_or(order.len() - start);
        if end - start > 1 {
            order[start..end].sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        }
        start = end;
    }
    let order = &*order;

    // Merge adjacent equal pin sets into the coarse net-major arrays.
    let mut xpins: Vec<usize> = Vec::with_capacity(spans.len() + 1);
    xpins.push(0);
    let mut pins: Vec<VertexId> = Vec::with_capacity(pin_buf.len());
    let mut net_weights: Vec<EdgeWeight> = Vec::with_capacity(spans.len());
    for &i in order {
        let set = key(i);
        let w = spans[i as usize].2;
        if net_weights.is_empty() || &pins[xpins[xpins.len() - 2]..] != set {
            pins.extend_from_slice(set);
            xpins.push(pins.len());
            net_weights.push(w);
        } else {
            let last = net_weights.len() - 1;
            net_weights[last] += w;
        }
    }
    NetlistContraction {
        coarse: Netlist::from_net_major(xpins, pins, net_weights, cell_weights),
        fine_to_coarse,
    }
}

/// Sorts `buf[start..]` and drops its repeated values in place, so the
/// tail holds each value once, ascending.
fn sort_dedup_tail(buf: &mut Vec<VertexId>, start: usize) {
    buf[start..].sort_unstable();
    let mut keep = start;
    for i in start..buf.len() {
        if keep == start || buf[keep - 1] != buf[i] {
            buf[keep] = buf[i];
            keep += 1;
        }
    }
    buf.truncate(keep);
}

/// Stable counting sort of `src` into `dst` by `key`, whose values lie
/// in `0..num_keys`; `offsets` is reused bucket storage.
fn counting_sort(
    src: &[u32],
    dst: &mut Vec<u32>,
    offsets: &mut Vec<usize>,
    num_keys: usize,
    key: impl Fn(u32) -> VertexId,
) {
    offsets.clear();
    offsets.resize(num_keys + 1, 0);
    for &i in src {
        offsets[key(i) as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    dst.clear();
    dst.resize(src.len(), 0);
    for &i in src {
        let slot = &mut offsets[key(i) as usize];
        dst[*slot] = i;
        *slot += 1;
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
    let cell_weights = new_to_old.iter().map(|&old| nl.cell_weight(old)).collect();
    Netlist::from_net_major(xpins, pins, nl.net_weights.clone(), cell_weights)
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
    let mut scorer = ConnectivityScorer::new(n);
    for &c in &order {
        if matched[c as usize] || skipped(c) {
            continue;
        }
        let best = scorer.best_partner(nl, c, |p| !matched[p as usize] && !skipped(p));
        if let Some(partner) = best {
            matched[c as usize] = true;
            matched[partner as usize] = true;
            pairs.push((c, partner));
        }
    }
    pairs
}

/// The hMETIS-style connectivity scorer behind every netlist cell
/// matcher ([`random_cell_matching_with_skip`] and the range-parallel
/// matcher of `bisect_core`): a candidate partner `p` of cell `c`
/// scores `Σ w(net)/(|net|−1)` over the ≥ 2-pin nets the two share,
/// and the best partner has the highest score, ties going to the
/// lowest cell id.
///
/// Scores live in a dense per-cell array plus a list of the cells
/// touched for the current `c`, both reused across calls, so scoring a
/// cell costs O(pins of its nets) with no map and no allocation once
/// warm. Each partner's score is summed in `nets_of(c)` order, so the
/// f64 sums — and with them the chosen partners — are a pure function
/// of the netlist.
#[derive(Debug, Clone)]
pub struct ConnectivityScorer {
    /// Accumulated score per cell; zero outside `touched`, and all
    /// zero between calls.
    score: Vec<f64>,
    /// Cells given a score for the current cell, in first-touch order.
    touched: Vec<VertexId>,
}

impl ConnectivityScorer {
    /// A scorer for netlists of at most `num_cells` cells.
    pub fn new(num_cells: usize) -> ConnectivityScorer {
        ConnectivityScorer {
            score: vec![0.0; num_cells],
            touched: Vec::new(),
        }
    }

    /// The best partner of `c` in `nl` among the cells passing `admit`
    /// (`c` itself is never offered), or `None` if no admitted cell
    /// shares a ≥ 2-pin net with `c`.
    ///
    /// # Panics
    ///
    /// Panics if `nl` has more cells than the scorer was created for,
    /// or `c` is out of range.
    pub fn best_partner<F: Fn(VertexId) -> bool>(
        &mut self,
        nl: &Netlist,
        c: VertexId,
        admit: F,
    ) -> Option<VertexId> {
        for &net in nl.nets_of(c) {
            let pins = nl.pins(net);
            if pins.len() < 2 {
                continue;
            }
            let contribution = nl.net_weight(net) as f64 / (pins.len() - 1) as f64;
            for &p in pins {
                if p != c && admit(p) {
                    // Contributions are positive, so a zero score marks
                    // a cell not yet touched for `c`.
                    let s = &mut self.score[p as usize];
                    if *s == 0.0 {
                        self.touched.push(p);
                    }
                    *s += contribution;
                }
            }
        }
        let mut best: Option<(VertexId, f64)> = None;
        for &p in &self.touched {
            let s = std::mem::take(&mut self.score[p as usize]);
            if best.is_none_or(|(b, bs)| s > bs || (s == bs && p < b)) {
                best = Some((p, s));
            }
        }
        self.touched.clear();
        best.map(|(p, _)| p)
    }
}

/// Incremental construction of a [`Netlist`].
///
/// Nets are stored flat, already in the netlist's net-major arrays:
/// each added net is sorted and deduped in place at the tail of one
/// shared pin array, so building holds no per-net allocation and
/// [`build`](NetlistBuilder::build) only derives the cell-major side.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    /// Pin offsets per net (`xpins[n]..xpins[n + 1]`), starting at 0.
    xpins: Vec<usize>,
    /// Every net's sorted, deduped pins, concatenated.
    pins: Vec<VertexId>,
    net_weights: Vec<EdgeWeight>,
    cell_weights: Vec<VertexWeight>,
}

impl NetlistBuilder {
    /// A builder for a netlist on `num_cells` cells with no nets.
    pub fn new(num_cells: usize) -> NetlistBuilder {
        NetlistBuilder {
            xpins: vec![0],
            pins: Vec::new(),
            net_weights: Vec::new(),
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

    /// Adds a net with the given weight. The whole net is validated
    /// before anything is stored, so a rejected net leaves the builder
    /// unchanged.
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
            self.check_cell(p)?;
        }
        let start = self.pins.len();
        self.pins.extend_from_slice(pins);
        sort_dedup_tail(&mut self.pins, start);
        self.xpins.push(self.pins.len());
        let id = self.net_weights.len() as NetId;
        self.net_weights.push(weight);
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
        self.check_cell(c)?;
        self.cell_weights[c as usize] = weight;
        Ok(self)
    }

    fn check_cell(&self, c: VertexId) -> Result<(), GraphError> {
        if (c as usize) < self.cell_weights.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: c as u64,
                num_vertices: self.cell_weights.len(),
            })
        }
    }

    /// Finalizes the netlist: the stored nets already are its net-major
    /// arrays, so only the cell-major side is derived.
    pub fn build(self) -> Netlist {
        Netlist::from_net_major(self.xpins, self.pins, self.net_weights, self.cell_weights)
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
    fn rejected_nets_leave_the_builder_unchanged_and_builds_hold_no_spare_capacity() {
        let add_good = |b: &mut NetlistBuilder| {
            b.add_weighted_net(&[4, 1, 4, 0], 2).unwrap();
            b.add_net(&[2]).unwrap();
            b.add_net(&[]).unwrap();
        };
        let mut clean = NetlistBuilder::new(5);
        add_good(&mut clean);
        let mut rejected = NetlistBuilder::new(5);
        add_good(&mut rejected);
        // The out-of-range pin comes last, after pins that would have
        // been stored; the zero-weight net is otherwise valid.
        assert!(matches!(
            rejected.add_weighted_net(&[3, 2, 1, 9], 1),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
        assert_eq!(
            rejected.add_weighted_net(&[0, 3], 0),
            Err(GraphError::ZeroWeight)
        );
        assert_eq!(rejected.add_net(&[3, 0]), Ok(3));
        clean.add_net(&[3, 0]).unwrap();
        assert_eq!(rejected.build(), clean.build());

        let mut b = NetlistBuilder::new(50);
        for c in 0..50 {
            b.add_net(&[c, (c + 1) % 50, (c + 7) % 50, c]).unwrap();
        }
        let built = b.build();
        // Each netlist is inspected in place: a clone would trim it.
        let contraction = contract_cells(&built, &[(0, 1), (2, 9)]);
        let permuted = permute_cells(&built, &bfs_cell_order(&built));
        for nl in [&built, contraction.coarse(), &permuted] {
            assert_eq!(nl.pins.capacity(), nl.pins.len());
            assert_eq!(nl.nets.capacity(), nl.nets.len());
            assert_eq!(nl.net_weights.capacity(), nl.net_weights.len());
        }
    }

    #[test]
    fn built_netlists_use_compact_offsets() {
        assert!(sample().uses_compact_offsets());
        assert!(wide_netlist().uses_compact_offsets());
    }

    /// The `BTreeMap` contraction the counting-sort body replaced, kept
    /// as the oracle: nets merged by identical pin set in a map keyed
    /// by the sorted pins, emitted in the map's (lexicographic) order
    /// through the incremental builder.
    fn reference_contract_cells(
        nl: &Netlist,
        pairs: &[(VertexId, VertexId)],
    ) -> NetlistContraction {
        let n = nl.num_cells();
        let mut fine_to_coarse = vec![VertexId::MAX; n];
        let mut mate = vec![VertexId::MAX; n];
        for &(a, b) in pairs {
            assert!(mate[a as usize] == VertexId::MAX && mate[b as usize] == VertexId::MAX);
            mate[a as usize] = b;
            mate[b as usize] = a;
        }
        let mut next: VertexId = 0;
        for c in 0..n {
            if fine_to_coarse[c] != VertexId::MAX {
                continue;
            }
            fine_to_coarse[c] = next;
            if mate[c] != VertexId::MAX {
                fine_to_coarse[mate[c] as usize] = next;
            }
            next += 1;
        }
        let mut builder = NetlistBuilder::new(next as usize);
        let mut weights = vec![0u64; next as usize];
        for c in nl.cells() {
            weights[fine_to_coarse[c as usize] as usize] += nl.cell_weight(c);
        }
        for (c, &w) in weights.iter().enumerate() {
            builder.set_cell_weight(c as VertexId, w).unwrap();
        }
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
            if pins.len() >= 2 {
                *merged.entry(pins).or_insert(0) += nl.net_weight(net);
            }
        }
        for (pins, w) in merged {
            builder.add_weighted_net(&pins, w).unwrap();
        }
        NetlistContraction {
            coarse: builder.build(),
            fine_to_coarse,
        }
    }

    /// The `BTreeMap` scorer the dense [`ConnectivityScorer`] replaced,
    /// kept as the oracle for [`random_cell_matching_with_skip`].
    fn reference_cell_matching(
        nl: &Netlist,
        skip: &[bool],
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<(VertexId, VertexId)> {
        use rand::seq::SliceRandom;
        let skipped = |c: VertexId| skip.get(c as usize).copied().unwrap_or(false);
        let mut order: Vec<VertexId> = nl.cells().collect();
        order.shuffle(rng);
        let mut matched = vec![false; nl.num_cells()];
        let mut pairs = Vec::new();
        let mut score: std::collections::BTreeMap<VertexId, f64> =
            std::collections::BTreeMap::new();
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
            let best = score
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(a.0)));
            if let Some((&partner, _)) = best {
                matched[c as usize] = true;
                matched[partner as usize] = true;
                pairs.push((c, partner));
            }
        }
        pairs
    }

    /// A random netlist with weighted nets of 2..=`max_pins` pins (plus
    /// a few degenerate ones) and weighted cells.
    fn random_weighted_netlist(cells: usize, nets: usize, max_pins: usize, seed: u64) -> Netlist {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for c in 0..cells as VertexId {
            b.set_cell_weight(c, rng.gen_range(1..4u64)).unwrap();
        }
        for _ in 0..nets {
            let size = rng.gen_range(1..=max_pins);
            let pins: Vec<VertexId> = (0..size)
                .map(|_| rng.gen_range(0..cells as VertexId))
                .collect();
            b.add_weighted_net(&pins, rng.gen_range(1..4u64)).unwrap();
        }
        b.build()
    }

    /// Runs a matching ladder through the dense scorer and the
    /// counting-sort contraction (one scratch for the whole ladder) and
    /// asserts pairs, coarse netlists and maps equal the `BTreeMap`
    /// oracles' at every level. Returns the number of levels.
    fn assert_ladder_matches_oracles(nl: &Netlist, skip_every: usize, seed: u64) -> usize {
        use rand::SeedableRng;
        let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_ref = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = NetlistContractionScratch::new();
        let mut cur = nl.clone();
        let mut levels = 0;
        loop {
            let skip: Vec<bool> = (0..cur.num_cells())
                .map(|c| skip_every > 0 && c % skip_every == 0)
                .collect();
            let pairs = random_cell_matching_with_skip(&cur, &skip, &mut rng_fast);
            assert_eq!(
                pairs,
                reference_cell_matching(&cur, &skip, &mut rng_ref),
                "seed {seed} level {levels}"
            );
            if pairs.is_empty() {
                return levels;
            }
            let fast = contract_cells_into(&cur, &pairs, &mut scratch);
            let oracle = reference_contract_cells(&cur, &pairs);
            assert_eq!(fast.coarse(), oracle.coarse(), "seed {seed} level {levels}");
            assert_eq!(fast.fine_to_coarse(), oracle.fine_to_coarse());
            cur = fast.coarse().clone();
            levels += 1;
        }
    }

    #[test]
    fn dense_scorer_and_counting_sort_match_btreemap_oracles() {
        for seed in 0..12u64 {
            let nl = random_weighted_netlist(80, 120, 6, seed);
            for skip_every in [0, 7] {
                assert!(assert_ladder_matches_oracles(&nl, skip_every, seed) > 0);
            }
        }
    }

    #[test]
    fn oracles_agree_on_high_degree_tied_ladders() {
        // Unit-weight 2-pin ladders: every score ties at first, and the
        // coarse levels gain high degree and many parallel nets to merge.
        let n: VertexId = 200;
        let mut b = NetlistBuilder::new(n as usize);
        for c in 0..n / 2 {
            b.add_net(&[c, c + n / 2]).unwrap();
            if c + 1 < n / 2 {
                b.add_net(&[c, c + 1]).unwrap();
                b.add_net(&[c + n / 2, c + 1 + n / 2]).unwrap();
            }
        }
        let ladder = b.build();
        for seed in 0..4u64 {
            assert!(assert_ladder_matches_oracles(&ladder, 0, seed) >= 5);
            assert!(assert_ladder_matches_oracles(&ladder, 11, seed) >= 3);
            assert!(assert_ladder_matches_oracles(&wide_netlist(), 5, seed) > 0);
        }
    }

    #[test]
    fn scratch_contraction_matches_allocating_path() {
        use rand::SeedableRng;
        let mut scratch = NetlistContractionScratch::new();
        for (nl, seeds) in [(sample(), 0..6u64), (wide_netlist(), 0..6u64)] {
            for seed in seeds {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let pairs = random_cell_matching(&nl, &mut rng);
                let a = reference_contract_cells(&nl, &pairs);
                let b = contract_cells_into(&nl, &pairs, &mut scratch);
                assert_eq!(a.coarse(), b.coarse(), "seed {seed}");
                assert_eq!(a.fine_to_coarse(), b.fine_to_coarse(), "seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_contraction_survives_a_ladder() {
        // One scratch reused across every level of a coarsening ladder
        // must keep matching the one-shot path.
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
