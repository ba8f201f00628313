//! Recursive k-way netlist partitioning with terminal propagation —
//! the placement-flavored counterpart of [`crate::pipeline::kway`].
//!
//! The unit square is split recursively into `parts` rectangular
//! regions (always along the longer dimension), and the netlist is
//! bisected recursively in lockstep: the cells assigned to a region
//! are bisected again between its two halves. Each sub-bisection runs
//! with *terminal propagation* (Dunlop & Kernighan, 1985): two fixed
//! anchor cells — one per half — join the subproblem as its last two
//! cells, the fixed-cell form [`NetlistPipeline::bisect_fixed_counted`]
//! takes, and every net
//! with pins outside the subproblem gains the anchor nearer those
//! external pins' mean position. Cuts that would separate a cell from
//! its external net-mates are thereby penalized in the FM gains, which
//! is what makes recursive bisection placement-aware instead of
//! cut-greedy.
//!
//! The result is a [`NetlistPlacement`]: a part label per cell plus
//! the part regions, scoring both the k-way **net cut** and the
//! half-perimeter wirelength (**HPWL**) of every net over its pins'
//! region centers.

use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
use bisect_graph::VertexId;
use rand::RngCore;
use std::collections::VecDeque;

use crate::error::BisectError;
use crate::partition::Side;
use crate::workspace::Workspace;

use super::NetlistPipeline;

/// An axis-aligned rectangle in the abstract placement plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// The unit square `[0, 1] × [0, 1]`.
    pub fn unit() -> Rect {
        Rect {
            x0: 0.0,
            y0: 0.0,
            x1: 1.0,
            y1: 1.0,
        }
    }

    /// The center point.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Splits the rectangle in half along its longer dimension
    /// (vertically on ties), returning the lower-coordinate half first.
    pub fn split(&self) -> (Rect, Rect) {
        if self.x1 - self.x0 >= self.y1 - self.y0 {
            let mid = (self.x0 + self.x1) / 2.0;
            (Rect { x1: mid, ..*self }, Rect { x0: mid, ..*self })
        } else {
            let mid = (self.y0 + self.y1) / 2.0;
            (Rect { y1: mid, ..*self }, Rect { y0: mid, ..*self })
        }
    }
}

/// The regions the unit square is split into for a `parts`-way
/// placement, indexed by part label. Deterministic: region `base` of a
/// split takes the lower-coordinate half, region `base + count/2` the
/// upper — the same numbering [`recursive_placement`] assigns.
///
/// # Panics
///
/// Panics unless `parts` is a positive power of two.
pub fn part_regions(parts: usize) -> Vec<Rect> {
    assert!(
        parts > 0 && parts.is_power_of_two(),
        "part count must be a positive power of two, got {parts}"
    );
    let mut regions = vec![Rect::unit(); parts];
    // Iterative halving: after each round every region of the previous
    // round is split once, lower half keeping the label.
    let mut count = parts;
    while count > 1 {
        let stride = count / 2;
        let mut base = 0;
        while base < parts {
            let (lo, hi) = regions[base].split();
            regions[base] = lo;
            regions[base + stride] = hi;
            base += count;
        }
        count = stride;
    }
    regions
}

/// A k-way placement of a netlist: a part label per cell plus the part
/// regions in the unit square.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistPlacement {
    labels: Vec<u32>,
    num_parts: usize,
    regions: Vec<Rect>,
}

impl NetlistPlacement {
    /// Builds a placement from explicit labels — used to score
    /// partitions produced by other means (e.g. the clique-expansion
    /// pipeline) with the same net-cut and HPWL yardsticks.
    ///
    /// # Errors
    ///
    /// [`BisectError::InvalidPartCount`] unless `parts` is a positive
    /// power of two; [`BisectError::InvalidConfig`] if the label vector
    /// length differs from the cell count or a label is out of range.
    pub fn from_labels(
        nl: &Netlist,
        labels: Vec<u32>,
        parts: usize,
    ) -> Result<NetlistPlacement, BisectError> {
        if parts == 0 || !parts.is_power_of_two() {
            return Err(BisectError::InvalidPartCount { parts });
        }
        if labels.len() != nl.num_cells() {
            return Err(BisectError::InvalidConfig(format!(
                "expected {} labels, got {}",
                nl.num_cells(),
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l as usize >= parts) {
            return Err(BisectError::InvalidConfig(format!(
                "label {bad} out of range for {parts} parts"
            )));
        }
        Ok(NetlistPlacement {
            labels,
            num_parts: parts,
            regions: part_regions(parts),
        })
    }

    /// The part of cell `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn part(&self, c: VertexId) -> u32 {
        self.labels[c as usize]
    }

    /// The per-cell part labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// The region of each part, indexed by label.
    pub fn regions(&self) -> &[Rect] {
        &self.regions
    }

    /// Cells per part, indexed by label.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// The weighted k-way net cut: total weight of nets with pins in
    /// more than one part.
    pub fn net_cut(&self, nl: &Netlist) -> u64 {
        let mut cut = 0u64;
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            let Some((&first, rest)) = pins.split_first() else {
                continue;
            };
            let label = self.labels[first as usize];
            if rest.iter().any(|&p| self.labels[p as usize] != label) {
                cut += nl.net_weight(n);
            }
        }
        cut
    }

    /// The weighted half-perimeter wirelength: for every net, the
    /// width plus height of the bounding box of its pins' region
    /// centers, weighted by the net weight. The standard placement
    /// quality proxy — unlike net cut it also charges *how far apart*
    /// a cut net's parts ended up.
    pub fn hpwl(&self, nl: &Netlist) -> f64 {
        let mut total = 0.0f64;
        for n in nl.net_ids() {
            let pins = nl.pins(n);
            if pins.len() < 2 {
                continue;
            }
            let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
            let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &p in pins {
                let (x, y) = self.regions[self.labels[p as usize] as usize].center();
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
            total += nl.net_weight(n) as f64 * ((max_x - min_x) + (max_y - min_y));
        }
        total
    }
}

/// Recursively bisects `nl` into `parts` regions with terminal
/// propagation; see the `netlist::kway` module docs for the scheme.
///
/// # Errors
///
/// [`BisectError::InvalidPartCount`] unless `parts` is a positive
/// power of two.
pub fn recursive_placement(
    pipeline: &NetlistPipeline,
    nl: &Netlist,
    parts: usize,
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> Result<NetlistPlacement, BisectError> {
    recursive_placement_counted(pipeline, nl, parts, rng, ws).map(|(p, _)| p)
}

/// As [`recursive_placement`], also returning the summed
/// productive-pass count of every sub-bisection.
///
/// # Errors
///
/// [`BisectError::InvalidPartCount`] unless `parts` is a positive
/// power of two.
// lint: allow(no-panic) — indexing stays in range: i < m, local pins are
// < m + 2, and netlist cell weights are ≥ 1.
pub fn recursive_placement_counted(
    pipeline: &NetlistPipeline,
    nl: &Netlist,
    parts: usize,
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> Result<(NetlistPlacement, u64), BisectError> {
    if parts == 0 || !parts.is_power_of_two() {
        return Err(BisectError::InvalidPartCount { parts });
    }
    let n = nl.num_cells();
    let levels = parts.trailing_zeros();
    let mut labels = vec![0u32; n];
    let mut work = 0u64;
    // Current region center of every cell, refined as the recursion
    // deepens — the positions terminal propagation reads for pins
    // outside the active subproblem.
    let mut centers: Vec<(f64, f64)> = vec![Rect::unit().center(); n];
    // Scratch reused across subproblems: fine→local cell ids and a
    // seen-stamp per net, reset via the touched lists.
    let mut local = vec![u32::MAX; n];
    let mut net_seen = vec![false; nl.num_nets()];
    let mut seen_nets: Vec<u32> = Vec::new();
    let mut pins_local: Vec<u32> = Vec::new();

    // Breadth-first over (cells, region, first label, levels left):
    // whole levels settle before the next descends, so external pins
    // sit at the finest centers available when a subproblem reads them.
    let mut queue: VecDeque<(Vec<VertexId>, Rect, u32, u32)> = VecDeque::new();
    queue.push_back((nl.cells().collect(), Rect::unit(), 0, levels));
    while let Some((cells, rect, base, levels_left)) = queue.pop_front() {
        if levels_left == 0 {
            for &c in &cells {
                labels[c as usize] = base;
            }
            continue;
        }
        let (r0, r1) = rect.split();
        let m = cells.len();
        // Sub-netlist: the subproblem's cells (locally renumbered) plus
        // two weight-1 anchor cells, the last two, `m` fixed to side A /
        // region `r0` and `m + 1` to side B / region `r1`.
        for (i, &c) in cells.iter().enumerate() {
            local[c as usize] = i as u32;
        }
        let mut builder = NetlistBuilder::new(m + 2);
        for (i, &c) in cells.iter().enumerate() {
            builder
                .set_cell_weight(i as u32, nl.cell_weight(c))
                .expect("local id in range, weight positive");
        }
        let (c0x, c0y) = r0.center();
        let (c1x, c1y) = r1.center();
        for &c in &cells {
            for &net in nl.nets_of(c) {
                if net_seen[net as usize] {
                    continue;
                }
                net_seen[net as usize] = true;
                seen_nets.push(net);
                pins_local.clear();
                let mut ext = 0usize;
                let (mut sx, mut sy) = (0.0f64, 0.0f64);
                for &q in nl.pins(net) {
                    let l = local[q as usize];
                    if l != u32::MAX {
                        pins_local.push(l);
                    } else {
                        ext += 1;
                        let (x, y) = centers[q as usize];
                        sx += x;
                        sy += y;
                    }
                }
                // Terminal propagation: a net with external pins gains
                // the anchor of the child region nearer their mean
                // position (no anchor on ties).
                if ext > 0 {
                    let (ex, ey) = (sx / ext as f64, sy / ext as f64);
                    let d0 = (ex - c0x) * (ex - c0x) + (ey - c0y) * (ey - c0y);
                    let d1 = (ex - c1x) * (ex - c1x) + (ey - c1y) * (ey - c1y);
                    if d0 < d1 {
                        pins_local.push(m as u32);
                    } else if d1 < d0 {
                        pins_local.push(m as u32 + 1);
                    }
                }
                if pins_local.len() >= 2 {
                    builder
                        .add_weighted_net(&pins_local, nl.net_weight(net))
                        .expect("local pins in range, weight positive");
                }
            }
        }
        for &c in &cells {
            local[c as usize] = u32::MAX;
        }
        for &net in &seen_nets {
            net_seen[net as usize] = false;
        }
        seen_nets.clear();
        let sub = builder.build();
        let anchors = [Side::A, Side::B];
        let (bisection, stage) = pipeline.bisect_fixed_counted(&sub, &anchors, rng, ws);
        work += stage;

        let mut left: Vec<VertexId> = Vec::with_capacity(m.div_ceil(2));
        let mut right: Vec<VertexId> = Vec::with_capacity(m.div_ceil(2));
        for (i, &c) in cells.iter().enumerate() {
            if bisection.side(i as u32) == Side::A {
                centers[c as usize] = r0.center();
                left.push(c);
            } else {
                centers[c as usize] = r1.center();
                right.push(c);
            }
        }
        let half = (1u32 << levels_left) / 2;
        queue.push_back((left, r0, base, levels_left - 1));
        queue.push_back((right, r1, base + half, levels_left - 1));
    }
    let placement = NetlistPlacement {
        labels,
        num_parts: parts,
        regions: part_regions(parts),
    };
    Ok((placement, work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        b.build()
    }

    #[test]
    fn part_regions_tile_the_unit_square() {
        for parts in [1usize, 2, 4, 8, 16] {
            let regions = part_regions(parts);
            assert_eq!(regions.len(), parts);
            let area: f64 = regions.iter().map(|r| (r.x1 - r.x0) * (r.y1 - r.y0)).sum();
            assert!((area - 1.0).abs() < 1e-12, "{parts} parts: area {area}");
            // Pairwise-distinct centers ⇒ regions do not coincide.
            for (i, a) in regions.iter().enumerate() {
                for b in &regions[i + 1..] {
                    assert_ne!(a.center(), b.center(), "{parts} parts");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn part_regions_reject_non_power() {
        let _ = part_regions(3);
    }

    #[test]
    fn placement_covers_all_cells_and_parts() {
        let nl = random_netlist(64, 90, 5);
        let pipeline = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ws = Workspace::new();
        let p = recursive_placement(&pipeline, &nl, 8, &mut rng, &mut ws).unwrap();
        assert_eq!(p.labels().len(), 64);
        assert_eq!(p.num_parts(), 8);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");
        // Unit weights and balanced bisections: parts stay near even.
        assert!(sizes.iter().all(|&s| s <= 64 / 8 + 3), "skewed {sizes:?}");
        assert!(p.hpwl(&nl) > 0.0);
        assert!(p.net_cut(&nl) > 0);
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = random_netlist(48, 60, 7);
        let pipeline = NetlistPipeline::multilevel_fm_to(6).unwrap();
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            recursive_placement(&pipeline, &nl, 4, &mut rng, &mut Workspace::new()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn one_part_is_trivial() {
        let nl = random_netlist(10, 8, 1);
        let pipeline = NetlistPipeline::flat_fm();
        let mut rng = StdRng::seed_from_u64(1);
        let p = recursive_placement(&pipeline, &nl, 1, &mut rng, &mut Workspace::new()).unwrap();
        assert!(p.labels().iter().all(|&l| l == 0));
        assert_eq!(p.net_cut(&nl), 0);
        assert_eq!(p.hpwl(&nl), 0.0);
    }

    #[test]
    fn invalid_part_counts_rejected() {
        let nl = random_netlist(8, 6, 1);
        let pipeline = NetlistPipeline::flat_fm();
        for parts in [0usize, 3, 6] {
            let mut rng = StdRng::seed_from_u64(1);
            let r = recursive_placement(&pipeline, &nl, parts, &mut rng, &mut Workspace::new());
            assert!(matches!(r, Err(BisectError::InvalidPartCount { .. })));
        }
    }

    #[test]
    fn net_cut_matches_manual_recount() {
        let nl = random_netlist(32, 40, 3);
        let pipeline = NetlistPipeline::compacted_fm();
        let mut rng = StdRng::seed_from_u64(4);
        let p = recursive_placement(&pipeline, &nl, 4, &mut rng, &mut Workspace::new()).unwrap();
        let mut expected = 0u64;
        for n in nl.net_ids() {
            let labels: Vec<u32> = nl.pins(n).iter().map(|&q| p.part(q)).collect();
            if labels.windows(2).any(|w| w[0] != w[1]) {
                expected += nl.net_weight(n);
            }
        }
        assert_eq!(p.net_cut(&nl), expected);
    }

    #[test]
    fn from_labels_round_trips() {
        let nl = random_netlist(24, 30, 9);
        let pipeline = NetlistPipeline::multilevel_fm_to(4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let p = recursive_placement(&pipeline, &nl, 4, &mut rng, &mut Workspace::new()).unwrap();
        let q = NetlistPlacement::from_labels(&nl, p.labels().to_vec(), 4).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.net_cut(&nl), q.net_cut(&nl));
        assert_eq!(p.hpwl(&nl), q.hpwl(&nl));
    }

    #[test]
    fn from_labels_validates() {
        let nl = random_netlist(6, 5, 2);
        assert!(matches!(
            NetlistPlacement::from_labels(&nl, vec![0; 6], 3),
            Err(BisectError::InvalidPartCount { .. })
        ));
        assert!(matches!(
            NetlistPlacement::from_labels(&nl, vec![0; 5], 4),
            Err(BisectError::InvalidConfig(_))
        ));
        assert!(matches!(
            NetlistPlacement::from_labels(&nl, vec![7; 6], 4),
            Err(BisectError::InvalidConfig(_))
        ));
    }

    #[test]
    fn terminal_propagation_prefers_external_neighbors() {
        // Two dense 8-cell clusters bridged by many 2-pin nets: with 4
        // parts the recursion should keep each cluster contiguous and
        // place bridged cells in adjacent regions most of the time —
        // weak signal, so just require validity plus a sane HPWL.
        let mut b = NetlistBuilder::new(16);
        let mut rng = StdRng::seed_from_u64(12);
        for base in [0u32, 8] {
            for _ in 0..14 {
                let mut pins: Vec<u32> = (base..base + 8).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..3]).unwrap();
            }
        }
        for i in 0..4u32 {
            b.add_net(&[i, i + 8]).unwrap();
        }
        let nl = b.build();
        let pipeline = NetlistPipeline::multilevel_fm_to(4).unwrap();
        let mut r = StdRng::seed_from_u64(3);
        let p = recursive_placement(&pipeline, &nl, 4, &mut r, &mut Workspace::new()).unwrap();
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 16);
        assert!(p.hpwl(&nl).is_finite());
    }
}
