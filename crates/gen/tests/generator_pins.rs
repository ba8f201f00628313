//! Golden pins of the generators at fixed seeds.
//!
//! `gbreg::sample` graphs are fingerprinted over their CSR (the row
//! offsets, then every adjacency row); `regular` edge lists over the
//! pairs in output order, which pins the list itself and therefore its
//! CSR too. The values were captured before the pairing repair moved off
//! its ordered-map multiset, so any change to the generated inputs of
//! the `Gbreg` experiments fails here first.
//!
//! Netlists (`netlist::sample_streamed` and one hand-fed
//! `NetlistBuilder`) are fingerprinted over both CSR directions read
//! through the public accessors: every net's pins, every cell's nets,
//! then the cell and net weights. Those values were captured before the
//! builder moved to flat net-major arrays.

use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::netlist::{self, RentNetlistParams};
use bisect_gen::regular;
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{Netlist, NetlistBuilder};
use bisect_graph::{Graph, VertexId};
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over `xadj` (running row offsets) followed by `adjncy`.
fn csr_fingerprint(g: &Graph) -> u64 {
    let mut h = FNV_OFFSET;
    let mut offset = 0u64;
    h = fnv(h, offset);
    for v in g.vertices() {
        offset += g.degree(v) as u64;
        h = fnv(h, offset);
    }
    for v in g.vertices() {
        for &x in g.neighbors(v) {
            h = fnv(h, u64::from(x));
        }
    }
    h
}

/// FNV-1a over the pairs of an edge list, in order.
fn pairs_fingerprint(pairs: &[(VertexId, VertexId)]) -> u64 {
    pairs.iter().fold(FNV_OFFSET, |h, &(u, v)| {
        fnv(fnv(h, u64::from(u)), u64::from(v))
    })
}

/// FNV-1a over every net's size and pins, every cell's degree and
/// nets, then all cell weights and all net weights.
fn netlist_fingerprint(nl: &Netlist) -> u64 {
    assert!(nl.uses_compact_offsets());
    let mut h = FNV_OFFSET;
    for n in nl.net_ids() {
        h = fnv(h, nl.pins(n).len() as u64);
        for &p in nl.pins(n) {
            h = fnv(h, u64::from(p));
        }
    }
    for c in nl.cells() {
        h = fnv(h, nl.nets_of(c).len() as u64);
        for &n in nl.nets_of(c) {
            h = fnv(h, u64::from(n));
        }
    }
    for c in nl.cells() {
        h = fnv(h, nl.cell_weight(c));
    }
    for n in nl.net_ids() {
        h = fnv(h, nl.net_weight(n));
    }
    h
}

fn rent_fingerprint(
    cells: usize,
    nets: usize,
    max_net_size: usize,
    gamma: f64,
    locality: f64,
    seed: u64,
) -> u64 {
    let params = RentNetlistParams::new(cells, nets, max_net_size, gamma, locality)
        .expect("valid Rent parameters");
    let nl = netlist::sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params);
    assert_eq!((nl.num_cells(), nl.num_nets()), (cells, nets));
    netlist_fingerprint(&nl)
}

fn gbreg_fingerprint(num_vertices: usize, b: usize, d: usize, seed: u64) -> u64 {
    let params = GbregParams::new(num_vertices, b, d).expect("valid Gbreg parameters");
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let g = gbreg::sample(&mut rng, &params).expect("Gbreg construction succeeds");
    assert_eq!(g.regular_degree(), Some(d));
    assert_eq!(gbreg::planted_cut(&g), b as u64);
    csr_fingerprint(&g)
}

#[test]
fn gbreg_5000_16_3() {
    assert_eq!(gbreg_fingerprint(5000, 16, 3, 1989), 0xc8d1ba2b40d52543);
}

#[test]
fn gbreg_5000_16_4() {
    assert_eq!(gbreg_fingerprint(5000, 16, 4, 1989), 0x64597d6e5137c0d1);
}

#[test]
fn gbreg_20000_64_4() {
    assert_eq!(gbreg_fingerprint(20000, 64, 4, 7), 0x523f6899926a0359);
}

#[test]
fn regular_1000_3() {
    let mut rng = LaggedFibonacci::seed_from_u64(1989);
    let pairs = regular::sample_regular(&mut rng, 1000, 3).expect("3-regular on 1000 vertices");
    assert_eq!(pairs.len(), 1500);
    assert_eq!(pairs_fingerprint(&pairs), 0xb68d2978efc71aaf);
}

#[test]
fn bipartite_300_by_200() {
    // Left degrees 1..=4 cycling (sum 750), right degrees 3 and 4
    // alternating (sum 700) plus 50 extra stubs on the first 50 right
    // vertices, so both sides carry 750 stubs and duplicates occur.
    let left: Vec<usize> = (0..300).map(|i| 1 + i % 4).collect();
    let right: Vec<usize> = (0..200).map(|i| 3 + i % 2 + usize::from(i < 50)).collect();
    assert_eq!(left.iter().sum::<usize>(), right.iter().sum::<usize>());
    let mut rng = LaggedFibonacci::seed_from_u64(1989);
    let pairs = regular::sample_bipartite(&mut rng, &left, &right).expect("bipartite realization");
    assert_eq!(pairs.len(), 750);
    assert_eq!(pairs_fingerprint(&pairs), 0xdeeb7b18ab4a59a4);
}

#[test]
fn rent_12500_local() {
    // The `netlist-local` benchmark shape.
    assert_eq!(
        rent_fingerprint(12_500, 17_500, 8, 1.8, 0.02, 1989),
        0x50cc07ea9ed82375
    );
}

#[test]
fn rent_12500_global() {
    // The `netlist-global` benchmark shape.
    assert_eq!(
        rent_fingerprint(12_500, 17_500, 8, 1.8, 1.0, 1989),
        0x24cfdd3ee28a0201
    );
}

#[test]
fn rent_200_uniform_sizes_tight_window() {
    // γ = 0 draws sizes uniformly; a 10-cell window makes 6-pin nets
    // collide often, so the rejection draws and the sweep both run.
    assert_eq!(
        rent_fingerprint(200, 300, 6, 0.0, 0.05, 7),
        0x8e84d227544e15f3
    );
}

#[test]
fn weighted_builder_with_duplicate_and_degenerate_nets() {
    let cells = 60usize;
    let mut rng = LaggedFibonacci::seed_from_u64(23);
    let mut b = NetlistBuilder::new(cells);
    for c in 0..cells as VertexId {
        b.set_cell_weight(c, rng.gen_range(1..5u64))
            .expect("positive in-range cell weight");
    }
    b.add_weighted_net(&[], 2).expect("empty net");
    b.add_weighted_net(&[17], 3).expect("1-pin net");
    b.add_weighted_net(&[9, 9, 9], 1)
        .expect("duplicates collapse to 1 pin");
    for _ in 0..120 {
        // Pins drawn with replacement, so duplicates are common.
        let size = rng.gen_range(0..8usize);
        let pins: Vec<VertexId> = (0..size)
            .map(|_| rng.gen_range(0..cells as VertexId))
            .collect();
        b.add_weighted_net(&pins, rng.gen_range(1..6u64))
            .expect("in-range pins, positive weight");
    }
    let nl = b.build();
    assert_eq!(nl.num_nets(), 123);
    assert_eq!(netlist_fingerprint(&nl), 0xfdf1189aaad9e05);
}
