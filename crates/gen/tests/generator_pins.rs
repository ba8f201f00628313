//! Golden pins of the configuration-model generators at fixed seeds.
//!
//! `gbreg::sample` graphs are fingerprinted over their CSR (the row
//! offsets, then every adjacency row); `regular` edge lists over the
//! pairs in output order, which pins the list itself and therefore its
//! CSR too. The values were captured before the pairing repair moved off
//! its ordered-map multiset, so any change to the generated inputs of
//! the `Gbreg` experiments fails here first.

use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::regular;
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::{Graph, VertexId};
use rand::SeedableRng;

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
