//! Random graphs with prescribed degree sequences (configuration /
//! pairing model with rewiring repair).
//!
//! This is the substrate for [`gbreg`](crate::gbreg): stubs (half-edges)
//! are paired uniformly at random, and the defects of the pairing —
//! self loops and parallel edges — are removed by random edge *swaps*
//! that preserve the degree sequence. For the sparse (degree ≤ 4)
//! sequences of the paper the repair converges almost immediately; if it
//! stalls, the whole pairing is redrawn, and after
//! [`MAX_ATTEMPTS`] redraws construction fails.
//!
//! # The pair multiset
//!
//! The repair asks, for every pair it touches, how often that pair
//! occurs in the current pairing. It keeps the answer in *slot rows*:
//! vertex `v` owns a fixed row of `degree(v)` slots in one CSR array,
//! and each slot holds one neighbour or [`EMPTY`]. A pair `(u, v)`
//! fills one slot of row `u` and one of row `v` (a self loop `(u, u)`
//! fills two slots of row `u`), so the multiplicity of `(u, v)` is the
//! number of times `v` appears in row `u`. Counting it scans one row,
//! `O(deg)`: at most 4 entries in the paper's models, against an
//! `O(log E)` pointer-chasing walk in an ordered map. Removing a pair
//! writes `EMPTY` over one occurrence in each endpoint's row; adding one
//! fills an `EMPTY` slot in each.
//!
//! Rows cannot overflow: a swap replaces pairs `(u, v), (x, y)` by
//! `(u, x), (v, y)`, so it frees exactly one slot in each of the rows of
//! `u, v, x, y` before it fills one slot in each of the same rows. Every
//! row stays exactly `degree(v)` long and full between swaps. The
//! bipartite repair keeps the left rows only, since a cross pair
//! `(l, r)` is counted by scanning row `l`.

use rand::seq::SliceRandom;
use rand::Rng;

use bisect_graph::VertexId;

use crate::GenError;

/// Number of full pairing redraws before giving up.
pub const MAX_ATTEMPTS: usize = 64;

const MAX_REPAIR_ROUNDS: usize = 200;
const SWAP_TRIES_PER_BAD_PAIR: usize = 32;

/// A free slot in a [`SlotRows`] row. Never a vertex id: every entry
/// point rejects id ranges beyond `u32::MAX` elements, so ids stay below
/// `VertexId::MAX`.
const EMPTY: VertexId = VertexId::MAX;

/// One configuration-model pairing as `(u, v)` pairs.
pub(crate) type Pairs = Vec<(VertexId, VertexId)>;

/// Samples a uniformly-ish random simple graph edge list realizing
/// `degrees` (vertex `v` gets exactly `degrees[v]` incident edges).
///
/// The distribution is the configuration model conditioned on
/// simplicity, up to the small bias introduced by swap-based repair —
/// the standard practical compromise.
///
/// # Errors
///
/// [`GenError::InvalidParameter`] if `degrees` has more than `u32::MAX`
/// entries, the degree sum is odd or any degree is `>= degrees.len()`;
/// [`GenError::ConstructionFailed`] if no simple realization was found
/// after [`MAX_ATTEMPTS`] redraws (for instance because the sequence is
/// not graphical).
pub fn sample_degree_sequence<R: Rng + ?Sized>(
    rng: &mut R,
    degrees: &[usize],
) -> Result<Vec<(VertexId, VertexId)>, GenError> {
    sample_degree_sequence_by(rng, degrees, repair)
}

/// [`sample_degree_sequence`] with the pairing repair passed in, so the
/// tests can run the same draws through the reference repair.
fn sample_degree_sequence_by<R: Rng + ?Sized>(
    rng: &mut R,
    degrees: &[usize],
    repair: impl Fn(&mut R, &[usize], Pairs) -> Option<Pairs>,
) -> Result<Pairs, GenError> {
    let n = degrees.len();
    GenError::check_id_range("number of degrees", n)?;
    let sum: usize = degrees.iter().sum();
    if !sum.is_multiple_of(2) {
        return Err(GenError::InvalidParameter(format!(
            "degree sum must be even, got {sum}"
        )));
    }
    if let Some((v, &d)) = degrees.iter().enumerate().find(|&(_, &d)| d >= n.max(1)) {
        return Err(GenError::InvalidParameter(format!(
            "degree {d} of vertex {v} is too large for a simple graph on {n} vertices"
        )));
    }
    if sum == 0 {
        return Ok(Vec::new());
    }
    let mut stubs: Vec<VertexId> = Vec::with_capacity(sum);
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as VertexId, d));
    }
    for _ in 0..MAX_ATTEMPTS {
        stubs.shuffle(rng);
        let pairs: Pairs = stubs.chunks_exact(2).map(|c| norm(c[0], c[1])).collect();
        if let Some(fixed) = repair(rng, degrees, pairs) {
            return Ok(fixed);
        }
    }
    Err(GenError::ConstructionFailed {
        attempts: MAX_ATTEMPTS,
    })
}

/// Samples a random simple `d`-regular graph on `n` vertices as an edge
/// list.
///
/// # Errors
///
/// [`GenError::InvalidParameter`] if `n > u32::MAX`, `n·d` is odd or
/// `d >= n`; [`GenError::ConstructionFailed`] if construction keeps
/// failing (only plausible for extreme `d` close to `n`).
pub fn sample_regular<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    d: usize,
) -> Result<Vec<(VertexId, VertexId)>, GenError> {
    GenError::check_id_range("n", n)?;
    if n.checked_mul(d).is_none_or(|s| s % 2 != 0) {
        return Err(GenError::InvalidParameter(format!(
            "n·d must be even, got n = {n}, d = {d}"
        )));
    }
    sample_degree_sequence(rng, &vec![d; n])
}

/// Samples a random simple *bipartite* graph between left vertices
/// `0..left.len()` and right vertices `0..right.len()` (ids in each
/// side's own namespace), realizing the two degree sequences. Returns
/// `(l, r)` pairs. Self loops cannot occur; parallel edges are repaired
/// by swaps.
///
/// # Errors
///
/// [`GenError::InvalidParameter`] if either side has more than
/// `u32::MAX` vertices, the two degree sums differ, or a left degree
/// exceeds the right side size (or vice versa);
/// [`GenError::ConstructionFailed`] if repair keeps failing.
pub fn sample_bipartite<R: Rng + ?Sized>(
    rng: &mut R,
    left: &[usize],
    right: &[usize],
) -> Result<Vec<(VertexId, VertexId)>, GenError> {
    sample_bipartite_by(rng, left, right, repair_bipartite)
}

/// [`sample_bipartite`] with the pairing repair passed in (it receives
/// the left degrees), so the tests can run the same draws through the
/// reference repair.
fn sample_bipartite_by<R: Rng + ?Sized>(
    rng: &mut R,
    left: &[usize],
    right: &[usize],
    repair: impl Fn(&mut R, &[usize], Pairs) -> Option<Pairs>,
) -> Result<Pairs, GenError> {
    GenError::check_id_range("number of left vertices", left.len())?;
    GenError::check_id_range("number of right vertices", right.len())?;
    let sum_l: usize = left.iter().sum();
    let sum_r: usize = right.iter().sum();
    if sum_l != sum_r {
        return Err(GenError::InvalidParameter(format!(
            "left degree sum {sum_l} != right degree sum {sum_r}"
        )));
    }
    if left.iter().any(|&d| d > right.len()) || right.iter().any(|&d| d > left.len()) {
        return Err(GenError::InvalidParameter(
            "a degree exceeds the opposite side's size".into(),
        ));
    }
    if sum_l == 0 {
        return Ok(Vec::new());
    }
    let mut left_stubs: Vec<VertexId> = Vec::with_capacity(sum_l);
    for (v, &d) in left.iter().enumerate() {
        left_stubs.extend(std::iter::repeat_n(v as VertexId, d));
    }
    let mut right_stubs: Vec<VertexId> = Vec::with_capacity(sum_r);
    for (v, &d) in right.iter().enumerate() {
        right_stubs.extend(std::iter::repeat_n(v as VertexId, d));
    }
    for _ in 0..MAX_ATTEMPTS {
        left_stubs.shuffle(rng);
        right_stubs.shuffle(rng);
        let pairs: Pairs = left_stubs
            .iter()
            .zip(right_stubs.iter())
            .map(|(&l, &r)| (l, r))
            .collect();
        if let Some(fixed) = repair(rng, left, pairs) {
            return Ok(fixed);
        }
    }
    Err(GenError::ConstructionFailed {
        attempts: MAX_ATTEMPTS,
    })
}

fn norm(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The pairs of a pairing as fixed-size per-vertex slot rows (see the
/// module docs): row `v` is `slots[start[v]..start[v + 1]]`, one slot
/// per stub of `v`.
struct SlotRows {
    start: Vec<usize>,
    slots: Vec<VertexId>,
}

impl SlotRows {
    /// Rows sized by `degrees` and filled with `pairs`, each pair taking
    /// one slot in both endpoints' rows (`both`) or in the first
    /// endpoint's row only. The pairs must realize `degrees`.
    fn new(degrees: &[usize], pairs: &[(VertexId, VertexId)], both: bool) -> SlotRows {
        // `start` begins at the row ends; each placed neighbour moves its
        // row's entry down one, so once every slot is filled the entries
        // are the row starts.
        let mut start = Vec::with_capacity(degrees.len() + 1);
        let mut total = 0;
        for &d in degrees {
            total += d;
            start.push(total);
        }
        start.push(total);
        let mut slots = vec![EMPTY; total];
        let mut put = |v: VertexId, x: VertexId| {
            start[v as usize] -= 1;
            slots[start[v as usize]] = x;
        };
        for &(u, v) in pairs {
            put(u, v);
            if both {
                put(v, u);
            }
        }
        SlotRows { start, slots }
    }

    fn row(&self, v: VertexId) -> &[VertexId] {
        &self.slots[self.start[v as usize]..self.start[v as usize + 1]]
    }

    /// Multiplicity of the pair `(u, v)`: how many times `v` occurs in
    /// row `u`. Not meaningful for a self loop, which fills two slots.
    fn multiplicity(&self, (u, v): (VertexId, VertexId)) -> usize {
        self.row(u).iter().filter(|&&x| x == v).count()
    }

    /// Whether the pair `e` still occurs once one copy each of the pairs
    /// `a` and `b` is taken out: the test a swap of `a` and `b` into `e`
    /// must fail.
    fn occurs_without(
        &self,
        e: (VertexId, VertexId),
        a: (VertexId, VertexId),
        b: (VertexId, VertexId),
    ) -> bool {
        self.multiplicity(e) > usize::from(a == e) + usize::from(b == e)
    }

    /// Overwrites one occurrence of `old` in row `v` with `new`.
    fn replace(&mut self, v: VertexId, old: VertexId, new: VertexId) {
        let row = &mut self.slots[self.start[v as usize]..self.start[v as usize + 1]];
        let slot = row
            .iter_mut()
            .find(|s| **s == old)
            // lint: allow(no-panic) — removals take pairs the rows hold, and a
            // swap frees a slot in every row it fills, so rows never overflow
            .expect("slot rows hold every pair and never overflow");
        *slot = new;
    }

    fn remove(&mut self, (u, v): (VertexId, VertexId)) {
        self.replace(u, v, EMPTY);
        self.replace(v, u, EMPTY);
    }

    fn insert(&mut self, (u, v): (VertexId, VertexId)) {
        self.replace(u, EMPTY, v);
        self.replace(v, EMPTY, u);
    }
}

/// Swap-based repair for general (one-sided) pairings: eliminates self
/// loops and duplicates while preserving the degree sequence. Returns
/// `None` if it stalls. The pairs realize `degrees`.
fn repair<R: Rng + ?Sized>(rng: &mut R, degrees: &[usize], mut pairs: Pairs) -> Option<Pairs> {
    let mut rows = SlotRows::new(degrees, &pairs, true);
    // A self loop is bad without consulting the rows (where it would
    // count twice).
    let is_bad =
        |rows: &SlotRows, (u, v): (VertexId, VertexId)| u == v || rows.multiplicity((u, v)) > 1;
    for _round in 0..MAX_REPAIR_ROUNDS {
        let bad: Vec<usize> = (0..pairs.len())
            .filter(|&i| is_bad(&rows, pairs[i]))
            .collect();
        if bad.is_empty() {
            return Some(pairs);
        }
        let mut progress = false;
        for &i in &bad {
            if !is_bad(&rows, pairs[i]) {
                continue; // fixed by an earlier swap this round
            }
            for _ in 0..SWAP_TRIES_PER_BAD_PAIR {
                let j = rng.gen_range(0..pairs.len());
                if j == i {
                    continue;
                }
                let (u, v) = pairs[i];
                let (mut x, mut y) = pairs[j];
                if rng.gen::<bool>() {
                    std::mem::swap(&mut x, &mut y);
                }
                // Rewire (u,v),(x,y) -> (u,x),(v,y).
                if u == x || v == y {
                    continue;
                }
                let e1 = norm(u, x);
                let e2 = norm(v, y);
                if e1 == e2 {
                    continue;
                }
                if rows.occurs_without(e1, pairs[i], pairs[j])
                    || rows.occurs_without(e2, pairs[i], pairs[j])
                {
                    continue;
                }
                rows.remove(pairs[i]);
                rows.remove(pairs[j]);
                rows.insert(e1);
                rows.insert(e2);
                pairs[i] = e1;
                pairs[j] = e2;
                progress = true;
                break;
            }
        }
        if !progress {
            return None;
        }
    }
    None
}

/// Swap-based repair for bipartite pairings `(l, r)`: eliminates
/// duplicate pairs while preserving both degree sequences. The pairs
/// realize the `left` degrees; the rows hold their right endpoints.
fn repair_bipartite<R: Rng + ?Sized>(
    rng: &mut R,
    left: &[usize],
    mut pairs: Pairs,
) -> Option<Pairs> {
    let mut rows = SlotRows::new(left, &pairs, false);
    let dup = |rows: &SlotRows, pair| rows.multiplicity(pair) > 1;
    for _round in 0..MAX_REPAIR_ROUNDS {
        let bad: Vec<usize> = (0..pairs.len()).filter(|&i| dup(&rows, pairs[i])).collect();
        if bad.is_empty() {
            return Some(pairs);
        }
        let mut progress = false;
        for &i in &bad {
            if !dup(&rows, pairs[i]) {
                continue;
            }
            for _ in 0..SWAP_TRIES_PER_BAD_PAIR {
                let j = rng.gen_range(0..pairs.len());
                if j == i {
                    continue;
                }
                let (l1, r1) = pairs[i];
                let (l2, r2) = pairs[j];
                // Swap right endpoints: (l1,r2), (l2,r1).
                let e1 = (l1, r2);
                let e2 = (l2, r1);
                if e1 == e2 {
                    continue;
                }
                if rows.occurs_without(e1, pairs[i], pairs[j])
                    || rows.occurs_without(e2, pairs[i], pairs[j])
                {
                    continue;
                }
                rows.replace(l1, r1, r2);
                rows.replace(l2, r2, r1);
                pairs[i] = e1;
                pairs[j] = e2;
                progress = true;
                break;
            }
        }
        if !progress {
            return None;
        }
    }
    None
}

/// The ordered-map repair this module used before the slot rows, kept
/// as the test oracle: the multiset of pairs is a `BTreeMap` from pair
/// to count, each swap is tried by removing both pairs, looking the new
/// ones up and restoring on a hit.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeMap;

    use rand::Rng;

    use super::{norm, Pairs, MAX_REPAIR_ROUNDS, SWAP_TRIES_PER_BAD_PAIR};
    use crate::GenError;
    use bisect_graph::VertexId;

    /// [`super::sample_degree_sequence`] through the reference repair.
    pub(crate) fn sample_degree_sequence<R: Rng + ?Sized>(
        rng: &mut R,
        degrees: &[usize],
    ) -> Result<Pairs, GenError> {
        super::sample_degree_sequence_by(rng, degrees, |rng, _, pairs| repair(rng, pairs))
    }

    /// [`super::sample_bipartite`] through the reference repair.
    pub(crate) fn sample_bipartite<R: Rng + ?Sized>(
        rng: &mut R,
        left: &[usize],
        right: &[usize],
    ) -> Result<Pairs, GenError> {
        super::sample_bipartite_by(rng, left, right, |rng, _, pairs| {
            repair_bipartite(rng, pairs)
        })
    }

    fn is_bad(pair: (VertexId, VertexId), counts: &BTreeMap<(VertexId, VertexId), u32>) -> bool {
        pair.0 == pair.1 || counts.get(&pair).copied().unwrap_or(0) > 1
    }

    fn dec(counts: &mut BTreeMap<(VertexId, VertexId), u32>, pair: (VertexId, VertexId)) {
        if let Some(c) = counts.get_mut(&pair) {
            *c -= 1;
            if *c == 0 {
                counts.remove(&pair);
            }
        }
    }

    fn inc(counts: &mut BTreeMap<(VertexId, VertexId), u32>, pair: (VertexId, VertexId)) {
        *counts.entry(pair).or_insert(0) += 1;
    }

    /// Swap-based repair for general (one-sided) pairings: eliminates self
    /// loops and duplicates while preserving the degree sequence. Returns
    /// `None` if it stalls.
    fn repair<R: Rng + ?Sized>(
        rng: &mut R,
        mut pairs: Vec<(VertexId, VertexId)>,
    ) -> Option<Vec<(VertexId, VertexId)>> {
        let mut counts: BTreeMap<(VertexId, VertexId), u32> = BTreeMap::new();
        for &p in &pairs {
            inc(&mut counts, p);
        }
        for _round in 0..MAX_REPAIR_ROUNDS {
            let bad: Vec<usize> = (0..pairs.len())
                .filter(|&i| is_bad(pairs[i], &counts))
                .collect();
            if bad.is_empty() {
                return Some(pairs);
            }
            let mut progress = false;
            for &i in &bad {
                if !is_bad(pairs[i], &counts) {
                    continue; // fixed by an earlier swap this round
                }
                for _ in 0..SWAP_TRIES_PER_BAD_PAIR {
                    let j = rng.gen_range(0..pairs.len());
                    if j == i {
                        continue;
                    }
                    let (u, v) = pairs[i];
                    let (mut x, mut y) = pairs[j];
                    if rng.gen::<bool>() {
                        std::mem::swap(&mut x, &mut y);
                    }
                    // Rewire (u,v),(x,y) -> (u,x),(v,y).
                    if u == x || v == y {
                        continue;
                    }
                    let e1 = norm(u, x);
                    let e2 = norm(v, y);
                    if e1 == e2 {
                        continue;
                    }
                    dec(&mut counts, pairs[i]);
                    dec(&mut counts, pairs[j]);
                    if counts.contains_key(&e1) || counts.contains_key(&e2) {
                        inc(&mut counts, pairs[i]);
                        inc(&mut counts, pairs[j]);
                        continue;
                    }
                    inc(&mut counts, e1);
                    inc(&mut counts, e2);
                    pairs[i] = e1;
                    pairs[j] = e2;
                    progress = true;
                    break;
                }
            }
            if !progress {
                return None;
            }
        }
        None
    }

    /// Swap-based repair for bipartite pairings `(l, r)`: eliminates
    /// duplicate pairs while preserving both degree sequences.
    fn repair_bipartite<R: Rng + ?Sized>(
        rng: &mut R,
        mut pairs: Vec<(VertexId, VertexId)>,
    ) -> Option<Vec<(VertexId, VertexId)>> {
        let mut counts: BTreeMap<(VertexId, VertexId), u32> = BTreeMap::new();
        for &p in &pairs {
            inc(&mut counts, p);
        }
        let dup = |p: (VertexId, VertexId), counts: &BTreeMap<_, u32>| {
            counts.get(&p).copied().unwrap_or(0) > 1
        };
        for _round in 0..MAX_REPAIR_ROUNDS {
            let bad: Vec<usize> = (0..pairs.len())
                .filter(|&i| dup(pairs[i], &counts))
                .collect();
            if bad.is_empty() {
                return Some(pairs);
            }
            let mut progress = false;
            for &i in &bad {
                if !dup(pairs[i], &counts) {
                    continue;
                }
                for _ in 0..SWAP_TRIES_PER_BAD_PAIR {
                    let j = rng.gen_range(0..pairs.len());
                    if j == i {
                        continue;
                    }
                    let (l1, r1) = pairs[i];
                    let (l2, r2) = pairs[j];
                    // Swap right endpoints: (l1,r2), (l2,r1).
                    let e1 = (l1, r2);
                    let e2 = (l2, r1);
                    if e1 == e2 {
                        continue;
                    }
                    dec(&mut counts, pairs[i]);
                    dec(&mut counts, pairs[j]);
                    if counts.contains_key(&e1) || counts.contains_key(&e2) {
                        inc(&mut counts, pairs[i]);
                        inc(&mut counts, pairs[j]);
                        continue;
                    }
                    inc(&mut counts, e1);
                    inc(&mut counts, e2);
                    pairs[i] = e1;
                    pairs[j] = e2;
                    progress = true;
                    break;
                }
            }
            if !progress {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    /// Runs `fast` and `oracle` from the same seed and asserts equal
    /// results (edge lists or errors) and equal generator states after.
    fn assert_matches_reference<T: PartialEq + std::fmt::Debug>(
        seed: u64,
        fast: impl Fn(&mut StdRng) -> T,
        oracle: impl Fn(&mut StdRng) -> T,
    ) {
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        assert_eq!(fast(&mut a), oracle(&mut b), "seed {seed}");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "rng state, seed {seed}");
    }

    fn assert_sequence_matches(seed: u64, degrees: &[usize]) {
        assert_matches_reference(
            seed,
            |rng| sample_degree_sequence(rng, degrees),
            |rng| reference::sample_degree_sequence(rng, degrees),
        );
    }

    fn assert_bipartite_matches(seed: u64, left: &[usize], right: &[usize]) {
        assert_matches_reference(
            seed,
            |rng| sample_bipartite(rng, left, right),
            |rng| reference::sample_bipartite(rng, left, right),
        );
    }

    /// A random degree sequence on `n ≥ 2` vertices with degrees up to
    /// `pct`% of `n − 1` and an even sum; high `pct` gives near-complete
    /// sequences full of self loops and multi-edges, often non-graphical.
    fn random_degrees(n: usize, pct: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap = (n - 1) * pct / 100;
        let mut degrees: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=cap)).collect();
        if degrees.iter().sum::<usize>() % 2 == 1 {
            degrees[0] = if degrees[0] > 0 { degrees[0] - 1 } else { 1 };
        }
        degrees
    }

    /// Random left degrees up to `right_n`, and right degrees carrying
    /// the same stub total, each at most `left.len()`.
    fn random_bipartite(left_n: usize, right_n: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let left: Vec<usize> = (0..left_n).map(|_| rng.gen_range(0..=right_n)).collect();
        let mut right = vec![0usize; right_n];
        for _ in 0..left.iter().sum::<usize>() {
            loop {
                let r = rng.gen_range(0..right_n);
                if right[r] < left_n {
                    right[r] += 1;
                    break;
                }
            }
        }
        (left, right)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn slot_rows_match_reference_on_random_sequences(
            n in 2usize..24,
            pct in 0usize..=100,
            shape in 0u64..1_000_000,
            seed in 0u64..1_000_000,
        ) {
            assert_sequence_matches(seed, &random_degrees(n, pct, shape));
        }

        #[test]
        fn slot_rows_match_reference_on_random_bipartite(
            left_n in 1usize..16,
            right_n in 1usize..16,
            shape in 0u64..1_000_000,
            seed in 0u64..1_000_000,
        ) {
            let (left, right) = random_bipartite(left_n, right_n, shape);
            assert_bipartite_matches(seed, &left, &right);
        }
    }

    #[test]
    fn slot_rows_match_reference_on_edge_cases() {
        for seed in 0..8 {
            // Near-complete and complete regular sequences.
            for n in [4usize, 7, 8, 12, 16] {
                assert_sequence_matches(seed, &vec![n - 1; n]);
                assert_sequence_matches(seed, &vec![n - 2 + n % 2; n]);
            }
            // Zero degrees, alone and mixed in.
            assert_sequence_matches(seed, &[]);
            assert_sequence_matches(seed, &[0, 0, 0]);
            assert_sequence_matches(seed, &[0, 3, 0, 3, 3, 0, 3, 0]);
            assert_bipartite_matches(seed, &[0, 0], &[0]);
            assert_bipartite_matches(seed, &[3, 0, 1], &[0, 2, 2]);
            // Complete bipartite: every swap is blocked once repaired.
            assert_bipartite_matches(seed, &[4; 4], &[4; 4]);
            // Not graphical (vertex 0 needs 3 distinct neighbours among
            // two of degree 1): every attempt fails.
            assert_sequence_matches(seed, &[3, 1, 1, 1]);
            assert_sequence_matches(seed, &[3, 3, 1, 1]);
            // Sparse and large enough for many rounds.
            assert_sequence_matches(seed, &vec![3; 2000]);
        }
    }

    #[test]
    fn slot_rows_match_reference_after_a_full_redraw() {
        // Find seeds whose first pairing of K8 fails repair, and check
        // the redrawn result against the reference.
        let degrees = vec![7usize; 8];
        let mut redraws = 0;
        for seed in 0..64 {
            let attempts = Cell::new(0);
            let counted = |rng: &mut StdRng, degrees: &[usize], pairs: Pairs| {
                attempts.set(attempts.get() + 1);
                repair(rng, degrees, pairs)
            };
            let result =
                sample_degree_sequence_by(&mut StdRng::seed_from_u64(seed), &degrees, counted);
            if attempts.get() > 1 && result.is_ok() {
                redraws += 1;
                assert_sequence_matches(seed, &degrees);
            }
        }
        assert!(redraws > 0, "no seed forced a redraw");
    }

    #[test]
    fn id_range_is_checked_before_allocating() {
        // 2^32 + 1 vertices of degree 0: `vec![0; n]` would take 34 GB.
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            sample_regular(&mut rng, u32::MAX as usize + 2, 0),
            Err(GenError::InvalidParameter(_))
        ));
    }

    fn check_simple(pairs: &[(VertexId, VertexId)]) {
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in pairs {
            assert_ne!(u, v, "self loop");
            assert!(seen.insert(norm(u, v)), "duplicate edge ({u},{v})");
        }
    }

    fn degrees_of(n: usize, pairs: &[(VertexId, VertexId)]) -> Vec<usize> {
        let mut deg = vec![0usize; n];
        for &(u, v) in pairs {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }

    #[test]
    fn rejects_odd_degree_sum() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            sample_degree_sequence(&mut rng, &[1, 1, 1]),
            Err(GenError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rejects_degree_too_large() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_degree_sequence(&mut rng, &[3, 1, 1, 1]).is_ok());
        assert!(sample_degree_sequence(&mut rng, &[4, 1, 1, 2]).is_err());
    }

    #[test]
    fn zero_degrees_ok() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_degree_sequence(&mut rng, &[0, 0, 0])
            .unwrap()
            .is_empty());
        assert!(sample_degree_sequence(&mut rng, &[]).unwrap().is_empty());
    }

    #[test]
    fn realizes_degree_sequence() {
        let degrees = vec![3, 2, 2, 1, 2, 2];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs = sample_degree_sequence(&mut rng, &degrees).unwrap();
            check_simple(&pairs);
            assert_eq!(degrees_of(6, &pairs), degrees, "seed {seed}");
        }
    }

    #[test]
    fn regular_graphs_are_regular_and_simple() {
        for &(n, d) in &[(10, 3), (20, 4), (8, 2), (50, 3), (9, 4)] {
            let mut rng = StdRng::seed_from_u64((n * 100 + d) as u64);
            let pairs = sample_regular(&mut rng, n, d).unwrap();
            check_simple(&pairs);
            assert_eq!(degrees_of(n, &pairs), vec![d; n], "n={n} d={d}");
        }
    }

    #[test]
    fn regular_rejects_odd_product() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_regular(&mut rng, 5, 3).is_err());
    }

    #[test]
    fn regular_rejects_degree_ge_n() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_regular(&mut rng, 4, 4).is_err());
    }

    #[test]
    fn near_complete_regular_succeeds() {
        // d = n-1 forces the complete graph, the hardest repair case.
        let mut rng = StdRng::seed_from_u64(12);
        let pairs = sample_regular(&mut rng, 8, 7).unwrap();
        check_simple(&pairs);
        assert_eq!(pairs.len(), 8 * 7 / 2);
    }

    #[test]
    fn large_sparse_regular_fast() {
        let mut rng = StdRng::seed_from_u64(1989);
        let pairs = sample_regular(&mut rng, 5000, 3).unwrap();
        check_simple(&pairs);
        assert_eq!(pairs.len(), 5000 * 3 / 2);
    }

    #[test]
    fn bipartite_rejects_mismatched_sums() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_bipartite(&mut rng, &[1, 1], &[1]).is_err());
    }

    #[test]
    fn bipartite_rejects_oversized_degree() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_bipartite(&mut rng, &[3], &[1, 1, 1]).is_ok());
        // Left degree 5 exceeds the 4 right vertices.
        assert!(sample_bipartite(&mut rng, &[5, 0], &[2, 1, 1, 1]).is_err());
    }

    #[test]
    fn bipartite_realizes_degrees_no_duplicates() {
        let left = vec![2, 1, 0, 3];
        let right = vec![1, 1, 2, 2];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pairs = sample_bipartite(&mut rng, &left, &right).unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut dl = vec![0usize; 4];
            let mut dr = vec![0usize; 4];
            for &(l, r) in &pairs {
                assert!(seen.insert((l, r)), "duplicate cross pair");
                dl[l as usize] += 1;
                dr[r as usize] += 1;
            }
            assert_eq!(dl, left);
            assert_eq!(dr, right);
        }
    }

    #[test]
    fn bipartite_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_bipartite(&mut rng, &[0, 0], &[0])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bipartite_complete() {
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_bipartite(&mut rng, &[3, 3, 3], &[3, 3, 3]).unwrap();
        assert_eq!(pairs.len(), 9);
        let set: std::collections::HashSet<_> = pairs.into_iter().collect();
        assert_eq!(set.len(), 9);
    }
}
