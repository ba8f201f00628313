//! Bucket-array gain structures: [`GainBuckets`] is the classic
//! Fiduccia-Mattheyses constant-time structure shared by the graph and
//! netlist FM refiners; [`SortedBuckets`] is the ordered variant behind
//! Kernighan-Lin's incremental pair selection. Both support `reset` so
//! a [`crate::workspace::Workspace`] can reuse their allocations across
//! passes and trials.

use bisect_graph::VertexId;

/// Bucket-array priority structure over vertices/cells keyed by gain:
/// all operations O(1) amortized (plus bucket-range scans bounded by
/// the gain radius).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct GainBuckets {
    offset: i64,
    buckets: Vec<Vec<VertexId>>,
    /// Position of each element inside its bucket; `u32::MAX` = absent.
    pos: Vec<u32>,
    gain: Vec<i64>,
    max_idx: usize,
    len: usize,
}

impl GainBuckets {
    /// A structure for elements `0..num_elements` with gains in
    /// `[-max_gain_abs, max_gain_abs]`. Production paths reuse a
    /// workspace-resident instance via [`GainBuckets::reset`]; the
    /// standalone constructor remains for unit tests.
    #[cfg(test)]
    pub(crate) fn new(num_elements: usize, max_gain_abs: i64) -> GainBuckets {
        let width = (2 * max_gain_abs + 1).max(1) as usize;
        GainBuckets {
            offset: max_gain_abs,
            buckets: vec![Vec::new(); width],
            pos: vec![u32::MAX; num_elements],
            gain: vec![0; num_elements],
            max_idx: 0,
            len: 0,
        }
    }

    /// Reconfigures the structure for a new element count and gain
    /// radius, keeping every previously grown allocation. Equivalent to
    /// `*self = GainBuckets::new(num_elements, max_gain_abs)` but free
    /// of heap traffic once capacities have warmed up.
    pub(crate) fn reset(&mut self, num_elements: usize, max_gain_abs: i64) {
        let width = (2 * max_gain_abs + 1).max(1) as usize;
        self.offset = max_gain_abs;
        if self.buckets.len() < width {
            // lint: allow(zero-alloc) — grows only when the gain radius widens (warm-up)
            self.buckets.resize_with(width, Vec::new);
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.pos.clear();
        self.pos.resize(num_elements, u32::MAX);
        self.gain.clear();
        self.gain.resize(num_elements, 0);
        self.max_idx = 0;
        self.len = 0;
    }

    fn index(&self, gain: i64) -> usize {
        let idx = gain + self.offset;
        debug_assert!(
            idx >= 0 && (idx as usize) < self.buckets.len(),
            "gain {gain} out of range ±{}",
            self.offset
        );
        idx as usize
    }

    pub(crate) fn contains(&self, v: VertexId) -> bool {
        self.pos[v as usize] != u32::MAX
    }

    pub(crate) fn gain_of(&self, v: VertexId) -> i64 {
        debug_assert!(self.contains(v));
        self.gain[v as usize]
    }

    pub(crate) fn insert(&mut self, v: VertexId, gain: i64) {
        debug_assert!(!self.contains(v));
        let idx = self.index(gain);
        self.pos[v as usize] = self.buckets[idx].len() as u32;
        self.gain[v as usize] = gain;
        self.buckets[idx].push(v);
        self.max_idx = self.max_idx.max(idx);
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, v: VertexId) {
        debug_assert!(self.contains(v));
        let idx = self.index(self.gain[v as usize]);
        let p = self.pos[v as usize] as usize;
        let bucket = &mut self.buckets[idx];
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        self.pos[v as usize] = u32::MAX;
        self.len -= 1;
    }

    pub(crate) fn update(&mut self, v: VertexId, new_gain: i64) {
        self.remove(v);
        self.insert(v, new_gain);
    }

    /// Adds `delta` to the gain of `v`, which must be present: the same
    /// swap-remove and push as `update(v, gain_of(v) + delta)`, reading
    /// the gain once.
    pub(crate) fn add(&mut self, v: VertexId, delta: i64) {
        debug_assert!(self.contains(v));
        let vi = v as usize;
        let gain = self.gain[vi];
        let p = self.pos[vi] as usize;
        let old = self.index(gain);
        let bucket = &mut self.buckets[old];
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        let gain = gain + delta;
        let idx = self.index(gain);
        self.pos[vi] = self.buckets[idx].len() as u32;
        self.gain[vi] = gain;
        self.buckets[idx].push(v);
        self.max_idx = self.max_idx.max(idx);
    }

    pub(crate) fn peek_best(&mut self) -> Option<(i64, VertexId)> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.max_idx].is_empty() {
            debug_assert!(self.max_idx > 0, "len > 0 but all buckets empty");
            self.max_idx -= 1;
        }
        // lint: allow(no-panic) — the loop above stopped on a nonempty bucket
        let v = *self.buckets[self.max_idx].last().expect("bucket nonempty");
        Some((self.max_idx as i64 - self.offset, v))
    }

    pub(crate) fn pop_best(&mut self) -> Option<(i64, VertexId)> {
        let (gain, v) = self.peek_best()?;
        self.remove(v);
        Some((gain, v))
    }
}

/// Ordered bucket array behind Kernighan-Lin's incremental pair
/// selection: one bucket per gain value, each bucket kept sorted by
/// vertex id. [`SortedBuckets::iter_desc`] therefore yields candidates
/// in strictly descending `(gain, vertex)` order — the tie-breaking
/// order of the exhaustive Figure-2 scan — so the incremental strategy
/// makes bit-identical selections while insert/remove touch only one
/// bucket (a binary search plus a small `memmove`) instead of
/// rebuilding or rescanning anything.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedBuckets {
    offset: i64,
    buckets: Vec<Vec<VertexId>>,
    max_idx: usize,
    len: usize,
}

impl SortedBuckets {
    /// Clears the structure and reconfigures it for gains in
    /// `[-max_gain_abs, max_gain_abs]`, keeping grown allocations.
    pub(crate) fn reset(&mut self, max_gain_abs: i64) {
        let width = (2 * max_gain_abs + 1).max(1) as usize;
        self.offset = max_gain_abs;
        if self.buckets.len() < width {
            // lint: allow(zero-alloc) — grows only when the gain radius widens (warm-up)
            self.buckets.resize_with(width, Vec::new);
        }
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.max_idx = 0;
        self.len = 0;
    }

    fn index(&self, gain: i64) -> usize {
        let idx = gain + self.offset;
        debug_assert!(
            idx >= 0 && (idx as usize) < self.buckets.len(),
            "gain {gain} out of range ±{}",
            self.offset
        );
        idx as usize
    }

    pub(crate) fn insert(&mut self, v: VertexId, gain: i64) {
        let idx = self.index(gain);
        let bucket = &mut self.buckets[idx];
        let at = bucket.partition_point(|&u| u < v);
        debug_assert!(bucket.get(at) != Some(&v), "duplicate insert of {v}");
        bucket.insert(at, v);
        self.max_idx = self.max_idx.max(idx);
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, v: VertexId, gain: i64) {
        let idx = self.index(gain);
        let bucket = &mut self.buckets[idx];
        let at = bucket.partition_point(|&u| u < v);
        debug_assert!(bucket.get(at) == Some(&v), "removing absent {v}");
        bucket.remove(at);
        self.len -= 1;
    }

    /// Iterates live entries in descending `(gain, vertex)` order.
    pub(crate) fn iter_desc(&self) -> impl Iterator<Item = (i64, VertexId)> + '_ {
        let top = self.max_idx.min(self.buckets.len().saturating_sub(1));
        let offset = self.offset;
        (0..=top)
            .rev()
            .flat_map(move |idx| {
                self.buckets
                    .get(idx)
                    .into_iter()
                    .flat_map(|bucket| bucket.iter().rev())
                    .map(move |&v| (idx as i64 - offset, v))
            })
            .take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let mut b = GainBuckets::new(4, 3);
        b.insert(0, -2);
        b.insert(1, 3);
        b.insert(2, 0);
        assert_eq!(b.peek_best(), Some((3, 1)));
        assert_eq!(b.pop_best(), Some((3, 1)));
        assert_eq!(b.peek_best(), Some((0, 2)));
        b.update(0, 2);
        assert_eq!(b.peek_best(), Some((2, 0)));
        b.remove(2);
        b.remove(0);
        assert_eq!(b.peek_best(), None);
    }

    #[test]
    fn same_gain_all_retrievable() {
        let mut b = GainBuckets::new(3, 1);
        b.insert(0, 1);
        b.insert(1, 1);
        b.insert(2, 1);
        let mut got: Vec<_> = std::iter::from_fn(|| b.pop_best().map(|(_, v)| v)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn add_moves_between_buckets() {
        let mut b = GainBuckets::new(2, 5);
        b.insert(0, 0);
        b.insert(1, 1);
        b.add(0, 4);
        assert_eq!(b.peek_best(), Some((4, 0)));
        b.add(0, -8);
        assert_eq!(b.peek_best(), Some((1, 1)));
        assert_eq!(b.gain_of(0), -4);
    }

    #[test]
    fn zero_add_keeps_the_gain() {
        let mut b = GainBuckets::new(1, 2);
        b.insert(0, 1);
        b.add(0, 0);
        assert_eq!(b.gain_of(0), 1);
    }

    #[test]
    fn add_orders_buckets_like_update() {
        // Same swap-remove and push, so bucket order (and thus which
        // tied element peeks first) matches update move for move.
        let mut added = GainBuckets::new(6, 4);
        let mut updated = GainBuckets::new(6, 4);
        for v in 0..6 {
            added.insert(v, v as i64 % 3 - 1);
            updated.insert(v, v as i64 % 3 - 1);
        }
        for (v, delta) in [(1, 2), (4, 1), (0, 0), (5, -3), (2, 1), (1, -1)] {
            added.add(v, delta);
            let cur = updated.gain_of(v);
            updated.update(v, cur + delta);
            assert_eq!(added, updated);
        }
        while let Some(best) = updated.pop_best() {
            assert_eq!(added.pop_best(), Some(best));
        }
    }

    #[test]
    fn reset_behaves_like_new() {
        let mut b = GainBuckets::new(3, 2);
        b.insert(0, 2);
        b.insert(1, -1);
        b.reset(5, 4);
        assert_eq!(b.peek_best(), None);
        assert!(!b.contains(0));
        b.insert(4, 4);
        b.insert(2, -4);
        assert_eq!(b.pop_best(), Some((4, 4)));
        assert_eq!(b.pop_best(), Some((-4, 2)));
        assert_eq!(b.pop_best(), None);
    }

    #[test]
    fn sorted_buckets_iterates_descending_gain_then_vertex() {
        let mut s = SortedBuckets::default();
        s.reset(3);
        for (v, g) in [(5, 1), (2, 1), (9, 3), (1, -2), (7, 1)] {
            s.insert(v, g);
        }
        let order: Vec<_> = s.iter_desc().collect();
        assert_eq!(order, vec![(3, 9), (1, 7), (1, 5), (1, 2), (-2, 1)]);
        s.remove(5, 1);
        let order: Vec<_> = s.iter_desc().collect();
        assert_eq!(order, vec![(3, 9), (1, 7), (1, 2), (-2, 1)]);
    }

    #[test]
    fn sorted_buckets_reset_clears_and_reuses() {
        let mut s = SortedBuckets::default();
        s.reset(2);
        s.insert(0, 2);
        s.insert(1, -2);
        assert_eq!(s.iter_desc().count(), 2);
        s.reset(1);
        assert_eq!(s.iter_desc().count(), 0);
        s.insert(3, -1);
        assert_eq!(s.iter_desc().collect::<Vec<_>>(), vec![(-1, 3)]);
    }

    #[test]
    fn sorted_buckets_empty_before_reset() {
        let s = SortedBuckets::default();
        assert_eq!(s.iter_desc().count(), 0);
    }
}
