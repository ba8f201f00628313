//! Disjoint-set (union-find) forest with path halving and union by size.
//!
//! Used by [`contraction`](crate::contraction) to merge matched vertex
//! pairs and by [`traversal`](crate::traversal) for connected components.

/// A union-find structure over the elements `0..len`.
///
/// # Example
///
/// ```
/// use bisect_graph::union_find::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.num_sets(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> UnionFind {
        UnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            num_sets: len,
        }
    }

    /// Number of elements (across all sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The representative of the set containing `x`, with path halving.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets containing `x` and `y`; returns `true` if they
    /// were previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn union(&mut self, x: u32, y: u32) -> bool {
        let (mut rx, mut ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        if self.size[rx as usize] < self.size[ry as usize] {
            std::mem::swap(&mut rx, &mut ry);
        }
        self.parent[ry as usize] = rx;
        self.size[rx as usize] += self.size[ry as usize];
        self.num_sets -= 1;
        true
    }

    /// Whether `x` and `y` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is out of range.
    pub fn connected(&mut self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// Relabels the sets with dense ids `0..num_sets()` and returns, for
    /// each element, the id of its set. Ids are assigned in order of
    /// first appearance, so element 0's set gets id 0.
    pub fn dense_labels(&mut self) -> Vec<u32> {
        let mut label = vec![u32::MAX; self.len()];
        let mut next = 0u32;
        let mut out = Vec::with_capacity(self.len());
        for x in 0..self.len() as u32 {
            let r = self.find(x);
            if label[r as usize] == u32::MAX {
                label[r as usize] = next;
                next += 1;
            }
            out.push(label[r as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.num_sets(), 3);
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_sets(), 3);
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(uf.connected(0, 2));
        assert!(uf.connected(4, 3));
        assert!(!uf.connected(2, 3));
    }

    #[test]
    fn dense_labels_first_appearance_order() {
        let mut uf = UnionFind::new(5);
        uf.union(1, 3);
        uf.union(2, 4);
        let labels = uf.dense_labels();
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[2], 2);
        assert_eq!(labels[3], 1);
        assert_eq!(labels[4], 2);
    }

    #[test]
    fn all_merged_single_set() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.dense_labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn empty_union_find() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
        assert!(uf.dense_labels().is_empty());
    }
}
