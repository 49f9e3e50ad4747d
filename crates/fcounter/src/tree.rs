//! Heap-layout geometry shared by the real and simulated f-array counters.

/// Geometry of a complete binary tree with `k` leaves, padded to the next
/// power of two, stored heap-style: the root is node `1`, node `x` has
/// children `2x` and `2x+1`, and leaf `i` (for `i < k`) is node
/// `leaf_base() + i`. Node `0` is unused.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TreeShape {
    k: usize,
    width: usize,
}

impl TreeShape {
    /// Shape for `k` leaves.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a counter needs at least one process");
        TreeShape {
            k,
            width: k.next_power_of_two(),
        }
    }

    /// Number of real leaves (processes).
    pub fn leaves(&self) -> usize {
        self.k
    }

    /// Padded leaf count (a power of two).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total heap slots, including the unused slot 0 (= `2 * width`).
    pub fn heap_len(&self) -> usize {
        2 * self.width
    }

    /// Heap index of the first leaf.
    pub fn leaf_base(&self) -> usize {
        self.width
    }

    /// Heap index of leaf `i`.
    ///
    /// # Panics
    /// Panics if `i >= leaves()`.
    pub fn leaf(&self, i: usize) -> usize {
        assert!(i < self.k, "leaf index {i} out of range (k = {})", self.k);
        self.width + i
    }

    /// Heap index of the root. When `width() == 1` the root *is* the single
    /// leaf.
    pub fn root(&self) -> usize {
        1
    }

    /// True if heap node `x` is a leaf slot.
    pub fn is_leaf(&self, x: usize) -> bool {
        x >= self.width
    }

    /// Parent of heap node `x`.
    pub fn parent(&self, x: usize) -> usize {
        x / 2
    }

    /// Children of internal heap node `x`.
    pub fn children(&self, x: usize) -> (usize, usize) {
        debug_assert!(!self.is_leaf(x));
        (2 * x, 2 * x + 1)
    }

    /// The `pos`-th internal node on the path from the leaf at heap index
    /// `leaf_heap` up to the root, counting bottom-up from the leaf's
    /// parent (`pos == 0`). The path has [`TreeShape::depth`] nodes and
    /// ends at the root; it is pure index arithmetic, so walking it
    /// allocates nothing.
    pub fn path_node(&self, leaf_heap: usize, pos: usize) -> usize {
        debug_assert!(self.is_leaf(leaf_heap) && pos < self.depth() as usize);
        leaf_heap >> (pos + 1)
    }

    /// Tree depth: number of internal levels (`log2(width)`).
    pub fn depth(&self) -> u32 {
        self.width.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole leaf-to-root path of leaf `i`, bottom-up.
    fn path(t: &TreeShape, i: usize) -> Vec<usize> {
        (0..t.depth() as usize)
            .map(|pos| t.path_node(t.leaf(i), pos))
            .collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = TreeShape::new(1);
        assert_eq!(t.width(), 1);
        assert_eq!(t.leaf(0), 1);
        assert_eq!(t.root(), 1);
        assert!(t.is_leaf(t.root()), "root is the leaf when k = 1");
        assert!(path(&t, 0).is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn non_power_of_two_padding() {
        let t = TreeShape::new(5);
        assert_eq!(t.width(), 8);
        assert_eq!(t.heap_len(), 16);
        assert_eq!(t.leaf(0), 8);
        assert_eq!(t.leaf(4), 12);
        assert_eq!(t.depth(), 3);
        assert_eq!(path(&t, 4), vec![6, 3, 1], "leaf 4 = node 12");
    }

    #[test]
    fn path_is_bottom_up_to_root() {
        let t = TreeShape::new(4);
        assert_eq!(path(&t, 3), vec![3, 1], "leaf 3 = node 7; parents 3, 1");
        assert_eq!(path(&t, 0), vec![2, 1]);
    }

    #[test]
    fn path_length_is_logarithmic() {
        for k in [1usize, 2, 3, 7, 8, 9, 64, 100, 512] {
            let t = TreeShape::new(k);
            for i in [0, k - 1] {
                let p = path(&t, i);
                assert_eq!(p.len() as u32, t.depth());
                if let Some(&top) = p.last() {
                    assert_eq!(top, t.root(), "k = {k}, leaf {i}");
                }
            }
        }
    }

    #[test]
    fn children_and_parent_roundtrip() {
        let t = TreeShape::new(8);
        for x in 1..8 {
            let (l, r) = t.children(x);
            assert_eq!(t.parent(l), x);
            assert_eq!(t.parent(r), x);
        }
    }

    #[test]
    #[should_panic(expected = "leaf index")]
    fn leaf_out_of_range_panics() {
        TreeShape::new(3).leaf(3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_leaves_panics() {
        TreeShape::new(0);
    }
}
