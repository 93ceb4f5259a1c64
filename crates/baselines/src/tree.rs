//! The bucket tree the tree ORAMs share.
//!
//! `N` blocks live in a complete binary tree of buckets stored in heap order
//! (root at 0, the children of bucket `i` at `2i + 1` and `2i + 2`). Each
//! block is mapped to a leaf, and resides somewhere on the path from the
//! root to that leaf (or in the client's stash).

/// An ORAM operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read a block.
    Read,
    /// Write a block.
    Write,
}

/// The shape of a bucket tree with at least one leaf per block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shape {
    /// Edges from the root to a leaf: `ceil(log2(capacity))`.
    pub levels: u32,
    /// `2^levels` leaves.
    pub leaves: u64,
}

impl Shape {
    /// The tree for `capacity` blocks.
    pub fn for_capacity(capacity: u64) -> Shape {
        assert!(capacity >= 1);
        let levels = 64 - (capacity.max(2) - 1).leading_zeros(); // ceil(log2)
        Shape { levels, leaves: 1u64 << levels }
    }

    /// Number of buckets in the tree.
    pub fn buckets(&self) -> usize {
        (2 * self.leaves - 1) as usize
    }

    /// Buckets on one root-to-leaf path.
    pub fn path_len(&self) -> u32 {
        self.levels + 1
    }

    /// Bucket indices (heap order) on the path to `leaf`, root first.
    pub fn path(&self, leaf: u64) -> Vec<usize> {
        let mut idx = (self.leaves - 1 + leaf) as usize; // leaf node in heap order
        let mut out = Vec::with_capacity(self.path_len() as usize);
        loop {
            out.push(idx);
            if idx == 0 {
                break;
            }
            idx = (idx - 1) / 2;
        }
        out.reverse();
        out
    }

    /// Whether heap bucket `b` lies on the path from root to `leaf`.
    pub fn bucket_on_path_to(&self, b: usize, leaf: u64) -> bool {
        let mut idx = (self.leaves - 1 + leaf) as usize;
        loop {
            if idx == b {
                return true;
            }
            if idx == 0 {
                return false;
            }
            idx = (idx - 1) / 2;
        }
    }
}
