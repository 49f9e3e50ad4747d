//! The real-atomics f-array counter.
//!
//! This is Jayanti's f-array [15] specialised to sum (a counter), adapted
//! from LL/SC to CAS as the paper prescribes [14]: every internal tree node
//! packs a `(version, sum)` pair into one `AtomicU64`, so a CAS on the node
//! is ABA-safe — a stale refresher's CAS fails because the version moved.
//!
//! `add` runs in `Θ(log K)` steps (double-refresh on each of the
//! `log K` nodes from the process's leaf to the root) and `read` in `O(1)`
//! (a single root load). Both are wait-free: a failed refresh CAS is *not*
//! retried beyond the second attempt — if both attempts fail, a concurrent
//! refresh that observed our leaf update already installed an up-to-date
//! sum.

use crate::tree::TreeShape;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Pack a `(version, sum)` node word.
fn pack(version: u32, sum: i32) -> u64 {
    ((version as u64) << 32) | (sum as u32 as u64)
}

/// Unpack a node word into `(version, sum)`.
fn unpack(word: u64) -> (u32, i32) {
    ((word >> 32) as u32, word as u32 as i32)
}

/// A wait-free linearizable fetch-free counter for `K` registered
/// processes, built from read, write and CAS only.
///
/// Each process owns a leaf; [`FArray::add`] updates the leaf and
/// propagates partial sums to the root with the double-refresh technique;
/// [`FArray::read`] returns the root sum with a single load.
///
/// The running sum at every node must fit in an `i32`.
///
/// # Examples
/// ```
/// use fcounter::FArray;
/// let c = FArray::new(4);
/// c.add(0, 2);
/// c.add(3, -1);
/// assert_eq!(c.read(), 1);
/// ```
#[derive(Debug)]
pub struct FArray {
    shape: TreeShape,
    /// Internal nodes, heap indices `1..width` (slot 0 unused). Empty when
    /// the tree is a single leaf.
    nodes: Box<[AtomicU64]>,
    /// Leaf contributions, one per process; single-writer.
    leaves: Box<[AtomicI64]>,
}

impl FArray {
    /// Create a counter for `k` processes, initialised to zero.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        let shape = TreeShape::new(k);
        FArray {
            shape,
            nodes: (0..shape.width()).map(|_| AtomicU64::new(0)).collect(),
            leaves: (0..k).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    /// Number of registered processes.
    pub fn processes(&self) -> usize {
        self.shape.leaves()
    }

    /// The sum stored at heap node `x` (leaf or internal).
    fn node_sum(&self, x: usize) -> i64 {
        if self.shape.is_leaf(x) {
            let i = x - self.shape.leaf_base();
            if i < self.leaves.len() {
                self.leaves[i].load(Ordering::SeqCst)
            } else {
                0 // padding leaf
            }
        } else {
            unpack(self.nodes[x].load(Ordering::SeqCst)).1 as i64
        }
    }

    /// One refresh attempt on internal node `x`: recompute the node's sum
    /// from its children and CAS it in. Returns whether the CAS succeeded.
    fn refresh(&self, x: usize) -> bool {
        let old = self.nodes[x].load(Ordering::SeqCst);
        let (ver, _) = unpack(old);
        let (l, r) = self.shape.children(x);
        let sum = self.node_sum(l) + self.node_sum(r);
        debug_assert!(
            i32::try_from(sum).is_ok(),
            "f-array node sum overflowed i32: {sum}"
        );
        self.nodes[x]
            .compare_exchange(
                old,
                pack(ver.wrapping_add(1), sum as i32),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Add `delta` on behalf of process `id`. Wait-free, `Θ(log K)` steps.
    ///
    /// # Panics
    /// Panics if `id` is not a registered process. Each process id must be
    /// used by at most one thread at a time (leaves are single-writer).
    pub fn add(&self, id: usize, delta: i64) {
        assert!(id < self.leaves.len(), "process id {id} out of range");
        if delta == 0 {
            return;
        }
        // Single-writer leaf: plain load+store is race-free by contract.
        let cur = self.leaves[id].load(Ordering::SeqCst);
        self.leaves[id].store(cur + delta, Ordering::SeqCst);
        // Double-refresh up the tree: if both attempts at a node fail, two
        // complete refreshes by others overlapped our interval, and the
        // second one read our leaf update. The walk is index arithmetic
        // (node `x`, then `x / 2`, up to the root): `add` allocates nothing.
        let leaf = self.shape.leaf_base() + id;
        for pos in 0..self.shape.depth() as usize {
            let x = self.shape.path_node(leaf, pos);
            if !self.refresh(x) {
                self.refresh(x);
            }
        }
    }

    /// Read the counter: a single root load, `O(1)` steps.
    pub fn read(&self) -> i64 {
        self.node_sum(self.shape.root())
    }

    /// The contribution currently registered for process `id` (test and
    /// debugging aid; reads only `id`'s leaf).
    pub fn leaf(&self, id: usize) -> i64 {
        self.leaves[id].load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pack_unpack_roundtrip() {
        for (v, s) in [(0u32, 0i32), (1, -1), (u32::MAX, i32::MIN), (7, i32::MAX)] {
            assert_eq!(unpack(pack(v, s)), (v, s));
        }
    }

    #[test]
    fn sequential_adds_sum() {
        let c = FArray::new(5);
        for i in 0..5 {
            c.add(i, (i + 1) as i64);
        }
        assert_eq!(c.read(), 15);
        c.add(2, -3);
        assert_eq!(c.read(), 12);
        assert_eq!(c.leaf(2), 0);
    }

    #[test]
    fn single_process_counter() {
        let c = FArray::new(1);
        c.add(0, 10);
        c.add(0, -4);
        assert_eq!(c.read(), 6);
    }

    #[test]
    fn zero_delta_is_noop() {
        let c = FArray::new(3);
        c.add(1, 0);
        assert_eq!(c.read(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        FArray::new(2).add(2, 1);
    }

    #[test]
    fn concurrent_adds_converge() {
        let k = 8;
        let per = 1_000;
        let c = Arc::new(FArray::new(k));
        let mut handles = Vec::new();
        for id in 0..k {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for j in 0..per {
                    c.add(id, if j % 2 == 0 { 1 } else { -1 });
                }
                c.add(id, 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), k as i64, "each thread nets +1");
    }

    #[test]
    fn concurrent_reads_are_bounded_by_activity() {
        // While k threads each toggle their leaf between 0 and 1, every
        // read must observe a value in [0, k].
        let k = 4;
        let c = Arc::new(FArray::new(k));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for id in 0..k {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    c.add(id, 1);
                    c.add(id, -1);
                }
            }));
        }
        for _ in 0..10_000 {
            let v = c.read();
            assert!((0..=k as i64).contains(&v), "read {v} out of range");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), 0);
    }
}
