//! The real f-array's `add` and `read` allocate nothing: the leaf-to-root
//! walk is index arithmetic. A counting global allocator with a
//! per-thread counter keeps the parallel test harness out of the count.

use fcounter::FArray;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn counting_allocator_sees_a_vec() {
    let n = allocs_during(|| drop(std::hint::black_box(vec![0u8; 16])));
    assert_eq!(
        n, 1,
        "the counter must see allocations, or the tests below prove nothing"
    );
}

#[test]
fn add_and_read_allocate_nothing() {
    for k in [1usize, 2, 3, 8, 64, 512] {
        let c = FArray::new(k);
        for id in [0, k / 2, k - 1] {
            let n = allocs_during(|| {
                c.add(id, 1);
                std::hint::black_box(c.read());
                c.add(id, -1);
                std::hint::black_box(c.read());
            });
            assert_eq!(n, 0, "K = {k}, process {id}: {n} allocations");
        }
        assert_eq!(c.read(), 0);
    }
}
