//! Solo passages of the real `A_f` locks allocate nothing: a reader's
//! slot is one division by the cached group size, and the f-array walk is
//! index arithmetic. A counting global allocator with a per-thread
//! counter keeps the parallel test harness out of the count.

use rwcore::{AfConfig, FPolicy, GatedAfLock, RawAfLock};
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

/// Every named policy at every tested reader count, `n` writers.
fn configs() -> impl Iterator<Item = AfConfig> {
    [2usize, 8, 64].into_iter().flat_map(|n| {
        FPolicy::NAMED
            .into_iter()
            .map(move |p| AfConfig::new(n, n).with_policy(p))
    })
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
fn solo_reader_passages_allocate_nothing() {
    for cfg in configs() {
        let lock = RawAfLock::new(cfg);
        for r in 0..cfg.readers {
            let n = allocs_during(|| {
                lock.reader_lock(r);
                lock.reader_unlock(r);
            });
            assert_eq!(
                n, 0,
                "{} n={} reader {r}: {n} allocations",
                cfg.policy, cfg.readers
            );
        }
    }
}

#[test]
fn solo_writer_passages_allocate_nothing() {
    for cfg in configs() {
        let lock = RawAfLock::new(cfg);
        for w in 0..cfg.writers {
            let n = allocs_during(|| {
                lock.writer_lock(w);
                lock.writer_unlock(w);
            });
            assert_eq!(
                n, 0,
                "{} n={} writer {w}: {n} allocations",
                cfg.policy, cfg.readers
            );
        }
    }
}

#[test]
fn try_passages_allocate_nothing() {
    const SPINS: u64 = 1 << 10;
    for cfg in configs() {
        let lock = RawAfLock::new(cfg);
        let n = allocs_during(|| {
            for r in 0..cfg.readers {
                assert!(lock.try_reader_lock(r, SPINS), "a solo reader gets in");
                lock.reader_unlock(r);
            }
            for w in 0..cfg.writers {
                assert!(lock.try_writer_lock(w, SPINS), "a solo writer gets in");
                lock.writer_unlock(w);
            }
            // Timed-out attempts withdraw through the exit sections.
            lock.writer_lock(0);
            assert!(!lock.try_reader_lock(1, 0), "a writer holds the lock");
            lock.writer_unlock(0);
            lock.reader_lock(0);
            assert!(!lock.try_writer_lock(1, 0), "a reader holds the lock");
            lock.reader_unlock(0);
        });
        assert_eq!(n, 0, "{} n={}: {n} allocations", cfg.policy, cfg.readers);
    }
}

#[test]
fn gated_read_passages_allocate_nothing() {
    for cfg in configs() {
        let lock = GatedAfLock::new(cfg);
        for r in 0..cfg.readers {
            let n = allocs_during(|| {
                lock.reader_lock(r);
                lock.reader_unlock(r);
            });
            assert_eq!(
                n, 0,
                "{} n={} reader {r}: {n} allocations",
                cfg.policy, cfg.readers
            );
        }
    }
}
