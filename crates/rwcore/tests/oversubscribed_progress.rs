//! Every real lock in the registry gets through its spin-waits when the
//! host is oversubscribed: 4 × ncpu unpinned threads on a symmetric
//! shape, each running a fixed quota of mixed passages through the
//! [`rwcore::CheckedCs`] critical section. A lock that needs its waiter's
//! releaser to be scheduled stalls here, so the test asserts no wall
//! clock: a stall is a hang, and the CI job's timeout turns it into a
//! failure. Mutual exclusion is checked on the way: no torn reads, no
//! lost writes.

use rwcore::{LockRegistry, RealShape};
use std::sync::Barrier;

/// Passages per thread.
const QUOTA: usize = 20_000;
/// One passage in this many is a write.
const WRITE_EVERY: usize = 4;

#[test]
fn every_real_lock_completes_its_quota_at_four_threads_per_cpu() {
    let ncpu = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = 4 * ncpu;
    for lock in LockRegistry::builtin().real_locks(RealShape::symmetric(threads)) {
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (lock, start) = (&lock, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..QUOTA {
                        if (i + t) % WRITE_EVERY == 0 {
                            lock.write_pass(t);
                        } else {
                            lock.read_pass(t);
                        }
                    }
                });
            }
        });
        let writes: usize = (0..threads)
            .map(|t| (0..QUOTA).filter(|i| (i + t) % WRITE_EVERY == 0).count())
            .sum();
        let cs = lock.cs().expect("registry adapters run the checked CS");
        assert_eq!(cs.torn_reads(), 0, "{}: torn reads", lock.label());
        assert_eq!(cs.writes(), writes as u64, "{}: lost writes", lock.label());
    }
}
