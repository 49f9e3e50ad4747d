//! The one wait primitive every real lock spins through.
//!
//! The paper's waits are local spins, free in the CC model, which gives
//! every process its own processor. A real host does not, so
//! [`wait_until`] re-checks its predicate with one policy — 64 rounds of
//! `spin_loop`, then `yield_now` — and a waiter whose releaser is
//! descheduled hands over its core. A [`Budget`] says when to give up,
//! so a lock's blocking, bounded and deadline entries are one body.

use std::time::Instant;

/// Failed re-checks spent spinning before the wait starts yielding.
const SPIN_LIMIT: u64 = 64;

/// When a wait gives up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Never give up.
    Unbounded,
    /// Give up after this many failed re-checks (the `spins` of every
    /// `try_*` entry): the predicate runs at most `spins + 1` times.
    Spins(u64),
    /// Give up once this instant has passed. The clock is read after the
    /// first failed check, so an expired deadline fails fast, and then
    /// only in the yield tier, so the spin tier stays clock-free.
    Deadline(Instant),
}

/// Re-check `ready` until it holds (`true`) or `budget` runs out
/// (`false`). The predicate is always checked before the budget is
/// consulted, so even a zero budget succeeds when `ready` already holds.
#[inline]
pub fn wait_until(budget: Budget, mut ready: impl FnMut() -> bool) -> bool {
    ready() || wait_slow(budget, ready)
}

/// [`wait_until`] after its first check failed, kept out of line so the
/// uncontended path stays one inlined check.
#[cold]
fn wait_slow(budget: Budget, mut ready: impl FnMut() -> bool) -> bool {
    // Re-checks made so far (the first check has already failed).
    let mut rechecks: u64 = 0;
    loop {
        let exhausted = match budget {
            Budget::Unbounded => false,
            Budget::Spins(spins) => rechecks == spins,
            Budget::Deadline(deadline) => {
                (rechecks == 0 || rechecks >= SPIN_LIMIT) && Instant::now() >= deadline
            }
        };
        if exhausted {
            return false;
        }
        if rechecks < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        rechecks += 1;
        if ready() {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_zero_budget_succeeds_when_already_ready() {
        assert!(wait_until(Budget::Spins(0), || true));
        let past = Instant::now() - Duration::from_millis(1);
        assert!(wait_until(Budget::Deadline(past), || true));
    }

    #[test]
    fn a_spin_budget_of_k_checks_exactly_k_plus_one_times() {
        for k in [0u64, 1, 5, SPIN_LIMIT, SPIN_LIMIT + 10] {
            let mut calls = 0u64;
            assert!(!wait_until(Budget::Spins(k), || {
                calls += 1;
                false
            }));
            assert_eq!(calls, k + 1, "budget {k}");
        }
    }

    #[test]
    fn an_expired_deadline_fails_after_one_check() {
        let mut calls = 0u64;
        let past = Instant::now() - Duration::from_millis(1);
        assert!(!wait_until(Budget::Deadline(past), || {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn a_future_deadline_waits_until_it_passes() {
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!wait_until(Budget::Deadline(deadline), || false));
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn unbounded_waits_through_both_tiers_until_ready() {
        for j in [1u64, SPIN_LIMIT, 3 * SPIN_LIMIT] {
            let mut calls = 0u64;
            assert!(wait_until(Budget::Unbounded, || {
                calls += 1;
                calls > j
            }));
            assert_eq!(calls, j + 1, "ready after {j} failed checks");
        }
    }
}
