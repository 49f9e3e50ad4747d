//! The visited set both explorers deduplicate through.
//!
//! [`Visited`] pairs one 64-way striped hash set of `u64` state keys
//! with the key function the exploration's [`Symmetry`] selects: the
//! O(1) incremental concrete key ([`Symmetry::Off`]), the hash of the
//! canonical state vector ([`Symmetry::Quotient`]), or the from-scratch
//! SipHash walk kept as an independent-hash-family oracle
//! ([`Symmetry::FullRehash`]).
//!
//! The same sharded storage backs the sequential explorer (where the
//! striping is simply uncontended) and the parallel one, so
//! [`Visited::stats`] reports comparable occupancy numbers in either.

use crate::{state_key_concrete, state_key_full, state_key_quotient, Budgets, Symmetry};
use ccsim::{FxBuildHasher, Sim};
use std::collections::HashSet;
use std::sync::Mutex;

/// Shard count for the striped visited set. 64 keeps the per-shard
/// mutexes essentially uncontended for any plausible worker count while
/// the selector stays a single shift.
const SHARDS: usize = 64;

/// A shard lock is only poisoned by a worker that panicked mid-insert,
/// which `explore_par` already propagates.
const POISONED: &str = "visited shard poisoned by a panicking worker";

/// Occupancy statistics of the visited set, reported at the end of an
/// exploration in [`crate::CheckReport`]. The set only ever grows, so
/// the end-of-run numbers are also the peak.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct VisitedStats {
    /// Distinct keys stored (equals `states_explored` after a run).
    pub entries: u64,
    /// Approximate resident bytes of the backing tables: allocated
    /// capacity (not occupancy) at 9 bytes per slot — an 8-byte key plus
    /// one control byte, the std hash-table layout.
    pub resident_bytes: u64,
    /// Entries in the most-occupied shard (the striping balance
    /// numerator; keys are full-avalanche hashes, so skew beyond a small
    /// factor indicates a key-function defect).
    pub shard_max: u64,
    /// Entries in the least-occupied shard.
    pub shard_min: u64,
}

impl VisitedStats {
    /// Max/min shard occupancy ratio (1.0 = perfectly balanced). Returns
    /// `None` when any shard is empty — skew is meaningless before the
    /// set outgrows the shard count.
    pub fn shard_skew(&self) -> Option<f64> {
        (self.shard_min > 0).then(|| self.shard_max as f64 / self.shard_min as f64)
    }
}

/// A state key function: the configuration, the passage quota, the
/// remaining adversary budgets, and a caller-owned scratch buffer (one
/// per explorer / worker) that vector-building keys serialize into,
/// keeping the hot path allocation-free.
type KeyFn = fn(&Sim, u64, Budgets, &mut Vec<u64>) -> u64;

/// The visited set: `u64` keys striped across [`SHARDS`]
/// mutex-protected shards, selected by the key's top bits (the keys are
/// full-avalanche hashes, so any fixed bit range balances).
/// Exactly-once expansion rests on [`Visited::insert`] being atomic per
/// key, which the striped mutexes provide.
pub(crate) struct Visited {
    shards: Vec<Mutex<HashSet<u64, FxBuildHasher>>>,
    key: KeyFn,
}

impl Visited {
    /// An empty set keyed by the state key `symmetry` selects.
    pub(crate) fn new(symmetry: Symmetry) -> Self {
        let key: KeyFn = match symmetry {
            Symmetry::Off => |sim, quota, budgets, _| state_key_concrete(sim, quota, budgets),
            Symmetry::Quotient => state_key_quotient,
            Symmetry::FullRehash => |sim, quota, budgets, _| state_key_full(sim, quota, budgets),
        };
        Visited {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashSet::default()))
                .collect(),
            key,
        }
    }

    /// Record a configuration, returning true if it was new. The
    /// per-shard lock is held only for the probe itself.
    pub(crate) fn insert(
        &self,
        sim: &Sim,
        quota: u64,
        budgets: Budgets,
        scratch: &mut Vec<u64>,
    ) -> bool {
        let key = (self.key)(sim, quota, budgets, scratch);
        let shard = (key >> 58) as usize & (SHARDS - 1);
        self.shards[shard].lock().expect(POISONED).insert(key)
    }

    /// Distinct configurations stored.
    pub(crate) fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect(POISONED).len() as u64)
            .sum()
    }

    /// End-of-run occupancy (also the peak — the set only grows).
    pub(crate) fn stats(&self) -> VisitedStats {
        let mut stats = VisitedStats {
            shard_min: u64::MAX,
            ..VisitedStats::default()
        };
        for s in &self.shards {
            let set = s.lock().expect(POISONED);
            let n = set.len() as u64;
            stats.entries += n;
            stats.resident_bytes += set.capacity() as u64 * 9;
            stats.shard_max = stats.shard_max.max(n);
            stats.shard_min = stats.shard_min.min(n);
        }
        stats
    }
}
