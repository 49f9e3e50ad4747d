//! # wmutex — the writer-side mutual-exclusion substrate
//!
//! The `A_f` reader-writer locks of Hendler (PODC 2016) serialize writers
//! with `WL`, an m-process starvation-free read/write mutex with
//! logarithmic RMR complexity and Bounded Exit (the paper cites
//! Yang–Anderson \[21\]). This crate provides that substrate as a Peterson
//! tournament tree — the same `Θ(log m)` RMR complexity in the CC model,
//! from reads and writes only — in two forms:
//!
//! * [`TournamentLock`] — real atomics, used by the production lock;
//! * [`SimTournament`] / [`EnterMachine`] / [`ExitMachine`] /
//!   [`MutexClient`] — `ccsim` step machines for RMR measurement and
//!   model checking.
//!
//! [`ClhLock`] and [`TicketLock`] are queue-lock baselines for the
//! throughput benches.
//!
//! Every real lock in the workspace waits through [`wait_until`], which
//! spins briefly, then yields, and gives up per its [`Budget`].
//!
//! ```
//! use wmutex::{IdMutex, TournamentLock};
//! let wl = TournamentLock::new(8);
//! wl.lock(3);
//! // ... critical section ...
//! wl.unlock(3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod real;
mod sim;
pub mod wait;

pub use real::{ClhLock, IdMutex, TicketLock, TournamentLock};
pub use sim::{mutex_world, EnterMachine, ExitMachine, MutexClient, SimTournament};
pub use wait::{wait_until, Budget};
