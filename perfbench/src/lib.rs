//! The repository's benchmark: three workloads that time what users wait
//! on — the model checker reaching a verdict on `A_f`, and the real `A_f`
//! lock's passages — plus a traced mode that breaks each workload down
//! by layer.
//!
//! Every layer is measured from outside, through public functions of
//! `ccsim`, `fcounter`, `wmutex`, `rwcore` and `modelcheck`; the
//! benchmark changes no program code. `README.md` in this directory has
//! the layer map: which end-to-end metric each per-layer metric should
//! move, and on which workload.

pub mod hist;
pub mod host;
pub mod lock;
mod mc;
pub mod report;
mod stats;

pub use report::Outcome;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = [mc::CASLOOP, lock::READ_MOSTLY, lock::WRITE_HEAVY];

/// Run one workload for about `seconds` seconds of measurement. With
/// `trace` the run reports per-layer metrics instead of end-to-end ones.
///
/// Every workload reports every end-to-end metric, and every traced run
/// every per-layer metric: the traced run profiles the workload's
/// model-check job (a lock workload's is the `faulty` suite of its lock)
/// and the lock layers, which are the same code under any mix.
///
/// # Errors
/// An unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(match (trace, workload == mc::CASLOOP) {
        (false, true) => mc::run(workload, seed, seconds),
        (false, false) => lock::run(workload, seed, seconds),
        (true, _) => {
            let mut out = Outcome {
                threads: 2,
                ..Outcome::default()
            };
            mc::profile(workload, seed, &mut out);
            out.pinned = Some(lock::layers(&mut out));
            out
        }
    })
}
