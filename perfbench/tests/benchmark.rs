//! The benchmark's own checks. Run them optimized:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The model-check workloads explore their full instances even in a
//! short run, which takes about a minute optimized.

use perfbench::lock::{run_loop, Stop, READ_MOSTLY, WRITE_HEAVY};
use perfbench::{run, Outcome, WORKLOADS};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The workloads pin threads and use both CPUs of a small host; run
/// them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(reads, writes)` of a closed loop with a fixed per-thread op budget.
fn op_counts(workload: &str, seed: u64) -> (u64, u64) {
    let r = run_loop(workload, seed, Stop::Ops(4_000));
    assert_eq!(
        (r.torn_reads, r.lost_writes),
        (0, 0),
        "{workload} seed {seed}"
    );
    let all = r.total();
    (all.reads, all.writes)
}

#[test]
fn lock_op_mix_follows_the_seed() {
    let _g = serial();
    for workload in [READ_MOSTLY, WRITE_HEAVY] {
        let a = op_counts(workload, 7);
        assert_eq!(
            a.0 + a.1,
            8_000,
            "{workload}: both threads spend their budget"
        );
        assert_eq!(a, op_counts(workload, 7), "{workload}: same seed, same mix");
    }
    // An even mix makes the counts of two seeds differ.
    assert_ne!(op_counts(WRITE_HEAVY, 7), op_counts(WRITE_HEAVY, 8));
}

/// The metric names one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> BTreeSet<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section's list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("names are quoted")].to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn short_run(workload: &str, trace: bool) -> Outcome {
    let out = run(workload, 1, 0.2, trace).expect("known workload");
    assert!(
        out.correct(),
        "{workload} (trace {trace}): {} of {} failed: {:?}",
        out.failed,
        out.attempted,
        out.failures
    );
    assert_eq!(out.failed, 0, "{workload}: error rate 0");
    out
}

#[test]
fn every_workload_runs_clean_and_prints_every_declared_metric_once() {
    let _g = serial();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = declared(section);
        assert!(!names.is_empty());
        for workload in WORKLOADS {
            let out = short_run(workload, trace);
            let mut printed = BTreeSet::new();
            for m in &out.metrics {
                assert!(
                    well_formed(&m.name),
                    "{workload}: bad metric name {:?}",
                    m.name
                );
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                assert!(
                    printed.insert(m.name.clone()),
                    "{workload}: {} printed twice",
                    m.name
                );
            }
            assert_eq!(
                printed, names,
                "{workload} (trace {trace}) prints exactly the {section} metrics"
            );
            if !trace {
                assert_eq!(out.get("success_rate"), Some(1.0), "{workload}");
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{workload}: {} reads 0", m.name);
                }
            }
            // The JSON result line has exactly the four keys.
            let line = out.result_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("no-such-workload", 1, 1.0, false).is_err());
}
