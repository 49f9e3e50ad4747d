//! One run's outcome: operation counts, named metrics with units, and
//! the JSON result line.

use std::fmt::Write as _;

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`s`, `ns`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// What one run attempted, what failed, and what it measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations and self-checks attempted.
    pub attempted: u64,
    /// Those that failed: a wrong verdict or state count, a torn read, a
    /// lost write, or a count that did not repeat.
    pub failed: u64,
    /// One line per failure, for the human reader.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Threads (lock workloads) or explorer workers (model-check
    /// workloads) the run used.
    pub threads: usize,
    /// Whether every lock thread was pinned to its CPU (`None` where the
    /// workload pins nothing).
    pub pinned: Option<bool>,
}

impl Outcome {
    /// Record a measurement.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count one attempted operation or self-check; `ok == false` counts
    /// it as failed and keeps `what` for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// 1 − failed/attempted: the error rate turned around, so a clean run
    /// reads 1 rather than 0.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation and self-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// A finite `f64` as a JSON number with all its digits. Non-finite
/// values cannot be written as JSON numbers; callers only record finite
/// ones, so a non-finite value here is a benchmark bug.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}
