//! The host class a run was measured on, and its peak memory.
//!
//! Records from different host classes are not comparable: a 2-thread
//! lock loop on one CPU measures preemption, not the lock. Every run
//! prints its host stamp, and `compare.py` refuses to diff two records
//! whose host classes differ.

/// CPUs available to this process.
pub fn ncpu() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host stamp of one run.
#[derive(Clone, Debug)]
pub struct HostClass {
    /// CPUs available to the process.
    pub ncpu: usize,
    /// Lock threads or explorer workers the workload used.
    pub threads: usize,
    /// Whether pinning succeeded for every lock thread (`None`: the
    /// workload pins nothing).
    pub pinned: Option<bool>,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// The commit measured, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostClass {
    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        let pinned = match self.pinned {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"ncpu\": {}, \"threads\": {}, \"pinned\": {pinned}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.ncpu,
            self.threads,
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}
