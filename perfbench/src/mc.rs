//! The model-check side: the time `modelcheck` takes to reach a verdict
//! on `A_f`, and, traced, where that time goes.
//!
//! * `mc-casloop-n3-crash2`: `explore_par` at 2 workers on `A_f(CasLoop)`
//!   with 3 readers, 1 writer, 1 passage, 2 crashes, write-back,
//!   symmetry quotient and the hash store. Mutual Exclusion only.
//! * The lock workloads' traced run profiles the same layers on how the
//!   model checker verifies their lock: the two `a_f` cases the `faulty`
//!   scenario preset generates, explored sequentially with the suite's
//!   probes. It is the only scenario under which the suite plans every
//!   probe.
//!
//! Every instance is exhaustive, so the seed does not change its input;
//! every exploration must reproduce the exact counts recorded here. The
//! seed shifts which transitions are sampled.
//!
//! An operation of the model checker is one transition: a step from a
//! visited state, its checks, and its visited-set lookup. The explorer
//! calls the public invariant hook once per transition; the untraced
//! run times the gap from one hook call to the next on one in
//! `2^OP_SHIFT` calls, and the traced run times each layer on one call
//! in `2^SAMPLE_SHIFT`.

use crate::hist::Hist;
use crate::host;
use crate::report::Outcome;
use crate::stats::{interquartile_mean, median, ratio, timed_secs, timer_overhead_ns};
use ccsim::{Protocol, Sim, Step};
use modelcheck::suite::{self, SuiteCase};
use modelcheck::{
    bounded_abort_invariant, bounded_exit_invariant, explore_par, explore_par_with, explore_with,
    post_crash_acquirability_invariant, CheckConfig, CheckError, CheckReport, Symmetry,
};
use rwcore::{
    af_world_custom, AfConfig, CounterKind, FPolicy, HelpOrder, LockRegistry, Scenario,
    SimInstance, SimLock,
};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload name: the CAS-loop `A_f` instance under two crashes.
pub const CASLOOP: &str = "mc-casloop-n3-crash2";

/// Explorer workers on the CAS-loop instance.
const WORKERS: usize = 2;

/// The untraced run times one transition in `2^OP_SHIFT`.
const OP_SHIFT: u32 = 4;

/// The untraced run takes latency quantiles per window of wall time and
/// reports their interquartile mean over windows, as the lock loop does,
/// so one disturbed stretch of a run moves them little.
const OP_WINDOW: Duration = Duration::from_secs(2);
/// Timed transitions a window needs to count: enough for its p99 to
/// have a hundred samples beyond it.
const OP_WINDOW_MIN: u64 = 10_000;

/// The traced run samples one invariant-hook call in `2^SAMPLE_SHIFT`.
const SAMPLE_SHIFT: u32 = 7;

/// Set-up batches timed before each pass, and set-ups per batch; the
/// run reports the median batch mean over the whole run.
const SETUP_BATCHES: usize = 25;
const SETUPS_PER_BATCH: usize = 40;

/// The counts an exploration must reproduce exactly.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Counts {
    /// Distinct states (orbits under the quotient).
    states: u64,
    /// Transitions executed.
    transitions: u64,
    /// Crash transitions among them.
    crash_transitions: u64,
}

impl Counts {
    fn of(r: &CheckReport) -> Counts {
        Counts {
            states: r.states_explored,
            transitions: r.transitions,
            crash_transitions: r.crash_transitions,
        }
    }
}

/// Recorded counts of the CAS-loop instance.
const CASLOOP_COUNTS: Counts = Counts {
    states: 1_588_408,
    transitions: 6_668_828,
    crash_transitions: 818_329,
};

/// Recorded counts of the `a_f` cases of the `faulty` preset, by
/// instance label.
const FAULTY_COUNTS: [(&str, Counts); 2] = [
    (
        "2r+1w",
        Counts {
            states: 443_995,
            transitions: 1_465_203,
            crash_transitions: 241_424,
        },
    ),
    (
        "2r+2w",
        Counts {
            states: 52_953,
            transitions: 178_068,
            crash_transitions: 0,
        },
    ),
];

/// The CAS-loop world: f = 1, so the three readers form one symmetry
/// class and the quotient has orbits to merge.
fn casloop_world() -> Sim {
    let cfg = AfConfig::new(3, 1).with_policy(FPolicy::One);
    af_world_custom(
        cfg,
        Protocol::WriteBack,
        HelpOrder::WaitersFirst,
        CounterKind::CasLoop,
    )
    .sim
}

/// The CAS-loop exploration limits.
fn casloop_config() -> CheckConfig {
    CheckConfig {
        passages_per_proc: 1,
        crash_budget: 2,
        max_states: 50_000_000,
        symmetry: Symmetry::Quotient,
        ..CheckConfig::default()
    }
}

type Probe = Box<dyn Fn(&Sim) -> Result<(), String> + Sync>;

/// The invariant probes, in the order `suite::run_case` attaches them,
/// with the property each checks and the metric it is timed under.
const PROBES: [(&str, &str); 3] = [
    ("bounded-exit", "modelcheck.probe.bounded_exit_ns"),
    ("post-crash-acquirability", "modelcheck.probe.post_crash_ns"),
    ("bounded-abort", "modelcheck.probe.bounded_abort_ns"),
];

/// The three probes, built from the public constructors with the `a_f`
/// twin's exit budget and `suite::budgets`, and which of them the
/// exploration runs as part of its check.
struct Probes {
    all: [Probe; 3],
    runs: [bool; 3],
}

impl Probes {
    fn new(sim: &dyn SimLock, properties: &[&str]) -> Probes {
        let exit = sim.exit_budget().expect("a_f has an exit budget");
        Probes {
            all: [
                Box::new(bounded_exit_invariant(exit)),
                Box::new(post_crash_acquirability_invariant(
                    suite::budgets::POST_CRASH,
                )),
                Box::new(bounded_abort_invariant(suite::budgets::ABORT)),
            ],
            runs: PROBES.map(|(property, _)| properties.contains(&property)),
        }
    }

    /// Run the probes the exploration checks; with `spans`, time each.
    fn check(&self, s: &Sim, spans: Option<&[Span; 3]>) -> Result<(), String> {
        for (i, p) in self.all.iter().enumerate() {
            if !self.runs[i] {
                continue;
            }
            match spans {
                Some(spans) => {
                    let t = Instant::now();
                    let r = p(s);
                    spans[i].add(t.elapsed(), 1);
                    r?;
                }
                None => p(s)?,
            }
        }
        Ok(())
    }
}

/// What an exploration explores.
enum Instance {
    /// The CAS-loop instance, through `explore_par`.
    CasLoop,
    /// A generated suite case on the `a_f` twin.
    Case {
        sim: Arc<dyn SimLock>,
        inst: SimInstance,
        case: SuiteCase,
    },
}

/// One exploration of a workload's model-check job.
struct Exploration {
    label: String,
    instance: Instance,
    probes: Probes,
    /// Passages per process the exploration allows.
    quota: u64,
    expected: Option<Counts>,
}

impl Exploration {
    /// Explore with `hook` called once per transition, besides the
    /// probes the exploration checks.
    fn explore(&self, hook: impl Fn(&Sim, &Probes) -> Result<(), String> + Sync) -> Explored {
        let probes = &self.probes;
        match &self.instance {
            Instance::CasLoop => explore_par_with(casloop_world, &casloop_config(), WORKERS, |s| {
                hook(s, probes)
            }),
            Instance::Case { sim, inst, case } => explore_with(
                || sim.build(inst, Protocol::WriteBack),
                &case.config,
                |s| hook(s, probes),
            ),
        }
    }

    /// Explore through the library's own entry point, with no hook.
    fn explore_plain(&self) -> Explored {
        match &self.instance {
            Instance::CasLoop => explore_par(casloop_world, &casloop_config(), WORKERS),
            Instance::Case { sim, inst, case } => {
                suite::run_case_seq(sim.as_ref(), inst, case, Protocol::WriteBack)
            }
        }
    }

    /// The root world.
    fn root(&self) -> Sim {
        match &self.instance {
            Instance::CasLoop => casloop_world(),
            Instance::Case { sim, inst, .. } => sim.build(inst, Protocol::WriteBack),
        }
    }
}

type Explored = Result<CheckReport, CheckError>;

/// The explorations of `workload`'s model-check job, in order.
fn explorations(workload: &str) -> Vec<Exploration> {
    let reg = LockRegistry::builtin();
    let sim = reg
        .get("a_f")
        .and_then(|e| e.sim.clone())
        .expect("a_f has a sim twin");
    if workload == CASLOOP {
        let quota = casloop_config().passages_per_proc;
        return vec![Exploration {
            label: CASLOOP.to_string(),
            instance: Instance::CasLoop,
            probes: Probes::new(sim.as_ref(), &["mutual-exclusion"]),
            quota,
            expected: Some(CASLOOP_COUNTS),
        }];
    }
    let faulty = Scenario::named()
        .into_iter()
        .find(|n| n.name == "faulty")
        .expect("the faulty preset is registered")
        .scenario;
    suite::planned_cases(&reg, &faulty, &CheckConfig::default())
        .into_iter()
        .filter(|(id, _, _)| id == "a_f")
        .map(|(_, inst, case)| Exploration {
            label: case.describe(),
            probes: Probes::new(sim.as_ref(), &case.properties),
            quota: case.config.passages_per_proc,
            expected: FAULTY_COUNTS
                .iter()
                .find(|(l, _)| *l == inst.label)
                .map(|&(_, c)| c),
            instance: Instance::Case {
                sim: Arc::clone(&sim),
                inst,
                case,
            },
        })
        .collect()
}

/// Explorer workers `workload`'s model-check job runs on.
fn workers_of(workload: &str) -> usize {
    if workload == CASLOOP {
        WORKERS
    } else {
        1
    }
}

/// Everything a pass needs before its first state: the planned
/// explorations and their root worlds.
fn set_up(workload: &str) {
    for x in explorations(workload) {
        black_box(x.root());
    }
}

/// Count one exploration: it must be safe, complete, and reproduce the
/// recorded counts exactly.
fn check_exploration(out: &mut Outcome, x: &Exploration, result: Explored) -> Option<CheckReport> {
    match result {
        Ok(r) => {
            let got = Counts::of(&r);
            out.check(r.complete && Some(got) == x.expected, || {
                format!(
                    "{}: expected {:?}, got {got:?} (complete: {})",
                    x.label, x.expected, r.complete
                )
            });
            Some(r)
        }
        Err(e) => {
            out.check(false, || format!("{}: unexpected violation: {e}", x.label));
            None
        }
    }
}

/// The explorations of one pass over a job, timed as a whole.
struct Pass {
    secs: f64,
    reports: Vec<CheckReport>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&CheckReport) -> u64) -> u64 {
        self.reports.iter().map(f).sum()
    }

    fn counts(&self) -> Vec<Counts> {
        self.reports.iter().map(Counts::of).collect()
    }
}

/// One pass over `xs`, each exploration run by `explore`.
fn pass(out: &mut Outcome, xs: &[Exploration], explore: impl Fn(&Exploration) -> Explored) -> Pass {
    let mut secs = 0.0;
    let mut reports = Vec::new();
    for x in xs {
        let t0 = Instant::now();
        let r = explore(x);
        secs += t0.elapsed().as_secs_f64();
        reports.extend(check_exploration(out, x, r));
    }
    Pass { secs, reports }
}

thread_local! {
    /// Hook calls seen by this thread.
    static TICK: Cell<u64> = const { Cell::new(0) };
    /// The open timed gap on this thread: the exploration it belongs to
    /// and when it started.
    static GAP: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

/// Whether this thread's current hook call is one in `2^shift`; `phase`
/// shifts which calls.
fn tick(phase: u64, shift: u32) -> bool {
    TICK.with(|t| {
        let n = t.get();
        t.set(n.wrapping_add(1));
        n.wrapping_add(phase) & ((1 << shift) - 1) == 0
    })
}

/// Per-transition latency, timed from a sampled hook call to the same
/// thread's next one, in windows of [`OP_WINDOW`] from `start`.
struct OpLatency {
    start: Instant,
    windows: Mutex<Vec<Hist>>,
    /// Bumped before each exploration, so a gap left open by the last
    /// one is dropped rather than timed across the set-up between them.
    exploration: AtomicU64,
}

impl OpLatency {
    fn new() -> OpLatency {
        OpLatency {
            start: Instant::now(),
            windows: Mutex::new(Vec::new()),
            exploration: AtomicU64::new(0),
        }
    }

    fn next_exploration(&self) {
        self.exploration.fetch_add(1, Ordering::Relaxed);
    }

    fn on_transition(&self, phase: u64) {
        let sampled = tick(phase, OP_SHIFT);
        let open = GAP.with(Cell::take);
        if open.is_none() && !sampled {
            return;
        }
        let now = Instant::now();
        let current = self.exploration.load(Ordering::Relaxed);
        if let Some((x, t0)) = open {
            if x == current {
                let w = ((t0 - self.start).as_secs_f64() / OP_WINDOW.as_secs_f64()) as usize;
                let mut windows = self.windows.lock().unwrap_or_else(|e| e.into_inner());
                if windows.len() <= w {
                    windows.resize_with(w + 1, Hist::default);
                }
                windows[w].record((now - t0).as_nanos() as u64);
            }
        }
        if sampled {
            GAP.with(|g| g.set(Some((current, now))));
        }
    }

    /// The `p` quantile: the interquartile mean over full windows, or,
    /// in a run too short to fill one, over everything timed.
    fn quantile(&self, p: f64) -> f64 {
        let windows = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        let full: Vec<f64> = windows
            .iter()
            .filter(|h| h.count() >= OP_WINDOW_MIN)
            .filter_map(|h| h.quantile(p))
            .collect();
        if !full.is_empty() {
            return interquartile_mean(&full);
        }
        let mut all = Hist::default();
        windows.iter().for_each(|h| all.merge(h));
        all.quantile(p).unwrap_or(0.0)
    }
}

/// The untraced run: repeat whole passes for about `seconds`, reporting
/// transitions per second over all of them and the latency of one
/// transition.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: workers_of(workload),
        ..Outcome::default()
    };
    let latency = OpLatency::new();
    let hooked = |x: &Exploration| {
        latency.next_exploration();
        x.explore(|s, probes| {
            latency.on_transition(seed);
            probes.check(s, None)
        })
    };
    // Whole passes until the next one would end further past `seconds`
    // than stopping now falls short of it.
    let start = Instant::now();
    let mut setups = Vec::new();
    let (mut transitions, mut secs) = (0u64, 0.0);
    loop {
        setups.extend((0..SETUP_BATCHES).map(|_| {
            timed_secs(|| (0..SETUPS_PER_BATCH).for_each(|_| set_up(workload)))
                / SETUPS_PER_BATCH as f64
        }));
        let xs = explorations(workload);
        let p = pass(&mut out, &xs, hooked);
        transitions += p.sum(|r| r.transitions);
        secs += p.secs;
        if start.elapsed().as_secs_f64() + p.secs / 2.0 >= seconds {
            break;
        }
    }
    out.push("setup_s", median(&setups), "s");
    out.push("success_rate", out.success_rate(), "ratio");
    out.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.push("ops_per_s", transitions as f64 / secs, "1/s");
    out.push("op_p50_ns", latency.quantile(0.5), "ns");
    out.push("op_p99_ns", latency.quantile(0.99), "ns");
    out
}

/// Sampled time of one layer: total ns over the timed intervals, and
/// the calls they covered.
#[derive(Default)]
struct Span {
    ns: AtomicU64,
    intervals: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Record one timed interval that covered `calls` calls.
    fn add(&self, d: Duration, calls: u64) {
        self.ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.intervals.fetch_add(1, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Time `calls` back-to-back calls of `f` as one interval.
    fn time<T>(&self, calls: u64, mut f: impl FnMut() -> T) {
        let t = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        self.add(t.elapsed(), calls);
    }

    /// Total ns, less the timer's own cost `floor` per interval.
    fn net_ns(&self, floor: f64) -> f64 {
        let ns = self.ns.load(Ordering::Relaxed) as f64;
        (ns - floor * self.intervals.load(Ordering::Relaxed) as f64).max(0.0)
    }

    /// Mean ns per call, less the timer's own cost.
    fn mean_ns(&self, floor: f64) -> f64 {
        ratio(
            self.net_ns(floor),
            self.calls.load(Ordering::Relaxed) as f64,
        )
    }
}

/// Calls per timed interval for the two fingerprints. The plain one
/// costs a few ns, and the canonical one does too on a world without
/// symmetry classes: one call alone would be lost under the timer's own
/// cost.
const FINGERPRINT_CALLS: u64 = 256;
const CANONICAL_FINGERPRINT_CALLS: u64 = 16;

/// Layer times sampled through the invariant hook.
#[derive(Default)]
struct Layers {
    samples: AtomicU64,
    clone: Span,
    step: Span,
    fingerprint_canonical: Span,
    canonical_vec: Span,
    fingerprint: Span,
    check_mx: Span,
    /// The probes the explorations check, timed on sampled calls; a
    /// probe no exploration checks reads 0.
    probes: [Span; 3],
}

thread_local! {
    /// A world to clone into and step, and a canonical-vector buffer.
    static SCRATCH: RefCell<(Option<Sim>, Vec<u64>)> = const { RefCell::new((None, Vec::new())) };
}

impl Layers {
    /// Time each ccsim layer on `s`: the Mutual Exclusion check, the
    /// three state keys, and — once per process the explorer would
    /// schedule — a world clone and a step.
    fn sample(&self, s: &Sim, quota: u64) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.check_mx.time(1, || s.check_mutual_exclusion().is_ok());
        self.fingerprint.time(FINGERPRINT_CALLS, || s.fingerprint());
        self.fingerprint_canonical
            .time(CANONICAL_FINGERPRINT_CALLS, || s.fingerprint_canonical());
        SCRATCH.with(|cell| {
            let (world, vec) = &mut *cell.borrow_mut();
            self.canonical_vec.time(1, || {
                vec.clear();
                s.canonical_vec(vec);
                vec.len()
            });
            let dst = world.get_or_insert_with(|| s.clone_world());
            for p in s.proc_ids() {
                let enabled = match s.poll(p) {
                    Step::Op(_) | Step::Cs => true,
                    Step::Remainder => s.stats(p).passages < quota,
                };
                if !enabled {
                    continue;
                }
                self.clone.time(1, || s.clone_world_into(dst));
                self.step.time(1, || dst.step(p));
            }
        });
    }
}

/// The traced run's model-check part: one plain pass through the
/// library's entry points, one hooked pass that samples each layer
/// (whose counts must match the plain pass's), and the per-layer
/// metrics they give.
pub fn profile(workload: &str, seed: u64, out: &mut Outcome) {
    let workers = workers_of(workload);
    let floor = timer_overhead_ns();
    let xs = explorations(workload);
    let plain = pass(out, &xs, Exploration::explore_plain);
    let layers = Layers::default();
    let traced = pass(out, &xs, |x| {
        let quota = x.quota;
        x.explore(|s, probes| {
            if !tick(seed, SAMPLE_SHIFT) {
                return probes.check(s, None);
            }
            layers.sample(s, quota);
            probes.check(s, Some(&layers.probes))
        })
    });
    out.check(plain.counts() == traced.counts(), || {
        format!(
            "traced counts {:?} differ from untraced {:?}",
            traced.counts(),
            plain.counts()
        )
    });

    let states = traced.sum(|r| r.states_explored) as f64;
    let transitions = traced.sum(|r| r.transitions) as f64;
    let entries = traced.sum(|r| r.visited.entries) as f64;
    let bytes = traced.sum(|r| r.visited.resident_bytes) as f64;
    let skew = traced
        .reports
        .iter()
        .filter_map(|r| r.visited.shard_skew())
        .fold(1.0, f64::max);

    let clone = layers.clone.mean_ns(floor);
    let step = layers.step.mean_ns(floor);
    let check_mx = layers.check_mx.mean_ns(floor);
    let key = if workload == CASLOOP {
        layers.fingerprint_canonical.mean_ns(floor)
    } else {
        layers.fingerprint.mean_ns(floor)
    };
    // Each sampled hook call stands for 2^SAMPLE_SHIFT calls, and the
    // explorer calls the hook once per transition.
    let scale = f64::from(1u32 << SAMPLE_SHIFT);
    let probe_ns: f64 = layers.probes.iter().map(|p| p.net_ns(floor)).sum::<f64>() * scale;
    let cpu_ns = traced.secs * 1e9 * workers as f64;
    let layer_ns = transitions * (clone + step + check_mx + key) + probe_ns;

    out.push("ccsim.clone_world_ns", clone, "ns");
    out.push("ccsim.step_ns", step, "ns");
    out.push(
        "ccsim.fingerprint_canonical_ns",
        layers.fingerprint_canonical.mean_ns(floor),
        "ns",
    );
    out.push(
        "ccsim.canonical_vec_ns",
        layers.canonical_vec.mean_ns(floor),
        "ns",
    );
    out.push(
        "ccsim.fingerprint_ns",
        layers.fingerprint.mean_ns(floor),
        "ns",
    );
    out.push("ccsim.check_mx_ns", check_mx, "ns");
    for (span, (_, name)) in layers.probes.iter().zip(PROBES) {
        out.push(name, span.mean_ns(floor), "ns");
    }
    out.push(
        "modelcheck.probe_share",
        ratio(probe_ns, traced.secs * 1e9),
        "ratio",
    );
    out.push("modelcheck.timer_floor_ns", floor, "ns");
    out.push("modelcheck.cpu_ns_per_state", cpu_ns / states, "ns");
    out.push(
        "modelcheck.residual_ns_per_state",
        (cpu_ns - layer_ns) / states,
        "ns",
    );
    out.push(
        "modelcheck.layer_samples",
        layers.samples.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.push("modelcheck.states", states, "count");
    out.push("modelcheck.transitions", transitions, "count");
    out.push(
        "modelcheck.transitions_per_state",
        transitions / states,
        "ratio",
    );
    out.push(
        "modelcheck.crash_transitions",
        traced.sum(|r| r.crash_transitions) as f64,
        "count",
    );
    out.push("modelcheck.visited_entries", entries, "count");
    out.push(
        "modelcheck.visited_bytes_per_state",
        ratio(bytes, entries),
        "B",
    );
    out.push("modelcheck.visited_shard_skew", skew, "ratio");
    out.push(
        "modelcheck.tracing_overhead",
        traced.secs / plain.secs - 1.0,
        "ratio",
    );
}
