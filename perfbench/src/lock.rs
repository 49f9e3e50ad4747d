//! The lock workloads: a closed loop of pinned threads on the real `A_f`
//! lock, and, for every traced run, each lock layer timed per call.
//!
//! Thread `t` is reader `t` and writer `t` of
//! `RawAfLock::new(AfConfig::new(2, 2))`, built as the registry's `a_f`
//! entry builds it. Each thread draws its next operation from the
//! scenario's read/write mix with a `Prng` seeded from the run's seed,
//! as `bench::throughput` does, and starts it as soon as the previous
//! one returns. The critical section is checked: a writer stores a
//! two-word record with both halves set to one value and bumps a
//! counter; a reader loads both halves, and a mismatch is a torn read. A
//! final counter that differs from the number of completed writes is a
//! lost write.
//!
//! An operation is one passage, read or write. The measured time is cut
//! into windows; each metric is the interquartile mean over windows, so
//! one disturbed window moves it little.

use crate::hist::Hist;
use crate::host;
use crate::report::Outcome;
use crate::stats::{interquartile_mean, median, ns_per_call, timed_secs};
use bench::measure_af;
use bench::pin::pin_to_cpu;
use bench::throughput::{MixedWorkload, OpBudget};
use ccsim::{run_solo, Phase, Prng, Protocol, Role};
use fcounter::FArray;
use rwcore::{AfConfig, LockRegistry, RawAfLock, RealShape, Scenario, SimInstance};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use wmutex::{IdMutex, TournamentLock};

/// Workload name: read-mostly mix, the reader fast path dominates.
pub const READ_MOSTLY: &str = "lock-af-read-mostly";
/// Workload name: even mix, the writer path is busy.
pub const WRITE_HEAVY: &str = "lock-af-write-heavy";

/// Threads in the closed loop.
const THREADS: usize = 2;

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);
/// Unmeasured warm-up before the first window.
const WARMUP: Duration = Duration::from_millis(500);
/// Set-up batches timed before the measured loop, and again after it,
/// and lock constructions per batch; the run reports the median batch
/// mean of all of them.
const SETUP_BATCHES: usize = 21;
const SETUPS_PER_BATCH: usize = 256;

/// The workload's scenario, in the `rwcore::scenario` DSL.
fn scenario_of(workload: &str) -> Scenario {
    let spec = if workload == READ_MOSTLY {
        "r1000:1"
    } else {
        "r1:1"
    };
    spec.parse().expect("workload scenarios parse")
}

/// When the loop's threads stop.
#[derive(Copy, Clone, Debug)]
pub enum Stop {
    /// After this many operations per thread, in one window.
    Ops(u64),
    /// After a warm-up and this many timed windows.
    Windows(usize),
}

/// The counts and latencies of one window, summed over threads.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall time of the window.
    pub secs: f64,
    /// Completed read passages.
    pub reads: u64,
    /// Completed write passages.
    pub writes: u64,
    /// Read passage latencies, ns.
    pub read_hist: Hist,
    /// Write passage latencies, ns.
    pub write_hist: Hist,
}

impl Window {
    fn merge(&mut self, other: &Window) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hist.merge(&other.read_hist);
        self.write_hist.merge(&other.write_hist);
    }
}

/// What one run of the closed loop did.
#[derive(Debug)]
pub struct LoopResult {
    /// The timed windows (one window for [`Stop::Ops`]).
    pub windows: Vec<Window>,
    /// Reads that saw the two halves of the record differ.
    pub torn_reads: u64,
    /// Completed writes the final record counter does not show.
    pub lost_writes: u64,
    /// Whether every thread was pinned to its own CPU.
    pub pinned: bool,
}

impl LoopResult {
    /// All timed windows merged.
    pub fn total(&self) -> Window {
        let mut all = Window::default();
        for w in &self.windows {
            all.merge(w);
            all.secs += w.secs;
        }
        all
    }
}

/// The record the critical section writes and checks.
#[repr(align(128))]
#[derive(Default)]
struct Record {
    lo: AtomicU64,
    hi: AtomicU64,
    writes: AtomicU64,
}

/// Sentinel window index telling the threads to stop.
const STOP: usize = usize::MAX;

/// Run the closed loop of `workload` under `seed`.
pub fn run_loop(workload: &str, seed: u64, stop: Stop) -> LoopResult {
    let budget = match stop {
        Stop::Ops(n) => OpBudget::PerThreadOps(n),
        Stop::Windows(n) => OpBudget::Duration(WARMUP + WINDOW * n as u32),
    };
    let wl = MixedWorkload::from_scenario(scenario_of(workload), THREADS, budget, true, seed);
    let ncpu = host::ncpu();
    let n_windows = match stop {
        Stop::Ops(_) => 1,
        Stop::Windows(n) => n,
    };

    let lock = new_lock();
    let record = Record::default();
    // The window the threads record into: 0 is the warm-up, STOP ends
    // the run.
    let window = AtomicUsize::new(0);
    let ready = Barrier::new(wl.threads + 1);
    let torn = AtomicU64::new(0);

    let (boundaries, takes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..wl.threads)
            .map(|t| {
                let (lock, record, window, ready, torn) = (&lock, &record, &window, &ready, &torn);
                let scenario = wl.scenario;
                scope.spawn(move || {
                    let pinned = !wl.pin || pin_to_cpu(t % ncpu).is_ok();
                    // Slot 0 is the warm-up (or the whole Ops run). Slots
                    // are added as windows open, outside the timed op.
                    let mut slots: Vec<Window> = vec![Window::default()];
                    let mut rng = Prng::new(wl.seed.wrapping_add(t as u64));
                    let mut prev_read = None;
                    let mut my_torn = 0u64;
                    let quota = match stop {
                        Stop::Ops(n) => n,
                        Stop::Windows(_) => u64::MAX,
                    };
                    let mut done = 0u64;
                    ready.wait();
                    while done < quota {
                        let w = window.load(Ordering::Relaxed);
                        if w == STOP {
                            break;
                        }
                        if w >= slots.len() {
                            slots.resize_with(w + 1, Window::default);
                        }
                        let is_read = match prev_read {
                            Some(prev) if scenario.burst.fires(&mut rng) => prev,
                            _ => scenario.draw_read(&mut rng),
                        };
                        prev_read = Some(is_read);
                        let start = Instant::now();
                        if is_read {
                            lock.reader_lock(t);
                            let lo = record.lo.load(Ordering::Relaxed);
                            let hi = record.hi.load(Ordering::Relaxed);
                            lock.reader_unlock(t);
                            my_torn += u64::from(lo != hi);
                        } else {
                            lock.writer_lock(t);
                            let v = record.writes.load(Ordering::Relaxed) + 1;
                            record.lo.store(v, Ordering::Relaxed);
                            record.hi.store(v, Ordering::Relaxed);
                            record.writes.store(v, Ordering::Relaxed);
                            lock.writer_unlock(t);
                        }
                        let ns = start.elapsed().as_nanos() as u64;
                        let slot = &mut slots[w];
                        if is_read {
                            slot.reads += 1;
                            slot.read_hist.record(ns);
                        } else {
                            slot.writes += 1;
                            slot.write_hist.record(ns);
                        }
                        done += 1;
                    }
                    torn.fetch_add(my_torn, Ordering::Relaxed);
                    (slots, pinned)
                })
            })
            .collect();
        ready.wait();
        let mut boundaries = vec![Instant::now()];
        if let Stop::Windows(n) = stop {
            std::thread::sleep(WARMUP);
            boundaries[0] = Instant::now();
            window.store(1, Ordering::Relaxed);
            for w in 1..=n {
                std::thread::sleep(WINDOW);
                boundaries.push(Instant::now());
                window.store(if w == n { STOP } else { w + 1 }, Ordering::Relaxed);
            }
        }
        let takes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("lock loop thread panicked"))
            .collect();
        if let Stop::Ops(_) = stop {
            boundaries.push(Instant::now());
        }
        (boundaries, takes)
    });

    // Merge the threads' slots window by window; the Ops run keeps its
    // single slot 0, the timed run drops the warm-up slot.
    let first = match stop {
        Stop::Ops(_) => 0,
        Stop::Windows(_) => 1,
    };
    let mut windows: Vec<Window> = (0..n_windows).map(|_| Window::default()).collect();
    let mut pinned = true;
    let mut writes = 0u64;
    for (slots, p) in &takes {
        pinned &= *p;
        for (i, slot) in slots.iter().enumerate() {
            writes += slot.writes;
            if i >= first && i - first < n_windows {
                windows[i - first].merge(slot);
            }
        }
    }
    for (i, w) in windows.iter_mut().enumerate() {
        w.secs = (boundaries[i + 1] - boundaries[i]).as_secs_f64();
    }
    let counted = record.writes.load(Ordering::Relaxed);
    LoopResult {
        windows,
        torn_reads: torn.load(Ordering::Relaxed),
        lost_writes: writes.abs_diff(counted),
        pinned,
    }
}

/// Count the loop's passages as operations: a torn read or a lost write
/// fails one.
fn check_loop(out: &mut Outcome, r: &LoopResult) {
    let all: u64 = r.windows.iter().map(|w| w.reads + w.writes).sum();
    out.attempted += all;
    for (n, what) in [(r.torn_reads, "torn reads"), (r.lost_writes, "lost writes")] {
        if n > 0 {
            out.failed += n;
            out.failures.push(format!("{n} {what}"));
        }
    }
}

/// The lock as the registry's `a_f` entry builds it for 2 threads.
fn new_lock() -> RawAfLock {
    RawAfLock::new(AfConfig::new(THREADS, THREADS))
}

/// The untraced run: measure windows for `seconds`, with the lock's
/// construction timed before and after for the median set-up time.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let set_up = || {
        timed_secs(|| (0..SETUPS_PER_BATCH).for_each(|_| drop(black_box(new_lock()))))
            / SETUPS_PER_BATCH as f64
    };
    let mut setups: Vec<f64> = (0..SETUP_BATCHES).map(|_| set_up()).collect();
    let n = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
    let r = run_loop(workload, seed, Stop::Windows(n));
    setups.extend((0..SETUP_BATCHES).map(|_| set_up()));

    let mut out = Outcome {
        threads: THREADS,
        pinned: Some(r.pinned),
        ..Outcome::default()
    };
    check_loop(&mut out, &r);
    let per_window = |f: &dyn Fn(&Window) -> f64| {
        let xs: Vec<f64> = r.windows.iter().map(f).collect();
        interquartile_mean(&xs)
    };
    // An operation is one passage, read or write, as the mix drew it.
    let op_quantile = |w: &Window, p: f64| {
        let mut h = w.read_hist.clone();
        h.merge(&w.write_hist);
        h.quantile(p).unwrap_or(0.0)
    };
    out.push("setup_s", median(&setups), "s");
    out.push("success_rate", out.success_rate(), "ratio");
    out.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.push(
        "ops_per_s",
        per_window(&|w| (w.reads + w.writes) as f64 / w.secs),
        "1/s",
    );
    out.push("op_p50_ns", per_window(&|w| op_quantile(w, 0.5)), "ns");
    out.push("op_p99_ns", per_window(&|w| op_quantile(w, 0.99)), "ns");
    out
}

/// Run `measure(t)` on `THREADS` pinned threads at once and return
/// each thread's result, and whether every thread was pinned. A thread that has finished measuring keeps
/// calling `keep_busy(t)` until every thread has, so no thread's
/// measurement ends running solo.
fn contended(
    measure: impl Fn(usize) -> f64 + Sync,
    keep_busy: impl Fn(usize) + Sync,
) -> (Vec<f64>, bool) {
    let ncpu = host::ncpu();
    let start = Barrier::new(THREADS);
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (start, finished, measure, keep_busy) =
                    (&start, &finished, &measure, &keep_busy);
                scope.spawn(move || {
                    // Unpinned threads still contend; pinning only steadies them.
                    let pinned = pin_to_cpu(t % ncpu).is_ok();
                    start.wait();
                    let ns = measure(t);
                    finished.fetch_add(1, Ordering::Relaxed);
                    while finished.load(Ordering::Relaxed) < THREADS {
                        keep_busy(t);
                    }
                    (ns, pinned)
                })
            })
            .collect();
        let takes: Vec<(f64, bool)> = handles
            .into_iter()
            .map(|h| h.join().expect("contended layer thread panicked"))
            .collect();
        (
            takes.iter().map(|&(ns, _)| ns).collect(),
            takes.iter().all(|&(_, p)| p),
        )
    })
}

/// Batches per layer timing, and calls per batch.
const BATCHES: usize = 200;
const CALLS: usize = 500;

/// Solo passage RMRs of the `a_f` sim twin at 2 readers + 2 writers,
/// from cold caches: (reader entry, reader exit, writer entry, writer
/// exit).
fn solo_rmrs() -> [u64; 4] {
    let reg = LockRegistry::builtin();
    let sim = reg
        .get("a_f")
        .and_then(|e| e.sim.clone())
        .expect("a_f has a sim twin");
    let inst = SimInstance::new(2, 2);
    let mut out = [0u64; 4];
    for (k, role) in [Role::Reader, Role::Writer].into_iter().enumerate() {
        let mut world = sim.build(&inst, Protocol::WriteBack);
        let p = world
            .proc_ids()
            .find(|&p| world.role(p) == role)
            .expect("the instance has both roles");
        run_solo(&mut world, p, 1_000_000, |s| s.stats(p).passages >= 1)
            .expect("a solo passage completes");
        out[2 * k] = world.stats(p).rmrs_in(Phase::Entry);
        out[2 * k + 1] = world.stats(p).rmrs_in(Phase::Exit);
    }
    out
}

/// Recorded solo RMRs: reader entry, reader exit, writer entry, writer
/// exit.
const SOLO_RMRS: [u64; 4] = [2, 0, 9, 1];
/// Recorded worst per-reader mean passage RMRs with every process
/// passing concurrently (`bench::rmr::measure_af` at 2r+2w).
const READER_CONCURRENT_MAX_RMRS: u64 = 2;

/// Registry locks whose solo read passage is reported as a yardstick.
const YARDSTICKS: [&str; 4] = [
    "a_f-gated",
    "a_f-sharded",
    "busy-forbidden",
    "faa-indicator",
];

/// The traced run's lock part: each lock layer timed per call, solo and
/// on two threads, and the exact RMR counts of the sim twin. The layers
/// are the same code under either mix, so this part does not depend on
/// the workload. Returns whether every contended thread was pinned.
pub fn layers(out: &mut Outcome) -> bool {
    // Layers, solo.
    let cfg = AfConfig::new(THREADS, THREADS);
    let farray = FArray::new(cfg.group_size());
    let add = ns_per_call(BATCHES, CALLS / 2, || {
        farray.add(0, 1);
        farray.add(0, -1);
    }) / 2.0;
    let read = ns_per_call(BATCHES, CALLS, || {
        black_box(farray.read());
    });
    let wl = TournamentLock::new(THREADS);
    let tournament = ns_per_call(BATCHES, CALLS, || {
        wl.lock(0);
        wl.unlock(0);
    });
    let af = RawAfLock::new(cfg);
    let read_pass = ns_per_call(BATCHES, CALLS, || {
        af.reader_lock(0);
        af.reader_unlock(0);
    });
    let write_pass = ns_per_call(BATCHES, CALLS, || {
        af.writer_lock(0);
        af.writer_unlock(0);
    });
    // A solo write pass reads every group's C twice (lines 13 and 20).
    let handshake = write_pass - tournament - 2.0 * af.groups() as f64 * read;
    out.push("fcounter.add_ns", add, "ns");
    out.push("fcounter.read_ns", read, "ns");
    out.push("wmutex.tournament_pass_ns", tournament, "ns");
    out.push("rwcore.af.read_pass_ns", read_pass, "ns");
    out.push("rwcore.af.write_pass_ns", write_pass, "ns");
    out.push("rwcore.af.handshake_ns", handshake, "ns");

    // Layers, contended on two threads. On the f-array, thread 0 adds
    // as a reader does while thread 1 reads as a writer does.
    let farray = FArray::new(cfg.group_size());
    let flip = || {
        farray.add(0, 1);
        farray.add(0, -1);
    };
    let (fc, mut pinned) = contended(
        |t| {
            if t == 0 {
                ns_per_call(BATCHES, CALLS / 2, flip) / 2.0
            } else {
                ns_per_call(BATCHES, CALLS, || {
                    black_box(farray.read());
                })
            }
        },
        |t| {
            if t == 0 {
                flip();
            } else {
                black_box(farray.read());
            }
        },
    );
    out.push("fcounter.add_contended_ns", fc[0], "ns");
    out.push("fcounter.read_contended_ns", fc[1], "ns");
    let wl = TournamentLock::new(THREADS);
    let pass = |t: usize| {
        wl.lock(t);
        wl.unlock(t);
    };
    let (tc, p) = contended(|t| ns_per_call(BATCHES, CALLS, || pass(t)), pass);
    pinned &= p;
    out.push("wmutex.tournament_pass_contended_ns", median(&tc), "ns");
    let af = RawAfLock::new(cfg);
    let pass = |t: usize| {
        af.reader_lock(t);
        af.reader_unlock(t);
    };
    let (rc, p) = contended(|t| ns_per_call(BATCHES, CALLS, || pass(t)), pass);
    pinned &= p;
    out.push("rwcore.af.read_pass_contended_ns", median(&rc), "ns");
    let pass = |t: usize| {
        af.writer_lock(t);
        af.writer_unlock(t);
    };
    let (wc, p) = contended(|t| ns_per_call(BATCHES, CALLS, || pass(t)), pass);
    pinned &= p;
    out.push("rwcore.af.write_pass_contended_ns", median(&wc), "ns");

    // Yardsticks through the registry, solo.
    let reg = LockRegistry::builtin();
    for id in YARDSTICKS {
        let lock = reg
            .get(id)
            .and_then(|e| e.real.as_ref())
            .expect("yardstick has a real lock")
            .build(RealShape::symmetric(THREADS));
        let ns = ns_per_call(BATCHES, CALLS, || lock.read_pass(0));
        out.push(format!("rwcore.{id}.read_pass_ns"), ns, "ns");
    }

    // Exact RMR counts: measured twice, equal to each other and to the
    // recorded values.
    for _ in 0..2 {
        let solo = solo_rmrs();
        out.check(solo == SOLO_RMRS, || {
            format!("solo RMRs {solo:?} differ from recorded {SOLO_RMRS:?}")
        });
        let conc = measure_af(cfg, Protocol::WriteBack).reader_concurrent_max_rmrs;
        out.check(conc == READER_CONCURRENT_MAX_RMRS, || {
            format!(
                "concurrent reader RMRs {conc} differ from recorded {READER_CONCURRENT_MAX_RMRS}"
            )
        });
    }
    let solo = solo_rmrs();
    for (i, name) in ["reader_entry", "reader_exit", "writer_entry", "writer_exit"]
        .iter()
        .enumerate()
    {
        out.push(format!("ccsim.rmr.{name}"), solo[i] as f64, "rmr");
    }
    out.push(
        "ccsim.rmr.reader_concurrent_max",
        measure_af(cfg, Protocol::WriteBack).reader_concurrent_max_rmrs as f64,
        "rmr",
    );
    pinned
}
