//! Round-trip tests for the logged events and [`Sim::undo`]: on random
//! walks over the simulated lock worlds, every logged step, crash,
//! system-wide crash and abort must (a) leave the world exactly where
//! the unlogged event leaves a copy, and (b) be rolled back by `undo`
//! to exactly the world a `clone_world` took before it.
//!
//! "Exactly" covers more than any state key: fingerprints, the
//! canonical vector, every process's metrics, its recovering/aborting
//! flags, the step counter, the memory values, and the cache mode of
//! every process/variable pair. Cache state is in no state key, so the
//! model checker's counts could not catch a wrong directory restore.
//!
//! `RANDOMIZED_SEED=<k>` shifts every generator seed, so CI's seed
//! matrix walks different schedules per leg.

use ccsim::{Phase, Prng, ProcId, ProcStats, Protocol, Sim, UndoLog, VarId};
use rwcore::{
    af_world_custom, centralized_world, faa_world, gated_af_world, mutex_rw_world,
    sharded_af_world, AfConfig, CounterKind, FPolicy, HelpOrder,
};

fn seed_offset() -> u64 {
    ccsim::env::read_strict_uint("RANDOMIZED_SEED", true).unwrap_or(0)
}

/// Everything observable about a world, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct View {
    fingerprint: u64,
    fingerprint_full: u64,
    canonical: Vec<u64>,
    stats: Vec<ProcStats>,
    recovering: Vec<bool>,
    aborting: Vec<bool>,
    phases: Vec<Phase>,
    steps: u64,
    values: Vec<ccsim::Value>,
    caches: Vec<Option<ccsim::Mode>>,
    trace_len: Option<usize>,
}

fn view(sim: &Sim) -> View {
    let procs: Vec<ProcId> = sim.proc_ids().collect();
    let mut canonical = Vec::new();
    sim.canonical_vec(&mut canonical);
    View {
        fingerprint: sim.fingerprint(),
        fingerprint_full: sim.fingerprint_full(),
        canonical,
        stats: procs.iter().map(|&p| sim.stats(p)).collect(),
        recovering: procs.iter().map(|&p| sim.is_recovering(p)).collect(),
        aborting: procs.iter().map(|&p| sim.is_aborting(p)).collect(),
        phases: procs.iter().map(|&p| sim.phase(p)).collect(),
        steps: sim.total_steps(),
        values: sim.mem().snapshot(),
        caches: procs
            .iter()
            .flat_map(|&p| (0..sim.mem().n_vars()).map(move |v| (p, VarId(v))))
            .map(|(p, v)| sim.mem().cache(p).mode(v))
            .collect(),
        trace_len: sim.trace().map(|t| t.len()),
    }
}

/// One random event.
#[derive(Copy, Clone, Debug)]
enum Event {
    Step(ProcId),
    Crash(ProcId),
    CrashAll,
    Abort(ProcId),
}

impl Event {
    fn pick(sim: &Sim, rng: &mut Prng) -> Event {
        let p = ProcId(rng.below(sim.n_procs()));
        match rng.below(64) {
            0 => Event::CrashAll,
            1..=4 if sim.phase(p) != Phase::Remainder => Event::Crash(p),
            // Mostly aborts that take; now and then a refused one.
            5..=8 if sim.program(p).can_abort() || rng.below(4) == 0 => Event::Abort(p),
            _ => Event::Step(p),
        }
    }

    fn apply(self, sim: &mut Sim) {
        match self {
            Event::Step(p) => {
                sim.step(p);
            }
            Event::Crash(p) => {
                sim.crash(p);
            }
            Event::CrashAll => {
                sim.crash_all();
            }
            Event::Abort(p) => {
                sim.abort(p);
            }
        }
    }

    fn apply_logged(self, sim: &mut Sim, log: &mut UndoLog) {
        match self {
            Event::Step(p) => {
                sim.step_logged(p, log);
            }
            Event::Crash(p) => {
                sim.crash_logged(p, log);
            }
            Event::CrashAll => {
                sim.crash_all_logged(log);
            }
            Event::Abort(p) => {
                sim.abort_logged(p, log);
            }
        }
    }
}

/// How many events of each kind a walk applied (aborts counted only
/// when they took), so the tests can check they exercised every kind.
#[derive(Default)]
struct Mix {
    steps: usize,
    crashes: usize,
    crash_alls: usize,
    aborts: usize,
}

impl Mix {
    fn add(&mut self, other: Mix) {
        self.steps += other.steps;
        self.crashes += other.crashes;
        self.crash_alls += other.crash_alls;
        self.aborts += other.aborts;
    }

    fn assert_covers_every_kind(&self, label: &str) {
        assert!(
            self.steps > 0 && self.crashes > 0 && self.crash_alls > 0 && self.aborts > 0,
            "{label}: the walks must mix every kind of event \
             ({} steps, {} crashes, {} crash-alls, {} aborts)",
            self.steps,
            self.crashes,
            self.crash_alls,
            self.aborts
        );
    }
}

/// Walk `sim` through `events` random events, each logged. After each,
/// compare with the unlogged event on a copy; then either keep it
/// (nesting deeper, up to a few dozen outstanding events) or undo one or
/// more, comparing each rollback with the copy taken before that event.
fn walk(mut sim: Sim, events: usize, rng: &mut Prng, label: &str) -> Mix {
    let mut mix = Mix::default();
    if rng.below(2) == 0 {
        sim.set_tracing(true);
    }
    let mut log = UndoLog::new();
    // Views of the world before each outstanding event.
    let mut before: Vec<View> = Vec::new();
    for i in 0..events {
        let event = Event::pick(&sim, rng);
        let mut copy = sim.clone_world();
        if sim.trace().is_some() {
            copy.set_tracing(true);
        }
        let pre = view(&sim);
        match event {
            Event::Step(_) => mix.steps += 1,
            Event::Crash(_) => mix.crashes += 1,
            Event::CrashAll => mix.crash_alls += 1,
            Event::Abort(p) => mix.aborts += sim.program(p).can_abort() as usize,
        }
        event.apply_logged(&mut sim, &mut log);
        event.apply(&mut copy);
        let (mut got, want) = (view(&sim), view(&copy));
        // The copy's trace started empty: compare what the event added.
        got.trace_len = got.trace_len.map(|n| n - pre.trace_len.unwrap_or(0));
        assert_eq!(got, want, "{label}: logged {event:?} (event {i}) diverged");
        before.push(pre);
        assert_eq!(log.len(), before.len());

        if before.len() >= 40 || rng.below(3) == 0 {
            for _ in 0..1 + rng.below(before.len()) {
                sim.undo(&mut log);
                let want = before.pop().expect("one view per outstanding event");
                assert_eq!(
                    view(&sim),
                    want,
                    "{label}: undo did not restore the world (event {i}, depth {})",
                    before.len()
                );
            }
        }
    }
    while let Some(want) = before.pop() {
        sim.undo(&mut log);
        assert_eq!(view(&sim), want, "{label}: final unwind");
    }
    assert!(log.is_empty());
    mix
}

#[test]
fn af_walks_round_trip_under_both_counters() {
    let mut gen = Prng::new(0x0d0_af00 + seed_offset());
    let mut mix = Mix::default();
    for counters in [CounterKind::CasLoop, CounterKind::FArray] {
        for protocol in [Protocol::WriteBack, Protocol::WriteThrough, Protocol::Dsm] {
            for _ in 0..3 {
                let cfg = AfConfig {
                    readers: 1 + gen.below(4),
                    writers: 1 + gen.below(2),
                    policy: [FPolicy::One, FPolicy::LogN, FPolicy::Linear][gen.below(3)],
                };
                let sim = af_world_custom(cfg, protocol, HelpOrder::WaitersFirst, counters).sim;
                let mut rng = Prng::new(gen.next_u64());
                mix.add(walk(
                    sim,
                    400,
                    &mut rng,
                    &format!("A_f {counters:?} {cfg:?} {protocol:?}"),
                ));
            }
        }
    }
    mix.assert_covers_every_kind("A_f");
}

#[test]
fn twin_walks_round_trip() {
    let mut gen = Prng::new(0x0d0_7419 + seed_offset());
    let mut mix = Mix::default();
    for protocol in [Protocol::WriteBack, Protocol::WriteThrough] {
        for _ in 0..2 {
            let (readers, writers) = (1 + gen.below(3), 1 + gen.below(2));
            let worlds: [(&str, Sim); 5] = [
                (
                    "gated",
                    gated_af_world(AfConfig::new(readers, writers), protocol).sim,
                ),
                (
                    "sharded",
                    sharded_af_world(1 + gen.below(2), readers, writers, protocol).sim,
                ),
                (
                    "centralized",
                    centralized_world(readers, writers, protocol).sim,
                ),
                ("faa", faa_world(readers, writers, protocol).sim),
                ("mutex-rw", mutex_rw_world(readers, writers, protocol).sim),
            ];
            for (name, sim) in worlds {
                let mut rng = Prng::new(gen.next_u64());
                mix.add(walk(
                    sim,
                    300,
                    &mut rng,
                    &format!("{name} {readers}r+{writers}w {protocol:?}"),
                ));
            }
        }
    }
    mix.assert_covers_every_kind("twins");
}

#[test]
fn symmetric_world_round_trips_its_canonical_vector() {
    // f = 1 CAS-loop readers form one declared symmetry class, so the
    // canonical vector sorts member bundles: a wrong restore of one
    // member's digest would show up there even when the multiset of
    // states looks right.
    let mut gen = Prng::new(0x0d0_5e11 + seed_offset());
    for readers in [2usize, 3] {
        let cfg = AfConfig::new(readers, 1).with_policy(FPolicy::One);
        let sim = af_world_custom(
            cfg,
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        )
        .sim;
        assert!(!sim.symmetry_classes().is_empty());
        let mut rng = Prng::new(gen.next_u64());
        walk(
            sim,
            600,
            &mut rng,
            &format!("CAS-loop n={readers} quotient"),
        );
    }
}
