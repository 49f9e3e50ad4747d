//! Two-way state-key parity over the generated suite.
//!
//! The symmetry-quotient key (the hash of `Sim::canonical_vec`) must
//! agree with the `FullRehash` oracle on every verdict, and on violating
//! worlds the counterexample each explorer reports must not depend on
//! the key (DFS-first for the sequential explorer, BFS-minimal for the
//! parallel one).
//!
//! The quotient's exact per-case counts are pinned as literals, under
//! both explorers, so any change to the state key that merges or splits
//! orbits fails here. A newly registered sim twin fails here until its
//! counts are pinned too.

use ccsim::Protocol;
use modelcheck::suite::{planned_cases, run_case, run_case_seq, SuiteCase};
use modelcheck::{explore, explore_par, CheckConfig, CheckError, Symmetry};
use rwcore::{af_world_seq_reuse_bug, AfConfig, LockRegistry, Scenario};

/// [`modelcheck::CheckReport::counts`]: `(states, transitions, crash
/// transitions, terminal states, complete)`.
type Counts = (u64, u64, u64, u64, bool);

/// The counts of every case `r2:1,xcrash=0.01,xabort=0.01` generates,
/// under [`Symmetry::Quotient`].
const PINNED_QUOTIENT_COUNTS: [(&str, Counts); 10] = [
    (
        "a_f/2r+1w: mutual-exclusion, bounded-exit, post-crash-acquirability, bounded-abort",
        (443_995, 1_465_203, 241_424, 236, true),
    ),
    ("a_f/2r+2w: mutual-exclusion", (52_953, 178_068, 0, 8, true)),
    (
        "a_f-casloop/2r+1w: mutual-exclusion, bounded-exit",
        (4_367, 11_464, 0, 4, true),
    ),
    (
        "a_f-gated/2r+1w: mutual-exclusion",
        (3_930, 10_353, 0, 4, true),
    ),
    (
        "a_f-gated/2r+2w: mutual-exclusion",
        (98_860, 331_696, 0, 8, true),
    ),
    (
        "a_f-sharded/1 shard, 2r+1w: mutual-exclusion, bounded-exit",
        (5_023, 13_339, 0, 2, true),
    ),
    (
        "a_f-sharded/2 shards, 2r+1w: mutual-exclusion, bounded-exit",
        (16_094, 44_567, 0, 4, true),
    ),
    (
        "centralized-cas/2r+1w: mutual-exclusion",
        (231, 554, 0, 1, true),
    ),
    (
        "faa-indicator/2r+1w: mutual-exclusion",
        (272, 672, 0, 1, true),
    ),
    (
        "mutex-only/2r+1w: mutual-exclusion",
        (1_413, 3_724, 0, 4, true),
    ),
];

fn with_symmetry(case: &SuiteCase, symmetry: Symmetry) -> SuiteCase {
    SuiteCase {
        config: CheckConfig {
            symmetry,
            ..case.config.clone()
        },
        ..case.clone()
    }
}

/// Every suite case: the quotient reproduces its pinned counts under
/// both explorers, and the oracle returns the same verdict while never
/// exploring fewer states.
#[test]
fn suite_cases_match_pinned_quotient_counts_and_the_oracle() {
    let reg = LockRegistry::builtin();
    let scenario: Scenario = "r2:1,xcrash=0.01,xabort=0.01".parse().unwrap();
    let base = CheckConfig::default();
    let cases = planned_cases(&reg, &scenario, &base);
    assert_eq!(
        cases.len(),
        PINNED_QUOTIENT_COUNTS.len(),
        "every generated case has pinned counts"
    );
    for (lock, inst, case) in cases {
        let sim = reg
            .sim_entries()
            .find(|(id, _)| *id == lock)
            .map(|(_, s)| s)
            .expect("planned lock is registered");
        let label = case.describe();
        let pinned = PINNED_QUOTIENT_COUNTS
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("{label}: no pinned quotient counts"))
            .1;

        let quotient = with_symmetry(&case, Symmetry::Quotient);
        let seq = run_case_seq(sim.as_ref(), &inst, &quotient, Protocol::WriteBack)
            .unwrap_or_else(|e| panic!("{label} seq quotient: unexpected violation: {e}"));
        assert_eq!(seq.counts(), pinned, "{label}: seq quotient counts moved");
        assert_eq!(
            seq.visited.entries, seq.states_explored,
            "{label}: one visited entry per expanded state"
        );
        let par = run_case(sim.as_ref(), &inst, &quotient, Protocol::WriteBack, 2)
            .unwrap_or_else(|e| panic!("{label} par quotient: unexpected violation: {e}"));
        assert_eq!(par.counts(), pinned, "{label}: par quotient counts moved");

        // The oracle explores the *concrete* partition: same verdict,
        // never fewer states. (Its seq/par agreement is covered by
        // par_determinism, and it is by far the slowest lane.)
        let oracle = with_symmetry(&case, Symmetry::FullRehash);
        let full = run_case_seq(sim.as_ref(), &inst, &oracle, Protocol::WriteBack)
            .unwrap_or_else(|e| panic!("{label} oracle: unexpected violation: {e}"));
        assert!(full.complete, "{label}: oracle incomplete");
        assert!(
            full.states_explored >= seq.states_explored,
            "{label}: oracle explored fewer states than the quotient"
        );
    }
}

/// On a violating world every state key recovers the same counterexample
/// per explorer: the parallel explorer's deterministic BFS-minimal
/// re-search must be key-independent, and so must the sequential
/// explorer's DFS-order hit (same partition ⇒ same walk). The two
/// explorers' schedules differ by construction (DFS-first vs
/// BFS-minimal), so they are compared within their own group, plus the
/// minimality relation between the groups.
#[test]
fn violating_world_counterexamples_identical_across_state_keys() {
    // 1 reader + 1 writer: no classes declared, so Off and Quotient key
    // the same partition and all three keys are comparable.
    let factory = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    let base = CheckConfig {
        passages_per_proc: 2,
        crash_all_budget: 1,
        ..Default::default()
    };
    let keys = [Symmetry::Off, Symmetry::Quotient, Symmetry::FullRehash];
    let mut seq_schedules = Vec::new();
    let mut par_schedules = Vec::new();
    for symmetry in keys {
        let cfg = CheckConfig {
            symmetry,
            ..base.clone()
        };
        let seq_err = explore(factory, &cfg).expect_err("epoch reuse must violate MX");
        let par_err = explore_par(factory, &cfg, 2).expect_err("epoch reuse must violate MX");
        for (sink, err) in [(&mut seq_schedules, seq_err), (&mut par_schedules, par_err)] {
            let CheckError::MutualExclusion { schedule, .. } = err else {
                panic!("{symmetry}: expected an MX violation");
            };
            sink.push(schedule);
        }
    }
    for (i, s) in seq_schedules.iter().enumerate() {
        assert_eq!(
            s, &seq_schedules[0],
            "{}: sequential counterexamples must be key-independent",
            keys[i]
        );
    }
    for (i, s) in par_schedules.iter().enumerate() {
        assert_eq!(
            s, &par_schedules[0],
            "{}: BFS-minimal counterexamples must be key-independent",
            keys[i]
        );
    }
    assert!(
        par_schedules[0].len() <= seq_schedules[0].len(),
        "the BFS re-search schedule is minimal"
    );
}
