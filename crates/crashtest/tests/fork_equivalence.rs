//! The forked exploration against the from-scratch oracle it replaced.
//!
//! `explore` and `explore_recovery` reach a crash state by stepping one
//! live VM forward and forking its pool (`PmemPool::sync_from`) per state;
//! `CrashState::check` reaches it by replaying a fresh VM from step 0. This
//! suite re-runs the old exploration — per boundary a fresh replay for the
//! dirty set (and, per recovery budget, for what the interrupted recovery
//! left dirty), per state a from-scratch check — and requires the forked
//! one to visit the same states with the same verdicts: equal state and
//! interruption counts and the first failure at the same ordinal state,
//! over the five micro structures under every durable scheme, the twin
//! counter crashed during recovery under every durable scheme, the
//! lock-free pair, and the three injected bugs, whose shrunk
//! counterexamples are pinned to the values the pre-fork oracle produced.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::{
    candidate_subsets, check_crash_state, explore_jobs, explore_recovery, persist_boundaries,
    CrashState, Exploration, OracleConfig, DURABLE_SCHEMES,
};
use ido_nvm::CrashPolicy;
use ido_vm::{recover_partial, Vm, VmConfig};
use ido_workloads::lockfree::{LfListSpec, LfMapSpec};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec, TwinSpec};
use ido_workloads::{boot, WorkloadSpec};

/// The budgets of the crash-during-recovery sweep (as in `recovery_crash.rs`).
const BUDGETS: [u64; 4] = [1, 2, 5, 11];

fn vm_config(cfg: &OracleConfig) -> VmConfig {
    VmConfig {
        seed: cfg.seed,
        ..cfg.vm.clone()
    }
}

/// A fresh VM replayed to `step`.
fn replay(spec: &dyn WorkloadSpec, inst: &Instrumented, cfg: &OracleConfig, step: u64) -> Vm {
    let (mut vm, _) = boot(spec, inst.clone(), cfg.threads, cfg.ops_per_thread, vm_config(cfg));
    vm.run_steps(step);
    vm
}

/// The lines dirty at `step` of a fresh replay.
fn dirty_at(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
) -> Vec<usize> {
    replay(spec, inst, cfg, step).pool().dirty_lines()
}

/// The lines left dirty by recovery of a fresh replay crashed at `step`
/// losing every dirty line, cut short after `budget` units of work; `None`
/// when recovery finishes within the budget.
fn dirty_after_recovery(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
    budget: u64,
) -> Option<Vec<usize>> {
    let vm = replay(spec, inst, cfg, step);
    let lost = vm.pool().dirty_lines();
    let pool = vm.crash_with(cfg.seed, &CrashPolicy::losing(lost));
    let finished = recover_partial(pool.clone(), inst.clone(), vm_config(cfg), budget);
    (!finished).then(|| pool.dirty_lines())
}

/// The pre-fork exploration: states checked up to and including the first
/// failing one, recoveries interrupted, and whether a state failed. With
/// `budgets`, the states of the crash-during-recovery sweep: the crash
/// loses every dirty line, and per budget that interrupts recovery a
/// second crash loses each candidate subset of what recovery left dirty.
fn explore_from_scratch(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    budgets: Option<&[u64]>,
) -> (usize, usize, bool) {
    let inst = instrument_program(spec.build_program(), scheme).expect("instruments");
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);
    let (mut explored, mut interrupted) = (0, 0);
    let groups: Vec<Option<u64>> = match budgets {
        None => vec![None],
        Some(b) => b.iter().copied().map(Some).collect(),
    };
    for step in boundaries {
        let dirty = dirty_at(spec, &inst, cfg, step);
        for &budget in &groups {
            let states: Vec<CrashState> = match budget {
                None => candidate_subsets(&dirty, cfg, step)
                    .into_iter()
                    .map(|lost| CrashState { step, lost, recovery: None })
                    .collect(),
                Some(budget) => {
                    let Some(left) = dirty_after_recovery(spec, &inst, cfg, step, budget) else {
                        continue;
                    };
                    interrupted += 1;
                    candidate_subsets(&left, cfg, step ^ budget.rotate_left(17))
                        .into_iter()
                        .map(|lost| CrashState {
                            step,
                            lost: dirty.clone(),
                            recovery: Some((budget, lost)),
                        })
                        .collect()
                }
            };
            for state in states {
                explored += 1;
                if state.check(spec, &inst, cfg).is_err() {
                    return (explored, interrupted, true);
                }
            }
        }
    }
    (explored, interrupted, false)
}

/// Explores forked — a plain sweep at 1, 2 and 4 jobs, or with `budgets`
/// the crash-during-recovery sweep — and compares each against the
/// from-scratch exploration; returns the last one.
fn assert_equivalent(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
    budgets: Option<&[u64]>,
) -> Exploration {
    let (explored, interrupted, failed) = explore_from_scratch(spec, scheme, cfg, budgets);
    let runs = match budgets {
        None => Vec::from([4, 2, 1].map(|jobs| (jobs, explore_jobs(jobs, spec, scheme, cfg)))),
        Some(b) => vec![(ido_par::jobs(), explore_recovery(spec, scheme, cfg, b))],
    };
    for (jobs, e) in &runs {
        let what = format!("{}/{scheme} jobs={jobs} budgets={budgets:?}", spec.name());
        assert_eq!(e.crash_states_explored, explored, "{what}: states visited");
        assert_eq!(e.interruptions, interrupted, "{what}: recoveries interrupted");
        assert_eq!(e.counterexample.is_some(), failed, "{what}: verdict");
        // Linear exploration: each worker replays to its chunk once and
        // then only steps forward.
        assert!(
            e.replayed_steps <= *jobs as u64 * e.total_steps,
            "{what}: {}",
            e.replayed_steps
        );
        assert!(e.forked_lines > 0, "{what}: states are forked, not rebuilt");
        if *jobs == 1 && !failed {
            assert_eq!(e.replayed_steps, e.total_steps, "one worker, one forward run");
        }
    }
    runs.into_iter().last().expect("one exploration ran").1
}

#[test]
fn forked_verdicts_match_from_scratch_on_the_structures_under_every_durable_scheme() {
    let cfg = OracleConfig::default();
    let specs: [&dyn WorkloadSpec; 5] = [
        &TwinSpec,
        &StackSpec,
        &QueueSpec,
        &ListSpec { key_range: 16 },
        &MapSpec::default(),
    ];
    for spec in specs {
        for scheme in DURABLE_SCHEMES {
            let e = assert_equivalent(spec, scheme, &cfg, None);
            assert!(e.counterexample.is_none(), "{e}");
        }
    }
}

#[test]
fn forked_recovery_crash_verdicts_match_from_scratch_under_every_durable_scheme() {
    let cfg = OracleConfig::default();
    let mut interrupted = 0;
    for scheme in DURABLE_SCHEMES {
        let e = assert_equivalent(&TwinSpec, scheme, &cfg, Some(&BUDGETS));
        assert!(e.counterexample.is_none(), "{e}");
        interrupted += e.interruptions;
    }
    assert!(interrupted > 0, "no budget interrupted any recovery");

    // With iDO's boundary store flushes skipped, the first failing state is
    // one whose second crash tears the region recovery re-executes: a
    // forked check that skipped the second crash would pass it and fail
    // later, at a plain torn boundary.
    let mut buggy = cfg;
    buggy.vm.ido_bug_skip_store_flush = true;
    let e = assert_equivalent(&TwinSpec, Scheme::Ido, &buggy, Some(&BUDGETS));
    assert_eq!((e.crash_states_explored, e.shrink_attempts), (6, 4));
    let c = e.counterexample.expect("both explorations found a failure");
    assert_eq!(
        (c.crash_step, c.lost_lines.as_slice(), c.recovery),
        (12, &[][..], Some((11, vec![83])))
    );
    assert!(c.failure.contains("torn FASE"), "{}", c.failure);
}

#[test]
fn forked_verdicts_match_from_scratch_on_the_lock_free_pair() {
    let cfg = OracleConfig::default();
    let map = LfMapSpec {
        buckets: 4,
        key_range: 32,
        put_permille: 700,
    };
    let specs: [&dyn WorkloadSpec; 2] = [&LfListSpec, &map];
    for spec in specs {
        for scheme in Scheme::LOCKFREE {
            let e = assert_equivalent(spec, scheme, &cfg, None);
            assert!(e.counterexample.is_none(), "{e}");
        }
    }
}

/// The three injected bugs: same states, same first failure, and the
/// shrunk counterexample the oracle produced before it forked.
#[test]
fn injected_bugs_shrink_to_the_counterexamples_of_the_from_scratch_oracle() {
    let with = |set: fn(&mut VmConfig)| {
        let mut cfg = OracleConfig::default();
        set(&mut cfg.vm);
        cfg
    };
    let store_flush = with(|vm| vm.ido_bug_skip_store_flush = true);
    let window_flush = with(|vm| vm.lf_bug_skip_window_flush = true);
    let publish = with(|vm| vm.lf_bug_skip_publish = true);
    // (spec, scheme, config, states, shrink probes, step, lost line, failure)
    type Pin<'a> = (
        &'a dyn WorkloadSpec,
        Scheme,
        &'a OracleConfig,
        usize,
        usize,
        u64,
        usize,
        &'a str,
    );
    let pins: [Pin; 5] = [
        (
            &TwinSpec,
            Scheme::Ido,
            &store_flush,
            12,
            7,
            20,
            82,
            "torn FASE: twin counters disagree (0 vs 1)",
        ),
        (
            &QueueSpec,
            Scheme::Ido,
            &store_flush,
            99,
            22,
            72,
            84,
            "queue tail must be the last node reachable from head",
        ),
        (
            &LfListSpec,
            Scheme::Nvtraverse,
            &window_flush,
            29,
            12,
            37,
            214,
            "node 0x3580 key 0: value 0 escaped before its contents line was persisted",
        ),
        (
            &LfListSpec,
            Scheme::Nvtraverse,
            &publish,
            28,
            14,
            38,
            212,
            "thread 0: present keys must be exactly its first 1 durably-taken inserts",
        ),
        (
            &LfListSpec,
            Scheme::LfEager,
            &publish,
            13,
            12,
            38,
            212,
            "thread 0: present keys must be exactly its first 1 durably-taken inserts",
        ),
    ];
    for (spec, scheme, cfg, states, shrinks, step, lost, failure) in pins {
        let e = assert_equivalent(spec, scheme, cfg, None);
        let what = format!("{}/{scheme}", spec.name());
        assert_eq!(
            (e.crash_states_explored, e.shrink_attempts),
            (states, shrinks),
            "{what}"
        );
        let c = e
            .counterexample
            .expect("both explorations found a failure");
        assert_eq!(
            (c.crash_step, c.lost_lines.as_slice()),
            (step, &[lost][..]),
            "{what}"
        );
        let first = c.failure.lines().next().unwrap_or_default();
        assert!(first.contains(failure), "{what}: {first}");
    }
}

/// A lost line that is not dirty at the crash step is not a crash state:
/// the from-scratch check says so instead of silently losing less. The
/// same holds for the second crash of a crash during recovery, which must
/// also have a recovery to interrupt.
#[test]
fn losing_a_clean_line_is_an_error_not_a_different_state() {
    let cfg = OracleConfig::default();
    let inst = instrument_program(TwinSpec.build_program(), Scheme::Ido).expect("instruments");
    let (_, _, boundaries) = persist_boundaries(&TwinSpec, &inst, &cfg);
    let (step, dirty) = boundaries
        .iter()
        .map(|&s| (s, dirty_at(&TwinSpec, &inst, &cfg, s)))
        .find(|(_, d)| !d.is_empty())
        .expect("some boundary has a dirty line");
    assert_eq!(
        check_crash_state(&TwinSpec, &inst, &cfg, step, &dirty),
        Ok(())
    );
    let clean = (0..)
        .find(|l| !dirty.contains(l))
        .expect("some line is clean");
    let mut lost = dirty.clone();
    lost.push(clean);
    assert_eq!(
        check_crash_state(&TwinSpec, &inst, &cfg, step, &lost),
        Err(format!("lost line {clean} is not dirty at step {step}"))
    );

    let (step, left) = boundaries
        .iter()
        .find_map(|&s| dirty_after_recovery(&TwinSpec, &inst, &cfg, s, 1).map(|left| (s, left)))
        .expect("a budget of 1 interrupts some recovery");
    let during = |budget: u64, lost: Vec<usize>| CrashState {
        step,
        lost: dirty_at(&TwinSpec, &inst, &cfg, step),
        recovery: Some((budget, lost)),
    };
    assert_eq!(during(1, left.clone()).check(&TwinSpec, &inst, &cfg), Ok(()));
    let clean = (0..)
        .find(|l| !left.contains(l))
        .expect("some line is clean");
    let finishes = 1 << 20;
    let cases = [
        (
            during(1, [left, vec![clean]].concat()),
            format!("lost line {clean} is not dirty after 1 recovery unit(s)"),
        ),
        (
            during(finishes, vec![]),
            format!("recovery completes within {finishes} unit(s): no crash during it"),
        ),
    ];
    for (state, err) in cases {
        assert_eq!(state.check(&TwinSpec, &inst, &cfg), Err(err), "{state:?}");
    }
}
