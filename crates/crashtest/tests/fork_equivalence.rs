//! The forked exploration against the from-scratch oracle it replaced.
//!
//! `explore` reaches a crash state by stepping one live VM forward and
//! forking its pool (`PmemPool::sync_from`) per state; `check_crash_state`
//! reaches it by replaying a fresh VM from step 0. This suite re-runs the
//! old exploration — per boundary a fresh replay for the dirty set, per
//! subset a from-scratch check — and requires the forked one to visit the
//! same states with the same verdicts: equal state counts and the first
//! failure at the same ordinal state, over the five micro structures under
//! every durable scheme, the lock-free pair, and the three injected bugs,
//! whose shrunk counterexamples are pinned to the values the pre-fork
//! oracle produced.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::{
    candidate_subsets, check_crash_state, explore_jobs, persist_boundaries, Exploration,
    OracleConfig, DURABLE_SCHEMES,
};
use ido_vm::{Vm, VmConfig};
use ido_workloads::lockfree::{LfListSpec, LfMapSpec};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec, TwinSpec};
use ido_workloads::WorkloadSpec;

/// The lines dirty at `step` of a fresh replay.
fn dirty_at(
    spec: &dyn WorkloadSpec,
    inst: &Instrumented,
    cfg: &OracleConfig,
    step: u64,
) -> Vec<usize> {
    let mut vm = Vm::new(
        inst.clone(),
        VmConfig {
            seed: cfg.seed,
            ..cfg.vm.clone()
        },
    );
    let base = spec.setup(&mut vm, cfg.threads, cfg.ops_per_thread);
    for t in 0..cfg.threads {
        vm.spawn("worker", &spec.worker_args(&base, t, cfg.ops_per_thread));
    }
    vm.run_steps(step);
    vm.pool().dirty_lines()
}

/// The pre-fork exploration: states checked up to and including the first
/// failing one, and whether there was one.
fn explore_from_scratch(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    cfg: &OracleConfig,
) -> (usize, bool) {
    let inst = instrument_program(spec.build_program(), scheme).expect("instruments");
    let (_, _, boundaries) = persist_boundaries(spec, &inst, cfg);
    let mut explored = 0;
    for step in boundaries {
        for lost in candidate_subsets(&dirty_at(spec, &inst, cfg, step), cfg, step) {
            explored += 1;
            if check_crash_state(spec, &inst, cfg, step, &lost).is_err() {
                return (explored, true);
            }
        }
    }
    (explored, false)
}

/// Explores forked at 1, 2 and 4 jobs and compares each against the
/// from-scratch exploration; returns the serial one.
fn assert_equivalent(spec: &dyn WorkloadSpec, scheme: Scheme, cfg: &OracleConfig) -> Exploration {
    let (explored, failed) = explore_from_scratch(spec, scheme, cfg);
    let mut serial = None;
    for jobs in [4usize, 2, 1] {
        let e = explore_jobs(jobs, spec, scheme, cfg);
        let what = format!("{}/{scheme} jobs={jobs}", spec.name());
        assert_eq!(e.crash_states_explored, explored, "{what}: states visited");
        assert_eq!(e.counterexample.is_some(), failed, "{what}: verdict");
        // Linear exploration: each worker replays to its chunk once and
        // then only steps forward.
        assert!(
            e.replayed_steps <= jobs as u64 * e.total_steps,
            "{what}: {}",
            e.replayed_steps
        );
        assert!(e.forked_lines > 0, "{what}: states are forked, not rebuilt");
        serial = Some(e);
    }
    let serial = serial.expect("jobs=1 ran last");
    if !failed {
        assert_eq!(
            serial.replayed_steps, serial.total_steps,
            "one worker, one forward run"
        );
    }
    serial
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
            let e = assert_equivalent(spec, scheme, &cfg);
            assert!(e.counterexample.is_none(), "{e}");
        }
    }
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
            let e = assert_equivalent(spec, scheme, &cfg);
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
        let e = assert_equivalent(spec, scheme, cfg);
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
/// the from-scratch check says so instead of silently losing less.
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
}
