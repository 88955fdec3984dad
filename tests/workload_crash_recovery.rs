//! Cross-crate integration: crash the real benchmark workloads mid-run at
//! sampled points and verify that recovery restores every structural
//! invariant — the full pipeline (compiler + VM + recovery) against the
//! full workloads (not just the unit-test twin counter).

use ido_compiler::{instrument_program, Scheme};
use ido_nvm::{CrashPolicy, PoolConfig};
use ido_vm::{recover, RecoveryConfig, RunOutcome, SchedPolicy, Vm, VmConfig};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::{boot, WorkloadSpec};

const THREADS: usize = 3;
const OPS: u64 = 25;

fn config(policy: CrashPolicy, seed: u64) -> VmConfig {
    VmConfig {
        pool: PoolConfig {
            size: 16 << 20,
            crash_policy: policy,
            ..PoolConfig::default()
        },
        log_entries: 1 << 13,
        seed,
        sched: SchedPolicy::Random,
        ..VmConfig::default()
    }
}

fn total_steps(spec: &dyn WorkloadSpec, scheme: Scheme) -> u64 {
    let instrumented = instrument_program(spec.build_program(), scheme).expect("instrument");
    let cfg = config(CrashPolicy::DropDirty, 11);
    let (mut vm, _) = boot(spec, instrumented, THREADS, OPS, cfg);
    assert_eq!(vm.run(), RunOutcome::Completed);
    vm.steps()
}

fn crash_and_verify(spec: &dyn WorkloadSpec, scheme: Scheme, step: u64, policy: &CrashPolicy) {
    let instrumented = instrument_program(spec.build_program(), scheme).expect("instrument");
    let cfg = config(policy.clone(), 11);
    let (mut vm, base) = boot(spec, instrumented.clone(), THREADS, OPS, cfg.clone());
    vm.run_steps(step);
    let pool = vm.crash(step ^ 0xA5A5);
    recover(pool.clone(), instrumented.clone(), cfg.clone(), RecoveryConfig::for_tests());

    // Re-attach a VM purely to reuse the workload's invariant checker.
    let vm = Vm::attach(pool, instrumented, cfg);
    spec.verify(&vm, &base, THREADS as u64 * OPS);
}

fn sweep(spec: &dyn WorkloadSpec, scheme: Scheme, policy: CrashPolicy, samples: u64) {
    let policy = &policy;
    let total = total_steps(spec, scheme);
    let stride = (total / samples).max(1);
    let mut step = stride / 2;
    while step < total {
        crash_and_verify(spec, scheme, step, policy);
        step += stride;
    }
}

#[test]
fn stack_recovers_under_all_protected_schemes() {
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas, Scheme::Mnemosyne, Scheme::Nvml, Scheme::Nvthreads] {
        sweep(&StackSpec, scheme, CrashPolicy::DropDirty, 12);
    }
}

#[test]
fn queue_recovers_under_ido_with_adversarial_evictions() {
    sweep(&QueueSpec, Scheme::Ido, CrashPolicy::DropDirty, 12);
    sweep(&QueueSpec, Scheme::Ido, CrashPolicy::Random { persist_permille: 500 }, 12);
    sweep(&QueueSpec, Scheme::Ido, CrashPolicy::EvictAll, 8);
}

#[test]
fn hand_over_hand_list_recovers_under_ido() {
    let spec = ListSpec { key_range: 32 };
    sweep(&spec, Scheme::Ido, CrashPolicy::DropDirty, 16);
    sweep(&spec, Scheme::Ido, CrashPolicy::Random { persist_permille: 400 }, 10);
}

#[test]
fn hand_over_hand_list_recovers_under_justdo_and_atlas() {
    let spec = ListSpec { key_range: 32 };
    sweep(&spec, Scheme::JustDo, CrashPolicy::DropDirty, 10);
    sweep(&spec, Scheme::Atlas, CrashPolicy::DropDirty, 10);
}

#[test]
fn hash_map_recovers_under_ido() {
    let spec = MapSpec { buckets: 8, key_range: 128 };
    sweep(&spec, Scheme::Ido, CrashPolicy::DropDirty, 14);
    sweep(&spec, Scheme::Ido, CrashPolicy::Random { persist_permille: 600 }, 10);
}
