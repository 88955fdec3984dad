//! End-to-end crash-consistency tests: run, crash at every dynamic
//! instruction, recover, and verify invariants — for every scheme.
//!
//! The invariant program increments *two* counter words on different cache
//! lines inside one FASE, so a torn FASE is observable as disagreement
//! between the words. After recovery:
//!
//! * the two words must always agree (failure atomicity), and
//! * every FASE that completed before the crash must still be counted
//!   (durability), and
//! * under resumption schemes, every FASE that had *started* must also be
//!   counted (recovery via resumption runs interrupted FASEs forward).

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_ir::{Operand, ProgramBuilder};
use ido_nvm::{CrashPolicy, PAddr};
use ido_vm::{recover, RecoveryConfig, RunOutcome, Status, Vm, VmConfig};
use std::sync::Arc;

/// `op(lock, p)`: under `lock`, increment `mem[p]` and `mem[p+64]`.
fn twin_counter(scheme: Scheme) -> Instrumented {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("op", 2);
    let l = f.param(0);
    let p = f.param(1);
    let a = f.new_reg();
    let a2 = f.new_reg();
    let b = f.new_reg();
    let b2 = f.new_reg();
    f.lock(l);
    f.load(a, p, 0);
    f.bin(ido_ir::BinOp::Add, a2, a, 1i64);
    f.store(p, 0, Operand::Reg(a2));
    f.load(b, p, 64);
    f.bin(ido_ir::BinOp::Add, b2, b, 1i64);
    f.store(p, 64, Operand::Reg(b2));
    f.unlock(l);
    f.ret(None);
    f.finish().unwrap();
    instrument_program(pb.finish(), scheme).expect("instrumentation")
}

/// Single-threaded durable-region variant (the Redis model: no locks).
fn twin_counter_durable(scheme: Scheme) -> Instrumented {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("op", 1);
    let p = f.param(0);
    let a = f.new_reg();
    let a2 = f.new_reg();
    let b = f.new_reg();
    let b2 = f.new_reg();
    f.durable_begin();
    f.load(a, p, 0);
    f.bin(ido_ir::BinOp::Add, a2, a, 1i64);
    f.store(p, 0, Operand::Reg(a2));
    f.load(b, p, 64);
    f.bin(ido_ir::BinOp::Add, b2, b, 1i64);
    f.store(p, 64, Operand::Reg(b2));
    f.durable_end();
    f.ret(None);
    f.finish().unwrap();
    instrument_program(pb.finish(), scheme).expect("instrumentation")
}

fn vm_config(policy: CrashPolicy, seed: u64) -> VmConfig {
    let mut cfg = VmConfig::for_tests();
    cfg.pool.crash_policy = policy;
    cfg.seed = seed;
    cfg
}

struct Setup {
    vm: Vm,
    cell: PAddr,
}

fn setup(inst: Instrumented, cfg: VmConfig, threads: usize, with_lock: bool) -> Setup {
    let mut vm = Vm::new(inst, cfg);
    let (lock, cell) = vm.setup(|h, alloc, _| {
        let lock = alloc.alloc(h, 8).unwrap();
        let cell = alloc.alloc(h, 128).unwrap();
        h.write_u64(cell, 0);
        h.write_u64(cell + 64, 0);
        h.persist(cell, 128);
        (lock, cell)
    });
    for _ in 0..threads {
        if with_lock {
            vm.spawn("op", &[lock as u64, cell as u64]);
        } else {
            vm.spawn("op", &[cell as u64]);
        }
    }
    Setup { vm, cell }
}

fn total_steps(scheme: Scheme, threads: usize, with_lock: bool) -> u64 {
    let inst = if with_lock { twin_counter(scheme) } else { twin_counter_durable(scheme) };
    let mut s = setup(inst, vm_config(CrashPolicy::DropDirty, 7), threads, with_lock);
    assert_eq!(s.vm.run(), RunOutcome::Completed);
    s.vm.steps()
}

/// Crash at `crash_step`, recover, and return
/// `(done_before, resumed, value0, value64)`.
fn crash_at(
    scheme: Scheme,
    threads: usize,
    with_lock: bool,
    crash_step: u64,
    policy: &CrashPolicy,
    seed: u64,
) -> (usize, usize, u64, u64) {
    let inst = if with_lock { twin_counter(scheme) } else { twin_counter_durable(scheme) };
    let mut s = setup(inst.clone(), vm_config(policy.clone(), seed), threads, with_lock);
    s.vm.run_steps(crash_step);
    let done = (0..threads).filter(|i| s.vm.status(ido_vm::ThreadId(*i)) == Status::Done).count();
    let cell = s.cell;
    let pool = s.vm.crash(seed ^ 0xC0FFEE);
    let report = recover(pool.clone(), inst, vm_config(policy.clone(), seed), RecoveryConfig::for_tests());
    let mut h = pool.handle();
    (done, report.resumed, h.read_u64(cell), h.read_u64(cell + 64))
}

fn sweep(scheme: Scheme, threads: usize, with_lock: bool, policy: CrashPolicy, stride: u64) {
    let policy = &policy;
    let total = total_steps(scheme, threads, with_lock);
    let mut step = 0;
    while step <= total {
        let (done, resumed, v0, v64) = crash_at(scheme, threads, with_lock, step, policy, step);
        assert_eq!(
            v0, v64,
            "{scheme}: torn FASE at crash step {step}/{total} (v0={v0}, v64={v64})"
        );
        assert!(v0 <= threads as u64, "{scheme}: overcounted at step {step}");
        assert!(
            v0 >= done as u64,
            "{scheme}: completed FASE lost at step {step} (done={done}, v0={v0})"
        );
        if scheme.recovers_by_resumption() {
            assert!(
                v0 >= (done + resumed).min(threads) as u64 || v0 >= resumed as u64,
                "{scheme}: resumed FASE not completed at step {step}"
            );
        }
        step += stride;
    }
}

#[test]
fn ido_every_crash_point_single_thread() {
    sweep(Scheme::Ido, 1, true, CrashPolicy::DropDirty, 1);
}

#[test]
fn ido_every_crash_point_multi_thread() {
    sweep(Scheme::Ido, 4, true, CrashPolicy::DropDirty, 1);
}

#[test]
fn ido_survives_adversarial_evictions() {
    sweep(Scheme::Ido, 2, true, CrashPolicy::Random { persist_permille: 500 }, 1);
    sweep(Scheme::Ido, 2, true, CrashPolicy::EvictAll, 1);
}

#[test]
fn justdo_every_crash_point() {
    sweep(Scheme::JustDo, 1, true, CrashPolicy::DropDirty, 1);
    sweep(Scheme::JustDo, 3, true, CrashPolicy::Random { persist_permille: 400 }, 2);
}

#[test]
fn atlas_every_crash_point() {
    sweep(Scheme::Atlas, 1, true, CrashPolicy::DropDirty, 1);
    sweep(Scheme::Atlas, 3, true, CrashPolicy::Random { persist_permille: 600 }, 2);
}

#[test]
fn mnemosyne_every_crash_point() {
    sweep(Scheme::Mnemosyne, 1, true, CrashPolicy::DropDirty, 1);
    sweep(Scheme::Mnemosyne, 3, true, CrashPolicy::Random { persist_permille: 500 }, 2);
}

#[test]
fn nvml_every_crash_point() {
    sweep(Scheme::Nvml, 1, true, CrashPolicy::DropDirty, 1);
    sweep(Scheme::Nvml, 2, true, CrashPolicy::Random { persist_permille: 500 }, 2);
}

#[test]
fn nvthreads_every_crash_point() {
    sweep(Scheme::Nvthreads, 1, true, CrashPolicy::DropDirty, 1);
    sweep(Scheme::Nvthreads, 2, true, CrashPolicy::Random { persist_permille: 500 }, 2);
}

#[test]
fn durable_regions_recover_single_threaded() {
    // The Redis model: programmer-delineated FASEs, no locks.
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas, Scheme::Nvml, Scheme::Mnemosyne] {
        sweep(scheme, 1, false, CrashPolicy::DropDirty, 1);
    }
}

#[test]
fn hand_over_hand_fase_recovers() {
    // Cross-lock FASE (Fig. 2b): lock A; lock B; write under both; unlock A;
    // write under B; unlock B.
    let build = |scheme| {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("op", 3);
        let la = f.param(0);
        let lb = f.param(1);
        let p = f.param(2);
        let v = f.new_reg();
        let v2 = f.new_reg();
        f.lock(la);
        f.lock(lb);
        f.load(v, p, 0);
        f.bin(ido_ir::BinOp::Add, v2, v, 1i64);
        f.store(p, 0, Operand::Reg(v2));
        f.unlock(la);
        f.store(p, 64, Operand::Reg(v2));
        f.unlock(lb);
        f.ret(None);
        f.finish().unwrap();
        instrument_program(pb.finish(), scheme).expect("instrument")
    };
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas] {
        let inst = build(scheme);
        // Total steps for the sweep.
        let total = {
            let mut vm = Vm::new(inst.clone(), vm_config(CrashPolicy::DropDirty, 3));
            let (la, lb, cell) = vm.setup(|h, a, _| {
                (a.alloc(h, 8).unwrap(), a.alloc(h, 8).unwrap(), a.alloc(h, 128).unwrap())
            });
            for _ in 0..2 {
                vm.spawn("op", &[la as u64, lb as u64, cell as u64]);
            }
            assert_eq!(vm.run(), RunOutcome::Completed);
            vm.steps()
        };
        for step in 0..=total {
            let mut vm = Vm::new(inst.clone(), vm_config(CrashPolicy::DropDirty, 3));
            let (la, lb, cell) = vm.setup(|h, a, _| {
                (a.alloc(h, 8).unwrap(), a.alloc(h, 8).unwrap(), a.alloc(h, 128).unwrap())
            });
            for _ in 0..2 {
                vm.spawn("op", &[la as u64, lb as u64, cell as u64]);
            }
            vm.run_steps(step);
            let pool = vm.crash(step);
            recover(pool.clone(), inst.clone(), vm_config(CrashPolicy::DropDirty, 3), RecoveryConfig::for_tests());
            let mut h = pool.handle();
            let (v0, v64) = (h.read_u64(cell), h.read_u64(cell + 64));
            assert_eq!(v0, v64, "{scheme}: hand-over-hand torn at step {step}");
            assert!(v0 <= 2);
        }
    }
}

#[test]
fn origin_is_crash_vulnerable() {
    // The uninstrumented baseline gives no durability: completed FASEs are
    // lost if their lines were never written back — which is exactly why
    // the paper's failure-atomicity systems exist.
    let inst = twin_counter(Scheme::Origin);
    let mut s = setup(inst, vm_config(CrashPolicy::DropDirty, 1), 2, true);
    assert_eq!(s.vm.run(), RunOutcome::Completed);
    let cell = s.cell;
    let pool = s.vm.crash(0);
    let mut h = pool.handle();
    assert_eq!(h.read_u64(cell), 0, "origin work vanishes with the cache");
}

#[test]
fn recovery_of_clean_pool_is_noop() {
    for scheme in Scheme::ALL.into_iter().filter(|s| *s != Scheme::Origin) {
        let inst = twin_counter(scheme);
        let mut s = setup(inst.clone(), vm_config(CrashPolicy::DropDirty, 1), 2, true);
        assert_eq!(s.vm.run(), RunOutcome::Completed);
        let cell = s.cell;
        let pool = s.vm.crash(0);
        let report =
            recover(pool.clone(), inst, vm_config(CrashPolicy::DropDirty, 1), RecoveryConfig::for_tests());
        assert_eq!(report.resumed, 0);
        let mut h = pool.handle();
        assert_eq!(h.read_u64(cell), 2, "{scheme}: completed work lost");
        assert_eq!(h.read_u64(cell + 64), 2);
    }
}

#[test]
fn ido_recovery_is_constant_work_while_atlas_scans_logs() {
    // The mechanism behind Table I: Atlas recovery scans a log that grows
    // with pre-crash work; iDO recovery work stays flat.
    let work = |scheme: Scheme, ops: usize| -> u64 {
        let inst = twin_counter(scheme);
        let mut vm = Vm::new(inst.clone(), vm_config(CrashPolicy::DropDirty, 5));
        let (lock, cell) = vm.setup(|h, alloc, _| {
            let l = alloc.alloc(h, 8).unwrap();
            let c = alloc.alloc(h, 128).unwrap();
            h.persist(c, 128);
            (l, c)
        });
        // One worker performs `ops` FASEs sequentially by re-spawning.
        for _ in 0..ops {
            vm.spawn("op", &[lock as u64, cell as u64]);
        }
        vm.run();
        let pool = vm.crash(1);
        let report =
            recover(pool, inst, vm_config(CrashPolicy::DropDirty, 5), RecoveryConfig::default());
        report.log_entries_scanned as u64
    };
    let atlas_small = work(Scheme::Atlas, 4);
    let atlas_big = work(Scheme::Atlas, 40);
    assert!(atlas_big >= atlas_small * 5, "Atlas log scan grows with history");
    let ido_small = work(Scheme::Ido, 4);
    let ido_big = work(Scheme::Ido, 40);
    assert_eq!(ido_small, 0);
    assert_eq!(ido_big, 0, "iDO recovery scans no per-store log");
}

#[test]
fn crash_during_recovery_is_survivable() {
    // Crash mid-FASE, then crash *during* the recovery's re-execution at
    // every possible point, then recover fully. The final state must be
    // consistent and the twin counters intact — recovery is idempotent.
    use ido_vm::recover_partial;
    for scheme in [Scheme::Ido, Scheme::JustDo] {
        let inst = twin_counter(scheme);
        let cfg = vm_config(CrashPolicy::DropDirty, 21);
        // First, find a crash point with an interrupted FASE.
        let total = total_steps(scheme, 2, true);
        let first_crash = total / 2;
        for recovery_budget in 1..40u64 {
            let mut s = setup(inst.clone(), cfg.clone(), 2, true);
            s.vm.run_steps(first_crash);
            let cell = s.cell;
            let pool = s.vm.crash(11);
            // Crash the recovery itself after `recovery_budget` steps.
            let finished =
                recover_partial(pool.clone(), inst.clone(), cfg.clone(), recovery_budget);
            if !finished {
                pool.crash(77);
            }
            // Then recover for real.
            recover(pool.clone(), inst.clone(), cfg.clone(), RecoveryConfig::for_tests());
            let mut h = pool.handle();
            let (v0, v64) = (h.read_u64(cell), h.read_u64(cell + 64));
            assert_eq!(
                v0, v64,
                "{scheme}: torn after crash-during-recovery (budget={recovery_budget})"
            );
            assert!(v0 <= 2);
            if finished {
                break; // recovery completed within the budget: sweep done
            }
        }
    }
}

#[test]
fn vms_and_recoveries_of_one_program_share_one_decoded_form() {
    // Every VM holds `program.decoded()`, so the reference count of that
    // one allocation is the number of live VMs built from clones of `inst`
    // (plus the program's cache and the handle held here) — and a VM that
    // decoded for itself would leave it unmoved.
    for scheme in [Scheme::Ido, Scheme::Atlas] {
        let inst = twin_counter(scheme);
        let cfg = vm_config(CrashPolicy::DropDirty, 5);
        let decoded = inst.program.decoded();
        let idle = Arc::strong_count(&decoded);

        let mut s = setup(inst.clone(), cfg.clone(), 2, true);
        assert_eq!(Arc::strong_count(&decoded), idle + 1, "{scheme}: Vm::new");
        s.vm.run_steps(total_steps(scheme, 2, true) / 2);
        let pool = s.vm.crash(3);
        assert_eq!(Arc::strong_count(&decoded), idle, "{scheme}: crashed VM");

        let a = Vm::attach(pool.clone(), inst.clone(), cfg.clone());
        let b = Vm::attach(pool.clone(), inst.clone(), cfg.clone());
        assert_eq!(Arc::strong_count(&decoded), idle + 2, "{scheme}: two attaches");
        assert_eq!(a.program(), b.program());
        drop((a, b));

        recover(pool, inst.clone(), cfg, RecoveryConfig::for_tests());
        assert_eq!(Arc::strong_count(&decoded), idle, "{scheme}: after recovery");
        assert!(Arc::ptr_eq(&decoded, &inst.program.decoded()));
    }
}
