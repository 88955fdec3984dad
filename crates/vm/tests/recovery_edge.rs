//! Recovery edge cases: empty logs, FASEs interrupted before their first
//! region boundary, nested indirect locks, and crashes during recovery —
//! the corners the exhaustive sweeps in `crash_recovery.rs` pass through
//! but do not pin down individually.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_ir::{Operand, ProgramBuilder};
use ido_nvm::{CrashPolicy, PAddr};
use ido_vm::{recover, recover_partial, RecoveryConfig, RunOutcome, Vm, VmConfig};

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

/// `op(l1, pp, p)`: nested FASE where the **inner lock is indirect** — its
/// address is loaded from `mem[pp]` at run time, so recovery can only learn
/// it from the persistent lock record, never from the program text.
fn nested_indirect(scheme: Scheme) -> Instrumented {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("op", 3);
    let l1 = f.param(0);
    let pp = f.param(1);
    let p = f.param(2);
    let l2 = f.new_reg();
    let a = f.new_reg();
    let a2 = f.new_reg();
    let b = f.new_reg();
    let b2 = f.new_reg();
    f.lock(l1);
    f.load(l2, pp, 0); // indirect: inner lock address lives in memory
    f.lock(l2);
    f.load(a, p, 0);
    f.bin(ido_ir::BinOp::Add, a2, a, 1i64);
    f.store(p, 0, Operand::Reg(a2));
    f.load(b, p, 64);
    f.bin(ido_ir::BinOp::Add, b2, b, 1i64);
    f.store(p, 64, Operand::Reg(b2));
    f.unlock(l2);
    f.unlock(l1);
    f.ret(None);
    f.finish().unwrap();
    instrument_program(pb.finish(), scheme).expect("instrumentation")
}

fn cfg(seed: u64) -> VmConfig {
    let mut c = VmConfig::for_tests();
    c.pool.crash_policy = CrashPolicy::DropDirty;
    c.seed = seed;
    c
}

const RESUMPTION: [Scheme; 2] = [Scheme::Ido, Scheme::JustDo];
const ALL_DURABLE: [Scheme; 6] = [
    Scheme::Ido,
    Scheme::JustDo,
    Scheme::Atlas,
    Scheme::Mnemosyne,
    Scheme::Nvml,
    Scheme::Nvthreads,
];

fn twin_setup(inst: &Instrumented, seed: u64, threads: usize) -> (Vm, PAddr, PAddr) {
    let mut vm = Vm::new(inst.clone(), cfg(seed));
    let (lock, cell) = vm.setup(|h, alloc, _| {
        let lock = alloc.alloc(h, 8).unwrap();
        let cell = alloc.alloc(h, 128).unwrap();
        h.write_u64(cell, 0);
        h.write_u64(cell + 64, 0);
        h.persist(cell, 128);
        (lock, cell)
    });
    for _ in 0..threads {
        vm.spawn("op", &[lock as u64, cell as u64]);
    }
    (vm, lock, cell)
}

/// Crash at step 0 — workers spawned (registry populated, logs formatted)
/// but not a single instruction executed. Every scheme's recovery must
/// treat the empty logs as "nothing happened": no resumption, no rollback,
/// no replay, and the pool must be reusable afterwards.
#[test]
fn recovery_of_empty_logs_is_a_noop() {
    for scheme in ALL_DURABLE {
        let inst = twin_counter(scheme);
        let (vm, lock, cell) = twin_setup(&inst, 11, 2);
        let pool = vm.crash(99);
        let report = recover(pool.clone(), inst.clone(), cfg(11), RecoveryConfig::for_tests());
        assert_eq!(report.resumed, 0, "{scheme}: nothing to resume from an empty log");
        assert_eq!(report.rolled_back, 0, "{scheme}: nothing to roll back");
        assert_eq!(report.replayed, 0, "{scheme}: nothing to replay");
        assert_eq!(report.threads_scanned, 2, "{scheme}: registry still scanned");
        let mut h = pool.handle();
        assert_eq!(h.read_u64(cell), 0, "{scheme}");
        assert_eq!(h.read_u64(cell + 64), 0, "{scheme}");
        drop(h);
        // The pool is live: fresh workers complete on the recovered image.
        let mut vm = Vm::attach(pool, inst, cfg(12));
        vm.spawn("op", &[lock as u64, cell as u64]);
        assert_eq!(vm.run(), RunOutcome::Completed, "{scheme}: lock usable after recovery");
        let mut h = vm.pool().handle();
        assert_eq!(h.read_u64(cell), 1, "{scheme}");
        assert_eq!(h.read_u64(cell + 64), 1, "{scheme}");
    }
}

/// Crash at each of the first few steps — lock acquired, recovery marker
/// still zero (the FASE never reached its first region boundary). The
/// resumption schemes must not invent work to resume, must clear the robbed
/// lock record, and must leave the lock acquirable.
#[test]
fn fase_interrupted_before_first_boundary_rolls_back_cleanly() {
    for scheme in RESUMPTION {
        let inst = twin_counter(scheme);
        for step in 1..=4u64 {
            let (mut vm, lock, cell) = twin_setup(&inst, 23, 1);
            vm.run_steps(step);
            let pool = vm.crash(step ^ 0xE11);
            let report =
                recover(pool.clone(), inst.clone(), cfg(23), RecoveryConfig::for_tests());
            // Whether the crash landed before or after the first boundary,
            // recovery must leave a consistent image...
            let mut h = pool.handle();
            let (v0, v64) = (h.read_u64(cell), h.read_u64(cell + 64));
            drop(h);
            assert_eq!(v0, v64, "{scheme} step {step}: torn twins {v0} vs {v64}");
            assert!(report.resumed <= 1, "{scheme} step {step}");
            // ...and a free lock: a fresh worker must finish the next FASE.
            let mut vm = Vm::attach(pool, inst.clone(), cfg(24));
            vm.spawn("op", &[lock as u64, cell as u64]);
            assert_eq!(
                vm.run(),
                RunOutcome::Completed,
                "{scheme} step {step}: robbed lock not cleared"
            );
            let mut h = vm.pool().handle();
            assert_eq!(h.read_u64(cell), v0 + 1, "{scheme} step {step}");
            assert_eq!(h.read_u64(cell + 64), v64 + 1, "{scheme} step {step}");
        }
    }
}

/// `recover_partial` on a crash-before-first-boundary image: cutting the
/// (trivial) recovery short at any budget must leave a pool a subsequent
/// full recovery brings back — including budget 0.
#[test]
fn interrupted_recovery_of_empty_fase_is_survivable() {
    for scheme in RESUMPTION {
        let inst = twin_counter(scheme);
        let (mut vm, lock, cell) = twin_setup(&inst, 31, 1);
        vm.run_steps(2); // inside the FASE, before the first boundary
        let pool = vm.crash(0xBAD);
        for budget in 0..3u64 {
            let done = recover_partial(pool.clone(), inst.clone(), cfg(31), budget);
            if !done {
                pool.crash(budget);
            }
            // With nothing to resume the recovery VM has no steps to run,
            // so any budget completes it.
            assert!(done, "{scheme}: empty recovery must finish within budget {budget}");
        }
        let report = recover(pool.clone(), inst.clone(), cfg(31), RecoveryConfig::for_tests());
        assert_eq!(report.resumed, 0, "{scheme}");
        let mut vm = Vm::attach(pool, inst.clone(), cfg(32));
        vm.spawn("op", &[lock as u64, cell as u64]);
        assert_eq!(vm.run(), RunOutcome::Completed, "{scheme}");
    }
}

/// One budgeted entry point for every scheme: a budget of one unit — an
/// interpreter step under resumption, a persist operation under log
/// processing — must leave an interrupted FASE's recovery unfinished
/// (`recover_partial` says so, and there is still one FASE to finish), and
/// a full recovery afterwards must finish it.
#[test]
fn a_budget_of_one_cuts_every_schemes_recovery_short() {
    for scheme in [Scheme::Ido, Scheme::JustDo, Scheme::Atlas, Scheme::Nvml] {
        let inst = twin_counter(scheme);
        let crashed_at = |step| {
            let (mut vm, _, cell) = twin_setup(&inst, 53, 1);
            assert_eq!(vm.run_steps(step), RunOutcome::Paused, "{scheme}: no busy step");
            (vm.crash(5), cell)
        };
        // The first step at which a crash leaves recovery more than one unit
        // of work: a FASE to resume, or UNDO entries to roll back.
        let busy = |step: &u64| {
            let pool = crashed_at(*step).0;
            let r = recover(pool, inst.clone(), cfg(53), RecoveryConfig::for_tests());
            r.steps > 1 || r.undo_entries > 0
        };
        let (pool, cell) = crashed_at((1..).find(busy).expect("a crash step with recovery work"));

        assert!(!recover_partial(pool.clone(), inst.clone(), cfg(53), 0), "{scheme}: budget 0");
        assert!(!recover_partial(pool.clone(), inst.clone(), cfg(53), 1), "{scheme}: budget 1");
        pool.crash(6);
        let report = recover(pool.clone(), inst.clone(), cfg(53), RecoveryConfig::for_tests());
        assert_eq!(report.resumed + report.rolled_back, 1, "{scheme}: still one FASE to finish");
        let mut h = pool.handle();
        assert_eq!(h.read_u64(cell), h.read_u64(cell + 64), "{scheme}: torn after recovery");
        assert!(recover_partial(pool.clone(), inst.clone(), cfg(53), 0), "{scheme}: nothing left");
    }
}

/// Exhaustive crash sweep over a nested FASE whose inner lock address is
/// loaded from memory: the persistent lock record (not the program text) is
/// recovery's only source for the inner lock, and both locks must be
/// released whether the crash lands before, between, or after the nested
/// acquisitions.
#[test]
fn nested_indirect_locks_recover_at_every_step() {
    for scheme in RESUMPTION {
        let inst = nested_indirect(scheme);
        // Reference run for the step count.
        let total = {
            let mut vm = Vm::new(inst.clone(), cfg(47));
            let (l1, pp, p) = vm.setup(|h, alloc, _| {
                let l1 = alloc.alloc(h, 8).unwrap();
                let l2 = alloc.alloc(h, 8).unwrap();
                let pp = alloc.alloc(h, 8).unwrap();
                let p = alloc.alloc(h, 128).unwrap();
                h.write_u64(pp, l2 as u64);
                h.write_u64(p, 0);
                h.write_u64(p + 64, 0);
                h.persist(pp, 8);
                h.persist(p, 128);
                (l1, pp, p)
            });
            vm.spawn("op", &[l1 as u64, pp as u64, p as u64]);
            assert_eq!(vm.run(), RunOutcome::Completed);
            vm.steps()
        };
        for step in 0..=total {
            let mut vm = Vm::new(inst.clone(), cfg(47));
            let (l1, pp, p) = vm.setup(|h, alloc, _| {
                let l1 = alloc.alloc(h, 8).unwrap();
                let l2 = alloc.alloc(h, 8).unwrap();
                let pp = alloc.alloc(h, 8).unwrap();
                let p = alloc.alloc(h, 128).unwrap();
                h.write_u64(pp, l2 as u64);
                h.write_u64(p, 0);
                h.write_u64(p + 64, 0);
                h.persist(pp, 8);
                h.persist(p, 128);
                (l1, pp, p)
            });
            vm.spawn("op", &[l1 as u64, pp as u64, p as u64]);
            vm.run_steps(step);
            let pool = vm.crash(step.wrapping_mul(0x9E37) | 1);
            let report =
                recover(pool.clone(), inst.clone(), cfg(47), RecoveryConfig::for_tests());
            let mut h = pool.handle();
            let (v0, v64) = (h.read_u64(p), h.read_u64(p + 64));
            drop(h);
            assert_eq!(v0, v64, "{scheme} step {step}/{total}: torn twins");
            if report.resumed > 0 {
                // A resumed FASE ran to completion: the increment landed.
                assert_eq!(v0, 1, "{scheme} step {step}: resumption must finish the FASE");
            }
            // Both locks (outer direct, inner indirect) must be free again.
            let mut vm = Vm::attach(pool, inst.clone(), cfg(48));
            vm.spawn("op", &[l1 as u64, pp as u64, p as u64]);
            assert_eq!(
                vm.run(),
                RunOutcome::Completed,
                "{scheme} step {step}/{total}: a nested lock stayed robbed"
            );
            let mut h = vm.pool().handle();
            assert_eq!(h.read_u64(p), v0 + 1, "{scheme} step {step}");
            assert_eq!(h.read_u64(p + 64), v64 + 1, "{scheme} step {step}");
        }
    }
}

/// Each `RecoveryEnd` is both summed into the trace's phase totals and
/// split over the metrics windows, so the two must agree even when the
/// recovery emits far more events than a trace ring holds (every undone
/// store and every retired log entry is a write-back event): the ring
/// evicts the early scan and resume markers, the emission-time totals keep
/// them.
#[test]
fn trace_and_metrics_agree_on_recovery_phases_under_ring_overflow() {
    let inst = twin_counter(Scheme::Atlas);
    let (mut vm, ..) = twin_setup(&inst, 31, 4);
    vm.run_steps(30);
    let pool = vm.crash(7);
    pool.set_trace(ido_trace::TraceConfig { enabled: true, buf_entries: 8 });
    pool.set_metrics(ido_nvm::MetricsConfig::with_window(1_000));
    // Nonzero scan cost, so the evicted scan phase has a duration to lose.
    recover(pool.clone(), inst, cfg(31), RecoveryConfig::default());
    let trace = pool.take_trace().expect("tracing was on");
    let metrics = pool.take_metrics().expect("metrics were on");
    assert!(trace.dropped > 0, "the recovery must overflow the 8-event ring");
    let phases = trace.recovery_phase_ns();
    assert!(phases[0] > 0, "the scan phase took simulated time: {phases:?}");
    assert_eq!(phases, metrics.recovery_phase_totals());
}
