//! Unit tests of the engine: instruction semantics, scheduling budgets,
//! step hooks, and the per-scheme persistence profiles seen from outside.

use super::*;
use ido_compiler::instrument_program;
use ido_ir::{BinOp, ProgramBuilder};
use std::cell::RefCell;
use std::rc::Rc;

fn compile(scheme: Scheme, build: impl FnOnce(&mut ProgramBuilder)) -> Instrumented {
    let mut pb = ProgramBuilder::new();
    build(&mut pb);
    instrument_program(pb.finish(), scheme).expect("instrumentation")
}

#[test]
fn binop_semantics() {
    assert_eq!(eval_binop(BinOp::Add, u64::MAX, 1), 0);
    assert_eq!(eval_binop(BinOp::Sub, 3, 5), (-2i64) as u64);
    assert_eq!(eval_binop(BinOp::Div, 7, 2), 3);
    assert_eq!(eval_binop(BinOp::Div, 7, 0), 0);
    assert_eq!(eval_binop(BinOp::Rem, 7, 0), 0);
    assert_eq!(eval_binop(BinOp::Lt, (-1i64) as u64, 0), 1, "signed compare");
    assert_eq!(eval_binop(BinOp::Shl, 1, 65), 2, "shift modulo 64");
}

#[test]
fn run_simple_arithmetic() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 2);
        let a = f.param(0);
        let b = f.param(1);
        let c = f.new_reg();
        f.bin(BinOp::Mul, c, a, b);
        f.ret(Some(Operand::Reg(c)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let t = vm.spawn("main", &[6, 7]);
    assert_eq!(vm.run(), RunOutcome::Completed);
    assert_eq!(vm.return_value(t), Some(42));
}

#[test]
fn heap_store_load_roundtrip() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 1);
        let p = f.param(0);
        let v = f.new_reg();
        f.store(p, 0, 99i64);
        f.load(v, p, 0);
        f.ret(Some(Operand::Reg(v)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let addr = vm.setup(|h, alloc, _| alloc.alloc(h, 8).unwrap());
    let t = vm.spawn("main", &[addr as u64]);
    vm.run();
    assert_eq!(vm.return_value(t), Some(99));
}

/// An `nv_malloc` the pool cannot serve and an `nv_free` of an address
/// never allocated stop the run with a fault at their pc, on both tiers,
/// and the run stays stopped: later calls return the same fault.
#[test]
fn failed_allocator_calls_are_faults_at_their_pc() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 1);
        let (size, p) = (f.param(0), f.new_reg());
        f.bin(BinOp::Add, p, size, 0i64);
        f.alloc(p, size);
        f.free(p);
        f.bin(BinOp::Add, p, p, 8i64);
        f.free(p);
        f.ret(None);
        f.finish().unwrap();
    });
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let config = VmConfig { tier, ..VmConfig::for_tests() };
        let at = |index| Pc { func: FuncId(0), block: BlockId(0), index };
        let huge = 1 << 40;
        let mut vm = Vm::new(inst.clone(), config.clone());
        vm.spawn("main", &[huge]);
        let fault =
            RunOutcome::Fault { thread: ThreadId(0), pc: at(1), kind: FaultKind::AllocFailed { size: huge } };
        assert_eq!(vm.run(), fault, "{tier:?}");
        assert_eq!(vm.steps(), 2, "{tier:?}: the faulting step counts");
        assert_eq!(vm.run_steps(10), fault, "{tier:?}: the run stays stopped");
        assert_eq!(vm.status(ThreadId(0)), Status::Faulted(FaultKind::AllocFailed { size: huge }));

        let mut vm = Vm::new(inst.clone(), config);
        vm.spawn("main", &[64]);
        let RunOutcome::Fault { pc, kind: FaultKind::FreeFailed { addr }, .. } = vm.run() else {
            panic!("{tier:?}: the second free must fault");
        };
        assert_eq!(pc, at(4), "{tier:?}");
        assert_eq!(addr % 8, 0, "{tier:?}: {addr:#x}");
        assert_eq!(
            FaultKind::FreeFailed { addr }.to_string(),
            format!("nv_free of {addr:#x} failed")
        );
    }
    assert_eq!(FaultKind::AllocFailed { size: 9 }.to_string(), "nv_malloc of 9 bytes failed");
}

/// A call whose frame does not fit on the persistent stack stops the run
/// with a fault at the call, on both tiers, as a failed allocation does.
#[test]
fn a_call_past_the_persistent_stack_is_a_fault_at_its_pc() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 0);
        let (slot, me) = (f.new_stack_slot(), f.declare("main"));
        f.store_stack(slot, 1i64);
        f.call(me, Vec::new(), None);
        f.ret(None);
        f.finish().unwrap();
    });
    let overflow = FaultKind::StackOverflow { frame_bytes: 8 };
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let mut vm = Vm::new(inst.clone(), VmConfig { tier, ..VmConfig::for_tests() });
        vm.spawn("main", &[]);
        let at = Pc { func: FuncId(0), block: BlockId(0), index: 1 };
        let fault = RunOutcome::Fault { thread: ThreadId(0), pc: at, kind: overflow };
        assert_eq!(vm.run(), fault, "{tier:?}");
        assert_eq!(vm.run_steps(10), fault, "{tier:?}: the run stays stopped");
    }
    assert_eq!(overflow.to_string(), "persistent stack overflow: frame of 8 bytes");
}

/// A self-recursive function without stack slots takes no persistent stack,
/// so the depth cap is what stops it: a fault at the call that would open
/// frame `MAX_CALL_DEPTH + 1`, on both tiers, instead of host frames growing
/// until the host runs out of memory.
#[test]
fn a_call_past_the_depth_cap_is_a_fault_at_its_pc() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 0);
        let me = f.declare("main");
        f.call(me, Vec::new(), None);
        f.ret(None);
        f.finish().unwrap();
    });
    let too_deep = FaultKind::CallTooDeep { depth: MAX_CALL_DEPTH as u64 };
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let mut vm = Vm::new(inst.clone(), VmConfig { tier, ..VmConfig::for_tests() });
        vm.spawn("main", &[]);
        let at = Pc { func: FuncId(0), block: BlockId(0), index: 0 };
        let fault = RunOutcome::Fault { thread: ThreadId(0), pc: at, kind: too_deep };
        assert_eq!(vm.run(), fault, "{tier:?}");
        assert_eq!(vm.steps(), MAX_CALL_DEPTH as u64, "{tier:?}: one call per frame, the faulting one too");
        assert_eq!(vm.run_steps(10), fault, "{tier:?}: the run stays stopped");
    }
    assert_eq!(too_deep.to_string(), "call depth exceeds 4096 frames");
}

/// A thread whose areas the pool cannot hold is a fault at its entry pc, on
/// both tiers: the threads spawned before it stay, none runs, and a later
/// spawn adds no thread.
#[test]
fn a_spawn_the_pool_cannot_hold_is_a_fault_at_its_entry() {
    let inst = compile(Scheme::Ido, |pb| {
        let mut f = pb.new_function("main", 0);
        f.ret(None);
        f.finish().unwrap();
    });
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let mut vm = Vm::new(inst.clone(), VmConfig { tier, ..VmConfig::for_tests() });
        let ids: Vec<ThreadId> = (0..MAX_THREADS).map(|_| vm.spawn("main", &[])).collect();
        let fault = vm.run();
        let RunOutcome::Fault { thread, pc, kind: FaultKind::SpawnFailed { bytes } } = fault else {
            panic!("{tier:?}: a 1 MiB pool holds {MAX_THREADS} threads: {fault:?}");
        };
        assert!(thread.0 > 0 && bytes > 0, "{tier:?}: {fault:?}");
        assert_eq!(pc, Pc { func: FuncId(0), block: BlockId(0), index: 0 }, "{tier:?}");
        assert!(ids[thread.0..].iter().all(|&id| id == thread), "{tier:?}: a later spawn added a thread");
        assert_eq!(vm.steps(), 0, "{tier:?}");
        assert_eq!(vm.status(ThreadId(thread.0 - 1)), Status::Runnable, "{tier:?}");
        assert_eq!(vm.run_steps(10), fault, "{tier:?}: the run stays stopped");
    }
    assert_eq!(
        FaultKind::SpawnFailed { bytes: 16480 }.to_string(),
        "spawn could not allocate a 16480-byte thread area"
    );
}

/// A set-up that could not build its state reports its fault at the first
/// spawn's entry, which adds no thread, as a spawn the pool cannot hold does.
#[test]
fn a_failed_setup_is_a_fault_at_the_first_spawned_entry() {
    let inst = compile(Scheme::Ido, |pb| {
        let mut f = pb.new_function("main", 0);
        f.ret(None);
        f.finish().unwrap();
    });
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let mut vm = Vm::new(inst.clone(), VmConfig { tier, ..VmConfig::for_tests() });
        let kind = FaultKind::AllocFailed { size: 1 << 30 };
        vm.setup_failed(kind);
        assert_eq!(vm.spawn("main", &[]), ThreadId(0));
        assert_eq!(vm.spawn("main", &[]), ThreadId(0), "{tier:?}: a later spawn added a thread");
        let pc = Pc { func: FuncId(0), block: BlockId(0), index: 0 };
        let fault = RunOutcome::Fault { thread: ThreadId(0), pc, kind };
        assert_eq!(vm.run(), fault, "{tier:?}");
        assert_eq!(vm.steps(), 0, "{tier:?}");
    }
}

/// A FASE that logs past the append log's capacity stops the run with a
/// fault at the runtime op that could not append, on both tiers: Atlas's
/// per-store record, NVML's per-line snapshot, NVThreads' commit batch and
/// Mnemosyne's commit record (its stores append on the store path, which
/// only notes the overflow).
#[test]
fn a_full_append_log_is_a_fault_at_the_appending_op() {
    let capacity = 64;
    for scheme in [Scheme::Atlas, Scheme::Nvml, Scheme::Nvthreads, Scheme::Mnemosyne] {
        let inst = compile(scheme, |pb| {
            let mut f = pb.new_function("main", 2);
            let (lock, block) = (f.param(0), f.param(1));
            let (i, more, addr) = (f.new_reg(), f.new_reg(), f.new_reg());
            let (head, body, exit) = (f.new_block(), f.new_block(), f.new_block());
            f.mov(i, 0i64);
            f.lock(lock);
            f.jump(head);
            f.switch_to(head);
            f.bin(BinOp::Lt, more, i, 2 * capacity as i64);
            f.branch(more, body, exit);
            f.switch_to(body);
            f.bin(BinOp::Mul, addr, i, 8i64);
            f.bin(BinOp::Add, addr, addr, block);
            f.store(addr, 0, Operand::Reg(i));
            f.bin(BinOp::Add, i, i, 1i64);
            f.jump(head);
            f.switch_to(exit);
            f.unlock(lock);
            f.ret(None);
            f.finish().unwrap();
        });
        for tier in [ExecTier::Tier1, ExecTier::Tier2] {
            let config = VmConfig { tier, log_entries: capacity, ..VmConfig::for_tests() };
            let mut vm = Vm::new(inst.clone(), config);
            let (lock, block) = vm.setup(|h, alloc, _| {
                (alloc.alloc(h, 8).unwrap(), alloc.alloc(h, 16 * capacity).unwrap())
            });
            vm.spawn("main", &[lock as u64, block as u64]);
            let fault = vm.run();
            let RunOutcome::Fault { thread: ThreadId(0), pc, kind } = fault else {
                panic!("{scheme} {tier:?}: {fault:?}");
            };
            assert_eq!(kind, FaultKind::LogFull { capacity: capacity as u64 }, "{scheme} {tier:?}");
            let op = &vm.program().function(pc.func).block(pc.block).insts[pc.index as usize];
            assert!(matches!(op, Inst::Rt(_)), "{scheme} {tier:?}: faulted at {op:?}");
            assert_eq!(vm.run_steps(10), fault, "{scheme} {tier:?}: the run stays stopped");
        }
    }
    assert_eq!(FaultKind::LogFull { capacity: 512 }.to_string(), "append log full at its 512 entries");
}

/// Guest address arithmetic wraps as the machine's does, in debug builds
/// too, and the pool names the address it refuses.
#[test]
#[should_panic(expected = "out-of-bounds access at 0x8000000000000000")]
fn a_load_past_the_top_of_the_signed_range_is_out_of_bounds() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 1);
        let p = f.param(0);
        let v = f.new_reg();
        f.load(v, p, 1);
        f.ret(Some(Operand::Reg(v)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    vm.spawn("main", &[i64::MAX as u64]);
    vm.run();
}

#[test]
fn stack_slots_work() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("main", 0);
        let s = f.new_stack_slot();
        let v = f.new_reg();
        f.store_stack(s, 31i64);
        f.load_stack(v, s);
        f.ret(Some(Operand::Reg(v)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let t = vm.spawn("main", &[]);
    vm.run();
    assert_eq!(vm.return_value(t), Some(31));
}

#[test]
fn calls_and_returns() {
    let inst = compile(Scheme::Origin, |pb| {
        let callee = pb.declare("double");
        let mut f = pb.new_function("main", 1);
        let x = f.param(0);
        let r = f.new_reg();
        f.call(callee, vec![Operand::Reg(x)], Some(r));
        let r2 = f.new_reg();
        f.call(callee, vec![Operand::Reg(r)], Some(r2));
        f.ret(Some(Operand::Reg(r2)));
        f.finish().unwrap();
        let mut g = pb.new_function("double", 1);
        let p = g.param(0);
        let d = g.new_reg();
        g.bin(BinOp::Add, d, p, Operand::Reg(p));
        g.ret(Some(Operand::Reg(d)));
        g.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let t = vm.spawn("main", &[5]);
    assert_eq!(vm.run(), RunOutcome::Completed);
    assert_eq!(vm.return_value(t), Some(20));
}

#[test]
fn loops_terminate() {
    let inst = compile(Scheme::Origin, |pb| {
        let mut f = pb.new_function("sum", 1);
        let n = f.param(0);
        let i = f.new_reg();
        let acc = f.new_reg();
        let c = f.new_reg();
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        f.jump(head);
        f.switch_to(head);
        f.bin(BinOp::Lt, c, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        f.bin(BinOp::Add, acc, acc, i);
        f.bin(BinOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(Some(Operand::Reg(acc)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let t = vm.spawn("sum", &[10]);
    vm.run();
    assert_eq!(vm.return_value(t), Some(45));
}

/// Builds the canonical "locked counter increment" used by many tests:
/// `fn incr(lock, cell) { lock; v = mem[cell]; mem[cell] = v + 1; unlock }`
fn counter_program(scheme: Scheme) -> Instrumented {
    compile(scheme, |pb| {
        let mut f = pb.new_function("incr", 2);
        let l = f.param(0);
        let p = f.param(1);
        let v = f.new_reg();
        let v2 = f.new_reg();
        f.lock(l);
        f.load(v, p, 0);
        f.bin(BinOp::Add, v2, v, 1i64);
        f.store(p, 0, Operand::Reg(v2));
        f.unlock(l);
        f.ret(None);
        f.finish().unwrap();
    })
}

/// A VM with `threads` workers of [`counter_program`] spawned over one
/// fresh lock holder and one zeroed cell; returns the cell.
fn counter_vm(scheme: Scheme, config: VmConfig, threads: usize) -> (Vm, PAddr) {
    let mut vm = Vm::new(counter_program(scheme), config);
    let (lock_holder, cell) = vm.setup(|h, alloc, _| {
        let (lh, c) = (alloc.alloc(h, 8).unwrap(), alloc.alloc(h, 8).unwrap());
        h.write_u64(c, 0);
        h.persist(c, 8);
        (lh, c)
    });
    for _ in 0..threads {
        vm.spawn("incr", &[lock_holder as u64, cell as u64]);
    }
    (vm, cell)
}

fn run_counter(scheme: Scheme, threads: usize, seed: u64) -> u64 {
    let (mut vm, cell) = counter_vm(scheme, VmConfig { seed, ..VmConfig::for_tests() }, threads);
    assert_eq!(vm.run(), RunOutcome::Completed);
    let mut h = vm.pool().handle();
    h.read_u64(cell)
}

/// Fences the pool saw once `vm`'s thread handles fold their stats into it.
fn fences_of(vm: Vm) -> u64 {
    let pool = vm.pool().clone();
    drop(vm);
    pool.global_stats().fences
}

#[test]
fn mutual_exclusion_across_schemes() {
    for scheme in Scheme::ALL {
        for seed in [1, 7, 99] {
            assert_eq!(
                run_counter(scheme, 8, seed),
                8,
                "lost update under {scheme} seed {seed}"
            );
        }
    }
}

#[test]
fn ido_profile_counts_regions_and_fases() {
    let mut config = VmConfig::for_tests();
    config.pool.trace = ido_trace::TraceConfig::on();
    let (mut vm, _) = counter_vm(Scheme::Ido, config, 1);
    vm.run();
    let pool = vm.pool().clone();
    drop(vm);
    let trace = pool.take_trace().expect("tracing on");
    let (profile, counts) = (&trace.profile, trace.counts_by_kind());
    assert_eq!(profile.fases, 1);
    assert!(profile.regions >= 2);
    // The profile and the events are one observation.
    assert_eq!(profile.fases, counts[ido_trace::EventKind::FaseEnter as usize]);
    assert_eq!(profile.regions, counts[ido_trace::EventKind::RegionBoundary as usize]);
    // The region carrying the store reports it.
    let stores: u64 = (0..ido_trace::PROFILE_BUCKETS).map(|k| profile.stores_hist[k] * k as u64).sum();
    assert!(stores >= 1);
}

#[test]
fn deterministic_for_fixed_seed() {
    let run = || {
        let (mut vm, _) = counter_vm(Scheme::Ido, VmConfig { seed: 5, ..VmConfig::for_tests() }, 4);
        vm.run();
        (vm.steps(), vm.max_clock_ns())
    };
    assert_eq!(run(), run());
}

#[test]
fn run_steps_budget_is_relative() {
    // Two `run_steps(n)` calls execute exactly `2n` steps: the budget
    // counts steps from the call, not from the start of the run.
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        let (mut vm, _) = counter_vm(Scheme::Ido, VmConfig { tier, ..VmConfig::for_tests() }, 4);
        assert_eq!(vm.run_steps(7), RunOutcome::Paused);
        assert_eq!(vm.steps(), 7, "{tier:?}");
        assert_eq!(vm.run_steps(7), RunOutcome::Paused);
        assert_eq!(vm.steps(), 14, "{tier:?}");
    }
}

/// A clock that leaves the scheduler's range is a fault of the thread, at
/// the instruction after the step that left it, and no hook sees that
/// step: the pick ends there before the hook fires (DESIGN.md §7.6). It
/// once panicked in the scheduler's key packing.
#[test]
fn a_clock_leaving_the_range_faults_before_the_hook_sees_the_step() {
    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
        for sched in [SchedPolicy::MinClock, SchedPolicy::Random] {
            let inst = compile(Scheme::Origin, |pb| {
                let mut f = pb.new_function("main", 0);
                f.delay(MAX_CLOCK_NS);
                f.delay(1000);
                f.ret(None);
                f.finish().unwrap();
            });
            let mut vm = Vm::new(inst, VmConfig { sched, tier, ..VmConfig::for_tests() });
            vm.spawn("main", &[]);
            let seen = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&seen);
            vm.set_step_hook(Box::new(move |info| {
                sink.borrow_mut().push(info.step);
                StepControl::Continue
            }));
            let RunOutcome::Fault { thread, pc, kind } = vm.run() else {
                panic!("{tier:?} {sched:?}: the run must fault");
            };
            assert_eq!((thread, pc.index, kind), (ThreadId(0), 2, FaultKind::ClockOutOfRange { clock: MAX_CLOCK_NS + 1000 }));
            assert_eq!(*seen.borrow(), [1], "{tier:?} {sched:?}: the hook saw only the step in range");
            assert_eq!(vm.run(), RunOutcome::Fault { thread, pc, kind }, "the fault is sticky");
        }
    }
}

/// The step loop switches between `ThreadCtx`s on every hand-off, so
/// the struct's size is host cost at high thread counts. It was 2176 B
/// with the lock-record array inline and a 704 B handle; keep both out.
/// It was 576 B while it kept iDO's register tracking under every scheme;
/// that tracking is `IdoThread`'s now (488 B).
#[test]
fn thread_ctx_stays_compact() {
    let size = std::mem::size_of::<ThreadCtx>();
    assert!(size <= 496, "ThreadCtx grew to {size} B");
}

#[test]
fn blocked_threads_wait_and_resume() {
    let (mut vm, _) = counter_vm(Scheme::Origin, VmConfig::for_tests(), 3);
    assert_eq!(vm.run(), RunOutcome::Completed);
}

#[test]
fn mnemosyne_buffers_until_commit() {
    // Inside the txn, memory is unchanged until TxCommit publishes.
    let inst = compile(Scheme::Mnemosyne, |pb| {
        let mut f = pb.new_function("w", 2);
        let l = f.param(0);
        let p = f.param(1);
        let v = f.new_reg();
        f.lock(l);
        f.store(p, 0, 5i64);
        f.load(v, p, 0); // must see own write through the write set
        f.store(p, 8, Operand::Reg(v));
        f.unlock(l);
        f.ret(Some(Operand::Reg(v)));
        f.finish().unwrap();
    });
    let mut vm = Vm::new(inst, VmConfig::for_tests());
    let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 16).unwrap()));
    let t = vm.spawn("w", &[lh as u64, c as u64]);
    vm.run();
    assert_eq!(vm.return_value(t), Some(5), "read-own-write");
    let mut h = vm.pool().handle();
    assert_eq!(h.read_u64(c), 5);
    assert_eq!(h.read_u64(c + 8), 5);
}

#[test]
fn justdo_charges_two_fences_per_store() {
    let (mut vm, _) = counter_vm(Scheme::JustDo, VmConfig::for_tests(), 1);
    vm.run();
    let stats = vm.pool().global_stats();
    // 1 store: log fence + store fence; plus 2×2 for the lock ops and
    // one for fase end.
    assert!(stats.fences >= 2 + 4, "expected JUSTDO's fence-heavy profile, got {stats}");
}

#[test]
fn ido_uses_fewer_fences_than_justdo_on_multi_store_fases() {
    // An 8-store FASE: iDO covers all stores with one region boundary
    // (2 fences), while JUSTDO pays 2 fences per store.
    let fences = |scheme| {
        let inst = compile(scheme, |pb| {
            let mut f = pb.new_function("blast", 2);
            let l = f.param(0);
            let p = f.param(1);
            f.lock(l);
            for k in 0..8 {
                f.store(p, k * 8, (k + 1) as i64);
            }
            f.unlock(l);
            f.ret(None);
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 64).unwrap()));
        vm.spawn("blast", &[lh as u64, c as u64]);
        vm.run();
        fences_of(vm)
    };
    assert!(
        fences(Scheme::Ido) < fences(Scheme::JustDo),
        "iDO consolidates per-store logging into per-region logging"
    );
}

/// An iDO FASE program suitable for persist-boundary exploration: two
/// threads increment disjoint counters under one lock.
fn fase_counters(scheme: Scheme) -> Instrumented {
    compile(scheme, |pb| {
        let mut f = pb.new_function("bump", 3);
        let l = f.param(0);
        let p = f.param(1);
        let k = f.param(2);
        let off = f.new_reg();
        let v = f.new_reg();
        let v1 = f.new_reg();
        f.bin(BinOp::Mul, off, k, 64i64);
        f.bin(BinOp::Add, off, p, Operand::Reg(off));
        f.lock(l);
        f.load(v, off, 0);
        f.bin(BinOp::Add, v1, v, 7i64);
        f.store(off, 0, Operand::Reg(v1));
        f.unlock(l);
        f.ret(None);
        f.finish().unwrap();
    })
}

fn fase_vm(scheme: Scheme, seed: u64) -> (Vm, PAddr) {
    let mut cfg = VmConfig::for_tests();
    cfg.seed = seed;
    cfg.sched = SchedPolicy::Random;
    let mut vm = Vm::new(fase_counters(scheme), cfg);
    let (l, p) = vm.setup(|h, al, _| {
        let l = al.alloc(h, 8).unwrap();
        let p = al.alloc(h, 128).unwrap();
        h.persist(p, 128);
        (l, p)
    });
    for t in 0..2u64 {
        vm.spawn("bump", &[l as u64, p as u64, t]);
    }
    (vm, p)
}

#[test]
fn ido_coalesces_boundary_outputs_into_line_flushes() {
    // A boundary's live-out registers share log lines (Section IV-B):
    // one write-back and one fence per line, not per register.
    let fences = |no_coalescing| {
        let cfg = VmConfig { ido_no_coalescing: no_coalescing, ..VmConfig::for_tests() };
        let (mut vm, _) = counter_vm(Scheme::Ido, cfg, 1);
        vm.run();
        fences_of(vm)
    };
    assert!(fences(false) < fences(true), "coalescing must save fences");
}

#[test]
fn step_hook_observes_every_step_and_replays_deterministically() {
    // Reference run: uninterrupted, record the persist-event trace.
    let (mut vm, p) = fase_vm(Scheme::Ido, 42);
    let trace: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = trace.clone();
    vm.set_step_hook(Box::new(move |info| {
        sink.borrow_mut().push((info.step, info.persist_events));
        StepControl::Continue
    }));
    assert_eq!(vm.run(), RunOutcome::Completed);
    let total = vm.steps();
    let h = &mut vm.pool().handle();
    let finals = (h.read_u64(p), h.read_u64(p + 64));
    let trace = trace.borrow();
    assert_eq!(trace.len() as u64, total, "hook fires once per step");
    assert_eq!(trace.last().unwrap().0, total);
    assert!(trace.windows(2).all(|w| w[0].1 <= w[1].1), "persist count is monotone");
    assert!(trace.last().unwrap().1 > 0, "an iDO FASE must persist something");

    // Replay: a fresh VM with identical config paused by the hook at
    // every single step still executes the identical schedule.
    let (mut vm2, p2) = fase_vm(Scheme::Ido, 42);
    vm2.set_step_hook(Box::new(|_| StepControl::Pause));
    let mut replayed = Vec::new();
    loop {
        let out = vm2.run_steps(u64::MAX);
        if vm2.steps() > replayed.last().map_or(0, |&(s, _)| s) {
            replayed.push((vm2.steps(), vm2.pool().persist_event_count()));
        }
        if out != RunOutcome::Paused {
            break;
        }
    }
    assert_eq!(replayed, *trace, "pausing must not perturb the schedule");
    let h2 = &mut vm2.pool().handle();
    assert_eq!((h2.read_u64(p2), h2.read_u64(p2 + 64)), finals);
}

#[test]
fn crash_with_overrides_configured_policy() {
    // The program stores without any flush; under the configured
    // DropDirty policy the value dies, but crash_with(EvictAll) on an
    // identically seeded twin keeps it.
    let run = |policy: Option<ido_nvm::CrashPolicy>| {
        let inst = compile(Scheme::Origin, |pb| {
            let mut f = pb.new_function("main", 1);
            let a = f.param(0);
            f.store(a, 0, 77i64);
            f.ret(None);
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let a = vm.setup(|h, al, _| al.alloc(h, 8).unwrap());
        vm.spawn("main", &[a as u64]);
        vm.run();
        let pool = match policy {
            Some(p) => vm.crash_with(9, &p),
            None => vm.crash(9),
        };
        pool.handle().read_u64(a)
    };
    assert_eq!(run(None), 0, "DropDirty loses the unflushed store");
    assert_eq!(run(Some(ido_nvm::CrashPolicy::EvictAll)), 77);
    assert_eq!(run(Some(ido_nvm::CrashPolicy::losing([]))), 77, "empty lost set = evict all");
}

#[test]
fn ido_bug_skip_store_flush_drops_region_stores() {
    // With the injected bug, an iDO boundary advances recovery_pc
    // durably while the region's heap store never gets a clwb — the
    // dirty line must still be volatile-only right after completion.
    let mut cfg = VmConfig::for_tests();
    cfg.ido_bug_skip_store_flush = true;
    let mut vm = Vm::new(fase_counters(Scheme::Ido), cfg);
    let (l, p) = vm.setup(|h, al, _| {
        let l = al.alloc(h, 8).unwrap();
        let p = al.alloc(h, 128).unwrap();
        h.persist(p, 128);
        (l, p)
    });
    vm.spawn("bump", &[l as u64, p as u64, 0]);
    assert_eq!(vm.run(), RunOutcome::Completed);
    let pool = vm.crash(3); // DropDirty: every unflushed line dies
    assert_eq!(
        pool.handle().read_u64(p),
        0,
        "bug variant must leave the FASE's store unpersisted"
    );
}
