//! Scheduler-equivalence gate: the shared key-array scheduler with
//! run-ahead (`crate::sched`) must produce, step for step, the schedule of
//! the per-step thread scan it replaced (`Vm::run_steps_reference`).
//!
//! Every case runs the same spawn script three times — on the reference,
//! on the engine under test with a recording hook (per-step thread
//! sequence via `StepInfo::thread`), and on the engine under test with no
//! hook (so tier 2 runs real multi-step segments) — and compares thread
//! sequences, step counts, per-thread clocks and per-thread
//! `StatsSnapshot`s.

use std::cell::RefCell;
use std::rc::Rc;

use ido_compiler::instrument_program;
use ido_ir::{BinOp, ProgramBuilder};
use ido_nvm::{LatencyModel, PoolConfig, StatsSnapshot};

use super::*;

/// The tournament tree's edge sizes — a power of two, one below, one above
/// — up to one count past [`MAX_THREADS`] (`max_threads` raised for it).
const THREAD_COUNTS: [usize; 13] = [1, 2, 3, 4, 5, 8, 9, 16, 63, 64, 65, 128, 129];
const SCHEMES: [Scheme; 5] =
    [Scheme::Origin, Scheme::Ido, Scheme::Atlas, Scheme::Mnemosyne, Scheme::JustDo];
const OPS: u64 = 3;
const BUCKETS: u64 = 64;

/// Which guest program the workers run.
#[derive(Clone, Copy, Debug)]
enum Guest {
    /// Lock-contended: every push takes the one stack lock.
    Stack,
    /// Mostly uncontended: each add locks one of [`BUCKETS`] buckets.
    Map,
}

/// `worker(lock, head, n)`: `n` pushes onto a Treiber-shaped stack under
/// one global lock.
fn stack_program(pb: &mut ProgramBuilder) {
    let mut f = pb.new_function("worker", 3);
    let (lock, head, n) = (f.param(0), f.param(1), f.param(2));
    let (i, c, node, old) = (f.new_reg(), f.new_reg(), f.new_reg(), f.new_reg());
    let (test, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.mov(i, 0i64);
    f.jump(test);
    f.switch_to(test);
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);
    f.switch_to(body);
    f.alloc(node, 16i64);
    f.lock(lock);
    f.load(old, head, 0);
    f.store(node, 0, old);
    f.store(node, 8, i);
    f.store(head, 0, node);
    f.unlock(lock);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(test);
    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("stack worker verifies");
}

/// `worker(table, seed, n)`: `n` increments of pseudo-randomly chosen
/// `[lock word, counter]` buckets, each under its own bucket's lock.
fn map_program(pb: &mut ProgramBuilder) {
    let mut f = pb.new_function("worker", 3);
    let (table, seed, n) = (f.param(0), f.param(1), f.param(2));
    let (i, c, x, b, v) = (f.new_reg(), f.new_reg(), f.new_reg(), f.new_reg(), f.new_reg());
    let (test, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.mov(i, 0i64);
    f.mov(x, seed);
    f.jump(test);
    f.switch_to(test);
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);
    f.switch_to(body);
    f.bin(BinOp::Mul, x, x, 0x5851_f42d_4c95_7f2di64);
    f.bin(BinOp::Add, x, x, 0x1405_7b7e_f767_814fi64);
    f.bin(BinOp::Shr, b, x, 33i64);
    f.bin(BinOp::And, b, b, (BUCKETS - 1) as i64);
    f.bin(BinOp::Shl, b, b, 4i64);
    f.bin(BinOp::Add, b, b, table);
    f.lock(b);
    f.load(v, b, 8);
    f.bin(BinOp::Add, v, v, 1i64);
    f.store(b, 8, v);
    f.unlock(b);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(test);
    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("map worker verifies");
}

fn instrumented(guest: Guest, scheme: Scheme) -> Instrumented {
    let mut pb = ProgramBuilder::new();
    match guest {
        Guest::Stack => stack_program(&mut pb),
        Guest::Map => map_program(&mut pb),
    }
    instrument_program(pb.finish(), scheme).expect("instrumentation")
}

/// A VM with its shared state set up; `spawn_worker` adds workers.
struct Case {
    vm: Vm,
    base: u64,
}

impl Case {
    fn new(
        guest: Guest,
        scheme: Scheme,
        sched: SchedPolicy,
        tier: ExecTier,
        zero_lat: bool,
        max_threads: usize,
    ) -> Self {
        let latency = if zero_lat { LatencyModel::zero() } else { LatencyModel::default() };
        let pool = PoolConfig { size: 8 << 20, latency, ..PoolConfig::small_for_tests() };
        let cfg = VmConfig { pool, sched, tier, seed: 11, max_threads, ..VmConfig::for_tests() };
        let mut vm = Vm::new(instrumented(guest, scheme), cfg);
        let base = vm.setup(|h, al, _| {
            let bytes = 16 * BUCKETS as usize;
            let a = al.alloc(h, bytes).expect("guest state");
            h.persist(a, bytes);
            a as u64
        });
        Case { vm, base }
    }

    fn spawn_worker(&mut self, guest: Guest) {
        let nth = self.vm.threads.len() as u64;
        let args = match guest {
            // Lock word and head cell are the first bucket's two words.
            Guest::Stack => [self.base, self.base + 8, OPS],
            Guest::Map => [self.base, 0x9e37_79b9 + nth * 0x1234_5677, OPS],
        };
        self.vm.spawn("worker", &args);
    }
}

/// Everything a schedule can be told apart by.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    steps: u64,
    outcome: RunOutcome,
    per_thread: Vec<(u64, StatsSnapshot, Status)>,
}

fn observe(vm: &Vm, outcome: RunOutcome) -> Observed {
    Observed {
        steps: vm.steps(),
        outcome,
        per_thread: vm
            .threads
            .iter()
            .map(|t| (t.handle.clock_ns(), t.handle.stats(), t.status))
            .collect(),
    }
}

type Runner = fn(&mut Vm, u64) -> RunOutcome;
type Sequence = Rc<RefCell<Vec<usize>>>;

/// Installs a hook that records the stepping thread and pauses on every
/// `pause_every`-th step (0 = never).
fn record(vm: &mut Vm, pause_every: u64) -> Sequence {
    let seq: Sequence = Rc::default();
    let sink = Rc::clone(&seq);
    vm.set_step_hook(Box::new(move |info| {
        sink.borrow_mut().push(info.thread.0);
        if pause_every != 0 && info.step % pause_every == 0 {
            StepControl::Pause
        } else {
            StepControl::Continue
        }
    }));
    seq
}

/// Calls `run(vm, budget)` with budgets cycling through `budgets` until the
/// VM stops pausing; a hook pause just re-enters.
fn run_to_end(vm: &mut Vm, run: Runner, budgets: &[u64]) -> RunOutcome {
    for &b in budgets.iter().cycle() {
        match run(vm, b) {
            RunOutcome::Paused => continue,
            done => return done,
        }
    }
    unreachable!("budgets is non-empty")
}

const UNINTERRUPTED: &[u64] = &[1 << 20];

#[test]
fn sched_equivalence_matches_the_reference_scan_step_for_step() {
    for guest in [Guest::Stack, Guest::Map] {
        for sched in [SchedPolicy::MinClock, SchedPolicy::Random] {
            for scheme in SCHEMES {
                for threads in THREAD_COUNTS {
                    // Zero latency maximises clock ties (the index
                    // tie-break); the default model spreads clocks out.
                    let zero_lat = threads % 2 == 0;
                    let build = |tier| {
                        let max_threads = threads.max(MAX_THREADS);
                        let mut c = Case::new(guest, scheme, sched, tier, zero_lat, max_threads);
                        (0..threads).for_each(|_| c.spawn_worker(guest));
                        c.vm
                    };
                    let mut reference = build(ExecTier::Tier1);
                    let want_seq = record(&mut reference, 0);
                    let outcome =
                        run_to_end(&mut reference, Vm::run_steps_reference, UNINTERRUPTED);
                    assert_eq!(outcome, RunOutcome::Completed);
                    let want = observe(&reference, outcome);

                    for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                        let what = format!("{guest:?} {sched:?} {scheme} {threads}T {tier:?}");
                        let mut hooked = build(tier);
                        let seq = record(&mut hooked, 0);
                        let outcome = run_to_end(&mut hooked, Vm::run_steps, UNINTERRUPTED);
                        assert_eq!(*seq.borrow(), *want_seq.borrow(), "{what}: thread sequence");
                        assert_eq!(observe(&hooked, outcome), want, "{what}: hooked");

                        let mut free = build(tier);
                        let outcome = run_to_end(&mut free, Vm::run_steps, UNINTERRUPTED);
                        assert_eq!(observe(&free, outcome), want, "{what}: unhooked");
                        assert!(free.sched_picks() <= free.steps(), "{what}: picks <= steps");
                    }
                }
            }
        }
    }
}

/// Re-entering `run_steps` — after a hook pause, after a small budget —
/// must not perturb the schedule: the key array is rebuilt on entry and
/// run-ahead state never survives a call.
#[test]
fn sched_equivalence_survives_pauses_and_small_budgets() {
    for guest in [Guest::Stack, Guest::Map] {
        for sched in [SchedPolicy::MinClock, SchedPolicy::Random] {
            for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                let build = || {
                    let mut c = Case::new(guest, Scheme::Ido, sched, tier, false, MAX_THREADS);
                    (0..5).for_each(|_| c.spawn_worker(guest));
                    c.vm
                };
                let mut reference = build();
                let want_seq = record(&mut reference, 0);
                let outcome = run_to_end(&mut reference, Vm::run_steps_reference, UNINTERRUPTED);
                let want = observe(&reference, outcome);

                let reentries: [(u64, &[u64]); 4] =
                    [(3, UNINTERRUPTED), (1, UNINTERRUPTED), (0, &[1, 2, 3, 7, 64]), (5, &[4, 9])];
                for (pause_every, budgets) in reentries {
                    let what = format!("{guest:?} {sched:?} {tier:?} k={pause_every} {budgets:?}");
                    let mut vm = build();
                    let seq = record(&mut vm, pause_every);
                    let outcome = run_to_end(&mut vm, Vm::run_steps, budgets);
                    assert_eq!(*seq.borrow(), *want_seq.borrow(), "{what}: thread sequence");
                    assert_eq!(observe(&vm, outcome), want, "{what}");
                }
            }
        }
    }
}

/// Threads added between `run_steps` calls — by `spawn`, and by
/// pushing a recovery thread as the resumption driver does — are scheduled
/// exactly as the reference scan schedules them.
#[test]
fn sched_equivalence_sees_threads_added_between_calls() {
    for guest in [Guest::Stack, Guest::Map] {
        for sched in [SchedPolicy::MinClock, SchedPolicy::Random] {
            for tier in [ExecTier::Tier1, ExecTier::Tier2] {
                let drive = |run: Runner| {
                    let mut c = Case::new(guest, Scheme::Ido, sched, tier, false, MAX_THREADS);
                    let seq = record(&mut c.vm, 0);
                    (0..3).for_each(|_| c.spawn_worker(guest));
                    assert_eq!(run(&mut c.vm, 150), RunOutcome::Paused);
                    (0..2).for_each(|_| c.spawn_worker(guest));
                    assert_eq!(run(&mut c.vm, 150), RunOutcome::Paused);

                    // A recovery thread resuming `worker` from its entry,
                    // over freshly allocated log and stack areas.
                    let vm = &mut c.vm;
                    let idx = vm.threads.len();
                    let areas = vm.setup(|h, al, _| {
                        let mut area = |bytes| {
                            let a = al.alloc(h, bytes).expect("recovery thread area");
                            h.persist(a, bytes);
                            a
                        };
                        RegistryEntry {
                            ido: area(4096),
                            justdo: area(4096),
                            append: area(AppendLogLayout::size_for(512)),
                            stack: area(4096),
                        }
                    });
                    let func = vm.program().find("worker").expect("worker");
                    let mut regs = vec![0; vm.program().function(func).num_regs() as usize];
                    regs[..3].copy_from_slice(&[c.base, c.base + 8, OPS]);
                    let pc = Pc { func, block: BlockId(0), index: 0 };
                    let frame = Frame { func, pc, regs, stack_base: areas.stack, ret_reg: None };
                    let ctx = vm.new_thread(idx, vm.thread_handle(idx), areas, frame, Some(&[]));
                    vm.threads.push(ctx);

                    let outcome = run_to_end(vm, run, UNINTERRUPTED);
                    assert_eq!(outcome, RunOutcome::Completed);
                    let seq = seq.borrow().clone();
                    (seq, observe(vm, outcome))
                };
                let want = drive(Vm::run_steps_reference);
                let got = drive(Vm::run_steps);
                let what = format!("{guest:?} {sched:?} {tier:?}");
                assert_eq!(got.0, want.0, "{what}: thread sequence");
                assert_eq!(got.1, want.1, "{what}");
                assert!(got.1.per_thread.len() == 6 && got.0.contains(&5), "{what}: all six ran");
            }
        }
    }
}
