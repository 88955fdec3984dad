//! Zero-allocation regression test for the interpreter hot loop (ISSUE 2
//! acceptance: "no per-step heap allocation or `Inst` clone in the hot
//! loop").
//!
//! The instruction stream is pre-decoded at `Vm::new`, `step_thread`
//! borrows instructions from it, and the per-access tracking sets are
//! fixed-size bitsets — so executing straight-line arithmetic must not
//! touch the heap at all. This test pins that with a counting
//! `#[global_allocator]`: after warmup, a 100k-step window of a pure
//! arithmetic loop must perform exactly zero allocations. Any future
//! regression to per-step cloning/collecting shows up as a nonzero count.
//!
//! The handle's recorder extends the guarantee: with `PoolConfig::trace`
//! enabled, every event lands in the ring preallocated at handle creation
//! (wrapping overwrites, never grows), and with `PoolConfig::metrics`
//! enabled every op span lands in fixed-size histograms and window cells
//! preallocated up front — so the traced hot loop and a hot loop bracketed
//! by `op_begin`/`op_end` markers must also measure zero allocations.
//!
//! The tier-2 block-compiled engine (ISSUE 6) inherits the guarantee: a
//! segment run borrows the thread's register file (`mem::take` of the
//! frame's `Vec`, returned at segment exit), the compiled `Tier2Program`
//! is built once at `Vm::new`, and batched cost charges are plain integer
//! arithmetic — so tier-2 segments must also execute allocation-free.
//! All phases run sequentially in the single test below.
//!
//! Counting is scoped to the test's own thread (see `MEASURED_THREAD`),
//! so allocations on other process threads — notably libtest's main
//! thread, whose timed channel recv can allocate on scheduler wakeups —
//! cannot pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ido_compiler::{instrument_program, Scheme};
use ido_ir::{BinOp, ProgramBuilder};
use ido_vm::{ExecTier, RunOutcome, Vm, VmConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Count only the measuring thread's allocations. The process has other
// live threads — libtest's main thread waits on a channel whose timed
// recv can re-register (and allocate) on scheduler wakeups, which is
// load-dependent — and charging those to the hot loop made this test
// flake under a busy machine. The hot loop runs entirely on the test
// thread, so a thread-scoped count pins the same guarantee without the
// cross-thread noise. (`const`-init TLS never allocates, so reading the
// flag inside the allocator cannot recurse; `try_with` covers TLS
// teardown.)
thread_local! {
    static MEASURED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn note() {
    if MEASURED_THREAD.try_with(|f| f.get()).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note();
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `worker(n)`: a counted loop of pure register arithmetic — the distilled
/// interpreter hot path (Mov/Bin/Branch/Jump; no locks, stores, or calls).
fn arithmetic_loop() -> ido_ir::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let acc = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.mov(i, 0i64);
    f.mov(acc, 1i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    f.bin(BinOp::Add, acc, acc, i);
    f.bin(BinOp::Xor, acc, acc, 0x5aa5i64);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("arithmetic loop verifies");
    pb.finish()
}

/// `worker(n)`: the arithmetic loop with a persistent store per iteration
/// — the distilled *traced* hot path (every store emits a ring event).
fn store_loop() -> ido_ir::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let base = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.alloc(base, 64i64);
    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    f.store(base, 0, i);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("store loop verifies");
    pb.finish()
}

/// `worker(n)`: the store loop with each iteration bracketed by metrics
/// op-span markers — the distilled *metered* hot path (span open/close,
/// latency record, counter-delta attribution per iteration).
fn op_span_loop() -> ido_ir::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.new_function("worker", 1);
    let n = f.param(0);
    let i = f.new_reg();
    let base = f.new_reg();

    let head = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();

    f.alloc(base, 64i64);
    f.mov(i, 0i64);
    f.jump(head);

    f.switch_to(head);
    let c = f.new_reg();
    f.bin(BinOp::Lt, c, i, n);
    f.branch(c, body, exit);

    f.switch_to(body);
    f.op_begin(2i64);
    f.store(base, 0, i);
    f.op_end(2i64);
    f.bin(BinOp::Add, i, i, 1i64);
    f.jump(head);

    f.switch_to(exit);
    f.ret(None);
    f.finish().expect("op span loop verifies");
    pb.finish()
}

/// Runs `program` for a measured 100k-step window and returns the VM for
/// post-window assertions.
fn measure_window(program: ido_ir::Program, cfg: VmConfig, what: &str) -> Vm {
    let inst = instrument_program(program, Scheme::Origin)
        .expect("origin instrumentation is the identity");
    let mut vm = Vm::new(inst, cfg);
    // More iterations than the measured window can consume, so the thread
    // never exits the loop (Ret/teardown is not the hot path).
    vm.spawn("worker", &[u64::MAX / 2]);

    // Warmup: first steps may lazily grow frames, scheduler state, etc.
    assert_eq!(vm.run_steps(10_000), RunOutcome::Paused);

    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(vm.run_steps(110_000), RunOutcome::Paused);
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "the {what} hot loop must not allocate: {} allocations in 100k steps",
        after - before
    );
    vm
}

#[test]
fn hot_loop_makes_zero_allocations_per_step() {
    MEASURED_THREAD.with(|f| f.set(true));

    // Phase 1: tracing disabled (the default) — the original guarantee.
    measure_window(arithmetic_loop(), VmConfig::for_tests(), "decoded-instruction");

    // Phase 2: tracing enabled with a deliberately tiny ring, so the
    // measured window both emits events and wraps the ring many times —
    // wrapping must overwrite in place, never grow.
    let mut cfg = VmConfig::for_tests();
    cfg.pool.trace = ido_trace::TraceConfig { enabled: true, buf_entries: 256 };
    let vm = measure_window(store_loop(), cfg, "traced");

    let pool = vm.pool().clone();
    drop(vm); // fold the thread's ring into the pool collector
    let trace = pool.take_trace().expect("tracing was on");
    assert!(trace.pushed > 10_000, "window must emit events ({} pushed)", trace.pushed);
    assert!(trace.dropped > 0, "the 256-entry ring must wrap ({} pushed)", trace.pushed);
    assert_eq!(trace.events.len() as u64, trace.pushed - trace.dropped);

    // Phase 3: the tier-2 engine on the same arithmetic loop — fused
    // Mov/Bin/CmpBranch superinstructions in gated segments, register file
    // borrowed from the frame, still zero allocations per step.
    let mut t2 = VmConfig::for_tests();
    t2.tier = ExecTier::Tier2;
    measure_window(arithmetic_loop(), t2, "tier-2 block-compiled");

    // Phase 4: tier 2 with tracing on and the tiny wrapping ring — the
    // fused store+clwb path emits through the same preallocated ring.
    let mut t2t = VmConfig::for_tests();
    t2t.tier = ExecTier::Tier2;
    t2t.pool.trace = ido_trace::TraceConfig { enabled: true, buf_entries: 256 };
    measure_window(store_loop(), t2t, "tier-2 traced");

    // Phase 5: metrics enabled — every iteration opens and closes an op
    // span (histogram record + counter-delta attribution). A huge window
    // keeps the whole run in cell 0, so the preallocated window vector
    // never grows inside the measured window.
    let mut mcfg = VmConfig::for_tests();
    mcfg.pool.metrics = ido_nvm::MetricsConfig::with_window(1 << 40);
    let vm = measure_window(op_span_loop(), mcfg, "metered");
    let pool = vm.pool().clone();
    drop(vm); // fold the thread's recorder into the pool collector
    let m = pool.take_metrics().expect("metrics were on");
    assert!(m.total_ops() > 10_000, "window must record op spans ({} ops)", m.total_ops());
    assert_eq!(m.total_ops(), m.per_kind[2].count(), "all spans carry the put kind");

    // Phase 6: tier 2 with metrics on — op markers are non-fusible, so
    // the tier-1 stepper executes them between fused segments; still
    // allocation-free.
    let mut t2m = VmConfig::for_tests();
    t2m.tier = ExecTier::Tier2;
    t2m.pool.metrics = ido_nvm::MetricsConfig::with_window(1 << 40);
    measure_window(op_span_loop(), t2m, "tier-2 metered");
}
