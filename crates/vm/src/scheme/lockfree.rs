//! NVTraverse and LF-Eager: the lock-free pair. No locks, FASEs or logs:
//! durability hangs off the recoverable-CAS protocol of `ido-lockfree`, and
//! this module is glue — it evaluates an op's operands and calls the
//! matching step, and names no descriptor word or cell tag (`scripts/ci.sh`
//! greps). The instrumenter brackets every `cas` with `rt.lf_cas_prepare` /
//! `rt.lf_cas_publish` and ends each traversal with `rt.lf_flush_window`;
//! the VM keeps one persistent descriptor per thread in an [`LfState`] table
//! under [`LF_STATE_ROOT`], and recovery resolves each to taken xor
//! not-taken. NVTraverse collects a traversal's addresses in a
//! [`FlushWindow`] written back once before the CAS; LF-Eager writes back
//! and fences every store where it happens.

use ido_ir::RtOp;
use ido_lockfree::{rcas, FlushWindow, LfState, Resolution};
use ido_nvm::alloc::NvAllocator;
use ido_nvm::root::RootTable;
use ido_nvm::{PAddr, PmemHandle};
use ido_trace::RecoveryPhase;

use super::{Effect, RecoverCx, RtCx};
use crate::exec::{mem_addr, VmConfig, LF_STATE_ROOT};

/// Allocates the descriptor table of a fresh pool and publishes its root.
pub(super) fn create_state(
    h: &mut PmemHandle,
    alloc: &NvAllocator,
    roots: &RootTable,
    config: &VmConfig,
) -> LfState {
    let st = LfState::create(h, alloc, config.max_threads as u32).expect("lf_state allocation");
    roots.set_root(h, LF_STATE_ROOT, st.base).expect("lf_state root");
    st
}

/// Finds the descriptor table of an existing pool, if it has one.
pub(super) fn find_state(h: &mut PmemHandle, roots: &RootTable, cfg: &VmConfig) -> Option<LfState> {
    roots.root(h, LF_STATE_ROOT).map(|base| LfState { base, threads: cfg.max_threads as u32 })
}

/// NVTraverse's traversal-phase store: joins the flush window, written
/// back only at `rt.lf_flush_window` (exit of the traversal phase).
#[inline]
pub(super) fn window_store(w: &mut FlushWindow, h: &mut PmemHandle, addr: PAddr, value: u64) {
    h.write_u64(addr, value);
    w.note(addr);
}

/// NVTraverse's load: the journey's *reads* join the flush window too.
#[inline]
pub(super) fn window_load(w: &mut FlushWindow, h: &mut PmemHandle, addr: PAddr) -> u64 {
    w.note(addr);
    h.read_u64(addr)
}

/// Eager baseline: every persistent store is written back and
/// fenced at the store itself (no window, maximal fencing).
#[inline]
pub(super) fn eager_store(h: &mut PmemHandle, addr: PAddr, value: u64) {
    h.write_u64(addr, value);
    h.clwb(addr);
    h.sfence();
}

/// The pair's `Rt` ops, over thread `cx.t`'s window `w` (LF-Eager persists
/// every store at the store itself, so its window is always empty and its
/// `rt.lf_flush_window` a bare fence).
pub(super) fn rt(w: &mut FlushWindow, st: LfState, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
    let (frame, t) = (cx.frame, cx.t as u32);
    match op {
        RtOp::LfFlushWindow if cx.config.lf_bug_skip_window_flush => w.clear(),
        RtOp::LfFlushWindow => w.flush(cx.handle),
        &RtOp::LfCasPrepare { base, offset, expected, new } => {
            let target = mem_addr(frame.regs[base.id as usize], offset);
            let (expected, new) = (frame.eval(expected), frame.eval(new));
            rcas::prepare(cx.handle, st, t, target, expected, new);
        }
        &RtOp::LfCasPublish { base, offset, taken } => {
            let target = mem_addr(frame.regs[base.id as usize], offset);
            let taken = frame.regs[taken.id as usize] != 0;
            rcas::publish(cx.handle, st, t, target, taken, !cx.config.lf_bug_skip_publish);
        }
        _ => return super::foreign(op, "the lock-free pair"),
    }
    Effect::Next
}

/// Lock-free recovery: resolve every registered thread's persistent CAS
/// descriptor to taken xor not-taken and durably close it
/// ([`LfState::resolve_and_close`]). No FASEs, no logs, no resumption
/// threads — recovery work is one descriptor line per thread, independent
/// of how much the crashed run executed. Each closed in-flight descriptor
/// counts against the persist-operation budget; `None` (mid-protocol,
/// remaining descriptors still in flight) on exhaustion. The pass is
/// idempotent, so a crash during recovery just reruns it.
pub(super) fn recover(cx: &mut RecoverCx<'_>, roots: &RootTable) -> Option<()> {
    let st = find_state(cx.h, roots, cx.vm_config).expect("lock-free descriptor table root");
    cx.phase(RecoveryPhase::Scan, |_| Some(()))?;
    cx.phase(RecoveryPhase::Resume, |cx| {
        for t in 0..cx.threads.len().min(st.threads as usize) as u32 {
            // Peek first so closed descriptors cost no budget (and no write).
            if st.resolve(cx.h, t) == Resolution::Closed {
                continue;
            }
            cx.spend()?; // crash mid-resolution: rerun resolves the rest
            st.resolve_and_close(cx.h, t);
            // Reported as "resumed": the descriptor's operation was driven to
            // its durable conclusion, the family's analogue of resuming an
            // interrupted FASE.
            cx.report.resumed += 1;
        }
        Some(())
    })?;
    cx.phase(RecoveryPhase::Release, |_| Some(()))?;
    cx.finish(cx.h.clock_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{RunOutcome, Vm};
    use ido_compiler::{instrument_program, Scheme};
    use ido_lockfree::{align64, RcasThread};

    /// `main(cell)`'s CASes `(expected, new)`: taken, failed, superseding.
    const CASES: [(i64, i64); 3] = [(0, 41), (0, 42), (41, 43)];

    /// A VM with `main` spawned on a fresh cell, journaling from there on.
    fn spawned() -> (Vm, PAddr) {
        let mut pb = ido_ir::ProgramBuilder::new();
        let mut f = pb.new_function("main", 1);
        for (expected, new) in CASES {
            let (taken, cell) = (f.new_reg(), f.param(0));
            f.cas(taken, cell, 0, expected, new);
        }
        f.ret(None);
        f.finish().unwrap();
        let inst = instrument_program(pb.finish(), Scheme::Nvtraverse).unwrap();
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let cell = vm.setup(|h, alloc, _| align64(alloc.alloc(h, 128).unwrap()));
        vm.spawn("main", &[cell as u64]);
        vm.pool().record_journal(256);
        (vm, cell)
    }

    /// The `Rt` ops and the `cas` between them are `RcasThread::rcas` behind
    /// a window flush, persist event for persist event: a protocol
    /// re-inlined here would part from the copy `rcas_proptest` sweeps.
    #[test]
    fn instrumented_cas_leaves_the_journal_rcas_leaves() {
        let ((mut vm, cell), (twin, _)) = (spawned(), spawned());
        assert_eq!(vm.run(), RunOutcome::Completed);
        let (mut h, st) = (twin.pool().handle(), twin.lf_state().unwrap());
        let mut th = RcasThread::attach(&mut h, &st, 0);
        for (expected, new) in CASES {
            FlushWindow::default().flush(&mut h);
            assert_eq!(th.rcas(&mut h, &st, cell, expected as u64, new as u64), new != 42);
        }
        let native = twin.pool().journal_tail(256);
        assert!(native.len() > 30 && h.read_u64(cell) == 43);
        assert_eq!(vm.pool().journal_tail(256), native);
    }
}
