//! NVTraverse and LF-Eager: the lock-free pair. No locks, FASEs or logs:
//! durability hangs off the recoverable-CAS protocol of `ido-lockfree`. The
//! instrumenter brackets every `cas` with `rt.lf_cas_prepare` /
//! `rt.lf_cas_publish` and ends each traversal with `rt.lf_flush_window`;
//! the VM keeps one persistent descriptor per thread in an [`LfState`] table
//! under [`LF_STATE_ROOT`], and recovery resolves each to taken xor
//! not-taken. NVTraverse collects a traversal's addresses in a flush
//! [`Window`] written back once before the CAS; LF-Eager writes back and
//! fences every store where it happens.

use ido_ir::RtOp;
use ido_lockfree::{
    encode_tag, tag_owner, tag_seq, LfState, Resolution, CELL_TAG, DESC_DONE, DESC_EXPECTED,
    DESC_NEW, DESC_SEQ, DESC_STATE, DESC_SUPER, DESC_TARGET, STATE_DONE_EMPTY, STATE_DONE_TAKEN,
    STATE_INFLIGHT,
};
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

/// NVTraverse's flush window: every address of the current traversal.
#[derive(Default)]
pub(crate) struct Window(Vec<PAddr>);

impl Window {
    /// Traversal-phase store: joins the flush window, written back
    /// only at `rt.lf_flush_window` (exit of the traversal phase).
    #[inline]
    pub(super) fn store(&mut self, h: &mut PmemHandle, addr: PAddr, value: u64) {
        h.write_u64(addr, value);
        self.0.push(addr);
    }

    /// The journey's *reads* join the flush window too — a recoverable CAS
    /// must never depend on a link value that a crash could revert.
    #[inline]
    pub(super) fn load(&mut self, h: &mut PmemHandle, addr: PAddr) -> u64 {
        self.0.push(addr);
        h.read_u64(addr)
    }

    /// Exit of the traversal phase: write back the journey (links read,
    /// new-node contents written) with one fence, immediately before the
    /// recoverable CAS — but only the lines that can still be volatile.
    /// Every published node was flushed by its inserter before its linking
    /// CAS, so a traversed line is non-persistent only when it holds this
    /// op's own stores or a neighbor's not-yet-published install; the dirty
    /// filter is the simulator's exact form of the paper's "flush only the
    /// critical zone" rule. LF-Eager persists every store at the store
    /// itself, so its window is always empty and this is a bare fence.
    fn flush(&mut self, h: &mut PmemHandle, config: &VmConfig) {
        if config.lf_bug_skip_window_flush {
            return self.0.clear();
        }
        self.0.sort_unstable();
        self.0.dedup_by_key(|a| ido_nvm::line_of(*a));
        for addr in self.0.drain(..) {
            if h.is_line_dirty(addr) {
                h.clwb(addr);
            }
        }
        h.sfence();
    }

    pub(super) fn rt(&mut self, st: LfState, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        let (th, slot) = (&mut *cx.th, st.slot(cx.t as u32));
        match op {
            RtOp::LfFlushWindow => self.flush(&mut th.handle, cx.config),
            &RtOp::LfCasPrepare { base, offset, expected, new } => {
                // Durably publish the in-flight descriptor (one line, one
                // write-back + fence) before the CAS touches the cell —
                // mirrors the prepare step of `RcasThread::rcas`. The
                // sequence number continues from the persisted one, so a
                // post-crash re-attach never reuses a sequence number.
                let target = mem_addr(th.read_reg(base), offset);
                let expected = th.eval(expected);
                let new = th.eval(new);
                let h = &mut th.handle;
                let s = h.read_u64(slot + DESC_SEQ) + 1;
                h.write_u64(slot + DESC_SEQ, s);
                h.write_u64(slot + DESC_TARGET, target as u64);
                h.write_u64(slot + DESC_EXPECTED, expected);
                h.write_u64(slot + DESC_NEW, new);
                h.write_u64(slot + DESC_STATE, STATE_INFLIGHT);
                h.clwb(slot);
                h.sfence();
            }
            &RtOp::LfCasPublish { base, offset, taken } => {
                // Persist-before-escape, then close the descriptor. A
                // failed CAS also closes durably (done-empty): that persist
                // per attempt is the descriptor-tracking tax the bench
                // attributes to the lock-free family.
                let target = mem_addr(th.read_reg(base), offset);
                let taken = th.read_reg(taken) != 0;
                let h = &mut th.handle;
                if taken {
                    if !cx.config.lf_bug_skip_publish {
                        h.clwb(target);
                        h.sfence();
                    }
                    let done = h.read_u64(slot + DESC_DONE);
                    h.write_u64(slot + DESC_DONE, done + 1);
                    h.write_u64(slot + DESC_STATE, STATE_DONE_TAKEN);
                } else {
                    h.write_u64(slot + DESC_STATE, STATE_DONE_EMPTY);
                }
                h.clwb(slot);
                h.sfence();
            }
            _ => return super::foreign(op, "the lock-free pair"),
        }
        Effect::Next
    }
}

/// Eager baseline: every persistent store is written back and
/// fenced at the store itself (no window, maximal fencing).
#[inline]
pub(super) fn eager_store(h: &mut PmemHandle, addr: PAddr, value: u64) {
    h.write_u64(addr, value);
    h.clwb(addr);
    h.sfence();
}

/// The compare-and-swap step: the *middle* of the recoverable-CAS protocol
/// (between `rt.lf_cas_prepare` and `rt.lf_cas_publish`): persist the
/// outgoing occupant before overwriting it, credit a superseded owner, then
/// install the value/tag pair volatilely — mirroring
/// `ido_lockfree::RcasThread::rcas` step for step.
pub(super) fn cas(
    h: &mut PmemHandle,
    st: LfState,
    t: u32,
    addr: PAddr,
    expected: u64,
    new: u64,
) -> bool {
    if h.read_u64(addr) != expected {
        // Failed CAS: nothing written; publish closes the descriptor.
        return false;
    }
    // Persist the outgoing occupant before overwriting it, and credit
    // a superseded owner so its crashed publish stays detectable.
    let prev_tag = h.read_u64(addr + CELL_TAG);
    h.clwb(addr);
    h.sfence();
    if let Some(prev_owner) = tag_owner(prev_tag).filter(|owner| *owner < st.threads) {
        let prev_slot = st.slot(prev_owner);
        let prev_seq = tag_seq(prev_tag);
        if h.read_u64(prev_slot + DESC_SUPER) < prev_seq {
            h.write_u64(prev_slot + DESC_SUPER, prev_seq);
            h.clwb(prev_slot);
            h.sfence();
        }
    }
    // Install (volatile; the cell pair shares a line so it cannot
    // tear). The tag's sequence number is the one the prepare step
    // just persisted in this thread's descriptor.
    let s = h.read_u64(st.slot(t) + DESC_SEQ);
    h.write_u64(addr, new);
    h.write_u64(addr + CELL_TAG, encode_tag(t, s));
    true
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
