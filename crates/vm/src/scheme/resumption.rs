//! iDO and JUSTDO: recovery by resumption. Both log enough ahead of each
//! store to *finish* an interrupted FASE, record held locks in the same
//! persistent [`LockArray`], and recover by running a thread per interrupted
//! FASE forward from its log (Section III-C). iDO logs per idempotent
//! *region* and resumes at `recovery_pc`; JUSTDO logs per *store*, keeps
//! every FASE temporary in NVM, and resumes at the logged store.

use ido_compiler::Instrumented;
use ido_ir::{Operand, Pc, Reg, RtOp};
use ido_nvm::{PAddr, PmemHandle, PmemPool};
use ido_trace::{EventKind, RecoveryPhase};

use super::{flush_stores, Effect, RecoverCx, RtCx};
use crate::bitset::RegBitset;
use crate::exec::{Frame, RunOutcome, Vm, VmConfig};
use crate::layout::{
    decode_pc, encode_pc, LockArray, LockFence, RegistryEntry, ResumeLog, LOCK_ARRAY_SLOTS,
};
use crate::locks::ThreadId;

/// Which lock each slot of the thread's persistent lock array records.
/// Boxed: 1 KiB touched only by lock-record `Rt` ops and recovery, kept off
/// the struct the step loop switches between.
struct HeldLocks(Box<[Option<u64>; LOCK_ARRAY_SLOTS]>);

impl HeldLocks {
    /// `held`: the `(slot, lock)` records a recovery thread starts with.
    fn new(held: &[(usize, u64)]) -> HeldLocks {
        let mut slots = Box::new([None; LOCK_ARRAY_SLOTS]);
        held.iter().for_each(|&(slot, lock)| slots[slot] = Some(lock));
        HeldLocks(slots)
    }

    fn acquire(&mut self, array: LockArray, h: &mut PmemHandle, lock: u64, fence: LockFence) {
        let slot = self.0.iter().position(|s| s.is_none()).expect("lock_array full");
        self.0[slot] = Some(lock);
        array.record_acquire(h, slot, lock, fence);
    }

    /// `recovery`: only a recovery thread may release a lock it has no
    /// record of (its re-executed region runs the release again).
    fn release(
        &mut self,
        array: LockArray,
        h: &mut PmemHandle,
        lock: u64,
        fence: LockFence,
        recovery: bool,
    ) {
        match self.0.iter().position(|s| *s == Some(lock)) {
            Some(slot) => {
                self.0[slot] = None;
                array.record_release(h, slot, fence);
            }
            None => assert!(recovery, "releasing unrecorded lock outside recovery"),
        }
    }
}

/// What an iDO thread has done since its last region boundary (Section
/// III-A): the registers it defined (`dirty`, which the boundary logs), the
/// ones it read before writing them (the region's inputs, Fig. 8), and its
/// stores. No other scheme reads registers between FASE entry and exit, so
/// only iDO threads keep one (DESIGN.md §7.2).
pub(crate) struct RegTracking {
    dirty: RegBitset,
    written: RegBitset,
    read_before_write: RegBitset,
    stores: u64,
}

impl RegTracking {
    #[inline(always)]
    pub(crate) fn read(&mut self, r: Reg) {
        if !self.written.contains(r.id) {
            self.read_before_write.insert(r.id);
        }
    }

    #[inline(always)]
    pub(crate) fn write(&mut self, r: Reg) {
        self.written.insert(r.id);
        self.dirty.insert(r.id);
    }

    /// Parameters count as defined since the last boundary, so the first
    /// boundary of a FASE logs them; a live register's log slot then always
    /// holds its value as of the last boundary.
    pub(crate) fn params(&mut self, n: usize) {
        self.dirty.insert_range(n as u32);
    }

    /// `frame.eval(op)`, tracked: how an iDO `Rt` op reads an operand.
    fn eval(&mut self, frame: &Frame, op: Operand) -> u64 {
        if let Operand::Reg(r) = op {
            self.read(r);
        }
        frame.eval(op)
    }

    /// A region starts: nothing written, read or stored yet. `dirty` is
    /// the boundary's to clear: registers defined before a FASE must be
    /// logged by its first boundary.
    fn start_region(&mut self) {
        self.written.clear();
        self.read_before_write.clear();
        self.stores = 0;
    }
}

/// An iDO thread's volatile state.
pub(crate) struct IdoThread {
    log: ResumeLog,
    held: HeldLocks,
    pub(super) regs: RegTracking,
    /// Stores of the current region, written back at its boundary: a plain
    /// accumulator, sorted + deduped only when drained (DESIGN.md §7).
    region_stores: Vec<PAddr>,
    /// The lazy step-2 fence: the `recovery_pc` write-back has been issued
    /// but not yet fenced. It must drain before the next persistent store
    /// executes (or at the next fence, whichever comes first).
    pc_fence_pending: bool,
}

impl IdoThread {
    pub(super) fn new(areas: &RegistryEntry, max_regs: u32, held: &[(usize, u64)]) -> IdoThread {
        let (log, held) = (ido_log(areas, max_regs), HeldLocks::new(held));
        let set = || RegBitset::new(max_regs);
        let (dirty, written, read_before_write) = (set(), set(), set());
        let regs = RegTracking { dirty, written, read_before_write, stores: 0 };
        IdoThread { log, held, regs, region_stores: Vec::new(), pc_fence_pending: false }
    }

    #[inline]
    pub(super) fn store(&mut self, h: &mut PmemHandle, addr: PAddr, value: u64) {
        if self.pc_fence_pending {
            // The deferred step-2 fence: recovery_pc must persist
            // before this region performs a store that could
            // overwrite a predecessor region's inputs.
            h.sfence();
            self.pc_fence_pending = false;
        }
        h.write_u64(addr, value);
        self.region_stores.push(addr);
        self.regs.stores += 1;
    }

    /// Deliberate mis-fusion for harness self-tests: forget the tracked
    /// store so its clwb never happens at the next boundary.
    #[inline]
    pub(super) fn misfuse_store(&mut self, config: &VmConfig) {
        if config.tier2_bug_misfuse_store_clwb {
            self.region_stores.pop();
        }
    }

    pub(super) fn rt(&mut self, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        match op {
            RtOp::FaseBegin => {
                let a = self.log.stack_base();
                cx.handle.begin_log();
                cx.handle.write_u64(a, cx.frame.stack_base as u64);
                cx.handle.clwb(a);
                cx.handle.end_log();
                self.region_stores.clear();
                self.regs.start_region();
            }
            RtOp::FaseEnd => {
                let a = self.log.pc();
                // Defensive: anything still unflushed in the final
                // (boundary-to-release) region must persist *before*
                // the marker clears, or a crash in between would
                // declare the FASE complete with its last stores
                // missing.
                if !self.region_stores.is_empty() {
                    flush_stores(cx.handle, &mut self.region_stores);
                    cx.handle.sfence();
                }
                cx.handle.begin_log();
                cx.handle.write_u64(a, 0);
                cx.handle.clwb(a);
                cx.handle.end_log();
                cx.handle.sfence();
                self.pc_fence_pending = false;
            }
            RtOp::IdoBoundary { out_regs, .. } => self.boundary(cx, out_regs),
            &RtOp::LockAcquired { lock } => {
                let l = self.regs.eval(cx.frame, lock);
                let fence = if cx.config.ido_unmerged_acquire_fence {
                    LockFence::Single // the paper's single fence, unmerged
                } else {
                    // No fence here: the instrumentation always places a
                    // region boundary immediately after a lock acquisition,
                    // and the boundary's first fence drains these
                    // write-backs before recovery_pc advances. The paper's
                    // ordering requirement — the holder is recorded before
                    // any FASE work can be resumed — is preserved with zero
                    // extra fences (one better than the paper's single
                    // fence).
                    LockFence::Deferred
                };
                self.held.acquire(self.log.locks(), cx.handle, l, fence);
            }
            &RtOp::LockReleasing { lock } => {
                let l = self.regs.eval(cx.frame, lock);
                self.held.release(self.log.locks(), cx.handle, l, LockFence::Single, cx.recovery);
            }
            _ => return super::foreign(op, "iDO"),
        }
        Effect::Next
    }

    /// The iDO region boundary (Section III-A): persist the ending region's
    /// outputs (register log slots, persist-coalesced, plus run-time-tracked
    /// heap/stack stores), fence, advance `recovery_pc`, fence.
    fn boundary(&mut self, cx: &mut RtCx<'_>, live_filter: &[Reg]) {
        let stores = self.regs.stores;
        let inputs = self.regs.read_before_write.count() as u64;
        // Step 1: write + write back Def ∩ LiveOut register slots (up to 8
        // slots share one line: persist coalescing) and tracked stores.
        // `live_filter` comes from the instrumentation in ascending register
        // order; filtering it through the dirty bitset preserves that order,
        // so no intermediate collection is needed.
        let (frame, h) = (cx.frame, &mut *cx.handle);
        h.begin_log();
        for r in live_filter {
            if self.regs.dirty.contains(r.id) {
                let a = self.log.reg_slot(r.id);
                h.write_u64(a, frame.regs[r.id as usize]);
                h.clwb(a); // duplicate lines coalesce in the queue
                if cx.config.ido_no_coalescing {
                    h.sfence();
                }
            }
        }
        h.end_log();
        if cx.config.ido_bug_skip_store_flush {
            // Injected bug: the region's heap stores are forgotten, not
            // flushed — yet recovery_pc still advances (and is fenced
            // eagerly below), durably claiming the region completed.
            self.region_stores.clear();
        } else {
            flush_stores(h, &mut self.region_stores);
        }
        h.sfence();
        // Step 2: advance recovery_pc to the instruction after the boundary.
        // The paper fences here eagerly; we defer the fence until the next
        // region's first store (the only event it must precede — a late
        // recovery_pc merely re-executes one extra, WAR-free region). The
        // exhaustive crash sweeps in tests/crash_recovery.rs validate this.
        let next = Pc { index: cx.pc.index + 1, ..cx.pc };
        let a = self.log.pc();
        h.begin_log();
        h.write_u64(a, encode_pc(next));
        h.clwb(a);
        h.end_log();
        self.pc_fence_pending =
            !(cx.config.ido_eager_step2_fence || cx.config.ido_bug_skip_store_flush);
        if !self.pc_fence_pending {
            h.sfence();
        }
        // Step 3 begins when the caller advances; reset dynamic tracking.
        self.regs.dirty.clear();
        self.regs.start_region();
        h.observe(EventKind::RegionBoundary, stores, inputs);
    }
}

/// A JUSTDO thread's volatile state.
pub(crate) struct JustDoThread {
    log: ResumeLog,
    held: HeldLocks,
    fase_active: bool,
}

impl JustDoThread {
    pub(super) fn new(areas: &RegistryEntry, max_regs: u32, held: &[(usize, u64)]) -> Self {
        let (log, held) = (justdo_log(areas, max_regs), HeldLocks::new(held));
        JustDoThread { log, held, fase_active: false }
    }

    /// No-register-caching rule: FASE temporaries live in memory, so every
    /// instruction in a FASE pays a memory access. Attributed to logging:
    /// it is JUSTDO's persistence tax.
    #[inline]
    pub(super) fn step_tax(&self, config: &VmConfig) -> u64 {
        if self.fase_active {
            config.justdo_mem_tax_ns
        } else {
            0
        }
    }

    pub(super) fn rt(&mut self, cx: &mut RtCx<'_>, op: &RtOp) -> Effect {
        match op {
            RtOp::FaseBegin => {
                // JUSTDO forbids caching FASE state in registers:
                // the whole register context lives in NVM. Persist
                // the context at FASE entry (the original system
                // copied it at FASE initialization).
                self.fase_active = true;
                let (frame, h) = (cx.frame, &mut *cx.handle);
                let a = self.log.stack_base();
                h.begin_log();
                h.write_u64(a, frame.stack_base as u64);
                h.clwb(a);
                for (r, v) in frame.regs.iter().enumerate() {
                    let slot = self.log.reg_slot(r as u32);
                    h.write_u64(slot, *v);
                    h.clwb(slot);
                }
                h.end_log();
                h.sfence();
            }
            RtOp::FaseEnd => {
                self.fase_active = false;
                let a = self.log.pc();
                cx.handle.begin_log();
                cx.handle.write_u64(a, 0);
                cx.handle.clwb(a);
                cx.handle.end_log();
                cx.handle.sfence();
            }
            &RtOp::StoreRecord { target, value } => {
                let addr = cx.frame.target_addr(target) as u64;
                let v = cx.frame.eval(value);
                self.log_store(cx, addr, v);
            }
            &RtOp::JustDoShadow { reg } => {
                let v = cx.frame.regs[reg.id as usize];
                let a = self.log.reg_slot(reg.id);
                cx.handle.log_write_u64(a, v);
                cx.handle.clwb(a); // ordered by the next log fence
            }
            &RtOp::LockAcquired { lock } => {
                let l = cx.frame.eval(lock);
                self.held.acquire(self.log.locks(), cx.handle, l, LockFence::TwoPhase);
            }
            &RtOp::LockReleasing { lock } => {
                let l = cx.frame.eval(lock);
                self.held.release(self.log.locks(), cx.handle, l, LockFence::TwoPhase, cx.recovery);
            }
            _ => return super::foreign(op, "JUSTDO"),
        }
        Effect::Next
    }

    fn log_store(&self, cx: &mut RtCx<'_>, addr: u64, value: u64) {
        // The following store is at pc+1 (the log op immediately precedes it).
        let store_pc = Pc { index: cx.pc.index + 1, ..cx.pc };
        let (h, l) = (&mut *cx.handle, self.log);
        h.log_write_u64(l.store_addr(), addr);
        h.log_write_u64(l.store_value(), value);
        h.log_write_u64(l.pc(), encode_pc(store_pc));
        h.clwb(l.pc()); // one line holds all three fields
        h.observe(EventKind::LogAppend, 1, 24);
        h.sfence(); // first fence; the store itself fences again
    }
}

#[inline]
pub(super) fn justdo_store(h: &mut PmemHandle, addr: PAddr, value: u64) {
    // Persist the store before the next log entry can be
    // overwritten: JUSTDO's second fence per store.
    h.write_u64(addr, value);
    h.clwb(addr);
    h.sfence();
}

/// The iDO log among a thread's areas.
pub(super) fn ido_log(areas: &RegistryEntry, max_regs: u32) -> ResumeLog {
    ResumeLog::ido(areas.ido, max_regs)
}

/// The JUSTDO log among a thread's areas.
pub(super) fn justdo_log(areas: &RegistryEntry, max_regs: u32) -> ResumeLog {
    ResumeLog::justdo(areas.justdo, max_regs)
}

/// Recovery via resumption. The budget counts interpreter steps of the
/// recovery threads: when it runs out they stop mid-FASE, which is safe to
/// crash because a resumed thread only ever re-executes idempotent regions
/// (iDO) or logged stores (JUSTDO).
pub(super) fn recover(
    cx: &mut RecoverCx<'_>,
    pool: PmemPool,
    instrumented: Instrumented,
    log_of: fn(&RegistryEntry, u32) -> ResumeLog,
) -> Option<()> {
    let mut vm = Vm::attach(pool, instrumented, cx.vm_config.clone());
    // Scan phase: read each interrupted thread's log into a recovery
    // context (registers, stack pointer, held locks, resume pc).
    cx.phase(RecoveryPhase::Scan, |cx| {
        cx.report.resumed = build_recovery_threads(&mut vm, cx.h, cx.threads, log_of);
        let created = cx.rc.per_thread_ns * cx.threads.len() as u64;
        cx.h.set_clock_ns(cx.h.clock_ns() + created);
        Some(())
    })?;
    // Resume phase: execute every interrupted FASE forward to completion.
    cx.phase(RecoveryPhase::Resume, |cx| {
        let outcome = vm.run_steps(*cx.budget);
        if let RunOutcome::Fault { thread, pc, kind } = outcome {
            panic!("recovery thread {} faulted at {pc:?}: {kind}", thread.0);
        }
        *cx.budget = cx.budget.saturating_sub(vm.steps());
        cx.report.steps = vm.steps();
        cx.h.set_clock_ns(cx.h.clock_ns() + vm.max_clock_ns());
        (outcome == RunOutcome::Completed).then_some(())
    })?;
    // Release phase: recovery threads release their locks as part of FASE
    // completion (measured inside Resume), so this span records only the
    // handoff back to the application.
    cx.phase(RecoveryPhase::Release, |_| Some(()))?;
    cx.finish(vm.max_clock_ns())
}

/// Constructs the recovery threads; returns how many FASEs are resumed.
fn build_recovery_threads(
    vm: &mut Vm,
    h: &mut PmemHandle,
    threads: &[RegistryEntry],
    log_of: fn(&RegistryEntry, u32) -> ResumeLog,
) -> usize {
    let mut resumed = 0;
    for (idx, areas) in threads.iter().enumerate() {
        let log = log_of(areas, vm.max_regs);
        let pc = decode_pc(h.read_u64(log.pc()));
        let stack_base = h.read_u64(log.stack_base()) as PAddr;
        let regs: Vec<u64> = (0..vm.max_regs).map(|r| h.read_u64(log.reg_slot(r))).collect();
        let held = log.locks().read_held(h);
        let Some(pc) = pc else {
            // Robbed-lock case: stale records without a FASE in
            // progress are cleared.
            if !held.is_empty() {
                log.locks().clear(h);
            }
            continue;
        };
        let nregs = vm.program().function(pc.func).num_regs() as usize;
        let regs = regs[..nregs].to_vec();
        let frame = Frame { func: pc.func, pc, regs, stack_base, ret_reg: None };
        let ctx = vm.new_thread(idx, vm.thread_handle(idx), *areas, frame, Some(&held));
        held.iter().for_each(|&(_, lock)| vm.locks.grant(lock, ThreadId(vm.threads.len())));
        vm.threads.push(ctx);
        resumed += 1;
    }
    resumed
}
