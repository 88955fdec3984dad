//! The tier-2 segment executor.
//!
//! [`exec_segment`] runs one picked thread through a straight-line segment
//! of fused superinstructions ([`ido_ir::tier2`]), chaining across fused
//! terminators, and returns control to the scheduler loop in `exec.rs` only
//! when the scheduling policy demands it (step budget, clock limit, lock
//! block/wake) or when control reaches a non-fusible instruction.
//!
//! # Equivalence with tier 1
//!
//! Tier 1 is the reference semantics; this executor must be observationally
//! indistinguishable from it at every step boundary. The techniques and
//! their soundness arguments (see DESIGN.md §10):
//!
//! * **Batched cost accounting.** Pure ops (`Mov`/`Bin`/branches/`Delay`)
//!   only advance the thread clock; nothing observable happens between
//!   them. Their charges accumulate in `pending_work`/`pending_log` and are
//!   flushed to the handle *before* any operation that can observe the
//!   clock or emit a persist/trace event (memory ops, lock ops) and at
//!   segment exit. Totals per category and the clock at every event are
//!   therefore bit-identical to tier 1's step-by-step charging.
//! * **Register windows.** The frame's register file is checked out
//!   (`std::mem::take`) into a local slice for the segment and restored at
//!   exit. The scheme store/load helpers never touch frames (asserted by
//!   their signatures: they borrow only the [`ThreadCtx`]'s scheme state
//!   and handle), so no aliasing is possible.
//! * **Per-step gate.** Before every fused step except the segment's first
//!   (the scheduler pick already authorized that one), the executor checks
//!   exactly the conditions under which tier 1's scheduler would have
//!   switched threads; on the sole-runnable-thread Random path it burns
//!   the same one RNG word per step that tier-1 picks would have drawn.
//!   The scheme's per-step tax (JUSTDO's in-FASE memory tax) is added per
//!   step, like tier 1's `exec` preamble (it cannot change inside a
//!   segment: only unfused runtime ops toggle it).
//! * **Deopt points.** Any pc without a fused entry — calls, returns,
//!   allocation, runtime ops, and every recovery thread — executes on
//!   tier 1 via `step_thread`. The step hook forces `max_steps == 1`, so
//!   hooked runs (the crash oracle) land on identical per-step states.

use ido_ir::{BlockId, FuncId, Operand, Pc, T2Kind, Tier2Entry, Tier2Function};
use ido_trace::{Category, EventKind};

use crate::exec::{eval_binop, mem_addr, Status, ThreadCtx, VmConfig};
use crate::locks::{Acquire, LockTable, ThreadId};
use crate::sched::{next_rng, MAX_CLOCK_NS};
use crate::scheme;

/// Where to enter the segment (resolved from a [`Tier2Entry`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegEntry {
    /// Segment index within the entry block.
    pub seg: u32,
    /// Op index within the segment.
    pub op: u32,
    /// Resume at the branch half of the `CmpBranch` at `op` (its compare
    /// half already executed before a pause).
    pub branch_half: bool,
}

/// Scheduling constraints for one segment run.
pub(crate) struct SegLimits<'a> {
    /// Maximum tier-1 steps to execute (≥ 1; the pick grants at least one).
    pub max_steps: u64,
    /// Stop before a step that would start with this thread's clock at or
    /// above the limit (MinClock: the scheduler's run-ahead limit;
    /// `u64::MAX` for none).
    pub clock_limit: u64,
    /// When set (Random policy, sole runnable thread), draw one word per
    /// executed step after the first — the draws tier-1 picks would have
    /// consumed.
    pub rng: Option<&'a mut u64>,
}

/// Why the segment returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegExit {
    /// Limits reached, or control reached a non-fusible instruction: pick
    /// again.
    Return,
    /// An unlock handed the lock to this waiter; the caller must wake it
    /// (clock inheritance) before the next pick.
    Wake(ThreadId),
    /// The thread blocked on a lock (status already updated; pc stays on
    /// the `Lock` so it re-executes after handoff, like tier 1).
    Blocked,
}

/// Result of one segment run.
pub(crate) struct SegRun {
    /// Tier-1 steps executed (each fused op counts its constituent steps).
    pub executed: u64,
    /// Exit reason.
    pub exit: SegExit,
}

/// Executes thread `t` from `entry` in `block` of `f2` until a limit or
/// deopt point, preserving tier-1 observable behaviour exactly.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn exec_segment(
    t: usize,
    th: &mut ThreadCtx,
    locks: &mut LockTable,
    config: &VmConfig,
    f2: &Tier2Function,
    entry: SegEntry,
    block: BlockId,
    limits: SegLimits,
) -> SegRun {
    let inst_cost = config.inst_cost_ns;
    // Constant for the whole segment: only unfused runtime ops change it.
    let tax = scheme::step_tax(th, config);
    let locks_subsumed = scheme::subsumes_program_locks(th);
    let SegLimits { max_steps, clock_limit, mut rng } = limits;

    let func: FuncId = th.frame.func;
    let stack_base = th.frame.stack_base;
    // Check the register file out of the frame for the segment (restored
    // at every exit below). The scheme helpers never touch frames.
    let mut regs_vec = std::mem::take(&mut th.frame.regs);

    let mut cur_block = block;
    let mut blk = &f2.blocks[cur_block.0 as usize];
    let mut segref = &blk.segs[entry.seg as usize];
    let mut op_i = entry.op as usize;
    let mut skip_cmp = entry.branch_half;

    let mut executed: u64 = 0;
    let mut pending_work: u64 = 0;
    let mut pending_log: u64 = 0;

    let (exit, resume_idx): (SegExit, u32) = 'run: {
        let regs: &mut [u64] = &mut regs_vec;
        let mut first = true;

        // Tier-1 `read_reg`: track the read (iDO), then read.
        macro_rules! rd {
            ($r:expr) => {{
                let r = $r;
                if let Some(track) = th.scheme.ido_regs() {
                    track.read(r);
                }
                regs[r.id as usize]
            }};
        }
        // Tier-1 `write_reg`: track the write (iDO), then write.
        macro_rules! wr {
            ($r:expr, $v:expr) => {{
                let r = $r;
                let v = $v;
                if let Some(track) = th.scheme.ido_regs() {
                    track.write(r);
                }
                regs[r.id as usize] = v;
            }};
        }
        macro_rules! ev {
            ($op:expr) => {
                match $op {
                    Operand::Reg(r) => rd!(r),
                    Operand::Imm(v) => v as u64,
                }
            };
        }
        // Flush batched charges before anything that can observe the clock
        // or emit an event.
        macro_rules! flush {
            () => {
                if pending_work > 0 {
                    th.handle.advance(pending_work);
                    pending_work = 0;
                }
                if pending_log > 0 {
                    th.handle.advance_as(Category::Log, pending_log);
                    pending_log = 0;
                }
            };
        }
        // The per-step scheduler gate. `$idx` is the tier-1 pc.index to
        // materialize if the segment must stop *before* this step. The
        // first step is exempt: the scheduler pick already granted it.
        macro_rules! gate {
            ($idx:expr) => {
                if first {
                    first = false;
                } else {
                    if executed >= max_steps {
                        break 'run (SegExit::Return, $idx);
                    }
                    if th.handle.clock_ns() + pending_work + pending_log >= clock_limit {
                        break 'run (SegExit::Return, $idx);
                    }
                    if let Some(r) = rng.as_mut() {
                        next_rng(r);
                    }
                }
                pending_log += tax;
            };
        }

        'chain: loop {
            // Taking a fused terminator: chain straight into `$target`
            // when its first instruction is fused, else deopt there.
            macro_rules! goto {
                ($target:expr) => {{
                    let target: BlockId = $target;
                    cur_block = target;
                    blk = &f2.blocks[cur_block.0 as usize];
                    match blk.entries.first() {
                        Some(&Tier2Entry::Op { seg, op }) => {
                            segref = &blk.segs[seg as usize];
                            op_i = op as usize;
                            continue 'chain;
                        }
                        _ => break 'run (SegExit::Return, 0),
                    }
                }};
            }

            while let Some(op) = segref.ops.get(op_i) {
                let idx = op.idx;
                match op.kind {
                    T2Kind::Mov { dst, src } => {
                        gate!(idx);
                        let v = ev!(src);
                        pending_work += inst_cost;
                        wr!(dst, v);
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::Bin { op, dst, a, b } => {
                        gate!(idx);
                        let x = ev!(a);
                        let y = ev!(b);
                        pending_work += inst_cost;
                        wr!(dst, eval_binop(op, x, y));
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::CmpBranch { op, dst, a, b, then_bb, else_bb } => {
                        // Two tier-1 steps; resumable between them.
                        if skip_cmp {
                            skip_cmp = false;
                        } else {
                            gate!(idx);
                            let x = ev!(a);
                            let y = ev!(b);
                            pending_work += inst_cost;
                            wr!(dst, eval_binop(op, x, y));
                            executed += 1;
                        }
                        gate!(idx + 1);
                        let c = rd!(dst);
                        pending_work += inst_cost;
                        executed += 1;
                        goto!(if c != 0 { then_bb } else { else_bb });
                    }
                    T2Kind::Load { dst, base, offset } => {
                        gate!(idx);
                        let addr = mem_addr(rd!(base), offset);
                        flush!();
                        let v = scheme::load(th, addr);
                        wr!(dst, v);
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::Store { base, offset, src } => {
                        gate!(idx);
                        let addr = mem_addr(rd!(base), offset);
                        let v = ev!(src);
                        flush!();
                        scheme::store_fused(th, config, addr, v);
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::LoadStack { dst, slot } => {
                        gate!(idx);
                        let addr = stack_base + slot.0 as usize * 8;
                        flush!();
                        let v = scheme::load(th, addr);
                        wr!(dst, v);
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::StoreStack { slot, src } => {
                        gate!(idx);
                        let v = ev!(src);
                        let addr = stack_base + slot.0 as usize * 8;
                        flush!();
                        scheme::store(th, addr, v);
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::Jump { target } => {
                        gate!(idx);
                        pending_work += inst_cost;
                        executed += 1;
                        goto!(target);
                    }
                    T2Kind::Branch { cond, then_bb, else_bb } => {
                        gate!(idx);
                        let c = ev!(cond);
                        pending_work += inst_cost;
                        executed += 1;
                        goto!(if c != 0 { then_bb } else { else_bb });
                    }
                    T2Kind::Delay { ns } => {
                        gate!(idx);
                        if ns > MAX_CLOCK_NS {
                            // Charged at once (`ido-nvm` saturates) so the
                            // batched sums cannot wrap; the next gate ends
                            // the segment and the publish names the failure.
                            flush!();
                            th.handle.advance(ns);
                        } else {
                            pending_work += ns;
                        }
                        executed += 1;
                        op_i += 1;
                    }
                    T2Kind::Lock { lock } => {
                        gate!(idx);
                        if locks_subsumed {
                            // Subsumed by the scheme's own lock: pc
                            // advance only, no charge.
                            executed += 1;
                            op_i += 1;
                        } else {
                            let l = ev!(lock);
                            pending_work += config.lock_cost_ns;
                            flush!();
                            match locks.acquire(l, ThreadId(t)) {
                                Acquire::Granted | Acquire::AlreadyHeld => {
                                    th.handle.observe(EventKind::LockAcquire, l, 0);
                                    executed += 1;
                                    op_i += 1;
                                }
                                Acquire::Blocked => {
                                    th.status = Status::Blocked(l);
                                    executed += 1;
                                    // pc stays on the Lock; re-executes
                                    // after handoff.
                                    break 'run (SegExit::Blocked, idx);
                                }
                            }
                        }
                    }
                    T2Kind::Unlock { lock } => {
                        gate!(idx);
                        if locks_subsumed {
                            executed += 1;
                            op_i += 1;
                        } else {
                            let l = ev!(lock);
                            pending_work += config.lock_cost_ns;
                            flush!();
                            match locks.release(l, ThreadId(t)) {
                                Ok(next) => {
                                    th.handle.observe(EventKind::LockRelease, l, 0);
                                    executed += 1;
                                    debug_assert!(
                                        !th.halt_after_release,
                                        "halt-after-release is a recovery-thread state; \
                                         recovery threads never enter tier-2 segments"
                                    );
                                    if let Some(woken) = next {
                                        // The caller performs the wake (it
                                        // owns both thread contexts);
                                        // nothing observable happens in
                                        // between.
                                        break 'run (SegExit::Wake(woken), idx + 1);
                                    }
                                    op_i += 1;
                                }
                                Err(_) => {
                                    // Tier-1 tolerates this only on
                                    // recovery threads, which never get
                                    // here.
                                    panic!("thread {t} released a lock it does not hold");
                                }
                            }
                        }
                    }
                    T2Kind::Skip => {
                        // RegionMarker / DurableBegin / DurableEnd: pc
                        // advance only. (DurableEnd's halt-after-release
                        // check only fires on recovery threads.)
                        gate!(idx);
                        debug_assert!(!th.halt_after_release);
                        executed += 1;
                        op_i += 1;
                    }
                }
            }
            // Fell off the segment: the next instruction is not fusible
            // (or the block ended without a terminator being fused, which
            // verify() rules out). Deopt there.
            break 'run (SegExit::Return, segref.end_index);
        }
    };

    // Materialize: flush remaining batched charges, restore the register
    // file, and set the tier-1 pc.
    if pending_work > 0 {
        th.handle.advance(pending_work);
    }
    if pending_log > 0 {
        th.handle.advance_as(Category::Log, pending_log);
    }
    th.frame.regs = regs_vec;
    th.frame.pc = Pc { func, block: cur_block, index: resume_idx };
    SegRun { executed, exit }
}
