//! The instrumentation pass: one loop over the scheme's row.
//!
//! Every scheme sees the same source program; the pass weaves in the runtime
//! operations the scheme's [`SchemeInfo`](crate::SchemeInfo) row asks for. The
//! ops name events, not schemes — what `rt.lock_acquired` or `rt.store_record`
//! costs is the runtime's of the scheme the lowered program carries. The
//! ordering of operations around lock acquires and releases is load-bearing;
//! with every row field set the layout is:
//!
//! ```text
//! lock L
//! rt.fase_begin            (outermost only; `rt.tx_begin` under `Marker::Tx`)
//! rt.lock_acquired L       (`lock_records`)
//! rt.ido_boundary          (`region_boundaries`)
//! ... FASE body: rt.ido_boundary at every region entry, rt.store_record
//!     before every store (`store_records`), rt.justdo_shadow after every
//!     definition (`shadows_defs`) ...
//! rt.ido_boundary          (final boundary: everything persisted)
//! rt.lock_releasing L      (`lock_records`)
//! rt.fase_end              (outermost only; `rt.tx_commit` under `Marker::Tx`)
//! unlock L
//! ```
//!
//! **iDO** (`lock_records` + `region_boundaries`; one persist fence per lock
//! operation, Section III-B): `rt.lock_acquired` records the indirect holder,
//! each boundary persists outputs and advances `recovery_pc`,
//! `rt.lock_releasing` clears the `lock_array` entry, `rt.fase_end` clears
//! `recovery_pc`. A crash between `lock` and `rt.lock_acquired` loses the
//! lock to recovery ("robbed lock"), which is harmless because the boundary
//! after the acquire guarantees no FASE instruction has executed. A crash
//! after `rt.lock_releasing` but before `unlock` resumes at the releasing op;
//! the VM treats lock operations as idempotent during recovery (acquiring a
//! lock already held by the thread, or releasing one it does not hold, is a
//! no-op), mirroring the JUSTDO/iDO runtimes.
//!
//! The baseline rows follow their papers: JUSTDO logs ⟨pc, addr, value⟩
//! before every store (plus register shadowing for its no-register-caching
//! rule), Atlas appends a persisted UNDO entry before every store and
//! happens-before entries at lock operations, Mnemosyne brackets the FASE
//! in a REDO transaction, NVML snapshots target objects (`TX_ADD`), and
//! NVThreads notes dirty pages.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use ido_ir::cfg::Cfg;
use ido_ir::liveness::{Liveness, Var};
use ido_ir::{
    verify_function, BlockId, Function, Inst, Program, Reg, RegClass, RtOp, StackSlot, StoreTarget,
    VerifyError,
};

use crate::fase::{FaseError, FaseMap};
use crate::scheme::{Marker, Scheme};

/// Errors produced while lowering a program for a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// FASE inference failed.
    Fase(FaseError),
    /// The instrumented output failed structural verification (an internal
    /// error — please report it).
    Verify(VerifyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Fase(e) => write!(f, "fase inference failed: {e}"),
            CompileError::Verify(e) => write!(f, "instrumented code invalid: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Fase(e) => Some(e),
            CompileError::Verify(e) => Some(e),
        }
    }
}

impl From<FaseError> for CompileError {
    fn from(e: FaseError) -> Self {
        CompileError::Fase(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

/// A program lowered for one scheme, ready for the VM.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The instrumented program.
    pub program: Program,
    /// The scheme it was lowered for.
    pub scheme: Scheme,
}

/// Ordered insertion stages at a single position (earlier stages execute
/// first).
const STAGES: usize = 5;
const ST_FASE_BEGIN: usize = 0;
const ST_LOCK_ACQ: usize = 1;
const ST_BOUNDARY: usize = 2;
const ST_LOCK_REL: usize = 3;
const ST_FASE_END: usize = 4;

type Insertions = BTreeMap<(BlockId, usize), [Vec<Inst>; STAGES]>;

fn push(ins: &mut Insertions, pos: (BlockId, usize), stage: usize, op: RtOp) {
    ins.entry(pos).or_default()[stage].push(Inst::Rt(op));
}

/// Lowers `program` for `scheme`.
///
/// # Errors
/// Returns [`CompileError::Fase`] when a function is not lock-balanced or
/// violates the single-function FASE assumption.
pub fn instrument_program(mut program: Program, scheme: Scheme) -> Result<Instrumented, CompileError> {
    let n = program.functions().len();
    for i in 0..n {
        instrument_function(program.function_mut(ido_ir::FuncId(i as u32)), scheme)?;
    }
    Ok(Instrumented { program, scheme })
}

fn instrument_function(func: &mut Function, scheme: Scheme) -> Result<(), CompileError> {
    let info = scheme.info();
    // The lock-free family has no FASEs to infer and no region partition;
    // its entire protocol hangs off the recoverable CAS sites.
    if info.cas_protocol {
        instrument_lockfree(func);
        verify_function(func)?;
        return Ok(());
    }

    // Phase 2 (idempotent region formation) runs first because its WAR
    // repair mutates the code the later phases see.
    let analysis = info.region_boundaries.then(|| ido_idem::partition(func));

    let cfg = Cfg::new(func);
    let fase = FaseMap::analyze(func, &cfg)?;
    let (begin, end) = match info.marker {
        None => return Ok(()),
        Some(Marker::Fase) => (RtOp::FaseBegin, RtOp::FaseEnd),
        Some(Marker::Tx) => (RtOp::TxBegin, RtOp::TxCommit),
    };

    let mut ins: Insertions = BTreeMap::new();

    // Region boundaries, inside FASEs.
    if let Some(analysis) = &analysis {
        let liveness = Liveness::new(func, &cfg);
        for &(b, i) in analysis.cuts() {
            if !fase.in_fase(b, i) {
                continue;
            }
            let live = liveness.live_before(func, b, i);
            let mut out_regs: Vec<Reg> = Vec::new();
            let mut out_slots: Vec<StackSlot> = Vec::new();
            for v in live {
                match v {
                    // The register class only selects the log array; ids are
                    // unique across classes, so Int is recorded here and the
                    // VM re-derives the class from the id when logging.
                    Var::Reg(id) => out_regs.push(Reg { id, class: RegClass::Int }),
                    Var::Slot(s) => out_slots.push(StackSlot(s)),
                }
            }
            push(&mut ins, (b, i), ST_BOUNDARY, RtOp::IdoBoundary { out_regs, out_slots });
        }
    }

    // FASE markers, lock records, store records and shadows.
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            let (at, after) = ((b, i), (b, i + 1));
            let opens = matches!(inst, Inst::Lock { .. } | Inst::DurableBegin);
            if opens && fase.is_outermost_acquire(b, i) {
                push(&mut ins, after, ST_FASE_BEGIN, begin.clone());
            }
            let closes = matches!(inst, Inst::Unlock { .. } | Inst::DurableEnd);
            if closes && fase.is_final_release(b, i) {
                push(&mut ins, at, ST_FASE_END, end.clone());
            }
            let record = |target, value| RtOp::StoreRecord { target, value };
            match *inst {
                Inst::Lock { lock } if info.lock_records => {
                    push(&mut ins, after, ST_LOCK_ACQ, RtOp::LockAcquired { lock });
                }
                Inst::Unlock { lock } if info.lock_records => {
                    push(&mut ins, at, ST_LOCK_REL, RtOp::LockReleasing { lock });
                }
                Inst::Store { base, offset, src } if info.store_records && fase.in_fase(b, i) => {
                    push(&mut ins, at, ST_BOUNDARY, record(StoreTarget::Heap { base, offset }, src));
                }
                Inst::StoreStack { slot, src } if info.store_records && fase.in_fase(b, i) => {
                    push(&mut ins, at, ST_BOUNDARY, record(StoreTarget::Stack(slot), src));
                }
                _ => {}
            }
            // JUSTDO's no-register-caching rule: shadow every definition
            // made inside a FASE through to persistent memory.
            if info.shadows_defs && fase.in_fase(b, i) {
                if let Some(reg) = inst.def_reg() {
                    push(&mut ins, after, ST_LOCK_ACQ, RtOp::JustDoShadow { reg });
                }
            }
        }
    }

    apply_insertions(func, ins);
    verify_function(func)?;
    Ok(())
}

/// Lock-free family instrumentation: wraps every recoverable CAS in the
/// flush-window / prepare / publish protocol —
///
/// ```text
/// rt.lf_flush_window        (flush-on-traverse-exit: persist the window)
/// rt.lf_cas_prepare [c] e->n  (persist the in-flight descriptor)
/// dst = cas mem[c] e -> n     (linearization point)
/// rt.lf_cas_publish [c] dst   (persist-before-escape; close descriptor)
/// ```
///
/// Locks (there should be none in lock-free code) are left uninstrumented,
/// like Origin: durability hangs entirely off the CAS descriptors, not off
/// lock-delineated FASEs.
fn instrument_lockfree(func: &mut Function) {
    let mut ins: Insertions = BTreeMap::new();
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            if let &Inst::Cas { dst, base, offset, expected, new } = inst {
                let (at, after) = ((b, i), (b, i + 1));
                push(&mut ins, at, ST_LOCK_ACQ, RtOp::LfFlushWindow);
                push(&mut ins, at, ST_BOUNDARY, RtOp::LfCasPrepare { base, offset, expected, new });
                push(&mut ins, after, ST_FASE_BEGIN, RtOp::LfCasPublish { base, offset, taken: dst });
            }
        }
    }
    apply_insertions(func, ins);
}

/// Applies insertions highest-position-first so indices stay valid.
fn apply_insertions(func: &mut Function, ins: Insertions) {
    for ((b, i), stages) in ins.into_iter().rev() {
        let bb = func.block_mut(b);
        let flat: Vec<Inst> = stages.into_iter().flatten().collect();
        for (k, inst) in flat.into_iter().enumerate() {
            bb.insts.insert(i + k, inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::{Operand, ProgramBuilder};

    /// lock; load; store; unlock — one FASE with one store.
    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("op", 2);
        let l = f.param(0);
        let p = f.param(1);
        let v = f.new_reg();
        f.lock(l);
        f.load(v, p, 0);
        f.store(p, 8, Operand::Reg(v));
        f.unlock(l);
        f.ret(None);
        f.finish().unwrap();
        pb.finish()
    }

    fn count_ops(prog: &Program, pred: impl Fn(&RtOp) -> bool) -> usize {
        prog.functions()
            .iter()
            .flat_map(|f| f.iter_insts())
            .filter(|(_, i)| matches!(i, Inst::Rt(rt) if pred(rt)))
            .count()
    }

    #[test]
    fn origin_is_unchanged() {
        let prog = sample_program();
        let before = prog.function(ido_ir::FuncId(0)).num_insts();
        let out = instrument_program(prog, Scheme::Origin).unwrap();
        assert_eq!(out.program.function(ido_ir::FuncId(0)).num_insts(), before);
    }

    fn lowered(scheme: Scheme) -> Program {
        instrument_program(sample_program(), scheme).unwrap().program
    }

    fn is_lock_record(r: &RtOp) -> bool {
        matches!(r, RtOp::LockAcquired { .. } | RtOp::LockReleasing { .. })
    }

    fn is_store_record(r: &RtOp) -> bool {
        matches!(r, RtOp::StoreRecord { .. })
    }

    #[test]
    fn ido_inserts_lock_tracking_and_boundaries() {
        let out = lowered(Scheme::Ido);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::LockAcquired { .. })), 1);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::LockReleasing { .. })), 1);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::FaseBegin)), 1);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::FaseEnd)), 1);
        assert!(count_ops(&out, |r| matches!(r, RtOp::IdoBoundary { .. })) >= 2);
        assert_eq!(count_ops(&out, is_store_record), 0);
    }

    #[test]
    fn ido_orders_ops_correctly_around_locks() {
        let out = lowered(Scheme::Ido);
        let f = out.function(ido_ir::FuncId(0));
        let insts: Vec<&Inst> = f.blocks().iter().flat_map(|b| &b.insts).collect();
        let idx = |pred: &dyn Fn(&Inst) -> bool| insts.iter().position(|i| pred(i)).unwrap();
        let lock = idx(&|i| matches!(i, Inst::Lock { .. }));
        let begin = idx(&|i| matches!(i, Inst::Rt(RtOp::FaseBegin)));
        let acq = idx(&|i| matches!(i, Inst::Rt(RtOp::LockAcquired { .. })));
        let rel = idx(&|i| matches!(i, Inst::Rt(RtOp::LockReleasing { .. })));
        let end = idx(&|i| matches!(i, Inst::Rt(RtOp::FaseEnd)));
        let unlock = idx(&|i| matches!(i, Inst::Unlock { .. }));
        assert!(lock < begin && begin < acq, "lock, fase_begin, then acquire record");
        assert!(rel < end && end < unlock, "release record, fase_end, then unlock");
    }

    #[test]
    fn justdo_logs_every_store_and_shadows_defs() {
        let out = lowered(Scheme::JustDo);
        assert_eq!(count_ops(&out, is_store_record), 1);
        // The load inside the FASE defines `v`, which must be shadowed.
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::JustDoShadow { .. })), 1);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::LockAcquired { .. })), 1);
        // The record carries the store's own address and source.
        let f = out.function(ido_ir::FuncId(0));
        let (p, v) = (f.params()[1], Operand::Reg(Reg::int(2)));
        let target = StoreTarget::Heap { base: p, offset: 8 };
        assert_eq!(count_ops(&out, |r| *r == RtOp::StoreRecord { target, value: v }), 1);
    }

    #[test]
    fn atlas_undo_logs_before_stores() {
        let out = lowered(Scheme::Atlas);
        assert_eq!(count_ops(&out, is_store_record), 1);
        assert_eq!(count_ops(&out, is_lock_record), 2);
        let f = out.function(ido_ir::FuncId(0));
        let insts: Vec<&Inst> = f.blocks().iter().flat_map(|b| &b.insts).collect();
        let undo = insts.iter().position(|i| matches!(i, Inst::Rt(r) if is_store_record(r)));
        let store = insts.iter().position(|i| matches!(i, Inst::Store { .. }));
        assert_eq!(undo.unwrap() + 1, store.unwrap(), "undo entry directly precedes the store");
    }

    #[test]
    fn mnemosyne_brackets_fase_in_txn() {
        let out = lowered(Scheme::Mnemosyne);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::TxBegin)), 1);
        assert_eq!(count_ops(&out, |r| matches!(r, RtOp::TxCommit)), 1);
        // The transaction is the whole lowering: no record of any kind.
        assert_eq!(count_ops(&out, |_| true), 2);
    }

    #[test]
    fn nvthreads_touches_pages() {
        let out = lowered(Scheme::Nvthreads);
        assert_eq!(count_ops(&out, is_store_record), 1);
        assert_eq!(count_ops(&out, is_lock_record), 0);
        assert_eq!(count_ops(&out, |_| true), 3, "fase_begin, the page touch, fase_end");
    }

    #[test]
    fn nvml_adds_tx_ranges() {
        let out = lowered(Scheme::Nvml);
        assert_eq!(count_ops(&out, is_store_record), 1);
        assert_eq!(count_ops(&out, is_lock_record), 0);
        assert_eq!(count_ops(&out, |_| true), 3, "fase_begin, the TX_ADD, fase_end");
    }

    /// The ops one scheme alone emits appear under no other row.
    #[test]
    fn single_scheme_ops_stay_with_their_scheme() {
        for scheme in Scheme::ALL {
            let out = lowered(scheme);
            let shadows = count_ops(&out, |r| matches!(r, RtOp::JustDoShadow { .. }));
            let boundaries = count_ops(&out, |r| matches!(r, RtOp::IdoBoundary { .. }));
            let tx = count_ops(&out, |r| matches!(r, RtOp::TxBegin | RtOp::TxCommit));
            assert_eq!(shadows > 0, scheme == Scheme::JustDo, "{scheme}");
            assert_eq!(boundaries > 0, scheme == Scheme::Ido, "{scheme}");
            assert_eq!(tx > 0, scheme == Scheme::Mnemosyne, "{scheme}");
        }
    }

    #[test]
    fn stores_outside_fases_not_instrumented() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("no_fase", 1);
        let p = f.param(0);
        f.store(p, 0, 1i64); // persistent read/write outside FASE (allowed if race-free)
        f.ret(None);
        f.finish().unwrap();
        let prog = pb.finish();
        for scheme in [Scheme::JustDo, Scheme::Atlas, Scheme::Nvml, Scheme::Nvthreads] {
            let out = instrument_program(prog.clone(), scheme).unwrap();
            assert_eq!(count_ops(&out.program, |_| true), 0, "{scheme}");
        }
    }

    #[test]
    fn durable_region_instrumented_like_fase() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("durable", 1);
        let p = f.param(0);
        f.durable_begin();
        f.store(p, 0, 7i64);
        f.durable_end();
        f.ret(None);
        f.finish().unwrap();
        let prog = pb.finish();
        let out = instrument_program(prog.clone(), Scheme::Ido).unwrap();
        assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::FaseBegin)), 1);
        assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::FaseEnd)), 1);
        let out = instrument_program(prog, Scheme::Mnemosyne).unwrap();
        assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::TxBegin)), 1);
        assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::TxCommit)), 1);
    }

    #[test]
    fn lockfree_wraps_every_cas_in_the_detectable_protocol() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("lf", 2);
        let p = f.param(0);
        let n = f.param(1);
        let d = f.new_reg();
        f.store(n, 16, 7i64); // node init: plain store, not instrumented
        f.cas(d, p, 0, 0i64, Operand::Reg(n));
        f.ret(Some(Operand::Reg(d)));
        f.finish().unwrap();
        let prog = pb.finish();

        for scheme in Scheme::LOCKFREE {
            let out = instrument_program(prog.clone(), scheme).unwrap();
            assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::LfFlushWindow)), 1);
            assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::LfCasPrepare { .. })), 1);
            assert_eq!(count_ops(&out.program, |r| matches!(r, RtOp::LfCasPublish { .. })), 1);
            // No per-store logging: the plain store must stay bare.
            assert_eq!(count_ops(&out.program, |_| true), 3);

            let f = out.program.function(ido_ir::FuncId(0));
            let insts: Vec<&Inst> = f.blocks().iter().flat_map(|b| &b.insts).collect();
            let pos = |pred: &dyn Fn(&Inst) -> bool| insts.iter().position(|i| pred(i)).unwrap();
            let flush = pos(&|i| matches!(i, Inst::Rt(RtOp::LfFlushWindow)));
            let prep = pos(&|i| matches!(i, Inst::Rt(RtOp::LfCasPrepare { .. })));
            let cas = pos(&|i| matches!(i, Inst::Cas { .. }));
            let publ = pos(&|i| matches!(i, Inst::Rt(RtOp::LfCasPublish { .. })));
            assert!(
                flush < prep && prep < cas && cas + 1 == publ,
                "flush({flush}) < prepare({prep}) < cas({cas}), publish({publ}) adjacent"
            );
        }
    }

    #[test]
    fn unbalanced_program_reports_fase_error() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("bad", 1);
        let l = f.param(0);
        f.unlock(l);
        f.ret(None);
        f.finish().unwrap();
        assert!(matches!(
            instrument_program(pb.finish(), Scheme::Ido),
            Err(CompileError::Fase(FaseError::NegativeDepth { .. }))
        ));
    }

    #[test]
    fn instrumented_output_verifies_for_all_schemes() {
        for scheme in Scheme::ALL {
            let out = instrument_program(sample_program(), scheme).unwrap();
            for f in out.program.functions() {
                verify_function(f).unwrap();
            }
        }
    }
}
