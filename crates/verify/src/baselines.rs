//! Static checks of the baseline schemes' logging contracts, plus the
//! lock/FASE-marker structure shared by every instrumented scheme.
//!
//! The per-store schemes (JUSTDO, Atlas, NVML, NVThreads) promise that a
//! matching log record executes *immediately before* every FASE store —
//! the record and the store are separated only by other runtime ops, so a
//! crash between them loses at most an over-complete log. Mnemosyne
//! promises every FASE store happens inside an open REDO transaction and
//! that the transaction commits before the FASE's final lock release.
//! JUSTDO additionally shadows every register defined inside a FASE
//! through to persistent memory (its no-register-caching rule).
//!
//! All checks run on the *instrumented* IR and share no code with the
//! instrumentation pass, so a pass bug (a record dropped on one diverging
//! path, a commit emitted after the unlock) is caught rather than assumed
//! away.

use ido_compiler::{FaseMap, Scheme};
use ido_idem::Pos;
use ido_ir::cfg::Cfg;
use ido_ir::{BlockId, Function, Inst, Operand, Reg, RtOp, StackSlot};

use crate::diag::{Diagnostic, Invariant};

/// Runs the structural and per-store checks for `scheme` on one
/// instrumented function. For iDO only the shared lock/marker structure is
/// checked here — the region invariants live in [`crate::ido`].
pub(crate) fn check(func: &Function, scheme: Scheme, diags: &mut Vec<Diagnostic>) {
    if scheme == Scheme::Origin {
        return; // no durability promise, no obligations
    }
    let cfg = Cfg::new(func);
    let fase = match FaseMap::analyze(func, &cfg) {
        Ok(f) => f,
        Err(e) => {
            diags.push(diag(
                func,
                scheme,
                None,
                Invariant::LockRecord,
                format!("FASE structure unanalyzable on instrumented code: {e}"),
                Vec::new(),
            ));
            return;
        }
    };
    if fase.fase_inst_count() == 0 {
        return;
    }
    check_structure(func, scheme, &fase, diags);
    match scheme {
        Scheme::JustDo => {
            check_store_records(func, scheme, &fase, diags);
            check_shadows(func, &fase, diags);
        }
        Scheme::Atlas | Scheme::Nvml | Scheme::Nvthreads => {
            check_store_records(func, scheme, &fase, diags);
        }
        Scheme::Mnemosyne => check_tx_open(func, &cfg, &fase, diags),
        // The lock-free family never reaches here (verify_instrumented
        // dispatches it to `crate::lockfree` before the FASE checks), and
        // its instrumented code has no lock-delineated FASEs anyway.
        Scheme::Ido | Scheme::Origin | Scheme::Nvtraverse | Scheme::LfEager => {}
    }
}

fn diag(
    func: &Function,
    scheme: Scheme,
    pos: Option<Pos>,
    invariant: Invariant,
    message: String,
    witness: Vec<Pos>,
) -> Diagnostic {
    Diagnostic { scheme, function: func.name().to_string(), pos, invariant, message, witness }
}

/// Scans forward from `from` over runtime ops, returning the position of
/// the first one matching `pred`. Stops at the first non-runtime
/// instruction: a record separated from its anchor by program code is not
/// adjacent, so ordering with respect to the anchor is no longer
/// guaranteed.
fn find_rt_forward(
    func: &Function,
    b: BlockId,
    from: usize,
    pred: impl Fn(&RtOp) -> bool,
) -> Option<usize> {
    for (j, inst) in func.block(b).insts.iter().enumerate().skip(from) {
        match inst {
            Inst::Rt(rt) => {
                if pred(rt) {
                    return Some(j);
                }
            }
            _ => return None,
        }
    }
    None
}

/// Backward twin of [`find_rt_forward`]: scans `upto-1, upto-2, ...` while
/// instructions are runtime ops.
fn find_rt_backward(
    func: &Function,
    b: BlockId,
    upto: usize,
    pred: impl Fn(&RtOp) -> bool,
) -> Option<usize> {
    for j in (0..upto).rev() {
        match &func.block(b).insts[j] {
            Inst::Rt(rt) => {
                if pred(rt) {
                    return Some(j);
                }
            }
            _ => return None,
        }
    }
    None
}

/// Shared structure: FASE entry/exit markers adjacent to the outermost
/// acquire / final release, and per-lock tracking records for the schemes
/// that keep them (iDO, JUSTDO, Atlas).
fn check_structure(func: &Function, scheme: Scheme, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            match inst {
                Inst::Lock { lock } => {
                    if fase.is_outermost_acquire(b, i) {
                        let entry = |rt: &RtOp| match scheme {
                            Scheme::Mnemosyne => matches!(rt, RtOp::TxBegin),
                            _ => matches!(rt, RtOp::FaseBegin),
                        };
                        if find_rt_forward(func, b, i + 1, entry).is_none() {
                            diags.push(diag(
                                func,
                                scheme,
                                Some((b, i)),
                                Invariant::LockRecord,
                                "outermost lock acquire is not followed by the \
                                 scheme's FASE-entry marker: recovery cannot tell \
                                 a FASE was open"
                                    .to_string(),
                                vec![(b, i)],
                            ));
                        }
                    }
                    if let Some(pred) = acquire_record(scheme, *lock) {
                        if find_rt_forward(func, b, i + 1, pred).is_none() {
                            diags.push(diag(
                                func,
                                scheme,
                                Some((b, i)),
                                Invariant::LockRecord,
                                "lock acquire has no adjacent tracking record: a \
                                 crash inside this FASE hides the holder from \
                                 recovery"
                                    .to_string(),
                                vec![(b, i)],
                            ));
                        }
                    }
                }
                Inst::Unlock { lock } => {
                    if fase.is_final_release(b, i) {
                        check_exit_marker(func, scheme, b, i, diags);
                    }
                    if let Some(pred) = release_record(scheme, *lock) {
                        if find_rt_backward(func, b, i, pred).is_none() {
                            diags.push(diag(
                                func,
                                scheme,
                                Some((b, i)),
                                Invariant::LockRecord,
                                "lock release has no adjacent tracking record: \
                                 recovery would still consider the lock held"
                                    .to_string(),
                                vec![(b, i)],
                            ));
                        }
                    }
                }
                Inst::DurableBegin => {
                    if fase.is_outermost_acquire(b, i) {
                        let entry = |rt: &RtOp| match scheme {
                            Scheme::Mnemosyne => matches!(rt, RtOp::TxBegin),
                            _ => matches!(rt, RtOp::FaseBegin),
                        };
                        if find_rt_forward(func, b, i + 1, entry).is_none() {
                            diags.push(diag(
                                func,
                                scheme,
                                Some((b, i)),
                                Invariant::LockRecord,
                                "durable-region begin is not followed by the \
                                 scheme's FASE-entry marker"
                                    .to_string(),
                                vec![(b, i)],
                            ));
                        }
                    }
                }
                Inst::DurableEnd => {
                    if fase.is_final_release(b, i) {
                        check_exit_marker(func, scheme, b, i, diags);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The FASE-exit marker (commit for Mnemosyne) must sit between the last
/// durable work and the release that makes the FASE observable as closed.
fn check_exit_marker(
    func: &Function,
    scheme: Scheme,
    b: BlockId,
    i: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let exit = |rt: &RtOp| match scheme {
        Scheme::Mnemosyne => matches!(rt, RtOp::TxCommit),
        _ => matches!(rt, RtOp::FaseEnd),
    };
    if find_rt_backward(func, b, i, exit).is_none() {
        diags.push(diag(
            func,
            scheme,
            Some((b, i)),
            Invariant::CommitOnExit,
            "final release is not preceded by the scheme's FASE-exit marker: \
             the lock becomes observable as free before log retirement is \
             ordered"
                .to_string(),
            vec![(b, i)],
        ));
    }
}

type RtPred = Box<dyn Fn(&RtOp) -> bool>;

fn acquire_record(scheme: Scheme, lock: ido_ir::LockToken) -> Option<RtPred> {
    match scheme {
        Scheme::Ido => Some(Box::new(move |rt| {
            matches!(rt, RtOp::IdoLockAcquired { lock: l } if *l == lock)
        })),
        Scheme::JustDo => Some(Box::new(move |rt| {
            matches!(rt, RtOp::JustDoLockAcquired { lock: l } if *l == lock)
        })),
        Scheme::Atlas => Some(Box::new(move |rt| {
            matches!(rt, RtOp::AtlasLockAcquired { lock: l } if *l == lock)
        })),
        _ => None,
    }
}

fn release_record(scheme: Scheme, lock: ido_ir::LockToken) -> Option<RtPred> {
    match scheme {
        Scheme::Ido => Some(Box::new(move |rt| {
            matches!(rt, RtOp::IdoLockReleasing { lock: l } if *l == lock)
        })),
        Scheme::JustDo => Some(Box::new(move |rt| {
            matches!(rt, RtOp::JustDoLockReleasing { lock: l } if *l == lock)
        })),
        Scheme::Atlas => Some(Box::new(move |rt| {
            matches!(rt, RtOp::AtlasLockReleasing { lock: l } if *l == lock)
        })),
        _ => None,
    }
}

/// Per-store record adjacency for JUSTDO, Atlas, NVML, and NVThreads:
/// every FASE store must have its matching record among the runtime ops
/// directly preceding it.
fn check_store_records(
    func: &Function,
    scheme: Scheme,
    fase: &FaseMap,
    diags: &mut Vec<Diagnostic>,
) {
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            if !fase.in_fase(b, i) {
                continue;
            }
            let found = match inst {
                Inst::Store { base, offset, src } => {
                    let (base, offset, src) = (*base, *offset, *src);
                    find_rt_backward(func, b, i, |rt| {
                        heap_record_matches(scheme, rt, base, offset, src)
                    })
                }
                Inst::StoreStack { slot, src } => {
                    let (slot, src) = (*slot, *src);
                    find_rt_backward(func, b, i, |rt| {
                        stack_record_matches(scheme, rt, slot, src)
                    })
                }
                _ => continue,
            };
            if found.is_none() {
                diags.push(diag(
                    func,
                    scheme,
                    Some((b, i)),
                    Invariant::StoreLogged,
                    format!(
                        "FASE store has no adjacent matching {} record: a crash \
                         after this store cannot roll it back or replay it",
                        record_name(scheme)
                    ),
                    vec![(b, i)],
                ));
            }
        }
    }
}

fn record_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::JustDo => "JUSTDO log",
        Scheme::Atlas => "UNDO-log",
        Scheme::Nvml => "TX_ADD snapshot",
        Scheme::Nvthreads => "page-touch",
        _ => "log",
    }
}

fn heap_record_matches(scheme: Scheme, rt: &RtOp, base: Reg, offset: i64, src: Operand) -> bool {
    match (scheme, rt) {
        (Scheme::JustDo, RtOp::JustDoLog { base: b, offset: o, value: v }) => {
            b.id == base.id && *o == offset && *v == src
        }
        (Scheme::Atlas, RtOp::AtlasUndoLog { base: b, offset: o })
        | (Scheme::Nvml, RtOp::NvmlTxAdd { base: b, offset: o })
        | (Scheme::Nvthreads, RtOp::NvthreadsPageTouch { base: b, offset: o }) => {
            b.id == base.id && *o == offset
        }
        _ => false,
    }
}

fn stack_record_matches(scheme: Scheme, rt: &RtOp, slot: StackSlot, src: Operand) -> bool {
    match (scheme, rt) {
        (Scheme::JustDo, RtOp::JustDoLogStack { slot: s, value: v }) => *s == slot && *v == src,
        (Scheme::Atlas, RtOp::AtlasUndoLogStack { slot: s })
        | (Scheme::Nvml, RtOp::NvmlTxAddStack { slot: s })
        | (Scheme::Nvthreads, RtOp::NvthreadsPageTouchStack { slot: s }) => *s == slot,
        _ => false,
    }
}

/// JUSTDO's no-register-caching rule: every register defined inside a FASE
/// is immediately shadowed through to persistent memory.
fn check_shadows(func: &Function, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            if !fase.in_fase(b, i) || matches!(inst, Inst::Rt(_)) {
                continue;
            }
            let Some(d) = inst.def_reg() else { continue };
            let shadowed = find_rt_forward(func, b, i + 1, |rt| {
                matches!(rt, RtOp::JustDoShadow { reg } if reg.id == d.id)
            });
            if shadowed.is_none() {
                diags.push(diag(
                    func,
                    Scheme::JustDo,
                    Some((b, i)),
                    Invariant::ShadowMissing,
                    format!(
                        "register r{} is defined inside a FASE but not shadowed \
                         to persistent memory: JUSTDO's forward-resumption \
                         recovery would resume with a stale register file",
                        d.id
                    ),
                    vec![(b, i)],
                ));
            }
        }
    }
}

/// Mnemosyne: forward must-dataflow of "a REDO transaction is open on all
/// paths". Every FASE store must execute with the transaction open
/// (otherwise it bypasses the REDO log entirely), and no commit may
/// execute without an open transaction.
fn check_tx_open(func: &Function, cfg: &Cfg, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    let n = func.num_blocks();
    // Must-analysis: `true` = open on all paths. Top = true; merge = AND.
    let mut block_in = vec![true; n];
    let mut block_out = vec![true; n];
    block_in[0] = false;
    let rpo = cfg.rpo();
    loop {
        let mut changed = false;
        for &b in rpo {
            let bi = b.0 as usize;
            let mut input = bi != 0;
            for &p in cfg.preds(b) {
                input &= block_out[p.0 as usize];
            }
            if bi != 0 && input != block_in[bi] {
                block_in[bi] = input;
                changed = true;
            }
            let out = transfer_tx(func, fase, b, input, |_, _| {});
            if out != block_out[bi] {
                block_out[bi] = out;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &b in rpo {
        let start = block_in[b.0 as usize];
        transfer_tx(func, fase, b, start, |pos, what| {
            diags.push(diag(
                func,
                Scheme::Mnemosyne,
                Some(pos),
                match what {
                    TxViolation::StoreOutsideTx => Invariant::StoreLogged,
                    TxViolation::CommitWithoutTx => Invariant::CommitOnExit,
                },
                match what {
                    TxViolation::StoreOutsideTx => {
                        "FASE store executes outside any open REDO transaction: \
                         it bypasses the redo log and tears under a crash \
                         before commit"
                    }
                    TxViolation::CommitWithoutTx => {
                        "transaction commit reachable without an open \
                         transaction on some path"
                    }
                }
                .to_string(),
                vec![pos],
            ));
        });
    }
}

#[derive(Clone, Copy)]
enum TxViolation {
    StoreOutsideTx,
    CommitWithoutTx,
}

fn transfer_tx(
    func: &Function,
    fase: &FaseMap,
    b: BlockId,
    mut open: bool,
    mut emit: impl FnMut(Pos, TxViolation),
) -> bool {
    for (i, inst) in func.block(b).insts.iter().enumerate() {
        match inst {
            Inst::Rt(RtOp::TxBegin) => open = true,
            Inst::Rt(RtOp::TxCommit) => {
                if !open {
                    emit((b, i), TxViolation::CommitWithoutTx);
                }
                open = false;
            }
            Inst::Store { .. } | Inst::StoreStack { .. } if fase.in_fase(b, i) => {
                if !open {
                    emit((b, i), TxViolation::StoreOutsideTx);
                }
            }
            _ => {}
        }
    }
    open
}
