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
//! through to persistent memory (its no-register-caching rule). JUSTDO and
//! iDO, the two schemes that resume a FASE rather than replay or roll back
//! its writes, share one more rule: a FASE's CAS result must be dead.
//!
//! All checks run on the *instrumented* IR and share no code with the
//! instrumentation pass, so a pass bug (a record dropped on one diverging
//! path, a commit emitted after the unlock) is caught rather than assumed
//! away. That extends to *who owes what*: the `match scheme` blocks below are
//! this crate's own copy of the obligations, deliberately not read from the
//! compiler's scheme table — the pass lowers by that table, so a wrong row
//! read here would excuse itself.

use ido_compiler::{FaseMap, Scheme};
use ido_idem::Pos;
use ido_ir::cfg::Cfg;
use ido_ir::liveness::{Liveness, Var};
use ido_ir::{BlockId, Function, Inst, MemEffect, RtOp};

use crate::diag::{Diagnostic, Invariant};
use crate::{forward_fixpoint, writes_memory};

/// Runs the structural and per-store checks for `scheme` on one
/// instrumented function with at least one FASE. For iDO only the shared
/// lock/marker structure is checked here — the region invariants live in
/// [`crate::ido`].
pub(crate) fn check(
    func: &Function,
    scheme: Scheme,
    cfg: &Cfg,
    fase: &FaseMap,
    diags: &mut Vec<Diagnostic>,
) {
    check_structure(func, scheme, fase, diags);
    match scheme {
        Scheme::JustDo => {
            check_records_before_stores(func, scheme, fase, diags);
            check_shadows(func, fase, diags);
            check_cas_results(func, scheme, cfg, fase, None, diags);
        }
        Scheme::Atlas | Scheme::Nvml | Scheme::Nvthreads => {
            check_records_before_stores(func, scheme, fase, diags);
        }
        Scheme::Mnemosyne => check_tx_open(func, cfg, fase, diags),
        // Origin promises nothing and the lock-free family has no
        // lock-delineated FASEs: `verify_instrumented` hands over neither.
        Scheme::Ido | Scheme::Origin | Scheme::Nvtraverse | Scheme::LfEager => {}
    }
}

/// Invariant 5, under `scheme` (iDO or JUSTDO): resumption runs a FASE's
/// CAS again, from the boundary before it or from its log record. When the
/// first run's write is durable, the second fails and writes 0 to `dst`,
/// so no cut separates a CAS's read from its write, and neither scheme
/// lowers a CAS or makes it detectable. A FASE CAS whose `dst` is live past
/// the runtime ops after it (JUSTDO's shadow of `dst`) is flagged.
/// `liveness` is computed here, only for a function that holds one, when
/// the caller has none.
pub(crate) fn check_cas_results(
    func: &Function,
    scheme: Scheme,
    cfg: &Cfg,
    fase: &FaseMap,
    liveness: Option<&Liveness>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut computed = None;
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = ido_ir::BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            let (Inst::Cas { dst, .. }, true) = (inst, fase.in_fase(b, i)) else { continue };
            let after = i + 1 + bb.insts[i + 1..].iter().take_while(|x| matches!(x, Inst::Rt(_))).count();
            let live = liveness.unwrap_or_else(|| computed.get_or_insert_with(|| Liveness::new(func, cfg)));
            if live.live_before(func, b, after).contains(&Var::Reg(dst.id)) {
                let message = format!(
                    "the CAS result r{} is live after the CAS: resumption runs the CAS again, and a second \
                     run that finds its own durable write fails, so the FASE can take the other path",
                    dst.id
                );
                diags.push(diag(func, scheme, (b, i), Invariant::CasResultDead, message));
            }
        }
    }
}

/// A finding anchored at `pos`, which is also its whole witness.
fn diag(
    func: &Function,
    scheme: Scheme,
    pos: Pos,
    invariant: Invariant,
    message: impl Into<String>,
) -> Diagnostic {
    let (function, message) = (func.name().to_string(), message.into());
    Diagnostic { scheme, function, pos: Some(pos), invariant, message, witness: vec![pos] }
}

fn as_rt(inst: &Inst) -> Option<&RtOp> {
    match inst {
        Inst::Rt(rt) => Some(rt),
        _ => None,
    }
}

/// The runtime ops directly after position `i`, up to the first non-runtime
/// instruction: a record separated from its anchor by program code is not
/// adjacent, so ordering with respect to the anchor is no longer guaranteed.
fn rt_after(func: &Function, b: BlockId, i: usize) -> impl Iterator<Item = &RtOp> {
    func.block(b).insts[i + 1..].iter().map_while(as_rt)
}

/// Backward twin of [`rt_after`]: the runtime ops directly before position
/// `i`, nearest first.
fn rt_before(func: &Function, b: BlockId, i: usize) -> impl Iterator<Item = &RtOp> {
    func.block(b).insts[..i].iter().rev().map_while(as_rt)
}

/// Shared structure: FASE entry/exit markers adjacent to the outermost
/// acquire / final release, and per-lock tracking records for the schemes
/// that keep them (iDO, JUSTDO, Atlas).
fn check_structure(func: &Function, scheme: Scheme, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    let tracks_locks = matches!(scheme, Scheme::Ido | Scheme::JustDo | Scheme::Atlas);
    let (entry, exit) = match scheme {
        Scheme::Mnemosyne => (RtOp::TxBegin, RtOp::TxCommit),
        _ => (RtOp::FaseBegin, RtOp::FaseEnd),
    };
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            let mut flag =
                |invariant, message: &str| diags.push(diag(func, scheme, (b, i), invariant, message));
            let opens =
                fase.is_outermost_acquire(b, i) && !rt_after(func, b, i).any(|rt| *rt == entry);
            // The FASE-exit marker (commit for Mnemosyne) must sit between
            // the last durable work and the release that makes the FASE
            // observable as closed.
            if matches!(inst, Inst::Unlock { .. } | Inst::DurableEnd)
                && fase.is_final_release(b, i)
                && !rt_before(func, b, i).any(|rt| *rt == exit)
            {
                flag(
                    Invariant::CommitOnExit,
                    "final release is not preceded by the scheme's FASE-exit marker: \
                     the lock becomes observable as free before log retirement is \
                     ordered",
                );
            }
            match inst {
                Inst::Lock { lock } => {
                    if opens {
                        flag(
                            Invariant::LockRecord,
                            "outermost lock acquire is not followed by the scheme's \
                             FASE-entry marker: recovery cannot tell a FASE was open",
                        );
                    }
                    let record =
                        |rt: &RtOp| matches!(rt, RtOp::LockAcquired { lock: l } if l == lock);
                    if tracks_locks && !rt_after(func, b, i).any(record) {
                        flag(
                            Invariant::LockRecord,
                            "lock acquire has no adjacent tracking record: a crash \
                             inside this FASE hides the holder from recovery",
                        );
                    }
                }
                Inst::Unlock { lock } => {
                    let record =
                        |rt: &RtOp| matches!(rt, RtOp::LockReleasing { lock: l } if l == lock);
                    if tracks_locks && !rt_before(func, b, i).any(record) {
                        flag(
                            Invariant::LockRecord,
                            "lock release has no adjacent tracking record: recovery \
                             would still consider the lock held",
                        );
                    }
                }
                Inst::DurableBegin if opens => flag(
                    Invariant::LockRecord,
                    "durable-region begin is not followed by the scheme's FASE-entry marker",
                ),
                _ => {}
            }
        }
    }
}

/// Per-store record adjacency for JUSTDO, Atlas, NVML, and NVThreads:
/// every FASE store must have its matching record among the runtime ops
/// directly preceding it.
fn check_records_before_stores(
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
            // The record describes the write it protects (a store's or a
            // CAS's): same location, same value written.
            let Some(MemEffect { loc, writes: Some(value), .. }) = inst.mem_effect() else {
                continue;
            };
            let record = RtOp::StoreRecord { target: loc, value };
            if !rt_before(func, b, i).any(|rt| *rt == record) {
                let message = format!(
                    "FASE store has no adjacent matching {} record: a crash after this \
                     store cannot roll it back or replay it",
                    record_name(scheme)
                );
                diags.push(diag(func, scheme, (b, i), Invariant::StoreLogged, message));
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
            let shadow = |rt: &RtOp| matches!(rt, RtOp::JustDoShadow { reg } if reg.id == d.id);
            if !rt_after(func, b, i).any(shadow) {
                let message = format!(
                    "register r{} is defined inside a FASE but not shadowed to persistent \
                     memory: JUSTDO's forward-resumption recovery would resume with a stale \
                     register file",
                    d.id
                );
                diags.push(diag(func, Scheme::JustDo, (b, i), Invariant::ShadowMissing, message));
            }
        }
    }
}

/// Mnemosyne: forward must-dataflow of "a REDO transaction is open on all
/// paths". Every FASE store must execute with the transaction open
/// (otherwise it bypasses the REDO log entirely), and no commit may
/// execute without an open transaction.
fn check_tx_open(func: &Function, cfg: &Cfg, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    // Must-analysis: `true` = open on all paths. Top = true; merge = AND.
    let (block_in, _) = forward_fixpoint(
        cfg,
        false,
        true,
        |open, pred| *open &= *pred,
        |b, open| transfer_tx(func, fase, b, open, |_, _, _| {}),
    );
    for &b in cfg.rpo() {
        transfer_tx(func, fase, b, block_in[b.0 as usize], |pos, invariant, message| {
            diags.push(diag(func, Scheme::Mnemosyne, pos, invariant, message));
        });
    }
}

fn transfer_tx(
    func: &Function,
    fase: &FaseMap,
    b: BlockId,
    mut open: bool,
    mut emit: impl FnMut(Pos, Invariant, &'static str),
) -> bool {
    for (i, inst) in func.block(b).insts.iter().enumerate() {
        match inst {
            Inst::Rt(RtOp::TxBegin) => open = true,
            Inst::Rt(RtOp::TxCommit) => {
                if !open {
                    emit(
                        (b, i),
                        Invariant::CommitOnExit,
                        "transaction commit reachable without an open transaction on some path",
                    );
                }
                open = false;
            }
            _ if writes_memory(inst) && fase.in_fase(b, i) && !open => emit(
                (b, i),
                Invariant::StoreLogged,
                "FASE store executes outside any open REDO transaction: it bypasses the \
                 redo log and tears under a crash before commit",
            ),
            _ => {}
        }
    }
    open
}
