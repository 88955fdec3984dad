//! Static checks of iDO's resumption invariants on instrumented IR.
//!
//! iDO recovery resumes an interrupted FASE at its last region boundary:
//! it restores the registers logged there and re-executes the open region.
//! That contract is sound iff, for every instrumented function:
//!
//! 1. **Boundary coverage** — on every path from FASE entry to an NVM
//!    store, a boundary executes first (otherwise `recovery_pc` is stale
//!    or unset when the store tears).
//! 2. **Live-ins logged** — the filter a boundary carries covers every
//!    register and stack slot live into the region it opens (otherwise
//!    recovery restores garbage for a value the region consumes).
//! 3. **Antidependences cut** — no load is followed, region-internally on
//!    any path, by a possibly-aliasing store (memory), and no region input
//!    register is redefined after being read (register WAR). Either breaks
//!    re-execution: the second run reads the overwritten value.
//! 4. **Persist ordering** — the boundary persists the previous region's
//!    stores before `recovery_pc` can durably advance past them. This is
//!    runtime behavior, checked against the [`RuntimeModel`].
//! 5. **CAS results dead** — no FASE uses the result of a CAS it holds
//!    (`baselines::check_cas_results`, shared with JUSTDO, the other
//!    resumption scheme).
//!
//! Checks 1–3 are genuine dataflow analyses over the *instrumented* code —
//! they share no code with the partitioner in `ido-idem`, so a bug there
//! (a missed cut, a dropped live-in) is caught here rather than assumed
//! away.

use std::collections::{BTreeMap, BTreeSet};

use ido_compiler::{FaseMap, Scheme};
use ido_idem::Pos;
use ido_ir::alias::{alias, AliasResult};
use ido_ir::cfg::Cfg;
use ido_ir::liveness::{Liveness, Var};
use ido_ir::{Function, Inst, MemEffect, MemLoc, RtOp};

use crate::diag::{Diagnostic, Invariant};
use crate::{forward_fixpoint, writes_memory};
use crate::model::RuntimeModel;

/// Runs all iDO checks on one instrumented function with at least one FASE.
pub(crate) fn check(
    func: &Function,
    cfg: &Cfg,
    fase: &FaseMap,
    model: &RuntimeModel,
    diags: &mut Vec<Diagnostic>,
) {
    let liveness = Liveness::new(func, cfg);
    check_boundary_coverage(func, cfg, fase, diags);
    check_live_in_logged(func, fase, &liveness, diags);
    check_antideps(func, cfg, fase, diags);
    check_persist_ordering(func, fase, model, diags);
    crate::baselines::check_cas_results(func, Scheme::Ido, cfg, fase, Some(&liveness), diags);
}

fn diag(
    func: &Function,
    pos: Option<Pos>,
    invariant: Invariant,
    message: String,
    witness: Vec<Pos>,
) -> Diagnostic {
    Diagnostic { scheme: Scheme::Ido, function: func.name().to_string(), pos, invariant, message, witness }
}

/// Invariant 1: forward must-dataflow of "a boundary has executed since
/// FASE entry on all paths". Positions outside any FASE reset the state,
/// so entering a FASE (the instruction after the depth-0 lock) starts
/// uncovered until the first `IdoBoundary`.
fn check_boundary_coverage(
    func: &Function,
    cfg: &Cfg,
    fase: &FaseMap,
    diags: &mut Vec<Diagnostic>,
) {
    // Must-analysis: `true` = covered on all paths. Top = true; merge = AND.
    let (block_in, block_out) = forward_fixpoint(
        cfg,
        false,
        true,
        |covered, pred| *covered &= *pred,
        |b, covered| transfer_coverage(func, fase, b, covered, |_| {}),
    );
    // Reporting pass over the stable solution.
    for &b in cfg.rpo() {
        let start = block_in[b.0 as usize];
        transfer_coverage(func, fase, b, start, |store_pos| {
            let witness = uncovered_witness(func, cfg, fase, &block_out, store_pos);
            diags.push(diag(
                func,
                Some(store_pos),
                Invariant::BoundaryCoverage,
                "NVM store reachable from FASE entry without crossing a region \
                 boundary: a crash here finds recovery_pc stale"
                    .to_string(),
                witness,
            ));
        });
    }
}

/// One block's coverage transfer; calls `on_uncovered` for each in-FASE
/// store executed while uncovered.
fn transfer_coverage(
    func: &Function,
    fase: &FaseMap,
    b: ido_ir::BlockId,
    mut covered: bool,
    mut on_uncovered: impl FnMut(Pos),
) -> bool {
    for (i, inst) in func.block(b).insts.iter().enumerate() {
        if !fase.in_fase(b, i) {
            covered = false;
            continue;
        }
        if matches!(inst, Inst::Rt(RtOp::IdoBoundary { .. })) {
            covered = true;
        } else if writes_memory(inst) && !covered {
            on_uncovered((b, i));
        }
    }
    covered
}

/// Reconstructs a boundary-free path from a FASE entry to the uncovered
/// store: walk backward from the store, within blocks and across
/// predecessors whose exit was uncovered, until a non-FASE position (the
/// entry edge) is reached. Block-granular; capped at the block count.
fn uncovered_witness(
    func: &Function,
    cfg: &Cfg,
    fase: &FaseMap,
    block_out: &[bool],
    store: Pos,
) -> Vec<Pos> {
    let mut path = vec![store];
    let (mut b, mut i) = store;
    let mut visited = BTreeSet::new();
    loop {
        // Scan backward inside the current block.
        let mut origin = None;
        for j in (0..i).rev() {
            if !fase.in_fase(b, j) || matches!(func.block(b).insts[j], Inst::Lock { .. }) {
                origin = Some((b, j));
                break;
            }
        }
        if let Some(p) = origin {
            path.push(p);
            break;
        }
        // Continue through any uncovered predecessor.
        if !visited.insert(b) {
            break;
        }
        match cfg.preds(b).iter().find(|p| !block_out[p.0 as usize]) {
            Some(&p) => {
                let len = func.block(p).insts.len();
                path.push((p, len.saturating_sub(1)));
                b = p;
                i = len;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

/// Invariant 2: the filter each boundary logs must cover everything live
/// into the region it opens. Liveness is recomputed on the instrumented
/// function, so this independently cross-checks the filter the compiler
/// computed before insertion.
fn check_live_in_logged(
    func: &Function,
    fase: &FaseMap,
    liveness: &Liveness,
    diags: &mut Vec<Diagnostic>,
) {
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = ido_ir::BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            let Inst::Rt(RtOp::IdoBoundary { out_regs, out_slots }) = inst else {
                continue;
            };
            if !fase.in_fase(b, i) {
                diags.push(diag(
                    func,
                    Some((b, i)),
                    Invariant::BoundaryCoverage,
                    "region boundary outside any FASE".to_string(),
                    vec![(b, i)],
                ));
                continue;
            }
            for v in liveness.live_before(func, b, i + 1) {
                let missing = match v {
                    Var::Reg(id) => {
                        (!out_regs.iter().any(|r| r.id == id)).then(|| format!("register r{id}"))
                    }
                    Var::Slot(s) => (!out_slots.iter().any(|slot| slot.0 == s))
                        .then(|| format!("stack slot s{s}")),
                };
                if let Some(what) = missing {
                    diags.push(diag(
                        func,
                        Some((b, i)),
                        Invariant::LiveInLogged,
                        format!(
                            "{what} is live into the region this boundary opens \
                             but absent from its logged live-in filter: recovery \
                             would restore a stale value"
                        ),
                        vec![(b, i)],
                    ));
                }
            }
        }
    }
}

/// Per-region dataflow state for invariant 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RegionState {
    /// Loads outstanding since the last boundary: location -> (position of
    /// the earliest such load, address still describable). A load whose
    /// base register was redefined keeps its entry with `valid = false`
    /// and conflicts with any heap store (mirrors the partitioner's
    /// wildcard rule).
    loads: BTreeMap<MemLoc, (Pos, bool)>,
    /// Registers read since the last boundary before any redefinition,
    /// with the position of the earliest such read.
    used_clean: BTreeMap<u32, Pos>,
    /// Registers redefined since the last boundary on *all* paths (`None`
    /// = top, i.e. every register — used only before first merge).
    defined: Option<BTreeSet<u32>>,
}

impl RegionState {
    fn entry() -> Self {
        RegionState { loads: BTreeMap::new(), used_clean: BTreeMap::new(), defined: Some(BTreeSet::new()) }
    }

    fn clear(&mut self) {
        self.loads.clear();
        self.used_clean.clear();
        self.defined = Some(BTreeSet::new());
    }

    fn is_defined(&self, id: u32) -> bool {
        match &self.defined {
            None => true,
            Some(set) => set.contains(&id),
        }
    }

    fn merge(&mut self, other: &Self) {
        for (loc, &(pos, valid)) in &other.loads {
            self.loads
                .entry(*loc)
                .and_modify(|e| {
                    e.0 = e.0.min(pos);
                    e.1 &= valid;
                })
                .or_insert((pos, valid));
        }
        for (&r, &pos) in &other.used_clean {
            self.used_clean.entry(r).and_modify(|p| *p = (*p).min(pos)).or_insert(pos);
        }
        self.defined = match (self.defined.take(), &other.defined) {
            (None, d) => d.clone(),
            (Some(a), None) => Some(a),
            (Some(a), Some(b)) => Some(a.intersection(b).copied().collect()),
        };
    }
}

/// Invariant 3: no memory antidependence or register WAR inside a region.
/// Forward may-dataflow over the instrumented function, cleared at every
/// `IdoBoundary` (and on leaving FASEs, whose code is never re-executed).
fn check_antideps(func: &Function, cfg: &Cfg, fase: &FaseMap, diags: &mut Vec<Diagnostic>) {
    let (block_in, _) = forward_fixpoint(
        cfg,
        RegionState::entry(),
        RegionState::default(),
        RegionState::merge,
        |b, state| transfer_antidep(func, fase, b, state, |_| {}),
    );
    let mut seen: BTreeSet<(Pos, Invariant)> = BTreeSet::new();
    for &b in cfg.rpo() {
        let start = block_in[b.0 as usize].clone();
        transfer_antidep(func, fase, b, start, |v| {
            if seen.insert((v.at, v.invariant)) {
                diags.push(diag(
                    func,
                    Some(v.at),
                    v.invariant,
                    v.message,
                    vec![v.origin, v.at],
                ));
            }
        });
    }
}

struct AntidepViolation {
    at: Pos,
    origin: Pos,
    invariant: Invariant,
    message: String,
}

/// One block's antidependence transfer; reports violations via `emit`.
fn transfer_antidep(
    func: &Function,
    fase: &FaseMap,
    b: ido_ir::BlockId,
    mut state: RegionState,
    mut emit: impl FnMut(AntidepViolation),
) -> RegionState {
    for (i, inst) in func.block(b).insts.iter().enumerate() {
        if !fase.in_fase(b, i) {
            state.clear();
            continue;
        }
        if matches!(inst, Inst::Rt(RtOp::IdoBoundary { .. })) {
            state.clear();
            continue;
        }
        // A write is checked before a read is recorded, so a CAS's own
        // compare never antidepends on its write.
        if let Some(MemEffect { loc, reads, writes }) = inst.mem_effect() {
            for (lloc, &(lpos, valid)) in state.loads.iter().filter(|_| writes.is_some()) {
                let conflict = if valid {
                    !matches!(alias(*lloc, loc, true), AliasResult::No)
                } else {
                    matches!(loc, MemLoc::Heap { .. })
                };
                if conflict {
                    emit(AntidepViolation {
                        at: (b, i),
                        origin: lpos,
                        invariant: Invariant::AntidepCut,
                        message: format!(
                            "store may overwrite {} read at b{}:{} in the \
                             same region: re-execution after a crash reads \
                             the new value",
                            describe_loc(*lloc),
                            lpos.0 .0,
                            lpos.1
                        ),
                    });
                }
            }
            if reads {
                state.loads.entry(loc).or_insert(((b, i), true));
            }
        }
        // Uses happen before the def of the same instruction (e.g.
        // `r = r + 1` reads r first), so record them first.
        for r in inst.uses() {
            if !state.is_defined(r.id) {
                state.used_clean.entry(r.id).or_insert((b, i));
            }
        }
        if let Some(d) = inst.def_reg() {
            if let Some(&use_pos) = state.used_clean.get(&d.id) {
                emit(AntidepViolation {
                    at: (b, i),
                    origin: use_pos,
                    invariant: Invariant::RegisterWarCut,
                    message: format!(
                        "register r{} is read at b{}:{} and redefined here \
                         within one region: recovery re-executes the region \
                         with the clobbered value",
                        d.id, use_pos.0 .0, use_pos.1
                    ),
                });
            }
            if let Some(set) = &mut state.defined {
                set.insert(d.id);
            }
            // A redefined base makes tracked heap addresses undescribable.
            for (loc, entry) in state.loads.iter_mut() {
                if matches!(loc, MemLoc::Heap { base, .. } if base.id == d.id) {
                    entry.1 = false;
                }
            }
        }
    }
    state
}

fn describe_loc(loc: MemLoc) -> String {
    match loc {
        MemLoc::Stack(s) => format!("stack slot s{}", s.0),
        MemLoc::Heap { base, offset } => format!("[r{}+{}]", base.id, offset),
    }
}

/// Invariant 4: persist ordering, decided by the runtime model. When the
/// configured runtime does not flush region stores at boundaries, every
/// function with at-risk stores gets one diagnostic anchored at its first
/// in-FASE store.
fn check_persist_ordering(
    func: &Function,
    fase: &FaseMap,
    model: &RuntimeModel,
    diags: &mut Vec<Diagnostic>,
) {
    if model.boundary_flushes_region_stores {
        return;
    }
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = ido_ir::BlockId(bi as u32);
        for (i, inst) in bb.insts.iter().enumerate() {
            if writes_memory(inst) && fase.in_fase(b, i) {
                diags.push(diag(
                    func,
                    Some((b, i)),
                    Invariant::PersistOrdering,
                    "configured runtime advances recovery_pc at boundaries \
                     without flushing the region's tracked stores \
                     (ido_bug_skip_store_flush): a crash after the boundary \
                     loses this store while recovery believes it durable"
                        .to_string(),
                    vec![(b, i)],
                ));
                return; // one per function is enough to fail the build
            }
        }
    }
}
