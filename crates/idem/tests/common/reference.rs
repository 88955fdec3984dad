//! The old region-formation loop, kept only as the second opinion of
//! `partition_equivalence`: `partition` re-ran this whole-function
//! `analyze` — `Cfg`, `Liveness`, structural cuts, the outstanding-loads
//! fixpoint (twice: the second round only confirms the first), `build` —
//! after every single register-WAR fixup. The code is the pre-PR-17
//! `regions.rs` verbatim apart from its result type, `Cfg::rpo()` now
//! returning a slice, the `Cas` arm of the rename, and memory accesses read
//! through `Inst::mem_effect` (a CAS reads and writes its cell).

use std::collections::{BTreeMap, BTreeSet};

use ido_idem::{AliasMode, Pos, Region, RegionId};
use ido_ir::alias::{alias, AliasResult};
use ido_ir::cfg::Cfg;
use ido_ir::liveness::{reg_var, slot_var, Liveness, Var};
use ido_ir::{BlockId, Function, Inst, MemLoc, Operand, Reg, StackSlot};

/// What the old `build` produced.
#[derive(Debug, Clone)]
pub struct RefAnalysis {
    pub regions: Vec<Region>,
    pub region_of: BTreeMap<Pos, RegionId>,
    pub cuts: BTreeSet<Pos>,
}

/// Outstanding-loads abstract state for antidependence detection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Outstanding {
    locs: BTreeSet<MemLoc>,
    /// Set when a tracked heap location's base register was redefined: its
    /// address is no longer describable, so any later store may alias it.
    wildcard: bool,
}

impl Outstanding {
    fn clear(&mut self) {
        self.locs.clear();
        self.wildcard = false;
    }

    fn note_load(&mut self, loc: MemLoc) {
        self.locs.insert(loc);
    }

    fn note_def(&mut self, r: Reg) {
        let before = self.locs.len();
        self.locs.retain(|l| !matches!(l, MemLoc::Heap { base, .. } if *base == r));
        if self.locs.len() != before {
            self.wildcard = true;
        }
    }

    fn store_conflicts(&self, loc: MemLoc, mode: AliasMode) -> bool {
        if mode == AliasMode::None {
            return !self.locs.is_empty() || self.wildcard;
        }
        if mode == AliasMode::Precise {
            return self
                .locs
                .iter()
                .any(|l| matches!(alias(*l, loc, true), AliasResult::Must));
        }
        if self.wildcard && matches!(loc, MemLoc::Heap { .. }) {
            return true;
        }
        self.locs.iter().any(|l| {
            // Bases are tracked precisely (redefinitions invalidate), so
            // same-base offset reasoning is valid here.
            !matches!(alias(*l, loc, true), AliasResult::No)
        })
    }

    fn merge(&mut self, other: &Outstanding) -> bool {
        let n = self.locs.len();
        let w = self.wildcard;
        self.locs.extend(other.locs.iter().copied());
        self.wildcard |= other.wildcard;
        self.locs.len() != n || self.wildcard != w
    }
}

/// The analysis the old loop ran after every fixup.
pub fn analyze(func: &Function) -> RefAnalysis {
    let cfg = Cfg::new(func);
    let liveness = Liveness::new(func, &cfg);
    let mut cuts = structural_cuts(func);
    add_antidep_cuts(func, &cfg, &mut cuts, AliasMode::Basic);
    build(func, &cfg, &liveness, cuts)
}

/// The old `partition`: one whole-function analysis per fixup.
pub fn partition(func: &mut Function) -> RefAnalysis {
    loop {
        let analysis = analyze(func);
        match find_war_violation(func, &analysis) {
            Some((pos, r)) => apply_war_fixup(func, pos, r),
            None => return analysis,
        }
    }
}

/// First definition of a region-input register inside its own region.
pub fn find_war_violation(func: &Function, analysis: &RefAnalysis) -> Option<(Pos, Reg)> {
    for region in &analysis.regions {
        for &(b, i) in &region.members {
            if let Some(d) = func.block(b).insts[i].def_reg() {
                if region.input_regs.contains(&d) {
                    return Some(((b, i), d));
                }
            }
        }
    }
    None
}

/// The fixup itself (with the `Cas` arm the old `rename_def` lacked).
pub fn apply_war_fixup(func: &mut Function, pos: Pos, r: Reg) {
    let fresh = func.fresh_reg(r.class);
    let (b, i) = pos;
    let bb = func.block_mut(b);
    match &mut bb.insts[i] {
        Inst::Mov { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::LoadStack { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Cas { dst, .. }
        | Inst::Alloc { dst, .. }
        | Inst::Call { ret: Some(dst), .. } => {
            assert_eq!(*dst, r, "rename target mismatch");
            *dst = fresh;
        }
        other => panic!("instruction {other} does not define a register"),
    }
    bb.insts.insert(i + 1, Inst::RegionMarker);
    bb.insts.insert(i + 2, Inst::Mov { dst: r, src: Operand::Reg(fresh) });
}

/// Structural cuts: the function entry, lock/durable-region boundaries,
/// runtime calls, and explicit `RegionMarker`s. Loop back edges are *not*
/// cut (see below).
pub fn structural_cuts(func: &Function) -> BTreeSet<Pos> {
    let mut cuts = BTreeSet::new();
    cuts.insert((BlockId(0), 0));
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        let len = bb.insts.len();
        for (i, inst) in bb.insts.iter().enumerate() {
            match inst {
                // Boundary after acquire: the robbed-lock effect (Sec. III-B)
                // relies on no FASE instruction preceding this boundary.
                Inst::Lock { .. } | Inst::DurableBegin
                    if i + 1 < len => {
                        cuts.insert((b, i + 1));
                    }
                // Boundary before release: everything the FASE did under the
                // lock is persisted before the lock can be stolen.
                Inst::Unlock { .. } | Inst::DurableEnd => {
                    cuts.insert((b, i));
                }
                // Runtime calls with external side effects delimit regions
                // on both sides so they are never re-executed.
                Inst::Call { .. } | Inst::Alloc { .. } | Inst::Free { .. } => {
                    cuts.insert((b, i));
                    if i + 1 < len {
                        cuts.insert((b, i + 1));
                    }
                }
                Inst::RegionMarker => {
                    cuts.insert((b, i));
                }
                _ => {}
            }
        }
    }
    cuts
}

/// Adds cuts breaking every memory antidependence (load followed by a
/// possibly-aliasing store with no intervening cut). Cuts are placed
/// immediately before the violating store — the right-endpoint greedy rule,
/// optimal for the interval-stabbing formulation.
fn add_antidep_cuts(func: &Function, cfg: &Cfg, cuts: &mut BTreeSet<Pos>, mode: AliasMode) {
    loop {
        let block_in = outstanding_fixpoint(func, cfg, cuts);
        let mut new_cuts = Vec::new();
        for (bi, bb) in func.blocks().iter().enumerate() {
            let b = BlockId(bi as u32);
            let mut state = block_in[bi].clone();
            for (i, inst) in bb.insts.iter().enumerate() {
                if cuts.contains(&(b, i)) {
                    state.clear();
                }
                if let Some(effect) = inst.mem_effect() {
                    if effect.writes.is_some() && state.store_conflicts(effect.loc, mode) {
                        new_cuts.push((b, i));
                        state.clear();
                    }
                    if effect.reads {
                        state.note_load(effect.loc);
                    }
                }
                if let Some(d) = inst.def_reg() {
                    state.note_def(d);
                }
            }
        }
        if new_cuts.is_empty() {
            return;
        }
        cuts.extend(new_cuts);
    }
}

/// Forward fixpoint: outstanding loads at each block entry, given `cuts`.
fn outstanding_fixpoint(func: &Function, cfg: &Cfg, cuts: &BTreeSet<Pos>) -> Vec<Outstanding> {
    let n = func.num_blocks();
    let mut block_in: Vec<Outstanding> = vec![Outstanding::default(); n];
    let mut block_out: Vec<Outstanding> = vec![Outstanding::default(); n];
    let rpo = cfg.rpo();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo {
            let bi = b.0 as usize;
            let mut input = Outstanding::default();
            for &p in cfg.preds(b) {
                input.merge(&block_out[p.0 as usize]);
            }
            if input != block_in[bi] {
                block_in[bi] = input.clone();
                changed = true;
            }
            let mut state = input;
            for (i, inst) in func.block(b).insts.iter().enumerate() {
                if cuts.contains(&(b, i)) {
                    state.clear();
                }
                if let Some(effect) = inst.mem_effect().filter(|e| e.reads) {
                    state.note_load(effect.loc);
                }
                if let Some(d) = inst.def_reg() {
                    state.note_def(d);
                }
            }
            if state != block_out[bi] {
                block_out[bi] = state;
                changed = true;
            }
        }
    }
    block_in
}

/// Builds regions from the cut set: assigns every instruction to a region,
/// adding implicit cuts at joins whose predecessors disagree (single-entry
/// enforcement), then computes per-region inputs, outputs, and store counts.
fn build(
    func: &Function,
    cfg: &Cfg,
    liveness: &Liveness,
    mut cuts: BTreeSet<Pos>,
) -> RefAnalysis {
    let reachable = cfg.reachable();
    for (bi, r) in reachable.iter().enumerate() {
        if !*r {
            // Unreachable code gets its own region; it never executes.
            cuts.insert((BlockId(bi as u32), 0));
        }
    }

    // Membership assignment. A block head that is not a cut inherits its
    // predecessors' region. Predecessors not yet assigned (back edges) are
    // treated optimistically; after the pass, any head whose predecessors
    // disagree with its assignment becomes an implicit cut (single-entry
    // enforcement) and the pass restarts. Cuts only grow, so this
    // terminates.
    let (region_of, entries) = loop {
        let mut region_of: BTreeMap<Pos, RegionId> = BTreeMap::new();
        let mut entries: Vec<Pos> = Vec::new();
        for &b in cfg.rpo() {
            let bb = func.block(b);
            let mut cur: Option<RegionId> = None;
            for i in 0..bb.insts.len() {
                let pos = (b, i);
                let id = if cuts.contains(&pos) {
                    entries.push(pos);
                    RegionId(entries.len() as u32 - 1)
                } else if let Some(cur) = cur {
                    cur
                } else {
                    // Inherit from the first already-assigned predecessor.
                    let known = cfg
                        .preds(b)
                        .iter()
                        .filter(|p| reachable[p.0 as usize])
                        .find_map(|p| {
                            let last = func.block(*p).insts.len() - 1;
                            region_of.get(&(*p, last)).copied()
                        });
                    match known {
                        Some(r) => r,
                        None => {
                            // No assigned predecessor at all: treat as entry.
                            entries.push(pos);
                            RegionId(entries.len() as u32 - 1)
                        }
                    }
                };
                region_of.insert(pos, id);
                cur = Some(id);
            }
        }
        // Consistency check: every non-cut head must agree with all of its
        // reachable predecessors.
        let mut new_cuts = Vec::new();
        for (bi, bb) in func.blocks().iter().enumerate() {
            let b = BlockId(bi as u32);
            if !reachable[bi] || cuts.contains(&(b, 0)) || bb.insts.is_empty() {
                continue;
            }
            let my = region_of[&(b, 0)];
            let disagrees = cfg.preds(b).iter().any(|p| {
                if !reachable[p.0 as usize] {
                    return false;
                }
                let last = func.block(*p).insts.len() - 1;
                region_of.get(&(*p, last)) != Some(&my)
            });
            if disagrees {
                new_cuts.push((b, 0));
            }
        }
        if new_cuts.is_empty() {
            break (region_of, entries);
        }
        cuts.extend(new_cuts);
    };

    // Collect members per region.
    let mut members: Vec<Vec<Pos>> = vec![Vec::new(); entries.len()];
    for (&pos, &id) in &region_of {
        members[id.0 as usize].push(pos);
    }

    let mut regions = Vec::with_capacity(entries.len());
    for (idx, entry) in entries.iter().enumerate() {
        let id = RegionId(idx as u32);
        let mems = std::mem::take(&mut members[idx]);

        // Used and defined variables.
        let mut used_regs: BTreeSet<Reg> = BTreeSet::new();
        let mut used_slots: BTreeSet<StackSlot> = BTreeSet::new();
        let mut def_regs: BTreeSet<Reg> = BTreeSet::new();
        let mut def_slots: BTreeSet<StackSlot> = BTreeSet::new();
        let mut heap_stores = 0;
        let mut stack_stores = 0;
        for &(b, i) in &mems {
            let inst = &func.block(b).insts[i];
            used_regs.extend(inst.uses());
            used_slots.extend(inst.stack_uses());
            def_regs.extend(inst.def_reg());
            def_slots.extend(inst.stack_def());
            match inst.mem_effect().filter(|e| e.writes.is_some()).map(|e| e.loc) {
                Some(MemLoc::Heap { .. }) => heap_stores += 1,
                Some(MemLoc::Stack(_)) => stack_stores += 1,
                None => {}
            }
        }

        // Inputs: live at entry ∩ used in region.
        let entry_live = liveness.live_before(func, entry.0, entry.1);
        let input_regs: Vec<Reg> = used_regs
            .iter()
            .copied()
            .filter(|r| entry_live.contains(&reg_var(*r)))
            .collect();
        let input_slots: Vec<StackSlot> = used_slots
            .iter()
            .copied()
            .filter(|s| entry_live.contains(&slot_var(*s)))
            .collect();

        // Outputs: Def ∩ LiveOut over all exits.
        let mut exit_live: BTreeSet<Var> = BTreeSet::new();
        for &(b, i) in &mems {
            let inst = &func.block(b).insts[i];
            if inst.is_terminator() {
                for s in inst.targets() {
                    if region_of.get(&(s, 0)) != Some(&id) {
                        exit_live.extend(liveness.live_in(s));
                    }
                }
            } else {
                let next = (b, i + 1);
                if region_of.get(&next) != Some(&id) {
                    exit_live.extend(liveness.live_before(func, b, i + 1));
                }
            }
        }
        let output_regs: Vec<Reg> =
            def_regs.iter().copied().filter(|r| exit_live.contains(&reg_var(*r))).collect();
        let output_slots: Vec<StackSlot> =
            def_slots.iter().copied().filter(|s| exit_live.contains(&slot_var(*s))).collect();

        regions.push(Region {
            id,
            entry: *entry,
            members: mems,
            input_regs,
            input_slots,
            output_regs,
            output_slots,
            heap_stores,
            stack_stores,
        });
    }

    RefAnalysis { regions, region_of, cuts }
}

