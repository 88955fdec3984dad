//! Region cut placement, construction, and the register-WAR fixup.

use std::collections::BTreeSet;

use ido_ir::{BlockId, Function, Inst, Operand, Reg, StackSlot};

use crate::formation::Formation;

/// A code position: `(block, instruction index)`. A *cut at `p`* means a
/// region boundary immediately **before** the instruction at `p`.
pub type Pos = (BlockId, usize);

/// Alias-analysis precision used when detecting memory antidependences.
/// The paper notes (Section V-C) that region sizes depend directly on the
/// alias analysis; this knob exists for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AliasMode {
    /// LLVM-basicAA-like: stack slots exact, same-base offsets exact,
    /// different bases may alias. The paper's configuration.
    #[default]
    Basic,
    /// No alias analysis at all: every store conflicts with every
    /// outstanding load — the lower bound on region sizes.
    None,
    /// Oracle precision: only provably-identical locations conflict
    /// (different heap bases assumed disjoint). An *upper bound* on region
    /// sizes for the ablation study — unsound as a compilation mode, so
    /// [`partition`] never uses it; analysis only.
    Precise,
}

/// Dense identifier of a region within one function's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// One idempotent region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// This region's id.
    pub id: RegionId,
    /// Entry position (always a cut).
    pub entry: Pos,
    /// Member instruction positions, in block-major order.
    pub members: Vec<Pos>,
    /// Input registers: live at entry and used in the region. These are the
    /// values recovery must restore from the persistent register file.
    pub input_regs: Vec<Reg>,
    /// Input stack slots (live at entry, used in the region). Restored in
    /// place from NVM, so they need no log slots — but they must never be
    /// overwritten in-region, which the antidependence cuts guarantee.
    pub input_slots: Vec<StackSlot>,
    /// Output registers (`Def ∩ LiveOut`, Eq. 1): persisted into the log at
    /// the region's end.
    pub output_regs: Vec<Reg>,
    /// Output stack slots (written back at the region's end).
    pub output_slots: Vec<StackSlot>,
    /// Static count of heap stores in the region.
    pub heap_stores: usize,
    /// Static count of stack stores in the region.
    pub stack_stores: usize,
}

impl Region {
    /// Total static persistent stores (heap + stack).
    pub fn num_stores(&self) -> usize {
        self.heap_stores + self.stack_stores
    }

    /// Number of input registers (the paper's Fig. 8 "live-in registers").
    pub fn num_inputs(&self) -> usize {
        self.input_regs.len()
    }
}

/// The full partition of one function into idempotent regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAnalysis {
    regions: Vec<Region>,
    /// `region_of[block][index]`, dense.
    region_of: Vec<Vec<RegionId>>,
    cuts: BTreeSet<Pos>,
}

impl RegionAnalysis {
    pub(crate) fn from_parts(
        regions: Vec<Region>,
        region_of: Vec<Vec<RegionId>>,
        mut entries: Vec<Pos>,
    ) -> RegionAnalysis {
        entries.sort_unstable();
        RegionAnalysis { regions, region_of, cuts: entries.into_iter().collect() }
    }

    /// All regions, indexed by [`RegionId`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// The region containing the instruction at `pos`.
    pub fn region_at(&self, pos: Pos) -> Option<RegionId> {
        self.region_of.get(pos.0 .0 as usize)?.get(pos.1).copied()
    }

    /// All cut positions (region entries), including implicit single-entry
    /// joins.
    pub fn cuts(&self) -> &BTreeSet<Pos> {
        &self.cuts
    }

    /// True if a region boundary lies immediately before `pos`.
    pub fn is_cut(&self, pos: Pos) -> bool {
        self.cuts.contains(&pos)
    }
}

/// What one [`partition`] call did, for the host side to observe itself:
/// read-only counts, no knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionWork {
    /// Register-WAR fixups applied.
    pub fixups: usize,
    /// Positions whose cuts and membership were re-derived after a fixup
    /// (the sizes of the fixups' zones, summed).
    pub positions_reanalysed: usize,
    /// Region members visited while looking for violations, the first scan
    /// of every region included.
    pub positions_scanned: usize,
}

/// Computes the region partition of `func` without mutating it. If the
/// function still contains register WAR violations (an input register
/// redefined inside its region), the analysis reports them faithfully; use
/// [`partition`] to repair them.
pub fn analyze(func: &Function) -> RegionAnalysis {
    analyze_with(func, AliasMode::Basic)
}

/// [`analyze`] with an explicit alias-analysis precision (ablation knob).
pub fn analyze_with(func: &Function, mode: AliasMode) -> RegionAnalysis {
    Formation::new(func, mode).summarize(func)
}

/// Computes the region partition, repairing register antidependences on
/// region inputs by renaming (see the crate docs). Mutates `func` by
/// renaming defs and inserting `RegionMarker` + compensation `mov`s; returns
/// the final analysis, which is guaranteed WAR-free.
pub fn partition(func: &mut Function) -> RegionAnalysis {
    partition_counted(func).0
}

/// [`partition`], also reporting the work it did.
///
/// Violations are repaired one at a time, in the order a from-scratch
/// analysis after every fixup would meet them — so fresh registers and
/// markers land exactly where they always did — but each fixup re-derives
/// only the zone it touched (see `formation.rs`). The analysis returned is
/// still one ordinary from-scratch [`analyze`] of the final function: the
/// incremental state only has to get the sequence of fixups right.
#[doc(hidden)]
pub fn partition_counted(func: &mut Function) -> (RegionAnalysis, PartitionWork) {
    let mut formation = Formation::new(func, AliasMode::Basic);
    while let Some((pos, r)) = formation.next_violation(func) {
        apply_war_fixup(func, pos, r);
        formation.fixed_up(func, pos);
    }
    (analyze(func), formation.work)
}

/// Finds the first definition of a region-input register inside its own
/// region, if any.
pub fn find_war_violation(func: &Function, analysis: &RegionAnalysis) -> Option<(Pos, Reg)> {
    for region in &analysis.regions {
        for &(b, i) in &region.members {
            let inst = &func.block(b).insts[i];
            if let Some(d) = inst.def_reg() {
                if region.input_regs.contains(&d) {
                    return Some(((b, i), d));
                }
            }
        }
    }
    None
}

/// Renames the definition at `pos` (of input register `r`) to a fresh
/// register, inserts a region marker after it, and begins the successor
/// region with `mov r, r'`.
fn apply_war_fixup(func: &mut Function, pos: Pos, r: Reg) {
    let fresh = func.fresh_reg(r.class);
    let (b, i) = pos;
    let bb = func.block_mut(b);
    rename_def(&mut bb.insts[i], r, fresh);
    bb.insts.insert(i + 1, Inst::RegionMarker);
    bb.insts.insert(i + 2, Inst::Mov { dst: r, src: Operand::Reg(fresh) });
}

/// Every arm of [`Inst::def_reg`] has one here.
fn rename_def(inst: &mut Inst, from: Reg, to: Reg) {
    match inst {
        Inst::Mov { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::LoadStack { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::Cas { dst, .. }
        | Inst::Alloc { dst, .. }
        | Inst::Call { ret: Some(dst), .. } => {
            assert_eq!(*dst, from, "rename target mismatch");
            *dst = to;
        }
        other => panic!("instruction {other} does not define a register"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::{BinOp, ProgramBuilder};

    fn single_func(build: impl FnOnce(&mut ido_ir::FunctionBuilder<'_>)) -> Function {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("t", 2);
        build(&mut f);
        let id = f.finish().unwrap();
        pb.finish().function(id).clone()
    }

    #[test]
    fn straightline_loads_one_region() {
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            let b = f.new_reg();
            f.load(a, p, 0);
            f.load(b, p, 8);
            f.ret(Some(Operand::Reg(b)));
        });
        let an = analyze(&f);
        assert_eq!(an.regions().len(), 1, "pure loads never cut");
    }

    #[test]
    fn load_then_aliasing_store_is_cut() {
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            f.load(a, p, 0);
            f.store(p, 0, 5i64); // WAR on mem[p]
            f.ret(None);
        });
        let an = analyze(&f);
        assert_eq!(an.regions().len(), 2);
        assert!(an.is_cut((BlockId(0), 1)), "cut placed immediately before the store");
    }

    #[test]
    fn store_then_load_is_not_cut() {
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            f.store(p, 0, 5i64);
            f.load(a, p, 0);
            f.ret(Some(Operand::Reg(a)));
        });
        let an = analyze(&f);
        assert_eq!(an.regions().len(), 1, "RAW is re-executable; only WAR cuts");
    }

    #[test]
    fn disjoint_offsets_do_not_cut() {
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            f.load(a, p, 0);
            f.store(p, 8, 5i64); // provably disjoint word
            f.ret(None);
        });
        assert_eq!(analyze(&f).regions().len(), 1);
    }

    #[test]
    fn different_bases_conservatively_cut() {
        let f = single_func(|f| {
            let p = f.param(0);
            let q = f.param(1);
            let a = f.new_reg();
            f.load(a, p, 0);
            f.store(q, 0, 5i64); // basicAA: may alias
            f.ret(None);
        });
        assert_eq!(analyze(&f).regions().len(), 2);
    }

    #[test]
    fn base_redefinition_makes_store_conflict() {
        // load mem[p]; p = p'; store mem[p] — pointer chase: conservative cut.
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            f.load(a, p, 0);
            f.mov(p, Operand::Reg(a)); // p redefined (chase)
            f.store(p, 0, 1i64);
            f.ret(None);
        });
        let an = analyze(&f);
        assert!(an.regions().len() >= 2);
    }

    #[test]
    fn lock_and_unlock_are_boundaries() {
        let f = single_func(|f| {
            let p = f.param(0);
            f.lock(p);
            f.store(p, 8, 1i64);
            f.unlock(p);
            f.ret(None);
        });
        let an = analyze(&f);
        // cut after lock (index 1) and before unlock (index 2)
        assert!(an.is_cut((BlockId(0), 1)));
        assert!(an.is_cut((BlockId(0), 2)));
    }

    #[test]
    fn counting_loop_is_one_idempotent_region() {
        // i is initialized *inside* the region, so re-executing the whole
        // loop from the entry is deterministic: no cuts are needed at all.
        let f = single_func(|f| {
            let n = f.param(0);
            let i = f.new_reg();
            let c = f.new_reg();
            let head = f.new_block();
            let body = f.new_block();
            let exit = f.new_block();
            f.mov(i, 0i64);
            f.jump(head);
            f.switch_to(head);
            f.bin(BinOp::Lt, c, i, n);
            f.branch(c, body, exit);
            f.switch_to(body);
            f.bin(BinOp::Add, i, i, 1i64);
            f.jump(head);
            f.switch_to(exit);
            f.ret(None);
        });
        let an = analyze(&f);
        assert_eq!(an.regions().len(), 1, "pure counting loop stays one region");
        assert!(find_war_violation(&f, &an).is_none());
    }

    #[test]
    fn traversal_loop_with_loop_carried_store_is_cut() {
        // Each iteration loads a node then stores to it: the cross-iteration
        // WAR must be found by the fixpoint propagating around the back edge.
        let f = single_func(|f| {
            let cur = f.param(0);
            let v = f.new_reg();
            let head = f.new_block();
            let exit = f.new_block();
            f.jump(head);
            f.switch_to(head);
            f.load(v, cur, 8); // read node value
            f.store(cur, 8, 1i64); // same-word WAR within the iteration
            f.load(cur, cur, 0); // chase next pointer (redefines base)
            f.branch(cur, head, exit);
            f.switch_to(exit);
            f.ret(None);
        });
        let an = analyze(&f);
        assert!(an.regions().len() >= 2, "the WAR inside/around the loop must cut");
    }

    #[test]
    fn join_from_two_regions_is_single_entry() {
        // bb0 branches to bb1 / bb2; bb1 contains an alloc (cut), so bb1 and
        // bb2 end in different regions; their join must start a new region.
        let f = single_func(|f| {
            let c = f.param(0);
            let l = f.new_block();
            let r = f.new_block();
            let j = f.new_block();
            f.branch(c, l, r);
            f.switch_to(l);
            let x = f.new_reg();
            f.alloc(x, 16i64);
            f.jump(j);
            f.switch_to(r);
            f.jump(j);
            f.switch_to(j);
            f.ret(None);
        });
        let an = analyze(&f);
        assert!(an.is_cut((BlockId(3), 0)), "join of differing regions starts fresh");
    }

    #[test]
    fn war_violation_detected_and_repaired() {
        let mut pb = ProgramBuilder::new();
        let mut fb = pb.new_function("w", 2);
        let p = fb.param(0);
        let v = fb.param(1); // live-in at the entry region
        fb.bin(BinOp::Add, v, v, 1i64); // v is a region input, redefined: WAR
        fb.store(p, 0, Operand::Reg(v));
        fb.ret(None);
        let id = fb.finish().unwrap();
        let mut prog = pb.finish();
        let func = prog.function_mut(id);

        let before = analyze(func);
        assert!(find_war_violation(func, &before).is_some());

        let after = partition(func);
        assert!(find_war_violation(func, &after).is_none(), "partition repairs all WARs");
        // The repair introduced a marker and a compensation mov.
        let has_marker = func.iter_insts().any(|(_, i)| matches!(i, Inst::RegionMarker));
        assert!(has_marker);
    }

    #[test]
    fn cas_redefining_an_input_is_renamed_like_any_other_def() {
        // r1 is an input of the entry region (the add reads it) and the CAS
        // writes its result back into r1: `rename_def` once had no arm for
        // `Cas`, so this panicked the compiler.
        let mut pb = ProgramBuilder::new();
        let mut fb = pb.new_function("c", 2);
        let (cell, v) = (fb.param(0), fb.param(1));
        let t = fb.new_reg();
        fb.bin(BinOp::Add, t, v, 1i64);
        fb.cas(v, cell, 0, v, t);
        fb.store(cell, 8, Operand::Reg(v));
        fb.ret(None);
        let id = fb.finish().unwrap();
        let mut prog = pb.finish();
        let func = prog.function_mut(id);
        let (analysis, work) = partition_counted(func);
        assert_eq!(work.fixups, 1);
        assert!(find_war_violation(func, &analysis).is_none());
        let fresh = Reg::int(3);
        let insts = &func.block(BlockId(0)).insts;
        assert!(matches!(insts[1], Inst::Cas { dst, .. } if dst == fresh), "{}", insts[1]);
        assert_eq!(insts[2], Inst::RegionMarker);
        assert_eq!(insts[3], Inst::Mov { dst: v, src: Operand::Reg(fresh) });
    }

    #[test]
    fn loop_increment_repair_converges() {
        // while (i < n) { i = i + 1 } — the classic loop-carried WAR.
        let mut pb = ProgramBuilder::new();
        let mut fb = pb.new_function("l", 1);
        let n = fb.param(0);
        let i = fb.new_reg();
        let c = fb.new_reg();
        let head = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.mov(i, 0i64);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(BinOp::Lt, c, i, n);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.bin(BinOp::Add, i, i, 1i64);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Reg(i)));
        let id = fb.finish().unwrap();
        let mut prog = pb.finish();
        let func = prog.function_mut(id);
        let an = partition(func);
        assert!(find_war_violation(func, &an).is_none());
    }

    #[test]
    fn inputs_and_outputs_follow_equation_one() {
        // Region: a = mem[p]; b = a + 1; then cut (alloc); then use b.
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            let b = f.new_reg();
            f.load(a, p, 0);
            f.bin(BinOp::Add, b, a, 1i64);
            let t = f.new_reg();
            f.alloc(t, 8i64); // cut before and after
            f.store(t, 0, Operand::Reg(b));
            f.ret(None);
        });
        let an = analyze(&f);
        let first = &an.regions()[0];
        assert_eq!(first.entry, (BlockId(0), 0));
        assert!(first.input_regs.contains(&Reg::int(0)), "p is an input");
        assert!(first.output_regs.contains(&Reg::int(3)), "b is live-out and defined");
        assert!(
            !first.output_regs.contains(&Reg::int(2)),
            "a dies inside the region: not an output"
        );
    }

    #[test]
    fn store_counts_are_per_region() {
        let f = single_func(|f| {
            let p = f.param(0);
            f.store(p, 0, 1i64);
            f.store(p, 8, 2i64);
            let s = f.new_stack_slot();
            f.store_stack(s, 3i64);
            f.ret(None);
        });
        let an = analyze(&f);
        assert_eq!(an.regions().len(), 1);
        assert_eq!(an.regions()[0].heap_stores, 2);
        assert_eq!(an.regions()[0].stack_stores, 1);
        assert_eq!(an.regions()[0].num_stores(), 3);
    }

    #[test]
    fn every_instruction_belongs_to_exactly_one_region() {
        let f = single_func(|f| {
            let p = f.param(0);
            let a = f.new_reg();
            f.lock(p);
            f.load(a, p, 8);
            f.store(p, 8, 1i64);
            f.unlock(p);
            f.ret(None);
        });
        let an = analyze(&f);
        let mut count = 0;
        for ((b, i), _) in f.iter_insts() {
            assert!(an.region_at((b, i)).is_some(), "({b:?},{i}) unassigned");
            count += 1;
        }
        let member_total: usize = an.regions().iter().map(|r| r.members.len()).sum();
        assert_eq!(member_total, count);
    }
}
