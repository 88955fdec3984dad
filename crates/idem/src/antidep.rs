//! Enumeration of memory antidependence pairs and verification that a
//! region partition cuts all of them.
//!
//! The region partitioner in [`crate::regions`] *places* cuts greedily; this
//! module independently *enumerates* the load→store antidependence pairs so
//! tests (including property tests) can verify the partition's central
//! invariant: **no antidependent pair shares a region**.

use std::collections::BTreeSet;

use ido_ir::alias::{alias, AliasResult};
use ido_ir::cfg::Cfg;
use ido_ir::{BlockId, Function, Inst, MemLoc, Reg};

use crate::regions::{Pos, RegionAnalysis};

/// A load followed (on some path, without an intervening region boundary)
/// by a possibly-aliasing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntidepPair {
    /// Position of the load.
    pub load: Pos,
    /// Position of the store.
    pub store: Pos,
    /// Location as seen by the load.
    pub loc: MemLoc,
}

/// Enumerates antidependent pairs that live within a *single region* of the
/// given partition. A correct partition returns the empty vector.
///
/// The search walks each region's members in order, tracking loads seen so
/// far in that region (with base-register invalidation identical to the
/// partitioner's), and reports any store that may alias one of them and
/// that the load can reach inside the region — the two arms of a branch
/// diamond share a region but no execution.
pub fn uncut_pairs(func: &Function, analysis: &RegionAnalysis) -> Vec<AntidepPair> {
    let mut pairs = Vec::new();
    for region in analysis.regions() {
        // Loads seen so far, tagged with position. Wildcards after base
        // redefinition keep the original location for reporting.
        let mut seen: Vec<(Pos, MemLoc, bool)> = Vec::new(); // (pos, loc, valid)
        let mut walk_order = region.members.clone();
        walk_order.sort(); // block-major order approximates execution order
        for &(b, i) in &walk_order {
            step(&mut seen, (b, i), &func.block(b).insts[i], |lpos, lloc| {
                if reaches(func, analysis, region, lpos, (b, i)) {
                    pairs.push(AntidepPair { load: lpos, store: (b, i), loc: lloc });
                }
            });
        }
    }
    pairs
}

/// One instruction of the pair search over `seen` (position, location,
/// address still describable): a write is checked against the loads seen
/// so far, `report`ing each one it may overwrite, then a read joins them.
/// A CAS does both, in that order — its own compare does not antidepend on
/// its write.
fn step(
    seen: &mut Vec<(Pos, MemLoc, bool)>,
    pos: Pos,
    inst: &Inst,
    mut report: impl FnMut(Pos, MemLoc),
) {
    if let Some(effect) = inst.mem_effect() {
        if effect.writes.is_some() {
            for &(lpos, lloc, valid) in seen.iter() {
                let conflict = if valid {
                    !matches!(alias(lloc, effect.loc, true), AliasResult::No)
                } else {
                    matches!(effect.loc, MemLoc::Heap { .. })
                };
                if conflict {
                    report(lpos, lloc);
                }
            }
        }
        if effect.reads {
            seen.push((pos, effect.loc, true));
        }
    }
    if let Some(d) = inst.def_reg() {
        invalidate(seen, d);
    }
}

/// True if execution can get from `from` to `to` without leaving `region`
/// (arriving at its entry again is a new execution of it).
fn reaches(
    func: &Function,
    analysis: &RegionAnalysis,
    region: &crate::regions::Region,
    from: Pos,
    to: Pos,
) -> bool {
    let mut seen = BTreeSet::from([from]);
    let mut work = vec![from];
    while let Some((b, i)) = work.pop() {
        let inst = &func.block(b).insts[i];
        let next: Vec<Pos> = if inst.is_terminator() {
            inst.targets().into_iter().map(|t| (t, 0)).collect()
        } else {
            vec![(b, i + 1)]
        };
        for p in next {
            if p == to {
                return true;
            }
            if p != region.entry && analysis.region_at(p) == Some(region.id) && seen.insert(p) {
                work.push(p);
            }
        }
    }
    false
}

fn invalidate(seen: &mut [(Pos, MemLoc, bool)], d: Reg) {
    for entry in seen.iter_mut() {
        if let MemLoc::Heap { base, .. } = entry.1 {
            if base == d {
                entry.2 = false;
            }
        }
    }
}

/// Enumerates *all* intra-block antidependence pairs of a function,
/// ignoring any cuts. Used for statistics and to sanity-check that the
/// partitioner had real work to do.
pub fn all_intra_block_pairs(func: &Function) -> Vec<AntidepPair> {
    let mut pairs = Vec::new();
    for (bi, bb) in func.blocks().iter().enumerate() {
        let b = BlockId(bi as u32);
        let mut seen: Vec<(Pos, MemLoc, bool)> = Vec::new();
        for (i, inst) in bb.insts.iter().enumerate() {
            step(&mut seen, (b, i), inst, |lpos, lloc| {
                pairs.push(AntidepPair { load: lpos, store: (b, i), loc: lloc });
            });
        }
    }
    pairs
}

/// Checks the partition invariants, returning human-readable violations.
/// Used by integration and property tests.
pub fn check_partition(func: &Function, analysis: &RegionAnalysis) -> Vec<String> {
    let mut problems = Vec::new();
    for p in uncut_pairs(func, analysis) {
        problems.push(format!(
            "antidependence not cut: load at {:?} vs store at {:?} on {:?}",
            p.load, p.store, p.loc
        ));
    }
    if let Some((pos, r)) = crate::regions::find_war_violation(func, analysis) {
        problems.push(format!("register WAR: input {r} redefined at {pos:?}"));
    }
    // Single-entry: every non-entry member's intra-region predecessors must
    // be in the same region, and the entry must be the unique cut. A
    // predecessor that can never execute enters nothing.
    let cfg = Cfg::new(func);
    for region in analysis.regions() {
        let members: BTreeSet<Pos> = region.members.iter().copied().collect();
        for &(b, i) in &region.members {
            if (b, i) == region.entry {
                continue;
            }
            if i > 0 {
                if !members.contains(&(b, i - 1)) {
                    problems.push(format!(
                        "region {:?}: member ({b:?},{i}) has non-member intra-block predecessor",
                        region.id
                    ));
                }
            } else {
                for &p in cfg.preds(b).iter().filter(|p| cfg.reachable()[p.0 as usize]) {
                    let last = func.block(p).insts.len() - 1;
                    if analysis.region_at((p, last)) != Some(region.id) {
                        problems.push(format!(
                            "region {:?}: block {b:?} entered from foreign region without cut",
                            region.id
                        ));
                    }
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::{analyze, partition};
    use ido_ir::{Operand, ProgramBuilder};

    #[test]
    fn partition_cuts_all_pairs() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("t", 2);
        let p = f.param(0);
        let q = f.param(1);
        let a = f.new_reg();
        let b = f.new_reg();
        f.load(a, p, 0);
        f.load(b, q, 0);
        f.store(p, 0, Operand::Reg(b)); // antidep with first load
        f.store(q, 0, Operand::Reg(a)); // antidep with second load
        f.ret(None);
        let id = f.finish().unwrap();
        let mut prog = pb.finish();
        let func = prog.function_mut(id);
        assert!(!all_intra_block_pairs(func).is_empty());
        let an = partition(func);
        assert!(uncut_pairs(func, &an).is_empty());
        assert!(check_partition(func, &an).is_empty());
    }

    #[test]
    fn unpartitioned_function_reports_pairs() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("t", 1);
        let p = f.param(0);
        let a = f.new_reg();
        f.load(a, p, 0);
        f.store(p, 0, 1i64);
        f.ret(None);
        let id = f.finish().unwrap();
        let prog = pb.finish();
        let pairs = all_intra_block_pairs(prog.function(id));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].load, (ido_ir::BlockId(0), 0));
        assert_eq!(pairs[0].store, (ido_ir::BlockId(0), 1));
    }

    #[test]
    fn check_partition_accepts_clean_analyze() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("clean", 1);
        let p = f.param(0);
        let a = f.new_reg();
        f.load(a, p, 0);
        f.ret(Some(Operand::Reg(a)));
        let id = f.finish().unwrap();
        let prog = pb.finish();
        let an = analyze(prog.function(id));
        assert!(check_partition(prog.function(id), &an).is_empty());
    }
}
