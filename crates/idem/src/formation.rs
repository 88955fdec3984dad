//! The cut state behind [`crate::regions`]: which positions start a region,
//! derived for a whole function or re-derived for the *zone* a register-WAR
//! fixup touched.
//!
//! A region is never stored: it is the flood fill from its entry cut over
//! positions that are not cuts, so the state is the per-block list of cuts
//! plus what has to cross a block edge — the outstanding loads at each
//! block's exit and the region each block starts and ends in. Three facts
//! about a fixup (rename the def to a fresh `r'`, insert `RegionMarker`,
//! insert `mov r, r'`) keep everything else valid while
//! [`crate::regions::partition`] repairs one violation after another; each
//! is pinned by a test in `tests/partition_equivalence.rs`:
//!
//! 1. **The CFG is fixed.** A fixup adds no block and changes no
//!    terminator, so [`Cfg`], its reverse postorder (which is the order of
//!    [`crate::RegionId`]s) and reachability are computed once.
//! 2. **Block-level liveness is fixed.** The fixup leaves every block's
//!    upward-exposed uses and kills unchanged for every variable that
//!    existed before it, and `r'` is defined and last used inside one
//!    block, so live-in/live-out are computed once and the fresh register
//!    is live at no block edge.
//! 3. **A structural cut is a firewall.** Function entry, lock/unlock,
//!    durable markers, call/alloc/free and `RegionMarker` reset the
//!    outstanding-loads state and start a region whatever precedes them.
//!    The new marker can therefore change antidependence cuts,
//!    single-entry joins and membership only in the *zone*: the positions
//!    forward-reachable from the marker without crossing a structural cut.
//!    Every region that lies outside the zone and is not the one that was
//!    split keeps its entry, members, inputs and outputs.
//!
//! What (3) does *not* give is "regions ordered before the split one stay
//! clean": a loop carries the zone back to blocks that come earlier in
//! reverse postorder, where a vanished antidependence cut can merge two
//! regions and expose a new violation (`a_zone_can_dirty_an_earlier_region`
//! in the equivalence test builds one). The scan therefore resumes at the
//! first region, in id order, that the fixup touched — not at the split
//! one.

use std::collections::BTreeSet;

use ido_ir::alias::{alias, mem_access, AccessKind, AliasResult, MemLoc};
use ido_ir::cfg::Cfg;
use ido_ir::dataflow::BitSet;
use ido_ir::liveness::{reg_var, slot_var, Liveness};
use ido_ir::{BlockId, Function, Inst, Reg, RegClass, StackSlot};

use crate::regions::{AliasMode, PartitionWork, Pos, Region, RegionAnalysis, RegionId};

/// Outstanding-loads abstract state for antidependence detection: the
/// locations loaded since the last cut, as a sorted small vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Outstanding {
    locs: Vec<MemLoc>,
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
        if let Err(at) = self.locs.binary_search(&loc) {
            self.locs.insert(at, loc);
        }
    }

    fn note_def(&mut self, r: Reg) {
        let before = self.locs.len();
        self.locs
            .retain(|l| !matches!(l, MemLoc::Heap { base, .. } if *base == r));
        if self.locs.len() != before {
            self.wildcard = true;
        }
    }

    fn store_conflicts(&self, loc: MemLoc, mode: AliasMode) -> bool {
        match mode {
            AliasMode::None => !self.locs.is_empty() || self.wildcard,
            AliasMode::Precise => self
                .locs
                .iter()
                .any(|l| matches!(alias(*l, loc, true), AliasResult::Must)),
            AliasMode::Basic => {
                if self.wildcard && matches!(loc, MemLoc::Heap { .. }) {
                    return true;
                }
                // Bases are tracked precisely (redefinitions invalidate), so
                // same-base offset reasoning is valid here.
                self.locs
                    .iter()
                    .any(|l| !matches!(alias(*l, loc, true), AliasResult::No))
            }
        }
    }

    fn merge(&mut self, other: &Outstanding) {
        for &loc in &other.locs {
            self.note_load(loc);
        }
        self.wildcard |= other.wildcard;
    }
}

/// True if a *structural* cut lies before instruction `i` of block `b`: the
/// function entry, the boundary after a lock acquire or durable-region
/// begin (the robbed-lock effect of Sec. III-B relies on no FASE instruction
/// preceding it), the boundary before a release (everything done under the
/// lock is persisted before it can be stolen), both sides of a runtime call
/// with external side effects (never re-executed), and explicit markers.
///
/// Loop back edges are deliberately *not* structural cuts: a read-only
/// traversal loop is idempotent as a whole (restarting it from the region
/// entry re-traverses from scratch), which is exactly why the paper's Redis
/// read paths are nearly free under iDO. Loop-carried memory
/// antidependences are found by the cross-block fixpoint (which propagates
/// around back edges), and loop-carried register WARs are repaired by the
/// fixup, which inserts its own boundary.
///
/// A pure function of the instruction and its predecessor, so it needs no
/// table and survives the index shift of a fixup.
fn is_structural(func: &Function, b: BlockId, i: usize) -> bool {
    let insts = &func.block(b).insts;
    if i == 0 && b == BlockId(0) {
        return true;
    }
    let before = matches!(
        insts[i],
        Inst::Unlock { .. }
            | Inst::DurableEnd
            | Inst::Call { .. }
            | Inst::Alloc { .. }
            | Inst::Free { .. }
            | Inst::RegionMarker
    );
    before
        || i > 0
            && matches!(
                insts[i - 1],
                Inst::Lock { .. }
                    | Inst::DurableBegin
                    | Inst::Call { .. }
                    | Inst::Alloc { .. }
                    | Inst::Free { .. }
            )
}

/// One region entry: a boundary immediately before instruction `idx`.
#[derive(Debug, Clone)]
struct Cut {
    idx: usize,
    /// Stable identity of the region this cut starts (positions shift when
    /// a fixup inserts into the block; ids do not).
    id: u32,
    /// Scanned since it was last (re-)derived and found free of violations.
    clean: bool,
}

#[derive(Debug, Clone, Default)]
struct BlockCuts {
    /// Every cut of the block — structural, antidependence, single-entry
    /// join, unreachable head — by ascending index.
    cuts: Vec<Cut>,
    /// Outstanding loads at the block's exit, structural cuts only.
    out: Outstanding,
    /// Id of the region the block's first / last instruction belongs to.
    head_region: u32,
    end_region: u32,
}

/// A run of positions `lo..hi` of one block to (re-)derive. `lo` is 0 or a
/// structural cut; `hi` is a structural cut or the block's length.
#[derive(Debug, Clone, Copy)]
struct Seg {
    block: BlockId,
    lo: usize,
    hi: usize,
    /// `hi` is the block's length: the segment decides what leaves the block.
    to_end: bool,
}

const NO_REGION: u32 = u32::MAX;

/// A scratch table over a dense key space that is emptied in O(1): an entry
/// counts only if it was written in the current round. Lets every flood
/// fill and region scan start clean without paying for the table's size.
#[derive(Debug, Clone, Default)]
struct Stamped<T> {
    round: u32,
    slots: Vec<(u32, T)>,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts a new round over keys `0..n`.
    fn begin(&mut self, n: usize) {
        self.round += 1;
        if self.slots.len() < n {
            self.slots.resize(n, (0, T::default()));
        }
    }

    fn get(&self, key: usize) -> Option<T> {
        let (round, value) = self.slots[key];
        (round == self.round).then_some(value)
    }

    /// Writes `key`, returning what this round had there.
    fn set(&mut self, key: usize, value: T) -> Option<T> {
        let old = self.get(key);
        self.slots[key] = (self.round, value);
        old
    }
}

/// The cut state of one function. See the module docs.
pub(crate) struct Formation {
    mode: AliasMode,
    cfg: Cfg,
    /// Position of each block in `cfg.rpo()`.
    rpo_index: Vec<u32>,
    liveness: Liveness,
    blocks: Vec<BlockCuts>,
    next_id: u32,
    /// Reverse-postorder indices of blocks holding a cut that is not clean.
    dirty: BTreeSet<u32>,
    pub(crate) work: PartitionWork,
    /// Scratch: block heads a flood fill has visited; blocks whose exit a
    /// single-entry pass has not reached yet; per register, the classes a
    /// region uses it in and whether it is live at the region's entry.
    visited: Stamped<()>,
    pending: Vec<bool>,
    used: Stamped<u8>,
    live: Stamped<bool>,
}

impl Formation {
    /// Derives the cuts of the whole function.
    pub(crate) fn new(func: &Function, mode: AliasMode) -> Formation {
        let cfg = Cfg::new(func);
        let liveness = Liveness::new(func, &cfg);
        let n = func.num_blocks();
        let mut rpo_index = vec![0; n];
        for (i, b) in cfg.rpo().iter().enumerate() {
            rpo_index[b.0 as usize] = i as u32;
        }
        let segs: Vec<Seg> = cfg
            .rpo()
            .iter()
            .map(|&b| Seg {
                block: b,
                lo: 0,
                hi: func.block(b).insts.len(),
                to_end: true,
            })
            .collect();
        let mut f = Formation {
            mode,
            cfg,
            rpo_index,
            liveness,
            blocks: vec![BlockCuts::default(); n],
            next_id: 0,
            dirty: BTreeSet::new(),
            work: PartitionWork::default(),
            visited: Stamped::default(),
            pending: vec![false; n],
            used: Stamped::default(),
            live: Stamped::default(),
        };
        f.derive(func, &segs);
        f
    }

    /// (Re-)derives every cut inside `segs` (ordered by reverse postorder,
    /// then index) from the instructions and from what the blocks outside
    /// them hand over: antidependence cuts from the outstanding-loads
    /// fixpoint, then single-entry joins.
    fn derive(&mut self, func: &Function, segs: &[Seg]) {
        // Outstanding loads at block exits: least fixpoint over the
        // segments, structural cuts only, everything outside them fixed.
        for s in segs.iter().filter(|s| s.to_end) {
            self.blocks[s.block.0 as usize].out.clear();
        }
        let mut state = Outstanding::default();
        loop {
            let mut changed = false;
            for s in segs.iter().filter(|s| s.to_end) {
                self.flow(func, s, &mut state, None);
                let out = &mut self.blocks[s.block.0 as usize].out;
                if *out != state {
                    out.clone_from(&state);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // One scan places the cuts: immediately before each store that
        // conflicts with the loads outstanding since the last cut — the
        // right-endpoint greedy rule, optimal for interval stabbing. A
        // second round with these cuts fed back into the fixpoint could
        // only shrink every state, so it would find nothing new.
        let mut found = Vec::new();
        for s in segs {
            found.clear();
            self.flow(func, s, &mut state, Some(&mut found));
            let bi = s.block.0 as usize;
            // Unreachable code gets its own region; it never executes.
            if s.lo == 0 && !self.cfg.reachable()[bi] && found.first() != Some(&0) {
                found.insert(0, 0);
            }
            let cuts = &mut self.blocks[bi].cuts;
            let from = cuts.partition_point(|c| c.idx < s.lo);
            let to = cuts.partition_point(|c| c.idx < s.hi);
            let first_id = self.next_id;
            self.next_id += found.len() as u32;
            cuts.splice(
                from..to,
                found.iter().zip(first_id..).map(|(&idx, id)| Cut {
                    idx,
                    id,
                    clean: false,
                }),
            );
            if !found.is_empty() {
                self.dirty.insert(self.rpo_index[bi]);
            }
        }

        // Single entry: a block head that is not a cut inherits its
        // predecessors' region; a head whose reachable predecessors end in
        // different regions becomes an implicit cut and the pass restarts.
        // Predecessors the pass has not reached (back edges) are treated
        // optimistically. Cuts only grow, a disagreement found under fewer
        // cuts is still one under more, and so the result does not depend
        // on how the passes are batched — which is what lets a zone be
        // re-derived on its own.
        loop {
            for s in segs.iter().filter(|s| s.to_end) {
                self.pending[s.block.0 as usize] = true;
            }
            for s in segs {
                let bi = s.block.0 as usize;
                if s.lo == 0 {
                    self.blocks[bi].head_region = match self.blocks[bi].cuts.first() {
                        Some(c) if c.idx == 0 => c.id,
                        _ => self
                            .reachable_preds(s.block)
                            .find(|p| !self.pending[p.0 as usize])
                            .map_or(NO_REGION, |p| self.blocks[p.0 as usize].end_region),
                    };
                }
                if s.to_end {
                    let blk = &mut self.blocks[bi];
                    blk.end_region = blk.cuts.last().map_or(blk.head_region, |c| c.id);
                    self.pending[bi] = false;
                }
            }
            let mut grew = false;
            for s in segs.iter().filter(|s| s.lo == 0) {
                let bi = s.block.0 as usize;
                let head = self.blocks[bi].head_region;
                let has_cut = self.blocks[bi].cuts.first().is_some_and(|c| c.idx == 0);
                if !has_cut
                    && self
                        .reachable_preds(s.block)
                        .any(|p| self.blocks[p.0 as usize].end_region != head)
                {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.blocks[bi].cuts.insert(
                        0,
                        Cut {
                            idx: 0,
                            id,
                            clean: false,
                        },
                    );
                    self.dirty.insert(self.rpo_index[bi]);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }

    fn reachable_preds(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        let reachable = self.cfg.reachable();
        self.cfg
            .preds(b)
            .iter()
            .copied()
            .filter(move |p| reachable[p.0 as usize])
    }

    /// Runs the outstanding-loads transfer over one segment, starting from
    /// what flows into it: the merge of the predecessors' exits at a block
    /// head, nothing after a structural cut. With `cuts`, also records the
    /// structural cuts passed and the stores that conflict (and starts
    /// afresh after each, as the cut placed there will).
    fn flow(
        &self,
        func: &Function,
        s: &Seg,
        state: &mut Outstanding,
        mut cuts: Option<&mut Vec<usize>>,
    ) {
        state.clear();
        if s.lo == 0 {
            for &p in self.cfg.preds(s.block) {
                state.merge(&self.blocks[p.0 as usize].out);
            }
        }
        let insts = &func.block(s.block).insts;
        for (i, inst) in insts.iter().enumerate().take(s.hi).skip(s.lo) {
            if is_structural(func, s.block, i) {
                state.clear();
                if let Some(cuts) = cuts.as_deref_mut() {
                    cuts.push(i);
                }
            }
            match mem_access(inst) {
                Some((loc, AccessKind::Load)) => state.note_load(loc),
                Some((loc, AccessKind::Store)) => {
                    if let Some(cuts) = cuts.as_deref_mut() {
                        if state.store_conflicts(loc, self.mode) {
                            cuts.push(i);
                            state.clear();
                        }
                    }
                }
                None => {}
            }
            if let Some(d) = inst.def_reg() {
                state.note_def(d);
            }
        }
    }

    /// The zone of a marker at `(b, start)`: the positions forward-reachable
    /// from it without crossing another structural cut, as segments in
    /// reverse-postorder, then index, order.
    fn zone(&mut self, func: &Function, b: BlockId, start: usize) -> Vec<Seg> {
        let run = |block: BlockId, lo: usize| {
            let len = func.block(block).insts.len();
            let hi = (lo + 1..len)
                .find(|&i| is_structural(func, block, i))
                .unwrap_or(len);
            Seg {
                block,
                lo,
                hi,
                to_end: hi == len,
            }
        };
        self.visited.begin(func.num_blocks());
        let mut segs = vec![run(b, start)];
        let mut work: Vec<BlockId> = Vec::new();
        if segs[0].to_end {
            work.extend(self.cfg.succs(b));
        }
        while let Some(s) = work.pop() {
            if self.visited.set(s.0 as usize, ()).is_some() || is_structural(func, s, 0) {
                continue;
            }
            let seg = run(s, 0);
            if seg.to_end {
                work.extend(self.cfg.succs(s));
            }
            segs.push(seg);
        }
        segs.sort_by_key(|s| (self.rpo_index[s.block.0 as usize], s.lo));
        segs
    }

    /// The next register-WAR violation in the order a from-scratch analysis
    /// would meet it: the lowest-numbered region that redefines one of its
    /// input registers, and in it the first such definition by position.
    /// Regions are numbered by entry in reverse postorder, then index; the
    /// ones already scanned clean and untouched since are skipped.
    pub(crate) fn next_violation(&mut self, func: &Function) -> Option<(Pos, Reg)> {
        while let Some(&first) = self.dirty.first() {
            let b = self.cfg.rpo()[first as usize];
            let bi = b.0 as usize;
            let Some(k) = self.blocks[bi].cuts.iter().position(|c| !c.clean) else {
                self.dirty.remove(&first);
                continue;
            };
            let found = self.scan_region(func, b, k);
            if found.is_some() {
                return found;
            }
            self.blocks[bi].cuts[k].clean = true;
        }
        None
    }

    /// Looks for a definition of an input register among the members of the
    /// region starting at cut `k` of block `b`.
    fn scan_region(&mut self, func: &Function, b: BlockId, k: usize) -> Option<(Pos, Reg)> {
        // Members: flood fill from the entry over non-cut positions. A
        // reachable block's head that is not a cut is in the region of all
        // its reachable predecessors; an unreachable block hands nothing on.
        let n_regs = func.num_regs() as usize;
        self.visited.begin(func.num_blocks());
        self.used.begin(n_regs);
        let class_bit = |r: Reg| 1u8 << (r.class == RegClass::Float) as u8;
        let mut defs: Vec<(Pos, Reg)> = Vec::new();
        let entry = self.blocks[b.0 as usize].cuts[k].idx;
        let mut work = vec![(b, entry)];
        while let Some((blk, lo)) = work.pop() {
            let cuts = &self.blocks[blk.0 as usize].cuts;
            let insts = &func.block(blk).insts;
            let hi = cuts
                .iter()
                .map(|c| c.idx)
                .find(|&idx| idx > lo)
                .unwrap_or(insts.len());
            for (i, inst) in insts.iter().enumerate().take(hi).skip(lo) {
                for u in inst.uses() {
                    let classes = self.used.get(u.id as usize).unwrap_or(0);
                    self.used.set(u.id as usize, classes | class_bit(u));
                }
                if let Some(d) = inst.def_reg() {
                    defs.push(((blk, i), d));
                }
            }
            self.work.positions_scanned += hi - lo;
            if hi == insts.len() && self.cfg.reachable()[blk.0 as usize] {
                for &s in self.cfg.succs(blk) {
                    let si = s.0 as usize;
                    let head_cut = self.blocks[si].cuts.first().is_some_and(|c| c.idx == 0);
                    if !head_cut && self.visited.set(si, ()).is_none() {
                        work.push((s, 0));
                    }
                }
            }
        }
        defs.retain(|(_, d)| self.used.get(d.id as usize).unwrap_or(0) & class_bit(*d) != 0);
        if defs.is_empty() {
            return None;
        }
        // Inputs are the used registers live at the entry: walk the entry's
        // block backward; what the walk does not touch is as live as it is
        // at the block's exit. Registers younger than the liveness analysis
        // are fixup temporaries, live at no block edge.
        self.live.begin(n_regs);
        for inst in func.block(b).insts[entry..].iter().rev() {
            if let Some(d) = inst.def_reg() {
                self.live.set(d.id as usize, false);
            }
            for u in inst.uses() {
                self.live.set(u.id as usize, true);
            }
        }
        let live_out = self.liveness.live_out_set(b);
        let known = self.liveness.num_regs();
        let live = |r: Reg| {
            let at_exit = r.id < known && live_out.contains(r.id as usize);
            self.live.get(r.id as usize).unwrap_or(at_exit)
        };
        defs.into_iter()
            .filter(|(_, d)| live(*d))
            .min_by_key(|(pos, _)| *pos)
    }

    /// Accounts for the fixup just applied at `(b, i)` — the renamed def at
    /// `i`, a marker at `i + 1`, a `mov` at `i + 2` — by shifting the
    /// block's later cuts and re-deriving the marker's zone.
    pub(crate) fn fixed_up(&mut self, func: &Function, (b, i): Pos) {
        for c in &mut self.blocks[b.0 as usize].cuts {
            if c.idx > i {
                c.idx += 2;
            }
        }
        let segs = self.zone(func, b, i + 1);
        self.work.fixups += 1;
        self.work.positions_reanalysed += segs.iter().map(|s| s.hi - s.lo).sum::<usize>();
        self.derive(func, &segs);
    }

    /// Builds the regions from the cuts: numbers them, assigns every
    /// instruction to one, and computes inputs, outputs and store counts.
    /// Only meaningful on a state no fixup has been applied to (its
    /// liveness does not know fixup temporaries).
    pub(crate) fn summarize(&self, func: &Function) -> RegionAnalysis {
        assert_eq!(self.work.fixups, 0, "summarize needs a from-scratch state");
        // Region ids: entries in reverse postorder, then index — with the
        // live set before each (one backward sweep per block).
        let mut rid_of = vec![NO_REGION; self.next_id as usize];
        let mut entries: Vec<Pos> = Vec::new();
        let mut entry_live: Vec<BitSet> = Vec::new();
        for &b in self.cfg.rpo() {
            let cuts = &self.blocks[b.0 as usize].cuts;
            for c in cuts {
                rid_of[c.id as usize] = entries.len() as u32;
                entries.push((b, c.idx));
            }
            let at: Vec<usize> = cuts.iter().map(|c| c.idx).collect();
            entry_live.extend(self.liveness.live_before_each(func, b, &at));
        }
        // Membership, in block order.
        let n = entries.len();
        let mut region_of: Vec<Vec<RegionId>> = Vec::with_capacity(func.num_blocks());
        let mut members: Vec<Vec<Pos>> = vec![Vec::new(); n];
        for (bi, bb) in func.blocks().iter().enumerate() {
            let blk = &self.blocks[bi];
            let mut cur = rid_of[blk.head_region as usize];
            let mut next = blk.cuts.iter().peekable();
            let mut of = Vec::with_capacity(bb.insts.len());
            for i in 0..bb.insts.len() {
                if let Some(c) = next.next_if(|c| c.idx == i) {
                    cur = rid_of[c.id as usize];
                }
                of.push(RegionId(cur));
                members[cur as usize].push((BlockId(bi as u32), i));
            }
            region_of.push(of);
        }

        let mut regions = Vec::with_capacity(n);
        let mut exit_live = BitSet::new((func.num_regs() + func.num_stack_slots()) as usize);
        for (idx, entry) in entries.iter().enumerate() {
            let id = RegionId(idx as u32);
            let mems = std::mem::take(&mut members[idx]);
            let (mut used_regs, mut def_regs): (Vec<Reg>, Vec<Reg>) = Default::default();
            let (mut used_slots, mut def_slots): (Vec<StackSlot>, Vec<StackSlot>) =
                Default::default();
            let (mut heap_stores, mut stack_stores) = (0, 0);
            // Outputs are Def ∩ LiveOut over all exits.
            exit_live.clear();
            for &(b, i) in &mems {
                let inst = &func.block(b).insts[i];
                used_regs.extend(inst.uses());
                used_slots.extend(inst.stack_uses());
                def_regs.extend(inst.def_reg());
                def_slots.extend(inst.stack_def());
                match inst {
                    Inst::Store { .. } => heap_stores += 1,
                    Inst::StoreStack { .. } => stack_stores += 1,
                    _ => {}
                }
                if inst.is_terminator() {
                    for s in inst.targets() {
                        if region_of[s.0 as usize][0] != id {
                            exit_live.union_with(self.liveness.live_in_set(s));
                        }
                    }
                } else {
                    let next = region_of[b.0 as usize][i + 1];
                    if next != id {
                        // Leaving a region mid-block lands on an entry.
                        exit_live.union_with(&entry_live[next.0 as usize]);
                    }
                }
            }
            for v in [&mut used_regs, &mut def_regs] {
                v.sort_unstable();
                v.dedup();
            }
            for v in [&mut used_slots, &mut def_slots] {
                v.sort_unstable();
                v.dedup();
            }
            // Inputs: live at entry ∩ used in region.
            let at_entry = &entry_live[idx];
            let bit = |set: &BitSet, v| set.contains(self.liveness.index(v));
            used_regs.retain(|r| bit(at_entry, reg_var(*r)));
            used_slots.retain(|s| bit(at_entry, slot_var(*s)));
            def_regs.retain(|r| bit(&exit_live, reg_var(*r)));
            def_slots.retain(|s| bit(&exit_live, slot_var(*s)));
            regions.push(Region {
                id,
                entry: *entry,
                members: mems,
                input_regs: used_regs,
                input_slots: used_slots,
                output_regs: def_regs,
                output_slots: def_slots,
                heap_stores,
                stack_stores,
            });
        }
        RegionAnalysis::from_parts(regions, region_of, entries)
    }
}
