//! Liveness analysis over registers and stack slots.
//!
//! The iDO compiler needs live-in sets to identify an idempotent region's
//! *inputs* (live-in variables used in the region) and live-out sets to
//! compute its *outputs* (`Def ∩ LiveOut`, Eq. 1 in the paper).

use crate::cfg::Cfg;
use crate::dataflow::{solve_backward_may, BitSet, GenKill};
use crate::func::{BlockId, Function};
use crate::inst::Inst;
use crate::reg::{Reg, StackSlot};

/// A liveness variable: a register or a stack slot, mapped into one dense
/// index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Var {
    /// A virtual register (identified by id; class is recoverable from the
    /// function when needed).
    Reg(u32),
    /// A stack slot.
    Slot(u32),
}

/// Result of liveness analysis for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    n_regs: u32,
    block_in: Vec<BitSet>,
    block_out: Vec<BitSet>,
}

impl Liveness {
    /// Runs the analysis on `func` using its `cfg`.
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        let n_regs = func.num_regs();
        let universe = (n_regs + func.num_stack_slots()) as usize;
        let mut transfer = Vec::with_capacity(func.num_blocks());
        for bb in func.blocks() {
            let mut gk = GenKill::new(universe);
            // Scan backward: a use before any kill in the block is upward
            // exposed (gen); a def kills.
            for inst in bb.insts.iter().rev() {
                if let Some(d) = inst.def_reg() {
                    let i = Self::index_of(n_regs, Var::Reg(d.id));
                    gk.kill.insert(i);
                    gk.gen.remove(i);
                }
                if let Some(s) = inst.stack_def() {
                    let i = Self::index_of(n_regs, Var::Slot(s.0));
                    gk.kill.insert(i);
                    gk.gen.remove(i);
                }
                for u in inst.uses() {
                    gk.gen.insert(Self::index_of(n_regs, Var::Reg(u.id)));
                }
                for s in inst.stack_uses() {
                    gk.gen.insert(Self::index_of(n_regs, Var::Slot(s.0)));
                }
            }
            transfer.push(gk);
        }
        let sol = solve_backward_may(cfg, &transfer, universe);
        Liveness { n_regs, block_in: sol.block_in, block_out: sol.block_out }
    }

    fn index_of(n_regs: u32, v: Var) -> usize {
        match v {
            Var::Reg(r) => r as usize,
            Var::Slot(s) => (n_regs + s) as usize,
        }
    }

    /// The dense bit index of `v` in the sets this analysis hands out
    /// ([`Liveness::live_in_set`], [`Liveness::live_before_each`]):
    /// registers first, by id, then stack slots.
    pub fn index(&self, v: Var) -> usize {
        Self::index_of(self.n_regs, v)
    }

    /// Number of registers the function had when it was analysed; register
    /// ids at or above it are unknown to this analysis.
    pub fn num_regs(&self) -> u32 {
        self.n_regs
    }

    fn var_of(&self, i: usize) -> Var {
        if (i as u32) < self.n_regs {
            Var::Reg(i as u32)
        } else {
            Var::Slot(i as u32 - self.n_regs)
        }
    }

    /// Variables live at entry to block `b`.
    pub fn live_in(&self, b: BlockId) -> Vec<Var> {
        self.block_in[b.0 as usize].iter().map(|i| self.var_of(i)).collect()
    }

    /// Variables live at exit from block `b`.
    pub fn live_out(&self, b: BlockId) -> Vec<Var> {
        self.block_out[b.0 as usize].iter().map(|i| self.var_of(i)).collect()
    }

    /// The live-in set of `b` as a bitset over [`Liveness::index`].
    pub fn live_in_set(&self, b: BlockId) -> &BitSet {
        &self.block_in[b.0 as usize]
    }

    /// The live-out set of `b` as a bitset over [`Liveness::index`].
    pub fn live_out_set(&self, b: BlockId) -> &BitSet {
        &self.block_out[b.0 as usize]
    }

    /// True if `v` is live at entry to `b`.
    pub fn is_live_in(&self, b: BlockId, v: Var) -> bool {
        self.block_in[b.0 as usize].contains(Self::index_of(self.n_regs, v))
    }

    /// True if `v` is live at exit from `b`.
    pub fn is_live_out(&self, b: BlockId, v: Var) -> bool {
        self.block_out[b.0 as usize].contains(Self::index_of(self.n_regs, v))
    }

    /// Variables live immediately **before** instruction `idx` of block `b`,
    /// computed by walking the block backward from its live-out set.
    pub fn live_before(&self, func: &Function, b: BlockId, idx: usize) -> Vec<Var> {
        let set = &self.live_before_each(func, b, &[idx])[0];
        set.iter().map(|i| self.var_of(i)).collect()
    }

    /// The sets live immediately before each instruction index in `at`
    /// (ascending) of block `b`, from one backward sweep of the block — the
    /// bulk form of [`Liveness::live_before`] for callers that need many
    /// positions of one block (every region entry, say).
    pub fn live_before_each(&self, func: &Function, b: BlockId, at: &[usize]) -> Vec<BitSet> {
        let insts = &func.block(b).insts;
        let mut set = self.block_out[b.0 as usize].clone();
        let mut out = Vec::with_capacity(at.len());
        let mut end = insts.len();
        for &idx in at.iter().rev() {
            for inst in insts[idx..end].iter().rev() {
                Self::step_backward(self.n_regs, &mut set, inst);
            }
            end = idx;
            out.push(set.clone());
        }
        out.reverse();
        out
    }

    fn step_backward(n_regs: u32, set: &mut BitSet, inst: &Inst) {
        if let Some(d) = inst.def_reg() {
            set.remove(Self::index_of(n_regs, Var::Reg(d.id)));
        }
        if let Some(s) = inst.stack_def() {
            set.remove(Self::index_of(n_regs, Var::Slot(s.0)));
        }
        for u in inst.uses() {
            set.insert(Self::index_of(n_regs, Var::Reg(u.id)));
        }
        for s in inst.stack_uses() {
            set.insert(Self::index_of(n_regs, Var::Slot(s.0)));
        }
    }
}

/// Convenience: the [`Var`] for a register.
pub fn reg_var(r: Reg) -> Var {
    Var::Reg(r.id)
}

/// Convenience: the [`Var`] for a stack slot.
pub fn slot_var(s: StackSlot) -> Var {
    Var::Slot(s.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::BinOp;
    use crate::reg::Operand;

    #[test]
    fn param_live_through_loop() {
        // f(n): i = 0; while (i < n) i = i + 1; return i
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("count", 1);
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
        f.ret(Some(Operand::Reg(i)));
        let id = f.finish().unwrap();
        let p = pb.finish();
        let func = p.function(id);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        // `n` is live around the whole loop; `i` is live out of the body.
        assert!(lv.is_live_in(BlockId(1), reg_var(n)));
        assert!(lv.is_live_in(BlockId(2), reg_var(n)));
        assert!(lv.is_live_out(BlockId(2), reg_var(i)));
        // `c` is dead outside the head block.
        assert!(!lv.is_live_in(BlockId(1), reg_var(c)));
        assert!(!lv.is_live_out(BlockId(2), reg_var(c)));
    }

    #[test]
    fn dead_def_not_live() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("dead", 0);
        let x = f.new_reg();
        f.mov(x, 1i64); // dead store to x
        f.ret(None);
        let id = f.finish().unwrap();
        let p = pb.finish();
        let func = p.function(id);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        assert!(!lv.is_live_in(BlockId(0), reg_var(x)));
    }

    #[test]
    fn stack_slot_liveness() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("s", 0);
        let slot = f.new_stack_slot();
        let r = f.new_reg();
        let next = f.new_block();
        f.store_stack(slot, 9i64);
        f.jump(next);
        f.switch_to(next);
        f.load_stack(r, slot);
        f.ret(Some(Operand::Reg(r)));
        let id = f.finish().unwrap();
        let p = pb.finish();
        let func = p.function(id);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        assert!(lv.is_live_out(BlockId(0), slot_var(slot)));
        assert!(lv.is_live_in(BlockId(1), slot_var(slot)));
        // before the store, the slot is dead (it is killed in block 0)
        assert!(!lv
            .live_before(func, BlockId(0), 0)
            .contains(&slot_var(slot)));
    }

    #[test]
    fn live_before_tracks_instruction_granularity() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("g", 1);
        let a = f.param(0);
        let b = f.new_reg();
        f.bin(BinOp::Add, b, a, 1i64); // idx 0: a used here
        f.bin(BinOp::Add, b, b, b); // idx 1: a now dead
        f.ret(Some(Operand::Reg(b)));
        let id = f.finish().unwrap();
        let p = pb.finish();
        let func = p.function(id);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        assert!(lv.live_before(func, BlockId(0), 0).contains(&reg_var(a)));
        assert!(!lv.live_before(func, BlockId(0), 1).contains(&reg_var(a)));
        assert!(lv.live_before(func, BlockId(0), 1).contains(&reg_var(b)));
        // The bulk sweep agrees with the one-position walk at every index.
        let each = lv.live_before_each(func, BlockId(0), &[0, 1, 2]);
        for (idx, set) in each.iter().enumerate() {
            let vars: Vec<Var> = lv.live_before(func, BlockId(0), idx);
            let bits: Vec<usize> = vars.iter().map(|v| lv.index(*v)).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), bits, "index {idx}");
        }
    }
}
