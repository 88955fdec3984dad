//! Read-only decoded form of a [`Program`] for fast interpretation.
//!
//! The interpreter's hot loop fetches one instruction per dynamic step. On
//! the builder-produced [`Program`] that fetch walks
//! `function(f).block(b).insts[i]` — three indexed lookups through separate
//! allocations — and, worse, forces the caller to *clone* the `Inst` if it
//! needs to keep `&mut` access to the VM while executing it (`Inst::Call`
//! carries a `Vec<Operand>`, the durable markers carry `Vec<Reg>` /
//! `Vec<StackSlot>`, so that clone heap-allocates on every step).
//!
//! [`DecodedProgram`] fixes the layout once per program value
//! ([`Program::decoded`], shared by every VM built from a clone of it): each
//! function's instructions are flattened block-major into one contiguous
//! `Vec<DecodedInst>` with a precomputed block-start offset table, and the
//! per-function metadata the interpreter needs on calls/returns (register
//! count, frame bytes) is captured alongside. [`DecodedFunction::inst_at`]
//! is then two array index operations on cache-resident memory and returns
//! a **reference** — the executor borrows the instruction for the duration
//! of the step and never clones it.
//!
//! The decoded form is immutable by construction (no `&mut` accessors), so
//! the VM can hold it behind an `Arc` and hand `&DecodedProgram` into the
//! step function while retaining `&mut self` for the mutable machine state.

use crate::func::{Pc, Program};
use crate::inst::Inst;
use crate::func::FuncId;

/// A decoded instruction. The decoded stream reuses the [`Inst`]
/// representation (its heap-bearing variants are cold: calls and durable
/// markers), but flattened into one contiguous, block-major array per
/// function so the interpreter dispatches by reference with zero per-step
/// allocation. The alias names the role, not a new layout.
pub type DecodedInst = Inst;

/// One function, decoded: flat instruction stream + block offsets + the
/// per-call metadata the interpreter needs without touching the original
/// [`crate::Function`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// All instructions, block-major: block 0's instructions, then block
    /// 1's, ... Indexed via [`Self::inst_at`].
    insts: Vec<DecodedInst>,
    /// `block_start[b]` is the offset of block `b`'s first instruction in
    /// `insts`; a final sentinel entry holds `insts.len()` so block sizes
    /// are `block_start[b + 1] - block_start[b]`.
    block_start: Vec<u32>,
    /// The function's register file size (`next_reg`).
    num_regs: u32,
    /// Persistent stack frame size in bytes (8 bytes per stack slot).
    frame_bytes: usize,
    /// Number of declared parameters.
    num_params: u32,
}

impl DecodedFunction {
    /// The instruction at `pc` (which must address this function).
    ///
    /// Two array indexes; no bounds re-derivation, no clone. Out-of-range
    /// `pc`s panic just like the builder-form lookup would.
    #[inline(always)]
    pub fn inst_at(&self, pc: Pc) -> &DecodedInst {
        let base = self.block_start[pc.block.0 as usize] as usize;
        &self.insts[base + pc.index as usize]
    }

    /// The function's register file size (`next_reg`).
    #[inline(always)]
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// Persistent stack frame size in bytes (8 bytes per slot).
    #[inline(always)]
    pub fn frame_bytes(&self) -> usize {
        self.frame_bytes
    }

    /// Number of declared parameters.
    #[inline(always)]
    pub fn num_params(&self) -> u32 {
        self.num_params
    }

    /// Number of (static) instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }
}

/// A whole program, decoded once for interpretation. [`Program::decoded`]
/// is the cached, shared way to one; [`DecodedProgram::decode`] builds a
/// fresh one. The structure is immutable afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    funcs: Vec<DecodedFunction>,
    /// Max `num_regs` over all functions (sizes shared per-thread logs and
    /// bitsets).
    max_regs: u32,
}

/// Checked conversion for `block_start` offsets. The table stores `u32`
/// to stay cache-dense; a function with more than `u32::MAX` instructions
/// must be rejected loudly rather than silently wrapping the offsets of
/// every later block.
fn flat_offset(len: usize) -> u32 {
    u32::try_from(len).expect("function exceeds u32 instruction addressing")
}

impl DecodedProgram {
    /// Flattens every function of `program` into its decoded form.
    pub fn decode(program: &Program) -> DecodedProgram {
        let funcs: Vec<DecodedFunction> = program
            .functions()
            .iter()
            .map(|f| {
                let total: usize = f.blocks().iter().map(|b| b.insts.len()).sum();
                let mut insts = Vec::with_capacity(total);
                let mut block_start = Vec::with_capacity(f.blocks().len() + 1);
                for b in f.blocks() {
                    block_start.push(flat_offset(insts.len()));
                    insts.extend(b.insts.iter().cloned());
                }
                block_start.push(flat_offset(insts.len()));
                DecodedFunction {
                    insts,
                    block_start,
                    num_regs: f.num_regs(),
                    frame_bytes: f.num_stack_slots() as usize * 8,
                    num_params: f.params().len() as u32,
                }
            })
            .collect();
        let max_regs = funcs.iter().map(|f| f.num_regs).max().unwrap_or(0).max(1);
        DecodedProgram { funcs, max_regs }
    }

    /// The decoded form of function `f`.
    #[inline(always)]
    pub fn function(&self, f: FuncId) -> &DecodedFunction {
        &self.funcs[f.0 as usize]
    }

    /// Max `num_regs` over all functions (1 if the program is empty).
    #[inline(always)]
    pub fn max_regs(&self) -> u32 {
        self.max_regs
    }

    /// Number of decoded functions.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::func::BlockId;
    use crate::reg::Operand;
    use crate::BinOp;

    fn two_block_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("main", 1);
        let p = f.param(0);
        let r = f.new_reg();
        let exit = f.new_block();
        f.bin(BinOp::Add, r, p, 1i64);
        f.jump(exit);
        f.switch_to(exit);
        f.ret(Some(Operand::Reg(r)));
        f.finish().unwrap();
        pb.finish()
    }

    #[test]
    fn decode_matches_builder_lookup_at_every_pc() {
        let prog = two_block_program();
        let dec = DecodedProgram::decode(&prog);
        for (fi, f) in prog.functions().iter().enumerate() {
            let df = dec.function(FuncId(fi as u32));
            assert_eq!(df.num_regs(), f.num_regs());
            assert_eq!(df.frame_bytes(), f.num_stack_slots() as usize * 8);
            assert_eq!(df.num_params(), f.params().len() as u32);
            let mut total = 0;
            for (bi, b) in f.blocks().iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    let pc = Pc {
                        func: FuncId(fi as u32),
                        block: BlockId(bi as u32),
                        index: ii as u32,
                    };
                    assert_eq!(df.inst_at(pc), inst, "{pc:?}");
                    total += 1;
                }
            }
            assert_eq!(df.num_insts(), total);
        }
    }

    #[test]
    fn inst_at_returns_a_reference_not_a_clone() {
        // Compile-time property made explicit: the decoded lookup borrows.
        let prog = two_block_program();
        let dec = DecodedProgram::decode(&prog);
        let pc = Pc { func: FuncId(0), block: BlockId(0), index: 0 };
        let a: &DecodedInst = dec.function(FuncId(0)).inst_at(pc);
        let b: &DecodedInst = dec.function(FuncId(0)).inst_at(pc);
        assert!(std::ptr::eq(a, b), "same pc must yield the same referent");
    }

    #[test]
    fn empty_program_has_max_regs_one() {
        let dec = DecodedProgram::decode(&Program::new());
        assert_eq!(dec.max_regs(), 1);
        assert_eq!(dec.num_functions(), 0);
    }
}
