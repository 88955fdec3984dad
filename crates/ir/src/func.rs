//! Functions, basic blocks, and programs.

use std::sync::{Arc, OnceLock};

use crate::decoded::DecodedProgram;
use crate::inst::Inst;
use crate::reg::{Reg, RegClass};

/// Identifier of a basic block within its function. Block 0 is the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of a function within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A program counter: a precise dynamic position in the code. Instrumented
/// runtimes persist these (e.g. iDO's `recovery_pc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pc {
    /// Function.
    pub func: FuncId,
    /// Block within the function.
    pub block: BlockId,
    /// Instruction index within the block.
    pub index: u32,
}

impl Pc {
    /// Widest representable function id in an encoded PC word (24 bits;
    /// the packing is `func << 40 | block << 20 | index`).
    pub const MAX_FUNC: u32 = (1 << 24) - 1;
    /// Widest representable block id in an encoded PC word (20 bits).
    pub const MAX_BLOCK: u32 = (1 << 20) - 1;
    /// Widest representable instruction index in an encoded PC word
    /// (20 bits).
    pub const MAX_INDEX: u32 = (1 << 20) - 1;

    /// Packs the PC into a single word for persistent logging.
    ///
    /// # Panics
    /// Panics if a field exceeds its bit width ([`Pc::MAX_FUNC`],
    /// [`Pc::MAX_BLOCK`], [`Pc::MAX_INDEX`]). `decode` masks each field, so
    /// an unchecked overflow here would not round-trip — it would silently
    /// corrupt the *adjacent* field and recovery would resume at a wrong
    /// (but plausible-looking) program point.
    pub fn encode(self) -> u64 {
        assert!(self.func.0 <= Self::MAX_FUNC, "function id {} exceeds encodable range", self.func.0);
        assert!(self.block.0 <= Self::MAX_BLOCK, "block id {} exceeds encodable range", self.block.0);
        assert!(self.index <= Self::MAX_INDEX, "inst index {} exceeds encodable range", self.index);
        ((self.func.0 as u64) << 40) | ((self.block.0 as u64) << 20) | self.index as u64
    }

    /// Unpacks a PC previously packed with [`Pc::encode`].
    pub fn decode(word: u64) -> Pc {
        Pc {
            func: FuncId((word >> 40) as u32),
            block: BlockId(((word >> 20) & 0xF_FFFF) as u32),
            index: (word & 0xF_FFFF) as u32,
        }
    }
}

/// A basic block: a straight-line instruction sequence ending in a
/// terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// The instructions; the last one is the terminator.
    pub insts: Vec<Inst>,
}

impl BasicBlock {
    /// The block's terminator.
    ///
    /// # Panics
    /// Panics if the block is empty (only possible mid-construction).
    pub fn terminator(&self) -> &Inst {
        self.insts.last().expect("empty basic block")
    }

    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator().targets()
    }
}

/// A function: parameters, blocks, registers, and stack frame shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    params: Vec<Reg>,
    blocks: Vec<BasicBlock>,
    next_reg: u32,
    n_stack_slots: u32,
}

impl Function {
    pub(crate) fn new(name: String, params: Vec<Reg>, next_reg: u32) -> Self {
        Function { name, params, blocks: Vec::new(), next_reg, n_stack_slots: 0 }
    }

    /// Assembles a function from explicit parts, bypassing the builder.
    /// This is the constructor the textual frontend uses: a parsed
    /// function carries explicit register/slot counts (`regs=`/`slots=`
    /// in the `fn` header) that need not be inferable from the body.
    /// Callers should run [`crate::verify_function`] on the result.
    pub fn from_raw_parts(
        name: String,
        params: Vec<Reg>,
        blocks: Vec<BasicBlock>,
        num_regs: u32,
        num_stack_slots: u32,
    ) -> Function {
        Function { name, params, blocks, next_reg: num_regs, n_stack_slots: num_stack_slots }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter registers, bound by callers in order.
    pub fn params(&self) -> &[Reg] {
        &self.params
    }

    /// All basic blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// A block by id.
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access for instrumentation passes.
    pub fn block_mut(&mut self, b: BlockId) -> &mut BasicBlock {
        &mut self.blocks[b.0 as usize]
    }

    pub(crate) fn push_block(&mut self, bb: BasicBlock) -> BlockId {
        self.blocks.push(bb);
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// One-past-the-highest register id (register ids are dense).
    pub fn num_regs(&self) -> u32 {
        self.next_reg
    }

    /// Allocates a fresh integer register (used by renaming passes).
    pub fn fresh_reg(&mut self, class: RegClass) -> Reg {
        let r = Reg { id: self.next_reg, class };
        self.next_reg += 1;
        r
    }

    /// Number of stack slots in the frame.
    pub fn num_stack_slots(&self) -> u32 {
        self.n_stack_slots
    }

    pub(crate) fn set_stack_slots(&mut self, n: u32) {
        self.n_stack_slots = n;
    }

    /// Total static instruction count.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Iterates over `(Pc-like position, instruction)` pairs in block order.
    pub fn iter_insts(&self) -> impl Iterator<Item = ((BlockId, usize), &Inst)> {
        self.blocks.iter().enumerate().flat_map(|(b, bb)| {
            bb.insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| ((BlockId(b as u32), i), inst))
        })
    }
}

/// A whole program: a set of functions sharing a call graph.
///
/// A `Program` is a copy-on-write shared value. `clone()` bumps a reference
/// count; the two mutators ([`Program::add_function`],
/// [`Program::function_mut`]) un-share first (`Arc::make_mut`, a deep copy
/// only when another clone is alive) and drop the cached decoded form, so a
/// clone never observes a mutation of another and [`Program::decoded`] never
/// returns a stale stream. Compilation passes mutate a program they own;
/// everything downstream of `instrument_program` — every VM, recovery and
/// crash state of a run — only reads it and shares one allocation.
#[derive(Clone, Default)]
pub struct Program {
    inner: Arc<ProgramInner>,
}

#[derive(Default)]
struct ProgramInner {
    funcs: Vec<Function>,
    /// [`Program::decoded`]'s result, valid for `funcs` as they are: the
    /// mutators take it, and a copy made by `Arc::make_mut` starts without.
    decoded: OnceLock<Arc<DecodedProgram>>,
}

impl Clone for ProgramInner {
    fn clone(&self) -> Self {
        ProgramInner { funcs: self.funcs.clone(), decoded: OnceLock::new() }
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.funcs == other.inner.funcs
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program").field("funcs", &self.inner.funcs).finish()
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// The functions, for mutation: un-shared from every other clone, and
    /// with no decoded form until the next [`Program::decoded`].
    fn funcs_mut(&mut self) -> &mut Vec<Function> {
        let inner = Arc::make_mut(&mut self.inner);
        inner.decoded.take();
        &mut inner.funcs
    }

    pub(crate) fn push_function(&mut self, f: Function) -> FuncId {
        let funcs = self.funcs_mut();
        funcs.push(f);
        FuncId(funcs.len() as u32 - 1)
    }

    /// Appends a fully built function, returning its id. Ids are dense
    /// and assigned in insertion order — the textual frontend relies on
    /// this to resolve `fnN` call references positionally.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.push_function(f)
    }

    /// All functions, indexed by [`FuncId`].
    pub fn functions(&self) -> &[Function] {
        &self.inner.funcs
    }

    /// A function by id.
    pub fn function(&self, f: FuncId) -> &Function {
        &self.inner.funcs[f.0 as usize]
    }

    /// Mutable access for instrumentation passes.
    pub fn function_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs_mut()[f.0 as usize]
    }

    /// Looks a function up by name.
    pub fn find(&self, name: &str) -> Option<FuncId> {
        self.inner.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// The program's decoded form ([`DecodedProgram::decode`]), built on the
    /// first call and shared by every clone of this program value until one
    /// of them is mutated.
    pub fn decoded(&self) -> Arc<DecodedProgram> {
        Arc::clone(self.inner.decoded.get_or_init(|| Arc::new(DecodedProgram::decode(self))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Operand;

    /// `name(p) = p`, one block.
    fn identity(name: &str) -> Function {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function(name, 1);
        let p = f.param(0);
        f.ret(Some(Operand::Reg(p)));
        f.finish().unwrap();
        pb.finish().function(FuncId(0)).clone()
    }

    fn one_function() -> Program {
        let mut p = Program::new();
        p.add_function(identity("main"));
        p
    }

    const _: fn() = || {
        fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<Program>();
    };

    #[test]
    fn clones_share_one_decoded_form() {
        let p = one_function();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.decoded(), &q.decoded()));
        assert!(Arc::ptr_eq(&p.decoded(), &p.clone().decoded()));
        // The cache holds one reference; every `decoded()` hands out another.
        let held = p.decoded();
        assert_eq!(Arc::strong_count(&held), 2);
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_and_its_decoded_form_untouched() {
        let p = one_function();
        let before = p.decoded();
        let mut q = p.clone();
        q.function_mut(FuncId(0)).fresh_reg(RegClass::Int);
        q.add_function(identity("helper"));
        assert_eq!(p.functions().len(), 1);
        assert_eq!(p.function(FuncId(0)).num_regs(), 1);
        assert_eq!(p, one_function());
        assert!(Arc::ptr_eq(&p.decoded(), &before), "the original keeps its cache");
        assert_eq!(q.functions().len(), 2);
        assert_eq!(*q.decoded(), DecodedProgram::decode(&q));
        assert_ne!(*q.decoded(), *before);
    }

    #[test]
    fn decoded_after_a_mutation_reflects_it() {
        // Stale-cache guard, on an unshared program (no copy is made, so
        // only the mutators' `take` stands between it and a stale stream).
        let mut p = one_function();
        let stale = p.decoded();
        p.function_mut(FuncId(0)).fresh_reg(RegClass::Int);
        assert_eq!(*p.decoded(), DecodedProgram::decode(&p));
        assert_eq!(p.decoded().max_regs(), 2);
        assert_eq!(stale.max_regs(), 1, "a handed-out decoded form is immutable");

        let stale = p.decoded();
        p.add_function(identity("helper"));
        assert_eq!(*p.decoded(), DecodedProgram::decode(&p));
        assert_eq!(p.decoded().num_functions(), 2);
        assert_eq!(stale.num_functions(), 1);
    }

    #[test]
    fn equality_and_debug_see_the_functions_only() {
        let (p, q) = (one_function(), one_function());
        let undecoded = format!("{p:?}");
        p.decoded();
        assert_eq!(p, q, "one side decoded");
        assert_eq!(q, p);
        q.decoded();
        assert_eq!(p, q, "both sides decoded");
        assert_eq!(format!("{p:?}"), undecoded);
        assert!(undecoded.starts_with("Program { funcs: [Function {"), "{undecoded}");
        let mut r = p.clone();
        r.add_function(identity("helper"));
        assert_ne!(p, r);
    }

    #[test]
    fn pc_encode_roundtrip() {
        let pc = Pc { func: FuncId(7), block: BlockId(513), index: 1029 };
        assert_eq!(Pc::decode(pc.encode()), pc);
    }

    #[test]
    fn pc_encode_roundtrip_at_field_limits() {
        // Block ids far beyond u16 (a 70k-block program is legal) must
        // round-trip; the field limits themselves must too.
        for pc in [
            Pc { func: FuncId(0), block: BlockId(70_000), index: 3 },
            Pc { func: FuncId(Pc::MAX_FUNC), block: BlockId(Pc::MAX_BLOCK), index: Pc::MAX_INDEX },
        ] {
            assert_eq!(Pc::decode(pc.encode()), pc);
        }
    }

    #[test]
    #[should_panic(expected = "block id")]
    fn pc_encode_rejects_oversized_block() {
        // Regression: encode used to pack unchecked while decode masked, so
        // block 2^20 silently decoded as (func+1, block 0).
        let _ = Pc { func: FuncId(0), block: BlockId(1 << 20), index: 0 }.encode();
    }

    #[test]
    #[should_panic(expected = "inst index")]
    fn pc_encode_rejects_oversized_index() {
        let _ = Pc { func: FuncId(0), block: BlockId(0), index: 1 << 20 }.encode();
    }

    #[test]
    fn pc_encode_zero() {
        let pc = Pc { func: FuncId(0), block: BlockId(0), index: 0 };
        assert_eq!(pc.encode(), 0);
        assert_eq!(Pc::decode(0), pc);
    }
}
