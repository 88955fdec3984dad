//! Ergonomic construction of IR programs.

use crate::func::{BasicBlock, BlockId, FuncId, Function, Program};
use crate::inst::{BinOp, Inst};
use crate::reg::{Operand, Reg, RegClass, StackSlot};
use crate::verify::{verify_function, VerifyError};

/// Builds a [`Program`] one function at a time.
///
/// Functions may be declared before they are defined so that mutually
/// recursive call graphs can be constructed.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<Option<Function>>,
    names: Vec<String>,
}

impl ProgramBuilder {
    /// An empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or looks up) a function by name, returning its id without
    /// defining a body. Useful for forward references in `call`.
    pub fn declare(&mut self, name: &str) -> FuncId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return FuncId(i as u32);
        }
        self.names.push(name.to_string());
        self.funcs.push(None);
        FuncId(self.names.len() as u32 - 1)
    }

    /// Starts building a function with `n_params` integer parameters
    /// (registers `0..n_params`). Finish it with [`FunctionBuilder::finish`]
    /// before starting another.
    pub fn new_function(&mut self, name: &str, n_params: u32) -> FunctionBuilder<'_> {
        let id = self.declare(name);
        let params: Vec<Reg> = (0..n_params).map(Reg::int).collect();
        let mut func = Function::new(name.to_string(), params, n_params);
        func.push_block(BasicBlock::default());
        FunctionBuilder { pb: self, id, func, cur: BlockId(0), n_slots: 0 }
    }

    /// Completes the program.
    ///
    /// # Panics
    /// Panics if any declared function was never defined — that is a
    /// construction bug, not a recoverable condition.
    pub fn finish(self) -> Program {
        let mut p = Program::new();
        for (f, name) in self.funcs.into_iter().zip(self.names) {
            let f = f.unwrap_or_else(|| panic!("function `{name}` declared but never defined"));
            p.push_function(f);
        }
        p
    }
}

/// Builds one [`Function`]. Obtained from [`ProgramBuilder::new_function`].
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: FuncId,
    func: Function,
    cur: BlockId,
    n_slots: u32,
}

impl<'a> FunctionBuilder<'a> {
    /// The `i`-th parameter register.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: u32) -> Reg {
        self.func.params()[i as usize]
    }

    /// Allocates a fresh integer register.
    pub fn new_reg(&mut self) -> Reg {
        self.func.fresh_reg(RegClass::Int)
    }

    /// Allocates a fresh stack slot.
    pub fn new_stack_slot(&mut self) -> StackSlot {
        let s = StackSlot(self.n_slots);
        self.n_slots += 1;
        s
    }

    /// Creates a new, empty basic block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        self.func.push_block(BasicBlock::default())
    }

    /// Redirects subsequent emissions into `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// Appends a raw instruction to the current block.
    pub fn emit(&mut self, inst: Inst) {
        self.func.block_mut(self.cur).insts.push(inst);
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.emit(Inst::Mov { dst, src: src.into() });
    }

    /// `dst = a <op> b`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit(Inst::Bin { op, dst, a: a.into(), b: b.into() });
    }

    /// `dst = mem[base + offset]`.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64) {
        self.emit(Inst::Load { dst, base, offset });
    }

    /// `mem[base + offset] = src`.
    pub fn store(&mut self, base: Reg, offset: i64, src: impl Into<Operand>) {
        self.emit(Inst::Store { base, offset, src: src.into() });
    }

    /// `dst = CAS(mem[base + offset], expected -> new)` — the recoverable
    /// compare-and-swap of the lock-free scheme family. `dst` receives 1
    /// when the swap took effect.
    pub fn cas(
        &mut self,
        dst: Reg,
        base: Reg,
        offset: i64,
        expected: impl Into<Operand>,
        new: impl Into<Operand>,
    ) {
        self.emit(Inst::Cas {
            dst,
            base,
            offset,
            expected: expected.into(),
            new: new.into(),
        });
    }

    /// `dst = stack[slot]`.
    pub fn load_stack(&mut self, dst: Reg, slot: StackSlot) {
        self.emit(Inst::LoadStack { dst, slot });
    }

    /// `stack[slot] = src`.
    pub fn store_stack(&mut self, slot: StackSlot, src: impl Into<Operand>) {
        self.emit(Inst::StoreStack { slot, src: src.into() });
    }

    /// `dst = nv_malloc(size)`.
    pub fn alloc(&mut self, dst: Reg, size: impl Into<Operand>) {
        self.emit(Inst::Alloc { dst, size: size.into() });
    }

    /// `nv_free(base)`.
    pub fn free(&mut self, base: Reg) {
        self.emit(Inst::Free { base });
    }

    /// Acquire the mutex identified by `lock`.
    pub fn lock(&mut self, lock: impl Into<Operand>) {
        self.emit(Inst::Lock { lock: lock.into() });
    }

    /// Release the mutex identified by `lock`.
    pub fn unlock(&mut self, lock: impl Into<Operand>) {
        self.emit(Inst::Unlock { lock: lock.into() });
    }

    /// Charges `ns` of application compute to the simulated clock (a
    /// stand-in for work the IR does not model instruction-by-instruction).
    pub fn delay(&mut self, ns: u64) {
        self.emit(Inst::Delay { ns });
    }

    /// Opens a service-operation span of the given kind for the metrics
    /// layer (0 = generic, 1 = get, 2 = put). Free and side-effect free.
    pub fn op_begin(&mut self, kind: impl Into<Operand>) {
        self.emit(Inst::OpMark { kind: kind.into(), begin: true });
    }

    /// Closes the open service-operation span of the given kind.
    pub fn op_end(&mut self, kind: impl Into<Operand>) {
        self.emit(Inst::OpMark { kind: kind.into(), begin: false });
    }

    /// Begin a programmer-delineated durable region.
    pub fn durable_begin(&mut self) {
        self.emit(Inst::DurableBegin);
    }

    /// End a programmer-delineated durable region.
    pub fn durable_end(&mut self) {
        self.emit(Inst::DurableEnd);
    }

    /// Call `func(args...)`, optionally receiving the result in `ret`.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>, ret: Option<Reg>) {
        self.emit(Inst::Call { func, args, ret });
    }

    /// Declares (or looks up) a callee in the enclosing program builder.
    pub fn declare(&mut self, name: &str) -> FuncId {
        self.pb.declare(name)
    }

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.emit(Inst::Jump { target });
    }

    /// Conditional branch on `cond != 0`.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.emit(Inst::Branch { cond: cond.into(), then_bb, else_bb });
    }

    /// Return, optionally with a value.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.emit(Inst::Ret { val });
    }

    /// Verifies and registers the function with the program builder.
    ///
    /// # Errors
    /// Returns a [`VerifyError`] describing the first structural problem
    /// found (empty block, missing terminator, bad target, …).
    pub fn finish(mut self) -> Result<FuncId, VerifyError> {
        self.func.set_stack_slots(self.n_slots);
        verify_function(&self.func)?;
        self.pb.funcs[self.id.0 as usize] = Some(self.func);
        Ok(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline_function() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("f", 2);
        let a = f.param(0);
        let b = f.param(1);
        let c = f.new_reg();
        f.bin(BinOp::Add, c, a, b);
        f.ret(Some(Operand::Reg(c)));
        let id = f.finish().unwrap();
        let p = pb.finish();
        assert_eq!(p.function(id).num_insts(), 2);
        assert_eq!(p.function(id).num_regs(), 3);
    }

    #[test]
    fn build_branching_function() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("g", 1);
        let x = f.param(0);
        let t = f.new_block();
        let e = f.new_block();
        f.branch(x, t, e);
        f.switch_to(t);
        f.ret(Some(Operand::Imm(1)));
        f.switch_to(e);
        f.ret(Some(Operand::Imm(0)));
        assert!(f.finish().is_ok());
        let p = pb.finish();
        assert_eq!(p.function(p.find("g").unwrap()).num_blocks(), 3);
    }

    #[test]
    fn forward_declared_calls() {
        let mut pb = ProgramBuilder::new();
        let callee_id = pb.declare("callee");
        let mut f = pb.new_function("caller", 0);
        let r = f.new_reg();
        f.call(callee_id, vec![Operand::Imm(5)], Some(r));
        f.ret(Some(Operand::Reg(r)));
        f.finish().unwrap();
        let mut g = pb.new_function("callee", 1);
        let p0 = g.param(0);
        g.ret(Some(Operand::Reg(p0)));
        g.finish().unwrap();
        let p = pb.finish();
        assert_eq!(p.functions().len(), 2);
        assert_eq!(p.find("callee"), Some(callee_id));
    }

    #[test]
    #[should_panic(expected = "declared but never defined")]
    fn undefined_declaration_panics_on_finish() {
        let mut pb = ProgramBuilder::new();
        pb.declare("ghost");
        pb.finish();
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("bad", 0);
        let r = f.new_reg();
        f.mov(r, 1i64);
        assert!(f.finish().is_err());
    }

    #[test]
    fn stack_slots_are_counted() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("s", 0);
        let s0 = f.new_stack_slot();
        let s1 = f.new_stack_slot();
        f.store_stack(s0, 1i64);
        f.store_stack(s1, 2i64);
        f.ret(None);
        let id = f.finish().unwrap();
        let p = pb.finish();
        assert_eq!(p.function(id).num_stack_slots(), 2);
    }
}
