//! Instruction set.

use crate::func::{BlockId, FuncId};
use crate::reg::{Operand, Reg, StackSlot};

/// Binary ALU operations. Comparison operators produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (division by zero yields 0, like a trap handler that
    /// returns a default — keeps the interpreter total).
    Div,
    /// Signed remainder (remainder by zero yields 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    Shr,
    /// Equality (1 if equal).
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

/// A lock identity as seen by instrumentation: the operand that will resolve
/// at run time to the persistent address of the lock's *indirect lock holder*
/// (Section III-B of the paper).
pub type LockToken = Operand;

/// Where a FASE store is about to write: what a [`RtOp::StoreRecord`]
/// protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTarget {
    /// `mem[base + offset]`, the following heap store's address.
    Heap {
        /// Base register of the following store's address.
        base: Reg,
        /// Byte offset of the following store.
        offset: i64,
    },
    /// The stack slot the following store writes.
    Stack(StackSlot),
}

/// Runtime operations inserted by the instrumentation pass.
///
/// These are the "library calls" the iDO compiler (and the baseline
/// compilers) weave into the program. An op names the *event* — a FASE
/// opens, a lock was acquired, a store is about to execute — and the
/// lowered program names the scheme (`Instrumented::scheme`): what the
/// event costs, including exactly which cache-line write-backs and persist
/// fences it performs, is the scheme runtime's in the VM, so persistence
/// cost is charged faithfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtOp {
    /// Marks entry into a FASE (outermost lock acquired or durable region
    /// begun). Bookkeeping only.
    FaseBegin,
    /// Marks exit from a FASE. For schemes with deferred work (Atlas flush,
    /// NVML/NVThreads commit) this is where it happens.
    FaseEnd,
    /// Begin a durable transaction in place of a FASE (Mnemosyne: the
    /// paper's single-global-lock transactional treatment of FASEs).
    TxBegin,
    /// Commit: persist the redo log (non-temporal appends were already
    /// durable), fence, apply the write set in place, mark committed.
    TxCommit,
    /// Idempotent region boundary (iDO): persist the ending region's
    /// outputs (listed registers and stack slots, persist-coalesced into as
    /// few cache lines as possible), write back heap stores tracked at run
    /// time, fence, update `recovery_pc` to the next instruction, fence.
    IdoBoundary {
        /// Output registers of the ending region (`Def ∩ LiveOut`).
        out_regs: Vec<Reg>,
        /// Output stack slots of the ending region.
        out_slots: Vec<StackSlot>,
    },
    /// Record that `lock` is held, immediately after acquiring it: the
    /// indirect lock holder in the thread's `lock_array` (iDO, one fence;
    /// JUSTDO, lock intention + ownership, two), or a happens-before log
    /// entry (Atlas).
    LockAcquired {
        /// The lock's indirect-holder address operand.
        lock: LockToken,
    },
    /// Retire the record of `lock` immediately before releasing it.
    LockReleasing {
        /// The lock's indirect-holder address operand.
        lock: LockToken,
    },
    /// The scheme's per-store record, immediately before the store it
    /// protects: JUSTDO persists `(pc, addr, value)` (two persist-fence
    /// sequences per store, as in the original system), Atlas appends a
    /// persisted UNDO entry `(addr, old value)`, NVML snapshots the 64-byte
    /// object containing the target once per FASE (`TX_ADD`), NVThreads
    /// notes the dirtied page (the first store to each page in a FASE pays
    /// a page copy).
    StoreRecord {
        /// Where the following store writes.
        target: StoreTarget,
        /// The following store's source — carried under every scheme, read
        /// by JUSTDO's runtime only.
        value: Operand,
    },
    /// JUSTDO "no register caching" shadow: the value just defined in `reg`
    /// is written through to a persistent shadow slot (write-back issued;
    /// ordered by the next log fence). This models the original system's
    /// prohibition on caching FASE state in registers.
    JustDoShadow {
        /// The register that was just defined.
        reg: Reg,
    },

    // --- Lock-free scheme family (NVTraverse / LF-Eager) ---
    /// Flush-on-traverse-exit: write back every cache line the thread
    /// touched since its last window flush (tracked loads and stores under
    /// NVTraverse) and fence. Inserted immediately before the recoverable
    /// CAS so everything the critical write depends on — the new node's
    /// contents and every link observed during traversal — is durable
    /// before the CAS value can escape to other threads.
    LfFlushWindow,
    /// Publish the thread's persistent CAS descriptor (`lf_state` slot):
    /// sequence number, target address, expected and new values, state =
    /// in-flight — one cache line, persisted with a single write-back +
    /// fence before the CAS executes. This is what makes a crashed CAS
    /// *detectable*: recovery reads the descriptor and resolves
    /// taken-xor-not-taken from the cell's owner/sequence tag.
    LfCasPrepare {
        /// Base register of the CAS target cell.
        base: Reg,
        /// Byte offset of the CAS target cell.
        offset: i64,
        /// Value the CAS expects to find.
        expected: Operand,
        /// Value the CAS installs.
        new: Operand,
    },
    /// Persist-before-escape: write back + fence the CAS cell's line when
    /// the CAS succeeded (making the linearized write durable), then
    /// durably close the descriptor (state = done, success counter bumped
    /// on a taken CAS) so the operation is no longer in flight.
    LfCasPublish {
        /// Base register of the CAS target cell.
        base: Reg,
        /// Byte offset of the CAS target cell.
        offset: i64,
        /// The CAS result register (1 = taken, 0 = failed).
        taken: Reg,
    },
}

impl RtOp {
    /// Registers read by this runtime op.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        match self {
            RtOp::IdoBoundary { out_regs, .. } => v.extend(out_regs.iter().copied()),
            RtOp::LockAcquired { lock } | RtOp::LockReleasing { lock } => v.extend(lock.as_reg()),
            RtOp::StoreRecord { target, value } => {
                if let StoreTarget::Heap { base, .. } = target {
                    v.push(*base);
                }
                v.extend(value.as_reg());
            }
            RtOp::JustDoShadow { reg } => v.push(*reg),
            RtOp::LfCasPrepare { base, expected, new, .. } => {
                v.push(*base);
                v.extend(expected.as_reg());
                v.extend(new.as_reg());
            }
            RtOp::LfCasPublish { base, taken, .. } => {
                v.push(*base);
                v.push(*taken);
            }
            RtOp::FaseBegin | RtOp::FaseEnd | RtOp::TxBegin | RtOp::TxCommit => {}
            RtOp::LfFlushWindow => {}
        }
        v
    }

    /// Stack slots read by this runtime op (the iDO boundary persists output
    /// slots, which reads them; per-store logs read the slot's old value).
    pub fn stack_uses(&self) -> Vec<StackSlot> {
        match self {
            RtOp::IdoBoundary { out_slots, .. } => out_slots.clone(),
            RtOp::StoreRecord { target: StoreTarget::Stack(slot), .. } => vec![*slot],
            _ => Vec::new(),
        }
    }
}

/// One IR instruction. The last instruction of every basic block is a
/// terminator ([`Inst::Jump`], [`Inst::Branch`], or [`Inst::Ret`]); no other
/// instruction may be a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <op> b`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = stack[slot]`.
    LoadStack {
        /// Destination register.
        dst: Reg,
        /// Source slot.
        slot: StackSlot,
    },
    /// `stack[slot] = src`.
    StoreStack {
        /// Destination slot.
        slot: StackSlot,
        /// Source operand.
        src: Operand,
    },
    /// `dst = mem[base + offset]` (persistent heap load).
    Load {
        /// Destination register.
        dst: Reg,
        /// Address base register.
        base: Reg,
        /// Byte offset (must keep the address 8-byte aligned).
        offset: i64,
    },
    /// `mem[base + offset] = src` (persistent heap store).
    Store {
        /// Address base register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Value stored.
        src: Operand,
    },
    /// `dst = (mem[base + offset] == expected)`; on success stores `new`
    /// to `mem[base + offset]` and tags the cell's adjacent owner/sequence
    /// word — the linearization point of the recoverable-CAS protocol used
    /// by the lock-free scheme family. The cell is a `[value, tag]` pair
    /// on one cache line (the tag word lives at `offset + 8`); under a
    /// lock-free scheme the VM persists the outgoing occupant and credits
    /// a superseded owner's descriptor before installing the new value, so
    /// recovery can always resolve a crashed CAS. Executes atomically
    /// (single interpreter step).
    Cas {
        /// Receives 1 if the CAS took effect, 0 otherwise.
        dst: Reg,
        /// Address base register of the target cell's value word.
        base: Reg,
        /// Byte offset of the target cell's value word.
        offset: i64,
        /// Value the cell must currently hold.
        expected: Operand,
        /// Value installed on success.
        new: Operand,
    },
    /// `dst = nv_malloc(size)`.
    Alloc {
        /// Receives the new allocation's address.
        dst: Reg,
        /// Allocation size in bytes.
        size: Operand,
    },
    /// `nv_free(base)`.
    Free {
        /// Address register of the allocation to free.
        base: Reg,
    },
    /// Acquire the mutex identified by `lock`.
    Lock {
        /// Lock identity operand (resolves to the indirect holder address).
        lock: LockToken,
    },
    /// Release the mutex identified by `lock`.
    Unlock {
        /// Lock identity operand.
        lock: LockToken,
    },
    /// Begin a programmer-delineated durable region (single-threaded FASE).
    DurableBegin,
    /// End a programmer-delineated durable region.
    DurableEnd,
    /// Call another function in the program.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument operands, bound to the callee's parameter registers.
        args: Vec<Operand>,
        /// Register receiving the return value, if used.
        ret: Option<Reg>,
    },
    /// An explicit idempotent-region boundary marker, inserted by the
    /// register-WAR fixup in `ido-idem`. A region cut lies immediately
    /// before this instruction; it is otherwise a no-op.
    RegionMarker,
    /// Advances the simulated clock by a fixed number of nanoseconds
    /// without side effects — a simulation hook standing in for application
    /// compute (command parsing, key hashing) that the IR does not model
    /// instruction-by-instruction. Pure and idempotent.
    Delay {
        /// Nanoseconds of application compute to charge.
        ns: u64,
    },
    /// A service-operation span marker for the metrics layer: `begin`
    /// opens (and `!begin` closes) an operation of the given kind
    /// (0 = generic, 1 = get, 2 = put; evaluated at run time so mixed
    /// loops can pick the kind in a register). Charges no simulated time
    /// and has no memory effect — pure and idempotent, like
    /// [`Inst::RegionMarker`].
    OpMark {
        /// Operation kind operand (clamped by the metrics layer).
        kind: Operand,
        /// True opens the span, false closes it.
        begin: bool,
    },
    /// A runtime operation inserted by instrumentation.
    Rt(RtOp),
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch: non-zero `cond` goes to `then_bb`.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Taken target.
        then_bb: BlockId,
        /// Fall-through target.
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        val: Option<Operand>,
    },
}

impl Inst {
    /// The register defined (written) by this instruction, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::LoadStack { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Cas { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Call { ret, .. } => *ret,
            _ => None,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        match self {
            Inst::Mov { src, .. } => v.extend(src.as_reg()),
            Inst::Bin { a, b, .. } => {
                v.extend(a.as_reg());
                v.extend(b.as_reg());
            }
            Inst::LoadStack { .. } => {}
            Inst::StoreStack { src, .. } => v.extend(src.as_reg()),
            Inst::Load { base, .. } => v.push(*base),
            Inst::Store { base, src, .. } => {
                v.push(*base);
                v.extend(src.as_reg());
            }
            Inst::Cas { base, expected, new, .. } => {
                v.push(*base);
                v.extend(expected.as_reg());
                v.extend(new.as_reg());
            }
            Inst::Alloc { size, .. } => v.extend(size.as_reg()),
            Inst::Free { base } => v.push(*base),
            Inst::Lock { lock } | Inst::Unlock { lock } => v.extend(lock.as_reg()),
            Inst::DurableBegin | Inst::DurableEnd => {}
            Inst::Call { args, .. } => {
                for a in args {
                    v.extend(a.as_reg());
                }
            }
            Inst::RegionMarker | Inst::Delay { .. } => {}
            Inst::OpMark { kind, .. } => v.extend(kind.as_reg()),
            Inst::Rt(rt) => v.extend(rt.uses()),
            Inst::Jump { .. } => {}
            Inst::Branch { cond, .. } => v.extend(cond.as_reg()),
            Inst::Ret { val } => {
                if let Some(o) = val {
                    v.extend(o.as_reg());
                }
            }
        }
        v
    }

    /// The stack slot written by this instruction, if any.
    pub fn stack_def(&self) -> Option<StackSlot> {
        match self {
            Inst::StoreStack { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// Stack slots read by this instruction.
    pub fn stack_uses(&self) -> Vec<StackSlot> {
        match self {
            Inst::LoadStack { slot, .. } => vec![*slot],
            Inst::Rt(rt) => rt.stack_uses(),
            _ => Vec::new(),
        }
    }

    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. })
    }

    /// Successor blocks of a terminator (empty for `Ret` and non-terminators).
    pub fn targets(&self) -> Vec<BlockId> {
        match self {
            Inst::Jump { target } => vec![*target],
            Inst::Branch { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            _ => Vec::new(),
        }
    }

    /// True if this instruction writes persistent heap memory.
    pub fn is_heap_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Cas { .. })
    }

    /// True if this instruction reads persistent heap memory.
    pub fn is_heap_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Cas { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    fn r(id: u32) -> Reg {
        Reg { id, class: RegClass::Int }
    }

    #[test]
    fn def_use_of_alu() {
        let i = Inst::Bin { op: BinOp::Add, dst: r(0), a: Operand::Reg(r(1)), b: Operand::Imm(3) };
        assert_eq!(i.def_reg(), Some(r(0)));
        assert_eq!(i.uses(), vec![r(1)]);
    }

    #[test]
    fn def_use_of_memory_ops() {
        let st = Inst::Store { base: r(1), offset: 8, src: Operand::Reg(r(2)) };
        assert_eq!(st.def_reg(), None);
        assert_eq!(st.uses(), vec![r(1), r(2)]);
        assert!(st.is_heap_store());
        let ld = Inst::Load { dst: r(0), base: r(1), offset: 0 };
        assert_eq!(ld.def_reg(), Some(r(0)));
        assert!(ld.is_heap_load());
    }

    #[test]
    fn def_use_of_cas() {
        let cas = Inst::Cas {
            dst: r(0),
            base: r(1),
            offset: 0,
            expected: Operand::Reg(r(2)),
            new: Operand::Reg(r(3)),
        };
        assert_eq!(cas.def_reg(), Some(r(0)));
        assert_eq!(cas.uses(), vec![r(1), r(2), r(3)]);
        assert!(cas.is_heap_store());
        assert!(cas.is_heap_load());

        let prep = RtOp::LfCasPrepare {
            base: r(1),
            offset: 0,
            expected: Operand::Reg(r(2)),
            new: Operand::Imm(7),
        };
        assert_eq!(prep.uses(), vec![r(1), r(2)]);
        let publ = RtOp::LfCasPublish { base: r(1), offset: 0, taken: r(0) };
        assert_eq!(publ.uses(), vec![r(1), r(0)]);
        assert!(RtOp::LfFlushWindow.uses().is_empty());
    }

    #[test]
    fn stack_def_use() {
        let st = Inst::StoreStack { slot: StackSlot(2), src: Operand::Imm(1) };
        assert_eq!(st.stack_def(), Some(StackSlot(2)));
        let ld = Inst::LoadStack { dst: r(0), slot: StackSlot(2) };
        assert_eq!(ld.stack_uses(), vec![StackSlot(2)]);
    }

    #[test]
    fn terminators_and_targets() {
        let j = Inst::Jump { target: BlockId(3) };
        assert!(j.is_terminator());
        assert_eq!(j.targets(), vec![BlockId(3)]);
        let b = Inst::Branch { cond: Operand::Imm(1), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(b.targets(), vec![BlockId(1), BlockId(2)]);
        let ret = Inst::Ret { val: None };
        assert!(ret.is_terminator());
        assert!(ret.targets().is_empty());
    }

    #[test]
    fn op_mark_uses_its_kind_register() {
        let m = Inst::OpMark { kind: Operand::Reg(r(9)), begin: true };
        assert_eq!(m.def_reg(), None);
        assert_eq!(m.uses(), vec![r(9)]);
        assert!(!m.is_terminator());
        let imm = Inst::OpMark { kind: Operand::Imm(1), begin: false };
        assert!(imm.uses().is_empty());
    }

    #[test]
    fn rtop_uses_cover_operands() {
        let target = StoreTarget::Heap { base: r(4), offset: 0 };
        let rt = RtOp::StoreRecord { target, value: Operand::Reg(r(5)) };
        assert_eq!(rt.uses(), vec![r(4), r(5)]);
        let rt = RtOp::StoreRecord { target: StoreTarget::Stack(StackSlot(3)), value: Operand::Imm(1) };
        assert!(rt.uses().is_empty());
        assert_eq!(rt.stack_uses(), vec![StackSlot(3)]);
        let b = RtOp::IdoBoundary { out_regs: vec![r(1), r(2)], out_slots: vec![StackSlot(0)] };
        assert_eq!(b.uses(), vec![r(1), r(2)]);
        assert_eq!(b.stack_uses(), vec![StackSlot(0)]);
    }
}
