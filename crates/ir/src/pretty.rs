//! Human-readable printing of IR.
//!
//! The output doubles as the canonical textual IR format consumed by the
//! `ido-lang` frontend, so every form here must be unambiguously
//! re-parseable: byte offsets print as `+o`/`-o` (never `+-o`), function
//! names that are not bare identifiers are quoted and escaped, and the
//! `fn` header carries explicit `regs=`/`slots=` counts because neither
//! is always inferable from the body (fresh registers and slots may be
//! allocated but never mentioned).

use std::fmt;

use crate::func::{BasicBlock, Function, Program};
use crate::inst::{BinOp, Inst, MemLoc, RtOp};
use crate::reg::{Operand, Reg, RegClass, StackSlot};

/// True when a function name can print bare (unquoted): a C-style
/// identifier. Anything else is quoted by [`FnName`].
pub fn is_bare_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Prints a function name in canonical form: bare when it is an
/// identifier, otherwise double-quoted with `\\`, `\"`, `\n`, `\t`,
/// `\r`, and `\xNN` (other ASCII control bytes) escapes.
pub struct FnName<'a>(pub &'a str);

impl fmt::Display for FnName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if is_bare_name(self.0) {
            return f.write_str(self.0);
        }
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                    write!(f, "\\x{:02x}", c as u32)?
                }
                c => f.write_fmt(format_args!("{c}"))?,
            }
        }
        f.write_str("\"")
    }
}

/// A byte offset in an address expression: prints `+o` for non-negative
/// and `-|o|` for negative values (the naive `+{offset}` used to render
/// `-8` as the unparseable `+-8`). `i64::MIN` prints via its unsigned
/// magnitude, which has no i64 negation.
struct Off(i64);

impl fmt::Display for Off {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 0 {
            write!(f, "-{}", self.0.unsigned_abs())
        } else {
            write!(f, "+{}", self.0)
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.id),
            RegClass::Float => write!(f, "f{}", self.id),
        }
    }
}

impl fmt::Display for StackSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

impl fmt::Display for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Heap { base, offset } => write!(f, "[{base}{}]", Off(*offset)),
            MemLoc::Stack(slot) => write!(f, "stack[{slot}]"),
        }
    }
}

impl fmt::Display for RtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtOp::FaseBegin => write!(f, "rt.fase_begin"),
            RtOp::FaseEnd => write!(f, "rt.fase_end"),
            RtOp::IdoBoundary { out_regs, out_slots } => {
                write!(f, "rt.ido_boundary regs=[")?;
                for (i, r) in out_regs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "] slots=[")?;
                for (i, s) in out_slots.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
            RtOp::LockAcquired { lock } => write!(f, "rt.lock_acquired {lock}"),
            RtOp::LockReleasing { lock } => write!(f, "rt.lock_releasing {lock}"),
            RtOp::StoreRecord { target, value } => write!(f, "rt.store_record {target} <- {value}"),
            RtOp::JustDoShadow { reg } => write!(f, "rt.justdo_shadow {reg}"),
            RtOp::TxBegin => write!(f, "rt.tx_begin"),
            RtOp::TxCommit => write!(f, "rt.tx_commit"),
            RtOp::LfFlushWindow => write!(f, "rt.lf_flush_window"),
            RtOp::LfCasPrepare { base, offset, expected, new } => {
                write!(f, "rt.lf_cas_prepare [{base}{}] {expected} -> {new}", Off(*offset))
            }
            RtOp::LfCasPublish { base, offset, taken } => {
                write!(f, "rt.lf_cas_publish [{base}{}] taken={taken}", Off(*offset))
            }
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Mov { dst, src } => write!(f, "{dst} = {src}"),
            Inst::Bin { op, dst, a, b } => write!(f, "{dst} = {op} {a}, {b}"),
            Inst::LoadStack { dst, slot } => write!(f, "{dst} = stack[{slot}]"),
            Inst::StoreStack { slot, src } => write!(f, "stack[{slot}] = {src}"),
            Inst::Load { dst, base, offset } => write!(f, "{dst} = mem[{base}{}]", Off(*offset)),
            Inst::Store { base, offset, src } => write!(f, "mem[{base}{}] = {src}", Off(*offset)),
            Inst::Cas { dst, base, offset, expected, new } => {
                write!(f, "{dst} = cas mem[{base}{}] {expected} -> {new}", Off(*offset))
            }
            Inst::Alloc { dst, size } => write!(f, "{dst} = alloc {size}"),
            Inst::Free { base } => write!(f, "free {base}"),
            Inst::Lock { lock } => write!(f, "lock {lock}"),
            Inst::Unlock { lock } => write!(f, "unlock {lock}"),
            Inst::DurableBegin => write!(f, "durable_begin"),
            Inst::DurableEnd => write!(f, "durable_end"),
            Inst::Call { func, args, ret } => {
                if let Some(r) = ret {
                    write!(f, "{r} = ")?;
                }
                write!(f, "call fn{}(", func.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::RegionMarker => write!(f, "region_marker"),
            Inst::Delay { ns } => write!(f, "delay {ns}ns"),
            Inst::OpMark { kind, begin } => {
                write!(f, "{} {kind}", if *begin { "op_begin" } else { "op_end" })
            }
            Inst::Rt(rt) => write!(f, "{rt}"),
            Inst::Jump { target } => write!(f, "jump bb{}", target.0),
            Inst::Branch { cond, then_bb, else_bb } => {
                write!(f, "br {cond} ? bb{} : bb{}", then_bb.0, else_bb.0)
            }
            Inst::Ret { val } => match val {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for inst in &self.insts {
            writeln!(f, "    {inst}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", FnName(self.name()))?;
        for (i, p) in self.params().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") regs={} slots={} {{", self.num_regs(), self.num_stack_slots())?;
        for (bi, bb) in self.blocks().iter().enumerate() {
            writeln!(f, "  bb{bi}:")?;
            write!(f, "{bb}")?;
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Program {
    /// Prints every function in [`crate::FuncId`] order (the order is
    /// load-bearing: `call fnN(...)` references functions by index, so a
    /// parser must assign ids in printing order).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn function_prints_blocks_and_insts() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("demo", 1);
        let p = f.param(0);
        let r = f.new_reg();
        f.bin(BinOp::Add, r, p, 1i64);
        f.store(r, 8, 7i64);
        f.ret(Some(Operand::Reg(r)));
        let id = f.finish().unwrap();
        let prog = pb.finish();
        let s = format!("{}", prog.function(id));
        assert!(s.contains("fn demo(r0) regs=2 slots=0 {"), "{s}");
        assert!(s.contains("r1 = add r0, 1"));
        assert!(s.contains("mem[r1+8] = 7"));
        assert!(s.contains("ret r1"));
    }

    #[test]
    fn rtop_printing() {
        let rt = RtOp::IdoBoundary { out_regs: vec![Reg::int(1)], out_slots: vec![StackSlot(0)] };
        assert_eq!(format!("{rt}"), "rt.ido_boundary regs=[r1] slots=[s0]");
    }

    #[test]
    fn negative_offsets_print_with_a_single_sign() {
        // Regression: `mem[{base}+{offset}]` rendered offset -8 as the
        // unparseable `mem[r1+-8]`. Every address form must use +o / -o.
        let r = Reg::int(1);
        let st = Inst::Store { base: r, offset: -8, src: Operand::Imm(7) };
        assert_eq!(format!("{st}"), "mem[r1-8] = 7");
        let ld = Inst::Load { dst: Reg::int(0), base: r, offset: 8 };
        assert_eq!(format!("{ld}"), "r0 = mem[r1+8]");
        let cas = Inst::Cas {
            dst: Reg::int(0),
            base: r,
            offset: -16,
            expected: Operand::Imm(0),
            new: Operand::Imm(1),
        };
        assert_eq!(format!("{cas}"), "r0 = cas mem[r1-16] 0 -> 1");
        // The one offset with no i64 negation still prints its magnitude.
        let min = Inst::Load { dst: Reg::int(0), base: r, offset: i64::MIN };
        assert_eq!(format!("{min}"), "r0 = mem[r1-9223372036854775808]");
        // Rt ops carry offsets too.
        let target = MemLoc::Heap { base: r, offset: -24 };
        let rt = RtOp::StoreRecord { target, value: Operand::Reg(Reg::int(5)) };
        assert_eq!(format!("{rt}"), "rt.store_record [r1-24] <- r5");
        let rt = RtOp::StoreRecord { target: MemLoc::Stack(StackSlot(2)), value: Operand::Imm(7) };
        assert_eq!(format!("{rt}"), "rt.store_record stack[s2] <- 7");
        let prep = RtOp::LfCasPrepare {
            base: r,
            offset: -8,
            expected: Operand::Reg(Reg::int(2)),
            new: Operand::Imm(7),
        };
        assert_eq!(format!("{prep}"), "rt.lf_cas_prepare [r1-8] r2 -> 7");
    }

    #[test]
    fn non_identifier_function_names_are_quoted_and_escaped() {
        // Regression: names with spaces, quotes, or leading digits printed
        // bare, so `fn list push(r0)` could never re-parse.
        assert!(is_bare_name("worker_1"));
        assert!(!is_bare_name("list push"));
        assert!(!is_bare_name("9lives"));
        assert!(!is_bare_name(""));
        assert_eq!(format!("{}", FnName("worker")), "worker");
        assert_eq!(format!("{}", FnName("list push")), "\"list push\"");
        assert_eq!(format!("{}", FnName("a\"b\\c")), "\"a\\\"b\\\\c\"");
        assert_eq!(format!("{}", FnName("tab\there")), "\"tab\\there\"");
        assert_eq!(format!("{}", FnName("\x01")), "\"\\x01\"");
    }

    #[test]
    fn op_marks_and_delays_print_canonically() {
        assert_eq!(
            format!("{}", Inst::OpMark { kind: Operand::Imm(1), begin: true }),
            "op_begin 1"
        );
        assert_eq!(
            format!("{}", Inst::OpMark { kind: Operand::Reg(Reg::int(9)), begin: false }),
            "op_end r9"
        );
        assert_eq!(format!("{}", Inst::Delay { ns: 100 }), "delay 100ns");
        assert_eq!(format!("{}", Operand::Imm(i64::MIN)), "-9223372036854775808");
    }

    #[test]
    fn program_prints_functions_in_id_order() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.new_function("first", 0);
        f.ret(None);
        f.finish().unwrap();
        let mut g = pb.new_function("second", 0);
        g.ret(None);
        g.finish().unwrap();
        let prog = pb.finish();
        let s = format!("{prog}");
        let first = s.find("fn first").unwrap();
        let second = s.find("fn second").unwrap();
        assert!(first < second, "{s}");
    }
}
