//! Property fuzz for the textual IR: `parse(pretty(p)) == p` for random
//! well-formed programs (ISSUE 10 satellite #3's regression harness).
//!
//! Programs are assembled structurally — random instruction mixes over
//! every `Inst` and `RtOp` shape the pretty-printer can emit, extreme
//! immediates and offsets included (`i64::MIN` has no positive
//! magnitude, so both printer and parser must special-case it) — then
//! round-tripped: pretty-print, re-parse, compare the structures for
//! equality, and pretty-print again to confirm the text is a fixpoint.

use ido_ir::{
    BasicBlock, BinOp, BlockId, FnName, FuncId, Function, Inst, MemLoc, Operand, Program, Reg,
    RtOp, StackSlot,
};
use ido_lang::parse_program_text;
use proptest::prelude::*;

const NUM_REGS: u32 = 8;
const NUM_SLOTS: u32 = 4;

fn reg() -> BoxedStrategy<Reg> {
    (0u32..NUM_REGS).prop_map(Reg::int).boxed()
}

fn slot() -> BoxedStrategy<StackSlot> {
    (0u32..NUM_SLOTS).prop_map(StackSlot).boxed()
}

fn imm() -> BoxedStrategy<i64> {
    prop_oneof![
        4 => -64i64..64,
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
    .boxed()
}

fn operand() -> BoxedStrategy<Operand> {
    prop_oneof![
        reg().prop_map(Operand::Reg),
        imm().prop_map(Operand::Imm),
    ]
    .boxed()
}

/// Address offsets: mostly small and aligned, but also negative and the
/// unnegatable extreme.
fn offset() -> BoxedStrategy<i64> {
    prop_oneof![
        4 => (0i64..64).prop_map(|v| v * 8),
        2 => (-64i64..0).prop_map(|v| v * 8),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX - 7),
    ]
    .boxed()
}

fn binop() -> BoxedStrategy<BinOp> {
    prop::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ])
    .boxed()
}

/// Instrumentation runtime ops — every shape the pretty-printer emits.
fn rt_op() -> BoxedStrategy<RtOp> {
    prop_oneof![
        Just(RtOp::FaseBegin),
        Just(RtOp::FaseEnd),
        Just(RtOp::TxBegin),
        Just(RtOp::TxCommit),
        Just(RtOp::LfFlushWindow),
        (
            prop::collection::vec(reg(), 0..3),
            prop::collection::vec(slot(), 0..3)
        )
            .prop_map(|(out_regs, out_slots)| RtOp::IdoBoundary { out_regs, out_slots }),
        operand().prop_map(|lock| RtOp::LockAcquired { lock }),
        operand().prop_map(|lock| RtOp::LockReleasing { lock }),
        (reg(), offset(), operand()).prop_map(|(base, offset, value)| {
            RtOp::StoreRecord { target: MemLoc::Heap { base, offset }, value }
        }),
        (slot(), operand()).prop_map(|(slot, value)| {
            RtOp::StoreRecord { target: MemLoc::Stack(slot), value }
        }),
        reg().prop_map(|reg| RtOp::JustDoShadow { reg }),
        (reg(), offset(), operand(), operand()).prop_map(|(base, offset, expected, new)| {
            RtOp::LfCasPrepare { base, offset, expected, new }
        }),
        (reg(), offset(), reg())
            .prop_map(|(base, offset, taken)| RtOp::LfCasPublish { base, offset, taken }),
    ]
    .boxed()
}

/// Non-terminator instructions.
fn mid_inst() -> BoxedStrategy<Inst> {
    prop_oneof![
        (reg(), operand()).prop_map(|(dst, src)| Inst::Mov { dst, src }),
        (binop(), reg(), operand(), operand())
            .prop_map(|(op, dst, a, b)| Inst::Bin { op, dst, a, b }),
        (reg(), slot()).prop_map(|(dst, slot)| Inst::LoadStack { dst, slot }),
        (slot(), operand()).prop_map(|(slot, src)| Inst::StoreStack { slot, src }),
        (reg(), reg(), offset()).prop_map(|(dst, base, offset)| Inst::Load { dst, base, offset }),
        (reg(), offset(), operand()).prop_map(|(base, offset, src)| Inst::Store { base, offset, src }),
        (reg(), reg(), offset(), operand(), operand()).prop_map(
            |(dst, base, offset, expected, new)| Inst::Cas { dst, base, offset, expected, new }
        ),
        (reg(), operand()).prop_map(|(dst, size)| Inst::Alloc { dst, size }),
        reg().prop_map(|base| Inst::Free { base }),
        operand().prop_map(|lock| Inst::Lock { lock }),
        operand().prop_map(|lock| Inst::Unlock { lock }),
        Just(Inst::DurableBegin),
        Just(Inst::DurableEnd),
        Just(Inst::RegionMarker),
        // The largest delay the parser accepts is the edge value.
        prop_oneof![3 => 0u64..10_000, 1 => Just(ido_vm::MAX_CLOCK_NS)]
            .prop_map(|ns| Inst::Delay { ns }),
        (operand(), prop::bool::ANY).prop_map(|(kind, begin)| Inst::OpMark { kind, begin }),
        // Calls target the fixed one-parameter helper (FuncId 0).
        (operand(), reg(), prop::bool::ANY).prop_map(|(arg, r, wants_ret)| Inst::Call {
            func: FuncId(0),
            args: vec![arg],
            ret: wants_ret.then_some(r),
        }),
        rt_op().prop_map(Inst::Rt),
        rt_op().prop_map(Inst::Rt),
        rt_op().prop_map(Inst::Rt),
    ]
    .boxed()
}

/// One block, pre-resolution: instructions plus raw terminator picks whose
/// block targets are clamped modulo the final block count.
fn raw_block() -> BoxedStrategy<(Vec<Inst>, u8, u32, u32, Operand)> {
    (
        prop::collection::vec(mid_inst(), 0..6),
        0u8..3,
        0u32..8,
        0u32..8,
        operand(),
    )
        .boxed()
}

/// The fixed callee every generated `call` targets.
fn helper() -> Function {
    let r0 = Reg::int(0);
    Function::from_raw_parts(
        "helper".to_string(),
        vec![r0],
        vec![BasicBlock { insts: vec![Inst::Ret { val: Some(Operand::Reg(r0)) }] }],
        NUM_REGS,
        NUM_SLOTS,
    )
}

fn assemble(name: &str, raw: Vec<(Vec<Inst>, u8, u32, u32, Operand)>) -> Function {
    let n = raw.len() as u32;
    let blocks = raw
        .into_iter()
        .map(|(mut insts, kind, t1, t2, cond)| {
            insts.push(match kind {
                0 => Inst::Ret { val: (t1 & 1 == 1).then_some(cond) },
                1 => Inst::Jump { target: BlockId(t1 % n) },
                _ => Inst::Branch { cond, then_bb: BlockId(t1 % n), else_bb: BlockId(t2 % n) },
            });
            BasicBlock { insts }
        })
        .collect();
    Function::from_raw_parts(
        name.to_string(),
        vec![Reg::int(0), Reg::int(1)],
        blocks,
        NUM_REGS,
        NUM_SLOTS,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: pretty-print a random program, re-parse it,
    /// and the structures must be equal — and the text a fixpoint.
    #[test]
    fn parse_pretty_roundtrip(
        worker_raw in prop::collection::vec(raw_block(), 1..4),
        extra_raw in prop::collection::vec(raw_block(), 1..3),
    ) {
        let mut program = Program::new();
        program.add_function(helper());
        program.add_function(assemble("worker", worker_raw));
        // A name the pretty-printer must quote (space + punctuation).
        program.add_function(assemble("odd name!", extra_raw));

        let printed = format!("{program}");
        let reparsed = parse_program_text(&printed)
            .unwrap_or_else(|e| panic!("reparse failed:\n{}", e.render("fuzz", &printed)))
            .program;
        prop_assert_eq!(&reparsed, &program, "structures diverge for:\n{}", printed);
        prop_assert_eq!(format!("{reparsed}"), printed, "pretty-print is not a fixpoint");
    }
}

/// The quoting helper the fuzzer leans on must stay in the canonical form
/// the parser understands (a guard for the `FnName` escape rules).
#[test]
fn quoted_names_round_trip_exactly() {
    for name in ["odd name!", "tab\there", "quote\"inside", "back\\slash", ""] {
        let quoted = format!("{}", FnName(name));
        let src = format!("fn {quoted}() regs=1 slots=0 {{\n  bb0:\n    ret\n}}\n");
        let p = parse_program_text(&src)
            .unwrap_or_else(|e| panic!("{}", e.render("quoting", &src)))
            .program;
        assert_eq!(p.functions()[0].name(), name);
        assert_eq!(format!("{p}"), src);
    }
}
