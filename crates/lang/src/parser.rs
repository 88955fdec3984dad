//! Recursive-descent parser for the canonical textual IR format.
//!
//! The grammar is exactly the output of `ido-ir`'s pretty-printer (see
//! DESIGN.md §14): a sequence of `fn` definitions, each a header carrying
//! explicit `regs=`/`slots=` counts, followed by labeled basic blocks of
//! one instruction per line. Function ids are positional (`call fnN`
//! refers to the N-th function in the file), matching the printer.
//!
//! Every parse error is a spanned [`LangError`]; structural violations
//! that involve two positions (a register above the declared `regs=`
//! count, a call to an out-of-range function) carry secondary labels.

use std::collections::HashMap;

use ido_ir::{
    verify_function, BasicBlock, BinOp, BlockId, FuncId, Function, Inst, Operand, Program, Reg,
    RtOp, StackSlot, StoreTarget,
};

use crate::diag::{LangError, Span};
use crate::lexer::{lex, Cursor, Tok};

/// A parsed program plus source positions for every instruction, keyed by
/// `(function id, block id, instruction index)`.
#[derive(Debug, Clone)]
pub struct ParsedProgram {
    /// The assembled, verified program.
    pub program: Program,
    /// Source span of each instruction line.
    pub inst_spans: HashMap<(u32, u32, u32), Span>,
    /// Source span of each function header.
    pub fn_spans: Vec<Span>,
}

/// Parses a full textual IR program.
///
/// # Errors
/// Returns the first spanned [`LangError`]: lex errors, malformed
/// instructions, non-dense block labels, register/slot ids above the
/// declared counts, out-of-range call targets, call arity mismatches, and
/// anything `ido_ir::verify_function` rejects.
pub fn parse_program_text(source: &str) -> Result<ParsedProgram, LangError> {
    Parser::new(Cursor::new(lex(source)?)).parse_program()
}

/// Parses the rest of the token stream under `c` (used by the scenario
/// layer to parse the program section after the header).
pub(crate) fn parse_program_tokens(c: Cursor) -> Result<ParsedProgram, LangError> {
    Parser::new(c).parse_program()
}

struct CallSite {
    span: Span,
    callee: FuncId,
    argc: usize,
}

struct Parser {
    c: Cursor,
    calls: Vec<CallSite>,
    /// Highest register id mentioned so far in the current function, with
    /// the span of the mention (for the `regs=` bound diagnostic).
    max_reg: Option<(u32, Span)>,
    max_slot: Option<(u32, Span)>,
}

impl Parser {
    fn new(c: Cursor) -> Parser {
        Parser { c, calls: Vec::new(), max_reg: None, max_slot: None }
    }

    // ---- numbers, registers, slots, ids ----

    fn expect_u32(&mut self, ctx: &str) -> Result<(u32, Span), LangError> {
        let (v, span) = self.c.expect_u64(ctx)?;
        u32::try_from(v).map(|v| (v, span)).map_err(|_| {
            LangError::new(format!("{ctx} does not fit in 32 bits"), span, "too large")
        })
    }

    /// `r12` / `f3` → a register. Updates the per-function max tracker.
    fn expect_reg(&mut self, ctx: &str) -> Result<(Reg, Span), LangError> {
        let (s, span) = self.c.expect_ident(ctx)?;
        match parse_reg_name(&s) {
            Some(r) => {
                self.note_reg(r, span);
                Ok((r, span))
            }
            None => Err(LangError::new(
                format!("expected register {ctx}, found `{s}`"),
                span,
                "expected `rN` or `fN`",
            )),
        }
    }

    fn expect_slot(&mut self, ctx: &str) -> Result<(StackSlot, Span), LangError> {
        let (s, span) = self.c.expect_ident(ctx)?;
        match parse_suffixed(&s, "s") {
            Some(id) => {
                let slot = StackSlot(id);
                self.note_slot(slot, span);
                Ok((slot, span))
            }
            None => Err(LangError::new(
                format!("expected stack slot {ctx}, found `{s}`"),
                span,
                "expected `sN`",
            )),
        }
    }

    fn expect_block_ref(&mut self, ctx: &str) -> Result<(BlockId, Span), LangError> {
        let (s, span) = self.c.expect_ident(ctx)?;
        match parse_suffixed(&s, "bb") {
            Some(id) => Ok((BlockId(id), span)),
            None => Err(LangError::new(
                format!("expected block label {ctx}, found `{s}`"),
                span,
                "expected `bbN`",
            )),
        }
    }

    fn note_reg(&mut self, r: Reg, span: Span) {
        if self.max_reg.map_or(true, |(m, _)| r.id > m) {
            self.max_reg = Some((r.id, span));
        }
    }

    fn note_slot(&mut self, s: StackSlot, span: Span) {
        if self.max_slot.map_or(true, |(m, _)| s.0 > m) {
            self.max_slot = Some((s.0, span));
        }
    }

    /// An operand: `rN` / `fN` / decimal immediate / `-` immediate. The
    /// printed form of `i64::MIN` (`-9223372036854775808`) parses via the
    /// u64 magnitude and a wrapping negation.
    fn expect_operand(&mut self, ctx: &str) -> Result<(Operand, Span), LangError> {
        let t = self.c.peek().clone();
        match &t.tok {
            Tok::Minus => {
                let minus = self.c.bump();
                let (v, vspan) = self.c.expect_u64(ctx)?;
                if v > (1u64 << 63) {
                    return Err(LangError::new(
                        "negative immediate below i64::MIN",
                        minus.span.to(vspan),
                        "magnitude exceeds 2^63",
                    ));
                }
                Ok((Operand::Imm((v as i64).wrapping_neg()), minus.span.to(vspan)))
            }
            Tok::Int(v) => {
                let v = *v;
                let t = self.c.bump();
                if v > i64::MAX as u64 {
                    return Err(LangError::new(
                        "immediate exceeds i64::MAX",
                        t.span,
                        "write negative immediates with a leading `-`",
                    ));
                }
                Ok((Operand::Imm(v as i64), t.span))
            }
            Tok::Ident(_) => {
                let (r, span) = self.expect_reg(ctx)?;
                Ok((Operand::Reg(r), span))
            }
            other => Err(LangError::new(
                format!("expected operand {ctx}, found {}", other.describe()),
                t.span,
                "expected a register or immediate",
            )),
        }
    }

    /// `[base+off]` / `[base-off]` address expression (after the opening
    /// bracket's *preceding* mnemonic; consumes from `[` to `]`).
    fn expect_address(&mut self, ctx: &str) -> Result<(Reg, i64, Span), LangError> {
        let open = self.c.expect(Tok::LBracket, ctx)?;
        let (base, _) = self.expect_reg("as address base")?;
        let sign = self.c.bump();
        let negative = match sign.tok {
            Tok::Plus => false,
            Tok::Minus => true,
            other => {
                return Err(LangError::new(
                    format!("expected `+` or `-` in address, found {}", other.describe()),
                    sign.span,
                    "offsets are written `[base+o]` or `[base-o]`",
                ))
            }
        };
        let (mag, mag_span) = self.c.expect_u64("as address offset")?;
        let offset = if negative {
            if mag > (1u64 << 63) {
                return Err(LangError::new(
                    "address offset below i64::MIN",
                    sign.span.to(mag_span),
                    "magnitude exceeds 2^63",
                ));
            }
            (mag as i64).wrapping_neg()
        } else {
            if mag > i64::MAX as u64 {
                return Err(LangError::new(
                    "address offset exceeds i64::MAX",
                    mag_span,
                    "too large",
                ));
            }
            mag as i64
        };
        let close = self.c.expect(Tok::RBracket, "to close the address")?;
        Ok((base, offset, open.span.to(close.span)))
    }

    // ---- program / function / block structure ----

    fn parse_program(&mut self) -> Result<ParsedProgram, LangError> {
        let mut program = Program::new();
        let mut inst_spans = HashMap::new();
        let mut fn_spans = Vec::new();
        self.c.eat_newlines();
        while self.c.peek().tok != Tok::Eof {
            let (func, header_span, spans) = self.parse_function()?;
            let fid = program.add_function(func).0;
            fn_spans.push(header_span);
            for ((b, i), s) in spans {
                inst_spans.insert((fid, b, i), s);
            }
            self.c.eat_newlines();
        }
        if program.functions().is_empty() {
            let span = self.c.peek().span;
            return Err(LangError::new(
                "empty program: no `fn` definitions",
                span,
                "expected at least one function",
            ));
        }
        // Late-validate call sites: positional `fnN` references may point
        // forward, so targets are only checkable once every function is in.
        for call in &self.calls {
            let n = program.functions().len() as u32;
            if call.callee.0 >= n {
                return Err(LangError::new(
                    format!(
                        "call target `fn{}` out of range: program has {n} function(s)",
                        call.callee.0
                    ),
                    call.span,
                    "no such function",
                ));
            }
            let callee = program.function(call.callee);
            if callee.params().len() != call.argc {
                return Err(LangError::new(
                    format!(
                        "call passes {} argument(s) but `{}` takes {}",
                        call.argc,
                        callee.name(),
                        callee.params().len()
                    ),
                    call.span,
                    "arity mismatch",
                )
                .with_note(
                    fn_spans[call.callee.0 as usize],
                    format!("`{}` defined here", callee.name()),
                ));
            }
        }
        Ok(ParsedProgram { program, inst_spans, fn_spans })
    }

    #[allow(clippy::type_complexity)]
    fn parse_function(
        &mut self,
    ) -> Result<(Function, Span, Vec<((u32, u32), Span)>), LangError> {
        self.max_reg = None;
        self.max_slot = None;
        let fn_kw = self.c.expect_keyword("fn", "to start a function")?;

        // Name: bare identifier or quoted string.
        let name_tok = self.c.bump();
        let name = match name_tok.tok {
            Tok::Ident(s) => s,
            Tok::Str(s) => s,
            other => {
                return Err(LangError::new(
                    format!("expected function name, found {}", other.describe()),
                    name_tok.span,
                    "expected a name or quoted string",
                ))
            }
        };

        // Parameter list.
        self.c.expect(Tok::LParen, "after the function name")?;
        let mut params = Vec::new();
        if self.c.peek().tok != Tok::RParen {
            loop {
                let (r, _) = self.expect_reg("as a parameter")?;
                params.push(r);
                if self.c.peek().tok == Tok::Comma {
                    self.c.bump();
                } else {
                    break;
                }
            }
        }
        self.c.expect(Tok::RParen, "to close the parameter list")?;

        // Optional explicit counts: `regs=N slots=M`.
        let mut regs_decl: Option<(u32, Span)> = None;
        let mut slots_decl: Option<(u32, Span)> = None;
        while let Tok::Ident(word) = &self.c.peek().tok {
            let which = word.clone();
            if which != "regs" && which != "slots" {
                break;
            }
            let kw = self.c.bump();
            self.c.expect(Tok::Equals, "after the count keyword")?;
            let (v, vspan) = self.expect_u32(&format!("as the `{which}` count"))?;
            let span = kw.span.to(vspan);
            if which == "regs" {
                regs_decl = Some((v, span));
            } else {
                slots_decl = Some((v, span));
            }
        }

        let brace = self.c.expect(Tok::LBrace, "to open the function body")?;
        let header_span = fn_kw.to(brace.span);
        self.c.expect_line_end("instruction continues past its statement")?;

        // Parameters count toward the register bound.
        for &p in &params {
            self.note_reg(p, header_span);
        }

        // Blocks: labels must be dense and in order (the canonical form).
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut spans: Vec<((u32, u32), Span)> = Vec::new();
        loop {
            self.c.eat_newlines();
            if self.c.peek().tok == Tok::RBrace {
                self.c.bump();
                break;
            }
            if self.c.peek().tok == Tok::Eof {
                return Err(LangError::new(
                    "unclosed function body",
                    self.c.peek().span,
                    "expected `}`",
                )
                .with_note(header_span, "function opened here"));
            }
            // A block label?
            let is_label = matches!(
                (&self.c.peek().tok, self.c.peek_second()),
                (Tok::Ident(s), Some(Tok::Colon)) if parse_suffixed(s, "bb").is_some()
            );
            if is_label {
                let (b, bspan) = self.expect_block_ref("as a block label")?;
                self.c.expect(Tok::Colon, "after the block label")?;
                self.c.expect_line_end("instruction continues past its statement")?;
                if b.0 as usize != blocks.len() {
                    return Err(LangError::new(
                        format!(
                            "block labels must be dense and in order: expected `bb{}`, found `bb{}`",
                            blocks.len(),
                            b.0
                        ),
                        bspan,
                        "out-of-order block label",
                    ));
                }
                blocks.push(BasicBlock::default());
                continue;
            }
            // An instruction line.
            let start_span = self.c.peek().span;
            if blocks.is_empty() {
                return Err(LangError::new(
                    "instruction before the first block label",
                    start_span,
                    "expected `bb0:` first",
                ));
            }
            let inst = self.parse_inst()?;
            let end_span = self.c.prev_span();
            self.c.expect_line_end("instruction continues past its statement")?;
            let b = blocks.len() - 1;
            let i = blocks[b].insts.len();
            blocks[b].insts.push(inst);
            spans.push(((b as u32, i as u32), start_span.to(end_span)));
        }

        // Resolve register/slot counts and check the declared bounds.
        let inferred_regs = self.max_reg.map_or(0, |(m, _)| m + 1);
        let inferred_slots = self.max_slot.map_or(0, |(m, _)| m + 1);
        let num_regs = match regs_decl {
            Some((n, decl_span)) => {
                if let Some((m, use_span)) = self.max_reg.filter(|&(m, _)| m >= n) {
                    return Err(LangError::new(
                        format!("register r{m} is out of range: header declares regs={n}"),
                        use_span,
                        "register id above the declared count",
                    )
                    .with_note(decl_span, "count declared here"));
                }
                n
            }
            None => inferred_regs,
        };
        let num_slots = match slots_decl {
            Some((n, decl_span)) => {
                if let Some((m, use_span)) = self.max_slot.filter(|&(m, _)| m >= n) {
                    return Err(LangError::new(
                        format!("stack slot s{m} is out of range: header declares slots={n}"),
                        use_span,
                        "slot id above the declared count",
                    )
                    .with_note(decl_span, "count declared here"));
                }
                n
            }
            None => inferred_slots,
        };

        let func = Function::from_raw_parts(name, params, blocks, num_regs, num_slots);
        if let Err(e) = verify_function(&func) {
            return Err(LangError::new(
                format!("function fails IR verification: {e}"),
                header_span,
                "in this function",
            ));
        }
        Ok((func, header_span, spans))
    }

    // ---- instructions ----

    fn parse_inst(&mut self) -> Result<Inst, LangError> {
        let t = self.c.peek().clone();
        let Tok::Ident(word) = &t.tok else {
            return Err(LangError::new(
                format!("expected an instruction, found {}", t.tok.describe()),
                t.span,
                "not a known instruction",
            ));
        };
        let word = word.clone();

        // Assignment forms start with a destination register.
        if parse_reg_name(&word).is_some() {
            let (dst, dspan) = self.expect_reg("as destination")?;
            self.c.expect(Tok::Equals, "after the destination register")?;
            return self.parse_assign_rhs(dst, dspan);
        }

        match word.as_str() {
            "mem" => {
                self.c.bump();
                let (base, offset, _) = self.expect_address("after `mem`")?;
                self.c.expect(Tok::Equals, "after the store address")?;
                let (src, _) = self.expect_operand("as the stored value")?;
                Ok(Inst::Store { base, offset, src })
            }
            "stack" => {
                self.c.bump();
                self.c.expect(Tok::LBracket, "after `stack`")?;
                let (slot, _) = self.expect_slot("as the stored slot")?;
                self.c.expect(Tok::RBracket, "to close the slot")?;
                self.c.expect(Tok::Equals, "after the slot")?;
                let (src, _) = self.expect_operand("as the stored value")?;
                Ok(Inst::StoreStack { slot, src })
            }
            "free" => {
                self.c.bump();
                let (base, _) = self.expect_reg("as the freed address")?;
                Ok(Inst::Free { base })
            }
            "lock" => {
                self.c.bump();
                let (lock, _) = self.expect_operand("as the lock token")?;
                Ok(Inst::Lock { lock })
            }
            "unlock" => {
                self.c.bump();
                let (lock, _) = self.expect_operand("as the lock token")?;
                Ok(Inst::Unlock { lock })
            }
            "durable_begin" => {
                self.c.bump();
                Ok(Inst::DurableBegin)
            }
            "durable_end" => {
                self.c.bump();
                Ok(Inst::DurableEnd)
            }
            "region_marker" => {
                self.c.bump();
                Ok(Inst::RegionMarker)
            }
            "call" => {
                self.c.bump();
                let (func, args) = self.parse_call_tail()?;
                Ok(Inst::Call { func, args, ret: None })
            }
            "delay" => {
                self.c.bump();
                let (ns, span) = self.c.expect_u64("as the delay")?;
                // One delay alone would leave the range the VM's scheduler
                // orders clocks in; a sum that does is a run-time failure.
                if ns > ido_vm::MAX_CLOCK_NS {
                    return Err(LangError::new(
                        format!(
                            "delay of {ns} ns exceeds the simulated clock's range \
                             (at most {} ns, about 3.26 simulated days)",
                            ido_vm::MAX_CLOCK_NS
                        ),
                        span,
                        "too long",
                    ));
                }
                self.c.expect_keyword("ns", "after the delay value")?;
                Ok(Inst::Delay { ns })
            }
            "op_begin" => {
                self.c.bump();
                let (kind, _) = self.expect_operand("as the op kind")?;
                Ok(Inst::OpMark { kind, begin: true })
            }
            "op_end" => {
                self.c.bump();
                let (kind, _) = self.expect_operand("as the op kind")?;
                Ok(Inst::OpMark { kind, begin: false })
            }
            "jump" => {
                self.c.bump();
                let (target, _) = self.expect_block_ref("as the jump target")?;
                Ok(Inst::Jump { target })
            }
            "br" => {
                self.c.bump();
                let (cond, _) = self.expect_operand("as the branch condition")?;
                self.c.expect(Tok::Question, "after the branch condition")?;
                let (then_bb, _) = self.expect_block_ref("as the taken target")?;
                self.c.expect(Tok::Colon, "between branch targets")?;
                let (else_bb, _) = self.expect_block_ref("as the fall-through target")?;
                Ok(Inst::Branch { cond, then_bb, else_bb })
            }
            "ret" => {
                self.c.bump();
                if matches!(self.c.peek().tok, Tok::Newline | Tok::Eof) {
                    Ok(Inst::Ret { val: None })
                } else {
                    let (val, _) = self.expect_operand("as the return value")?;
                    Ok(Inst::Ret { val: Some(val) })
                }
            }
            w if w.starts_with("rt.") => self.parse_rt(),
            _ => Err(LangError::new(
                format!("unknown instruction `{word}`"),
                t.span,
                "not a known instruction",
            )),
        }
    }

    fn parse_assign_rhs(&mut self, dst: Reg, _dspan: Span) -> Result<Inst, LangError> {
        let t = self.c.peek().clone();
        match &t.tok {
            Tok::Int(_) | Tok::Minus => {
                let (src, _) = self.expect_operand("as the moved value")?;
                Ok(Inst::Mov { dst, src })
            }
            Tok::Ident(word) => {
                let word = word.clone();
                if let Some(op) = parse_binop_name(&word) {
                    self.c.bump();
                    let (a, _) = self.expect_operand("as the left operand")?;
                    self.c.expect(Tok::Comma, "between operands")?;
                    let (b, _) = self.expect_operand("as the right operand")?;
                    return Ok(Inst::Bin { op, dst, a, b });
                }
                match word.as_str() {
                    "mem" => {
                        self.c.bump();
                        let (base, offset, _) = self.expect_address("after `mem`")?;
                        Ok(Inst::Load { dst, base, offset })
                    }
                    "stack" => {
                        self.c.bump();
                        self.c.expect(Tok::LBracket, "after `stack`")?;
                        let (slot, _) = self.expect_slot("as the loaded slot")?;
                        self.c.expect(Tok::RBracket, "to close the slot")?;
                        Ok(Inst::LoadStack { dst, slot })
                    }
                    "cas" => {
                        self.c.bump();
                        self.c.expect_keyword("mem", "after `cas`")?;
                        let (base, offset, _) = self.expect_address("after `cas mem`")?;
                        let (expected, _) = self.expect_operand("as the expected value")?;
                        self.c.expect(Tok::Arrow, "between expected and new values")?;
                        let (new, _) = self.expect_operand("as the new value")?;
                        Ok(Inst::Cas { dst, base, offset, expected, new })
                    }
                    "alloc" => {
                        self.c.bump();
                        let (size, _) = self.expect_operand("as the allocation size")?;
                        Ok(Inst::Alloc { dst, size })
                    }
                    "call" => {
                        self.c.bump();
                        let (func, args) = self.parse_call_tail()?;
                        Ok(Inst::Call { func, args, ret: Some(dst) })
                    }
                    _ => {
                        // A bare register: `r1 = r0`.
                        let (src, _) = self.expect_operand("as the moved value")?;
                        Ok(Inst::Mov { dst, src })
                    }
                }
            }
            other => Err(LangError::new(
                format!("expected a value after `=`, found {}", other.describe()),
                t.span,
                "not a valid right-hand side",
            )),
        }
    }

    /// `fnN(arg, ...)` after the `call` keyword. Records the site for
    /// late validation of target range and arity.
    fn parse_call_tail(&mut self) -> Result<(FuncId, Vec<Operand>), LangError> {
        let (s, span) = self.c.expect_ident("as the call target")?;
        let Some(id) = parse_suffixed(&s, "fn") else {
            return Err(LangError::new(
                format!("expected call target `fnN`, found `{s}`"),
                span,
                "functions are called by positional id",
            ));
        };
        self.c.expect(Tok::LParen, "to open the argument list")?;
        let mut args = Vec::new();
        if self.c.peek().tok != Tok::RParen {
            loop {
                let (a, _) = self.expect_operand("as a call argument")?;
                args.push(a);
                if self.c.peek().tok == Tok::Comma {
                    self.c.bump();
                } else {
                    break;
                }
            }
        }
        let close = self.c.expect(Tok::RParen, "to close the argument list")?;
        self.calls.push(CallSite {
            span: span.to(close.span),
            callee: FuncId(id),
            argc: args.len(),
        });
        Ok((FuncId(id), args))
    }

    /// `regs=[r1,r2]`-style bracketed register or slot list.
    fn parse_reg_list(&mut self, kw: &str) -> Result<Vec<Reg>, LangError> {
        self.c.expect_keyword(kw, "in the boundary operand list")?;
        self.c.expect(Tok::Equals, "after the list keyword")?;
        self.c.expect(Tok::LBracket, "to open the list")?;
        let mut v = Vec::new();
        if self.c.peek().tok != Tok::RBracket {
            loop {
                let (r, _) = self.expect_reg("in the register list")?;
                v.push(r);
                if self.c.peek().tok == Tok::Comma {
                    self.c.bump();
                } else {
                    break;
                }
            }
        }
        self.c.expect(Tok::RBracket, "to close the list")?;
        Ok(v)
    }

    fn parse_slot_list(&mut self, kw: &str) -> Result<Vec<StackSlot>, LangError> {
        self.c.expect_keyword(kw, "in the boundary operand list")?;
        self.c.expect(Tok::Equals, "after the list keyword")?;
        self.c.expect(Tok::LBracket, "to open the list")?;
        let mut v = Vec::new();
        if self.c.peek().tok != Tok::RBracket {
            loop {
                let (s, _) = self.expect_slot("in the slot list")?;
                v.push(s);
                if self.c.peek().tok == Tok::Comma {
                    self.c.bump();
                } else {
                    break;
                }
            }
        }
        self.c.expect(Tok::RBracket, "to close the list")?;
        Ok(v)
    }

    /// Either `[base+o]` or `stack[sN]` — the two forms `rt.store_record`
    /// prints its target in.
    fn parse_store_target(&mut self) -> Result<StoreTarget, LangError> {
        let ctx = "as the recorded location";
        if matches!(&self.c.peek().tok, Tok::Ident(w) if w == "stack") {
            self.c.bump();
            self.c.expect(Tok::LBracket, "after `stack`")?;
            let (slot, _) = self.expect_slot(ctx)?;
            self.c.expect(Tok::RBracket, "to close the slot")?;
            Ok(StoreTarget::Stack(slot))
        } else {
            let (base, offset, _) = self.expect_address(ctx)?;
            Ok(StoreTarget::Heap { base, offset })
        }
    }

    fn parse_rt(&mut self) -> Result<Inst, LangError> {
        let (word, span) = self.c.expect_ident("as a runtime op")?;
        let rt = match word.as_str() {
            "rt.fase_begin" => RtOp::FaseBegin,
            "rt.fase_end" => RtOp::FaseEnd,
            "rt.tx_begin" => RtOp::TxBegin,
            "rt.tx_commit" => RtOp::TxCommit,
            "rt.lf_flush_window" => RtOp::LfFlushWindow,
            "rt.ido_boundary" => {
                let out_regs = self.parse_reg_list("regs")?;
                let out_slots = self.parse_slot_list("slots")?;
                RtOp::IdoBoundary { out_regs, out_slots }
            }
            "rt.lock_acquired" => {
                let (lock, _) = self.expect_operand("as the lock token")?;
                RtOp::LockAcquired { lock }
            }
            "rt.lock_releasing" => {
                let (lock, _) = self.expect_operand("as the lock token")?;
                RtOp::LockReleasing { lock }
            }
            "rt.justdo_shadow" => {
                let (reg, _) = self.expect_reg("as the shadowed register")?;
                RtOp::JustDoShadow { reg }
            }
            "rt.store_record" => {
                let target = self.parse_store_target()?;
                self.c.expect(Tok::LArrow, "before the recorded value")?;
                let (value, _) = self.expect_operand("as the recorded value")?;
                RtOp::StoreRecord { target, value }
            }
            "rt.lf_cas_prepare" => {
                let (base, offset, _) = self.expect_address("as the CAS cell")?;
                let (expected, _) = self.expect_operand("as the expected value")?;
                self.c.expect(Tok::Arrow, "between expected and new values")?;
                let (new, _) = self.expect_operand("as the new value")?;
                RtOp::LfCasPrepare { base, offset, expected, new }
            }
            "rt.lf_cas_publish" => {
                let (base, offset, _) = self.expect_address("as the CAS cell")?;
                self.c.expect_keyword("taken", "after the CAS cell")?;
                self.c.expect(Tok::Equals, "after `taken`")?;
                let (taken, _) = self.expect_reg("as the CAS result register")?;
                RtOp::LfCasPublish { base, offset, taken }
            }
            _ => {
                return Err(LangError::new(
                    format!("unknown runtime op `{word}`"),
                    span,
                    "not a known `rt.` mnemonic",
                ))
            }
        };
        Ok(Inst::Rt(rt))
    }
}

/// `r12` / `f3` → a register, or `None` if the name is not a register.
fn parse_reg_name(s: &str) -> Option<Reg> {
    if let Some(id) = parse_suffixed(s, "r") {
        Some(Reg::int(id))
    } else {
        parse_suffixed(s, "f").map(Reg::float)
    }
}

/// `<prefix><digits>` → the digits as a u32 (no extra characters, at
/// least one digit, must fit).
fn parse_suffixed(s: &str, prefix: &str) -> Option<u32> {
    let digits = s.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn parse_binop_name(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedProgram {
        parse_program_text(src).unwrap_or_else(|e| panic!("{}", e.render("test.ido", src)))
    }

    #[test]
    fn round_trips_a_simple_function() {
        let src = "fn demo(r0) regs=2 slots=0 {\n  bb0:\n    r1 = add r0, 1\n    mem[r1+8] = 7\n    ret r1\n}\n";
        let p = parse(src);
        assert_eq!(format!("{}", p.program), src);
    }

    #[test]
    fn negative_offsets_and_immediates_round_trip() {
        let src = "fn demo(r0) regs=2 slots=0 {\n  bb0:\n    r1 = -9223372036854775808\n    mem[r0-8] = r1\n    r1 = mem[r0-9223372036854775808]\n    ret\n}\n";
        let p = parse(src);
        assert_eq!(format!("{}", p.program), src);
        let f = p.program.function(FuncId(0));
        assert!(matches!(
            f.block(BlockId(0)).insts[0],
            Inst::Mov { src: Operand::Imm(i64::MIN), .. }
        ));
        assert!(matches!(
            f.block(BlockId(0)).insts[2],
            Inst::Load { offset: i64::MIN, .. }
        ));
    }

    #[test]
    fn quoted_names_round_trip() {
        let src = "fn \"list push\"() regs=0 slots=0 {\n  bb0:\n    ret\n}\n";
        let p = parse(src);
        assert_eq!(p.program.function(FuncId(0)).name(), "list push");
        assert_eq!(format!("{}", p.program), src);
    }

    #[test]
    fn calls_branches_and_slots_parse() {
        let src = "fn main() regs=1 slots=1 {\n  bb0:\n    stack[s0] = 5\n    r0 = call fn1(3, r0)\n    br r0 ? bb1 : bb2\n  bb1:\n    ret r0\n  bb2:\n    jump bb1\n}\n\nfn callee(r0, r1) regs=2 slots=0 {\n  bb0:\n    ret r0\n}\n";
        let p = parse(src);
        assert_eq!(p.program.functions().len(), 2);
        assert_eq!(format!("{}", p.program), src);
    }

    #[test]
    fn rt_ops_round_trip() {
        let src = "fn w(r0, r1) regs=6 slots=1 {\n  bb0:\n    rt.fase_begin\n    rt.ido_boundary regs=[r1,r2] slots=[s0]\n    rt.lock_acquired r0\n    rt.store_record [r0+0] <- r1\n    rt.store_record stack[s0] <- 3\n    rt.store_record [r0-8] <- -1\n    rt.lock_releasing 4096\n    rt.lf_flush_window\n    rt.lf_cas_prepare [r0+0] r1 -> 7\n    r5 = cas mem[r0+0] r1 -> 7\n    rt.lf_cas_publish [r0+0] taken=r5\n    rt.justdo_shadow r5\n    rt.fase_end\n    ret\n}\n";
        let p = parse(src);
        assert_eq!(format!("{}", p.program), src);
    }

    #[test]
    fn op_marks_delay_locks_alloc_round_trip() {
        let src = "fn w(r0) regs=2 slots=0 {\n  bb0:\n    op_begin 1\n    lock r0\n    r1 = alloc 64\n    free r1\n    durable_begin\n    delay 100ns\n    durable_end\n    unlock r0\n    op_end 1\n    region_marker\n    ret\n}\n";
        let p = parse(src);
        assert_eq!(format!("{}", p.program), src);
    }

    #[test]
    fn inst_spans_cover_source_lines() {
        let src = "fn w() regs=1 slots=0 {\n  bb0:\n    r0 = 1\n    ret r0\n}\n";
        let p = parse(src);
        let span = p.inst_spans[&(0, 0, 0)];
        assert_eq!(&src[span.start..span.end], "r0 = 1");
        let span = p.inst_spans[&(0, 0, 1)];
        assert_eq!(&src[span.start..span.end], "ret r0");
    }

    #[test]
    fn reg_above_declared_count_is_a_two_label_error() {
        let src = "fn w() regs=1 slots=0 {\n  bb0:\n    r4 = 1\n    ret\n}\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("r4"), "{e:?}");
        assert!(e.message.contains("regs=1"), "{e:?}");
        assert_eq!(&src[e.primary.span.start..e.primary.span.end], "r4");
        assert_eq!(e.secondary.len(), 1);
        assert_eq!(
            &src[e.secondary[0].span.start..e.secondary[0].span.end],
            "regs=1"
        );
    }

    #[test]
    fn missing_counts_are_inferred() {
        let src = "fn w(r0) {\n  bb0:\n    r3 = add r0, 1\n    stack[s2] = r3\n    ret\n}\n";
        let p = parse(src);
        let f = p.program.function(FuncId(0));
        assert_eq!(f.num_regs(), 4);
        assert_eq!(f.num_stack_slots(), 3);
    }

    #[test]
    fn out_of_range_call_target_is_caught() {
        let src = "fn w() regs=0 slots=0 {\n  bb0:\n    call fn7()\n    ret\n}\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("fn7"), "{e:?}");
    }

    #[test]
    fn call_arity_mismatch_points_at_both_sites() {
        let src = "fn w() regs=0 slots=0 {\n  bb0:\n    call fn1(1, 2)\n    ret\n}\n\nfn callee(r0) regs=1 slots=0 {\n  bb0:\n    ret\n}\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("2 argument"), "{e:?}");
        assert_eq!(e.secondary.len(), 1, "{e:?}");
    }

    #[test]
    fn non_dense_block_labels_are_rejected() {
        let src = "fn w() regs=0 slots=0 {\n  bb0:\n    ret\n  bb2:\n    ret\n}\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("expected `bb1`"), "{e:?}");
    }

    #[test]
    fn missing_terminator_is_reported_via_ir_verify() {
        let src = "fn w() regs=1 slots=0 {\n  bb0:\n    r0 = 1\n}\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("verification"), "{e:?}");
    }

    #[test]
    fn unclosed_body_points_at_the_header() {
        let src = "fn w() regs=0 slots=0 {\n  bb0:\n    ret\n";
        let e = parse_program_text(src).unwrap_err();
        assert!(e.message.contains("unclosed"), "{e:?}");
        assert_eq!(e.secondary.len(), 1);
    }
}
