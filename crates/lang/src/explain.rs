//! Rendering verifier diagnostics against a source listing.
//!
//! `ido-verify` diagnostics point into the **instrumented** program —
//! `(function, block, index)` positions that exist only after the
//! per-scheme instrumentation pass ran, so they have no spans into the
//! original `.ido` file. The [`Listing`] bridges that gap: it
//! pretty-prints the instrumented program with line numbers and maps
//! every instruction position to its line, so a witness path renders as
//! a sequence of real, numbered source lines with the violating
//! instruction underlined.

use std::collections::HashMap;
use std::fmt::Write as _;

use ido_compiler::Scheme;
use ido_ir::Program;
use ido_verify::Diagnostic;

use crate::scenario::Fault;

/// A line-numbered pretty-printed program with a position index.
pub struct Listing {
    lines: Vec<String>,
    /// `(function name, block id, instruction index)` → 0-based line.
    index: HashMap<(String, u32, u32), usize>,
}

impl Listing {
    /// Builds the listing for `program` (typically the *instrumented*
    /// program a verifier run was pointed at).
    pub fn new(program: &Program) -> Listing {
        let lines: Vec<String> = program.to_string().lines().map(String::from).collect();
        // Walk the shape `Display` prints: a blank line between functions,
        // the `fn` header, then per block its `bbN:` label and one line per
        // instruction, then the closing brace.
        let mut index = HashMap::new();
        let mut line = 0;
        for (fi, func) in program.functions().iter().enumerate() {
            line += if fi > 0 { 2 } else { 1 };
            for (bi, bb) in func.blocks().iter().enumerate() {
                line += 1;
                for ii in 0..bb.insts.len() {
                    index.insert((func.name().to_string(), bi as u32, ii as u32), line);
                    line += 1;
                }
            }
            line += 1;
        }
        debug_assert_eq!(line, lines.len(), "one line per printed item");
        Listing { lines, index }
    }

    /// The full listing text (identical to the program's `Display`).
    pub fn text(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }

    /// 1-based line number of an instruction, if the position exists.
    pub fn line_of(&self, function: &str, block: u32, inst: u32) -> Option<usize> {
        self.index.get(&(function.to_string(), block, inst)).map(|&l| l + 1)
    }

    /// Text of a 1-based line.
    pub fn line_text(&self, line: usize) -> Option<&str> {
        self.lines.get(line.checked_sub(1)?).map(String::as_str)
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when the listing is empty (an empty program).
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Renders one verifier diagnostic against the listing: an
/// `error[invariant]` header, the violating instruction excerpted with a
/// caret run, then the witness path as numbered, line-anchored steps.
pub fn render_diagnostic(d: &Diagnostic, listing: &Listing) -> String {
    let mut out = format!("error[{}]: {}\n", d.invariant, d.message);
    let _ = writeln!(out, "  scheme {}, function `{}`", d.scheme, d.function);

    if let Some((b, i)) = d.pos {
        excerpt(&mut out, listing, &d.function, b.0, i as u32, "violating instruction");
    }

    // Witness path: origin first, violation last.
    if !d.witness.is_empty() {
        let _ = writeln!(out, "  witness path:");
        for (step, &(b, i)) in d.witness.iter().enumerate() {
            match listing.line_of(&d.function, b.0, i as u32) {
                Some(line) => {
                    let text = listing.line_text(line).map(str::trim_start).unwrap_or("");
                    let _ = writeln!(
                        out,
                        "    {}. b{}:{} line {line}: {text}",
                        step + 1,
                        b.0,
                        i
                    );
                }
                None => {
                    let _ = writeln!(out, "    {}. b{}:{} (not in listing)", step + 1, b.0, i);
                }
            }
        }
    }
    out
}

/// Renders a fault a run stopped with against the listing of the
/// instrumented program it ran: a `fault` header naming the thread and what
/// failed, then the faulting instruction excerpted with a caret run.
pub fn render_fault(fault: &Fault, scheme: Scheme, listing: &Listing) -> String {
    let mut out = format!("fault: thread {}: {}\n", fault.thread, fault.kind);
    let _ = writeln!(out, "  scheme {scheme}, function `{}`", fault.function);
    excerpt(&mut out, listing, &fault.function, fault.block, fault.index, "faulting instruction");
    out
}

/// Appends the instruction at `(function, block, inst)` to `out`, anchored
/// to its listing line, with a caret run under it labelled `label`.
fn excerpt(out: &mut String, listing: &Listing, function: &str, block: u32, inst: u32, label: &str) {
    match listing.line_of(function, block, inst) {
        Some(line) => {
            let text = listing.line_text(line).unwrap_or("");
            let lineno = format!("{line}");
            let pad = " ".repeat(lineno.len());
            let _ = writeln!(out, "  --> listing line {line} (b{block}:{inst})");
            let _ = writeln!(out, "   {lineno} | {text}");
            let indent = text.len() - text.trim_start().len();
            let carets = "^".repeat(text.trim_start().len().max(1));
            let _ = writeln!(out, "   {pad} | {}{carets} {label}", " ".repeat(indent));
        }
        None => {
            let _ = writeln!(out, "  at b{block}:{inst} (position not in listing)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_ir::text::parse_program_text;
    use ido_ir::BlockId;
    use ido_vm::FaultKind;
    use ido_verify::Invariant;

    fn demo_program() -> Program {
        parse_program_text(
            "fn worker(r0) regs=2 slots=0 {\n  bb0:\n    lock r0\n    mem[r0+8] = 1\n    unlock r0\n    ret\n}\n",
        )
        .unwrap()
        .program
    }

    #[test]
    fn listing_matches_program_display_and_indexes_lines() {
        let p = demo_program();
        let l = Listing::new(&p);
        assert_eq!(l.text(), format!("{p}"));
        assert_eq!(l.line_of("worker", 0, 0), Some(3));
        assert_eq!(l.line_text(3), Some("    lock r0"));
        assert_eq!(l.line_of("worker", 0, 3), Some(6));
        assert_eq!(l.line_of("worker", 9, 0), None);
        assert_eq!(l.line_of("nope", 0, 0), None);
        assert!(!l.is_empty());
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn render_shows_caret_and_witness_lines() {
        let p = demo_program();
        let l = Listing::new(&p);
        let d = Diagnostic {
            scheme: Scheme::Ido,
            function: "worker".into(),
            pos: Some((BlockId(0), 1)),
            invariant: Invariant::BoundaryCoverage,
            message: "store not covered by a boundary".into(),
            witness: vec![(BlockId(0), 0), (BlockId(0), 1)],
        };
        let r = render_diagnostic(&d, &l);
        assert!(r.contains("error[boundary-coverage]: store not covered"), "{r}");
        assert!(r.contains("scheme iDO, function `worker`"), "{r}");
        assert!(r.contains("--> listing line 4 (b0:1)"), "{r}");
        assert!(r.contains("    mem[r0+8] = 1"), "{r}");
        assert!(r.contains("^^^^^^^^^^^^^ violating instruction"), "{r}");
        assert!(r.contains("1. b0:0 line 3: lock r0"), "{r}");
        assert!(r.contains("2. b0:1 line 4: mem[r0+8] = 1"), "{r}");
    }

    #[test]
    fn a_fault_renders_at_its_instruction() {
        let l = Listing::new(&demo_program());
        let fault = Fault {
            thread: 1,
            function: "worker".into(),
            block: 0,
            index: 1,
            kind: FaultKind::FreeFailed { addr: 0x48 },
        };
        let r = render_fault(&fault, Scheme::Nvml, &l);
        assert!(r.starts_with("fault: thread 1: nv_free of 0x48 failed\n"), "{r}");
        assert!(r.contains("scheme NVML, function `worker`"), "{r}");
        assert!(r.contains("--> listing line 4 (b0:1)"), "{r}");
        assert!(r.contains("^^^^^^^^^^^^^ faulting instruction"), "{r}");
    }

    #[test]
    fn render_survives_positions_outside_the_listing() {
        let p = demo_program();
        let l = Listing::new(&p);
        let d = Diagnostic {
            scheme: Scheme::Atlas,
            function: "<runtime log layout>".into(),
            pos: None,
            invariant: Invariant::LogLayout,
            message: "entry straddles a cache line".into(),
            witness: vec![],
        };
        let r = render_diagnostic(&d, &l);
        assert!(r.contains("error[log-layout]"), "{r}");
        assert!(!r.contains("listing line"), "{r}");
    }
}
