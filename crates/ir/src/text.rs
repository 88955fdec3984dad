//! The canonical textual format, read back.
//!
//! The pretty-printer (`Display` for [`Program`](crate::Program)) writes
//! the format; this module reads it: a [`lexer`], a recursive-descent
//! [`parser`] whose grammar is exactly the printer's output, and spanned
//! [`diag`]nostics. A `.ido` file is a `scenario … { … }` header followed
//! by a program section; the header belongs to `ido-lang`, and
//! [`parse_program_section`] reads the program section without
//! interpreting the header.

pub mod diag;
pub mod lexer;
pub mod parser;

pub use diag::{Label, LangError, Span};
pub use parser::{parse_program_text, ParsedProgram};

use lexer::{lex, Cursor, Tok};
use parser::parse_program_tokens;

/// Longest `delay` the format accepts, in ns: the range of the VM's
/// simulated clock (`ido_vm::MAX_CLOCK_NS`, which asserts it equals this),
/// so that one delay alone never leaves it.
pub const MAX_DELAY_NS: u64 = (1 << 48) - 2;

/// Parses the program section of a `.ido` file, skipping the
/// `scenario <name> { … }` header token by token without interpreting it.
///
/// # Errors
/// Returns the first spanned [`LangError`] of the header's tokens or of the
/// program, or one at the end of input when the file has no program
/// section.
pub fn parse_program_section(source: &str) -> Result<ParsedProgram, LangError> {
    let mut c = Cursor::new(lex(source)?);
    c.eat_newlines();
    c.expect_keyword("scenario", "to start the file")?;
    c.expect_ident("as the scenario name")?;
    let open = c.expect(Tok::LBrace, "to open the scenario block")?;
    loop {
        match c.bump().tok {
            Tok::RBrace => break,
            Tok::Eof => {
                return Err(LangError::new("unclosed scenario block", c.prev_span(), "file ends here")
                    .with_note(open.span, "opened here"))
            }
            _ => {}
        }
    }
    c.eat_newlines();
    if c.peek().tok == Tok::Eof {
        return Err(LangError::new("the file has no program section", c.peek().span, "expected `fn`"));
    }
    parse_program_tokens(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_program_section_parses_as_the_program_text_does() {
        let program = "fn worker(r0) regs=1 slots=0 {\n  bb0:\n    ret\n}\n";
        let file = format!("# a note\nscenario s {{\n  workload stack\n  expect ido ge atlas  \"why\"\n}}\n\n{program}");
        assert_eq!(parse_program_section(&file).unwrap(), parse_program_text(program).unwrap());
    }

    #[test]
    fn a_header_alone_or_unclosed_is_an_error() {
        let e = parse_program_section("scenario s {\n  workload stack\n}\n").unwrap_err();
        assert!(e.message.contains("no program section"), "{e:?}");
        let e = parse_program_section("scenario s {\n  workload stack\n").unwrap_err();
        assert!(e.message.contains("unclosed"), "{e:?}");
    }
}
