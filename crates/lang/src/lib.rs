//! Textual frontend for the iDO reproduction.
//!
//! This crate turns `.ido` files into runnable experiments. A file has
//! two layers:
//!
//! 1. **Scenario header** — a `scenario <name> { ... }` block naming a
//!    workload (one of the harness's standard or lock-free specs),
//!    thread/op counts, the schemes to run, the execution tier, the
//!    scheduler seed, injected bugs, and optionally one crash state — which
//!    makes the file a crash-oracle reproducer ([`Scenario::reproducer`]).
//! 2. **Program section** — optional: a full textual IR program in the
//!    canonical format (the pretty-printer's output). When present it
//!    replaces the workload's built-in program; setup, per-thread
//!    arguments, and final-state verification still come from the named
//!    native workload, which is what lets a corpus-driven run be checked
//!    byte-for-byte against its Rust-builder equivalent.
//!
//! Everything that can go wrong carries a byte span: the
//! [`diag::LangError`] renderer shows the offending line with a caret,
//! plus secondary labels for two-position errors (duplicate scenario
//! keys, `regs=` bound violations, call-arity mismatches).
//!
//! The [`explain`] module renders `ido-verify` diagnostics — which point
//! into the *instrumented* program — against a line-numbered listing, so
//! a witness path becomes a sequence of real source lines.

#![warn(missing_docs)]

pub mod diag;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod scenario;

pub use diag::{Label, LangError, Span};
pub use explain::{render_diagnostic, Listing};
pub use parser::{parse_program_text, ParsedProgram};
pub use scenario::{parse_scenario, scheme_ident, Scenario, ScenarioSpec, WorkloadKind};
