//! The scenario layer of the iDO reproduction's `.ido` files.
//!
//! This crate turns `.ido` files into runnable experiments. A file has
//! two layers:
//!
//! 1. **Scenario header** — a `scenario <name> { ... }` block naming a
//!    workload (one of the harness's standard or lock-free specs),
//!    thread/op counts, the schemes to run, the execution tier, the
//!    scheduler seed, injected bugs, and optionally one crash state — which
//!    makes the file a crash-oracle reproducer ([`Scenario::reproducer`]).
//!    This crate parses it ([`parse_scenario`]).
//! 2. **Program section** — optional: a full textual IR program in the
//!    canonical format, which `ido-ir` both prints and parses
//!    (`ido_ir::text`; re-exported here as [`parse_program_text`] and
//!    [`ParsedProgram`]). When present it replaces the workload's own
//!    program, which is itself the program section of `corpus/<kind>.ido`;
//!    setup, per-thread arguments, and final-state verification still come
//!    from the named native workload.
//!
//! Everything that can go wrong carries a byte span: the [`LangError`]
//! renderer shows the offending line with a caret, plus secondary labels
//! for two-position errors (duplicate scenario keys, `regs=` bound
//! violations, call-arity mismatches).
//!
//! The [`explain`] module renders `ido-verify` diagnostics — which point
//! into the *instrumented* program — against a line-numbered listing, so
//! a witness path becomes a sequence of real source lines; a [`Fault`] a
//! run stopped with renders the same way.

#![warn(missing_docs)]

pub mod explain;
pub mod scenario;

pub use explain::{render_diagnostic, render_fault, Listing};
pub use ido_ir::text::{parse_program_text, Label, LangError, ParsedProgram, Span};
pub use scenario::{parse_scenario, scheme_ident, Fault, Scenario, ScenarioSpec, WorkloadKind};
