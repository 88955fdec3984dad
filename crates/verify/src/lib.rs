//! `ido-verify`: a static FASE-atomicity verifier for instrumented IR.
//!
//! The crash oracle (`ido-crashtest`) finds atomicity bugs *dynamically*,
//! one persist-boundary × lost-line subset at a time. This crate closes
//! the coverage gap from the other side: the schemes' guarantees are
//! compiler invariants — every idempotent region's live-ins are logged
//! before the region executes, antidependences are cut, every baseline
//! store has its log record — so they can be proved or refuted
//! *structurally* on `ido-ir`, for every path at once, the way NVTraverse
//! proves durability by invariants rather than exploration.
//!
//! Three entry points:
//!
//! - [`verify_instrumented`] — check one lowered program against a
//!   [`RuntimeModel`], returning structured [`Diagnostic`]s.
//! - [`compile_verified`] — the compiler wiring: instrument, then fail the
//!   build on any violation.
//! - [`lint_workloads`] — sweep every standard workload under every
//!   scheme (the CI lint gate).
//!
//! [`differential`] cross-checks each static verdict against a targeted
//! crash-oracle exploration of the same program: disagreement in either
//! direction is itself a bug in the analysis.

#![deny(missing_docs)]

use ido_compiler::{instrument_program, CompileError, FaseMap, Instrumented, Scheme};
use ido_ir::cfg::Cfg;
use ido_ir::{BlockId, Inst, MemEffect, Program};
use ido_workloads::standard_specs;

pub mod diag;
pub mod differential;
mod ido;
mod baselines;
mod lockfree;
pub mod model;

pub use diag::{Diagnostic, Invariant};
pub use differential::{differential, differential_all, DifferentialReport};
pub use model::RuntimeModel;

/// Statically verifies one instrumented program against `model`.
///
/// Returns every invariant violation found; an empty vector is a proof
/// (relative to the analysis' precision — see the module docs of
/// [`mod@diag`] for the invariants and their soundness caveats) that no
/// reachable crash state violates the scheme's atomicity contract.
pub fn verify_instrumented(inst: &Instrumented, model: &RuntimeModel) -> Vec<Diagnostic> {
    let mut diags = model.layout_diagnostics(inst.scheme);
    for func in inst.program.functions() {
        if inst.scheme.is_lockfree() {
            // No lock-delineated FASEs: the recoverable-CAS contract
            // replaces the region/log invariants wholesale.
            lockfree::check(func, inst.scheme, model, &mut diags);
            continue;
        }
        if inst.scheme == Scheme::Origin {
            continue; // no durability promise, no obligations
        }
        let cfg = Cfg::new(func);
        let fase = match FaseMap::analyze(func, &cfg) {
            Ok(f) => f,
            Err(e) => {
                diags.push(Diagnostic {
                    scheme: inst.scheme,
                    function: func.name().to_string(),
                    pos: None,
                    invariant: Invariant::LockRecord,
                    message: format!("FASE structure unanalyzable on instrumented code: {e}"),
                    witness: Vec::new(),
                });
                continue;
            }
        };
        if fase.fase_inst_count() == 0 {
            continue; // no FASE, no durability obligations
        }
        baselines::check(func, inst.scheme, &cfg, &fase, &mut diags);
        if inst.scheme == Scheme::Ido {
            ido::check(func, &cfg, &fase, model, &mut diags);
        }
    }
    diags
}

/// True for what a crash can tear and every scheme must protect: a store, a
/// stack store or a CAS.
fn writes_memory(inst: &Inst) -> bool {
    matches!(inst.mem_effect(), Some(MemEffect { writes: Some(_), .. }))
}

/// The RPO forward fixpoint the dataflow checks share: `(block_in,
/// block_out)` of every block under `transfer`, from `entry` at block 0 and
/// `top` everywhere else (unreachable blocks keep it), predecessors' outputs
/// folded in with `meet`. A back edge into block 0 reaches its transfer but
/// not its reported `block_in`, which stays `entry`.
fn forward_fixpoint<T: Clone + PartialEq>(
    cfg: &Cfg,
    entry: T,
    top: T,
    meet: impl Fn(&mut T, &T),
    mut transfer: impl FnMut(BlockId, T) -> T,
) -> (Vec<T>, Vec<T>) {
    let mut block_in = vec![top.clone(); cfg.len()];
    let mut block_out = vec![top.clone(); cfg.len()];
    block_in[0] = entry.clone();
    loop {
        let mut changed = false;
        for &b in cfg.rpo() {
            let bi = b.0 as usize;
            let mut input = if bi == 0 { entry.clone() } else { top.clone() };
            for &p in cfg.preds(b) {
                meet(&mut input, &block_out[p.0 as usize]);
            }
            if bi != 0 && input != block_in[bi] {
                block_in[bi] = input.clone();
                changed = true;
            }
            let out = transfer(b, input);
            if out != block_out[bi] {
                block_out[bi] = out;
                changed = true;
            }
        }
        if !changed {
            return (block_in, block_out);
        }
    }
}

/// Why [`compile_verified`] rejected a program.
#[derive(Debug)]
pub enum VerifiedCompileError {
    /// Instrumentation itself failed.
    Compile(CompileError),
    /// Instrumentation succeeded but the result violates the scheme's
    /// atomicity invariants.
    Violations(Vec<Diagnostic>),
}

impl std::fmt::Display for VerifiedCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifiedCompileError::Compile(e) => write!(f, "{e}"),
            VerifiedCompileError::Violations(v) => {
                writeln!(f, "{} atomicity violation(s):", v.len())?;
                for d in v {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for VerifiedCompileError {}

/// Instruments `program` for `scheme` and statically verifies the result,
/// failing the compilation on any violation. This is the verifying
/// front-end to `ido_compiler::instrument_program`.
///
/// # Errors
/// [`VerifiedCompileError::Compile`] when lowering fails;
/// [`VerifiedCompileError::Violations`] with every diagnostic when the
/// lowered program breaks its scheme's invariants under `model`.
pub fn compile_verified(
    program: Program,
    scheme: Scheme,
    model: &RuntimeModel,
) -> Result<Instrumented, VerifiedCompileError> {
    let inst = instrument_program(program, scheme).map_err(VerifiedCompileError::Compile)?;
    let diags = verify_instrumented(&inst, model);
    if diags.is_empty() {
        Ok(inst)
    } else {
        Err(VerifiedCompileError::Violations(diags))
    }
}

/// One (workload, scheme) cell of a lint sweep.
#[derive(Debug, Clone)]
pub struct LintEntry {
    /// Workload name.
    pub workload: String,
    /// Scheme linted.
    pub scheme: Scheme,
    /// Static findings (empty = clean).
    pub diagnostics: Vec<Diagnostic>,
}

/// Result of linting every standard workload under every scheme.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// One entry per (workload, scheme) pair, in sweep order.
    pub entries: Vec<LintEntry>,
}

impl LintReport {
    /// Total violations across all entries.
    pub fn total_violations(&self) -> usize {
        self.entries.iter().map(|e| e.diagnostics.len()).sum()
    }

    /// True when no entry has a finding.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "{}/{}: {}",
                e.workload,
                e.scheme,
                if e.diagnostics.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} violation(s)", e.diagnostics.len())
                }
            )?;
            for d in &e.diagnostics {
                writeln!(f, "  {d}")?;
            }
        }
        Ok(())
    }
}

/// Lints every standard workload under every scheme against `model`.
///
/// # Panics
/// Panics if a workload fails to instrument — that is a build break, not a
/// lint finding.
pub fn lint_workloads(model: &RuntimeModel) -> LintReport {
    let mut entries = Vec::new();
    for spec in standard_specs() {
        let program = spec.build_program();
        for scheme in Scheme::ALL {
            let inst = instrument_program(program.clone(), scheme)
                .expect("standard workload instruments cleanly");
            entries.push(LintEntry {
                workload: spec.name(),
                scheme,
                diagnostics: verify_instrumented(&inst, model),
            });
        }
    }
    LintReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_workloads::WorkloadSpec;

    #[test]
    fn lint_of_current_tree_is_clean() {
        let report = lint_workloads(&RuntimeModel::for_tests());
        assert!(report.is_clean(), "verifier found violations:\n{report}");
        // 7 standard workloads x 7 schemes.
        assert_eq!(report.entries.len(), 7 * Scheme::ALL.len());
    }

    #[test]
    fn injected_skip_store_flush_is_flagged_statically() {
        let mut cfg = ido_vm::VmConfig::for_tests();
        cfg.ido_bug_skip_store_flush = true;
        let model = RuntimeModel::from_config(&cfg);
        let spec = ido_workloads::micro::TwinSpec;
        let inst = instrument_program(spec.build_program(), Scheme::Ido).unwrap();
        let diags = verify_instrumented(&inst, &model);
        assert!(
            diags.iter().any(|d| d.invariant == Invariant::PersistOrdering),
            "expected a persist-ordering finding, got: {diags:?}"
        );
        // The same program under the honest runtime is clean.
        let clean = verify_instrumented(&inst, &RuntimeModel::for_tests());
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn compile_verified_accepts_clean_and_rejects_buggy_runtime() {
        let spec = ido_workloads::micro::TwinSpec;
        assert!(compile_verified(
            spec.build_program(),
            Scheme::Ido,
            &RuntimeModel::for_tests()
        )
        .is_ok());

        let mut cfg = ido_vm::VmConfig::for_tests();
        cfg.ido_bug_skip_store_flush = true;
        let err = compile_verified(spec.build_program(), Scheme::Ido, &RuntimeModel::from_config(&cfg))
            .expect_err("buggy runtime must fail verification");
        assert!(matches!(err, VerifiedCompileError::Violations(_)), "{err}");
    }
}
