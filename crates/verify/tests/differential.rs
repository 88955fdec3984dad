//! Differential-mode acceptance: the static verifier and the crash oracle
//! must agree on every (workload, scheme) verdict — clean/clean on the
//! fixed tree, flagged/counterexample under the injected persist-ordering
//! bug.

use ido_compiler::Scheme;
use ido_crashtest::OracleConfig;
use ido_ir::text::parse_program_section;
use ido_ir::Program;
use ido_verify::{differential, differential_all, Invariant};
use ido_vm::Vm;
use ido_workloads::micro::TwinSpec;
use ido_workloads::{standard_specs, WorkloadSpec};

/// Every standard workload and the twin counter, under every durable scheme.
#[test]
fn static_and_dynamic_verdicts_agree_on_the_clean_tree() {
    let mut specs = standard_specs();
    specs.push(Box::new(TwinSpec));
    for spec in &specs {
        let reports = differential_all(spec.as_ref(), &OracleConfig::smoke());
        for r in &reports {
            assert!(r.agree, "disagreement: {r}");
            assert!(r.diagnostics.is_empty(), "static findings on clean tree: {r}");
            assert!(r.exploration.counterexample.is_none(), "oracle failure on clean tree: {r}");
        }
        assert_eq!(reports.len(), 6);
    }
}

/// The twin counter with its program replaced by `.0`, the source of a
/// scenario file: `corpus/oracle/cas_twin.ido`'s program, whose first
/// counter is bumped by a CAS, or the probe that branches on its result.
struct CasTwin(&'static str);

impl WorkloadSpec for CasTwin {
    fn name(&self) -> String {
        TwinSpec.name()
    }

    fn build_program(&self) -> Program {
        parse_program_section(self.0).expect("the file parses").program
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        TwinSpec.setup(vm, threads, ops)
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        TwinSpec.worker_args(base, thread, ops)
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        TwinSpec.verify(vm, base, total_ops)
    }
}

/// A CAS inside a lock-based FASE writes memory like a store: every
/// scheme protects it, and the verifier checks that it does. At the
/// oracle file's own size the oracle tears the twins under iDO, Atlas,
/// JUSTDO and NVML when the CAS goes unrecorded or uncut.
#[test]
fn a_cas_in_a_lock_based_fase_is_clean_on_both_sides() {
    let reports = differential_all(&CasTwin(include_str!("../../../corpus/oracle/cas_twin.ido")), &OracleConfig::default());
    for r in &reports {
        assert!(r.diagnostics.is_empty(), "static findings: {r}");
        assert!(r.exploration.counterexample.is_none(), "oracle failure: {r}");
    }
    assert_eq!(reports.len(), 6);
}

/// A FASE that branches on its CAS's result tears under iDO and JUSTDO,
/// whose resumption runs the CAS again, at a crash that loses no line; the
/// verifier flags exactly those two. Both sides agree on all six.
#[test]
fn a_fase_branching_on_a_cas_result_tears_where_the_verifier_says() {
    let probe = CasTwin(include_str!("probes/cas_branch_twin.ido"));
    for r in differential_all(&probe, &OracleConfig::default()) {
        let resumes = matches!(r.scheme, Scheme::Ido | Scheme::JustDo);
        assert!(r.agree, "{r}");
        assert_eq!(r.exploration.counterexample.is_some(), resumes, "{r}");
        assert!(r.diagnostics.iter().all(|d| d.invariant == Invariant::CasResultDead), "{r}");
    }
}

#[test]
fn static_and_dynamic_verdicts_agree_with_tier2_execution() {
    // The dynamic side of the differential check runs on the tier-2 engine:
    // the static model knows nothing about execution tiers, so agreement
    // here means tier 2 preserved the persist semantics the model predicts.
    let mut cfg = OracleConfig::smoke();
    cfg.vm.tier = ido_vm::ExecTier::Tier2;
    let reports = differential_all(&TwinSpec, &cfg);
    for r in &reports {
        assert!(r.agree, "tier-2 disagreement: {r}");
        assert!(r.diagnostics.is_empty(), "static findings on clean tree: {r}");
        assert!(r.exploration.counterexample.is_none(), "tier-2 oracle failure: {r}");
    }
}

#[test]
fn injected_bug_is_flagged_by_both_sides_and_they_agree() {
    let mut cfg = OracleConfig::smoke();
    cfg.vm.ido_bug_skip_store_flush = true;
    let r = differential(&TwinSpec, Scheme::Ido, &cfg);
    assert!(
        r.diagnostics.iter().any(|d| d.invariant == Invariant::PersistOrdering),
        "static side must flag the injected bug: {r}"
    );
    assert!(
        r.exploration.counterexample.is_some(),
        "oracle must find a counterexample for the injected bug: {r}"
    );
    assert!(r.agree, "{r}");
}

#[test]
fn injected_bug_does_not_leak_into_baseline_verdicts() {
    // The iDO-specific injection must not change any baseline's verdict —
    // a scheme-confused model would disagree with the oracle here.
    let mut cfg = OracleConfig::smoke();
    cfg.vm.ido_bug_skip_store_flush = true;
    for scheme in [Scheme::Atlas, Scheme::Mnemosyne] {
        let r = differential(&TwinSpec, scheme, &cfg);
        assert!(r.diagnostics.is_empty(), "{r}");
        assert!(r.agree, "{r}");
    }
}
