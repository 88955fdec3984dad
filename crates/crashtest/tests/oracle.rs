//! Acceptance tests for the crash oracle.
//!
//! The two headline properties:
//! - every persist-boundary crash step of a small workload, under iDO and
//!   all five baselines, recovers to a consistent state for every explored
//!   lost-line subset;
//! - a deliberately broken iDO variant (skipping the region-store
//!   write-back at boundaries) is caught, and the report shrinks to a
//!   minimal counterexample. Replaying one is `ido crashtest` on the scenario
//!   file `ido_lang::Scenario::reproducer` writes (the root `regress` test).

use ido_crashtest::{explore, explore_all, Counterexample, OracleConfig, DURABLE_SCHEMES};
use ido_compiler::Scheme;
use ido_workloads::micro::{AllocChurnSpec, TwinSpec};

/// Exhaustive sweep: all six durable schemes on the twin-counter workload.
/// Every boundary step × candidate lost-line subset must recover to a state
/// where both twins agree and no completed FASE was lost.
#[test]
fn all_durable_schemes_survive_exhaustive_twin_counter_sweep() {
    let cfg = OracleConfig::default(); // 2 threads x 2 ops = 4 FASEs
    let reports = explore_all(&TwinSpec, &cfg);
    assert_eq!(reports.len(), DURABLE_SCHEMES.len());
    for r in &reports {
        assert!(
            r.counterexample.is_none(),
            "{} failed the sweep: {}",
            r.scheme,
            r.counterexample.as_ref().unwrap()
        );
        assert!(r.boundary_steps >= 3, "{}: implausibly few boundaries", r.scheme);
        assert!(
            r.crash_states_explored >= r.boundary_steps,
            "{}: at least one crash state per boundary",
            r.scheme
        );
        assert_eq!(r.shrink_attempts, 0, "{}: nothing to shrink", r.scheme);
    }
    // Schemes genuinely differ in persist behavior; the oracle must see that.
    let distinct: std::collections::BTreeSet<u64> =
        reports.iter().map(|r| r.persist_events).collect();
    assert!(distinct.len() > 1, "schemes should produce different persist-event counts");
}

/// The exploration is a pure function of its config: two runs produce
/// identical reports, state for state.
#[test]
fn exploration_is_deterministic() {
    let cfg = OracleConfig::default();
    let a = explore(&TwinSpec, Scheme::Ido, &cfg);
    let b = explore(&TwinSpec, Scheme::Ido, &cfg);
    assert_eq!(a.total_steps, b.total_steps);
    assert_eq!(a.persist_events, b.persist_events);
    assert_eq!(a.boundary_steps, b.boundary_steps);
    assert_eq!(a.crash_states_explored, b.crash_states_explored);
    assert!(a.counterexample.is_none() && b.counterexample.is_none());
}

fn buggy_config() -> OracleConfig {
    let mut cfg = OracleConfig::default();
    cfg.vm.ido_bug_skip_store_flush = true;
    cfg
}

fn find_bug() -> Counterexample {
    let report = explore(&TwinSpec, Scheme::Ido, &buggy_config());
    assert!(
        report.counterexample.is_some(),
        "oracle must catch the injected flush-skipping bug: {report}"
    );
    report.counterexample.unwrap()
}

/// A deliberately broken iDO variant — boundaries advance `recovery_pc`
/// durably but skip writing back the region's stores — must be caught and
/// shrunk to a minimal counterexample.
#[test]
fn injected_flush_skipping_bug_yields_minimal_counterexample() {
    let cex = find_bug();
    // Minimality: losing a single dirty line (the twin cell's first line)
    // at the right boundary is enough to tear the FASE.
    assert_eq!(
        cex.lost_lines.len(),
        1,
        "shrinking should reduce the lost set to one line: {cex}"
    );
    assert!(cex.crash_step > 0, "the tear needs at least one boundary to have run");
    assert!(
        cex.failure.contains("twin") || cex.failure.contains("FASE"),
        "failure should be the workload invariant: {}",
        cex.failure
    );
    // The journal tail gives the persist-event history leading into the
    // crash, ending with the injected crash event itself.
    assert!(!cex.journal_tail.is_empty(), "journal tail must be captured");
    assert_eq!(cex.journal_tail.last().unwrap().kind.tag(), "crash");
}

/// The sharded allocator under the full crash oracle: an alloc/free churn
/// workload whose FASEs go through the bitfield fast path (plus the large
/// fallback), explored at every persist boundary × lost-line subset, for
/// iDO and JUSTDO. Recovery re-attaches the sharded heap, so a consistent
/// verdict covers the allocator's own metadata too.
#[test]
fn sharded_allocator_survives_oracle_sweep_under_churn() {
    let mut cfg = OracleConfig::default(); // 2 threads x 2 ops
    cfg.vm.alloc = ido_nvm::AllocPolicy::Sharded { shards: 2 };
    for scheme in [Scheme::Ido, Scheme::JustDo] {
        let r = explore(&AllocChurnSpec, scheme, &cfg);
        assert!(
            r.counterexample.is_none(),
            "{scheme} with sharded allocator failed the sweep: {}",
            r.counterexample.as_ref().unwrap()
        );
        assert!(r.boundary_steps >= 3, "{scheme}: implausibly few boundaries");
    }
}
