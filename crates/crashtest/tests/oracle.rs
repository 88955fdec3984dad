//! Acceptance tests for the crash oracle.
//!
//! The two headline properties:
//! - every persist-boundary crash step of a small workload, under iDO and
//!   all five baselines, recovers to a consistent state for every explored
//!   lost-line subset;
//! - a deliberately broken iDO variant (skipping the region-store
//!   write-back at boundaries) is caught, and the report shrinks to a
//!   minimal counterexample that replays from its recorded seed.

use ido_crashtest::{
    explore, explore_all, explore_recovery, Counterexample, OracleConfig, DURABLE_SCHEMES,
};
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
    let recipe = cex.replay_recipe();
    assert!(recipe.contains("seed") && recipe.contains("journal tail"), "recipe:\n{recipe}");
}

/// The shrunk counterexample replays from its recorded seed: `reproduce`
/// re-triggers the identical failure, and is itself deterministic.
#[test]
fn counterexample_reproduces_from_its_seed() {
    let cex = find_bug();
    let first = cex.reproduce(&TwinSpec).expect_err("must still fail");
    let second = cex.reproduce(&TwinSpec).expect_err("must fail deterministically");
    assert_eq!(first, second, "replay must be deterministic");
    assert_eq!(first, cex.failure, "replayed failure matches the recorded one");
    // Two independent explorations find the same minimal counterexample.
    let again = explore(&TwinSpec, Scheme::Ido, &buggy_config()).counterexample.unwrap();
    assert_eq!(again.crash_step, cex.crash_step);
    assert_eq!(again.lost_lines, cex.lost_lines);
}

/// A crash-during-recovery counterexample is the same value and replays
/// the same way. Built by hand from the shrunk one — the same first crash,
/// then recovery cut after one unit of work and crashed losing nothing —
/// it reproduces the same failure and its recipe spells out the second
/// crash; the one the recovery sweep finds reproduces too, and its journal
/// tail leads into the second crash.
#[test]
fn crash_during_recovery_counterexamples_replay_and_print_their_second_crash() {
    let cex = find_bug();
    let by_hand = Counterexample { recovery: Some((1, vec![])), ..cex.clone() };
    assert_eq!(by_hand.reproduce(&TwinSpec), Err(cex.failure.clone()));
    let recipe = by_hand.replay_recipe();
    let run = format!(
        "# run exactly {} step(s), crash losing dirty line(s) {:?}, recover for 1 unit(s), \
         crash losing dirty line(s) [], recover, verify\n",
        cex.crash_step, cex.lost_lines
    );
    assert!(recipe.contains(&run), "recipe:\n{recipe}");
    assert!(by_hand.to_string().contains(", then after 1 recovery unit(s) losing lines [] "));

    let found = explore_recovery(&TwinSpec, Scheme::Ido, &buggy_config(), &[1, 2, 5, 11])
        .counterexample
        .expect("the recovery sweep catches the injected bug too");
    assert!(found.recovery.is_some(), "{found}");
    assert_eq!(found.reproduce(&TwinSpec), Err(found.failure.clone()));
    let last = found.journal_tail.last().expect("journal tail must be captured");
    assert_eq!(last.kind.tag(), "crash");
}

/// The fixed scheme cannot reach the crash state that broke the buggy one:
/// the fix *is* that the lost line is written back before that step. A
/// stale counterexample says so — it used to lose nothing instead, check a
/// different state, and report "fixed" — and what the honest runtime can
/// still lose at that step, it survives.
#[test]
fn fixed_scheme_no_longer_reaches_the_counterexample_state() {
    let cex = find_bug();
    let mut fixed = cex.clone();
    fixed.vm.ido_bug_skip_store_flush = false;
    let stale = fixed.reproduce(&TwinSpec).expect_err("the lost line is clean without the bug");
    assert_eq!(
        stale,
        format!("lost line {} is not dirty at step {}", cex.lost_lines[0], cex.crash_step)
    );
    fixed.lost_lines.clear();
    assert_eq!(fixed.reproduce(&TwinSpec), Ok(()), "without the bug the step recovers");
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
