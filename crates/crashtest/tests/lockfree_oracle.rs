//! Crash-oracle acceptance gates for the recoverable lock-free family.
//!
//! The lock-free schemes make a different contract than the
//! lock-delineated ones: there is no FASE to roll back or resume, so the
//! oracle's verdict rests on the recoverable-CAS detectability invariant —
//! after a crash at *any* persist boundary, recovery must classify every
//! in-flight CAS as taken xor not-taken (never ambiguous, never lost,
//! never duplicated), and the per-thread prefix invariant in the workload
//! verifiers checks exactly that: thread `t`'s surviving keys are exactly
//! `0..done(t)` for the descriptor's durable completion count.
//!
//! Gates:
//! - exhaustive persist-boundary sweep on both lock-free schemes, both
//!   workloads, both execution tiers — zero counterexamples;
//! - the two injected bugs are caught where (and only where) they bite:
//!   skipping the traverse-exit window flush breaks NVTraverse but is a
//!   no-op for the eager scheme, and skipping the publish write-back
//!   breaks both;
//! - the exploration is deterministic.

use ido_compiler::Scheme;
use ido_crashtest::{explore, OracleConfig};
use ido_vm::ExecTier;
use ido_workloads::lockfree::{LfListSpec, LfMapSpec};
use ido_workloads::WorkloadSpec;

fn small_map() -> LfMapSpec {
    // Small enough for exhaustive subset exploration, big enough that
    // puts land in distinct buckets and gets actually traverse.
    LfMapSpec { buckets: 4, key_range: 32, put_permille: 700 }
}

/// Exhaustive sweep: both lock-free schemes on both workloads, default
/// oracle config (2 threads x 2 ops, every persist boundary x candidate
/// lost-line subset). Every explored crash state must recover with every
/// in-flight CAS resolved and no lost or duplicated effect.
#[test]
fn lockfree_schemes_survive_exhaustive_sweep() {
    let cfg = OracleConfig::default();
    let specs: [&dyn WorkloadSpec; 2] = [&LfListSpec, &small_map()];
    for scheme in Scheme::LOCKFREE {
        for spec in specs {
            let r = explore(spec, scheme, &cfg);
            assert!(
                r.counterexample.is_none(),
                "{scheme}/{}: {}",
                spec.name(),
                r.counterexample.as_ref().unwrap()
            );
            assert!(
                r.boundary_steps >= 3,
                "{scheme}/{}: implausibly few persist boundaries ({})",
                spec.name(),
                r.boundary_steps
            );
            assert!(
                r.crash_states_explored >= r.boundary_steps,
                "{scheme}/{}: at least one crash state per boundary",
                spec.name()
            );
            assert_eq!(r.shrink_attempts, 0, "{scheme}/{}: nothing to shrink", spec.name());
        }
    }
}

/// The tier-2 block engine must present the identical persist behavior:
/// the sweep stays clean and the persist-event count matches tier 1
/// (CAS is non-fusible, so tier 2 deoptimizes around it rather than
/// reordering persists).
#[test]
fn tier2_sweep_is_clean_with_identical_persist_events() {
    let t1 = OracleConfig::default();
    let mut t2 = OracleConfig::default();
    t2.vm.tier = ExecTier::Tier2;
    for scheme in Scheme::LOCKFREE {
        let a = explore(&LfListSpec, scheme, &t1);
        let b = explore(&LfListSpec, scheme, &t2);
        assert!(b.counterexample.is_none(), "{scheme} tier2: {:?}", b.counterexample);
        assert_eq!(
            a.persist_events, b.persist_events,
            "{scheme}: tiers disagree on persist events"
        );
        assert_eq!(a.boundary_steps, b.boundary_steps, "{scheme}: tiers disagree on boundaries");
    }
}

/// Skipping the flush-on-traverse-exit window write-back leaves node
/// contents volatile when the CAS durably links the node: a crash that
/// drops the node's line exposes zeroed contents. This bites NVTraverse
/// (which defers all traversal flushes to the window) and must be caught;
/// the eager scheme flushes at each store, its window is empty, and the
/// flag is a no-op — asserting it stays clean pins the asymmetry the
/// static verifier also encodes.
#[test]
fn skipped_window_flush_is_caught_under_nvtraverse_only() {
    let mut cfg = OracleConfig::default();
    cfg.vm.lf_bug_skip_window_flush = true;

    let r = explore(&LfListSpec, Scheme::Nvtraverse, &cfg);
    assert!(
        r.counterexample.is_some(),
        "oracle must catch the skipped window flush under NVTraverse: {r}"
    );
    let cex = r.counterexample.unwrap();
    assert!(cex.crash_step > 0, "needs at least one op in flight");
    assert!(!cex.journal_tail.is_empty());

    let clean = explore(&LfListSpec, Scheme::LfEager, &cfg);
    assert!(
        clean.counterexample.is_none(),
        "eager flushing makes the window flag a no-op: {}",
        clean.counterexample.as_ref().unwrap()
    );
}

/// Skipping the publish write-back closes the descriptor durably while
/// the CAS cell's line is still volatile: a crash dropping the cell loses
/// the linked node, but the completion count already advanced — a lost
/// effect the prefix invariant catches under both schemes.
#[test]
fn skipped_publish_flush_is_caught_under_both_schemes() {
    let mut cfg = OracleConfig::default();
    cfg.vm.lf_bug_skip_publish = true;
    for scheme in Scheme::LOCKFREE {
        let r = explore(&LfListSpec, scheme, &cfg);
        assert!(
            r.counterexample.is_some(),
            "{scheme}: oracle must catch the skipped publish write-back: {r}"
        );
    }
}

/// The exploration is a pure function of its config.
#[test]
fn lockfree_exploration_is_deterministic() {
    let cfg = OracleConfig::default();
    for scheme in Scheme::LOCKFREE {
        let a = explore(&small_map(), scheme, &cfg);
        let b = explore(&small_map(), scheme, &cfg);
        assert_eq!(a.total_steps, b.total_steps, "{scheme}");
        assert_eq!(a.persist_events, b.persist_events, "{scheme}");
        assert_eq!(a.boundary_steps, b.boundary_steps, "{scheme}");
        assert_eq!(a.crash_states_explored, b.crash_states_explored, "{scheme}");
        assert!(a.counterexample.is_none() && b.counterexample.is_none(), "{scheme}");
    }
}
