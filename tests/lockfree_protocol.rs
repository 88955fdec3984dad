//! The lock-free pair's one protocol, from the root package: the VM runs
//! `ido-lockfree`'s recoverable-CAS steps, so tier-1 `cargo test` must see
//! a crash sweep over them stay clean — and still catch a publish that
//! closes the descriptor without persisting the cell. The exhaustive gates
//! are `ido-crashtest`'s `lockfree_oracle` and `ido-lockfree`'s
//! `rcas_proptest`; this is their smoke-sized twin.

use ido_compiler::Scheme;
use ido_crashtest::{explore, OracleConfig};
use ido_workloads::lockfree::LfListSpec;

#[test]
fn nvtraverse_list_survives_the_smoke_sweep() {
    let r = explore(&LfListSpec, Scheme::Nvtraverse, &OracleConfig::smoke());
    assert!(r.counterexample.is_none(), "{}", r.counterexample.as_ref().unwrap());
    assert!(r.crash_states_explored >= r.boundary_steps && r.boundary_steps >= 3, "{r}");
}

#[test]
fn skipped_publish_flush_is_caught() {
    let mut cfg = OracleConfig::smoke();
    cfg.vm.lf_bug_skip_publish = true;
    let r = explore(&LfListSpec, Scheme::Nvtraverse, &cfg);
    assert!(r.counterexample.is_some(), "the oracle must catch the skipped publish flush: {r}");
}
