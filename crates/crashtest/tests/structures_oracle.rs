//! The four seed structures under exhaustive crash-oracle exploration.
//!
//! The micro specs' own `verify` carries the full structural contract —
//! acyclicity, sorted chains, queue tail reachable *and* last, every map
//! key in the home bucket recomputed on the host — so every explored crash
//! state is held to it after recovery.

use ido_compiler::Scheme;
use ido_crashtest::{explore, OracleConfig};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::WorkloadSpec;

fn specs() -> Vec<Box<dyn WorkloadSpec>> {
    vec![
        Box::new(StackSpec),
        Box::new(QueueSpec),
        Box::new(ListSpec { key_range: 16 }),
        Box::new(MapSpec { buckets: 4, key_range: 64 }),
    ]
}

/// iDO plus two undo-log baselines: every crash state of every seed
/// structure must satisfy the structural contract after recovery.
#[test]
fn seed_structures_pass_invariants_under_ido_and_baselines() {
    let cfg = OracleConfig::default();
    for scheme in [Scheme::Ido, Scheme::Atlas, Scheme::JustDo] {
        for spec in specs() {
            let r = explore(spec.as_ref(), scheme, &cfg);
            assert!(
                r.counterexample.is_none(),
                "{scheme}/{}: {}",
                spec.name(),
                r.counterexample.as_ref().unwrap()
            );
            assert!(
                r.boundary_steps >= 3,
                "{scheme}/{}: implausibly few boundaries",
                spec.name()
            );
        }
    }
}
