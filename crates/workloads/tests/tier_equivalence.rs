//! Cross-tier differential harness (ISSUE 6): the tier-2 block-compiled
//! engine must be **observationally identical** to the tier-1 interpreter.
//!
//! Every standard workload × every scheme runs twice — once per tier, same
//! config, same seed — and the harness asserts byte-identical final pool
//! images, identical pool-wide `StatsSnapshot` counters, identical step
//! counts and simulated clocks, and an identical encoded event trace
//! (every event, in order, with timestamps, plus the exact cost
//! attribution). Any fusion bug that changes a single persist event, a
//! clock by one nanosecond, or one byte of NVM fails here with the first
//! point of divergence.

use ido_compiler::{instrument_program, Scheme};
use ido_nvm::StatsSnapshot;
use ido_trace::{Trace, TraceConfig};
use ido_vm::{ExecTier, RunOutcome, SchedPolicy, VmConfig};
use ido_workloads::micro::TwinSpec;
use ido_workloads::{boot, standard_specs, WorkloadSpec};

/// Everything observable about one run.
struct Observed {
    steps: u64,
    sim_ns: u64,
    image: Vec<u8>,
    stats: StatsSnapshot,
    trace: Trace,
}

fn observe(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    tier: ExecTier,
    sched: SchedPolicy,
    threads: usize,
    ops: u64,
) -> Observed {
    let inst = instrument_program(spec.build_program(), scheme).expect("instruments cleanly");
    let mut cfg = VmConfig::for_tests();
    cfg.sched = sched;
    cfg.tier = tier;
    cfg.pool.trace = TraceConfig::on();
    let (mut vm, base) = boot(spec, inst, threads, ops, cfg);
    assert_eq!(vm.run(), RunOutcome::Completed, "{} under {scheme} ({tier:?})", spec.name());
    spec.verify(&vm, &base, threads as u64 * ops);
    let steps = vm.steps();
    let sim_ns = vm.max_clock_ns();
    let image = vm.pool().persistent_snapshot();
    let pool = vm.pool().clone();
    drop(vm); // fold per-thread stats and trace rings into the pool
    Observed {
        steps,
        sim_ns,
        image,
        stats: pool.global_stats(),
        trace: pool.take_trace().expect("tracing was enabled"),
    }
}

/// Asserts every observable of the two runs matches, reporting the first
/// point of divergence rather than dumping megabytes of context.
fn assert_identical(a: &Observed, b: &Observed, what: &str) {
    assert_eq!(a.steps, b.steps, "{what}: step counts diverge");
    assert_eq!(a.sim_ns, b.sim_ns, "{what}: simulated clocks diverge");
    assert_eq!(a.stats, b.stats, "{what}: StatsSnapshot counters diverge");

    assert_eq!(a.trace.pushed, b.trace.pushed, "{what}: trace event counts diverge");
    assert_eq!(a.trace.dropped, b.trace.dropped, "{what}: trace drop counts diverge");
    assert_eq!(a.trace.costs, b.trace.costs, "{what}: cost attribution diverges");
    if a.trace.events != b.trace.events {
        let i = a
            .trace
            .first_divergence(&b.trace)
            .unwrap_or_else(|| a.trace.events.len().min(b.trace.events.len()));
        panic!(
            "{what}: traces diverge at event {i}:\n  tier1: {:?}\n  tier2: {:?}",
            a.trace.events.get(i),
            b.trace.events.get(i)
        );
    }

    assert_eq!(a.image.len(), b.image.len(), "{what}: image sizes diverge");
    if a.image != b.image {
        let i = a.image.iter().zip(&b.image).position(|(x, y)| x != y).unwrap();
        panic!(
            "{what}: pool images diverge at byte {i:#x}: tier1={:#04x} tier2={:#04x}",
            a.image[i], b.image[i]
        );
    }
}

fn diff_tiers(spec: &dyn WorkloadSpec, scheme: Scheme, sched: SchedPolicy, threads: usize, ops: u64) {
    let what = format!("{} under {scheme} ({sched:?}, {threads}T)", spec.name());
    let t1 = observe(spec, scheme, ExecTier::Tier1, sched, threads, ops);
    let t2 = observe(spec, scheme, ExecTier::Tier2, sched, threads, ops);
    assert_identical(&t1, &t2, &what);
}

/// The headline gate: all standard workloads × all 7 schemes under the
/// discrete-event scheduler, both tiers, byte-identical.
#[test]
fn tier2_matches_tier1_on_all_standard_workloads_and_schemes() {
    for spec in standard_specs() {
        for scheme in Scheme::ALL {
            diff_tiers(spec.as_ref(), scheme, SchedPolicy::MinClock, 2, 6);
        }
    }
}

/// The Random scheduler exercises different tier-2 machinery: with several
/// runnable threads every fused step re-enters the scheduler (one-step
/// segments), and once only one thread remains the segment must burn the
/// exact RNG draws the per-step picks would have consumed.
#[test]
fn tier2_matches_tier1_under_the_random_scheduler() {
    for scheme in Scheme::ALL {
        diff_tiers(&TwinSpec, scheme, SchedPolicy::Random, 2, 4);
        diff_tiers(&TwinSpec, scheme, SchedPolicy::Random, 1, 6);
    }
}

/// Single-thread MinClock: no clock limit, so segments run to their deopt
/// points — the maximal-fusion configuration the benches measure.
#[test]
fn tier2_matches_tier1_single_threaded() {
    for spec in standard_specs() {
        for scheme in [Scheme::Origin, Scheme::Ido, Scheme::JustDo] {
            diff_tiers(spec.as_ref(), scheme, SchedPolicy::MinClock, 1, 8);
        }
    }
}

/// The deliberate mis-fusion flag must be caught by exactly this harness:
/// dropping one store's clwb tracking under iDO changes the persist-event
/// stream (and the crash-projected image), so the runs must NOT be
/// identical. Guards against the harness itself going blind.
#[test]
fn harness_catches_a_misfused_store_clwb_pair() {
    let spec = TwinSpec;
    let scheme = Scheme::Ido;
    let good = observe(&spec, scheme, ExecTier::Tier2, SchedPolicy::MinClock, 2, 4);

    // Re-run tier 2 with the sabotage flag: the store+clwb pair is broken.
    let inst = instrument_program(spec.build_program(), scheme).expect("instruments cleanly");
    let mut cfg = VmConfig::for_tests();
    cfg.sched = SchedPolicy::MinClock;
    cfg.tier = ExecTier::Tier2;
    cfg.tier2_bug_misfuse_store_clwb = true;
    cfg.pool.trace = TraceConfig::on();
    let (mut vm, _) = boot(&spec, inst, 2, 4, cfg);
    assert_eq!(vm.run(), RunOutcome::Completed);
    let pool = vm.pool().clone();
    drop(vm);
    let sabotaged = pool.take_trace().expect("tracing was enabled");

    assert_ne!(
        good.trace.events, sabotaged.events,
        "mis-fusing a store+clwb pair must change the persist-event stream"
    );
}
