//! Pins the interpreter's dynamic behaviour on the twin-counter workload —
//! step count, simulated nanoseconds, and a hash of the final persistent
//! image — for every scheme.
//!
//! The golden values below were captured from the original (pre-decode)
//! interpreter, which cloned each `Inst` per step and tracked registers in
//! `BTreeSet`s. The decoded fast path (flat per-function instruction
//! streams, bitset register tracking, sort-on-drain store sets) must execute
//! **step-for-step identically**: same schedule, same persist events, same
//! simulated clocks, same bytes in NVM. Any divergence here means the
//! optimization changed semantics, not just speed.
//!
//! The same table also holds the lock-free pair on the lock-free map, and,
//! for every durable scheme, one run crashed mid-FASE and recovered: what
//! `recover` reports and the image it leaves are part of the fingerprint, so
//! a change to a recovery driver is held to bytes here as well.

use ido_compiler::{instrument_program, Scheme};
use ido_nvm::CrashPolicy;
use ido_vm::{
    recover, ExecTier, RecoveryConfig, RecoveryReport, RunOutcome, SchedPolicy, Vm, VmConfig,
};
use ido_workloads::lockfree::LfMapSpec;
use ido_workloads::micro::TwinSpec;
use ido_workloads::WorkloadSpec;

const THREADS: usize = 2;
const OPS: u64 = 4;

/// FNV-1a over the persistent image: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What one run leaves behind. Uninterrupted: the run's step count, its
/// simulated nanoseconds and the hash of the final persistent image.
/// Crashed at a step and recovered: the steps and nanoseconds at the crash,
/// everything recovery reported, and the hash of the image it left.
type Fingerprint = (u64, u64, u64, Option<RecoveryReport>);

/// Runs the twin-counter workload (the lock-free pair: the lock-free map)
/// exactly like the DES harness does; with `crash_at`, stops after that many
/// steps, crashes losing every dirty line, and recovers.
fn fingerprint(scheme: Scheme, tier: ExecTier, crash_at: Option<u64>) -> Fingerprint {
    let (twin, map) = (TwinSpec, LfMapSpec::default());
    let spec: &dyn WorkloadSpec = if scheme.is_lockfree() { &map } else { &twin };
    let inst = instrument_program(spec.build_program(), scheme).expect("instruments cleanly");
    let mut cfg = VmConfig::for_tests();
    cfg.sched = SchedPolicy::MinClock;
    cfg.tier = tier;
    cfg.pool.crash_policy = CrashPolicy::DropDirty;
    let mut vm = Vm::new(inst.clone(), cfg.clone());
    let base = spec.setup(&mut vm, THREADS, OPS);
    for t in 0..THREADS {
        vm.spawn("worker", &spec.worker_args(&base, t, OPS));
    }
    let Some(crash_at) = crash_at else {
        assert_eq!(vm.run(), RunOutcome::Completed);
        spec.verify(&vm, &base, THREADS as u64 * OPS);
        let image = vm.pool().persistent_snapshot();
        return (vm.steps(), vm.max_clock_ns(), fnv1a(&image), None);
    };
    assert_eq!(vm.run_steps(crash_at), RunOutcome::Paused, "{scheme}: crash step past the end");
    let (steps, sim_ns) = (vm.steps(), vm.max_clock_ns());
    let pool = vm.crash(7);
    let report = recover(pool.clone(), inst, cfg, RecoveryConfig::default());
    (steps, sim_ns, fnv1a(&pool.persistent_snapshot()), Some(report))
}

/// Golden `(scheme, crash step, steps, sim_ns, image_hash)` rows, 2 threads
/// x 4 ops, MinClock, `VmConfig::for_tests()`. The seven lock-based rows
/// were captured from the pre-decode interpreter (seed revision); the
/// lock-free pair and the crash rows from the phase-sliced `exec_rt` /
/// `recover_*` runtime, before the per-scheme modules replaced it.
const GOLDEN: &[(Scheme, Option<u64>, u64, u64, u64)] = &[
    (Scheme::Origin, None, 113, 345, 0xc579eda0d6f4fa8f),
    (Scheme::Ido, None, 193, 346, 0xe662a73ef47958e7),
    (Scheme::Atlas, None, 161, 16345, 0xd5d6cd673170dc4f),
    (Scheme::Mnemosyne, None, 129, 345, 0x441be4203e7cd48f),
    (Scheme::JustDo, None, 193, 1785, 0xc8287cf1d2d7f5f3),
    (Scheme::Nvml, None, 145, 345, 0x413603d71e91ffcf),
    (Scheme::Nvthreads, None, 145, 29945, 0x528d27ae35c4f6e6),
    (Scheme::Nvtraverse, None, 296, 134, 0x92ee7fd049624131),
    (Scheme::LfEager, None, 296, 134, 0x92ee7fd049624131),
    (Scheme::Ido, Some(108), 108, 197, 0x3126e88392875718),
    (Scheme::Atlas, Some(91), 91, 9193, 0x39734ea3caec802e),
    (Scheme::Mnemosyne, Some(75), 75, 196, 0xf07e15bbb635f01),
    (Scheme::JustDo, Some(109), 109, 985, 0x909f0209b1d9a59a),
    (Scheme::Nvml, Some(82), 82, 196, 0x4871777d95d6a1d1),
    (Scheme::Nvthreads, Some(72), 72, 14972, 0x301c93fb229246d6),
    (Scheme::Nvtraverse, Some(162), 162, 67, 0xcd3f284ee560e739),
    (Scheme::LfEager, Some(162), 162, 67, 0xcd3f284ee560e739),
];

/// What `recover` reported for the golden row with the same scheme, in the
/// order the crash rows appear in [`GOLDEN`].
const GOLDEN_REPORTS: &[RecoveryReport] = &[
    RecoveryReport {
        scheme: Scheme::Ido,
        threads_scanned: 2,
        resumed: 1,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 12,
        sim_ns: 144000022,
    },
    RecoveryReport {
        scheme: Scheme::Atlas,
        threads_scanned: 2,
        resumed: 0,
        rolled_back: 1,
        replayed: 0,
        undo_entries: 1,
        log_entries_scanned: 27,
        steps: 0,
        sim_ns: 144006750,
    },
    RecoveryReport {
        scheme: Scheme::Mnemosyne,
        threads_scanned: 2,
        resumed: 0,
        rolled_back: 1,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 1,
        steps: 0,
        sim_ns: 144000250,
    },
    RecoveryReport {
        scheme: Scheme::JustDo,
        threads_scanned: 2,
        resumed: 1,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 10,
        sim_ns: 144000021,
    },
    RecoveryReport {
        scheme: Scheme::Nvml,
        threads_scanned: 2,
        resumed: 0,
        rolled_back: 1,
        replayed: 0,
        undo_entries: 8,
        log_entries_scanned: 81,
        steps: 0,
        sim_ns: 144020250,
    },
    RecoveryReport {
        scheme: Scheme::Nvthreads,
        threads_scanned: 2,
        resumed: 0,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 0,
        sim_ns: 144000000,
    },
    RecoveryReport {
        scheme: Scheme::Nvtraverse,
        threads_scanned: 2,
        resumed: 1,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 0,
        sim_ns: 144000000,
    },
    RecoveryReport {
        scheme: Scheme::LfEager,
        threads_scanned: 2,
        resumed: 1,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 0,
        sim_ns: 144000000,
    },
];

fn golden_rows() -> impl Iterator<Item = (Scheme, Option<u64>, Fingerprint)> {
    let crash_rows = GOLDEN.iter().filter(|row| row.1.is_some()).count();
    assert_eq!(crash_rows, GOLDEN_REPORTS.len(), "a report per crash row");
    let mut reports = GOLDEN_REPORTS.iter().copied();
    GOLDEN.iter().map(move |&(scheme, crash_at, steps, sim_ns, hash)| {
        let report = crash_at.map(|_| reports.next().expect("a report per crash row"));
        (scheme, crash_at, (steps, sim_ns, hash, report))
    })
}

#[test]
fn decoded_fast_path_matches_the_golden_pre_decode_run() {
    for (scheme, crash_at, want) in golden_rows() {
        assert_eq!(
            fingerprint(scheme, ExecTier::Tier1, crash_at),
            want,
            "{scheme} (crash at {crash_at:?}): decoded interpreter diverged from the golden run"
        );
    }
}

#[test]
fn tier2_matches_the_golden_pre_decode_run() {
    // The block-compiled engine must land on the *same* golden rows the
    // original clone-per-step interpreter produced: two optimization
    // generations later, still step-for-step identical dynamics.
    for (scheme, crash_at, want) in golden_rows() {
        assert_eq!(
            fingerprint(scheme, ExecTier::Tier2, crash_at),
            want,
            "{scheme} (crash at {crash_at:?}): tier-2 engine diverged from the golden run"
        );
    }
}

#[test]
fn fingerprints_are_reproducible_within_a_build() {
    // Guards the golden test's own premise: the fingerprint is a pure
    // function of (scheme, config) on this interpreter build.
    for scheme in [Scheme::Ido, Scheme::Mnemosyne] {
        for crash_at in [None, Some(60)] {
            assert_eq!(
                fingerprint(scheme, ExecTier::Tier1, crash_at),
                fingerprint(scheme, ExecTier::Tier1, crash_at),
                "{scheme}"
            );
        }
    }
}

#[test]
#[ignore = "probe: prints golden rows for capture"]
fn probe_print_goldens() {
    let all = || Scheme::ALL.into_iter().chain(Scheme::LOCKFREE);
    let mut reports = Vec::new();
    for crash in [false, true] {
        for scheme in all().filter(|s| !crash || *s != Scheme::Origin) {
            let total = fingerprint(scheme, ExecTier::Tier1, None).0;
            // The first step past the middle of the run at which recovery
            // has the most kinds of work to do (a crash between FASEs pins
            // next to nothing).
            let work = |step: &u64| {
                let r = fingerprint(scheme, ExecTier::Tier1, Some(*step)).3.expect("crashed");
                let applied = r.resumed + r.replayed + r.undo_entries > 0;
                applied as u32 * 2 + (r.rolled_back > 0) as u32
            };
            let busiest = || (total / 2..total).rev().max_by_key(work).expect("a second half");
            let crash_at = crash.then(busiest);
            let (steps, sim_ns, hash, report) = fingerprint(scheme, ExecTier::Tier1, crash_at);
            println!("    (Scheme::{scheme:?}, {crash_at:?}, {steps}, {sim_ns}, {hash:#x}),");
            reports.extend(report);
        }
    }
    for r in reports {
        println!("    {},", format!("{r:?}").replace("scheme: ", "scheme: Scheme::"));
    }
}
