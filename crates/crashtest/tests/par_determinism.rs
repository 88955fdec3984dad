//! Serial/parallel equivalence of the crash oracle (ISSUE 2 acceptance):
//! fanning the boundaries out over worker threads — each takes a
//! contiguous chunk and steps one live VM forward through it — must not
//! change anything observable: the exploration counters, and above all the
//! shrunk minimal counterexample, must be identical for `jobs = 1`, `2`
//! and `4`, and wherever the chunk boundaries fall relative to the failing
//! step.
//!
//! Uses the explicit-jobs entry point rather than `IDO_JOBS` because the
//! process environment is shared across the test harness's threads.

use ido_crashtest::{explore_jobs, persist_boundaries, OracleConfig};
use ido_compiler::{instrument_program, Scheme};
use ido_workloads::WorkloadSpec;
use ido_workloads::micro::TwinSpec;

#[test]
fn clean_exploration_is_identical_for_any_job_count() {
    let cfg = OracleConfig::default();
    let serial = explore_jobs(1, &TwinSpec, Scheme::Ido, &cfg);
    assert!(serial.counterexample.is_none(), "clean run must pass: {serial}");
    for jobs in [2usize, 4] {
        let par = explore_jobs(jobs, &TwinSpec, Scheme::Ido, &cfg);
        assert_eq!(par.total_steps, serial.total_steps, "jobs={jobs}");
        assert_eq!(par.persist_events, serial.persist_events, "jobs={jobs}");
        assert_eq!(par.boundary_steps, serial.boundary_steps, "jobs={jobs}");
        assert_eq!(par.crash_states_explored, serial.crash_states_explored, "jobs={jobs}");
        assert_eq!(par.shrink_attempts, serial.shrink_attempts, "jobs={jobs}");
        assert!(par.counterexample.is_none(), "jobs={jobs}");
        // The human-readable report is derived from the above, so it is
        // byte-identical too.
        assert_eq!(par.to_string(), serial.to_string(), "jobs={jobs}");
    }
}

#[test]
fn injected_bug_shrinks_to_the_identical_counterexample_under_parallel_sweep() {
    let mut cfg = OracleConfig::default();
    cfg.vm.ido_bug_skip_store_flush = true;
    let serial = explore_jobs(1, &TwinSpec, Scheme::Ido, &cfg);
    let a = serial.counterexample.expect("serial oracle catches the injected bug");
    for jobs in [2usize, 4] {
        let par = explore_jobs(jobs, &TwinSpec, Scheme::Ido, &cfg);
        let b = par.counterexample.expect("parallel oracle catches the injected bug");
        assert_eq!(b.crash_step, a.crash_step, "jobs={jobs}");
        assert_eq!(b.lost_lines, a.lost_lines, "jobs={jobs}");
        assert_eq!(b.failure, a.failure, "jobs={jobs}");
        assert_eq!(b.seed, a.seed, "jobs={jobs}");
        assert_eq!(b.journal_tail, a.journal_tail, "jobs={jobs}");
        // Everything a reproducer is written from is identical.
        assert_eq!(format!("{b:?}"), format!("{a:?}"), "jobs={jobs}");
        assert_eq!(par.crash_states_explored, serial.crash_states_explored, "jobs={jobs}");
        assert_eq!(par.shrink_attempts, serial.shrink_attempts, "jobs={jobs}");
    }
}

/// The failing boundary as the first, the last and an inner boundary of
/// its worker's chunk: a chunk that opens on it has replayed straight to
/// it, one that closes on it has stepped forward through every boundary
/// before it, and the chunks after it run to completion and are discarded.
#[test]
fn chunk_boundaries_on_the_failing_step_do_not_move_the_counterexample() {
    let mut cfg = OracleConfig::default();
    cfg.vm.ido_bug_skip_store_flush = true;
    let serial = explore_jobs(1, &TwinSpec, Scheme::Ido, &cfg);
    let a = serial.counterexample.as_ref().expect("serial oracle catches the injected bug");

    let inst = instrument_program(TwinSpec.build_program(), Scheme::Ido).expect("instruments");
    let (_, _, boundaries) = persist_boundaries(&TwinSpec, &inst, &cfg);
    let n = boundaries.len();
    let failing = boundaries.iter().position(|&s| s == a.crash_step).expect("a boundary");
    // The fan-out's chunk length for `jobs` workers.
    let chunk_len = |jobs: usize| n.div_ceil(jobs);
    let opens = (2..=n).find(|&j| failing % chunk_len(j) == 0 && chunk_len(j) > 1);
    let closes = (2..=n).find(|&j| failing % chunk_len(j) == chunk_len(j) - 1 && chunk_len(j) > 1);
    let every_boundary_its_own_chunk = n;
    for jobs in [opens, closes, Some(every_boundary_its_own_chunk)].into_iter().flatten() {
        let par = explore_jobs(jobs, &TwinSpec, Scheme::Ido, &cfg);
        let b = par.counterexample.as_ref().expect("parallel oracle catches the injected bug");
        assert_eq!(format!("{b:?}"), format!("{a:?}"), "jobs={jobs}");
        assert_eq!(par.crash_states_explored, serial.crash_states_explored, "jobs={jobs}");
        assert_eq!(par.shrink_attempts, serial.shrink_attempts, "jobs={jobs}");
        assert_eq!(par.to_string(), serial.to_string(), "jobs={jobs}");
    }
    assert!(opens.is_some() || closes.is_some(), "boundary {failing} of {n}: no chunking hits it");
}
