//! Serial/parallel equivalence of the sweep engine (ISSUE 2 acceptance):
//! the deterministic ordered parallel map must make worker count
//! *unobservable* in sweep output — same curves, same formatted table,
//! same CSV bytes for `jobs = 1` and `jobs = 4`.
//!
//! These tests use the explicit-jobs entry point rather than setting
//! `IDO_JOBS`, because the process environment is shared across the test
//! harness's threads.

use ido_bench::{bench_config, curves_to_rows, format_curves, sweep_threads_jobs, LOG_PER_OP};
use ido_compiler::Scheme;
use ido_workloads::micro::{MapSpec, StackSpec};

const SCHEMES: [Scheme; 4] = [Scheme::Origin, Scheme::Ido, Scheme::Atlas, Scheme::JustDo];

#[test]
fn sweep_is_byte_identical_for_any_job_count() {
    let spec = MapSpec { buckets: 16, key_range: 256 };
    let threads = [1usize, 2, 4];
    let cfg = bench_config(16, 4, 30, LOG_PER_OP);
    let serial = sweep_threads_jobs(1, &spec, &SCHEMES, &threads, 30, cfg.clone());
    for jobs in [2usize, 4, 8] {
        let par = sweep_threads_jobs(jobs, &spec, &SCHEMES, &threads, 30, cfg.clone());
        // The formatted table and the CSV rows are the artifacts the
        // figure binaries emit; both must match byte for byte.
        assert_eq!(
            format_curves("fig7-style", &serial),
            format_curves("fig7-style", &par),
            "table differs at jobs={jobs}"
        );
        assert_eq!(
            curves_to_rows(&serial),
            curves_to_rows(&par),
            "CSV rows differ at jobs={jobs}"
        );
    }
}

#[test]
fn sweep_curves_come_back_in_scheme_order() {
    let curves = sweep_threads_jobs(4, &StackSpec, &SCHEMES, &[1, 2], 20, bench_config(8, 2, 20, LOG_PER_OP));
    let got: Vec<Scheme> = curves.iter().map(|c| c.scheme).collect();
    assert_eq!(got, SCHEMES.to_vec(), "curve order must follow the schemes argument");
    for c in &curves {
        assert_eq!(c.points.len(), 2);
        assert!(c.points[0].0 == 1 && c.points[1].0 == 2, "points follow the threads argument");
    }
}
