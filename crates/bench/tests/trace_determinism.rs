//! Trace determinism: the merged event stream must be byte-identical
//! across repeated runs and across sweep worker counts (`IDO_JOBS`), since
//! every figure and the CI smoke diff traces byte-for-byte.

use ido_bench::{bench_config, sweep_stats_jobs, LOG_PER_OP};
use ido_compiler::Scheme;
use ido_trace::TraceConfig;
use ido_vm::VmConfig;
use ido_workloads::micro::{MapSpec, StackSpec};

fn traced_cfg() -> VmConfig {
    let mut cfg = bench_config(8, 3, 25, LOG_PER_OP);
    cfg.pool.trace = TraceConfig { enabled: true, buf_entries: 1 << 12 };
    cfg
}

/// Encoded traces of a (schemes × threads) sweep run with `jobs` workers.
fn encoded_sweep(jobs: usize) -> Vec<Vec<u8>> {
    let spec = MapSpec { buckets: 8, key_range: 128 };
    let schemes = [Scheme::Origin, Scheme::Ido, Scheme::Atlas, Scheme::JustDo];
    let stats = sweep_stats_jobs(jobs, &spec, &schemes, &[1, 3], 25, traced_cfg());
    stats
        .iter()
        .map(|s| s.trace.as_ref().expect("tracing was on").encode())
        .collect()
}

#[test]
fn traces_are_identical_across_job_counts() {
    let one = encoded_sweep(1);
    let four = encoded_sweep(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert!(!a.is_empty());
        assert_eq!(a, b, "trace {i} differs between IDO_JOBS=1 and IDO_JOBS=4");
    }
}

#[test]
fn traces_are_identical_across_identical_runs() {
    let run = || {
        let stats =
            sweep_stats_jobs(2, &StackSpec, &[Scheme::Ido, Scheme::Mnemosyne], &[2], 30, traced_cfg());
        stats
            .iter()
            .map(|s| s.trace.as_ref().expect("tracing was on").encode())
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical runs must produce identical traces");
    // And the streams are non-trivial: header + at least one event.
    assert!(a.iter().all(|t| t.len() > 64));
}
