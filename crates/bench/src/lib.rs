//! Shared plumbing for the figure/table harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). This library provides the common sweep
//! drivers, result table formatting, and CSV output (written under
//! `target/figures/`).

#![deny(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ido_compiler::Scheme;
use ido_nvm::{LatencyModel, PoolConfig};
use ido_vm::layout::AppendLogLayout;
use ido_vm::VmConfig;
use ido_workloads::{run_workload, RunStats, WorkloadSpec};

/// Thread counts used by the scalability sweeps (the paper's x-axis).
pub const THREAD_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Thread counts for the extended high-thread sweeps (beyond the paper's
/// 16-core testbed: where the schemes' runtime serialization, lock
/// convoys, and allocator contention dominate).
pub const HI_THREAD_SWEEP: [usize; 3] = [64, 128, 256];

/// Append-log records one operation can leave behind under the hungriest
/// scheme, for every workload but the hand-over-hand list: NVML's
/// line-granular `TX_ADD` leaves at most 14 (stack, queue), Atlas at most
/// 18 (hash map at 256 threads, lock-retry records included) — measured
/// as whole-run averages, so 64 leaves head-room for the unluckiest thread.
pub const LOG_PER_OP: usize = 64;

/// For sweeps that measure no append-log scheme (Origin, iDO, JUSTDO).
pub const NO_LOG: usize = 0;

/// [`LOG_PER_OP`] for the hand-over-hand ordered list, where Atlas logs an
/// acquire and a release record per node visited.
pub fn list_log_per_op(key_range: u64) -> usize {
    2 * key_range as usize + LOG_PER_OP
}

/// Returns a VM configuration for up to `threads` workers of `ops`
/// operations each.
///
/// No scheme truncates its append log during a run (Atlas keeps it for
/// dependence tracking, NVML scans it for the last commit), so its
/// capacity is `ops * log_per_op` records, and the pool is `heap_mib` for
/// the workload's own data plus every thread's log and stack: a sweep
/// sized this way can raise `IDO_BENCH_OPS` or its thread count without
/// overflowing a log or exhausting the pool.
pub fn bench_config(heap_mib: usize, threads: usize, ops: u64, log_per_op: usize) -> VmConfig {
    let base = VmConfig::default();
    let log_entries = (ops as usize * log_per_op).next_multiple_of(1 << 10).max(1 << 12);
    // The iDO and JUSTDO logs are a few hundred bytes each.
    let per_thread = AppendLogLayout::size_for(log_entries) + base.stack_bytes + (8 << 10);
    VmConfig {
        pool: PoolConfig { size: (heap_mib << 20) + threads * per_thread, ..PoolConfig::default() },
        log_entries,
        max_threads: threads.max(base.max_threads),
        ..base
    }
}

/// Switches a [`bench_config`] to the sharded allocator and doubles its
/// pool: that allocator keeps up to half the pool for its small-object
/// chunks, while the logs, stacks and arenas `bench_config` sized are
/// large blocks, which come out of the other half.
pub fn with_sharded_alloc(mut cfg: VmConfig, shards: usize) -> VmConfig {
    cfg.alloc = ido_nvm::AllocPolicy::Sharded { shards };
    cfg.pool.size *= 2;
    cfg
}

/// [`bench_config`] for [`HI_THREAD_SWEEP`], over the sharded allocator
/// (the legacy global-mutex allocator would serialize spawn-time log
/// allocation and drown the signal being measured).
pub fn hi_thread_config(heap_mib: usize, ops: u64, log_per_op: usize) -> VmConfig {
    let threads = HI_THREAD_SWEEP[HI_THREAD_SWEEP.len() - 1];
    with_sharded_alloc(bench_config(heap_mib, threads, ops, log_per_op), 64)
}

/// Applies an extra NVM delay (the Fig. 9 knob) to a config.
pub fn with_nvm_delay(mut cfg: VmConfig, delay_ns: u64) -> VmConfig {
    cfg.pool.latency = LatencyModel::with_nvm_delay(delay_ns);
    cfg
}

/// Number of operations per thread, overridable with `IDO_BENCH_OPS`.
pub fn ops_per_thread(default: u64) -> u64 {
    std::env::var("IDO_BENCH_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One measured curve: throughput per thread count for one scheme.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Scheme measured.
    pub scheme: Scheme,
    /// `(threads, Mops/s)` points.
    pub points: Vec<(usize, f64)>,
}

/// Runs a thread sweep for several schemes over one workload.
///
/// Every (scheme × thread-count) point is an independent simulation over
/// its own pool, so the cross product fans out over `ido-par`'s
/// deterministic ordered parallel map (worker count from `IDO_JOBS`,
/// default `available_parallelism`). Results are reassembled in `schemes`
/// × `threads` input order, so the returned curves — and every table or
/// CSV derived from them — are byte-identical for any job count.
pub fn sweep_threads(
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<Curve> {
    sweep_threads_jobs(ido_par::jobs(), spec, schemes, threads, ops, cfg)
}

/// [`sweep_threads`] with an explicit worker count. The determinism tests
/// use this to compare `jobs = 1` against `jobs = N` in-process without
/// racing on the `IDO_JOBS` environment variable.
pub fn sweep_threads_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<Curve> {
    let stats = sweep_stats_jobs(jobs, spec, schemes, threads, ops, cfg);
    curves_from_stats(schemes, threads, &stats)
}

/// Regroups a [`sweep_stats_jobs`] result (schemes-major order) into
/// per-scheme throughput curves.
pub fn curves_from_stats(schemes: &[Scheme], threads: &[usize], stats: &[RunStats]) -> Vec<Curve> {
    if threads.is_empty() {
        return schemes.iter().map(|&scheme| Curve { scheme, points: Vec::new() }).collect();
    }
    schemes
        .iter()
        .zip(stats.chunks(threads.len()))
        .map(|(&scheme, pts)| Curve {
            scheme,
            points: pts.iter().map(|s| (s.threads, s.mops())).collect(),
        })
        .collect()
}

/// [`sweep_stats_jobs`] with the ambient (`IDO_JOBS`) worker count.
pub fn sweep_stats(
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<RunStats> {
    sweep_stats_jobs(ido_par::jobs(), spec, schemes, threads, ops, cfg)
}

/// Runs the (scheme × threads) cross product and returns the **full**
/// [`RunStats`] for every point, in `schemes`-major input order. This is
/// the counter-CSV driver: the figure binaries pull per-point
/// [`ido_nvm::StatsSnapshot`] columns out of these instead of re-running.
pub fn sweep_stats_jobs(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    schemes: &[Scheme],
    threads: &[usize],
    ops: u64,
    cfg: VmConfig,
) -> Vec<RunStats> {
    let tasks: Vec<(Scheme, usize)> = schemes
        .iter()
        .flat_map(|&scheme| threads.iter().map(move |&t| (scheme, t)))
        .collect();
    ido_par::par_map_jobs(jobs, tasks, |(scheme, t)| run_workload(scheme, spec, t, ops, cfg.clone()))
}

/// Runs one point and returns full stats.
pub fn run_point(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
) -> RunStats {
    run_workload(scheme, spec, threads, ops, cfg)
}

/// Renders curves as an aligned text table (threads down, schemes across).
pub fn format_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==  (Mops/s, simulated)");
    let _ = write!(out, "{:>8}", "threads");
    for c in curves {
        let _ = write!(out, "{:>12}", c.scheme.name());
    }
    let _ = writeln!(out);
    let n = curves.first().map_or(0, |c| c.points.len());
    for i in 0..n {
        let _ = write!(out, "{:>8}", curves[0].points[i].0);
        for c in curves {
            let _ = write!(out, "{:>12.3}", c.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Writes curves as CSV under `target/figures/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("target/figures");
    let _ = fs::create_dir_all(&dir);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    if fs::write(&path, body).is_ok() {
        println!("wrote {}", path.display());
    }
}

/// Writes `target/figures/BENCH_<name>.json`, the machine-readable result
/// CI byte-compares across `IDO_JOBS` settings.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_bench_json(name: &str, json: &str) {
    let dir = PathBuf::from("target/figures");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Converts curves to CSV rows `threads,scheme,mops`.
pub fn curves_to_rows(curves: &[Curve]) -> Vec<String> {
    let mut rows = Vec::new();
    for c in curves {
        for (t, m) in &c.points {
            rows.push(format!("{t},{},{m:.4}", c.scheme.name()));
        }
    }
    rows
}

/// The relative-throughput summary used in the shape checks: ratio of each
/// scheme's peak to Origin's peak.
pub fn peak(curve: &Curve) -> f64 {
    curve.points.iter().map(|(_, m)| *m).fold(0.0, f64::max)
}

/// Looks a curve up by scheme — the robust alternative to indexing the
/// sweep result by position, which silently reads the wrong curve when a
/// binary's scheme list is reordered or extended.
///
/// # Panics
/// Panics if `scheme` was not part of the sweep.
pub fn curve_for(curves: &[Curve], scheme: Scheme) -> &Curve {
    curves
        .iter()
        .find(|c| c.scheme == scheme)
        .unwrap_or_else(|| panic!("no curve for scheme {scheme} in sweep result"))
}

/// Throughput of `scheme` at `threads` in a sweep result (0.0 when that
/// thread count was not measured).
///
/// # Panics
/// Panics if `scheme` was not part of the sweep.
pub fn point_at(curves: &[Curve], scheme: Scheme, threads: usize) -> f64 {
    curve_for(curves, scheme).points.iter().find(|(t, _)| *t == threads).map_or(0.0, |(_, m)| *m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ido_workloads::micro::StackSpec;

    #[test]
    fn sweep_produces_points_for_each_scheme() {
        let curves = sweep_threads(
            &StackSpec,
            &[Scheme::Origin, Scheme::Ido],
            &[1, 2],
            20,
            bench_config(8, 2, 20, NO_LOG),
        );
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].points.len(), 2);
        assert!(peak(&curves[0]) > 0.0);
        let table = format_curves("test", &curves);
        assert!(table.contains("Origin") && table.contains("iDO"));
    }

    #[test]
    fn csv_rows_match_points() {
        let curves = vec![Curve { scheme: Scheme::Ido, points: vec![(1, 2.5), (2, 3.5)] }];
        let rows = curves_to_rows(&curves);
        assert_eq!(rows, vec!["1,iDO,2.5000", "2,iDO,3.5000"]);
    }
}
