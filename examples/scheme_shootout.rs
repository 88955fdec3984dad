//! Scheme shootout: the same workload under all seven runtimes.
//!
//! Runs the hash-map microbenchmark through the full pipeline for every
//! scheme, then crashes each mid-run and recovers, printing a comparison
//! of throughput, persistence traffic, and recovery behavior — a miniature
//! of the paper's whole evaluation in one binary.
//!
//! Run with: `cargo run --release --example scheme_shootout`

use ido_compiler::{instrument_program, Scheme};
use ido_nvm::PoolConfig;
use ido_vm::{recover, RecoveryConfig, SchedPolicy, VmConfig};
use ido_workloads::micro::MapSpec;
use ido_workloads::{boot, run_workload, WorkloadSpec};

fn main() {
    let spec = MapSpec { buckets: 64, key_range: 1024 };
    let threads = 8;
    let ops = 200;
    let cfg = VmConfig {
        pool: PoolConfig { size: 64 << 20, ..PoolConfig::default() },
        log_entries: 1 << 14,
        ..VmConfig::default()
    };

    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "scheme", "Mops/s", "fences/op", "lines/op", "resumed", "rolled-back"
    );
    for scheme in Scheme::ALL {
        // Throughput leg (runs to completion, checks invariants).
        let stats = run_workload(scheme, &spec, threads, ops, cfg.clone());
        let per_op = |x: u64| x as f64 / stats.total_ops as f64;

        // Crash-recovery leg: crash mid-run, recover, count actions.
        let instrumented =
            instrument_program(spec.build_program(), scheme).expect("instrumentation");
        let random = VmConfig { sched: SchedPolicy::Random, ..cfg.clone() };
        let (mut vm, _) = boot(&spec, instrumented.clone(), threads, ops, random);
        vm.run_steps(threads as u64 * ops * 40); // deep into the run
        let pool = vm.crash(99);
        let report = recover(pool, instrumented, cfg.clone(), RecoveryConfig::for_tests());

        println!(
            "{:>10} {:>10.3} {:>10.2} {:>10.2} {:>10} {:>12}",
            scheme.name(),
            stats.mops(),
            per_op(stats.mem_stats.fences),
            per_op(stats.mem_stats.lines_persisted),
            report.resumed,
            report.rolled_back,
        );
    }
    println!(
        "\nResumption schemes (iDO, JUSTDO) finish interrupted FASEs forward;\n\
         UNDO/REDO schemes roll back or replay. Origin does neither — and is\n\
         the only one whose post-crash state is unprotected."
    );
}
