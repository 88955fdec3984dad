//! Fig. 7: Microbenchmark throughput as a function of thread count, for
//! the four JUSTDO data structures (stack, queue, ordered list, hash map).
//!
//! Paper shape to reproduce: iDO matches or outperforms the other
//! FASE-based schemes everywhere, especially at high thread counts; the
//! hash map scales near-linearly under iDO (no runtime synchronization
//! beyond the program's own locks) while Mnemosyne saturates on its global
//! lock; the stack serializes for everyone; Mnemosyne wins at low thread
//! counts on the ordered list (it logs no lock operations) but iDO
//! overtakes it as extracted parallelism wins.

use ido_bench::{
    bench_config, curves_from_stats, curves_to_rows, format_curves, hi_thread_config,
    list_log_per_op, ops_per_thread, point_at, sweep_stats, write_csv, HI_THREAD_SWEEP,
    LOG_PER_OP, THREAD_SWEEP,
};
use ido_compiler::Scheme;
use ido_nvm::StatsSnapshot;
use ido_workloads::micro::{AllocChurnSpec, ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::WorkloadSpec;

fn main() {
    let schemes =
        [Scheme::Origin, Scheme::Ido, Scheme::Atlas, Scheme::Mnemosyne, Scheme::JustDo];
    let ops = ops_per_thread(300);
    // One config for all four structures, sized for the hungriest.
    let cfg = bench_config(512, 64, ops, list_log_per_op(256));

    let specs: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("stack", Box::new(StackSpec)),
        ("queue", Box::new(QueueSpec)),
        ("ordered-list", Box::new(ListSpec { key_range: 256 })),
        ("hash-map", Box::new(MapSpec { buckets: 128, key_range: 4096 })),
    ];

    for (name, spec) in &specs {
        let stats = sweep_stats(spec.as_ref(), &schemes, &THREAD_SWEEP, ops, cfg.clone());
        let curves = curves_from_stats(&schemes, &THREAD_SWEEP, &stats);
        println!("{}", format_curves(&format!("Fig. 7 — {name}"), &curves));
        write_csv(&format!("fig7_{name}"), "threads,scheme,mops", &curves_to_rows(&curves));

        // Per-point persistence counters: one row per (scheme, threads)
        // point, with one column per `StatsSnapshot` counter — the raw
        // material behind the Fig. 7 cost story.
        let counter_rows: Vec<String> = stats
            .iter()
            .map(|s| {
                format!(
                    "{},{},{:.4},{}",
                    s.threads,
                    s.scheme.name(),
                    s.mops(),
                    s.mem_stats.csv_fields()
                )
            })
            .collect();
        write_csv(
            &format!("fig7_{name}_counters"),
            &format!("threads,scheme,mops,{}", StatsSnapshot::CSV_HEADER),
            &counter_rows,
        );

        // Shape summaries (curves looked up by scheme, not position).
        let ido64 = point_at(&curves, Scheme::Ido, 64);
        let mnemo64 = point_at(&curves, Scheme::Mnemosyne, 64);
        let ido1 = point_at(&curves, Scheme::Ido, 1);
        println!(
            "shape ({name}): iDO 64T/1T scaling = {:.1}x; iDO/Mnemosyne at 64T = {:.2}",
            ido64 / ido1,
            ido64 / mnemo64
        );
    }

    // Extended sweep past the paper's testbed: the two structures with the
    // most headroom — the near-linear hash map (does iDO keep scaling to
    // 256 threads?) and the alloc-churn workload (the allocator itself on
    // the hot path) — over 64–256 threads with the sharded allocator.
    let hi_cfg = hi_thread_config(512, ops, LOG_PER_OP);
    let hi_specs: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("hash-map", Box::new(MapSpec { buckets: 512, key_range: 16384 })),
        ("alloc-churn", Box::new(AllocChurnSpec)),
    ];
    for (name, spec) in &hi_specs {
        let stats = sweep_stats(spec.as_ref(), &schemes, &HI_THREAD_SWEEP, ops, hi_cfg.clone());
        let curves = curves_from_stats(&schemes, &HI_THREAD_SWEEP, &stats);
        println!("{}", format_curves(&format!("Fig. 7 — {name}, 64–256 threads"), &curves));
        write_csv(&format!("fig7_{name}_hi"), "threads,scheme,mops", &curves_to_rows(&curves));
    }
}
