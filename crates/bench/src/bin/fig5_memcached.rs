//! Fig. 5: Memcached throughput (millions of data-structure operations per
//! second) as a function of thread count, for the insertion-intensive
//! (50% set / 50% get) and search-intensive (10% set / 90% get) workloads.
//!
//! Paper shape to reproduce: iDO outperforms the other FASE-based systems
//! (Atlas, JUSTDO, NVThreads) by ~2× or more; Mnemosyne competes because
//! Memcached 1.2.4's coarse single lock already serializes everything; no
//! system scales past a handful of threads; Origin bounds everyone from
//! above, with iDO reaching roughly 25–33% of it at peak.

use ido_bench::{
    bench_config, curve_for, curves_to_rows, format_curves, hi_thread_config, ops_per_thread,
    peak, sweep_threads, write_csv, HI_THREAD_SWEEP, LOG_PER_OP, THREAD_SWEEP,
};
use ido_compiler::Scheme;
use ido_workloads::kv::memcached::MemcachedSpec;

fn main() {
    let schemes = [
        Scheme::Origin,
        Scheme::Ido,
        Scheme::Atlas,
        Scheme::Mnemosyne,
        Scheme::JustDo,
        Scheme::Nvthreads,
    ];
    let ops = ops_per_thread(400);
    let cfg = bench_config(256, 64, ops, LOG_PER_OP);

    for (label, spec) in [
        ("insertion-intensive (50% set)", MemcachedSpec::insertion_intensive()),
        ("search-intensive (10% set)", MemcachedSpec::search_intensive()),
    ] {
        let curves = sweep_threads(&spec, &schemes, &THREAD_SWEEP, ops, cfg.clone());
        println!("{}", format_curves(&format!("Fig. 5 — Memcached, {label}"), &curves));
        write_csv(
            &format!("fig5_memcached_{}", if label.starts_with("insertion") { "insert" } else { "search" }),
            "threads,scheme,mops",
            &curves_to_rows(&curves),
        );

        let origin = peak(curve_for(&curves, Scheme::Origin));
        let ido = peak(curve_for(&curves, Scheme::Ido));
        let atlas = peak(curve_for(&curves, Scheme::Atlas));
        let justdo = peak(curve_for(&curves, Scheme::JustDo));
        println!("shape checks ({label}):");
        println!("  iDO/Origin peak ratio      = {:.2} (paper: 0.25–0.33)", ido / origin);
        println!("  iDO/Atlas  peak ratio      = {:.2} (paper: ≥ 2)", ido / atlas);
        println!("  iDO/JUSTDO peak ratio      = {:.2} (paper: ≥ 2)", ido / justdo);
    }

    // Extended sweep past the paper's 16-core testbed: 64–256 simulated
    // threads over the sharded allocator (the global-mutex allocator would
    // serialize spawn-time log allocation and mask the runtimes' own
    // saturation, which is the phenomenon of interest here).
    let hi_cfg = hi_thread_config(256, ops, LOG_PER_OP);
    for (tag, spec) in [
        ("insert", MemcachedSpec::insertion_intensive()),
        ("search", MemcachedSpec::search_intensive()),
    ] {
        let curves = sweep_threads(&spec, &schemes, &HI_THREAD_SWEEP, ops, hi_cfg.clone());
        println!(
            "{}",
            format_curves(&format!("Fig. 5 — Memcached ({tag}), 64–256 threads"), &curves)
        );
        write_csv(
            &format!("fig5_memcached_{tag}_hi"),
            "threads,scheme,mops",
            &curves_to_rows(&curves),
        );
    }
}
