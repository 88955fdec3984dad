//! Fig. 6: Redis throughput for databases with 10K, 100K, and 1M-element
//! key ranges (single-threaded; 80% get / 20% put; power-law keys).
//!
//! Paper shape to reproduce: iDO outperforms the other persistence systems
//! at every key range with 30–50% overhead relative to Origin; the gap to
//! Origin *shrinks* as the database grows (searching dominates and read
//! paths are idempotent, hence nearly free under iDO); NVML beats Atlas
//! (no compiler tracking or lock instrumentation to pay for).

use ido_bench::{bench_config, ops_per_thread, run_point, write_csv, LOG_PER_OP};
use ido_compiler::Scheme;
use ido_workloads::kv::redis::RedisSpec;

fn main() {
    let schemes = [Scheme::Origin, Scheme::Ido, Scheme::Nvml, Scheme::Atlas, Scheme::JustDo];
    let ranges: [(u64, &str, u64); 3] =
        [(10_000, "10K", 4), (100_000, "100K", 2), (1_000_000, "1M", 1)];
    let base_ops = ops_per_thread(4000);

    println!("\n== Fig. 6 — Redis throughput (Mops/s, simulated) ==");
    print!("{:>8}", "range");
    for s in schemes {
        print!("{:>12}", s.name());
    }
    println!();

    let mut rows = Vec::new();
    let mut overhead_vs_origin = Vec::new();
    for (range, label, ops_scale) in ranges {
        let spec = RedisSpec::with_range(range);
        let ops = base_ops * ops_scale;
        let heap_mib = (64 + range / 12_000).next_power_of_two() as usize;
        let cfg = bench_config(heap_mib, 1, ops, LOG_PER_OP);
        print!("{label:>8}");
        let mut origin_mops = 0.0;
        let mut ido_mops = 0.0;
        for scheme in schemes {
            let stats = run_point(&spec, scheme, 1, ops, cfg.clone());
            let mops = stats.mops();
            if scheme == Scheme::Origin {
                origin_mops = mops;
            }
            if scheme == Scheme::Ido {
                ido_mops = mops;
            }
            print!("{mops:>12.3}");
            rows.push(format!("{label},{},{mops:.4}", scheme.name()));
        }
        println!();
        overhead_vs_origin.push((label, 1.0 - ido_mops / origin_mops));
    }
    write_csv("fig6_redis", "range,scheme,mops", &rows);

    println!("\nshape checks:");
    for (label, ov) in &overhead_vs_origin {
        println!("  iDO overhead vs Origin at {label}: {:.0}% (paper: 30–50%, shrinking)", ov * 100.0);
    }
    let shrinking = overhead_vs_origin.windows(2).all(|w| w[1].1 <= w[0].1 + 0.02);
    println!("  overhead shrinks with database size: {shrinking} (paper: true)");
}
