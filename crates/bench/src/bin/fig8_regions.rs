//! Fig. 8: benchmark region characteristics — cumulative dynamic
//! distribution of stores per idempotent region (top) and live-in
//! registers per region (bottom), for all six benchmarks.
//!
//! Paper shape to reproduce: in the microbenchmarks most regions contain
//! zero or one stores; in the applications roughly 30% (Memcached) to 50%
//! (Redis) of regions have multiple stores (iDO consolidates their log
//! operations); and more than 99% of dynamic regions have fewer than five
//! live-in registers, so a typical log operation flushes a single cache
//! line.
//!
//! It also writes `ablation_alias.csv`, the static half of the ablation
//! study: alias-analysis precision (Section V-C: "the average region size
//! could be improved with better alias analysis") against region shape,
//! basicAA against no alias analysis and an (unsound, analysis-only)
//! oracle. The runtime half is `corpus/figures/ablation_*.ido`.

use ido_bench::write_csv;
use ido_compiler::Scheme;
use ido_idem::{analyze_with, AliasMode, RegionStats};
use ido_trace::{Profile, TraceConfig, PROFILE_BUCKETS};
use ido_vm::VmConfig;
use ido_workloads::kv::{memcached::MemcachedSpec, redis::RedisSpec};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::{bench_config, run_workload, WorkloadSpec, NO_LOG};

/// Fig. 8's region profile of one run, read off its trace: tracing costs
/// no simulated time, and the profile is computed at emission, so a
/// one-entry ring suffices.
fn region_profile(spec: &dyn WorkloadSpec, threads: usize, ops: u64, cfg: &VmConfig) -> Profile {
    let stats = run_workload(Scheme::Ido, spec, threads, ops, cfg.clone());
    stats.trace.expect("tracing on").profile
}

fn main() {
    let ops = 1500;
    let mut cfg = bench_config(256, 4, ops, NO_LOG); // iDO only
    cfg.pool.trace = TraceConfig { enabled: true, buf_entries: 1 };
    let specs: Vec<(&str, Box<dyn WorkloadSpec>, usize)> = vec![
        ("stack", Box::new(StackSpec), 4),
        ("queue", Box::new(QueueSpec), 4),
        ("ordered-list", Box::new(ListSpec { key_range: 128 }), 4),
        ("hash-map", Box::new(MapSpec { buckets: 128, key_range: 4096 }), 4),
        ("memcached", Box::new(MemcachedSpec::insertion_intensive()), 4),
        ("redis", Box::new(RedisSpec::with_range(10_000)), 1),
    ];

    let mut rows = Vec::new();
    println!("\n== Fig. 8 — dynamic region characteristics (iDO) ==");
    println!(
        "{:>14} {:>10} | {:>42} | {:>42}",
        "benchmark", "regions", "stores/region CDF (0,1,2,3,4+)", "live-in regs CDF (0,1,2,3,4+)"
    );
    for (name, spec, threads) in &specs {
        let p = region_profile(spec.as_ref(), *threads, ops, &cfg);
        let s_cdf = p.stores_cdf();
        let i_cdf = p.inputs_cdf();
        let fmt5 = |cdf: &[f64; PROFILE_BUCKETS]| {
            format!(
                "{:.2} {:.2} {:.2} {:.2} {:.2}",
                cdf[0], cdf[1], cdf[2], cdf[3], cdf[4]
            )
        };
        println!(
            "{:>14} {:>10} | {:>42} | {:>42}",
            name,
            p.regions,
            fmt5(&s_cdf),
            fmt5(&i_cdf)
        );
        for k in 0..PROFILE_BUCKETS {
            rows.push(format!("{name},{k},{:.4},{:.4}", s_cdf[k], i_cdf[k]));
        }
    }
    write_csv("fig8_regions", "benchmark,bucket,stores_cdf,inputs_cdf", &rows);

    println!("\nshape checks:");
    for (name, spec, threads) in &specs {
        let p = region_profile(spec.as_ref(), *threads, ops / 3, &cfg);
        println!(
            "  {:>14}: multi-store regions = {:>5.1}%   regions with <5 live-ins = {:>5.1}% (paper: >99%)",
            name,
            p.frac_multi_store() * 100.0,
            p.frac_inputs_below_5() * 100.0,
        );
    }

    let mut rows = Vec::new();
    for (name, spec, _) in specs.iter().filter(|(name, ..)| ["stack", "ordered-list", "memcached"].contains(name)) {
        let program = spec.build_program();
        for (aa, mode) in [("none", AliasMode::None), ("basicAA", AliasMode::Basic), ("oracle", AliasMode::Precise)] {
            let s = RegionStats::summarize(&analyze_with(program.function(ido_ir::FuncId(0)), mode));
            let (mean_len, multi_store) = (s.mean_region_len(), s.frac_stores_at_least(2));
            rows.push(format!("{name},{aa},{},{mean_len:.2},{multi_store:.4}", s.region_count));
        }
    }
    write_csv("ablation_alias", "workload,aa,regions,mean_len,multi_store", &rows);
}
