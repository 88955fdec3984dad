//! Ablation study of iDO's design choices (the knobs `DESIGN.md` §4 calls
//! out):
//!
//! 1. **Persist coalescing** (Section IV-B): pack up to eight register
//!    slots per cache-line write-back vs. fencing each slot individually.
//! 2. **Fence placement**: our amortized lock-acquire write-back and lazy
//!    step-2 fence vs. the paper's exact eager sequences.
//! 3. **Alias-analysis precision** (Section V-C: "the average region size
//!    could be improved with better alias analysis"): basicAA vs. no alias
//!    analysis at all.

use ido_bench::{bench_config, ops_per_thread, run_point, NO_LOG};
use ido_compiler::Scheme;
use ido_idem::{analyze_with, AliasMode, RegionStats};
use ido_nvm::StatsSnapshot;
use ido_vm::VmConfig;
use ido_workloads::kv::memcached::MemcachedSpec;
use ido_workloads::micro::{ListSpec, StackSpec};
use ido_workloads::WorkloadSpec;

fn measure(
    spec: &dyn WorkloadSpec,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
    variant: &str,
    counter_rows: &mut Vec<String>,
) -> f64 {
    let stats = run_point(spec, Scheme::Ido, threads, ops, cfg);
    counter_rows.push(format!(
        "{variant},{},{threads},{:.4},{}",
        stats.workload,
        stats.mops(),
        stats.mem_stats.csv_fields()
    ));
    stats.mops()
}

fn main() {
    let ops = ops_per_thread(400);
    let base = bench_config(256, 8, ops, NO_LOG); // iDO variants only

    println!("\n== Ablation 1+2 — iDO runtime mechanisms (Mops/s) ==");
    println!(
        "{:>34} {:>10} {:>12} {:>14}",
        "variant", "stack 4T", "list(128) 8T", "memcached 8T"
    );
    let variants: [(&str, VmConfig); 4] = [
        ("full iDO (this repo's default)", base.clone()),
        ("eager step-2 fence (paper-exact)", VmConfig { ido_eager_step2_fence: true, ..base.clone() }),
        (
            "unmerged acquire fence (paper-exact)",
            VmConfig { ido_unmerged_acquire_fence: true, ido_eager_step2_fence: true, ..base.clone() },
        ),
        ("no persist coalescing", VmConfig { ido_no_coalescing: true, ..base }),
    ];
    let stack = StackSpec;
    let list = ListSpec { key_range: 128 };
    let mc = MemcachedSpec::insertion_intensive();
    let mut rows = Vec::new();
    let mut counter_rows = Vec::new();
    for (name, cfg) in variants {
        let a = measure(&stack, 4, ops, cfg.clone(), name, &mut counter_rows);
        let b = measure(&list, 8, ops / 2, cfg.clone(), name, &mut counter_rows);
        let c = measure(&mc, 8, ops, cfg, name, &mut counter_rows);
        println!("{name:>34} {a:>10.3} {b:>12.3} {c:>14.3}");
        rows.push(format!("{name},{a:.4},{b:.4},{c:.4}"));
    }
    ido_bench::write_csv("ablation_runtime", "variant,stack,list,memcached", &rows);
    ido_bench::write_csv(
        "ablation_counters",
        &format!("variant,workload,threads,mops,{}", StatsSnapshot::CSV_HEADER),
        &counter_rows,
    );

    println!("\n== Ablation 3 — alias-analysis precision vs. region shape ==");
    println!(
        "{:>14} {:>10} {:>10} {:>14} {:>16}",
        "workload", "AA", "regions", "mean length", "multi-store frac"
    );
    let mut rows = Vec::new();
    let specs: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("stack", Box::new(StackSpec)),
        ("ordered-list", Box::new(ListSpec { key_range: 128 })),
        ("memcached", Box::new(MemcachedSpec::insertion_intensive())),
    ];
    for (name, spec) in &specs {
        for (aa_name, mode) in [
            ("none", AliasMode::None),
            ("basicAA", AliasMode::Basic),
            ("oracle", AliasMode::Precise),
        ] {
            let program = spec.build_program();
            let func = program.function(ido_ir::FuncId(0));
            let analysis = analyze_with(func, mode);
            let summary = RegionStats::summarize(&analysis);
            println!(
                "{name:>14} {aa_name:>10} {:>10} {:>14.1} {:>16.3}",
                summary.region_count,
                summary.mean_region_len(),
                summary.frac_stores_at_least(2),
            );
            rows.push(format!(
                "{name},{aa_name},{},{:.2},{:.4}",
                summary.region_count,
                summary.mean_region_len(),
                summary.frac_stores_at_least(2)
            ));
        }
    }
    ido_bench::write_csv("ablation_alias", "workload,aa,regions,mean_len,multi_store", &rows);
    println!(
        "\nbasicAA's different-base conservatism makes it behave like no alias\n\
         analysis on pointer-heavy code, while the (unsound, analysis-only)\n\
         oracle produces markedly fewer, larger regions — quantifying the\n\
         paper's Section V-C remark that better alias analysis would enlarge\n\
         regions and improve iDO further."
    );
}
