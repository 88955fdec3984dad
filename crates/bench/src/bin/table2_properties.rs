//! Table II: failure-atomic systems and their properties — printed from
//! `Scheme::info()`, the rows the compiler lowers by, so the table is what
//! the code implements.

use ido_compiler::Scheme;

fn main() {
    let yes_no = |b| if b { "Yes" } else { "No" };
    println!("\n== Table II — failure-atomic systems and their properties ==\n");
    println!(
        "{:<12} {:<24} {:<12} {:<20} {:<12} {:<10}",
        "System", "Region semantics", "Recovery", "Logging granularity", "Dep.track?", "Transient caches?"
    );
    for s in [
        Scheme::Ido,
        Scheme::Atlas,
        Scheme::Mnemosyne,
        Scheme::Nvthreads,
        Scheme::JustDo,
        Scheme::Nvml,
    ] {
        let row = s.info();
        println!(
            "{:<12} {:<24} {:<12} {:<20} {:<12} {:<10}",
            row.name,
            row.region_semantics,
            row.recovery,
            row.logging_granularity,
            yes_no(row.dependence_tracking),
            yes_no(row.transient_caches)
        );
    }
    println!("\n(NV-Heaps and SoftWrAP from the paper's Table II are not implemented:");
    println!(" they are object/block-granularity transactional designs whose behavior");
    println!(" is covered by the NVML and Mnemosyne points in this reproduction.)");
}
