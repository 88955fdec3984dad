//! Static-verifier report: lints every standard workload under every
//! scheme (the CI gate — any violation fails the run), then cross-checks
//! static verdicts against targeted crash-oracle explorations
//! (differential mode: disagreement in either direction is an analysis
//! bug), and finally demonstrates agreement on a deliberately broken
//! runtime (`ido_bug_skip_store_flush`): the verifier flags it from the
//! model alone, the oracle confirms with a minimal counterexample.
//!
//! `IDO_BENCH_QUICK=1` restricts the differential sweep to the
//! twin-counter workload for CI.

use ido_compiler::Scheme;
use ido_crashtest::OracleConfig;
use ido_verify::{differential, lint_workloads, RuntimeModel};
use ido_workloads::{micro::TwinSpec, standard_specs, WorkloadSpec};

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok();

    // ---- Lint sweep: every standard workload x every scheme ----
    println!("== Static lint: standard workloads x all schemes ==");
    let report = lint_workloads(&RuntimeModel::for_tests());
    println!("{:>12} {:>10} {:>10}", "workload", "scheme", "violations");
    let mut rows = Vec::new();
    for e in &report.entries {
        println!("{:>12} {:>10} {:>10}", e.workload, e.scheme.name(), e.diagnostics.len());
        rows.push(format!("{},{},{}", e.workload, e.scheme.name(), e.diagnostics.len()));
        for d in &e.diagnostics {
            println!("    {d}");
        }
    }
    ido_bench::write_csv("verify_lint", "workload,scheme,violations", &rows);
    assert!(report.is_clean(), "static lint found violations:\n{report}");
    println!(
        "lint clean: {} (workload, scheme) pairs, 0 violations\n",
        report.entries.len()
    );

    // ---- Differential mode: static verdict vs crash oracle ----
    println!("== Differential: static verdict vs exhaustive crash oracle ==");
    let cfg = OracleConfig::smoke();
    let specs: Vec<Box<dyn WorkloadSpec>> =
        if quick { vec![Box::new(TwinSpec)] } else { standard_specs() };
    println!(
        "{:>12} {:>10} {:>8} {:>13} {:>8} {:>6}",
        "workload", "scheme", "static", "crash states", "dynamic", "agree"
    );
    let mut rows = Vec::new();
    let mut all_agree = true;
    for spec in &specs {
        for scheme in ido_crashtest::DURABLE_SCHEMES {
            let r = differential(spec.as_ref(), scheme, &cfg);
            println!(
                "{:>12} {:>10} {:>8} {:>13} {:>8} {:>6}",
                r.workload,
                r.scheme.name(),
                if r.diagnostics.is_empty() { "clean" } else { "flagged" },
                r.exploration.crash_states_explored,
                if r.exploration.counterexample.is_none() { "ok" } else { "FAIL" },
                r.agree
            );
            rows.push(format!(
                "{},{},{},{},{},{}",
                r.workload,
                r.scheme.name(),
                r.diagnostics.len(),
                r.exploration.crash_states_explored,
                r.exploration.counterexample.is_none(),
                r.agree
            ));
            all_agree &= r.agree;
        }
    }
    ido_bench::write_csv(
        "verify_differential",
        "workload,scheme,static_findings,crash_states,dynamic_ok,agree",
        &rows,
    );
    assert!(all_agree, "static and dynamic verdicts disagree");
    println!("differential agreement on every (workload, scheme) pair\n");

    // ---- Agreement on a broken runtime ----
    println!("== Injected bug: iDO with boundary store flushes skipped ==");
    let mut buggy = cfg.clone();
    buggy.vm.ido_bug_skip_store_flush = true;
    let r = differential(&TwinSpec, Scheme::Ido, &buggy);
    assert!(!r.diagnostics.is_empty(), "verifier must flag the injected bug");
    assert!(
        r.exploration.counterexample.is_some(),
        "oracle must refute the injected bug"
    );
    assert!(r.agree, "both sides must agree on the broken runtime");
    println!("static findings:");
    for d in &r.diagnostics {
        println!("  {d}");
    }
    let cex = r.exploration.counterexample.as_ref().unwrap();
    println!(
        "oracle counterexample after {} crash states (+{} shrink probes):",
        r.exploration.crash_states_explored, r.exploration.shrink_attempts
    );
    println!("  {cex}");
    println!("verdicts agree: flagged statically, refuted dynamically");
}
