//! Crash-oracle sweep: exhaustively explores every persist-boundary crash
//! state of the twin-counter workload under iDO and all five baselines,
//! reporting explored-state counts per scheme, then demonstrates the
//! minimal-counterexample machinery on a deliberately broken iDO variant
//! (store write-backs skipped at region boundaries).
//!
//! `IDO_ORACLE_SMOKE=1` shrinks the sweep to one thread x one op for CI.

use ido_compiler::Scheme;
use ido_crashtest::{explore, explore_all, OracleConfig};
use ido_workloads::micro::TwinSpec;

fn main() {
    let smoke = std::env::var("IDO_ORACLE_SMOKE").is_ok();
    let cfg = if smoke { OracleConfig::smoke() } else { OracleConfig::default() };
    println!(
        "== Crash oracle — twin-counter, {} thread(s) x {} op(s), seed {:#x} ==",
        cfg.threads, cfg.ops_per_thread, cfg.seed
    );
    // `replayed` (steps the forward runs executed: at most jobs x steps),
    // `forked` (lines copied to fork crash states), `us/state` (host time
    // past set-up, per crash state) and `setup` (instrument + reference
    // pass + forward-run construction, as a share of the exploration's host
    // time) are host-side costs that vary with IDO_JOBS and the machine,
    // so they are printed but not in the CSV.
    println!(
        "{:>10} {:>8} {:>8} {:>11} {:>13} {:>9} {:>9} {:>9} {:>6} {:>8}",
        "scheme",
        "steps",
        "events",
        "boundaries",
        "crash states",
        "replayed",
        "forked",
        "us/state",
        "setup",
        "result"
    );
    let reports = explore_all(&TwinSpec, &cfg);
    let mut rows = Vec::new();
    for r in &reports {
        println!(
            "{:>10} {:>8} {:>8} {:>11} {:>13} {:>9} {:>9} {:>9.2} {:>5.0}% {:>8}",
            r.scheme.name(),
            r.total_steps,
            r.persist_events,
            r.boundary_steps,
            r.crash_states_explored,
            r.replayed_steps,
            r.forked_lines,
            (r.host_ns - r.setup_ns) as f64 / 1e3 / r.crash_states_explored as f64,
            100.0 * r.setup_ns as f64 / r.host_ns as f64,
            if r.counterexample.is_none() { "ok" } else { "FAIL" }
        );
        rows.push(format!(
            "{},{},{},{},{},{}",
            r.scheme.name(),
            r.total_steps,
            r.persist_events,
            r.boundary_steps,
            r.crash_states_explored,
            r.counterexample.is_none()
        ));
    }
    ido_bench::write_csv(
        "crash_oracle",
        "scheme,steps,persist_events,boundaries,crash_states,consistent",
        &rows,
    );
    let failed: Vec<_> = reports.iter().filter(|r| r.counterexample.is_some()).collect();
    assert!(
        failed.is_empty(),
        "crash oracle found counterexamples: {:?}",
        failed.iter().map(|r| r.to_string()).collect::<Vec<_>>()
    );

    // Demonstrate counterexample shrinking: re-run iDO with its boundary
    // store write-backs disabled and show the minimal failing crash state.
    println!("\n== Counterexample demo: iDO with boundary store flushes skipped ==");
    let mut buggy = cfg.clone();
    buggy.vm.ido_bug_skip_store_flush = true;
    let report = explore(&TwinSpec, Scheme::Ido, &buggy);
    match &report.counterexample {
        Some(cex) => {
            println!(
                "found after {} crash states (+{} shrink probes):",
                report.crash_states_explored, report.shrink_attempts
            );
            print!("{}", cex.replay_recipe());
        }
        None => panic!("injected bug must yield a counterexample"),
    }
}
