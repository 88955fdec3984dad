//! Table I: ratio of Atlas recovery time to iDO recovery time after kill
//! times of 1–50 seconds, for the four microbenchmarks at 64 threads.
//!
//! Paper shape to reproduce: at 1 s the ratio is near or below ~5 (both
//! systems pay constant startup work); from 10 s on, Atlas recovery grows
//! linearly with its log volume while iDO recovery stays constant (~1 s,
//! dominated by mapping the region and creating recovery threads), giving
//! ratios in the tens to hundreds — largest for the ordered list, whose
//! hand-over-hand locking writes the most lock-tracking log entries per
//! operation.
//!
//! Method: a calibration run measures each structure's simulated
//! throughput and Atlas log-growth rate, plus the *measured* recovery
//! costs of both schemes on a real crash of that run; the per-entry scan
//! cost from the measured Atlas recovery then extrapolates the log volume
//! a T-second run would accumulate. (Simulating 50 s × 64 threads of
//! wall-clock directly would interpret ~10¹¹ instructions.)

use ido_bench::{bench_config, list_log_per_op, ops_per_thread};
use ido_compiler::{instrument_program, Scheme};
use ido_nvm::MetricsConfig;
use ido_trace::{TraceConfig, RECOVERY_PHASES};
use ido_vm::{recover, RecoveryConfig, SchedPolicy, Vm};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::WorkloadSpec;

const THREADS: usize = 64;
const KILL_TIMES_S: [u64; 6] = [1, 10, 20, 30, 40, 50];
/// Window width for the recovery-progress time series (simulated ns).
const WINDOW_NS: u64 = 1_000_000;

/// Per-window recovery activity: `(window index, start ns, per-phase ns)`.
type PhaseWindows = Vec<(usize, u64, [u64; RECOVERY_PHASES])>;

struct Calibration {
    entries_per_sim_sec: f64,
    atlas_fixed_ns: f64,
    atlas_per_entry_ns: f64,
    ido_recovery_ns: f64,
    /// Measured `[scan, resume, release, rebuild]` split of the Atlas recovery, ns.
    atlas_phase_ns: [u64; RECOVERY_PHASES],
    /// Measured `[scan, resume, release, rebuild]` split of the iDO recovery, ns.
    ido_phase_ns: [u64; RECOVERY_PHASES],
    /// Windowed recovery progress of the Atlas calibration crash.
    atlas_windows: PhaseWindows,
    /// Windowed recovery progress of the iDO calibration crash.
    ido_windows: PhaseWindows,
}

/// Extracts the non-empty recovery windows from a drained metrics series
/// and cross-checks that the windowed split sums exactly to the trace's
/// per-phase totals (the two exports of each `RecoveryEnd`: split over
/// windows, and summed).
fn recovery_windows(
    metrics: Option<ido_nvm::ServiceMetrics>,
    trace_phase_ns: [u64; RECOVERY_PHASES],
) -> PhaseWindows {
    let m = metrics.expect("metrics were enabled for the recovery run");
    assert_eq!(
        m.recovery_phase_totals(),
        trace_phase_ns,
        "windowed recovery split must sum to the trace-derived phase totals"
    );
    m.windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.recovery_ns.iter().any(|&ns| ns > 0))
        .map(|(i, w)| (i, i as u64 * m.window_ns, w.recovery_ns))
        .collect()
}

fn calibrate(spec: &dyn WorkloadSpec, ops: u64) -> Calibration {
    let rc = RecoveryConfig::default();

    // Atlas calibration run: measure log growth and real recovery cost.
    // Tracing and metrics are switched on *after* the crash, so only the
    // recovery's own phase markers land in the trace (the workload run
    // stays untraced).
    let (atlas_sim_ns, atlas_entries, atlas_recovery, atlas_phase_ns, atlas_windows) = {
        let program = spec.build_program();
        let inst = instrument_program(program, Scheme::Atlas).expect("instrument atlas");
        let mut cfg = bench_config(256, THREADS, ops, list_log_per_op(128));
        cfg.sched = SchedPolicy::MinClock;
        let mut vm = Vm::new(inst.clone(), cfg.clone());
        let base = spec.setup(&mut vm, THREADS, ops);
        for t in 0..THREADS {
            vm.spawn("worker", &spec.worker_args(&base, t, ops));
        }
        vm.run();
        let sim_ns = vm.max_clock_ns();
        let pool = vm.crash(1);
        pool.set_trace(TraceConfig::on());
        pool.set_metrics(MetricsConfig::with_window(WINDOW_NS));
        let traced = pool.clone();
        let report = recover(pool, inst, cfg, rc);
        let phases = traced.take_trace().map(|t| t.recovery_phase_ns()).unwrap_or_default();
        let windows = recovery_windows(traced.take_metrics(), phases);
        (sim_ns, report.log_entries_scanned, report.sim_ns, phases, windows)
    };

    // iDO recovery cost on the same workload (constant by design).
    let (ido_recovery_ns, ido_phase_ns, ido_windows) = {
        let program = spec.build_program();
        let inst = instrument_program(program, Scheme::Ido).expect("instrument ido");
        let mut cfg = bench_config(256, THREADS, ops, list_log_per_op(128));
        cfg.sched = SchedPolicy::MinClock;
        let mut vm = Vm::new(inst.clone(), cfg.clone());
        let base = spec.setup(&mut vm, THREADS, ops);
        for t in 0..THREADS {
            vm.spawn("worker", &spec.worker_args(&base, t, ops));
        }
        // Crash mid-run so recovery actually resumes FASEs.
        vm.run_steps(ops * THREADS as u64 / 2);
        let pool = vm.crash(2);
        pool.set_trace(TraceConfig::on());
        pool.set_metrics(MetricsConfig::with_window(WINDOW_NS));
        let traced = pool.clone();
        let report = recover(pool, inst, cfg, rc);
        let phases = traced.take_trace().map(|t| t.recovery_phase_ns()).unwrap_or_default();
        let windows = recovery_windows(traced.take_metrics(), phases);
        (report.sim_ns as f64, phases, windows)
    };

    let fixed = rc.base_ns as f64 + rc.per_thread_ns as f64 * THREADS as f64;
    let per_entry = if atlas_entries > 0 {
        ((atlas_recovery as f64) - fixed).max(0.0) / atlas_entries as f64
    } else {
        rc.entry_scan_ns as f64
    };
    Calibration {
        entries_per_sim_sec: atlas_entries as f64 * 1e9 / atlas_sim_ns as f64,
        atlas_fixed_ns: fixed,
        atlas_per_entry_ns: per_entry,
        ido_recovery_ns,
        atlas_phase_ns,
        ido_phase_ns,
        atlas_windows,
        ido_windows,
    }
}

fn main() {
    let ops = ops_per_thread(150);
    let specs: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("Stack", Box::new(StackSpec)),
        ("Queue", Box::new(QueueSpec)),
        ("OrderedList", Box::new(ListSpec { key_range: 128 })),
        ("HashMap", Box::new(MapSpec { buckets: 128, key_range: 4096 })),
    ];

    println!("\n== Table I — recovery time ratio (Atlas / iDO) ==");
    print!("{:>12}", "Kill time");
    for t in KILL_TIMES_S {
        print!("{:>9}", format!("{t} s"));
    }
    println!();

    let mut rows = Vec::new();
    let mut phase_rows = Vec::new();
    let mut window_rows = Vec::new();
    for (name, spec) in &specs {
        let cal = calibrate(spec.as_ref(), ops);
        for (scheme, p) in [("Atlas", cal.atlas_phase_ns), ("iDO", cal.ido_phase_ns)] {
            phase_rows.push(format!("{name},{scheme},{},{},{},{}", p[0], p[1], p[2], p[3]));
        }
        for (scheme, windows) in [("Atlas", &cal.atlas_windows), ("iDO", &cal.ido_windows)] {
            for (w, start_ns, p) in windows {
                window_rows.push(format!(
                    "{name},{scheme},{w},{start_ns},{},{},{},{}",
                    p[0], p[1], p[2], p[3]
                ));
            }
        }
        print!("{name:>12}");
        let mut cols = Vec::new();
        for t in KILL_TIMES_S {
            let entries = cal.entries_per_sim_sec * t as f64;
            let atlas_ns = cal.atlas_fixed_ns + entries * cal.atlas_per_entry_ns;
            let ratio = atlas_ns / cal.ido_recovery_ns;
            print!("{ratio:>9.1}");
            cols.push(format!("{ratio:.2}"));
        }
        println!(
            "   (iDO recovery: {:.2} s, constant; Atlas log: {:.1}k entries/s)",
            cal.ido_recovery_ns / 1e9,
            cal.entries_per_sim_sec / 1e3
        );
        rows.push(format!("{name},{}", cols.join(",")));
    }
    ido_bench::write_csv("table1_recovery", "structure,r1s,r10s,r20s,r30s,r40s,r50s", &rows);

    // Measured phase split of the calibration crashes, from the recovery
    // phase markers in the trace stream (log scan / FASE resume / lock
    // release — the paper's description of both recovery procedures).
    println!("\n== Table I aux — measured recovery phase split (ms, calibration crash) ==");
    println!(
        "{:>12} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "structure", "scheme", "log scan", "resume", "release", "rebuild"
    );
    for row in &phase_rows {
        let f: Vec<&str> = row.split(',').collect();
        let ms = |s: &str| s.parse::<u64>().unwrap_or(0) as f64 / 1e6;
        println!(
            "{:>12} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            f[0],
            f[1],
            ms(f[2]),
            ms(f[3]),
            ms(f[4]),
            ms(f[5])
        );
    }
    ido_bench::write_csv(
        "table1_recovery_phases",
        "structure,scheme,scan_ns,resume_ns,release_ns,rebuild_ns",
        &phase_rows,
    );
    // Windowed recovery progress of the same crashes: each row is one
    // 1 ms window of one scheme's recovery with the simulated ns that
    // window spent in each phase. The splits are cross-checked in
    // `calibrate` to sum exactly to the per-phase totals above.
    ido_bench::write_csv(
        "table1_recovery_windows",
        "structure,scheme,window,start_ns,scan_ns,resume_ns,release_ns,rebuild_ns",
        &window_rows,
    );

    println!("\npaper (Table I, for comparison):");
    println!("{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}", "", "1 s", "10 s", "20 s", "30 s", "40 s", "50 s");
    println!("{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}", "Stack", 0.7, 6.6, 14.0, 20.7, 28.7, 34.9);
    println!("{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}", "Queue", 0.8, 9.0, 20.1, 31.6, 43.3, 56.1);
    println!("{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}", "OrderedList", 4.1, 72.1, 162.2, 260.9, 301.8, 424.8);
    println!("{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}", "HashMap", 0.3, 1.5, 2.7, 4.2, 5.2, 6.2);
}
