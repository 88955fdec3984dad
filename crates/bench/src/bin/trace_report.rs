//! Trace-driven cost report: per-scheme cost attribution (Fig. 7's
//! work/log/clwb/fence-stall axes), FASE-duration and region-size
//! histograms (Fig. 8/9 style), and Chrome trace-event / Perfetto JSON
//! exports — one `.trace.json` per workload plus a crash-recovery demo.
//!
//! Every output is derived from the simulated clock and the deterministic
//! sweep engine, so all emitted files are byte-identical across runs and
//! `IDO_JOBS` settings. `IDO_BENCH_QUICK=1` shrinks op counts;
//! `IDO_TRACE_SMOKE=1` additionally self-checks that every emitted JSON
//! parses and that every event kind appears somewhere (exit code 1 on
//! failure) — the CI trace smoke.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ido_bench::{
    bench_config, list_log_per_op, ops_per_thread, sweep_stats, with_sharded_alloc, write_csv,
};
use ido_compiler::{instrument_program, Scheme};
use ido_trace::chrome::ChromeTrace;
use ido_trace::json::validate_json;
use ido_trace::{EventKind, Hist, Trace, TraceConfig};
use ido_vm::{recover, RecoveryConfig, SchedPolicy, Vm};
use ido_workloads::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
use ido_workloads::WorkloadSpec;

const THREADS: usize = 3;

/// Writes a non-CSV artifact under `target/figures/` and remembers it for
/// the smoke self-check.
fn write_figure_file(emitted: &mut Vec<(String, String)>, name: &str, contents: String) {
    let dir = PathBuf::from("target/figures");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    if std::fs::write(&path, &contents).is_ok() {
        println!("wrote {}", path.display());
    }
    emitted.push((name.to_string(), contents));
}

fn hist_rows(rows: &mut Vec<String>, scheme: Scheme, hist: &Hist) {
    for (lo, hi, count) in hist.nonzero_buckets() {
        rows.push(format!("{},{lo},{hi},{count}", scheme.name()));
    }
}

fn main() -> ExitCode {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok();
    let smoke = std::env::var("IDO_TRACE_SMOKE").is_ok_and(|v| v == "1");
    let ops = ops_per_thread(if quick { 40 } else { 250 });
    let mut cfg = bench_config(64, THREADS, ops, list_log_per_op(64));
    cfg.pool.trace = TraceConfig::on();

    let specs: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("stack", Box::new(StackSpec)),
        ("queue", Box::new(QueueSpec)),
        ("ordered-list", Box::new(ListSpec { key_range: 64 })),
        ("hash-map", Box::new(MapSpec { buckets: 16, key_range: 256 })),
    ];

    let mut emitted: Vec<(String, String)> = Vec::new();
    let mut breakdown_rows = Vec::new();

    for (name, spec) in &specs {
        let stats =
            sweep_stats(spec.as_ref(), &Scheme::ALL, &[THREADS], ops, cfg.clone());

        println!("\n== trace_report — {name} ({THREADS}T x {ops} ops/thread, simulated ms) ==");
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8}",
            "scheme", "work", "log", "clwb", "fence-stall", "events", "dropped"
        );
        let mut fase_rows = Vec::new();
        let mut region_rows = Vec::new();
        let mut chrome = ChromeTrace::new();
        for (pid, s) in stats.iter().enumerate() {
            let trace = s.trace.as_ref().expect("tracing was forced on");
            let c = &trace.costs;
            println!(
                "{:>10} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>8} {:>8}",
                s.scheme.name(),
                c.work_ns as f64 / 1e6,
                c.log_ns as f64 / 1e6,
                c.clwb_ns as f64 / 1e6,
                c.fence_ns as f64 / 1e6,
                trace.events.len(),
                trace.dropped,
            );
            breakdown_rows.push(format!(
                "{name},{},{},{},{},{},{},{},{}",
                s.scheme.name(),
                c.work_ns,
                c.log_ns,
                c.clwb_ns,
                c.fence_ns,
                trace.events.len(),
                trace.dropped,
                s.mem_stats.log_bytes,
            ));
            hist_rows(&mut fase_rows, s.scheme, &trace.fase_hist);
            hist_rows(&mut region_rows, s.scheme, &trace.region_hist);
            chrome.add_process(pid as u32, s.scheme.name());
            chrome.add_trace(pid as u32, trace);
        }
        write_csv(
            &format!("trace_fase_hist_{name}"),
            "scheme,lo_ns,hi_ns,count",
            &fase_rows,
        );
        write_csv(
            &format!("trace_region_hist_{name}"),
            "scheme,lo_stores,hi_stores,count",
            &region_rows,
        );
        write_figure_file(&mut emitted, &format!("trace_{name}.trace.json"), chrome.finish());
    }
    write_csv(
        "trace_breakdown",
        "workload,scheme,work_ns,log_ns,clwb_ns,fence_ns,events,dropped,log_bytes",
        &breakdown_rows,
    );

    // Crash + recovery demo: a traced iDO run crashed mid-flight (the
    // pre-crash trace ends in a `crash` event), then a traced recovery
    // (scan / resume / release phase spans). Both land in one file as two
    // Perfetto processes.
    let (pre, post) = {
        let spec = MapSpec { buckets: 16, key_range: 256 };
        let program = spec.build_program();
        let inst = instrument_program(program, Scheme::Ido).expect("instrument ido");
        let mut rcfg = cfg.clone();
        rcfg.sched = SchedPolicy::MinClock;
        // Scout run: learn the full run's step count so the crash below
        // lands mid-workload with FASEs genuinely in flight.
        let total_steps = {
            let mut vm = Vm::new(inst.clone(), rcfg.clone());
            let base = spec.setup(&mut vm, THREADS, ops);
            for t in 0..THREADS {
                vm.spawn("worker", &spec.worker_args(&base, t, ops));
            }
            vm.run();
            vm.steps()
        };
        let mut vm = Vm::new(inst.clone(), rcfg.clone());
        let base = spec.setup(&mut vm, THREADS, ops);
        for t in 0..THREADS {
            vm.spawn("worker", &spec.worker_args(&base, t, ops));
        }
        vm.run_steps(total_steps / 2);
        let pool = vm.crash(7);
        let pre = pool.take_trace().expect("pre-crash trace");
        let traced = pool.clone();
        let _ = recover(pool, inst, rcfg, RecoveryConfig::default());
        let post = traced.take_trace().expect("recovery trace");
        (pre, post)
    };
    let phases = post.recovery_phase_ns();
    println!(
        "\nrecovery demo (iDO hash-map crash): scan {:.3} ms, resume {:.3} ms, release {:.3} ms",
        phases[0] as f64 / 1e6,
        phases[1] as f64 / 1e6,
        phases[2] as f64 / 1e6,
    );
    let mut chrome = ChromeTrace::new();
    chrome.add_process(0, "iDO pre-crash");
    chrome.add_trace(0, &pre);
    chrome.add_process(1, "iDO recovery");
    chrome.add_trace(1, &post);
    write_figure_file(&mut emitted, "trace_recovery.trace.json", chrome.finish());

    // Service demo: a traced + metered service-workload crash/recover
    // cycle under the sharded allocator. This is the only section that
    // emits op-span events (`op-begin`/`op-end`, from the workload's
    // metrics markers) and the allocator `rebuild` recovery phase (from
    // the sharded re-attach descriptor scan), so the smoke's all-kinds
    // check covers them; the windowed metrics ride along as Perfetto
    // counter tracks in the same file.
    let (svc_pre, svc_post) = {
        let spec = ido_workloads::service::ServiceSpec::with_range(512);
        let inst = instrument_program(spec.build_program(), Scheme::Ido).expect("instrument ido");
        let mut scfg = with_sharded_alloc(cfg.clone(), 4);
        scfg.sched = SchedPolicy::MinClock;
        scfg.pool.metrics = ido_nvm::MetricsConfig::with_window(100_000);
        let mut vm = Vm::new(inst.clone(), scfg.clone());
        let base = spec.setup(&mut vm, THREADS, ops);
        for t in 0..THREADS {
            vm.spawn("worker", &spec.worker_args(&base, t, ops));
        }
        vm.run_steps(40 * ops);
        let t_crash = vm.max_clock_ns();
        let pool = vm.crash(7);
        let svc_pre = pool.take_trace().expect("service pre-crash trace");
        let traced = pool.clone();
        let rc = RecoveryConfig { base_ns: 300_000, per_thread_ns: 50_000, entry_scan_ns: 250 };
        pool.set_metrics(ido_nvm::MetricsConfig::with_window(100_000).at_base(t_crash + rc.base_ns));
        let _ = recover(pool, inst, scfg, rc);
        let svc_post = traced.take_trace().expect("service recovery trace");
        let mut metrics = traced.take_metrics().expect("service metrics");
        metrics.note_crash(t_crash);
        let mut chrome = ChromeTrace::new();
        chrome.add_process(0, "service pre-crash");
        chrome.add_trace(0, &svc_pre);
        chrome.add_process(1, "service recovery");
        chrome.add_trace(1, &svc_post);
        chrome.add_process(2, "service metrics");
        metrics.add_counter_tracks(&mut chrome, 2);
        write_figure_file(&mut emitted, "trace_service.trace.json", chrome.finish());
        (svc_pre, svc_post)
    };
    let svc_phases = svc_post.recovery_phase_ns();
    println!(
        "service demo (iDO service crash): ops traced {}, rebuild {:.3} ms",
        svc_pre.counts_by_kind()[EventKind::OpEnd as usize],
        svc_phases[3] as f64 / 1e6,
    );

    if smoke {
        return self_check(&emitted, &[&pre, &post, &svc_pre, &svc_post]);
    }
    ExitCode::SUCCESS
}

/// The `IDO_TRACE_SMOKE=1` gate: every emitted JSON must parse, and every
/// one of the [`EventKind::ALL`] kinds must appear in some emitted file
/// (`args.k` carries the kind name in every Chrome record).
fn self_check(emitted: &[(String, String)], traces: &[&Trace]) -> ExitCode {
    let mut ok = true;
    for (name, contents) in emitted {
        if let Err(e) = validate_json(contents) {
            eprintln!("SMOKE FAIL: {name} is not valid JSON: {e}");
            ok = false;
        }
    }
    let mut union = String::new();
    for (_, contents) in emitted {
        union.push_str(contents);
    }
    for kind in EventKind::ALL {
        if !union.contains(&format!("\"k\":\"{}\"", kind.name())) {
            eprintln!("SMOKE FAIL: no `{}` event in any emitted trace", kind.name());
            ok = false;
        }
    }
    // The recovery pair must carry the crash marker and all three phases.
    let mut msg = String::new();
    let _ = write!(msg, "crash events: {}", traces[0].counts_by_kind()[EventKind::Crash as usize]);
    let phases = traces[1].recovery_phase_ns();
    if traces[0].counts_by_kind()[EventKind::Crash as usize] == 0 {
        eprintln!("SMOKE FAIL: pre-crash trace has no crash event ({msg})");
        ok = false;
    }
    if traces[1].counts_by_kind()[EventKind::RecoveryEnd as usize] == 0 || phases[1] == 0 {
        eprintln!("SMOKE FAIL: recovery trace lacks phase spans ({phases:?})");
        ok = false;
    }
    // The service pair must carry op spans and the allocator rebuild phase.
    if let [_, _, svc_pre, svc_post] = traces {
        if svc_pre.counts_by_kind()[EventKind::OpEnd as usize] == 0 {
            eprintln!("SMOKE FAIL: service trace has no op spans");
            ok = false;
        }
        let svc_phases = svc_post.recovery_phase_ns();
        if svc_phases[3] == 0 {
            eprintln!("SMOKE FAIL: service recovery has no rebuild phase ({svc_phases:?})");
            ok = false;
        }
    }
    if ok {
        println!("trace smoke OK: {} files valid, all {} event kinds present", emitted.len(), EventKind::ALL.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
