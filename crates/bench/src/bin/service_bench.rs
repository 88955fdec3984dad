//! Crash-under-load service benchmark: goodput and tail latency per
//! window while one shard of a sharded service recovers online.
//!
//! The service is `S` independent shards (one pool + VM each, sharing one
//! global simulated timeline) running the fixed-slot [`ServiceSpec`]
//! workload under power-law (zipfian-like) key traffic. At a fixed
//! simulated time `T_CRASH` one shard crashes mid-traffic; its pool is
//! recovered by the scheme under test while the surviving shards keep
//! serving, then fresh workers re-attach and drive the recovered shard
//! on. The windowed metrics of all three segments — pre-crash traffic,
//! recovery progress, post-recovery traffic — compose onto one timeline
//! via `set_metrics` base offsets, so the emitted series shows the
//! service-level goodput dip and the shard coming back.
//!
//! Every quantity is simulated, every fan-out goes through `ido-par`'s
//! ordered deterministic map, and every emitted artifact
//! (`BENCH_service.json`, `service_windows.csv`, the Perfetto counter
//! tracks, the Prometheus text snapshot) is byte-identical across hosts
//! and `IDO_JOBS` settings; CI diffs the JSON. `IDO_BENCH_QUICK=1`
//! shrinks the fleet for CI smoke runs.

use std::fmt::Write as _;

use ido_bench::write_bench_json;
use ido_compiler::{instrument_program, Scheme};
use ido_nvm::{AllocPolicy, MetricsConfig, PoolConfig, ServiceMetrics};
use ido_trace::chrome::ChromeTrace;
use ido_trace::RecoveryPhase;
use ido_vm::{recover, RecoveryConfig, RunOutcome, SchedPolicy, Vm, VmConfig};
use ido_workloads::service::{verify_slots, ServiceSpec};
use ido_workloads::{run_workload, WorkloadSpec};

/// One benchmark geometry (quick CI smoke vs full run).
#[derive(Clone, Copy)]
struct Geometry {
    shards: usize,
    threads_per_shard: usize,
    key_range: u64,
    /// Planned ops per worker in the uninterrupted segment.
    ops_a: u64,
    /// Ops per fresh worker after recovery.
    ops_b: u64,
    window_ns: u64,
    /// Target crash time: the crashed shard stops at the first step-chunk
    /// boundary at or past this simulated time.
    t_crash_ns: u64,
}

// `ops_a` must keep even the fastest durable scheme (~260 simulated
// ns/op under iDO) busy past `t_crash_ns`, or the crash would land after
// the traffic — the run_scheme assert enforces this.
const FULL: Geometry = Geometry {
    shards: 4,
    threads_per_shard: 4,
    key_range: 1 << 14,
    ops_a: 12_000,
    ops_b: 1200,
    window_ns: 200_000,
    t_crash_ns: 2_000_000,
};

const QUICK: Geometry = Geometry {
    shards: 2,
    threads_per_shard: 2,
    key_range: 1 << 12,
    ops_a: 4000,
    ops_b: 400,
    window_ns: 100_000,
    t_crash_ns: 400_000,
};

/// Service-scale recovery constants. The Table I defaults model a full
/// server re-attach (120 ms mmap); at service time scales that would push
/// the whole recovery hundreds of windows past the crash. This models a
/// lightweight pool re-attach while keeping the honest per-entry scan
/// cost, so Atlas-style recovery still grows with log volume.
const SERVICE_RC: RecoveryConfig =
    RecoveryConfig { base_ns: 300_000, per_thread_ns: 50_000, entry_scan_ns: 250 };

/// Interpreter steps between crash-time checks on the crashed shard.
const CRASH_CHUNK_STEPS: u64 = 2000;

fn service_config(g: Geometry) -> VmConfig {
    // The shard's pool size is part of what is measured, not a capacity
    // setting: re-attach scans one allocator descriptor per 2 KiB chunk of
    // it (the rebuild phase). The log holds `ops_a` operations' records.
    let mut cfg = VmConfig {
        pool: PoolConfig { size: 64 << 20, ..PoolConfig::default() },
        log_entries: 1 << 15,
        ..VmConfig::default()
    };
    cfg.sched = SchedPolicy::MinClock;
    // Sharded allocator so re-attach performs (and the metrics show) the
    // descriptor-scan rebuild phase.
    cfg.alloc = AllocPolicy::Sharded { shards: 8 };
    cfg.pool.metrics = MetricsConfig::with_window(g.window_ns);
    cfg
}

/// The composed result of one scheme's service run.
struct SchemeResult {
    scheme: Scheme,
    metrics: ServiceMetrics,
    /// Actual simulated crash time (first chunk boundary past target).
    t_crash_ns: u64,
    /// Modeled recovery time of the crashed shard.
    recovery_ns: u64,
    /// Log entries the recovery scanned.
    log_entries_scanned: usize,
}

/// Runs one scheme's full service: `shards - 1` surviving shards plus the
/// crash/recover/re-attach shard, composed onto one timeline.
fn run_scheme(scheme: Scheme, g: Geometry) -> SchemeResult {
    let spec = ServiceSpec::with_range(g.key_range);
    let cfg = service_config(g);

    // Surviving shards: plain uninterrupted runs, metered from t = 0.
    let mut metrics = ServiceMetrics { window_ns: g.window_ns, ..ServiceMetrics::default() };
    for _ in 1..g.shards {
        let stats = run_workload(scheme, &spec, g.threads_per_shard, g.ops_a, cfg.clone());
        metrics.merge(&stats.metrics.expect("metrics were enabled"));
    }

    // Crashed shard, segment 1: traffic until the first chunk boundary at
    // or past the target crash time.
    let inst = instrument_program(spec.build_program(), scheme).expect("service instruments");
    let mut vm = Vm::new(inst.clone(), cfg.clone());
    let base = spec.setup(&mut vm, g.threads_per_shard, g.ops_a);
    for t in 0..g.threads_per_shard {
        vm.spawn("worker", &spec.worker_args(&base, t, g.ops_a));
    }
    let mut outcome = RunOutcome::Paused;
    while vm.max_clock_ns() < g.t_crash_ns && outcome == RunOutcome::Paused {
        outcome = vm.run_steps(CRASH_CHUNK_STEPS);
    }
    assert_eq!(
        outcome,
        RunOutcome::Paused,
        "{scheme}: shard finished its traffic before the crash time — raise ops_a"
    );
    let t_crash = vm.max_clock_ns();
    let pool = vm.crash(3);

    // Segment 2: online recovery, metered on the global timeline starting
    // at the crash (the recovery handle's own clock starts at 0).
    pool.set_metrics(MetricsConfig::with_window(g.window_ns).at_base(t_crash + SERVICE_RC.base_ns));
    let report = recover(pool.clone(), inst.clone(), cfg.clone(), SERVICE_RC);
    let mut h = pool.handle();
    verify_slots(&mut h, base[1] as usize, g.key_range);
    drop(h);

    // Segment 3: fresh workers re-attach and drive the shard on.
    let t_back = t_crash + report.sim_ns;
    pool.set_metrics(MetricsConfig::with_window(g.window_ns).at_base(t_back));
    let mut vm = Vm::attach(pool.clone(), inst, cfg);
    for t in 0..g.threads_per_shard {
        vm.spawn("worker", &spec.worker_args(&base, g.threads_per_shard + t, g.ops_b));
    }
    assert_eq!(vm.run(), RunOutcome::Completed, "{scheme}: post-recovery traffic must finish");
    spec.verify(&vm, &base, g.ops_b);
    drop(vm); // fold the last recorders into the pool

    let mut crashed = pool.take_metrics().expect("metrics were enabled");
    crashed.note_crash(t_crash);
    metrics.merge(&crashed);

    SchemeResult {
        scheme,
        metrics,
        t_crash_ns: t_crash,
        recovery_ns: report.sim_ns,
        log_entries_scanned: report.log_entries_scanned,
    }
}

fn main() {
    let quick = std::env::var("IDO_BENCH_QUICK").is_ok_and(|v| v == "1");
    let g = if quick { QUICK } else { FULL };
    // Every durable scheme; Origin has nothing to recover.
    let schemes: Vec<Scheme> =
        Scheme::ALL.iter().copied().filter(|s| *s != Scheme::Origin).collect();

    let results = ido_par::par_map(schemes.clone(), move |scheme| run_scheme(scheme, g));

    println!(
        "== service_bench — {} shards x {}T, {} keys, crash at ~{:.1} ms ==",
        g.shards,
        g.threads_per_shard,
        g.key_range,
        g.t_crash_ns as f64 / 1e6
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "scheme", "crash_ms", "recovery_ms", "ops", "p50_ns", "p99_ns", "p999_ns"
    );
    for r in &results {
        let put = &r.metrics.per_kind[2];
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>10} {:>12} {:>12} {:>12}",
            r.scheme.name(),
            r.t_crash_ns as f64 / 1e6,
            r.recovery_ns as f64 / 1e6,
            r.metrics.total_ops(),
            put.value_at_quantile(0.50),
            put.value_at_quantile(0.99),
            put.value_at_quantile(0.999),
        );
    }

    // Per-window CSV, scheme-prefixed.
    let mut rows = Vec::new();
    for r in &results {
        for row in r.metrics.csv_rows() {
            rows.push(format!("{},{row}", r.scheme.name()));
        }
    }
    ido_bench::write_csv(
        "service_windows",
        &format!("scheme,{}", ServiceMetrics::CSV_HEADER),
        &rows,
    );

    // Perfetto counter tracks: one process per scheme.
    let mut chrome = ChromeTrace::new();
    for (pid, r) in results.iter().enumerate() {
        chrome.add_process(pid as u32, r.scheme.name());
        r.metrics.add_counter_tracks(&mut chrome, pid as u32);
    }
    let dir = std::path::PathBuf::from("target/figures");
    let _ = std::fs::create_dir_all(&dir);
    let perfetto = dir.join("service_metrics.trace.json");
    std::fs::write(&perfetto, chrome.finish()).expect("write perfetto counters");
    println!("wrote {}", perfetto.display());

    // Prometheus text snapshot, one block per scheme.
    let mut prom = String::new();
    for r in &results {
        let _ = writeln!(prom, "# service_bench scheme={}", r.scheme.name());
        prom.push_str(&r.metrics.prometheus_text(&format!("scheme=\"{}\"", r.scheme.name())));
    }
    let prom_path = dir.join("service_metrics.prom");
    std::fs::write(&prom_path, prom).expect("write prometheus snapshot");
    println!("wrote {}", prom_path.display());

    // Deterministic JSON: simulated quantities only, fixed field order.
    let mut json = String::from("{\n  \"bench\": \"service\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"window_ns\": {},", g.window_ns);
    let _ = writeln!(json, "  \"shards\": {},", g.shards);
    let _ = writeln!(json, "  \"threads_per_shard\": {},", g.threads_per_shard);
    let _ = writeln!(json, "  \"key_range\": {},", g.key_range);
    let _ = writeln!(json, "  \"t_crash_target_ns\": {},", g.t_crash_ns);
    json.push_str("  \"schemes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let phases = r.metrics.recovery_phase_totals();
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"t_crash_ns\": {}, \"recovery_ns\": {}, \
             \"log_entries_scanned\": {}, \"total_ops\": {}, \"recovery_phases\": {{",
            r.scheme.name(),
            r.t_crash_ns,
            r.recovery_ns,
            r.log_entries_scanned,
            r.metrics.total_ops(),
        );
        for (pi, p) in RecoveryPhase::ALL.iter().enumerate() {
            if pi > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{}\": {}", p.name(), phases[pi]);
        }
        json.push_str("}, \"windows\": [");
        for (wi, w) in r.metrics.windows.iter().enumerate() {
            if wi > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"w\": {wi}, \"goodput\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}, \"recovery_ns\": {}}}",
                w.goodput(),
                w.lat.value_at_quantile(0.50),
                w.lat.value_at_quantile(0.99),
                w.lat.value_at_quantile(0.999),
                w.recovery_ns.iter().sum::<u64>(),
            );
        }
        let _ = writeln!(json, "]}}{}", if i + 1 < results.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    ido_trace::json::validate_json(&json).expect("BENCH_service.json is valid JSON");
    ido_trace::json::validate_json(&std::fs::read_to_string(&perfetto).expect("reread perfetto"))
        .expect("perfetto counter export is valid JSON");
    write_bench_json("service", &json);
}
