//! Windowed-metrics pinning tests for the service workload.
//!
//! Two guarantees the `service_bench` driver relies on are pinned here,
//! in-process and scheme-level, so a regression shows up as a unit-test
//! diff rather than a CI artifact mismatch:
//!
//! 1. **Golden window series**: a fixed small iDO service run renders
//!    exactly the checked-in per-window CSV (goodput, quantiles, persist
//!    deltas). Timestamps, latencies, and counters are all simulated, so
//!    the series is stable across hosts. Regenerate after an intentional
//!    change with:
//!
//!    ```sh
//!    IDO_BLESS=1 cargo test -p ido-workloads --test service_metrics
//!    ```
//!
//! 2. **Fan-out determinism**: merging per-shard timelines produced under
//!    `jobs = 1` and `jobs = 4` worker threads yields byte-identical CSV
//!    and Prometheus renderings — the in-process core of the CI gate that
//!    diffs `BENCH_service.json` across `IDO_JOBS` settings.

use std::path::PathBuf;

use ido_compiler::Scheme;
use ido_nvm::{MetricsConfig, ServiceMetrics};
use ido_trace::{EventKind, TraceConfig};
use ido_vm::VmConfig;
use ido_workloads::service::ServiceSpec;
use ido_workloads::run_workload;

const WINDOW_NS: u64 = 20_000;

fn metered_config() -> VmConfig {
    let mut cfg = VmConfig::for_tests();
    // Realistic latency so op spans have nonzero width and land across
    // several windows (a zeroed model would pin every op into window 0).
    cfg.pool.latency = ido_nvm::LatencyModel::default();
    cfg.pool.metrics = MetricsConfig::with_window(WINDOW_NS);
    cfg
}

fn run_metered(scheme: Scheme) -> ServiceMetrics {
    let spec = ServiceSpec::with_range(256);
    let stats = run_workload(scheme, &spec, 2, 120, metered_config());
    stats.metrics.expect("metrics were enabled")
}

fn rendered_series(scheme: Scheme) -> String {
    let m = run_metered(scheme);
    let mut out = String::new();
    out.push_str(&format!(
        "# service metrics golden: service(range=256), 2T x 120 ops, scheme={}\n",
        scheme.name()
    ));
    out.push_str(ServiceMetrics::CSV_HEADER);
    out.push('\n');
    for row in m.csv_rows() {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/service_windows_ido.csv")
}

#[test]
fn window_series_matches_checked_in_golden() {
    let bless = std::env::var("IDO_BLESS").is_ok_and(|v| v == "1");
    let got = rendered_series(Scheme::Ido);
    let path = golden_path();
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); regenerate with IDO_BLESS=1", path.display())
    });
    assert_eq!(
        got,
        want,
        "windowed series diverged from {} — if intentional, regenerate with IDO_BLESS=1",
        path.display()
    );
}

#[test]
fn window_totals_are_consistent() {
    let mut cfg = metered_config();
    cfg.pool.trace = TraceConfig { enabled: true, buf_entries: 1 << 16 };
    let stats = run_workload(Scheme::Ido, &ServiceSpec::with_range(256), 2, 120, cfg);
    let (m, trace) = (stats.metrics.expect("metrics on"), stats.trace.expect("tracing on"));
    assert_eq!(trace.dropped, 0, "the ring holds every event");
    // The trace and the windows are two exports of one recorder: one op
    // span per `OpEnd`, whose payload is the latency the windows record.
    let ends: Vec<u64> =
        trace.events.iter().filter(|e| e.kind == EventKind::OpEnd).map(|e| e.b).collect();
    let per_kind_ops: u64 = m.per_kind.iter().map(|h| h.count()).sum();
    assert_eq!((ends.len() as u64, per_kind_ops), (m.total_ops(), m.total_ops()));
    assert_eq!(ends.iter().sum::<u64>(), m.per_kind.iter().map(|h| h.sum()).sum::<u64>());
    assert_eq!(m.total_ops(), 240, "every completed op lands in exactly one window");
    // The service mix is 80/20 get/put with no generic ops.
    let per_kind: [u64; 3] =
        [0, 1, 2].map(|k| m.windows.iter().map(|w| w.ops[k]).sum::<u64>());
    assert_eq!(per_kind[0], 0);
    assert_eq!(per_kind[1] + per_kind[2], 240);
    assert!(per_kind[1] > per_kind[2], "gets dominate the 80/20 mix");
    // Whole-run histograms are the merge of the window histograms.
    let windowed: u64 = m.windows.iter().map(|w| w.lat.count()).sum();
    assert_eq!(windowed, per_kind_ops);
}

#[test]
fn shard_fanout_is_jobs_invariant() {
    // One task per (shard, scheme) pair, fanned out exactly the way
    // service_bench does — then folded into one service-level timeline.
    let shards: Vec<(usize, Scheme)> = (0..2)
        .flat_map(|s| [(s, Scheme::Ido), (s, Scheme::Atlas)])
        .collect();
    let render = |jobs: usize| {
        let per_shard =
            ido_par::par_map_jobs(jobs, shards.clone(), |(_, scheme)| run_metered(scheme));
        let mut merged =
            ServiceMetrics { window_ns: WINDOW_NS, ..ServiceMetrics::default() };
        for m in &per_shard {
            merged.merge(m);
        }
        (merged.csv_rows().join("\n"), merged.prometheus_text("job=\"svc\""))
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial.0, parallel.0, "CSV series must not depend on worker count");
    assert_eq!(serial.1, parallel.1, "Prometheus snapshot must not depend on worker count");
}
