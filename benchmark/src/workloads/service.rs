//! `service_crash`: `service_bench`'s geometry — a sharded fixed-slot KV
//! service under power-law keys; one shard crashes at a fixed simulated
//! time, recovers online, is re-attached and driven on — over the six
//! durable schemes, with windowed metrics **and** event tracing on.

use ido_compiler::Scheme;
use ido_crashtest::DURABLE_SCHEMES;
use ido_nvm::{AllocPolicy, CrashPolicy, MetricsConfig, ServiceMetrics};
use ido_trace::chrome::ChromeTrace;
use ido_trace::{CostBreakdown, Trace, TraceConfig};
use ido_vm::{recover, RecoveryConfig, RecoveryReport, RunOutcome, Vm, VmConfig};
use ido_workloads::service::{verify_slots, ServiceSpec};
use ido_workloads::WorkloadSpec;

use crate::driver::{
    assert_matches_run_workload, boot, check_fill, compile, run_point, splitmix, unit, vm_config,
    Point, SeededSpec,
};
use crate::layers::{fastest_run_ns, probe_nvm_alloc, RunConfig};
use crate::names::scheme_tag;
use crate::spans::Recorder;
use crate::stats::Fnv;
use crate::workloads::{Metrics, Rep, UnitRun, Workload};

const SHARDS: usize = 4;
/// Closed loop, 4 simulated threads per shard.
const THREADS: usize = 4;
const KEY_RANGE: u64 = 1 << 14;
/// Ops per worker before the crash; must keep the fastest durable scheme
/// busy past [`T_CRASH_NS`] (checked per unit).
const OPS_A: u64 = 3_000;
/// Ops per fresh worker after recovery.
const OPS_B: u64 = 300;
const WINDOW_NS: u64 = 50_000;
const T_CRASH_NS: u64 = 400_000;
/// Interpreter steps between crash-time checks on the crashed shard.
const CRASH_CHUNK_STEPS: u64 = 2_000;
/// Service-scale re-attach cost (as in `service_bench`).
const SERVICE_RC: RecoveryConfig = RecoveryConfig {
    base_ns: 300_000,
    per_thread_ns: 50_000,
    entry_scan_ns: 250,
};
/// Events per trace ring: small enough that merging and exporting a shard's
/// trace stays a fraction of running it; overflow is reported, not hidden.
const TRACE_RING: usize = 1 << 13;
/// Index of the xorshift state among `ServiceSpec`'s worker arguments.
const SEED_ARG: usize = 2;

/// The crash-under-load service.
pub struct ServiceCrash {
    /// One spec per shard: same program, its own key stream.
    shards: Vec<SeededSpec>,
    cfg: VmConfig,
    crash_seed: u64,
}

/// What one scheme's service run produced.
struct Outcome {
    /// The surviving shards' runs.
    points: Vec<Point>,
    /// Guest steps of the crashed shard (both segments and recovery).
    crashed_steps: u64,
    /// All shards and segments on one timeline.
    metrics: ServiceMetrics,
    report: RecoveryReport,
    /// Simulated-time attribution summed over every shard's trace.
    costs: CostBreakdown,
    /// Trace events emitted / lost to ring overflow.
    pushed: u64,
    dropped: u64,
    /// Operations completed over the whole service.
    ops: u64,
    /// Hash of everything the exporters produced.
    exports: u64,
}

fn service_config() -> VmConfig {
    let mut cfg = vm_config(64, 1 << 15);
    // Sharded allocator so re-attach performs the descriptor-scan rebuild.
    cfg.alloc = AllocPolicy::Sharded { shards: 8 };
    cfg.pool.metrics = MetricsConfig::with_window(WINDOW_NS);
    cfg.pool.trace = TraceConfig {
        enabled: true,
        buf_entries: TRACE_RING,
    };
    // Each dirty line survives the crash with probability 1/2, drawn from
    // the crash seed: every scheme must tolerate any surviving subset.
    cfg.pool.crash_policy = CrashPolicy::Random {
        persist_permille: 500,
    };
    cfg
}

impl ServiceCrash {
    /// Builds the service and checks the decomposed driver against
    /// `run_workload` on one surviving shard under iDO.
    pub fn new(seed: u64) -> ServiceCrash {
        let shards: Vec<SeededSpec> = (0..SHARDS as u64)
            .map(|s| {
                SeededSpec::new(
                    Box::new(ServiceSpec::with_range(KEY_RANGE)),
                    Some(SEED_ARG),
                    splitmix(seed) ^ s,
                )
            })
            .collect();
        let cfg = service_config();
        assert_matches_run_workload(&shards[1], Scheme::Ido, THREADS, OPS_A / 10, &cfg);
        ServiceCrash {
            shards,
            cfg,
            crash_seed: splitmix(seed ^ 0xC4A5),
        }
    }

    /// One scheme's full service: the surviving shards, then the
    /// crash/recover/re-attach shard, composed onto one timeline and put
    /// through the exporters.
    fn run_scheme(
        &self,
        rec: &mut Recorder,
        id: u32,
        scheme: Scheme,
        hash_images: bool,
    ) -> Result<Outcome, String> {
        let cfg = &self.cfg;
        let mut metrics = ServiceMetrics {
            window_ns: WINDOW_NS,
            ..ServiceMetrics::default()
        };
        let mut traces: Vec<Trace> = Vec::new();
        let mut points = Vec::new();

        // Surviving shards: plain uninterrupted runs, metered from t = 0.
        for spec in &self.shards[1..] {
            let mut p = run_point(rec, spec, scheme, THREADS, OPS_A, cfg.clone(), hash_images);
            check_fill(&p)?;
            let m = p.metrics.take().expect("metrics were enabled");
            rec.time("metrics.merge", || metrics.merge(&m));
            traces.push(p.trace.take().expect("tracing was enabled"));
            points.push(p);
        }

        // Crashed shard, segment 1: traffic until the first chunk boundary
        // at or past the target crash time.
        let spec = &self.shards[0];
        let inst = compile(rec, spec, scheme);
        let (mut vm, base) = boot(rec, spec, inst.clone(), THREADS, OPS_A, cfg.clone());
        let outcome = rec.time("vm.run", || {
            let mut outcome = RunOutcome::Paused;
            while vm.max_clock_ns() < T_CRASH_NS && outcome == RunOutcome::Paused {
                outcome = vm.run_steps(CRASH_CHUNK_STEPS);
            }
            outcome
        });
        if outcome != RunOutcome::Paused {
            return Err("shard finished its traffic before the crash time".into());
        }
        let t_crash = vm.max_clock_ns();
        let mut steps = vm.steps();
        let pool = rec.time("vm.crash", || vm.crash(self.crash_seed));

        // Segment 2: online recovery, metered on the global timeline.
        pool.set_metrics(
            MetricsConfig::with_window(WINDOW_NS).at_base(t_crash + SERVICE_RC.base_ns),
        );
        let report = rec.time("vm.recover", || {
            recover(pool.clone(), inst.clone(), cfg.clone(), SERVICE_RC)
        });
        rec.time("workloads.verify", || {
            verify_slots(&mut pool.handle(), base[1] as usize, KEY_RANGE);
        });

        // Segment 3: fresh workers re-attach and drive the shard on.
        pool.set_metrics(MetricsConfig::with_window(WINDOW_NS).at_base(t_crash + report.sim_ns));
        let mut vm = rec.time("vm.attach", || Vm::attach(pool.clone(), inst, cfg.clone()));
        rec.time("vm.spawn", || {
            for t in 0..THREADS {
                vm.spawn("worker", &spec.worker_args(&base, THREADS + t, OPS_B));
            }
        });
        let outcome = rec.time("vm.run", || vm.run());
        if outcome != RunOutcome::Completed {
            return Err("post-recovery traffic did not finish".into());
        }
        rec.time("workloads.verify", || spec.verify(&vm, &base, OPS_B));
        steps += vm.steps();
        // Dropping the VM folds the last metrics and trace buffers into the pool.
        rec.time("vm.drop", || drop(vm));

        let mut crashed = rec
            .time("nvm.take_metrics", || pool.take_metrics())
            .expect("metrics were enabled");
        let trace = rec
            .time("nvm.take_trace", || pool.take_trace())
            .expect("tracing was enabled");
        crashed.note_crash(t_crash);
        rec.time("metrics.merge", || metrics.merge(&crashed));
        rec.time("nvm.pool_drop", || drop(pool));

        // The observation plane's back half: every exporter a report
        // binary would call, on this scheme's trace and timeline.
        let mut h = Fnv::default();
        h.bytes(&rec.time("trace.encode", || trace.encode()));
        let chrome = rec.time("trace.chrome", || {
            let mut c = ChromeTrace::new();
            c.add_process(id, scheme.name());
            c.add_trace(id, &trace);
            metrics.add_counter_tracks(&mut c, id);
            c.finish()
        });
        h.bytes(chrome.as_bytes());
        let text = rec.time("metrics.export", || {
            let mut text = metrics.csv_rows().join("\n");
            text.push_str(&metrics.prometheus_text(&format!("scheme=\"{}\"", scheme.name())));
            text
        });
        h.bytes(text.as_bytes());
        let problems = metrics.validate();
        if !problems.is_empty() {
            return Err(format!("metrics timeline is inconsistent: {}", problems[0]));
        }
        traces.push(trace);
        let mut costs = CostBreakdown::default();
        traces.iter().for_each(|t| costs.merge(&t.costs));
        let ops = metrics.total_ops();
        for w in [
            t_crash,
            report.sim_ns,
            report.log_entries_scanned as u64,
            report.steps,
            ops,
        ] {
            h.word(w);
        }
        Ok(Outcome {
            points,
            crashed_steps: steps + report.steps,
            metrics,
            report,
            costs,
            pushed: traces.iter().map(|t| t.pushed).sum(),
            dropped: traces.iter().map(|t| t.dropped).sum(),
            ops,
            exports: h.finish(),
        })
    }
}

impl Workload for ServiceCrash {
    fn repetition(&self, rec: &mut Recorder, hash_images: bool) -> Rep {
        let mut rep = Rep::default();
        let mut outcomes: Vec<(Scheme, Outcome)> = Vec::new();
        for (i, scheme) in DURABLE_SCHEMES.into_iter().enumerate() {
            let id = i as u32;
            let r = unit(rec, id, |rec| self.run_scheme(rec, id, scheme, hash_images));
            if let Some(mut o) = rep.book(scheme.name(), r) {
                for p in std::mem::take(&mut o.points) {
                    rep.push_point(id, "service", p);
                }
                rep.runs.push(UnitRun {
                    unit: id,
                    scheme,
                    threads: THREADS,
                    steps: o.crashed_steps,
                });
                rep.hashes.push(o.exports);
                outcomes.push((scheme, o));
            }
        }
        rep.work = rep.runs.iter().map(|r| r.steps).sum();

        let (mut pushed, mut dropped, mut ops, mut dropped_spans) = (0, 0, 0, 0);
        for (scheme, o) in &outcomes {
            let tag = scheme_tag(*scheme);
            rep.sim.insert(
                format!("vm.sim_recovery_us.{tag}"),
                o.report.sim_ns as f64 / 1e3,
            );
            pushed += o.pushed;
            dropped += o.dropped;
            ops += o.ops;
            dropped_spans += o.metrics.dropped_spans;
            if *scheme == Scheme::Ido {
                let total = o.costs.total_ns().max(1) as f64;
                for (name, ns) in [
                    ("work", o.costs.work_ns),
                    ("log", o.costs.log_ns),
                    ("clwb", o.costs.clwb_ns),
                    ("fence", o.costs.fence_ns),
                ] {
                    rep.sim
                        .insert(format!("scheme.sim_share.{name}.ido"), ns as f64 / total);
                }
                rep.sim.insert(
                    "scheme.sim_p99_us.ido".into(),
                    o.metrics.per_kind[2].value_at_quantile(0.99) as f64 / 1e3,
                );
            }
        }
        rep.sim.insert(
            "trace.events_per_op".into(),
            pushed as f64 / ops.max(1) as f64,
        );
        rep.sim.insert(
            "trace.dropped_share".into(),
            dropped as f64 / pushed.max(1) as f64,
        );
        rep.sim
            .insert("metrics.dropped_spans".into(), dropped_spans as f64);

        let of = |s: Scheme| outcomes.iter().find(|(x, _)| *x == s).map(|(_, o)| o);
        let rec_ns = |s| of(s).map_or(0, |o| o.report.sim_ns);
        let scanned = |s| of(s).map_or(usize::MAX, |o| o.report.log_entries_scanned);
        let put_p99 = |s| of(s).map_or(0, |o| o.metrics.per_kind[2].value_at_quantile(0.99));
        rep.shape = vec![
            (
                "service: iDO recovery <= Atlas recovery".into(),
                rec_ns(Scheme::Ido) > 0 && rec_ns(Scheme::Ido) <= rec_ns(Scheme::Atlas),
            ),
            (
                "service: iDO recovery scans 0 log entries".into(),
                scanned(Scheme::Ido) == 0,
            ),
            (
                "service: Atlas and NVML recovery grow with the log they scan".into(),
                scanned(Scheme::Atlas) > 0
                    && scanned(Scheme::Nvml) != usize::MAX
                    && scanned(Scheme::Nvml) > 0
                    && rec_ns(Scheme::Nvml) > rec_ns(Scheme::Ido),
            ),
            (
                "service: JUSTDO's per-store fencing costs it the put p99 against iDO".into(),
                put_p99(Scheme::Ido) > 0 && put_p99(Scheme::Ido) < put_p99(Scheme::JustDo),
            ),
        ];
        rep.seal(hash_images)
    }

    fn probe(&self, _rec: &mut Recorder, out: &mut Metrics) {
        probe_nvm_alloc(out);
        // One surviving shard under iDO with the observation plane off,
        // tracing only, and metrics only: what switching each on costs
        // inside `Vm::run`.
        let with = |trace: bool, metrics: bool| {
            let mut cfg = self.cfg.clone();
            cfg.pool.trace.enabled = trace;
            cfg.pool.metrics.enabled = metrics;
            cfg
        };
        let cfgs = [with(false, false), with(true, false), with(false, true)];
        let runs: Vec<RunConfig<'_>> = cfgs
            .iter()
            .map(|cfg| {
                (
                    &self.shards[1] as &dyn WorkloadSpec,
                    Scheme::Ido,
                    THREADS,
                    OPS_A,
                    cfg,
                )
            })
            .collect();
        let ns = fastest_run_ns(7, &runs);
        out.insert(
            "trace.on_overhead_pct".into(),
            (ns[1] - ns[0]) / ns[0] * 100.0,
        );
        out.insert(
            "metrics.on_overhead_pct".into(),
            (ns[2] - ns[0]) / ns[0] * 100.0,
        );
    }
}
