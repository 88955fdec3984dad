//! Per-layer metrics: those read off the spans of a traced repetition, and
//! those measured by driving a layer's public functions directly in a loop.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ido_compiler::Scheme;
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{AllocPolicy, CrashPolicy, PmemHandle, PmemPool, PoolConfig};
use ido_trace::TraceConfig;
use ido_vm::{ExecTier, VmConfig};
use ido_workloads::WorkloadSpec;

use crate::driver::{run_point, splitmix};
use crate::names::scheme_tag;
use crate::spans::{durations_of, Recorder, Span};
use crate::stats::fastest;
use crate::workloads::{Metrics, Rep};

/// Spans whose mean duration per call is a metric of its own, µs.
const MEAN_US: [(&str, &str); 12] = [
    ("workloads.build_program", "workloads.build_program_us"),
    ("workloads.setup", "workloads.setup_us"),
    ("workloads.verify", "workloads.verify_us"),
    ("vm.new", "vm.new_us"),
    ("vm.spawn", "vm.spawn_us"),
    ("vm.attach", "vm.attach_us"),
    ("vm.crash", "vm.crash_us"),
    ("crashtest.persist_boundaries", "crashtest.boundaries_us"),
    ("trace.encode", "trace.encode_us"),
    ("trace.chrome", "trace.chrome_export_us"),
    ("metrics.merge", "metrics.merge_us"),
    ("metrics.export", "metrics.export_us"),
];

/// Mean duration of the spans called `name`, µs (`None` when there are none).
pub fn mean_us(spans: &[Span], name: &str) -> Option<f64> {
    let d = durations_of(spans, name);
    (!d.is_empty()).then(|| d.iter().map(|(_, ns)| *ns as f64).sum::<f64>() / d.len() as f64 / 1e3)
}

/// Metrics any workload that runs VMs can read off one repetition's spans:
/// mean cost of the per-unit calls, and `Vm::run` speed split by scheme and
/// by thread count (`rep.points` says which unit ran what).
pub fn vm_span_metrics(spans: &[Span], rep: &Rep, out: &mut Metrics) {
    for (span, metric) in MEAN_US {
        if let Some(us) = mean_us(spans, span) {
            out.insert(metric.into(), us);
        }
    }
    let mut unit_info: BTreeMap<u32, (Scheme, usize, u64)> = BTreeMap::new();
    for r in &rep.runs {
        unit_info
            .entry(r.unit)
            .or_insert((r.scheme, r.threads, 0))
            .2 += r.steps;
    }
    let mut run_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for (unit, ns) in durations_of(spans, "vm.run") {
        *run_ns.entry(unit).or_insert(0) += ns;
    }
    let mut by_key: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (unit, (scheme, threads, steps)) in &unit_info {
        let Some(ns) = run_ns.get(unit) else { continue };
        let mut keys = Vec::new();
        if [1, 4, 16, 64].contains(threads) {
            keys.push(format!("vm.run_msteps_per_s.t{threads}"));
        }
        if !scheme.is_lockfree() {
            keys.push(format!("vm.run_msteps_per_s.{}", scheme_tag(*scheme)));
        }
        for key in keys {
            let e = by_key.entry(key).or_insert((0, 0));
            e.0 += steps;
            e.1 += ns;
        }
    }
    for (key, (steps, ns)) in by_key {
        if ns > 0 {
            out.insert(key, steps as f64 * 1e3 / ns as f64);
        }
    }
    for (scheme, metric) in [
        (Scheme::Ido, "vm.recover_us.ido"),
        (Scheme::Atlas, "vm.recover_us.atlas"),
    ] {
        let d: Vec<f64> = durations_of(spans, "vm.recover")
            .into_iter()
            .filter(|(unit, _)| unit_info.get(unit).is_some_and(|(s, _, _)| *s == scheme))
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect();
        if !d.is_empty() {
            out.insert(metric.into(), d.iter().sum::<f64>() / d.len() as f64);
        }
    }
}

/// The mean time of one call in the fastest of `batches` batches of
/// `calls`, ns. `f` receives the call index.
pub fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    fastest(&samples)
}

fn quiet_pool(size: usize) -> PmemPool {
    PmemPool::new(PoolConfig {
        size,
        trace: TraceConfig::default(),
        ..PoolConfig::small_for_tests()
    })
}

/// Word-aligned addresses scattered over a pool, so the loops below miss
/// the host caches the way the kv tables do.
fn scattered(pool: &PmemPool, n: usize) -> Vec<usize> {
    let words = pool.size() / 8;
    (0..n)
        .map(|i| (splitmix(i as u64) as usize % words) * 8)
        .collect()
}

/// `nvm.load_ns`, `nvm.store_ns`, `nvm.persist_ns`: the data path of the
/// throughput workloads, driven directly on a table-sized pool.
pub fn probe_nvm_access(out: &mut Metrics) {
    let pool = quiet_pool(32 << 20);
    let addrs = scattered(&pool, 1 << 16);
    let mut h = pool.handle();
    out.insert(
        "nvm.load_ns".into(),
        ns_per_call(7, addrs.len(), |i| {
            black_box(h.read_u64(addrs[i]));
        }),
    );
    out.insert(
        "nvm.store_ns".into(),
        ns_per_call(7, addrs.len(), |i| h.write_u64(addrs[i], i as u64)),
    );
    out.insert(
        "nvm.persist_ns".into(),
        ns_per_call(7, addrs.len(), |i| {
            h.write_u64(addrs[i], !i as u64);
            h.clwb(addrs[i]);
            h.sfence();
        }),
    );
}

/// `nvm.pool_new_us`, `nvm.store_ns.journal`, `nvm.dirty_lines_us`,
/// `nvm.crash_us`: what every crash state pays, on an oracle-sized pool.
pub fn probe_nvm_lifecycle(out: &mut Metrics) {
    let cfg = PoolConfig::small_for_tests();
    out.insert(
        "nvm.pool_new_us".into(),
        ns_per_call(7, 200, |_| {
            black_box(PmemPool::new(cfg.clone()));
        }) / 1e3,
    );
    let pool = PmemPool::new(cfg);
    let addrs = scattered(&pool, 1 << 12);
    let mut h = pool.handle();
    pool.record_journal(1 << 10);
    out.insert(
        "nvm.store_ns.journal".into(),
        ns_per_call(7, addrs.len(), |i| h.write_u64(addrs[i], i as u64)),
    );
    pool.stop_journal();
    pool.crash_with(0, &CrashPolicy::DropDirty); // every line clean again
    let dirty = |h: &mut PmemHandle| addrs[..8].iter().for_each(|a| h.write_u64(*a, 1));
    dirty(&mut h);
    out.insert(
        "nvm.dirty_lines_us".into(),
        ns_per_call(7, 500, |_| {
            black_box(pool.dirty_lines());
        }) / 1e3,
    );
    out.insert(
        "nvm.crash_us".into(),
        ns_per_call(7, 100, |i| {
            dirty(&mut h);
            black_box(pool.crash_with(i as u64, &CrashPolicy::DropDirty));
        }) / 1e3,
    );
}

/// `nvm.alloc_ns.*`, `nvm.free_ns.*`, `nvm.attach_rebuild_us.sharded`:
/// the allocator under both policies the workloads use.
pub fn probe_nvm_alloc(out: &mut Metrics) {
    const BLOCKS: usize = 20_000;
    for (tag, policy) in [
        ("legacy", AllocPolicy::Legacy),
        ("sharded", AllocPolicy::Sharded { shards: 8 }),
    ] {
        let (mut alloc_ns, mut free_ns, mut rebuild_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            let pool = quiet_pool(64 << 20);
            let mut h = pool.handle();
            let alloc = NvAllocator::format_with(&mut h, pool.size(), policy);
            let t = Instant::now();
            let blocks: Vec<usize> = (0..BLOCKS)
                .map(|_| alloc.alloc(&mut h, 48).expect("probe pool is large enough"))
                .collect();
            alloc_ns.push(t.elapsed().as_nanos() as f64 / BLOCKS as f64);
            let t = Instant::now();
            black_box(NvAllocator::attach_with(&mut h, policy));
            rebuild_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            for b in blocks {
                alloc
                    .free(&mut h, b)
                    .expect("probe frees what it allocated");
            }
            free_ns.push(t.elapsed().as_nanos() as f64 / BLOCKS as f64);
        }
        out.insert(format!("nvm.alloc_ns.{tag}"), fastest(&alloc_ns));
        out.insert(format!("nvm.free_ns.{tag}"), fastest(&free_ns));
        if tag == "sharded" {
            out.insert("nvm.attach_rebuild_us.sharded".into(), fastest(&rebuild_us));
        }
    }
}

/// Host ns inside `Vm::run` and guest steps of one pipeline run.
pub fn run_ns_and_steps(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    threads: usize,
    ops: u64,
    cfg: &VmConfig,
) -> (f64, u64) {
    let mut rec = Recorder::on();
    let p = run_point(&mut rec, spec, scheme, threads, ops, cfg.clone(), false);
    let ns: u64 = durations_of(rec.spans(), "vm.run")
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    (ns as f64, p.steps)
}

/// One configuration of a pipeline run for [`fastest_run_ns`].
pub type RunConfig<'a> = (&'a dyn WorkloadSpec, Scheme, usize, u64, &'a VmConfig);

/// Host ns inside `Vm::run` for each of `configs`: the fastest of `rounds`
/// rounds. Each round visits the configurations in turn, so a slow phase
/// of the host hits all of them alike and their differences survive it.
pub fn fastest_run_ns(rounds: usize, configs: &[RunConfig<'_>]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; configs.len()];
    for _ in 0..rounds {
        for (slot, &(spec, scheme, threads, ops, cfg)) in best.iter_mut().zip(configs) {
            *slot = slot.min(run_ns_and_steps(spec, scheme, threads, ops, cfg).0);
        }
    }
    best
}

/// `vm.run_msteps_per_s.tier2` and `vm.tier2_speedup`: the given iDO points
/// on both engines (equal step counts asserted), the fastest of three alternating rounds each.
pub fn probe_tier2(points: &[(&dyn WorkloadSpec, usize, u64)], cfg: &VmConfig, out: &mut Metrics) {
    let tier2 = VmConfig {
        tier: ExecTier::Tier2,
        ..cfg.clone()
    };
    let (mut t1_rates, mut t2_rates) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut ns1, mut ns2, mut steps) = (0.0, 0.0, 0u64);
        for &(spec, threads, ops) in points {
            let (a, s1) = run_ns_and_steps(spec, Scheme::Ido, threads, ops, cfg);
            let (b, s2) = run_ns_and_steps(spec, Scheme::Ido, threads, ops, &tier2);
            assert_eq!(
                s1,
                s2,
                "tier 2 must execute exactly tier 1's steps on {}",
                spec.name()
            );
            ns1 += a;
            ns2 += b;
            steps += s1;
        }
        t1_rates.push(ns1 / steps as f64);
        t2_rates.push(ns2 / steps as f64);
    }
    let (t1, t2) = (fastest(&t1_rates), fastest(&t2_rates)); // ns per step
    out.insert("vm.run_msteps_per_s.tier2".into(), 1e3 / t2);
    out.insert("vm.tier2_speedup".into(), t1 / t2);
}
