//! The discrete-event throughput harness.
//!
//! Runs any [`WorkloadSpec`] under any scheme: the workload's program is
//! lowered by the real compiler pipeline, executed in the VM under the
//! min-clock (discrete-event) scheduler, and timed in simulated
//! nanoseconds. Lock contention appears as waiting time via the VM's
//! handoff clock inheritance, so throughput-vs-threads curves capture
//! serialization exactly as the paper's hardware runs do.

use ido_compiler::{instrument_program, Scheme};
use ido_ir::Program;
use ido_nvm::StatsSnapshot;
use ido_vm::layout::Registry;
use ido_vm::{RunOutcome, SchedPolicy, Vm, VmConfig};

/// A benchmark workload: an IR program plus its persistent-state setup.
///
/// `Sync` is a supertrait so a `&dyn WorkloadSpec` can be shared with the
/// worker threads of `ido-par`'s deterministic parallel map (the sweep
/// engine fans one task per (scheme × thread-count) point out over a
/// shared spec). Specs are plain configuration data, so this costs
/// implementors nothing.
pub trait WorkloadSpec: Sync {
    /// Display name.
    fn name(&self) -> String;

    /// Builds the (uninstrumented) program; must define a `worker`
    /// function.
    fn build_program(&self) -> Program;

    /// Initializes persistent structures (including pre-allocated node
    /// arenas sized for `threads` × `ops`); returns base values consumed by
    /// [`WorkloadSpec::worker_args`].
    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64>;

    /// Arguments for worker thread `thread` performing `ops` operations.
    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64>;

    /// Verifies structural invariants after the run.
    ///
    /// # Panics
    /// Panics on violation.
    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64);
}

/// Results of one harness run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Worker thread count.
    pub threads: usize,
    /// Total operations completed.
    pub total_ops: u64,
    /// Simulated wall-clock time (max thread clock), ns.
    pub sim_ns: u64,
    /// Instructions interpreted.
    pub steps: u64,
    /// Scheduler picks ([`Vm::sched_picks`]); `steps / sched_picks` is the
    /// mean number of steps a thread ran between hand-offs.
    pub sched_picks: u64,
    /// Pool-wide persistence-operation counters.
    pub mem_stats: StatsSnapshot,
    /// Total append-log entries left in per-thread logs (Atlas's recovery
    /// must scan these — the Table I driver).
    pub log_entries: usize,
    /// Merged event trace, when the pool was configured with tracing on
    /// (`PoolConfig::trace`): events, cost breakdown, and the dynamic
    /// region profile (meaningful under iDO). `None` when tracing was
    /// disabled.
    pub trace: Option<ido_trace::Trace>,
    /// Windowed service metrics (op latency quantiles, goodput, persist
    /// counters), when the pool was configured with metrics on
    /// (`PoolConfig::metrics`). `None` when metrics were disabled.
    pub metrics: Option<ido_nvm::ServiceMetrics>,
}

impl RunStats {
    /// Throughput in million operations per simulated second.
    pub fn mops(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e3 / self.sim_ns as f64
    }
}

/// Runs `spec` under `scheme` with `threads` workers × `ops_per_thread`
/// operations.
///
/// # Panics
/// Panics if instrumentation fails, the run deadlocks, or the workload's
/// invariants are violated — all of which are defects this harness exists
/// to surface.
pub fn run_workload(
    scheme: Scheme,
    spec: &dyn WorkloadSpec,
    threads: usize,
    ops_per_thread: u64,
    mut config: VmConfig,
) -> RunStats {
    let program = spec.build_program();
    let instrumented =
        instrument_program(program, scheme).expect("workload instruments cleanly");
    config.sched = SchedPolicy::MinClock;
    let mut vm = Vm::new(instrumented, config);
    let base = spec.setup(&mut vm, threads, ops_per_thread);
    for t in 0..threads {
        let args = spec.worker_args(&base, t, ops_per_thread);
        vm.spawn("worker", &args);
    }
    let outcome = vm.run();
    assert_eq!(outcome, RunOutcome::Completed, "workload must run to completion");
    let total_ops = threads as u64 * ops_per_thread;
    spec.verify(&vm, &base, total_ops);

    let sim_ns = vm.max_clock_ns();
    let steps = vm.steps();
    let sched_picks = vm.sched_picks();
    let log_entries = count_log_entries(&vm);
    let pool = vm.pool().clone();
    drop(vm); // fold per-thread stats (and trace rings) into the pool
    RunStats {
        scheme,
        workload: spec.name(),
        threads,
        total_ops,
        sim_ns,
        steps,
        sched_picks,
        mem_stats: pool.global_stats(),
        log_entries,
        trace: pool.take_trace(),
        metrics: pool.take_metrics(),
    }
}

/// Counts surviving entries across all per-thread append logs.
fn count_log_entries(vm: &Vm) -> usize {
    // `benchmark/src/driver.rs::log_entries` mirrors these loads one for
    // one (root lookup, count word, one word per thread, the scan): the
    // pool's load counter is part of what it fingerprints.
    let mut h = vm.pool().handle();
    let Some(registry) = Registry::open(&mut h) else {
        return 0;
    };
    let capacity = vm.config().log_entries;
    (0..registry.count(&mut h))
        .map(|i| registry.append_log(&mut h, i, capacity).scan_len(&mut h))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{memcached::MemcachedSpec, redis::RedisSpec};
    use crate::micro::{ListSpec, MapSpec, QueueSpec, StackSpec};
    use ido_nvm::PoolConfig;

    fn small_config() -> VmConfig {
        // Default (realistic) latency model: the shape assertions below are
        // about persistence costs, which a zeroed model would erase.
        VmConfig { pool: PoolConfig { size: 8 << 20, ..PoolConfig::default() }, log_entries: 4096, ..VmConfig::default() }
    }

    fn smoke(spec: &dyn WorkloadSpec, scheme: Scheme, threads: usize) -> RunStats {
        run_workload(scheme, spec, threads, 40, small_config())
    }

    #[test]
    fn every_workload_runs_under_every_scheme() {
        let specs: Vec<Box<dyn WorkloadSpec>> = vec![
            Box::new(StackSpec),
            Box::new(QueueSpec),
            Box::new(ListSpec { key_range: 32 }),
            Box::new(MapSpec { buckets: 8, key_range: 128 }),
            Box::new(MemcachedSpec { buckets: 16, key_range: 256, put_permille: 500 }),
            Box::new(RedisSpec { buckets: 16, key_range: 256, put_permille: 200 }),
        ];
        for spec in &specs {
            for scheme in Scheme::ALL {
                let stats = smoke(spec.as_ref(), scheme, 2);
                assert_eq!(stats.total_ops, 80, "{} under {scheme}", spec.name());
                assert!(stats.sim_ns > 0);
            }
        }
    }

    #[test]
    fn alloc_churn_runs_under_every_scheme_and_policy() {
        use crate::micro::AllocChurnSpec;
        use ido_nvm::AllocPolicy;
        for scheme in Scheme::ALL {
            let stats = smoke(&AllocChurnSpec, scheme, 2);
            assert!(stats.sim_ns > 0, "alloc_churn under {scheme}");
        }
        for alloc in [AllocPolicy::GlobalDes, AllocPolicy::Sharded { shards: 4 }] {
            let cfg = VmConfig { alloc, ..small_config() };
            run_workload(Scheme::Origin, &AllocChurnSpec, 4, 40, cfg);
        }
    }

    #[test]
    fn sharded_allocator_beats_global_mutex_under_churn() {
        use crate::micro::AllocChurnSpec;
        use ido_nvm::AllocPolicy;
        let threads = 16;
        let global = run_workload(
            Scheme::Origin,
            &AllocChurnSpec,
            threads,
            40,
            VmConfig { alloc: AllocPolicy::GlobalDes, ..small_config() },
        );
        let sharded = run_workload(
            Scheme::Origin,
            &AllocChurnSpec,
            threads,
            40,
            VmConfig { alloc: AllocPolicy::Sharded { shards: threads }, ..small_config() },
        );
        assert!(
            sharded.mops() > global.mops() * 2.0,
            "sharded allocator must scale past the global mutex at {threads}T: \
             global={:.3} sharded={:.3} Mops/s",
            global.mops(),
            sharded.mops()
        );
    }

    #[test]
    fn ido_beats_justdo_on_stack_throughput() {
        let ido = smoke(&StackSpec, Scheme::Ido, 4);
        let justdo = smoke(&StackSpec, Scheme::JustDo, 4);
        assert!(
            ido.mops() > justdo.mops(),
            "iDO {:.3} must beat JUSTDO {:.3} Mops/s",
            ido.mops(),
            justdo.mops()
        );
    }

    #[test]
    fn origin_is_fastest() {
        for scheme in [Scheme::Ido, Scheme::Atlas, Scheme::JustDo] {
            let origin = smoke(&StackSpec, Scheme::Origin, 2);
            let other = smoke(&StackSpec, scheme, 2);
            assert!(origin.mops() > other.mops(), "Origin must beat {scheme}");
        }
    }

    #[test]
    fn map_scales_with_threads_under_ido() {
        let spec = MapSpec { buckets: 64, key_range: 1024 };
        let one = run_workload(Scheme::Ido, &spec, 1, 60, small_config());
        let eight = run_workload(Scheme::Ido, &spec, 8, 60, small_config());
        assert!(
            eight.mops() > one.mops() * 3.0,
            "hash map should scale: 1T={:.3} 8T={:.3}",
            one.mops(),
            eight.mops()
        );
    }

    #[test]
    fn stack_serializes_under_contention() {
        let one = smoke(&StackSpec, Scheme::Ido, 1);
        let eight = smoke(&StackSpec, Scheme::Ido, 8);
        assert!(
            eight.mops() < one.mops() * 3.0,
            "the single-lock stack must not scale linearly: 1T={:.3} 8T={:.3}",
            one.mops(),
            eight.mops()
        );
    }

    #[test]
    fn atlas_leaves_log_entries_but_ido_does_not() {
        let atlas = smoke(&StackSpec, Scheme::Atlas, 2);
        let ido = smoke(&StackSpec, Scheme::Ido, 2);
        assert!(atlas.log_entries > 0, "Atlas accumulates undo/lock entries");
        assert_eq!(ido.log_entries, 0, "iDO keeps no per-store log");
    }

    #[test]
    fn ido_profile_collects_region_data() {
        let mut config = small_config();
        config.pool.trace = ido_trace::TraceConfig { enabled: true, buf_entries: 1 };
        let spec = RedisSpec { buckets: 16, key_range: 256, put_permille: 500 };
        let stats = run_workload(Scheme::Ido, &spec, 1, 40, config);
        let profile = stats.trace.expect("tracing on").profile;
        assert!(profile.regions > 0);
        assert!(profile.fases > 0);
        assert!(profile.frac_inputs_below_5() > 0.5);
    }

    #[test]
    fn deterministic_repeat() {
        let a = smoke(&QueueSpec, Scheme::Ido, 3);
        let b = smoke(&QueueSpec, Scheme::Ido, 3);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.steps, b.steps);
    }
}
