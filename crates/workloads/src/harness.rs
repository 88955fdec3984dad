//! The discrete-event throughput harness.
//!
//! Runs any [`WorkloadSpec`] under any scheme: the workload's program is
//! lowered by the real compiler pipeline, executed in the VM under the
//! min-clock (discrete-event) scheduler, and timed in simulated
//! nanoseconds. Lock contention appears as waiting time via the VM's
//! handoff clock inheritance, so throughput-vs-threads curves capture
//! serialization exactly as the paper's hardware runs do.

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_ir::Program;
use ido_nvm::{AllocPolicy, PoolConfig, StatsSnapshot};
use ido_vm::layout::{AppendLogLayout, Registry};
use ido_vm::{RunOutcome, SchedPolicy, Vm, VmConfig};

/// Append-log records one operation can leave behind under the hungriest
/// scheme, for every workload but the hand-over-hand list: NVML's
/// line-granular `TX_ADD` leaves at most 14 (stack, queue), Atlas at most
/// 18 (hash map at 256 threads, lock-retry records included) — measured
/// as whole-run averages, so 64 leaves head-room for the unluckiest thread.
pub const LOG_PER_OP: usize = 64;

/// For runs that measure no append-log scheme (Origin, iDO, JUSTDO).
pub const NO_LOG: usize = 0;

/// [`LOG_PER_OP`] for the hand-over-hand ordered list, where Atlas logs an
/// acquire and a release record per node visited.
pub fn list_log_per_op(key_range: u64) -> usize {
    2 * key_range as usize + LOG_PER_OP
}

/// Returns a VM configuration for up to `threads` workers of `ops`
/// operations each.
///
/// No scheme truncates its append log during a run (Atlas keeps it for
/// dependence tracking, NVML scans it for the last commit), so its
/// capacity is `ops * log_per_op` records, and the pool is `heap_mib` for
/// the workload's own data plus every thread's log and stack: a run sized
/// this way can raise its ops or thread count without overflowing a log or
/// exhausting the pool. With head-room these sizes move no simulated
/// number; a pool only just large enough can (the sharded allocator places
/// blocks differently in it).
pub fn bench_config(heap_mib: usize, threads: usize, ops: u64, log_per_op: usize) -> VmConfig {
    let base = VmConfig::default();
    let log_entries = (ops as usize * log_per_op).next_multiple_of(1 << 10).max(1 << 12);
    // The iDO and JUSTDO logs are a few hundred bytes each.
    let per_thread = AppendLogLayout::size_for(log_entries) + base.stack_bytes + (8 << 10);
    VmConfig {
        pool: PoolConfig { size: (heap_mib << 20) + threads * per_thread, ..PoolConfig::default() },
        log_entries,
        max_threads: threads.max(base.max_threads),
        ..base
    }
}

/// Switches a [`bench_config`] to the sharded allocator and doubles its
/// pool: that allocator keeps up to half the pool for its small-object
/// chunks, while the logs, stacks and arenas `bench_config` sized are
/// large blocks, which come out of the other half.
pub fn with_sharded_alloc(mut cfg: VmConfig, shards: usize) -> VmConfig {
    cfg.alloc = AllocPolicy::Sharded { shards };
    cfg.pool.size *= 2;
    cfg
}

/// The one sweep engine: runs `spec` at `ops` operations per thread on
/// every (scheme, thread count, VM configuration) point, fanned out over `ido-par`'s ordered parallel map with
/// `jobs` workers. Each point is an independent simulation over its own
/// pool and the results come back in input order, so whatever is derived
/// from them is byte-identical for any job count.
pub fn sweep(
    jobs: usize,
    spec: &dyn WorkloadSpec,
    ops: u64,
    points: Vec<(Scheme, usize, VmConfig)>,
) -> Vec<RunStats> {
    ido_par::par_map_jobs(jobs, points, |(scheme, threads, cfg)| {
        run_workload(scheme, spec, threads, ops, cfg)
    })
}

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

    /// The (uninstrumented) program, which defines a `worker` function:
    /// for the native specs, the program section of their corpus file.
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
    let (mut vm, base) = boot(spec, instrumented, threads, ops_per_thread, config);
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

/// How a workload run starts: a VM for `inst` on `cfg`, `spec` set up for
/// `threads` workers of `ops` operations each, and one `worker` spawned per
/// thread. Returns the VM at step 0 and the setup values
/// [`WorkloadSpec::verify`] takes.
pub fn boot(
    spec: &dyn WorkloadSpec,
    inst: Instrumented,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
) -> (Vm, Vec<u64>) {
    let mut vm = Vm::new(inst, cfg);
    let base = spec.setup(&mut vm, threads, ops);
    for t in 0..threads {
        vm.spawn("worker", &spec.worker_args(&base, t, ops));
    }
    (vm, base)
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
