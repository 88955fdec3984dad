//! The decomposed pipeline driver shared by the untraced and traced passes.
//!
//! `ido_workloads::run_workload` is one opaque call; here the same steps —
//! `build_program` → `instrument_program` → `Vm::new` → `setup` → `spawn` →
//! `run` → `verify` → collect — are separate public calls with a span around
//! each, so the traced pass can attribute host time to layers.
//! [`run_point`] reproduces `run_workload`'s steps, clock and stats exactly
//! (asserted per workload at set-up by [`assert_matches_run_workload`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use ido_compiler::{instrument_program, Instrumented, Scheme};
use ido_crashtest::quiet_panics;
use ido_ir::Program;
use ido_nvm::alloc::NvAllocator;
use ido_nvm::root::{RootTable, HEAP_START};
use ido_nvm::{AllocPolicy, MetricsConfig, PmemPool, PoolConfig, ServiceMetrics, StatsSnapshot};
use ido_trace::{Trace, TraceConfig};
use ido_vm::layout::AppendLogLayout;
use ido_vm::{RunOutcome, SchedPolicy, Vm, VmConfig, THREADS_ROOT};
use ido_workloads::{run_workload, WorkloadSpec};

use crate::spans::Recorder;
use crate::stats::Fnv;

/// A unit fails when a log or the pool ends fuller than this share of its
/// capacity: Atlas and NVML never truncate and a full log is a host panic,
/// so a workload sized close to the limit would tip over on a later change.
pub const FILL_LIMIT: f64 = 0.75;

/// Delegates to `inner`, perturbing the guest key-stream seed — the worker
/// argument at `seed_arg` — with the benchmark's `--seed`.
pub struct SeededSpec {
    inner: Box<dyn WorkloadSpec>,
    seed_arg: Option<usize>,
    mix: u64,
}

impl SeededSpec {
    /// Wraps `inner`; `seed_arg` is the index of the xorshift state among
    /// its worker arguments (`None` for workloads that draw no keys).
    pub fn new(inner: Box<dyn WorkloadSpec>, seed_arg: Option<usize>, seed: u64) -> SeededSpec {
        SeededSpec {
            inner,
            seed_arg,
            mix: splitmix(seed),
        }
    }
}

/// One splitmix64 step: spreads small consecutive seeds over all 64 bits.
pub fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WorkloadSpec for SeededSpec {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn build_program(&self) -> Program {
        self.inner.build_program()
    }

    fn setup(&self, vm: &mut Vm, threads: usize, ops: u64) -> Vec<u64> {
        self.inner.setup(vm, threads, ops)
    }

    fn worker_args(&self, base: &[u64], thread: usize, ops: u64) -> Vec<u64> {
        let mut args = self.inner.worker_args(base, thread, ops);
        if let Some(i) = self.seed_arg {
            // An xorshift state must never be 0.
            args[i] = (args[i] ^ self.mix).max(1);
        }
        args
    }

    fn verify(&self, vm: &Vm, base: &[u64], total_ops: u64) {
        self.inner.verify(vm, base, total_ops)
    }
}

/// A VM configuration for throughput points: min-clock scheduling, tracing
/// and metrics off whatever the environment says.
pub fn vm_config(pool_mib: usize, log_entries: usize) -> VmConfig {
    VmConfig {
        pool: PoolConfig {
            size: pool_mib << 20,
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
            ..PoolConfig::default()
        },
        log_entries,
        sched: SchedPolicy::MinClock,
        ..VmConfig::default()
    }
}

/// Everything observable about one completed pipeline run.
#[derive(Debug, Clone)]
pub struct Point {
    /// Scheme run.
    pub scheme: Scheme,
    /// Worker threads.
    pub threads: usize,
    /// Operations completed.
    pub total_ops: u64,
    /// Simulated wall clock (max thread clock), ns.
    pub sim_ns: u64,
    /// Guest instructions interpreted.
    pub steps: u64,
    /// Pool-wide persistence counters.
    pub stats: StatsSnapshot,
    /// Entries left in the per-thread append logs.
    pub log_entries: usize,
    /// Fullest append log, as a share of its capacity.
    pub log_fill: f64,
    /// Persistent-heap bump region used, as a share of the pool.
    pub pool_fill: f64,
    /// Hash of the persistent image (0 unless asked for).
    pub image_hash: u64,
    /// Merged event trace, when the pool traced.
    pub trace: Option<Trace>,
    /// Windowed metrics, when the pool metered.
    pub metrics: Option<ServiceMetrics>,
}

impl Point {
    /// Million operations per simulated second.
    pub fn mops(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.total_ops as f64 * 1e3 / self.sim_ns as f64
        }
    }

    /// Folds the deterministic results into `h`.
    pub fn fingerprint(&self, h: &mut Fnv) {
        let s = &self.stats;
        for w in [
            self.total_ops,
            self.sim_ns,
            self.steps,
            s.loads,
            s.stores,
            s.nt_stores,
            s.clwbs,
            s.fences,
            s.lines_persisted,
            s.log_bytes,
            self.log_entries as u64,
        ] {
            h.word(w);
        }
    }
}

/// Entries left in each thread's append log: `(total, fullest)`. Reads the
/// registry exactly as `run_workload` does, so the pool's load counter ends
/// at the same value.
fn log_entries(vm: &Vm) -> (usize, usize) {
    let mut h = vm.pool().handle();
    let Some(registry) = RootTable.root(&mut h, THREADS_ROOT) else {
        return (0, 0);
    };
    let count = h.read_u64(registry) as usize;
    let (mut total, mut fullest) = (0, 0);
    for i in 0..count {
        let base = h.read_u64(registry + 8 + i * 32 + 16) as usize;
        let n = AppendLogLayout {
            base,
            capacity: vm.config().log_entries,
        }
        .scan_len(&mut h);
        total += n;
        fullest = fullest.max(n);
    }
    (total, fullest)
}

/// Word-wise hash of the first `bytes` of the persistent image.
pub fn image_hash(pool: &PmemPool, bytes: usize) -> u64 {
    let mut h = Fnv::default();
    for addr in (0..bytes.min(pool.size())).step_by(8) {
        h.word(pool.read_u64_persistent(addr));
    }
    h.finish()
}

/// Bytes the allocator's bump region has consumed. Taken on a fresh handle
/// after the run's stats were captured, so it perturbs nothing.
fn high_water(pool: &PmemPool, cfg: &VmConfig) -> usize {
    let mut h = pool.handle();
    NvAllocator::attach_with(&mut h, cfg.alloc).high_water(&mut h)
}

/// Pipeline steps 1-2: the workload's program, lowered for `scheme`.
///
/// # Panics
/// Panics (caught by [`unit`]) if instrumentation fails.
pub fn compile(rec: &mut Recorder, spec: &dyn WorkloadSpec, scheme: Scheme) -> Instrumented {
    let program = rec.time("workloads.build_program", || spec.build_program());
    rec.time("compiler.instrument_program", || {
        instrument_program(program, scheme).expect("workload instruments cleanly")
    })
}

/// Pipeline steps 3-5: a VM at step 0 with the workload's persistent state
/// set up and its workers spawned. Returns the VM and the workload's base
/// values.
pub fn boot(
    rec: &mut Recorder,
    spec: &dyn WorkloadSpec,
    inst: Instrumented,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
) -> (Vm, Vec<u64>) {
    let mut vm = rec.time("vm.new", || Vm::new(inst, cfg));
    let base = rec.time("workloads.setup", || spec.setup(&mut vm, threads, ops));
    rec.time("vm.spawn", || {
        for t in 0..threads {
            vm.spawn("worker", &spec.worker_args(&base, t, ops));
        }
    });
    (vm, base)
}

/// The whole pipeline for one (scheme, point): what `run_workload` does,
/// one public call at a time.
///
/// # Panics
/// Panics (caught by [`unit`]) if the run does not complete or the
/// workload's invariants do not hold.
pub fn run_point(
    rec: &mut Recorder,
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    threads: usize,
    ops: u64,
    cfg: VmConfig,
    hash_image: bool,
) -> Point {
    let inst = compile(rec, spec, scheme);
    let (mut vm, base) = boot(rec, spec, inst, threads, ops, cfg.clone());
    let outcome = rec.time("vm.run", || vm.run());
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "workload must run to completion"
    );
    let total_ops = threads as u64 * ops;
    rec.time("workloads.verify", || spec.verify(&vm, &base, total_ops));

    let sim_ns = vm.max_clock_ns();
    let steps = vm.steps();
    let (log_entries, fullest) = log_entries(&vm);
    let pool = vm.pool().clone();
    // Dropping the VM folds per-thread stats (and trace rings) into the pool.
    rec.time("vm.drop", || drop(vm));
    let stats = pool.global_stats();
    let trace = rec.time("nvm.take_trace", || pool.take_trace());
    let metrics = rec.time("nvm.take_metrics", || pool.take_metrics());
    let used = high_water(&pool, &cfg);
    // The bump allocators never write above their high-water mark, so the
    // image below it is the whole image; the sharded allocator's chunk
    // region has no such bound and is hashed in full.
    let hashed = match cfg.alloc {
        AllocPolicy::Sharded { .. } => pool.size(),
        AllocPolicy::Legacy | AllocPolicy::GlobalDes => HEAP_START + used,
    };
    let (pool_bytes, image_hash) = (
        pool.size(),
        if hash_image {
            image_hash(&pool, hashed)
        } else {
            0
        },
    );
    // Unmapping both images is the pool's cost, not the harness's.
    rec.time("nvm.pool_drop", || drop(pool));
    Point {
        scheme,
        threads,
        total_ops,
        sim_ns,
        steps,
        stats,
        log_entries,
        log_fill: fullest as f64 / cfg.log_entries as f64,
        pool_fill: used as f64 / pool_bytes as f64,
        image_hash,
        trace,
        metrics,
    }
}

/// Fails a point whose logs or pool ended too full (see [`FILL_LIMIT`]).
///
/// # Errors
/// A description of the overfull resource.
pub fn check_fill(p: &Point) -> Result<(), String> {
    if p.log_fill > FILL_LIMIT {
        return Err(format!(
            "{} {}T: fullest append log {:.0}% of capacity (limit {:.0}%)",
            p.scheme,
            p.threads,
            p.log_fill * 100.0,
            FILL_LIMIT * 100.0
        ));
    }
    if p.pool_fill > FILL_LIMIT {
        return Err(format!(
            "{} {}T: pool {:.0}% full (limit {:.0}%)",
            p.scheme,
            p.threads,
            p.pool_fill * 100.0,
            FILL_LIMIT * 100.0
        ));
    }
    Ok(())
}

/// Runs one unit under `catch_unwind` + `quiet_panics`, inside a
/// `bench.unit` span: a guest-triggered host panic becomes `Err`, counted
/// by the caller as a failed unit, never fatal.
pub fn unit<T>(
    rec: &mut Recorder,
    id: u32,
    f: impl FnOnce(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    rec.set_unit(id);
    let span = rec.begin("bench.unit");
    let r = quiet_panics(|| catch_unwind(AssertUnwindSafe(|| f(rec))));
    rec.end(span);
    r.unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into()))
    })
}

/// Asserts that [`run_point`] and `run_workload` agree on one point.
///
/// # Panics
/// Panics when steps, simulated clock, counters or log volume differ.
pub fn assert_matches_run_workload(
    spec: &dyn WorkloadSpec,
    scheme: Scheme,
    threads: usize,
    ops: u64,
    cfg: &VmConfig,
) {
    let ours = run_point(
        &mut Recorder::off(),
        spec,
        scheme,
        threads,
        ops,
        cfg.clone(),
        false,
    );
    let theirs = run_workload(scheme, spec, threads, ops, cfg.clone());
    assert_eq!(
        (
            ours.steps,
            ours.sim_ns,
            ours.total_ops,
            ours.log_entries,
            ours.stats
        ),
        (
            theirs.steps,
            theirs.sim_ns,
            theirs.total_ops,
            theirs.log_entries,
            theirs.mem_stats
        ),
        "decomposed driver diverged from run_workload on {} under {scheme}",
        spec.name()
    );
}
