//! The engine: deterministic multi-threaded execution of instrumented
//! programs over simulated NVM — configuration, the [`Vm`], the scheduler
//! loops of both tiers, and the scheme-agnostic instructions. What a store,
//! a load, a CAS or an `Rt` op *means* under a scheme lives in
//! [`crate::scheme`].

use std::sync::Arc;

use ido_compiler::{Instrumented, Scheme};
use ido_ir::{
    BlockId, DecodedInst, DecodedProgram, FuncId, Inst, Operand, Pc, Program, Reg, StackSlot,
    StoreTarget, Tier2Entry, Tier2Program,
};
use ido_lockfree::LfState;
use ido_nvm::alloc::{AllocPolicy, NvAllocator};
use ido_nvm::root::RootTable;
use ido_nvm::{PmemHandle, PmemPool, PoolConfig, PAddr};
use ido_trace::{Category, EventKind};

use crate::layout::{AppendLogLayout, Registry, RegistryEntry, ResumeLog};
use crate::locks::{Acquire, LockTable, ThreadId};
use crate::sched::{self, Sched, MAX_CLOCK_NS, NOT_READY};
use crate::scheme::{self, Effect, RtCx, SchemeState, Shared};
use crate::tier2;

/// Reserved transient lock id for Mnemosyne's single global transaction
/// lock (below the heap, so it can never collide with a lock holder).
pub const GLOBAL_TX_LOCK: u64 = 8;

/// Root name under which the VM's thread registry is published.
pub const THREADS_ROOT: &str = "vm_threads";

/// Root name under which lock-free schemes publish the persistent CAS
/// descriptor table (an [`ido_lockfree::LfState`] base address).
pub const LF_STATE_ROOT: &str = "lf_state";

/// Maximum threads a VM instance supports.
pub const MAX_THREADS: usize = 128;

/// Thread scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Seeded random interleaving — good for crash testing (explores many
    /// interleavings deterministically).
    #[default]
    Random,
    /// Always run the runnable thread with the smallest simulated clock —
    /// turns the VM into a discrete-event simulator whose `max_clock_ns`
    /// is a meaningful wall-clock estimate (used by the throughput
    /// figures). Lock handoffs advance the waiter's clock to the release
    /// time, so contention shows up as elapsed simulated time.
    MinClock,
}

/// Which execution engine runs the program.
///
/// Both tiers are **observationally identical** — same schedule, same
/// simulated clocks, same persist-event stream, same bytes in NVM — which
/// the cross-tier differential harness (`tier_equivalence`, the shared
/// goldens, the crash oracle) pins. Tier 2 is purely a throughput
/// optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The decoded per-instruction interpreter (the reference semantics).
    #[default]
    Tier1,
    /// The block-compiled segment engine: basic blocks fuse into
    /// straight-line superinstruction traces with batched cost accounting,
    /// deopting to tier 1 at calls, returns, allocation, and runtime ops.
    Tier2,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Pool configuration (size, latency model, crash policy).
    pub pool: PoolConfig,
    /// Scheduler seed (determines the thread interleaving).
    pub seed: u64,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Per-thread persistent stack bytes.
    pub stack_bytes: usize,
    /// Capacity (entries) of each thread's append log (Atlas/NVML/
    /// Mnemosyne/NVThreads).
    pub log_entries: usize,
    /// Simulated cost of one non-memory instruction, in ns.
    pub inst_cost_ns: u64,
    /// Simulated cost of an uncontended lock or unlock, in ns.
    pub lock_cost_ns: u64,
    /// Per-store/per-lock CPU cost of Atlas's compiler-inserted persistent-
    /// access detection and dependence bookkeeping. Section V-A attributes
    /// Atlas's single-threaded overhead to these features; real Atlas runs
    /// ~10x slower than uninstrumented Memcached, which calibrates this to
    /// a few hundred ns per instrumented event.
    pub atlas_tracking_ns: u64,
    /// Per-instruction CPU tax inside JUSTDO FASEs, modeling the original
    /// system's prohibition on caching FASE state in registers (every use
    /// becomes a memory access).
    pub justdo_mem_tax_ns: u64,
    /// Length of the serialized critical section inside Atlas's runtime
    /// that every lock-tracking event passes through (shared dependence
    /// tables). This is what saturates Atlas on scalable structures.
    pub atlas_rt_serial_ns: u64,
    /// Ablation: fence the recovery_pc update eagerly inside each boundary
    /// (the paper's exact two-fence sequence) instead of deferring it to
    /// the next region's first store.
    pub ido_eager_step2_fence: bool,
    /// Ablation: give each lock-acquire record its own fence (the paper's
    /// exact single-fence lock op) instead of amortizing it into the
    /// adjacent boundary's first fence.
    pub ido_unmerged_acquire_fence: bool,
    /// Ablation: disable persist coalescing — fence after every individual
    /// register-slot write-back at a boundary (Section IV-B shows why this
    /// matters).
    pub ido_no_coalescing: bool,
    /// **Deliberate bug injection** (crash-oracle self-test only): at each
    /// iDO boundary, skip writing back the region's tracked heap stores
    /// while still durably advancing `recovery_pc` past them. This breaks
    /// the paper's persist-ordering contract — a crash right after the
    /// boundary resumes *after* a region whose stores never reached NVM —
    /// and must make the crash oracle report a minimal counterexample.
    /// Never enable outside oracle validation tests.
    pub ido_bug_skip_store_flush: bool,
    /// **Deliberate bug injection** (lock-free oracle self-test only):
    /// make `rt.lf_flush_window` a no-op under NVTraverse, so the
    /// traversal window (visited links, new-node contents) is never
    /// written back before the recoverable CAS. A crash after the CAS
    /// persists can then expose a reachable node whose contents were
    /// lost — the flush-on-traverse-exit violation the oracle and the
    /// static verifier must both catch. Never enable outside validation
    /// tests.
    pub lf_bug_skip_window_flush: bool,
    /// **Deliberate bug injection** (lock-free oracle self-test only): in
    /// `rt.lf_cas_publish`, close the descriptor as done-taken *without*
    /// first writing back the CAS target cell. This breaks
    /// persist-before-escape: the durable success counter can then claim
    /// an install that a crash reverts. Never enable outside validation
    /// tests.
    pub lf_bug_skip_publish: bool,
    /// Execution engine (see [`ExecTier`]).
    pub tier: ExecTier,
    /// **Deliberate bug injection** (differential-harness self-test only):
    /// in the tier-2 store superinstruction under iDO, drop the tracked
    /// store address after the scheme store — the mis-fused store+clwb pair
    /// never gets its clwb at the next region boundary. The cross-tier
    /// harness and the crash oracle must both catch this. Never enable
    /// outside harness validation tests.
    pub tier2_bug_misfuse_store_clwb: bool,
    /// NVThreads page size in bytes.
    pub page_bytes: usize,
    /// NVThreads cost of the copy-on-write page copy at first touch.
    pub page_copy_ns: u64,
    /// NVThreads cost of writing one dirty page to the redo log at commit.
    pub page_log_ns: u64,
    /// Persistent-heap allocator policy (see [`AllocPolicy`]). The default
    /// [`AllocPolicy::Legacy`] keeps the historical layout and event
    /// sequences that the trace goldens pin.
    pub alloc: AllocPolicy,
    /// Maximum number of threads this VM can host. Sizes the persistent
    /// thread registry, so it shifts heap addresses: leave it at the
    /// default ([`MAX_THREADS`]) unless a sweep needs more than 128
    /// threads.
    pub max_threads: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            pool: PoolConfig::default(),
            seed: 42,
            sched: SchedPolicy::Random,
            stack_bytes: 16 << 10,
            log_entries: 1 << 14,
            inst_cost_ns: 1,
            lock_cost_ns: 20,
            atlas_tracking_ns: 500,
            justdo_mem_tax_ns: 12,
            atlas_rt_serial_ns: 120,
            ido_eager_step2_fence: false,
            ido_unmerged_acquire_fence: false,
            ido_no_coalescing: false,
            ido_bug_skip_store_flush: false,
            lf_bug_skip_window_flush: false,
            lf_bug_skip_publish: false,
            tier: ExecTier::Tier1,
            tier2_bug_misfuse_store_clwb: false,
            page_bytes: 4096,
            page_copy_ns: 1200,
            page_log_ns: 2500,
            alloc: AllocPolicy::default(),
            max_threads: MAX_THREADS,
        }
    }
}

impl VmConfig {
    /// A small, zero-latency config for unit tests.
    pub fn for_tests() -> Self {
        Self {
            pool: PoolConfig::small_for_tests(),
            log_entries: 512,
            stack_bytes: 4 << 10,
            ..Self::default()
        }
    }
}

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Eligible to run.
    Runnable,
    /// Waiting on a lock.
    Blocked(u64),
    /// Finished (returned from its entry function or completed recovery).
    Done,
    /// Stopped at an instruction it could not execute; its pc stays there.
    Faulted(FaultKind),
}

/// Why a thread faulted: a guest error the VM reports as a value
/// ([`RunOutcome::Fault`]) rather than a host panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `nv_malloc` could not allocate `size` bytes.
    AllocFailed {
        /// The requested size in bytes.
        size: u64,
    },
    /// `nv_free` of an address that is not a live allocation.
    FreeFailed {
        /// The address freed.
        addr: u64,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::AllocFailed { size } => write!(f, "nv_malloc of {size} bytes failed"),
            FaultKind::FreeFailed { addr } => write!(f, "nv_free of {addr:#x} failed"),
        }
    }
}

/// One call frame.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) pc: Pc,
    pub(crate) regs: Vec<u64>,
    /// Pool address of this frame's slot 0.
    pub(crate) stack_base: PAddr,
    /// Register in the *caller's* frame receiving the return value.
    pub(crate) ret_reg: Option<Reg>,
}

/// Untracked reads, for `Rt` ops: iDO's go through `RegTracking::eval`.
impl Frame {
    #[inline]
    pub(crate) fn eval(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[r.id as usize],
            Operand::Imm(v) => v as u64,
        }
    }

    #[inline]
    pub(crate) fn slot_addr(&self, slot: StackSlot) -> PAddr {
        self.stack_base + slot.0 as usize * 8
    }

    /// The address the store after an `rt.store_record` is about to write.
    #[inline]
    pub(crate) fn target_addr(&self, target: StoreTarget) -> PAddr {
        match target {
            StoreTarget::Heap { base, offset } => mem_addr(self.regs[base.id as usize], offset),
            StoreTarget::Stack(slot) => self.slot_addr(slot),
        }
    }
}

/// Per-thread execution context.
pub(crate) struct ThreadCtx {
    id: ThreadId,
    pub(crate) handle: PmemHandle,
    /// The running frame: a register is `frame.regs[id]`, one index away.
    /// A finished thread keeps its last frame.
    pub(crate) frame: Frame,
    /// The suspended callers, innermost last.
    callers: Vec<Frame>,
    pub(crate) status: Status,
    /// True for threads created by the recovery procedure: lock operations
    /// become idempotent and the thread halts after its FASE completes.
    pub(crate) recovery: bool,
    pub(crate) halt_after_release: bool,
    ret_val: Option<u64>,

    stack_area: PAddr,
    stack_top: usize, // byte offset within the stack area

    /// Everything a scheme keeps per thread, iDO's register tracking
    /// included; lent to the scheme's entry points beside the fields above.
    pub(crate) scheme: SchemeState,
}

impl ThreadCtx {
    /// The scheduler's view of this thread, `idx` being its position in
    /// `Vm::threads` (see [`crate::sched`]).
    ///
    /// # Panics
    /// Panics, naming the thread, if its clock left the scheduler's range
    /// — runnable or not, so no step ends with a clock out of range.
    #[inline]
    pub(crate) fn ready_key(&self, idx: usize) -> u64 {
        let key = sched::pack(self.handle.clock_ns(), idx);
        if self.status == Status::Runnable {
            key
        } else {
            NOT_READY
        }
    }

    #[inline]
    fn read_reg(&mut self, r: Reg) -> u64 {
        if let Some(regs) = self.scheme.ido_regs() {
            regs.read(r);
        }
        self.frame.regs[r.id as usize]
    }

    #[inline]
    fn write_reg(&mut self, r: Reg, v: u64) {
        if let Some(regs) = self.scheme.ido_regs() {
            regs.write(r);
        }
        self.frame.regs[r.id as usize] = v;
    }

    #[inline]
    fn eval(&mut self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.read_reg(r),
            Operand::Imm(v) => v as u64,
        }
    }

    /// Thread `t` (its position in `Vm::threads`) is done.
    fn finish(&mut self, t: usize) {
        self.status = Status::Done;
        self.handle.observe(EventKind::ThreadDone, t as u64, 0);
    }

    /// A recovery thread halts once its FASE has released its locks.
    fn halt_if_released(&mut self, t: usize) {
        if self.halt_after_release {
            self.halt_after_release = false;
            self.finish(t);
        }
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("status", &self.status)
            .field("depth", &(self.callers.len() + 1))
            .finish()
    }
}

/// Outcome of a (partial) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every thread reached `Done`.
    Completed,
    /// The step budget was exhausted first.
    Paused,
    /// No thread is runnable but not all are done (deadlock).
    Deadlocked,
    /// Thread `thread` faulted at `pc`. The run stops there, and every
    /// later [`Vm::run_steps`] returns the same fault.
    Fault {
        /// The faulting thread.
        thread: ThreadId,
        /// The instruction it could not execute.
        pc: Pc,
        /// What went wrong.
        kind: FaultKind,
    },
}

/// Snapshot passed to a [`StepHook`] after each executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Number of instructions executed so far (1-based: the first executed
    /// instruction reports `step == 1`, matching [`Vm::steps`]).
    pub step: u64,
    /// The thread that executed this step.
    pub thread: ThreadId,
    /// The pool's cumulative persist-event count *after* this step (see
    /// [`ido_nvm::PmemPool::persist_event_count`]). Two steps with equal
    /// counts are crash-equivalent: no store/clwb/sfence happened between
    /// them, so a crash after either sees the same NVM state.
    pub persist_events: u64,
}

/// A [`StepHook`]'s verdict after each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Keep executing.
    Continue,
    /// Stop now; [`Vm::run_steps`] returns [`RunOutcome::Paused`] with all
    /// VM state intact, so the caller can crash or inspect at exactly this
    /// step.
    Pause,
}

/// Callback invoked after every executed instruction (see
/// [`Vm::set_step_hook`]). Used by the crash oracle to pause the VM
/// deterministically at chosen persist boundaries.
pub type StepHook = Box<dyn FnMut(StepInfo) -> StepControl>;

/// The virtual machine.
///
/// A VM drives one pool and, like the pool, never leaves the host thread
/// that built it (parallel sweeps build one VM per worker):
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<ido_vm::Vm>();
/// ```
///
/// ```compile_fail,E0277
/// fn sync<T: Sync>() {}
/// sync::<ido_vm::Vm>();
/// ```
pub struct Vm {
    pool: PmemPool,
    alloc: NvAllocator,
    roots: RootTable,
    program: Program,
    /// `program.decoded()`: flat per-function instruction streams, decoded
    /// once per program value and shared with every other VM built from a
    /// clone of it; the step loops fetch from here by reference, borrowing
    /// it next to the running thread.
    code: Arc<DecodedProgram>,
    /// The tier-2 block-compiled form, built at construction only when
    /// `config.tier == ExecTier::Tier2` (the crash oracle constructs many
    /// short-lived tier-1 VMs; they skip the compile entirely).
    t2: Option<Arc<Tier2Program>>,
    scheme: Scheme,
    config: VmConfig,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) locks: LockTable,
    /// Ready keys of `threads` and the current pick's run-ahead bound;
    /// rebuilt on every `run_steps` entry.
    sched: Sched,
    rng: u64,
    pub(crate) max_regs: u32,
    registry: Registry,
    /// What the scheme keeps per VM (see [`crate::scheme`]).
    shared: Shared,
    steps: u64,
    step_hook: Option<StepHook>,
    /// The [`RunOutcome::Fault`] that stopped the run, if one did.
    fault: Option<RunOutcome>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("scheme", &self.scheme)
            .field("threads", &self.threads.len())
            .field("steps", &self.steps)
            .finish()
    }
}

impl Vm {
    /// Creates a VM over a freshly formatted pool.
    pub fn new(instrumented: Instrumented, config: VmConfig) -> Vm {
        let pool = PmemPool::new(config.pool.clone());
        let mut h = pool.handle();
        let roots = RootTable::format(&mut h);
        let alloc = NvAllocator::format_with(&mut h, pool.size(), config.alloc);
        let bytes = Registry::size_for(config.max_threads);
        let registry = Registry { base: alloc.alloc(&mut h, bytes).expect("registry allocation") };
        h.write_u64(registry.base, 0);
        h.persist(registry.base, 8);
        roots.set_root(&mut h, THREADS_ROOT, registry.base).expect("registry root");
        let shared = Shared::open(instrumented.scheme, &mut h, &roots, &config, Some(&alloc));
        roots.mark_in_use(&mut h);
        Vm::assemble(pool, alloc, roots, registry, shared, instrumented, config)
    }

    /// Attaches to an existing (typically crashed) pool. Used by recovery.
    pub fn attach(pool: PmemPool, instrumented: Instrumented, config: VmConfig) -> Vm {
        let mut h = pool.handle();
        let roots = RootTable::attach(&mut h).expect("pool must be formatted");
        let alloc = NvAllocator::attach_with(&mut h, config.alloc);
        let registry = Registry::open(&mut h).expect("thread registry root");
        let shared = Shared::open(instrumented.scheme, &mut h, &roots, &config, None);
        Vm::assemble(pool, alloc, roots, registry, shared, instrumented, config)
    }

    /// A VM at step 0 with no threads over an opened pool.
    fn assemble(
        pool: PmemPool,
        alloc: NvAllocator,
        roots: RootTable,
        registry: Registry,
        shared: Shared,
        instrumented: Instrumented,
        config: VmConfig,
    ) -> Vm {
        let code = instrumented.program.decoded();
        let t2 = (config.tier == ExecTier::Tier2)
            .then(|| Arc::new(Tier2Program::compile(&instrumented.program)));
        Vm {
            pool,
            alloc,
            roots,
            max_regs: code.max_regs(),
            code,
            t2,
            program: instrumented.program,
            scheme: instrumented.scheme,
            threads: Vec::new(),
            locks: LockTable::new(),
            sched: Sched::new(config.max_threads),
            rng: config.seed | 1,
            config,
            registry,
            shared,
            steps: 0,
            step_hook: None,
            fault: None,
        }
    }

    /// The underlying pool (shared; cheap to clone).
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// The scheme this VM executes.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The persistent CAS descriptor table — `Some` exactly for the
    /// lock-free scheme family. Workload verification reads per-thread
    /// durable success counters through it.
    pub fn lf_state(&self) -> Option<LfState> {
        self.shared.lf_state()
    }

    /// Total instructions executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Scheduler picks made so far — one per hand-off, not per step, so
    /// `steps() / sched_picks()` is the mean run-ahead length.
    pub fn sched_picks(&self) -> u64 {
        self.sched.picks()
    }

    /// Maximum simulated thread clock, in ns.
    pub fn max_clock_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.handle.clock_ns()).max().unwrap_or(0)
    }

    /// Runs `f` with direct pool access for building initial persistent
    /// state (data structures, roots) before spawning threads.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut PmemHandle, &NvAllocator, &RootTable) -> T) -> T {
        let mut h = self.pool.handle();
        let r = f(&mut h, &self.alloc, &self.roots);
        h.merge_stats();
        r
    }

    /// Spawns a thread executing `func(args...)`.
    ///
    /// # Panics
    /// Panics if the function does not exist, the argument count is wrong,
    /// or the thread limit is reached.
    pub fn spawn(&mut self, func: &str, args: &[u64]) -> ThreadId {
        let fid = self.program.find(func).unwrap_or_else(|| panic!("no function `{func}`"));
        let f = self.program.function(fid);
        assert_eq!(f.params().len(), args.len(), "argument count mismatch for `{func}`");
        assert!(self.threads.len() < self.config.max_threads, "thread limit reached");

        // Every scheme's areas, under every scheme: `benchmark/` pins these
        // allocations, stores and write-backs (ROADMAP item 1).
        let idx = self.threads.len();
        let mut h = self.thread_handle(idx);
        let mut area = |bytes: usize, what: &str| {
            self.alloc.alloc(&mut h, bytes).unwrap_or_else(|e| panic!("{what} alloc: {e:?}"))
        };
        let areas = RegistryEntry {
            ido: area(ResumeLog::ido(0, self.max_regs).size(), "ido log"),
            justdo: area(ResumeLog::justdo(0, self.max_regs).size(), "justdo log"),
            append: area(AppendLogLayout::size_for(self.config.log_entries), "append log"),
            stack: area(self.config.stack_bytes, "stack"),
        };

        // Zero-initialize the control words durably.
        for addr in [areas.ido, areas.justdo, areas.append] {
            for w in 0..8 {
                h.write_u64(addr + w * 8, 0);
            }
            h.persist(addr, 64);
        }
        areas.append_log(self.config.log_entries).reset(&mut h);
        self.registry.publish(&mut h, idx, areas);

        let mut regs = vec![0u64; f.num_regs() as usize];
        regs[..args.len()].copy_from_slice(args);
        let slots = f.num_stack_slots() as usize * 8;
        assert!(slots <= self.config.stack_bytes, "frame larger than stack");
        let entry = Pc { func: fid, block: BlockId(0), index: 0 };
        let frame = Frame { func: fid, pc: entry, regs, stack_base: areas.stack, ret_reg: None };
        let mut ctx = self.new_thread(idx, h, areas, frame, None);
        if let Some(regs) = ctx.scheme.ido_regs() {
            regs.params(args.len());
        }
        self.threads.push(ctx);
        ThreadId(idx)
    }

    /// A handle for the thread at index `idx`, on its allocator shard.
    pub(crate) fn thread_handle(&self, idx: usize) -> PmemHandle {
        let mut h = self.pool.handle();
        h.set_shard(idx as u32);
        h
    }

    /// The context of a thread about to execute `frame` over `areas`;
    /// `resuming` marks a recovery thread and names the `(slot, lock)`
    /// records its interrupted FASE holds. The caller pushes it onto
    /// `threads` (the scheduler re-reads them on the next `run_steps`).
    pub(crate) fn new_thread(
        &self,
        idx: usize,
        handle: PmemHandle,
        areas: RegistryEntry,
        frame: Frame,
        resuming: Option<&[(usize, u64)]>,
    ) -> ThreadCtx {
        let slots = self.program.function(frame.func).num_stack_slots() as usize * 8;
        ThreadCtx {
            id: ThreadId(idx),
            handle,
            status: Status::Runnable,
            recovery: resuming.is_some(),
            halt_after_release: false,
            ret_val: None,
            stack_area: areas.stack,
            stack_top: (frame.stack_base - areas.stack) + slots,
            frame,
            callers: Vec::new(),
            scheme: scheme::new_thread(
                self.scheme,
                &areas,
                self.max_regs,
                &self.config,
                resuming.unwrap_or_default(),
            ),
        }
    }

    /// The return value of a completed thread.
    pub fn return_value(&self, t: ThreadId) -> Option<u64> {
        self.threads[t.0].ret_val
    }

    /// The status of a thread.
    pub fn status(&self, t: ThreadId) -> Status {
        self.threads[t.0].status
    }

    /// One scheduler pick (shared by both tiers, so the schedule is
    /// tier-independent by construction): the thread to run, and whether
    /// it is the sole runnable thread under Random. How long the pick may
    /// run ahead is `self.sched.limit()`.
    fn pick(&mut self) -> Option<(usize, bool)> {
        match self.config.sched {
            SchedPolicy::Random => self.sched.pick_random(&mut self.rng),
            SchedPolicy::MinClock => self.sched.pick_min_clock().map(|p| (p, false)),
        }
    }

    /// The pre-scheduler pick, kept as the reference the equivalence tests
    /// compare against: a scan over the threads themselves before every
    /// step — Random indexes the runnable threads in thread order with one
    /// RNG word, MinClock takes the `(clock, index)`-minimal one.
    #[cfg(test)]
    fn pick_reference(&mut self) -> Option<usize> {
        let runnable = || {
            self.threads.iter().enumerate().filter(|(_, t)| t.status == Status::Runnable)
        };
        match self.config.sched {
            SchedPolicy::Random => {
                let n = runnable().count();
                if n == 0 {
                    return None;
                }
                let k = (crate::sched::next_rng(&mut self.rng) % n as u64) as usize;
                runnable().nth(k).map(|(i, _)| i)
            }
            SchedPolicy::MinClock => {
                runnable().min_by_key(|(i, t)| (t.handle.clock_ns(), *i)).map(|(i, _)| i)
            }
        }
    }

    /// [`Vm::run_steps`] on the reference scheduler: one
    /// [`Vm::pick_reference`] per tier-1 step, no key array, no run-ahead.
    #[cfg(test)]
    fn run_steps_reference(&mut self, budget: u64) -> RunOutcome {
        // Unused by the reference picks; sized so `wake` can index it.
        self.rebuild_sched();
        for _ in 0..budget {
            let Some(pick) = self.pick_reference() else {
                return self.stalled_outcome();
            };
            self.step_thread(pick);
            self.steps += 1;
            if let Status::Faulted(_) = self.threads[pick].status {
                return self.fault_at(pick);
            }
            if self.fire_hook(pick) == StepControl::Pause {
                return RunOutcome::Paused;
            }
        }
        self.budget_outcome()
    }

    /// Re-reads every thread's key: spawns, recovery drivers and the oracle
    /// change `threads` between `run_steps` calls; inside the step loops
    /// only the stepper and wakes do.
    fn rebuild_sched(&mut self) {
        self.sched.rebuild(self.threads.iter().enumerate().map(|(i, t)| t.ready_key(i)));
    }

    /// Publishes the key of the current pick `t` — once per hand-off, after
    /// the hand-off's wake — and returns whether `t` is still the
    /// scheduler's choice (its key below the run-ahead limit, which the
    /// wake may have lowered).
    #[inline]
    fn publish_key(&mut self, t: usize) -> bool {
        let key = self.threads[t].ready_key(t);
        self.sched.set(t, key);
        key < self.sched.limit_key()
    }

    /// Fires the step hook (if installed) for the step just executed by
    /// thread `pick`; returns the hook's verdict.
    fn fire_hook(&mut self, pick: usize) -> StepControl {
        fire(&mut self.step_hook, self.steps, pick, &self.pool)
    }

    /// Executes up to `budget` *more* instructions — a relative budget,
    /// not an absolute step count: two `run_steps(n)` calls execute `2n`
    /// steps. Returns when the budget is exhausted, all threads are done,
    /// or no thread can run.
    pub fn run_steps(&mut self, budget: u64) -> RunOutcome {
        if let Some(fault) = self.fault {
            return fault;
        }
        self.rebuild_sched();
        match self.config.tier {
            ExecTier::Tier1 => self.run_steps_tier1(budget),
            ExecTier::Tier2 => self.run_steps_tier2(budget),
        }
    }

    fn run_steps_tier1(&mut self, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        while remaining > 0 {
            let Some((pick, _)) = self.pick() else {
                return self.stalled_outcome();
            };
            // Run-ahead: `pick` keeps running, with no rescan, while the
            // per-step scan would have chosen it again (DESIGN.md §7.4). A
            // hand-off ends a `run_pick` so that its wake can be applied;
            // the pick may still be the choice afterwards.
            loop {
                let ran = self.run_pick(pick, remaining);
                if ran.faulted {
                    return self.fault_at(pick);
                }
                remaining -= ran.executed;
                if let Some(woken) = ran.woken {
                    self.wake(pick, woken);
                }
                let stays = self.publish_key(pick);
                if ran.paused || self.fire_hook(pick) == StepControl::Pause {
                    return RunOutcome::Paused;
                }
                if remaining == 0 || !stays {
                    break;
                }
            }
        }
        self.budget_outcome()
    }

    /// Runs `pick`, the scheduler's choice, for at most `budget` (≥ 1)
    /// steps: one loop over one borrowed thread, which stops where tier 2's
    /// segment gate does — budget spent, the thread no longer runnable, its
    /// clock at the run-ahead limit — or at a lock hand-off, whose wake
    /// needs a second thread. The hook fires after every step but the
    /// last; the caller fires it for the last one once the key is published
    /// (DESIGN.md §7.6).
    fn run_pick(&mut self, pick: usize, budget: u64) -> PickRun {
        // `key >= limit_key` in the clock domain. Never above
        // `MAX_CLOCK_NS + 1`, so a clock that left the range ends the pick
        // and the caller's `publish_key` names the failure before any hook
        // sees that step.
        let limit = self.sched.limit();
        let Vm {
            ref mut threads,
            ref mut locks,
            ref mut shared,
            ref alloc,
            ref config,
            ref code,
            ref mut step_hook,
            ref pool,
            ref mut steps,
            ..
        } = *self;
        let th = &mut threads[pick];
        let mut cx = Cx { locks, shared, alloc, config, code };
        let mut executed = 0;
        loop {
            let pc = th.frame.pc;
            // Borrowed from the decoded stream, never cloned (§7.1).
            let inst: &DecodedInst = code.function(pc.func).inst_at(pc);
            let woken = exec(pick, th, &mut cx, pc, inst);
            executed += 1;
            *steps += 1;
            if executed == budget
                || woken.is_some()
                || th.status != Status::Runnable
                || th.handle.clock_ns() >= limit
            {
                let faulted = matches!(th.status, Status::Faulted(_));
                return PickRun { executed, woken, paused: false, faulted };
            }
            if fire(step_hook, *steps, pick, pool) == StepControl::Pause {
                return PickRun { executed, woken: None, paused: true, faulted: false };
            }
        }
    }

    /// The tier-2 step loop: the scheduler pick and run-ahead are tier 1's,
    /// but where tier 1 executes one instruction the VM executes as many
    /// consecutive instructions of that thread as the policy would have
    /// granted it anyway — a *segment* of fused superinstructions, chained
    /// across blocks. Any pc whose entry is not fusible deopts to one
    /// tier-1 `step_thread` call, so calls, returns, allocation, and every
    /// scheme runtime op run on the reference engine with bit-identical
    /// semantics.
    fn run_steps_tier2(&mut self, budget: u64) -> RunOutcome {
        let t2 =Arc::clone(self.t2.as_ref().expect("tier-2 program compiled at construction"));
        // With a hook installed every dispatch is exactly one step (the
        // oracle pauses between individual steps).
        let hooked = self.step_hook.is_some();
        let min_clock = self.config.sched == SchedPolicy::MinClock;
        let mut remaining = budget;
        while remaining > 0 {
            let Some((pick, sole)) = self.pick() else {
                return self.stalled_outcome();
            };
            // Under Random with other runnable threads, the next pick is a
            // fresh draw: one step. As the sole runnable thread, every
            // tier-1 pick would re-select it but still draw one RNG word
            // per step; the segment burns the same draws.
            let burn_rng = !min_clock && sole;
            let one_step = hooked || !(min_clock || sole);
            loop {
                let th = &self.threads[pick];
                let pc = th.frame.pc;
                // Recovery threads always run on tier 1: their lock
                // semantics (idempotent release, halt-after-release) are
                // deopt paths.
                let entry = if th.recovery {
                    Tier2Entry::Unfused
                } else {
                    t2.function(pc.func).entry_at(pc)
                };
                // Under MinClock the segment may run until this thread's
                // clock reaches the run-ahead limit; under either policy it
                // stops at the first clock outside the scheduler's range,
                // which the `publish_key` below turns into the named failure.
                let clock_limit = if min_clock { self.sched.limit() } else { MAX_CLOCK_NS + 1 };
                // The segment gate charges the scheme's per-step tax into
                // its pending work *before* re-checking the clock limit, so
                // a taxed thread whose clock is within one tax of the limit
                // also gets exactly one step.
                let tax = scheme::step_tax(&th.scheme, &self.config);
                let fused = match entry {
                    Tier2Entry::Unfused => None,
                    // Short-segment fast path: when the gate could only
                    // admit a single step anyway, the segment's setup and
                    // teardown cost more than it fuses — that one step
                    // runs on the tier-1 stepper, which is observationally
                    // identical for a single instruction. Never taken with
                    // a hook installed: the oracle must crash genuine
                    // tier-2 machine states.
                    _ if !hooked
                        && !burn_rng
                        && (one_step || th.handle.clock_ns() + tax >= clock_limit) =>
                    {
                        None
                    }
                    Tier2Entry::Op { seg, op } => Some((seg, op, false)),
                    Tier2Entry::BranchHalf { seg, op } => Some((seg, op, true)),
                };
                let executed = match fused {
                    // Only a tier-1 step can fault: allocation never fuses.
                    None => {
                        self.step_thread(pick);
                        if let Status::Faulted(_) = self.threads[pick].status {
                            self.steps += 1;
                            return self.fault_at(pick);
                        }
                        1
                    }
                    Some((seg, op, branch_half)) => {
                        let max_steps = if one_step { 1 } else { remaining };
                        let Vm { ref mut threads, ref mut locks, ref config, ref mut rng, .. } =
                            *self;
                        let run = tier2::exec_segment(
                            pick,
                            &mut threads[pick],
                            locks,
                            config,
                            t2.function(pc.func),
                            tier2::SegEntry { seg, op, branch_half },
                            pc.block,
                            tier2::SegLimits {
                                max_steps,
                                clock_limit,
                                rng: burn_rng.then_some(rng),
                            },
                        );
                        debug_assert!(run.executed >= 1 && run.executed <= max_steps);
                        if let tier2::SegExit::Wake(woken) = run.exit {
                            self.wake(pick, woken);
                        }
                        run.executed
                    }
                };
                self.steps += executed;
                remaining -= executed;
                let stays = self.publish_key(pick);
                if self.fire_hook(pick) == StepControl::Pause {
                    return RunOutcome::Paused;
                }
                if remaining == 0 || !stays {
                    break;
                }
            }
        }
        self.budget_outcome()
    }

    /// Ends the run with the fault of thread `t`, which just faulted: it is
    /// kept, so every later [`Vm::run_steps`] returns it too. The step hook
    /// does not see a faulting step.
    #[cold]
    fn fault_at(&mut self, t: usize) -> RunOutcome {
        let th = &self.threads[t];
        let Status::Faulted(kind) = th.status else {
            unreachable!("thread {t} did not fault");
        };
        let fault = RunOutcome::Fault { thread: ThreadId(t), pc: th.frame.pc, kind };
        self.fault = Some(fault);
        fault
    }

    /// The outcome when the step budget ran out.
    fn budget_outcome(&self) -> RunOutcome {
        if self.threads.iter().all(|t| t.status == Status::Done) {
            RunOutcome::Completed
        } else {
            RunOutcome::Paused
        }
    }

    /// The outcome when no thread is runnable.
    fn stalled_outcome(&self) -> RunOutcome {
        if self.threads.iter().all(|t| t.status == Status::Done) {
            RunOutcome::Completed
        } else {
            RunOutcome::Deadlocked
        }
    }

    /// Runs until every thread completes (or deadlock), with a generous
    /// safety budget.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            match self.run_steps(1 << 20) {
                RunOutcome::Paused => continue,
                done => return done,
            }
        }
    }

    /// Simulates a crash: discards all transient state (threads, locks) and
    /// applies the pool's crash policy. Returns the pool for recovery.
    pub fn crash(self, seed: u64) -> PmemPool {
        drop(self.threads); // handles merge their stats on drop
        self.pool.crash(seed);
        self.pool
    }

    /// Like [`Vm::crash`], but applies `policy` instead of the pool's
    /// configured crash policy. The crash oracle uses this with
    /// [`ido_nvm::CrashPolicy::Subset`] to lose one explicit set of dirty
    /// lines per explored crash state.
    pub fn crash_with(self, seed: u64, policy: &ido_nvm::CrashPolicy) -> PmemPool {
        drop(self.threads); // handles merge their stats on drop
        self.pool.crash_with(seed, policy);
        self.pool
    }

    /// Installs `hook`, called after every executed instruction; returning
    /// [`StepControl::Pause`] stops execution at exactly that step. Replaces
    /// any previous hook. The hook is *not* part of the replay identity: the
    /// scheduler's RNG never observes it, so a run paused by a hook and
    /// resumed (or re-run to the same step count on a fresh VM with the same
    /// config, program, and spawn order) executes the identical schedule.
    pub fn set_step_hook(&mut self, hook: StepHook) {
        self.step_hook = Some(hook);
    }

    // ------------------------------------------------------------------
    // Instruction execution
    // ------------------------------------------------------------------

    /// One step of thread `t` outside a pick loop — tier 2's deopt path and
    /// the reference scheduler: the same [`exec`], its wake applied at once.
    fn step_thread(&mut self, t: usize) {
        let Vm {
            ref mut threads, ref mut locks, ref mut shared, ref alloc, ref config, ref code, ..
        } = *self;
        let th = &mut threads[t];
        let pc = th.frame.pc;
        let inst: &DecodedInst = code.function(pc.func).inst_at(pc);
        let mut cx = Cx { locks, shared, alloc, config, code };
        if let Some(woken) = exec(t, th, &mut cx, pc, inst) {
            self.wake(t, woken);
        }
    }

    /// Wakes a lock waiter, advancing its clock to the release time so that
    /// contention appears as elapsed simulated time, and tells the scheduler
    /// (the waiter's key changed; the releaser's run-ahead may end).
    fn wake(&mut self, releaser: usize, woken: ThreadId) {
        let release_time = self.threads[releaser].handle.clock_ns();
        let w = &mut self.threads[woken.0];
        if w.handle.clock_ns() < release_time {
            w.handle.set_clock_ns(release_time);
        }
        w.status = Status::Runnable;
        let key = w.ready_key(woken.0);
        self.sched.wake(woken.0, key);
    }
}

/// How one [`Vm::run_pick`] ended.
struct PickRun {
    executed: u64,
    /// The waiter the last step handed a lock to; the caller wakes it.
    woken: Option<ThreadId>,
    /// The hook paused on a step before the last.
    paused: bool,
    /// The last step faulted.
    faulted: bool,
}

/// Calls `hook`, if one is installed, for step `step`, just executed by
/// thread `t`.
#[inline]
fn fire(hook: &mut Option<StepHook>, step: u64, t: usize, pool: &PmemPool) -> StepControl {
    match hook {
        Some(hook) => hook(StepInfo {
            step,
            thread: ThreadId(t),
            persist_events: pool.persist_event_count(),
        }),
        None => StepControl::Continue,
    }
}

/// Everything of the VM one instruction may touch besides its own thread.
struct Cx<'a> {
    locks: &'a mut LockTable,
    shared: &'a mut Shared,
    alloc: &'a NvAllocator,
    config: &'a VmConfig,
    code: &'a DecodedProgram,
}

/// Executes `inst`, at `pc`, as thread `t`: the one definition of each
/// instruction's tier-1 semantics. Its only effect on another thread is a
/// lock hand-off, returned as the waiter to wake, which the caller applies
/// once `th` is no longer borrowed. The arms that make up most steps are
/// inlined here; every other one is a single outlined call (DESIGN.md §7.6).
#[inline(always)]
fn exec(
    t: usize,
    th: &mut ThreadCtx,
    cx: &mut Cx<'_>,
    pc: Pc,
    inst: &DecodedInst,
) -> Option<ThreadId> {
    let tax = scheme::step_tax(&th.scheme, cx.config);
    if tax > 0 {
        th.handle.advance_as(Category::Log, tax);
    }
    match *inst {
        Inst::Mov { dst, src } => {
            let v = th.eval(src);
            th.handle.advance(cx.config.inst_cost_ns);
            th.write_reg(dst, v);
        }
        Inst::Bin { op, dst, a, b } => {
            let x = th.eval(a);
            let y = th.eval(b);
            th.handle.advance(cx.config.inst_cost_ns);
            th.write_reg(dst, eval_binop(op, x, y));
        }
        Inst::Load { dst, base, offset } => {
            let addr = mem_addr(th.read_reg(base), offset);
            let v = scheme::load(&mut th.scheme, &mut th.handle, addr);
            th.write_reg(dst, v);
        }
        Inst::Store { base, offset, src } => {
            let addr = mem_addr(th.read_reg(base), offset);
            let v = th.eval(src);
            scheme::store(&mut th.scheme, &mut th.handle, addr, v);
        }
        Inst::Jump { target } => {
            th.handle.advance(cx.config.inst_cost_ns);
            th.frame.pc = Pc { block: target, index: 0, ..pc };
            return None;
        }
        Inst::Branch { cond, then_bb, else_bb } => {
            let c = th.eval(cond);
            th.handle.advance(cx.config.inst_cost_ns);
            th.frame.pc = Pc { block: if c != 0 { then_bb } else { else_bb }, index: 0, ..pc };
            return None;
        }
        _ => return exec_cold(t, th, cx, pc, inst),
    }
    th.frame.pc.index += 1;
    None
}

/// The arms [`exec`] keeps out of the pick loop.
#[inline(never)]
fn exec_cold(
    t: usize,
    th: &mut ThreadCtx,
    cx: &mut Cx<'_>,
    pc: Pc,
    inst: &DecodedInst,
) -> Option<ThreadId> {
    let mut woken = None;
    match inst {
        Inst::Mov { .. }
        | Inst::Bin { .. }
        | Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Jump { .. }
        | Inst::Branch { .. } => unreachable!("`exec` runs its hot arms inline"),
        &Inst::LoadStack { dst, slot } => {
            let addr = th.frame.slot_addr(slot);
            let v = scheme::load(&mut th.scheme, &mut th.handle, addr);
            th.write_reg(dst, v);
        }
        &Inst::StoreStack { slot, src } => {
            let v = th.eval(src);
            let addr = th.frame.slot_addr(slot);
            scheme::store(&mut th.scheme, &mut th.handle, addr, v);
        }
        &Inst::Alloc { dst, size } => {
            let sz = th.eval(size) as usize;
            let Ok(addr) = cx.alloc.alloc(&mut th.handle, sz) else {
                th.status = Status::Faulted(FaultKind::AllocFailed { size: sz as u64 });
                return None;
            };
            th.write_reg(dst, addr as u64);
        }
        &Inst::Free { base } => {
            let addr = th.read_reg(base) as usize;
            if cx.alloc.free(&mut th.handle, addr).is_err() {
                th.status = Status::Faulted(FaultKind::FreeFailed { addr: addr as u64 });
                return None;
            }
        }
        &Inst::Lock { lock } => {
            if !scheme::subsumes_program_locks(&th.scheme) {
                let l = th.eval(lock);
                th.handle.advance(cx.config.lock_cost_ns);
                match cx.locks.acquire(l, ThreadId(t)) {
                    Acquire::Granted | Acquire::AlreadyHeld => {
                        th.handle.observe(EventKind::LockAcquire, l, 0);
                    }
                    Acquire::Blocked => {
                        th.status = Status::Blocked(l);
                        // pc stays; re-executes after handoff.
                        return None;
                    }
                }
            }
        }
        &Inst::Unlock { lock } => {
            if !scheme::subsumes_program_locks(&th.scheme) {
                let l = th.eval(lock);
                th.handle.advance(cx.config.lock_cost_ns);
                match cx.locks.release(l, ThreadId(t)) {
                    Ok(next) => {
                        th.handle.observe(EventKind::LockRelease, l, 0);
                        woken = next;
                    }
                    Err(_) => {
                        assert!(th.recovery, "thread {t} released a lock it does not hold");
                    }
                }
                th.frame.pc.index += 1;
                th.halt_if_released(t);
                return woken;
            }
        }
        Inst::DurableBegin | Inst::RegionMarker => {}
        Inst::DurableEnd => {
            th.frame.pc.index += 1;
            th.halt_if_released(t);
            return None;
        }
        &Inst::Call { func, ref args, ret } => {
            // The callee's register file is its frame's own storage.
            let f = cx.code.function(func);
            let mut regs = vec![0u64; f.num_regs() as usize];
            for (i, &a) in args.iter().enumerate() {
                regs[i] = th.eval(a);
            }
            th.handle.advance(cx.config.inst_cost_ns * 2);
            let frame_bytes = f.frame_bytes();
            assert!(
                th.stack_top + frame_bytes <= cx.config.stack_bytes,
                "persistent stack overflow"
            );
            let stack_base = th.stack_area + th.stack_top;
            th.stack_top += frame_bytes;
            // A FASE inside the callee must log its parameters.
            if let Some(regs) = th.scheme.ido_regs() {
                regs.params(args.len());
            }
            // Return to the instruction after the call.
            th.frame.pc.index += 1;
            let entry = Pc { func, block: BlockId(0), index: 0 };
            let callee = Frame { func, pc: entry, regs, stack_base, ret_reg: ret };
            th.callers.push(std::mem::replace(&mut th.frame, callee));
            return None;
        }
        &Inst::Ret { val } => {
            let v = val.map(|o| th.eval(o));
            th.handle.advance(cx.config.inst_cost_ns);
            th.stack_top -= cx.code.function(th.frame.func).frame_bytes();
            match th.callers.pop() {
                Some(caller) => {
                    let callee = std::mem::replace(&mut th.frame, caller);
                    if let (Some(r), Some(v)) = (callee.ret_reg, v) {
                        th.frame.regs[r.id as usize] = v;
                    }
                }
                None => {
                    th.ret_val = v;
                    th.finish(t);
                }
            }
            return None;
        }
        &Inst::OpMark { kind, begin } => {
            // Pure span marker: charges no simulated time so the metrics
            // layer observes the same timeline whether or not workloads
            // annotate their operations.
            let k = th.eval(kind);
            let event = if begin { EventKind::OpBegin } else { EventKind::OpEnd };
            th.handle.observe(event, k, 0);
        }
        &Inst::Delay { ns } => th.handle.advance(ns),
        &Inst::Cas { dst, base, offset, expected, new } => {
            let addr = mem_addr(th.read_reg(base), offset);
            let expected = th.eval(expected);
            let new = th.eval(new);
            th.handle.advance(cx.config.inst_cost_ns);
            let taken =
                scheme::cas(&mut th.scheme, &mut th.handle, cx.shared, t, addr, expected, new);
            th.write_reg(dst, taken as u64);
        }
        Inst::Rt(op) => {
            let recovery = th.recovery;
            let ThreadCtx { handle, frame, status, halt_after_release, scheme: state, .. } = th;
            let (locks, config) = (&mut *cx.locks, cx.config);
            let mut rcx =
                RtCx { t, pc, handle, frame, status, recovery, halt_after_release, locks, config };
            match scheme::rt(&mut rcx, state, cx.shared, op) {
                Effect::Next => {}
                Effect::Stay => return None,
                Effect::Wake(w) => woken = Some(w),
            }
        }
    }
    th.frame.pc.index += 1;
    woken
}

/// A guest address: wraps like the machine's, so an address out of the
/// pool fails in the pool's bounds check, by name.
pub(crate) fn mem_addr(base: u64, offset: i64) -> PAddr {
    base.wrapping_add_signed(offset) as PAddr
}

// Binary-op semantics are shared with the constant folder and tier-2
// lowering via `ido_ir::semantics` — a single definition, so the
// interpreter cannot silently diverge from folded programs. Re-exported
// under the old path for `tier2.rs` and the tests below.
pub(crate) use ido_ir::semantics::eval_binop;

#[cfg(test)]
mod sched_equivalence;

#[cfg(test)]
mod tests;
