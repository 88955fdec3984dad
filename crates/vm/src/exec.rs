//! The interpreter: deterministic multi-threaded execution of instrumented
//! programs over simulated NVM, with per-scheme runtime semantics.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ido_compiler::{Instrumented, Scheme};
use ido_ir::{
    BlockId, DecodedInst, DecodedProgram, FuncId, Inst, Operand, Pc, Program, Reg, RtOp,
    StackSlot, Tier2Entry, Tier2Program,
};
#[cfg(test)]
use ido_ir::BinOp;
use ido_lockfree::{
    encode_tag, tag_owner, tag_seq, LfState, CELL_TAG, DESC_DONE, DESC_EXPECTED, DESC_NEW,
    DESC_SEQ, DESC_STATE, DESC_SUPER, DESC_TARGET, STATE_DONE_EMPTY, STATE_DONE_TAKEN,
    STATE_INFLIGHT,
};
use ido_nvm::alloc::{AllocPolicy, NvAllocator};
use ido_nvm::root::RootTable;
use ido_nvm::{PmemHandle, PmemPool, PoolConfig, PAddr};
use ido_trace::{Category, EventKind};

use crate::bitset::RegBitset;
use crate::layout::{
    encode_pc, AppendLogLayout, IdoLogLayout, JustDoLogLayout, LogEntryKind, LOCK_ARRAY_SLOTS,
};
use crate::locks::{Acquire, LockTable, ThreadId};
use crate::profile::Profile;
use crate::sched::{self, Sched, MAX_CLOCK_NS, NOT_READY};
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

/// Per-thread execution context.
pub(crate) struct ThreadCtx {
    id: ThreadId,
    pub(crate) handle: PmemHandle,
    pub(crate) frames: Vec<Frame>,
    pub(crate) status: Status,
    /// True for threads created by the recovery procedure: lock operations
    /// become idempotent and the thread halts after its FASE completes.
    pub(crate) recovery: bool,
    pub(crate) halt_after_release: bool,
    ret_val: Option<u64>,

    // Persistent structures.
    pub(crate) ido_log: IdoLogLayout,
    pub(crate) jd_log: JustDoLogLayout,
    pub(crate) app_log: AppendLogLayout,
    stack_area: PAddr,
    stack_top: usize, // byte offset within the stack area

    // Volatile scheme state. The tracking sets are hot-path structures:
    // the register sets are fixed-capacity bitsets (O(1) insert/test, no
    // allocation), and the store-address sets are plain accumulators that
    // are sorted + deduped only when drained to the log, which reproduces
    // the old `BTreeSet` ascending flush order exactly (see DESIGN.md §7).
    /// Boxed: 1 KiB touched only by lock-record `Rt` ops and recovery,
    /// kept off the struct the step loop switches between.
    lock_slots: Box<[Option<u64>; LOCK_ARRAY_SLOTS]>,
    pub(crate) region_stores: Vec<PAddr>,
    pub(crate) dirty_regs: RegBitset,
    pub(crate) written_regs: RegBitset,
    pub(crate) read_before_write: RegBitset,
    pub(crate) stores_since_boundary: u64,
    pub(crate) fase_store_addrs: Vec<PAddr>,
    pub(crate) in_tx: bool,
    pub(crate) fase_active: bool,
    /// iDO lazy step-2 fence: the recovery_pc write-back has been issued
    /// but not yet fenced. It must drain before the next persistent store
    /// executes (or at the next fence, whichever comes first).
    pub(crate) pc_fence_pending: bool,
    /// NVTraverse only: persistent *loads* also join the flush window
    /// (`region_stores`), because a recoverable CAS may depend on a link
    /// value that is itself not yet persisted — the window must cover the
    /// whole journey, reads included, before the critical write.
    pub(crate) lf_track_loads: bool,
    /// Commit drains sort by address, so an unordered map is safe here.
    pub(crate) tx_write_set: HashMap<PAddr, u64>,
    pub(crate) mn_cursor: usize,
    dirty_pages: HashSet<usize>,
    nvml_added: HashSet<PAddr>,
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
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("status", &self.status)
            .field("frames", &self.frames.len())
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
pub struct Vm {
    pool: PmemPool,
    alloc: NvAllocator,
    roots: RootTable,
    program: Program,
    /// The program decoded once at construction into flat per-function
    /// instruction streams; `step_thread` fetches from here by reference.
    /// Behind an `Arc` so `run_steps` can hold the stream across the step
    /// loop while `&mut self` executes instructions.
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
    stamp: u64,
    lock_release_stamps: HashMap<u64, u64>,
    /// DES availability time of Atlas's internal runtime synchronization
    /// (global dependence-tracking tables). Lock-tracking events serialize
    /// on it, which is what saturates Atlas on scalable structures
    /// (Section V-B: "Atlas and Mnemosyne quickly saturate their runtime's
    /// synchronization").
    atlas_rt_available: u64,
    max_regs: u32,
    registry: PAddr,
    /// The persistent CAS descriptor table — present exactly for the
    /// lock-free scheme family ([`Scheme::is_lockfree`]).
    lf_state: Option<LfState>,
    profile: Profile,
    steps: u64,
    step_hook: Option<StepHook>,
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
        let code = Arc::new(DecodedProgram::decode(&instrumented.program));
        let t2 = (config.tier == ExecTier::Tier2)
            .then(|| Arc::new(Tier2Program::compile(&instrumented.program)));
        let mut vm = Vm {
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
            stamp: 1,
            lock_release_stamps: HashMap::new(),
            atlas_rt_available: 0,
            registry: 0,
            lf_state: None,
            profile: Profile::new(),
            steps: 0,
            step_hook: None,
        };
        // Thread registry: [count][entries: 4 words each].
        let bytes = 8 + vm.config.max_threads * 32;
        let registry = vm.alloc.alloc(&mut h, bytes).expect("registry allocation");
        h.write_u64(registry, 0);
        h.persist(registry, 8);
        vm.roots.set_root(&mut h, THREADS_ROOT, registry).expect("registry root");
        vm.registry = registry;
        // Lock-free schemes additionally publish the persistent CAS
        // descriptor table. Allocated after the registry (and only for
        // this family) so heap addresses of every other scheme are
        // untouched — the trace goldens stay byte-identical.
        if vm.scheme.is_lockfree() {
            let st = LfState::create(&mut h, &vm.alloc, vm.config.max_threads as u32)
                .expect("lf_state allocation");
            vm.roots.set_root(&mut h, LF_STATE_ROOT, st.base).expect("lf_state root");
            vm.lf_state = Some(st);
        }
        vm.roots.mark_in_use(&mut h);
        vm
    }

    /// Attaches to an existing (typically crashed) pool. Used by recovery.
    pub fn attach(pool: PmemPool, instrumented: Instrumented, config: VmConfig) -> Vm {
        let mut h = pool.handle();
        let roots = RootTable::attach(&mut h).expect("pool must be formatted");
        let alloc = NvAllocator::attach_with(&mut h, config.alloc);
        let registry = roots.root(&mut h, THREADS_ROOT).expect("thread registry root");
        let lf_state = roots
            .root(&mut h, LF_STATE_ROOT)
            .map(|base| LfState { base, threads: config.max_threads as u32 });
        let code = Arc::new(DecodedProgram::decode(&instrumented.program));
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
            stamp: 1,
            lock_release_stamps: HashMap::new(),
            atlas_rt_available: 0,
            registry,
            lf_state,
            profile: Profile::new(),
            steps: 0,
            step_hook: None,
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
        self.lf_state
    }

    /// Dynamic region profile collected so far (meaningful for iDO runs).
    pub fn profile(&self) -> &Profile {
        &self.profile
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

        let idx = self.threads.len();
        let mut h = self.pool.handle();
        h.set_shard(idx as u32);
        let ido_size = IdoLogLayout::size_for(self.max_regs);
        let jd_size = JustDoLogLayout::size_for(self.max_regs);
        let ido_base = self.alloc.alloc(&mut h, ido_size).expect("ido log alloc");
        let jd_base = self.alloc.alloc(&mut h, jd_size).expect("justdo log alloc");
        let app_base = self
            .alloc
            .alloc(&mut h, AppendLogLayout::size_for(self.config.log_entries))
            .expect("append log alloc");
        let stack_area = self.alloc.alloc(&mut h, self.config.stack_bytes).expect("stack alloc");

        // Zero-initialize the control words durably.
        for addr in [ido_base, jd_base, app_base] {
            for w in 0..8 {
                h.write_u64(addr + w * 8, 0);
            }
            h.persist(addr, 64);
        }
        let app_log = AppendLogLayout { base: app_base, capacity: self.config.log_entries };
        app_log.reset(&mut h);

        // Publish in the registry: entries first, then the count.
        let entry = self.registry + 8 + idx * 32;
        h.write_u64(entry, ido_base as u64);
        h.write_u64(entry + 8, jd_base as u64);
        h.write_u64(entry + 16, app_base as u64);
        h.write_u64(entry + 24, stack_area as u64);
        h.persist(entry, 32);
        h.write_u64(self.registry, (idx + 1) as u64);
        h.persist(self.registry, 8);

        let mut regs = vec![0u64; f.num_regs() as usize];
        regs[..args.len()].copy_from_slice(args);
        let slots = f.num_stack_slots() as usize * 8;
        assert!(slots <= self.config.stack_bytes, "frame larger than stack");

        let ctx = ThreadCtx {
            id: ThreadId(idx),
            handle: h,
            frames: vec![Frame { func: fid, pc: Pc { func: fid, block: BlockId(0), index: 0 }, regs, stack_base: stack_area, ret_reg: None }],
            status: Status::Runnable,
            recovery: false,
            halt_after_release: false,
            ret_val: None,
            ido_log: IdoLogLayout { base: ido_base, max_regs: self.max_regs },
            jd_log: JustDoLogLayout { base: jd_base, max_regs: self.max_regs },
            app_log,
            stack_area,
            stack_top: slots,
            lock_slots: Box::new([None; LOCK_ARRAY_SLOTS]),
            region_stores: Vec::new(),
            // Parameters count as defined-since-the-last-boundary so the
            // first boundary of the first FASE logs them; a live register's
            // log slot then always holds its value as of the last boundary.
            dirty_regs: {
                let mut d = RegBitset::new(self.max_regs);
                d.insert_range(args.len() as u32);
                d
            },
            written_regs: RegBitset::new(self.max_regs),
            read_before_write: RegBitset::new(self.max_regs),
            stores_since_boundary: 0,
            fase_store_addrs: Vec::new(),
            in_tx: false,
            fase_active: false,
            pc_fence_pending: false,
            lf_track_loads: self.scheme == Scheme::Nvtraverse,
            tx_write_set: HashMap::new(),
            mn_cursor: 0,
            dirty_pages: HashSet::new(),
            nvml_added: HashSet::new(),
        };
        self.threads.push(ctx);
        ThreadId(idx)
    }

    pub(crate) fn push_recovery_thread(&mut self, ctx: ThreadCtx) {
        self.threads.push(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn make_recovery_ctx(
        &self,
        idx: usize,
        ido_base: PAddr,
        jd_base: PAddr,
        app_base: PAddr,
        stack_area: PAddr,
        frame_func: FuncId,
        pc: Pc,
        regs: Vec<u64>,
        stack_base: PAddr,
        lock_slots: Box<[Option<u64>; LOCK_ARRAY_SLOTS]>,
    ) -> ThreadCtx {
        let f = self.program.function(frame_func);
        let mut handle = self.pool.handle();
        handle.set_shard(idx as u32);
        ThreadCtx {
            id: ThreadId(idx),
            handle,
            frames: vec![Frame { func: frame_func, pc, regs, stack_base, ret_reg: None }],
            status: Status::Runnable,
            recovery: true,
            halt_after_release: false,
            ret_val: None,
            ido_log: IdoLogLayout { base: ido_base, max_regs: self.max_regs },
            jd_log: JustDoLogLayout { base: jd_base, max_regs: self.max_regs },
            app_log: AppendLogLayout { base: app_base, capacity: self.config.log_entries },
            stack_area,
            stack_top: (stack_base - stack_area) + f.num_stack_slots() as usize * 8,
            lock_slots,
            region_stores: Vec::new(),
            dirty_regs: RegBitset::new(self.max_regs),
            written_regs: RegBitset::new(self.max_regs),
            read_before_write: RegBitset::new(self.max_regs),
            stores_since_boundary: 0,
            fase_store_addrs: Vec::new(),
            in_tx: false,
            fase_active: false,
            pc_fence_pending: false,
            lf_track_loads: self.scheme == Scheme::Nvtraverse,
            tx_write_set: HashMap::new(),
            mn_cursor: 0,
            dirty_pages: HashSet::new(),
            nvml_added: HashSet::new(),
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

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
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
        let code = Arc::clone(&self.code);
        for _ in 0..budget {
            let Some(pick) = self.pick_reference() else {
                return self.stalled_outcome();
            };
            self.step_thread(pick, &code);
            self.steps += 1;
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

    /// Publishes the key of the thread that just stepped; returns it.
    #[inline]
    fn publish_key(&mut self, t: usize) -> u64 {
        let key = self.threads[t].ready_key(t);
        self.sched.set(t, key);
        key
    }

    /// Fires the step hook (if installed) for the step just executed by
    /// thread `pick`; returns the hook's verdict.
    fn fire_hook(&mut self, pick: usize) -> StepControl {
        if let Some(hook) = self.step_hook.as_mut() {
            let info = StepInfo {
                step: self.steps,
                thread: ThreadId(pick),
                persist_events: self.pool.persist_event_count(),
            };
            hook(info)
        } else {
            StepControl::Continue
        }
    }

    /// Executes up to `budget` *more* instructions — a relative budget,
    /// not an absolute step count: two `run_steps(n)` calls execute `2n`
    /// steps. Returns when the budget is exhausted, all threads are done,
    /// or no thread can run.
    pub fn run_steps(&mut self, budget: u64) -> RunOutcome {
        self.rebuild_sched();
        match self.config.tier {
            ExecTier::Tier1 => self.run_steps_tier1(budget),
            ExecTier::Tier2 => self.run_steps_tier2(budget),
        }
    }

    fn run_steps_tier1(&mut self, budget: u64) -> RunOutcome {
        // Hold the decoded stream for the whole loop: one Arc clone per
        // call, zero per-step refcount traffic or program lookups.
        let code = Arc::clone(&self.code);
        let mut remaining = budget;
        while remaining > 0 {
            let Some((pick, _)) = self.pick() else {
                return self.stalled_outcome();
            };
            // Run-ahead: `pick` keeps stepping, with no rescan, while the
            // per-step scan would have chosen it again (DESIGN.md §7.4).
            loop {
                self.step_thread(pick, &code);
                self.steps += 1;
                remaining -= 1;
                let key = self.publish_key(pick);
                if self.fire_hook(pick) == StepControl::Pause {
                    return RunOutcome::Paused;
                }
                if remaining == 0 || key >= self.sched.limit_key() {
                    break;
                }
            }
        }
        self.budget_outcome()
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
        let code = Arc::clone(&self.code);
        let t2 = Arc::clone(self.t2.as_ref().expect("tier-2 program compiled at construction"));
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
                let pc = th.frames.last().expect("runnable thread has a frame").pc;
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
                // The segment gate charges the JustDo per-step memory tax
                // into its pending work *before* re-checking the clock
                // limit, so a taxed thread whose clock is within one tax
                // of the limit also gets exactly one step.
                let tax = if self.scheme == Scheme::JustDo && th.fase_active {
                    self.config.justdo_mem_tax_ns
                } else {
                    0
                };
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
                    None => {
                        self.step_thread(pick, &code);
                        1
                    }
                    Some((seg, op, branch_half)) => {
                        let max_steps = if one_step { 1 } else { remaining };
                        let Vm {
                            ref mut threads, ref mut locks, ref config, scheme, ref mut rng, ..
                        } = *self;
                        let run = tier2::exec_segment(
                            pick,
                            &mut threads[pick],
                            locks,
                            scheme,
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
                let key = self.publish_key(pick);
                if self.fire_hook(pick) == StepControl::Pause {
                    return RunOutcome::Paused;
                }
                if remaining == 0 || key >= self.sched.limit_key() {
                    break;
                }
            }
        }
        self.budget_outcome()
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

    /// Removes the current step hook, if any.
    pub fn clear_step_hook(&mut self) {
        self.step_hook = None;
    }

    // ------------------------------------------------------------------
    // Instruction execution
    // ------------------------------------------------------------------

    fn step_thread(&mut self, t: usize, code: &DecodedProgram) {
        let pc = self.threads[t].frames.last().expect("runnable thread has a frame").pc;
        // Hot-loop contract (ISSUE 2 / DESIGN.md §7): the instruction is
        // *borrowed* from the decoded stream for the duration of the step —
        // never cloned, never allocated. The explicit reference type is the
        // code-level assertion of that contract.
        let inst: &DecodedInst = code.function(pc.func).inst_at(pc);
        self.exec_inst(t, pc, inst, code);
    }

    fn advance(&mut self, t: usize) {
        let frame = self.threads[t].frames.last_mut().expect("frame");
        frame.pc.index += 1;
    }

    fn set_pc(&mut self, t: usize, block: BlockId) {
        let frame = self.threads[t].frames.last_mut().expect("frame");
        frame.pc.block = block;
        frame.pc.index = 0;
    }

    fn read_reg(&mut self, t: usize, r: Reg) -> u64 {
        let th = &mut self.threads[t];
        if !th.written_regs.contains(r.id) {
            th.read_before_write.insert(r.id);
        }
        th.frames.last().expect("frame").regs[r.id as usize]
    }

    fn write_reg(&mut self, t: usize, r: Reg, v: u64) {
        let th = &mut self.threads[t];
        th.written_regs.insert(r.id);
        th.dirty_regs.insert(r.id);
        th.frames.last_mut().expect("frame").regs[r.id as usize] = v;
    }

    fn eval(&mut self, t: usize, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.read_reg(t, r),
            Operand::Imm(v) => v as u64,
        }
    }

    fn slot_addr(&self, t: usize, slot: StackSlot) -> PAddr {
        self.threads[t].frames.last().expect("frame").stack_base + slot.0 as usize * 8
    }

    fn charge(&mut self, t: usize, ns: u64) {
        self.threads[t].handle.advance(ns);
    }

    /// A persistent store as seen by the current scheme. Returns without
    /// writing memory for write-set-buffering schemes inside transactions.
    fn scheme_store(&mut self, t: usize, addr: PAddr, value: u64) {
        scheme_store(self.scheme, &mut self.threads[t], addr, value);
    }

    /// A persistent load as seen by the current scheme (transactional
    /// schemes must read through their write sets).
    fn scheme_load(&mut self, t: usize, addr: PAddr) -> u64 {
        scheme_load(&mut self.threads[t], addr)
    }

    fn exec_inst(&mut self, t: usize, pc: Pc, inst: &DecodedInst, code: &DecodedProgram) {
        if self.scheme == Scheme::JustDo && self.threads[t].fase_active {
            // No-register-caching rule: FASE temporaries live in memory.
            // Attributed to logging: it is JUSTDO's persistence tax.
            self.threads[t].handle.advance_as(Category::Log, self.config.justdo_mem_tax_ns);
        }
        match inst {
            &Inst::Mov { dst, src } => {
                let v = self.eval(t, src);
                self.charge(t, self.config.inst_cost_ns);
                self.write_reg(t, dst, v);
                self.advance(t);
            }
            &Inst::Bin { op, dst, a, b } => {
                let x = self.eval(t, a);
                let y = self.eval(t, b);
                self.charge(t, self.config.inst_cost_ns);
                self.write_reg(t, dst, eval_binop(op, x, y));
                self.advance(t);
            }
            &Inst::LoadStack { dst, slot } => {
                let addr = self.slot_addr(t, slot);
                let v = self.scheme_load(t, addr);
                self.write_reg(t, dst, v);
                self.advance(t);
            }
            &Inst::StoreStack { slot, src } => {
                let v = self.eval(t, src);
                let addr = self.slot_addr(t, slot);
                self.scheme_store(t, addr, v);
                self.advance(t);
            }
            &Inst::Load { dst, base, offset } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                let v = self.scheme_load(t, addr);
                self.write_reg(t, dst, v);
                self.advance(t);
            }
            &Inst::Store { base, offset, src } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                let v = self.eval(t, src);
                self.scheme_store(t, addr, v);
                self.advance(t);
            }
            &Inst::Alloc { dst, size } => {
                let sz = self.eval(t, size) as usize;
                let th = &mut self.threads[t];
                let addr = self.alloc.alloc(&mut th.handle, sz).expect("nv_malloc failed");
                self.write_reg(t, dst, addr as u64);
                self.advance(t);
            }
            &Inst::Free { base } => {
                let addr = self.read_reg(t, base) as usize;
                let th = &mut self.threads[t];
                self.alloc.free(&mut th.handle, addr).expect("nv_free failed");
                self.advance(t);
            }
            &Inst::Lock { lock } => {
                if self.scheme == Scheme::Mnemosyne {
                    // Program locks are subsumed by the global txn lock.
                    self.advance(t);
                    return;
                }
                let l = self.eval(t, lock);
                self.charge(t, self.config.lock_cost_ns);
                match self.locks.acquire(l, ThreadId(t)) {
                    Acquire::Granted | Acquire::AlreadyHeld => {
                        self.threads[t].handle.trace_event(EventKind::LockAcquire, l, 0);
                        self.advance(t);
                    }
                    Acquire::Blocked => {
                        self.threads[t].status = Status::Blocked(l);
                        // pc stays; re-executes after handoff.
                    }
                }
            }
            &Inst::Unlock { lock } => {
                if self.scheme == Scheme::Mnemosyne {
                    self.advance(t);
                    return;
                }
                let l = self.eval(t, lock);
                self.charge(t, self.config.lock_cost_ns);
                match self.locks.release(l, ThreadId(t)) {
                    Ok(next) => {
                        self.threads[t].handle.trace_event(EventKind::LockRelease, l, 0);
                        if let Some(n) = next {
                            self.wake(t, n);
                        }
                    }
                    Err(_) => {
                        assert!(
                            self.threads[t].recovery,
                            "thread {t} released a lock it does not hold"
                        );
                    }
                }
                self.advance(t);
                if self.threads[t].halt_after_release {
                    self.finish_thread(t);
                }
            }
            Inst::DurableBegin => {
                self.advance(t);
            }
            Inst::DurableEnd => {
                self.advance(t);
                if self.threads[t].halt_after_release {
                    self.finish_thread(t);
                }
            }
            Inst::Call { func, args, ret } => {
                let func = *func;
                let ret = *ret;
                // Cold path relative to the step loop; the per-call `vals`
                // and `regs` buffers are the frame's own storage, not
                // per-step churn.
                let vals: Vec<u64> = args.iter().map(|a| self.eval(t, *a)).collect();
                self.charge(t, self.config.inst_cost_ns * 2);
                let f = code.function(func);
                let mut regs = vec![0u64; f.num_regs() as usize];
                regs[..vals.len()].copy_from_slice(&vals);
                let frame_bytes = f.frame_bytes();
                let th = &mut self.threads[t];
                assert!(
                    th.stack_top + frame_bytes <= self.config.stack_bytes,
                    "persistent stack overflow"
                );
                let stack_base = th.stack_area + th.stack_top;
                th.stack_top += frame_bytes;
                // Callee parameters are fresh definitions for logging
                // purposes (a FASE inside the callee must log them).
                th.dirty_regs.insert_range(vals.len() as u32);
                // Return to the instruction after the call.
                th.frames.last_mut().expect("frame").pc.index += 1;
                th.frames.push(Frame {
                    func,
                    pc: Pc { func, block: BlockId(0), index: 0 },
                    regs,
                    stack_base,
                    ret_reg: ret,
                });
            }
            &Inst::Ret { val } => {
                let v = val.map(|o| self.eval(t, o));
                self.charge(t, self.config.inst_cost_ns);
                let th = &mut self.threads[t];
                let frame = th.frames.pop().expect("frame");
                let frame_bytes = code.function(frame.func).frame_bytes();
                th.stack_top -= frame_bytes;
                if let Some(caller) = th.frames.last_mut() {
                    if let (Some(r), Some(v)) = (frame.ret_reg, v) {
                        caller.regs[r.id as usize] = v;
                    }
                } else {
                    th.ret_val = v;
                    th.status = Status::Done;
                    th.handle.trace_event(EventKind::ThreadDone, t as u64, 0);
                }
            }
            Inst::RegionMarker => {
                self.advance(t);
            }
            &Inst::OpMark { kind, begin } => {
                // Pure span marker: charges no simulated time so the metrics
                // layer observes the same timeline whether or not workloads
                // annotate their operations.
                let k = self.eval(t, kind);
                let h = &mut self.threads[t].handle;
                if begin {
                    h.op_begin(k);
                } else {
                    h.op_end(k);
                }
                self.advance(t);
            }
            &Inst::Delay { ns } => {
                self.charge(t, ns);
                self.advance(t);
            }
            &Inst::Jump { target } => {
                self.charge(t, self.config.inst_cost_ns);
                self.set_pc(t, target);
            }
            &Inst::Branch { cond, then_bb, else_bb } => {
                let c = self.eval(t, cond);
                self.charge(t, self.config.inst_cost_ns);
                self.set_pc(t, if c != 0 { then_bb } else { else_bb });
            }
            &Inst::Cas { dst, base, offset, expected, new } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                let expected = self.eval(t, expected);
                let new = self.eval(t, new);
                self.charge(t, self.config.inst_cost_ns);
                let taken = self.exec_cas(t, addr, expected, new);
                self.write_reg(t, dst, taken as u64);
                self.advance(t);
            }
            Inst::Rt(op) => self.exec_rt(t, pc, op),
        }
    }

    /// The compare-and-swap step. Under the lock-free schemes this is the
    /// *middle* of the recoverable-CAS protocol (the instrumenter brackets
    /// the instruction with `rt.lf_cas_prepare` / `rt.lf_cas_publish`):
    /// persist the outgoing occupant before overwriting it, credit a
    /// superseded owner, then install the value/tag pair volatilely —
    /// mirroring `ido_lockfree::RcasThread::rcas` step for step. Under
    /// every other scheme it is a plain read-compare-scheme-store.
    fn exec_cas(&mut self, t: usize, addr: PAddr, expected: u64, new: u64) -> bool {
        if !self.scheme.is_lockfree() {
            let cur = self.scheme_load(t, addr);
            if cur != expected {
                return false;
            }
            self.scheme_store(t, addr, new);
            return true;
        }
        let st = self.lf_state.expect("lock-free scheme has a descriptor table");
        let th = &mut self.threads[t];
        let cur = th.handle.read_u64(addr);
        if cur != expected {
            // Failed CAS: nothing written; publish closes the descriptor.
            return false;
        }
        // Persist the outgoing occupant before overwriting it, and credit
        // a superseded owner so its crashed publish stays detectable.
        let prev_tag = th.handle.read_u64(addr + CELL_TAG);
        th.handle.clwb(addr);
        th.handle.sfence();
        if let Some(prev_owner) = tag_owner(prev_tag) {
            if prev_owner < st.threads {
                let prev_slot = st.slot(prev_owner);
                let prev_seq = tag_seq(prev_tag);
                if th.handle.read_u64(prev_slot + DESC_SUPER) < prev_seq {
                    th.handle.write_u64(prev_slot + DESC_SUPER, prev_seq);
                    th.handle.clwb(prev_slot);
                    th.handle.sfence();
                }
            }
        }
        // Install (volatile; the cell pair shares a line so it cannot
        // tear). The tag's sequence number is the one the prepare step
        // just persisted in this thread's descriptor.
        let s = th.handle.read_u64(st.slot(t as u32) + DESC_SEQ);
        th.handle.write_u64(addr, new);
        th.handle.write_u64(addr + CELL_TAG, encode_tag(t as u32, s));
        true
    }

    fn finish_thread(&mut self, t: usize) {
        let th = &mut self.threads[t];
        th.status = Status::Done;
        th.halt_after_release = false;
        th.handle.trace_event(EventKind::ThreadDone, t as u64, 0);
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

    // ------------------------------------------------------------------
    // Runtime operations
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn exec_rt(&mut self, t: usize, pc: Pc, op: &RtOp) {
        match op {
            RtOp::FaseBegin => {
                self.profile.record_fase();
                self.threads[t].handle.trace_event(EventKind::FaseEnter, 0, 0);
                let stack_base = self.threads[t].frames.last().expect("frame").stack_base;
                match self.scheme {
                    Scheme::Ido => {
                        let a = self.threads[t].ido_log.stack_base();
                        let th = &mut self.threads[t];
                        th.handle.begin_log();
                        th.handle.write_u64(a, stack_base as u64);
                        th.handle.clwb(a);
                        th.handle.end_log();
                        th.region_stores.clear();
                        // dirty_regs deliberately persists across FASE
                        // entry: registers defined since the previous
                        // boundary (including before the FASE) must be
                        // logged by the FASE's first boundary.
                        th.written_regs.clear();
                        th.read_before_write.clear();
                        th.stores_since_boundary = 0;
                    }
                    Scheme::JustDo => {
                        // JUSTDO forbids caching FASE state in registers:
                        // the whole register context lives in NVM. Persist
                        // the context at FASE entry (the original system
                        // copied it at FASE initialization).
                        self.threads[t].fase_active = true;
                        let a = self.threads[t].jd_log.stack_base();
                        let regs: Vec<u64> =
                            self.threads[t].frames.last().expect("frame").regs.clone();
                        let th = &mut self.threads[t];
                        th.handle.begin_log();
                        th.handle.write_u64(a, stack_base as u64);
                        th.handle.clwb(a);
                        for (r, v) in regs.iter().enumerate() {
                            let s = th.jd_log.shadow_slot(r as u32);
                            th.handle.write_u64(s, *v);
                            th.handle.clwb(s);
                        }
                        th.handle.end_log();
                        th.handle.sfence();
                    }
                    Scheme::Atlas | Scheme::Nvml => {
                        let stamp = self.next_stamp();
                        let th = &mut self.threads[t];
                        th.fase_store_addrs.clear();
                        th.nvml_added.clear();
                        let log = th.app_log;
                        log.append(&mut th.handle, LogEntryKind::FaseBegin, 0, 0, stamp);
                    }
                    Scheme::Nvthreads => {
                        let th = &mut self.threads[t];
                        th.in_tx = true;
                        th.tx_write_set.clear();
                        th.dirty_pages.clear();
                    }
                    Scheme::Origin
                    | Scheme::Mnemosyne
                    | Scheme::Nvtraverse
                    | Scheme::LfEager => {}
                }
                self.advance(t);
            }
            RtOp::FaseEnd => {
                match self.scheme {
                    Scheme::Ido => {
                        let a = self.threads[t].ido_log.recovery_pc();
                        let th = &mut self.threads[t];
                        // Defensive: anything still unflushed in the final
                        // (boundary-to-release) region must persist *before*
                        // the marker clears, or a crash in between would
                        // declare the FASE complete with its last stores
                        // missing.
                        if !th.region_stores.is_empty() {
                            flush_stores(&mut th.handle, &mut th.region_stores);
                            th.handle.sfence();
                        }
                        th.handle.begin_log();
                        th.handle.write_u64(a, 0);
                        th.handle.clwb(a);
                        th.handle.end_log();
                        th.handle.sfence();
                        th.pc_fence_pending = false;
                    }
                    Scheme::JustDo => {
                        let a = self.threads[t].jd_log.active_pc();
                        let th = &mut self.threads[t];
                        th.fase_active = false;
                        th.handle.begin_log();
                        th.handle.write_u64(a, 0);
                        th.handle.clwb(a);
                        th.handle.end_log();
                        th.handle.sfence();
                    }
                    Scheme::Atlas | Scheme::Nvml => {
                        let stamp = self.next_stamp();
                        let th = &mut self.threads[t];
                        // UNDO systems defer the FASE's writes-back to here.
                        flush_stores(&mut th.handle, &mut th.fase_store_addrs);
                        th.handle.sfence();
                        let log = th.app_log;
                        log.append(&mut th.handle, LogEntryKind::Commit, 0, 0, stamp);
                    }
                    Scheme::Nvthreads => self.nvthreads_commit(t),
                    Scheme::Origin
                    | Scheme::Mnemosyne
                    | Scheme::Nvtraverse
                    | Scheme::LfEager => {}
                }
                self.threads[t].handle.trace_event(EventKind::FaseExit, 0, 0);
                if self.threads[t].recovery {
                    self.threads[t].halt_after_release = true;
                }
                self.advance(t);
            }
            RtOp::LfFlushWindow => {
                // Exit of the NVTraverse traversal phase: write back the
                // journey (links read, new-node contents written) with one
                // fence, immediately before the recoverable CAS — but only
                // the lines that can still be volatile. Every published
                // node was flushed by its inserter before its linking CAS,
                // so a traversed line is non-persistent only when it holds
                // this op's own stores or a neighbor's not-yet-published
                // install; the dirty filter is the simulator's exact form
                // of the paper's "flush only the critical zone" rule.
                // LF-Eager persists every store at the store itself, so
                // its window is always empty and this is a no-op shape.
                let th = &mut self.threads[t];
                if self.config.lf_bug_skip_window_flush {
                    th.region_stores.clear();
                } else {
                    th.region_stores.sort_unstable();
                    th.region_stores.dedup_by_key(|a| ido_nvm::line_of(*a));
                    for i in 0..th.region_stores.len() {
                        let addr = th.region_stores[i];
                        if th.handle.is_line_dirty(addr) {
                            th.handle.clwb(addr);
                        }
                    }
                    th.region_stores.clear();
                    th.handle.sfence();
                }
                self.advance(t);
            }
            &RtOp::LfCasPrepare { base, offset, expected, new } => {
                // Durably publish the in-flight descriptor (one line, one
                // write-back + fence) before the CAS touches the cell —
                // mirrors the prepare step of `RcasThread::rcas`. The
                // sequence number continues from the persisted one, so a
                // post-crash re-attach never reuses a sequence number.
                let target = mem_addr(self.read_reg(t, base), offset);
                let expected = self.eval(t, expected);
                let new = self.eval(t, new);
                let st = self.lf_state.expect("lock-free scheme has a descriptor table");
                let slot = st.slot(t as u32);
                let th = &mut self.threads[t];
                let s = th.handle.read_u64(slot + DESC_SEQ) + 1;
                th.handle.write_u64(slot + DESC_SEQ, s);
                th.handle.write_u64(slot + DESC_TARGET, target as u64);
                th.handle.write_u64(slot + DESC_EXPECTED, expected);
                th.handle.write_u64(slot + DESC_NEW, new);
                th.handle.write_u64(slot + DESC_STATE, STATE_INFLIGHT);
                th.handle.clwb(slot);
                th.handle.sfence();
                self.advance(t);
            }
            &RtOp::LfCasPublish { base, offset, taken } => {
                // Persist-before-escape, then close the descriptor. A
                // failed CAS also closes durably (done-empty): that persist
                // per attempt is the descriptor-tracking tax the bench
                // attributes to the lock-free family.
                let target = mem_addr(self.read_reg(t, base), offset);
                let taken = self.read_reg(t, taken) != 0;
                let st = self.lf_state.expect("lock-free scheme has a descriptor table");
                let slot = st.slot(t as u32);
                let skip_cell_flush = self.config.lf_bug_skip_publish;
                let th = &mut self.threads[t];
                if taken {
                    if !skip_cell_flush {
                        th.handle.clwb(target);
                        th.handle.sfence();
                    }
                    let done = th.handle.read_u64(slot + DESC_DONE);
                    th.handle.write_u64(slot + DESC_DONE, done + 1);
                    th.handle.write_u64(slot + DESC_STATE, STATE_DONE_TAKEN);
                } else {
                    th.handle.write_u64(slot + DESC_STATE, STATE_DONE_EMPTY);
                }
                th.handle.clwb(slot);
                th.handle.sfence();
                self.advance(t);
            }
            RtOp::IdoBoundary { out_regs, .. } => {
                self.ido_boundary(t, pc, out_regs);
                self.advance(t);
            }
            &RtOp::IdoLockAcquired { lock } => {
                let l = self.eval(t, lock);
                let th = &mut self.threads[t];
                let slot = th
                    .lock_slots
                    .iter()
                    .position(|s| s.is_none())
                    .expect("lock_array full");
                th.lock_slots[slot] = Some(l);
                let slot_addr = th.ido_log.lock_slot(slot);
                let bitmap_addr = th.ido_log.lock_bitmap();
                th.handle.begin_log();
                th.handle.write_u64(slot_addr, l);
                let bm = th.handle.read_u64(bitmap_addr);
                th.handle.write_u64(bitmap_addr, bm | (1 << slot));
                th.handle.clwb(slot_addr);
                th.handle.clwb(bitmap_addr);
                th.handle.end_log();
                if self.config.ido_unmerged_acquire_fence {
                    th.handle.sfence(); // the paper's single fence, unmerged
                } else {
                    // No fence here: the instrumentation always places a
                    // region boundary immediately after a lock acquisition,
                    // and the boundary's first fence drains these
                    // write-backs before recovery_pc advances. The paper's
                    // ordering requirement — the holder is recorded before
                    // any FASE work can be resumed — is preserved with zero
                    // extra fences (one better than the paper's single
                    // fence).
                }
                self.advance(t);
            }
            &RtOp::IdoLockReleasing { lock } => {
                let l = self.eval(t, lock);
                let th = &mut self.threads[t];
                if let Some(slot) = th.lock_slots.iter().position(|s| *s == Some(l)) {
                    th.lock_slots[slot] = None;
                    let slot_addr = th.ido_log.lock_slot(slot);
                    let bitmap_addr = th.ido_log.lock_bitmap();
                    th.handle.begin_log();
                    let bm = th.handle.read_u64(bitmap_addr);
                    th.handle.write_u64(bitmap_addr, bm & !(1u64 << slot));
                    th.handle.write_u64(slot_addr, 0);
                    th.handle.clwb(slot_addr);
                    th.handle.clwb(bitmap_addr);
                    th.handle.end_log();
                    th.handle.sfence(); // single fence
                } else {
                    assert!(th.recovery, "releasing unrecorded lock outside recovery");
                }
                self.advance(t);
            }
            &RtOp::JustDoLog { base, offset, value } => {
                let addr = mem_addr(self.read_reg(t, base), offset) as u64;
                let v = self.eval(t, value);
                self.justdo_log(t, pc, addr, v);
                self.advance(t);
            }
            &RtOp::JustDoLogStack { slot, value } => {
                let addr = self.slot_addr(t, slot) as u64;
                let v = self.eval(t, value);
                self.justdo_log(t, pc, addr, v);
                self.advance(t);
            }
            &RtOp::JustDoShadow { reg } => {
                let v = self.read_reg(t, reg);
                let th = &mut self.threads[t];
                let a = th.jd_log.shadow_slot(reg.id);
                th.handle.log_write_u64(a, v);
                th.handle.clwb(a); // ordered by the next log fence
                self.advance(t);
            }
            &RtOp::JustDoLockAcquired { lock } => {
                let l = self.eval(t, lock);
                let th = &mut self.threads[t];
                let slot = th.lock_slots.iter().position(|s| s.is_none()).expect("lock_array full");
                th.lock_slots[slot] = Some(l);
                // Two persist fences: intention, then ownership.
                let slot_addr = th.jd_log.lock_slot(slot);
                th.handle.begin_log();
                th.handle.write_u64(slot_addr, l);
                th.handle.clwb(slot_addr);
                th.handle.sfence();
                let bitmap_addr = th.jd_log.lock_bitmap();
                let bm = th.handle.read_u64(bitmap_addr);
                th.handle.write_u64(bitmap_addr, bm | (1 << slot));
                th.handle.clwb(bitmap_addr);
                th.handle.end_log();
                th.handle.sfence();
                self.advance(t);
            }
            &RtOp::JustDoLockReleasing { lock } => {
                let l = self.eval(t, lock);
                let th = &mut self.threads[t];
                if let Some(slot) = th.lock_slots.iter().position(|s| *s == Some(l)) {
                    th.lock_slots[slot] = None;
                    let bitmap_addr = th.jd_log.lock_bitmap();
                    th.handle.begin_log();
                    let bm = th.handle.read_u64(bitmap_addr);
                    th.handle.write_u64(bitmap_addr, bm & !(1u64 << slot));
                    th.handle.clwb(bitmap_addr);
                    th.handle.sfence();
                    let slot_addr = th.jd_log.lock_slot(slot);
                    th.handle.write_u64(slot_addr, 0);
                    th.handle.clwb(slot_addr);
                    th.handle.end_log();
                    th.handle.sfence();
                } else {
                    assert!(th.recovery, "releasing unrecorded lock outside recovery");
                }
                self.advance(t);
            }
            &RtOp::AtlasUndoLog { base, offset } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                self.atlas_undo(t, addr);
                self.advance(t);
            }
            &RtOp::AtlasUndoLogStack { slot } => {
                let addr = self.slot_addr(t, slot);
                self.atlas_undo(t, addr);
                self.advance(t);
            }
            &RtOp::AtlasLockAcquired { lock } => {
                let l = self.eval(t, lock);
                let observed = *self.lock_release_stamps.get(&l).unwrap_or(&0);
                let stamp = self.next_stamp();
                self.atlas_rt_serialize(t);
                let th = &mut self.threads[t];
                th.handle.advance_as(Category::Log, self.config.atlas_tracking_ns);
                let log = th.app_log;
                log.append(&mut th.handle, LogEntryKind::LockAcquire, l, observed, stamp);
                self.advance(t);
            }
            &RtOp::AtlasLockReleasing { lock } => {
                let l = self.eval(t, lock);
                let stamp = self.next_stamp();
                self.lock_release_stamps.insert(l, stamp);
                self.atlas_rt_serialize(t);
                let th = &mut self.threads[t];
                th.handle.advance_as(Category::Log, self.config.atlas_tracking_ns);
                let log = th.app_log;
                log.append(&mut th.handle, LogEntryKind::LockRelease, l, stamp, stamp);
                self.advance(t);
            }
            RtOp::TxBegin => {
                self.charge(t, self.config.lock_cost_ns);
                match self.locks.acquire(GLOBAL_TX_LOCK, ThreadId(t)) {
                    Acquire::Granted | Acquire::AlreadyHeld => {
                        let th = &mut self.threads[t];
                        th.in_tx = true;
                        th.tx_write_set.clear();
                        th.mn_cursor = 0;
                        th.handle.trace_event(EventKind::LockAcquire, GLOBAL_TX_LOCK, 0);
                        th.handle.trace_event(EventKind::FaseEnter, 0, 0);
                        self.profile.record_fase();
                        self.advance(t);
                    }
                    Acquire::Blocked => {
                        self.threads[t].status = Status::Blocked(GLOBAL_TX_LOCK);
                    }
                }
            }
            RtOp::TxCommit => {
                self.mnemosyne_commit(t);
                self.charge(t, self.config.lock_cost_ns);
                let th = &mut self.threads[t];
                th.handle.trace_event(EventKind::FaseExit, 0, 0);
                th.handle.trace_event(EventKind::LockRelease, GLOBAL_TX_LOCK, 0);
                if let Ok(Some(n)) = self.locks.release(GLOBAL_TX_LOCK, ThreadId(t)) {
                    self.wake(t, n);
                }
                if self.threads[t].recovery {
                    self.threads[t].halt_after_release = true;
                }
                self.advance(t);
            }
            &RtOp::NvmlTxAdd { base, offset } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                self.nvml_tx_add(t, addr);
                self.advance(t);
            }
            &RtOp::NvmlTxAddStack { slot } => {
                let addr = self.slot_addr(t, slot);
                self.nvml_tx_add(t, addr);
                self.advance(t);
            }
            &RtOp::NvthreadsPageTouch { base, offset } => {
                let addr = mem_addr(self.read_reg(t, base), offset);
                self.nvthreads_touch(t, addr);
                self.advance(t);
            }
            &RtOp::NvthreadsPageTouchStack { slot } => {
                let addr = self.slot_addr(t, slot);
                self.nvthreads_touch(t, addr);
                self.advance(t);
            }
        }
    }

    /// The iDO region boundary (Section III-A): persist the ending region's
    /// outputs (register log slots, persist-coalesced, plus run-time-tracked
    /// heap/stack stores), fence, advance `recovery_pc`, fence.
    fn ido_boundary(&mut self, t: usize, pc: Pc, live_filter: &[Reg]) {
        let stores = self.threads[t].stores_since_boundary;
        let inputs = self.threads[t].read_before_write.count() as u64;
        let no_coalescing = self.config.ido_no_coalescing;
        let th = &mut self.threads[t];
        // Step 1: write + write back Def ∩ LiveOut register slots (up to 8
        // slots share one line: persist coalescing) and tracked stores.
        // `live_filter` comes from the instrumentation in ascending register
        // order; filtering it through the dirty bitset preserves that order,
        // so no intermediate collection is needed.
        {
            let frame = th.frames.last().expect("frame");
            let (handle, ido_log, dirty) = (&mut th.handle, &th.ido_log, &th.dirty_regs);
            handle.begin_log();
            for r in live_filter {
                if dirty.contains(r.id) {
                    let a = ido_log.rf_slot(r.id);
                    handle.write_u64(a, frame.regs[r.id as usize]);
                    handle.clwb(a); // duplicate lines coalesce in the queue
                    if no_coalescing {
                        handle.sfence();
                    }
                }
            }
            handle.end_log();
        }
        if self.config.ido_bug_skip_store_flush {
            // Injected bug: the region's heap stores are forgotten, not
            // flushed — yet recovery_pc still advances (and is fenced
            // eagerly below), durably claiming the region completed.
            th.region_stores.clear();
        } else {
            flush_stores(&mut th.handle, &mut th.region_stores);
        }
        th.handle.sfence();
        // Step 2: advance recovery_pc to the instruction after the boundary.
        // The paper fences here eagerly; we defer the fence until the next
        // region's first store (the only event it must precede — a late
        // recovery_pc merely re-executes one extra, WAR-free region). The
        // exhaustive crash sweeps in tests/crash_recovery.rs validate this.
        let next = Pc { func: pc.func, block: pc.block, index: pc.index + 1 };
        let a = th.ido_log.recovery_pc();
        th.handle.begin_log();
        th.handle.write_u64(a, encode_pc(next));
        th.handle.clwb(a);
        th.handle.end_log();
        if self.config.ido_eager_step2_fence || self.config.ido_bug_skip_store_flush {
            th.handle.sfence();
            th.pc_fence_pending = false;
        } else {
            th.pc_fence_pending = true;
        }
        // Step 3 begins when the caller advances; reset dynamic tracking.
        th.dirty_regs.clear();
        th.written_regs.clear();
        th.read_before_write.clear();
        th.stores_since_boundary = 0;
        th.handle.trace_event(EventKind::RegionBoundary, stores, inputs);
        self.profile.record_region(stores, inputs);
    }

    fn justdo_log(&mut self, t: usize, pc: Pc, addr: u64, value: u64) {
        // The following store is at pc+1 (the log op immediately precedes it).
        let store_pc = Pc { func: pc.func, block: pc.block, index: pc.index + 1 };
        let th = &mut self.threads[t];
        let l = th.jd_log;
        th.handle.log_write_u64(l.addr(), addr);
        th.handle.log_write_u64(l.value(), value);
        th.handle.log_write_u64(l.active_pc(), encode_pc(store_pc));
        th.handle.clwb(l.active_pc()); // one line holds all three fields
        th.handle.trace_event(EventKind::LogAppend, 1, 24);
        th.handle.sfence(); // first fence; the store itself fences again
    }

    /// Serializes a thread on Atlas's internal runtime synchronization:
    /// the thread waits until the shared tracking tables are free and
    /// occupies them for the tracking duration.
    fn atlas_rt_serialize(&mut self, t: usize) {
        let now = self.threads[t].handle.clock_ns().max(self.atlas_rt_available);
        self.threads[t].handle.set_clock_ns(now);
        self.atlas_rt_available = now + self.config.atlas_rt_serial_ns;
    }

    fn atlas_undo(&mut self, t: usize, addr: PAddr) {
        let stamp = self.next_stamp();
        let th = &mut self.threads[t];
        th.handle.advance_as(Category::Log, self.config.atlas_tracking_ns);
        let old = th.handle.read_u64(addr);
        let log = th.app_log;
        log.append(&mut th.handle, LogEntryKind::Undo, addr as u64, old, stamp);
    }

    fn nvml_tx_add(&mut self, t: usize, addr: PAddr) {
        // Object granularity: snapshot the containing cache line once per
        // FASE (`TX_ADD` deduplicates by range).
        let obj = addr & !63;
        if !self.threads[t].nvml_added.insert(obj) {
            return;
        }
        let stamp = self.next_stamp();
        let th = &mut self.threads[t];
        let mut entries = Vec::with_capacity(8);
        for w in 0..8 {
            let a = obj + w * 8;
            let old = th.handle.read_u64(a);
            entries.push((LogEntryKind::Undo, a as u64, old, stamp));
        }
        let log = th.app_log;
        log.append_batch(&mut th.handle, &entries); // one fence per object
    }

    fn nvthreads_touch(&mut self, t: usize, addr: PAddr) {
        let page = addr / self.config.page_bytes;
        if self.threads[t].dirty_pages.insert(page) {
            // First touch: copy-on-write page duplication (a logging tax).
            self.threads[t].handle.advance_as(Category::Log, self.config.page_copy_ns);
        }
    }

    fn nvthreads_commit(&mut self, t: usize) {
        let stamp = self.next_stamp();
        let pages = self.threads[t].dirty_pages.len() as u64;
        let th = &mut self.threads[t];
        th.in_tx = false;
        // Drain the write set in ascending address order (the order the old
        // `BTreeMap` representation iterated in) for both the log entries
        // and the in-place publication.
        let writes = drain_write_set(&mut th.tx_write_set);
        // Write dirty pages to the redo log (word-precise entries for
        // replay; page-granular cost).
        let entries: Vec<_> =
            writes.iter().map(|&(a, v)| (LogEntryKind::Redo, a as u64, v, stamp)).collect();
        th.handle.advance_as(Category::Log, pages * self.config.page_log_ns);
        let log = th.app_log;
        if !entries.is_empty() {
            log.append_batch(&mut th.handle, &entries);
        }
        log.append(&mut th.handle, LogEntryKind::Commit, 0, 0, stamp);
        // Publish the write set in place, persist, then retire the log.
        for (addr, v) in writes {
            th.handle.write_u64(addr, v);
            th.handle.clwb(addr);
        }
        th.handle.sfence();
        log.reset(&mut th.handle);
        th.dirty_pages.clear();
    }

    fn mnemosyne_commit(&mut self, t: usize) {
        let th = &mut self.threads[t];
        th.in_tx = false;
        // NT-store appends are already durable; fence orders them, then the
        // commit record publishes the transaction.
        th.handle.sfence();
        let cur = th.mn_cursor;
        let log = th.app_log;
        let e = log.entry_addr(cur);
        th.handle.begin_log();
        th.handle.nt_store_u64(e + 8, 0);
        th.handle.nt_store_u64(e + 16, 0);
        th.handle.nt_store_u64(e + 24, 0);
        th.handle.nt_store_u64(e, LogEntryKind::Commit as u64);
        th.handle.end_log();
        th.handle.trace_event(EventKind::LogAppend, 1, 32);
        th.handle.sfence();
        // Apply the write set in place (ascending address order, matching
        // the old `BTreeMap` drain) and persist it.
        for (addr, v) in drain_write_set(&mut th.tx_write_set) {
            th.handle.write_u64(addr, v);
            th.handle.clwb(addr);
        }
        th.handle.sfence();
        // Retire the log: invalidate every entry this transaction used.
        // Zeroing only entry 0 is not enough — the next transaction's
        // NT-stored redo entry re-validates slot 0, and the recovery scan
        // would then read the stale tail (old redo entries plus the old
        // commit record) as a phantom committed transaction. The crash
        // oracle found exactly that tear.
        th.handle.begin_log();
        for i in 0..=cur {
            th.handle.nt_store_u64(log.entry_addr(i), 0);
        }
        th.handle.end_log();
        th.handle.sfence();
        th.mn_cursor = 0;
    }
}

pub(crate) fn mem_addr(base: u64, offset: i64) -> PAddr {
    (base as i64 + offset) as PAddr
}

/// The scheme-specific persistent-store semantics, shared verbatim by both
/// execution tiers (tier 2 must emit the identical persist-event stream).
/// Operates on the thread context alone — notably it never touches the
/// frame stack, which is what lets the tier-2 executor keep the register
/// file checked out of the frame while storing.
pub(crate) fn scheme_store(scheme: Scheme, th: &mut ThreadCtx, addr: PAddr, value: u64) {
    th.stores_since_boundary += 1;
    match scheme {
        Scheme::Mnemosyne => {
            if th.in_tx {
                // Buffer the write; append a REDO entry with
                // non-temporal stores (kind word last, so a torn entry
                // is invisible to the recovery scan).
                let cur = th.mn_cursor;
                let e = th.app_log.entry_addr(cur);
                th.tx_write_set.insert(addr, value);
                th.mn_cursor += 1;
                th.handle.begin_log();
                th.handle.nt_store_u64(e + 8, addr as u64);
                th.handle.nt_store_u64(e + 16, value);
                th.handle.nt_store_u64(e + 24, 0);
                th.handle.nt_store_u64(e, LogEntryKind::Redo as u64);
                th.handle.end_log();
                th.handle.trace_event(EventKind::LogAppend, 1, 32);
            } else {
                th.handle.write_u64(addr, value);
            }
        }
        Scheme::Nvthreads => {
            if th.in_tx {
                th.tx_write_set.insert(addr, value);
            } else {
                th.handle.write_u64(addr, value);
            }
        }
        Scheme::JustDo => {
            // Persist the store before the next log entry can be
            // overwritten: JUSTDO's second fence per store.
            th.handle.write_u64(addr, value);
            th.handle.clwb(addr);
            th.handle.sfence();
        }
        Scheme::Ido => {
            if th.pc_fence_pending {
                // The deferred step-2 fence: recovery_pc must persist
                // before this region performs a store that could
                // overwrite a predecessor region's inputs.
                th.handle.sfence();
                th.pc_fence_pending = false;
            }
            th.handle.write_u64(addr, value);
            th.region_stores.push(addr);
        }
        Scheme::Atlas | Scheme::Nvml => {
            th.handle.write_u64(addr, value);
            th.fase_store_addrs.push(addr);
        }
        Scheme::Origin => {
            th.handle.write_u64(addr, value);
        }
        Scheme::Nvtraverse => {
            // Traversal-phase store: joins the flush window, written back
            // only at `rt.lf_flush_window` (exit of the traversal phase).
            th.handle.write_u64(addr, value);
            th.region_stores.push(addr);
        }
        Scheme::LfEager => {
            // Eager baseline: every persistent store is written back and
            // fenced at the store itself (no window, maximal fencing).
            th.handle.write_u64(addr, value);
            th.handle.clwb(addr);
            th.handle.sfence();
        }
    }
}

/// The scheme-specific persistent-load semantics (transactional schemes
/// read through their write sets), shared by both execution tiers.
pub(crate) fn scheme_load(th: &mut ThreadCtx, addr: PAddr) -> u64 {
    if th.lf_track_loads {
        // NVTraverse: the journey's *reads* join the flush window too — a
        // recoverable CAS must never depend on a link value that a crash
        // could revert.
        th.region_stores.push(addr);
    }

    if th.in_tx {
        if let Some(v) = th.tx_write_set.get(&addr) {
            // Still charge a (cheap) lookup as a cached load.
            th.handle.advance(1);
            return *v;
        }
    }
    th.handle.read_u64(addr)
}

/// Writes back a store-address accumulator in deterministic order — sort
/// ascending, dedup, `clwb` each line — then clears it (keeping capacity
/// for the next region). This reproduces the drain order of the previous
/// `BTreeSet<PAddr>` representation exactly, so the persist-event journal
/// (and hence crash equivalence classes) is unchanged by the fast path.
fn flush_stores(handle: &mut PmemHandle, stores: &mut Vec<PAddr>) {
    stores.sort_unstable();
    stores.dedup();
    for &addr in stores.iter() {
        handle.clwb(addr);
    }
    stores.clear();
}

/// Drains a transactional write set into ascending address order — the
/// iteration order of the previous `BTreeMap<PAddr, u64>` representation —
/// so commit-time log appends and publications stay byte-identical.
fn drain_write_set(ws: &mut HashMap<PAddr, u64>) -> Vec<(PAddr, u64)> {
    let mut writes: Vec<(PAddr, u64)> = ws.drain().collect();
    writes.sort_unstable_by_key(|&(a, _)| a);
    writes
}

// Binary-op semantics are shared with the constant folder and tier-2
// lowering via `ido_ir::semantics` — a single definition, so the
// interpreter cannot silently diverge from folded programs. Re-exported
// under the old path for `tier2.rs` and the tests below.
pub(crate) use ido_ir::semantics::eval_binop;

#[cfg(test)]
mod sched_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use ido_compiler::instrument_program;
    use ido_ir::ProgramBuilder;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn compile(scheme: Scheme, build: impl FnOnce(&mut ProgramBuilder)) -> Instrumented {
        let mut pb = ProgramBuilder::new();
        build(&mut pb);
        instrument_program(pb.finish(), scheme).expect("instrumentation")
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(eval_binop(BinOp::Add, u64::MAX, 1), 0);
        assert_eq!(eval_binop(BinOp::Sub, 3, 5), (-2i64) as u64);
        assert_eq!(eval_binop(BinOp::Div, 7, 2), 3);
        assert_eq!(eval_binop(BinOp::Div, 7, 0), 0);
        assert_eq!(eval_binop(BinOp::Rem, 7, 0), 0);
        assert_eq!(eval_binop(BinOp::Lt, (-1i64) as u64, 0), 1, "signed compare");
        assert_eq!(eval_binop(BinOp::Shl, 1, 65), 2, "shift modulo 64");
    }

    #[test]
    fn run_simple_arithmetic() {
        let inst = compile(Scheme::Origin, |pb| {
            let mut f = pb.new_function("main", 2);
            let a = f.param(0);
            let b = f.param(1);
            let c = f.new_reg();
            f.bin(BinOp::Mul, c, a, b);
            f.ret(Some(Operand::Reg(c)));
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let t = vm.spawn("main", &[6, 7]);
        assert_eq!(vm.run(), RunOutcome::Completed);
        assert_eq!(vm.return_value(t), Some(42));
    }

    #[test]
    fn heap_store_load_roundtrip() {
        let inst = compile(Scheme::Origin, |pb| {
            let mut f = pb.new_function("main", 1);
            let p = f.param(0);
            let v = f.new_reg();
            f.store(p, 0, 99i64);
            f.load(v, p, 0);
            f.ret(Some(Operand::Reg(v)));
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let addr = vm.setup(|h, alloc, _| alloc.alloc(h, 8).unwrap());
        let t = vm.spawn("main", &[addr as u64]);
        vm.run();
        assert_eq!(vm.return_value(t), Some(99));
    }

    #[test]
    fn stack_slots_work() {
        let inst = compile(Scheme::Origin, |pb| {
            let mut f = pb.new_function("main", 0);
            let s = f.new_stack_slot();
            let v = f.new_reg();
            f.store_stack(s, 31i64);
            f.load_stack(v, s);
            f.ret(Some(Operand::Reg(v)));
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let t = vm.spawn("main", &[]);
        vm.run();
        assert_eq!(vm.return_value(t), Some(31));
    }

    #[test]
    fn calls_and_returns() {
        let inst = compile(Scheme::Origin, |pb| {
            let callee = pb.declare("double");
            let mut f = pb.new_function("main", 1);
            let x = f.param(0);
            let r = f.new_reg();
            f.call(callee, vec![Operand::Reg(x)], Some(r));
            let r2 = f.new_reg();
            f.call(callee, vec![Operand::Reg(r)], Some(r2));
            f.ret(Some(Operand::Reg(r2)));
            f.finish().unwrap();
            let mut g = pb.new_function("double", 1);
            let p = g.param(0);
            let d = g.new_reg();
            g.bin(BinOp::Add, d, p, Operand::Reg(p));
            g.ret(Some(Operand::Reg(d)));
            g.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let t = vm.spawn("main", &[5]);
        assert_eq!(vm.run(), RunOutcome::Completed);
        assert_eq!(vm.return_value(t), Some(20));
    }

    #[test]
    fn loops_terminate() {
        let inst = compile(Scheme::Origin, |pb| {
            let mut f = pb.new_function("sum", 1);
            let n = f.param(0);
            let i = f.new_reg();
            let acc = f.new_reg();
            let c = f.new_reg();
            let head = f.new_block();
            let body = f.new_block();
            let exit = f.new_block();
            f.mov(i, 0i64);
            f.mov(acc, 0i64);
            f.jump(head);
            f.switch_to(head);
            f.bin(BinOp::Lt, c, i, n);
            f.branch(c, body, exit);
            f.switch_to(body);
            f.bin(BinOp::Add, acc, acc, i);
            f.bin(BinOp::Add, i, i, 1i64);
            f.jump(head);
            f.switch_to(exit);
            f.ret(Some(Operand::Reg(acc)));
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let t = vm.spawn("sum", &[10]);
        vm.run();
        assert_eq!(vm.return_value(t), Some(45));
    }

    /// Builds the canonical "locked counter increment" used by many tests:
    /// `fn incr(lock, cell) { lock; v = mem[cell]; mem[cell] = v + 1; unlock }`
    fn counter_program(scheme: Scheme) -> Instrumented {
        compile(scheme, |pb| {
            let mut f = pb.new_function("incr", 2);
            let l = f.param(0);
            let p = f.param(1);
            let v = f.new_reg();
            let v2 = f.new_reg();
            f.lock(l);
            f.load(v, p, 0);
            f.bin(BinOp::Add, v2, v, 1i64);
            f.store(p, 0, Operand::Reg(v2));
            f.unlock(l);
            f.ret(None);
            f.finish().unwrap();
        })
    }

    fn run_counter(scheme: Scheme, threads: usize, seed: u64) -> u64 {
        let inst = counter_program(scheme);
        let mut vm = Vm::new(inst, VmConfig { seed, ..VmConfig::for_tests() });
        let (lock_holder, cell) = vm.setup(|h, alloc, _| {
            let lh = alloc.alloc(h, 8).unwrap();
            let c = alloc.alloc(h, 8).unwrap();
            h.write_u64(c, 0);
            h.persist(c, 8);
            (lh, c)
        });
        for _ in 0..threads {
            vm.spawn("incr", &[lock_holder as u64, cell as u64]);
        }
        assert_eq!(vm.run(), RunOutcome::Completed);
        let mut h = vm.pool().handle();
        h.read_u64(cell)
    }

    #[test]
    fn mutual_exclusion_across_schemes() {
        for scheme in Scheme::ALL {
            for seed in [1, 7, 99] {
                assert_eq!(
                    run_counter(scheme, 8, seed),
                    8,
                    "lost update under {scheme} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn ido_profile_counts_regions_and_fases() {
        let inst = counter_program(Scheme::Ido);
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let (lh, c) = vm.setup(|h, alloc, _| {
            (alloc.alloc(h, 8).unwrap(), alloc.alloc(h, 8).unwrap())
        });
        let _ = c;
        vm.spawn("incr", &[lh as u64, c as u64]);
        vm.run();
        assert_eq!(vm.profile().fases, 1);
        assert!(vm.profile().regions >= 2);
        // The region carrying the store reports it.
        let stores: u64 = (0..crate::profile::BUCKETS)
            .map(|k| vm.profile().stores_hist[k] * k as u64)
            .sum();
        assert!(stores >= 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = {
            let inst = counter_program(Scheme::Ido);
            let mut vm = Vm::new(inst, VmConfig { seed: 5, ..VmConfig::for_tests() });
            let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
            for _ in 0..4 {
                vm.spawn("incr", &[lh as u64, c as u64]);
            }
            vm.run();
            (vm.steps(), vm.max_clock_ns())
        };
        let b = {
            let inst = counter_program(Scheme::Ido);
            let mut vm = Vm::new(inst, VmConfig { seed: 5, ..VmConfig::for_tests() });
            let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
            for _ in 0..4 {
                vm.spawn("incr", &[lh as u64, c as u64]);
            }
            vm.run();
            (vm.steps(), vm.max_clock_ns())
        };
        assert_eq!(a, b);
    }

    #[test]
    fn run_steps_budget_is_relative() {
        // Two `run_steps(n)` calls execute exactly `2n` steps: the budget
        // counts steps from the call, not from the start of the run.
        for tier in [ExecTier::Tier1, ExecTier::Tier2] {
            let inst = counter_program(Scheme::Ido);
            let mut vm = Vm::new(inst, VmConfig { tier, ..VmConfig::for_tests() });
            let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
            for _ in 0..4 {
                vm.spawn("incr", &[lh as u64, c as u64]);
            }
            assert_eq!(vm.run_steps(7), RunOutcome::Paused);
            assert_eq!(vm.steps(), 7, "{tier:?}");
            assert_eq!(vm.run_steps(7), RunOutcome::Paused);
            assert_eq!(vm.steps(), 14, "{tier:?}");
        }
    }

    /// The step loop switches between `ThreadCtx`s on every hand-off, so
    /// the struct's size is host cost at high thread counts. It was 2176 B
    /// with the lock-record array inline and a 704 B handle; keep both out.
    #[test]
    fn thread_ctx_stays_compact() {
        let size = std::mem::size_of::<ThreadCtx>();
        assert!(size <= 640, "ThreadCtx grew to {size} B");
    }

    #[test]
    fn blocked_threads_wait_and_resume() {
        let inst = counter_program(Scheme::Origin);
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
        for _ in 0..3 {
            vm.spawn("incr", &[lh as u64, c as u64]);
        }
        assert_eq!(vm.run(), RunOutcome::Completed);
    }

    #[test]
    fn mnemosyne_buffers_until_commit() {
        // Inside the txn, memory is unchanged until TxCommit publishes.
        let inst = compile(Scheme::Mnemosyne, |pb| {
            let mut f = pb.new_function("w", 2);
            let l = f.param(0);
            let p = f.param(1);
            let v = f.new_reg();
            f.lock(l);
            f.store(p, 0, 5i64);
            f.load(v, p, 0); // must see own write through the write set
            f.store(p, 8, Operand::Reg(v));
            f.unlock(l);
            f.ret(Some(Operand::Reg(v)));
            f.finish().unwrap();
        });
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 16).unwrap()));
        let t = vm.spawn("w", &[lh as u64, c as u64]);
        vm.run();
        assert_eq!(vm.return_value(t), Some(5), "read-own-write");
        let mut h = vm.pool().handle();
        assert_eq!(h.read_u64(c), 5);
        assert_eq!(h.read_u64(c + 8), 5);
    }

    #[test]
    fn justdo_charges_two_fences_per_store() {
        let inst = counter_program(Scheme::JustDo);
        let mut vm = Vm::new(inst, VmConfig::for_tests());
        let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
        vm.spawn("incr", &[lh as u64, c as u64]);
        vm.run();
        let stats = vm.pool().global_stats();
        // 1 store: log fence + store fence; plus 2×2 for the lock ops and
        // one for fase end.
        assert!(stats.fences >= 2 + 4, "expected JUSTDO's fence-heavy profile, got {stats}");
    }

    #[test]
    fn ido_uses_fewer_fences_than_justdo_on_multi_store_fases() {
        // An 8-store FASE: iDO covers all stores with one region boundary
        // (2 fences), while JUSTDO pays 2 fences per store.
        let fences = |scheme| {
            let inst = compile(scheme, |pb| {
                let mut f = pb.new_function("blast", 2);
                let l = f.param(0);
                let p = f.param(1);
                f.lock(l);
                for k in 0..8 {
                    f.store(p, k * 8, (k + 1) as i64);
                }
                f.unlock(l);
                f.ret(None);
                f.finish().unwrap();
            });
            let mut vm = Vm::new(inst, VmConfig::for_tests());
            let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 64).unwrap()));
            vm.spawn("blast", &[lh as u64, c as u64]);
            vm.run();
            let pool = vm.pool().clone();
            drop(vm); // thread handles fold their stats into the pool
            pool.global_stats().fences
        };
        assert!(
            fences(Scheme::Ido) < fences(Scheme::JustDo),
            "iDO consolidates per-store logging into per-region logging"
        );
    }

    /// An iDO FASE program suitable for persist-boundary exploration: two
    /// threads increment disjoint counters under one lock.
    fn fase_counters(scheme: Scheme) -> Instrumented {
        compile(scheme, |pb| {
            let mut f = pb.new_function("bump", 3);
            let l = f.param(0);
            let p = f.param(1);
            let k = f.param(2);
            let off = f.new_reg();
            let v = f.new_reg();
            let v1 = f.new_reg();
            f.bin(BinOp::Mul, off, k, 64i64);
            f.bin(BinOp::Add, off, p, Operand::Reg(off));
            f.lock(l);
            f.load(v, off, 0);
            f.bin(BinOp::Add, v1, v, 7i64);
            f.store(off, 0, Operand::Reg(v1));
            f.unlock(l);
            f.ret(None);
            f.finish().unwrap();
        })
    }

    fn fase_vm(scheme: Scheme, seed: u64) -> (Vm, PAddr) {
        let mut cfg = VmConfig::for_tests();
        cfg.seed = seed;
        cfg.sched = SchedPolicy::Random;
        let mut vm = Vm::new(fase_counters(scheme), cfg);
        let (l, p) = vm.setup(|h, al, _| {
            let l = al.alloc(h, 8).unwrap();
            let p = al.alloc(h, 128).unwrap();
            h.persist(p, 128);
            (l, p)
        });
        for t in 0..2u64 {
            vm.spawn("bump", &[l as u64, p as u64, t]);
        }
        (vm, p)
    }

    #[test]
    fn ido_coalesces_boundary_outputs_into_line_flushes() {
        // A boundary's live-out registers share log lines (Section IV-B):
        // one write-back and one fence per line, not per register.
        let fences = |no_coalescing| {
            let cfg = VmConfig { ido_no_coalescing: no_coalescing, ..VmConfig::for_tests() };
            let mut vm = Vm::new(counter_program(Scheme::Ido), cfg);
            let (lh, c) = vm.setup(|h, al, _| (al.alloc(h, 8).unwrap(), al.alloc(h, 8).unwrap()));
            vm.spawn("incr", &[lh as u64, c as u64]);
            vm.run();
            let pool = vm.pool().clone();
            drop(vm); // thread handles fold their stats into the pool
            pool.global_stats().fences
        };
        assert!(fences(false) < fences(true), "coalescing must save fences");
    }

    #[test]
    fn step_hook_observes_every_step_and_replays_deterministically() {
        // Reference run: uninterrupted, record the persist-event trace.
        let (mut vm, p) = fase_vm(Scheme::Ido, 42);
        let trace: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = trace.clone();
        vm.set_step_hook(Box::new(move |info| {
            sink.borrow_mut().push((info.step, info.persist_events));
            StepControl::Continue
        }));
        assert_eq!(vm.run(), RunOutcome::Completed);
        let total = vm.steps();
        let h = &mut vm.pool().handle();
        let finals = (h.read_u64(p), h.read_u64(p + 64));
        let trace = trace.borrow();
        assert_eq!(trace.len() as u64, total, "hook fires once per step");
        assert_eq!(trace.last().unwrap().0, total);
        assert!(trace.windows(2).all(|w| w[0].1 <= w[1].1), "persist count is monotone");
        assert!(trace.last().unwrap().1 > 0, "an iDO FASE must persist something");

        // Replay: a fresh VM with identical config paused by the hook at
        // every single step still executes the identical schedule.
        let (mut vm2, p2) = fase_vm(Scheme::Ido, 42);
        vm2.set_step_hook(Box::new(|_| StepControl::Pause));
        let mut replayed = Vec::new();
        loop {
            let out = vm2.run_steps(u64::MAX);
            if vm2.steps() > replayed.last().map_or(0, |&(s, _)| s) {
                replayed.push((vm2.steps(), vm2.pool().persist_event_count()));
            }
            if out != RunOutcome::Paused {
                break;
            }
        }
        assert_eq!(replayed, *trace, "pausing must not perturb the schedule");
        let h2 = &mut vm2.pool().handle();
        assert_eq!((h2.read_u64(p2), h2.read_u64(p2 + 64)), finals);
    }

    #[test]
    fn crash_with_overrides_configured_policy() {
        // The program stores without any flush; under the configured
        // DropDirty policy the value dies, but crash_with(EvictAll) on an
        // identically seeded twin keeps it.
        let run = |policy: Option<ido_nvm::CrashPolicy>| {
            let inst = compile(Scheme::Origin, |pb| {
                let mut f = pb.new_function("main", 1);
                let a = f.param(0);
                f.store(a, 0, 77i64);
                f.ret(None);
                f.finish().unwrap();
            });
            let mut vm = Vm::new(inst, VmConfig::for_tests());
            let a = vm.setup(|h, al, _| al.alloc(h, 8).unwrap());
            vm.spawn("main", &[a as u64]);
            vm.run();
            let pool = match policy {
                Some(p) => vm.crash_with(9, &p),
                None => vm.crash(9),
            };
            pool.handle().read_u64(a)
        };
        assert_eq!(run(None), 0, "DropDirty loses the unflushed store");
        assert_eq!(run(Some(ido_nvm::CrashPolicy::EvictAll)), 77);
        assert_eq!(run(Some(ido_nvm::CrashPolicy::losing([]))), 77, "empty lost set = evict all");
    }

    #[test]
    fn ido_bug_skip_store_flush_drops_region_stores() {
        // With the injected bug, an iDO boundary advances recovery_pc
        // durably while the region's heap store never gets a clwb — the
        // dirty line must still be volatile-only right after completion.
        let mut cfg = VmConfig::for_tests();
        cfg.ido_bug_skip_store_flush = true;
        let mut vm = Vm::new(fase_counters(Scheme::Ido), cfg);
        let (l, p) = vm.setup(|h, al, _| {
            let l = al.alloc(h, 8).unwrap();
            let p = al.alloc(h, 128).unwrap();
            h.persist(p, 128);
            (l, p)
        });
        vm.spawn("bump", &[l as u64, p as u64, 0]);
        assert_eq!(vm.run(), RunOutcome::Completed);
        let pool = vm.crash(3); // DropDirty: every unflushed line dies
        assert_eq!(
            pool.handle().read_u64(p),
            0,
            "bug variant must leave the FASE's store unpersisted"
        );
    }
}
