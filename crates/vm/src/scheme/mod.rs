//! One home per scheme. Each module holds everything the VM knows about one
//! failure-atomicity system, or a pair sharing one mechanism: its per-thread
//! volatile state (a [`SchemeState`] variant), its VM-wide state (a
//! [`Shared`] variant), what a store, load and CAS mean, its `Rt` ops, the
//! `VmConfig` cost / ablation / `*_bug_*` fields it alone reads, and its
//! recovery driver. This file holds the only dispatch on the scheme, behind
//! the entry points the engine calls — an enum with inherent functions, so
//! a guest store is one `match` in either tier (DESIGN.md §7.5). The
//! persistent *formats* stay in [`crate::layout`].

use ido_compiler::{Instrumented, Scheme};
use ido_ir::{Pc, RtOp};
use ido_lockfree::{rcas, FlushWindow, LfState};
use ido_nvm::alloc::NvAllocator;
use ido_nvm::root::RootTable;
use ido_nvm::{PAddr, PmemHandle, PmemPool};
use ido_trace::{EventKind, RecoveryPhase};

use crate::exec::{ThreadCtx, VmConfig};
use crate::layout::{Registry, RegistryEntry};
use crate::locks::{LockTable, ThreadId};
use crate::recovery::{RecoveryConfig, RecoveryReport};

mod lockfree;
mod redo;
mod resumption;
mod undo;

/// A thread's volatile scheme state.
pub(crate) enum SchemeState {
    Origin,
    Ido(resumption::IdoThread),
    JustDo(resumption::JustDoThread),
    /// Atlas and NVML.
    Undo(undo::UndoThread),
    Mnemosyne(redo::MnemosyneThread),
    Nvthreads(redo::NvthreadsThread),
    Nvtraverse(FlushWindow),
    /// Persists at every store, so its window stays empty.
    LfEager(FlushWindow),
}

impl SchemeState {
    /// The register tracking the engine updates on every register access:
    /// iDO's, the one scheme whose runtime reads it (DESIGN.md §7.2).
    #[inline(always)]
    pub(crate) fn ido_regs(&mut self) -> Option<&mut resumption::RegTracking> {
        match self {
            SchemeState::Ido(s) => Some(&mut s.regs),
            _ => None,
        }
    }
}

/// What a scheme keeps per VM rather than per thread.
pub(crate) enum Shared {
    None,
    /// Atlas and NVML.
    Undo(undo::Runtime),
    Nvthreads(Stamp),
    /// The lock-free pair: the persistent CAS descriptor table.
    LockFree(LfState),
}

/// A VM-wide logical clock stamping log records; the first stamp is 2.
pub(crate) struct Stamp(u64);

impl Stamp {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

impl Shared {
    /// The VM-wide state of `scheme` over an opened pool — `fresh`ly
    /// formatted (its allocator is passed) or an existing one.
    pub(crate) fn open(
        scheme: Scheme,
        h: &mut PmemHandle,
        roots: &RootTable,
        config: &VmConfig,
        fresh: Option<&NvAllocator>,
    ) -> Shared {
        let lf = match fresh {
            // Allocated after the registry, and only for this family, so
            // heap addresses of every other scheme are untouched.
            Some(alloc) if scheme.is_lockfree() => {
                Some(lockfree::create_state(h, alloc, roots, config))
            }
            Some(_) => None,
            // Looked up under every scheme: the lookup's loads are part of
            // what an attach costs, and `benchmark/` fingerprints the pool's
            // load counter (skipping it for the lock-based schemes moves
            // `service_crash`'s `sim_fingerprint`).
            None => lockfree::find_state(h, roots, config),
        };
        match scheme {
            Scheme::Atlas | Scheme::Nvml => Shared::Undo(undo::Runtime::new()),
            Scheme::Nvthreads => Shared::Nvthreads(Stamp(1)),
            Scheme::Nvtraverse | Scheme::LfEager => {
                Shared::LockFree(lf.expect("lock-free pool has a descriptor table"))
            }
            _ => Shared::None,
        }
    }

    /// The descriptor table — `Some` exactly for the lock-free pair.
    pub(crate) fn lf_state(&self) -> Option<LfState> {
        match self {
            Shared::LockFree(st) => Some(*st),
            _ => None,
        }
    }
}

/// The volatile state of a new thread of `scheme` over `areas`; `held` is
/// what a resumption scheme's recovery read from its persistent lock array.
pub(crate) fn new_thread(
    scheme: Scheme,
    areas: &RegistryEntry,
    max_regs: u32,
    config: &VmConfig,
    held: &[(usize, u64)],
) -> SchemeState {
    let log = areas.append_log(config.log_entries);
    match scheme {
        Scheme::Origin => SchemeState::Origin,
        Scheme::Ido => SchemeState::Ido(resumption::IdoThread::new(areas, max_regs, held)),
        Scheme::JustDo => SchemeState::JustDo(resumption::JustDoThread::new(areas, max_regs, held)),
        Scheme::Atlas | Scheme::Nvml => {
            SchemeState::Undo(undo::UndoThread::new(scheme == Scheme::Atlas, log))
        }
        Scheme::Mnemosyne => SchemeState::Mnemosyne(redo::MnemosyneThread::new(log)),
        Scheme::Nvthreads => SchemeState::Nvthreads(redo::NvthreadsThread::new(log)),
        Scheme::Nvtraverse => SchemeState::Nvtraverse(FlushWindow::default()),
        Scheme::LfEager => SchemeState::LfEager(FlushWindow::default()),
    }
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

/// A persistent store as the thread's scheme sees it, shared verbatim by
/// both execution tiers (tier 2 must emit the identical persist-event
/// stream). Returns without writing memory for write-set-buffering schemes
/// inside transactions. Operates on the thread context alone — notably it
/// never touches the frame stack, which is what lets the tier-2 executor
/// keep the register file checked out of the frame while storing.
#[inline]
pub(crate) fn store(th: &mut ThreadCtx, addr: PAddr, value: u64) {
    let h = &mut th.handle;
    match &mut th.scheme {
        SchemeState::Origin => h.write_u64(addr, value),
        SchemeState::Ido(s) => s.store(h, addr, value),
        SchemeState::JustDo(_) => resumption::justdo_store(h, addr, value),
        SchemeState::Undo(s) => s.store(h, addr, value),
        SchemeState::Mnemosyne(s) => s.store(h, addr, value),
        SchemeState::Nvthreads(s) => s.store(h, addr, value),
        SchemeState::Nvtraverse(w) => lockfree::window_store(w, h, addr, value),
        SchemeState::LfEager(_) => lockfree::eager_store(h, addr, value),
    }
}

/// The tier-2 `Store` superinstruction: [`store`], and the one place the
/// harness self-test's mis-fusion can be injected.
#[inline]
pub(crate) fn store_fused(th: &mut ThreadCtx, config: &VmConfig, addr: PAddr, value: u64) {
    store(th, addr, value);
    if let SchemeState::Ido(s) = &mut th.scheme {
        s.misfuse_store(config);
    }
}

/// A persistent load as the thread's scheme sees it (transactional schemes
/// read through their write sets), shared by both execution tiers.
#[inline]
pub(crate) fn load(th: &mut ThreadCtx, addr: PAddr) -> u64 {
    let h = &mut th.handle;
    match &mut th.scheme {
        SchemeState::Mnemosyne(s) => s.tx.load(h, addr),
        SchemeState::Nvthreads(s) => s.tx.load(h, addr),
        SchemeState::Nvtraverse(w) => lockfree::window_load(w, h, addr),
        _ => h.read_u64(addr),
    }
}

/// Thread `t`'s compare-and-swap step: the middle of the recoverable-CAS
/// protocol under the lock-free pair, a plain read-compare-[`store`] under
/// every other scheme.
pub(crate) fn cas(
    th: &mut ThreadCtx,
    shared: &Shared,
    t: usize,
    addr: PAddr,
    expected: u64,
    new: u64,
) -> bool {
    if let Shared::LockFree(st) = shared {
        return rcas::exchange(&mut th.handle, *st, t as u32, addr, expected, new);
    }
    if load(th, addr) != expected {
        return false;
    }
    store(th, addr, new);
    true
}

/// Simulated ns every instruction of this thread costs on top of its own
/// charge, attributed to logging.
#[inline]
pub(crate) fn step_tax(th: &ThreadCtx, config: &VmConfig) -> u64 {
    match &th.scheme {
        SchemeState::JustDo(s) => s.step_tax(config),
        _ => 0,
    }
}

/// True when the program's own `lock` / `unlock` are no-ops for this
/// thread (Mnemosyne: subsumed by the global transaction lock).
#[inline]
pub(crate) fn subsumes_program_locks(th: &ThreadCtx) -> bool {
    matches!(th.scheme, SchemeState::Mnemosyne(_))
}

/// Everything of the VM an `Rt` op of thread `t`, at `pc`, may touch.
pub(crate) struct RtCx<'a> {
    pub(crate) t: usize,
    pub(crate) pc: Pc,
    pub(crate) th: &'a mut ThreadCtx,
    pub(crate) locks: &'a mut LockTable,
    pub(crate) config: &'a VmConfig,
}

/// What the engine does after an `Rt` op: the part that moves the pc or
/// needs a second thread's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Fall through to the next instruction.
    Next,
    /// The thread blocked (status already set); the pc stays on the op,
    /// which re-executes after the hand-off.
    Stay,
    /// Fall through, and wake the waiter the op handed its lock to.
    Wake(ThreadId),
}

/// Executes one scheme runtime op. FASE entry and exit are observed here
/// for every scheme; what they *do* is the scheme's.
pub(crate) fn rt(cx: &mut RtCx<'_>, shared: &mut Shared, op: &RtOp) -> Effect {
    if let RtOp::FaseBegin = op {
        cx.th.handle.observe(EventKind::FaseEnter, 0, 0);
    }
    // The state leaves the thread for the op, so that its scheme holds it
    // and the rest of the thread as two borrows.
    let mut state = std::mem::replace(&mut cx.th.scheme, SchemeState::Origin);
    let effect = match (&mut state, shared) {
        (SchemeState::Origin, _) => foreign(op, "Origin"),
        (SchemeState::Ido(s), _) => s.rt(cx, op),
        (SchemeState::JustDo(s), _) => s.rt(cx, op),
        (SchemeState::Undo(s), Shared::Undo(vm)) => s.rt(vm, cx, op),
        (SchemeState::Mnemosyne(s), _) => s.rt(cx, op),
        (SchemeState::Nvthreads(s), Shared::Nvthreads(stamp)) => s.rt(stamp, cx, op),
        (SchemeState::Nvtraverse(w) | SchemeState::LfEager(w), Shared::LockFree(st)) => {
            lockfree::rt(w, *st, cx, op)
        }
        _ => unreachable!("a thread and its VM are of one scheme"),
    };
    cx.th.scheme = state;
    if let RtOp::FaseEnd = op {
        cx.th.handle.observe(EventKind::FaseExit, 0, 0);
        if cx.th.recovery {
            cx.th.halt_after_release = true;
        }
    }
    effect
}

/// An op `scheme` gives no meaning of its own: the FASE markers pass,
/// anything else is off the (scheme, op) diagonal its row lowers to — a lock
/// or store record under a scheme that keeps none, or an op only one scheme
/// emits (`rt.tx_*`, `rt.ido_boundary`, `rt.justdo_shadow`, `rt.lf_*`) under
/// another.
fn foreign(op: &RtOp, scheme: &str) -> Effect {
    let marker = matches!(op, RtOp::FaseBegin | RtOp::FaseEnd);
    assert!(marker, "{op:?} is not a runtime op of {scheme}");
    Effect::Next
}

/// What a recovery driver works on.
pub(crate) struct RecoverCx<'a> {
    /// The recovery procedure's own handle; its clock is recovery time.
    h: &'a mut PmemHandle,
    /// Every registered thread's areas.
    threads: &'a [RegistryEntry],
    vm_config: &'a VmConfig,
    rc: RecoveryConfig,
    report: &'a mut RecoveryReport,
    /// Work left before the recovery itself is cut short: interpreter
    /// steps under resumption, persist operations under log processing.
    budget: &'a mut u64,
}

impl RecoverCx<'_> {
    /// Spends one unit of budget; `None` when none is left.
    fn spend(&mut self) -> Option<()> {
        *self.budget = self.budget.checked_sub(1)?;
        Some(())
    }

    /// Runs `body` as one span of recovery `phase`. When `body` runs out of
    /// budget (`None`) the phase stays open, as a crash would leave it.
    fn phase<T>(
        &mut self,
        phase: RecoveryPhase,
        body: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<T> {
        let t0 = self.h.recovery_begin(phase);
        let out = body(self)?;
        self.h.recovery_end(phase, t0);
        Some(out)
    }

    /// Adds the modeled cost of the finished recovery to the report: one
    /// recovery thread per registered thread, plus `work_ns` of work.
    fn finish(&mut self, work_ns: u64) -> Option<()> {
        self.report.sim_ns += self.rc.per_thread_ns * self.threads.len() as u64 + work_ns;
        Some(())
    }
}

/// Runs `instrumented.scheme`'s recovery procedure on `pool` under `budget`.
/// `None`, with the pool left mid-protocol and in-flight write-backs
/// unfenced, when the budget runs out first.
pub(crate) fn recover(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    mut budget: u64,
) -> Option<RecoveryReport> {
    let scheme = instrumented.scheme;
    let mut h = pool.handle();
    let roots = RootTable::attach(&mut h).expect("pool must be formatted");
    let registry = Registry::open(&mut h).expect("thread registry");
    let count = registry.count(&mut h);
    let threads: Vec<RegistryEntry> = (0..count).map(|i| registry.entry(&mut h, i)).collect();
    let mut report = RecoveryReport {
        scheme,
        threads_scanned: count,
        resumed: 0,
        rolled_back: 0,
        replayed: 0,
        undo_entries: 0,
        log_entries_scanned: 0,
        steps: 0,
        sim_ns: rc.base_ns,
    };
    let (h, threads, vm_config) = (&mut h, &threads[..], &vm_config);
    let mut cx = RecoverCx { h, threads, vm_config, rc, report: &mut report, budget: &mut budget };
    match scheme {
        Scheme::Origin => Some(()),
        Scheme::Ido => resumption::recover(&mut cx, pool, instrumented, resumption::ido_log),
        Scheme::JustDo => resumption::recover(&mut cx, pool, instrumented, resumption::justdo_log),
        Scheme::Atlas => undo::recover_atlas(&mut cx),
        Scheme::Nvml => undo::recover_nvml(&mut cx),
        Scheme::Mnemosyne | Scheme::Nvthreads => redo::recover(&mut cx),
        Scheme::Nvtraverse | Scheme::LfEager => lockfree::recover(&mut cx, &roots),
    }?;
    Some(report)
}
