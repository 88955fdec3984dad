//! Post-crash recovery procedures for every scheme.
//!
//! * **iDO** (Section III-C): re-attach the pool, find the per-thread
//!   `iDO_Log`s, create a recovery thread per interrupted FASE, re-grant the
//!   locks recorded in each `lock_array`, restore registers and the stack
//!   pointer, jump to `recovery_pc` (the entry of the interrupted idempotent
//!   region), and execute forward to the end of the FASE.
//! * **JUSTDO**: the same resumption structure, but restoring from the
//!   per-store log and shadow register file.
//! * **Atlas**: scan every thread's UNDO log, compute the globally
//!   consistent cut by following the happens-before edges recorded at lock
//!   operations (an interrupted FASE invalidates every FASE that later
//!   acquired a lock it released), and roll back all invalidated FASEs in
//!   reverse timestamp order. This is the work that makes Atlas recovery
//!   time grow with log volume (Table I).
//! * **NVML**: roll back the uncommitted suffix of each thread's UNDO log.
//! * **Mnemosyne / NVThreads**: replay committed-but-unapplied REDO logs;
//!   discard uncommitted ones.

use std::collections::HashMap;

use ido_compiler::{Instrumented, Scheme};
use ido_nvm::root::RootTable;
use ido_nvm::{PmemHandle, PmemPool, PAddr};
use ido_trace::{EventKind, RecoveryPhase};

use crate::exec::{RunOutcome, Vm, VmConfig, THREADS_ROOT};
use crate::layout::{IdoLogLayout, JustDoLogLayout, LogEntryKind, AppendLogLayout, LOCK_ARRAY_SLOTS};
use crate::locks::ThreadId;

/// Cost model for the constant part of recovery (Section V-D observes that
/// iDO recovery time is dominated by mapping the persistent region and
/// creating recovery threads — essentially constant).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// One-time cost: re-mapping the persistent region, log discovery.
    pub base_ns: u64,
    /// Per-recovery-thread creation and initialization cost.
    pub per_thread_ns: u64,
    /// CPU cost to examine one log entry during a scan (Atlas/NVML).
    pub entry_scan_ns: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            base_ns: 120_000_000, // 120 ms: mmap + attach
            per_thread_ns: 12_000_000, // 12 ms per recovery thread
            // Atlas recovery builds its happens-before graph with per-entry
            // allocation and hashing; a few hundred ns per entry.
            entry_scan_ns: 250,
        }
    }
}

impl RecoveryConfig {
    /// Zero-overhead config for unit tests that assert only on state.
    pub fn for_tests() -> Self {
        Self { base_ns: 0, per_thread_ns: 0, entry_scan_ns: 0 }
    }
}

/// What recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Scheme recovered.
    pub scheme: Scheme,
    /// Threads found in the registry.
    pub threads_scanned: usize,
    /// Interrupted FASEs resumed to completion (iDO/JUSTDO).
    pub resumed: usize,
    /// FASEs rolled back (Atlas: including dependence-invalidated ones;
    /// NVML: uncommitted transactions).
    pub rolled_back: usize,
    /// Committed REDO transactions replayed (Mnemosyne/NVThreads).
    pub replayed: usize,
    /// UNDO entries applied.
    pub undo_entries: usize,
    /// Total log entries scanned.
    pub log_entries_scanned: usize,
    /// Interpreter steps executed by recovery threads.
    pub steps: u64,
    /// Modeled wall-clock recovery time in simulated nanoseconds.
    pub sim_ns: u64,
}

/// Like [`recover`], but crashes the recovery itself after a budget of
/// work. For resumption schemes (iDO/JUSTDO) the budget counts interpreter
/// steps of the recovery threads; for the log-processing baselines (Atlas,
/// NVML, Mnemosyne, NVThreads) it counts persist operations — rollback and
/// replay write-backs plus the per-step log-retirement protocol. Used to
/// verify that recovery tolerates failures *during* recovery: because
/// resumption only ever re-executes idempotent regions, rollback/replay
/// writes are themselves idempotent, and log retirement is crash-ordered
/// (see [`crate::layout::RESET_SENTINEL`]), a second recovery must succeed.
///
/// Returns `true` if the recovery ran to completion within the budget
/// (nothing left to crash).
pub fn recover_interrupted(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    budget: u64,
    crash_seed: u64,
) -> bool {
    if recover_partial(pool.clone(), instrumented, vm_config, budget) {
        return true;
    }
    pool.crash(crash_seed);
    false
}

/// Runs recovery under a budget **without** crashing on exhaustion: when
/// the budget runs out the pool is left mid-protocol, its dirty (unfenced)
/// lines intact, so the caller can crash it with a policy of its choosing
/// (the crash oracle sweeps `PmemPool::crash_with` over lost-line subsets
/// at exactly this point). Budget units are interpreter steps for
/// resumption schemes, persist operations for the log-processing ones —
/// see [`recover_interrupted`].
///
/// Returns `true` when recovery ran to completion within the budget.
pub fn recover_partial(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    budget: u64,
) -> bool {
    let scheme = instrumented.scheme;
    if !scheme.recovers_by_resumption() {
        return recover_budgeted(
            pool,
            instrumented,
            vm_config,
            RecoveryConfig::for_tests(),
            budget,
        )
        .is_some();
    }
    let mut h = pool.handle();
    let roots = RootTable::attach(&mut h).expect("pool must be formatted");
    let registry = roots.root(&mut h, THREADS_ROOT).expect("thread registry");
    let count = h.read_u64(registry) as usize;
    let entries: Vec<(PAddr, PAddr, PAddr, PAddr)> = (0..count)
        .map(|i| {
            let e = registry + 8 + i * 32;
            (
                h.read_u64(e) as PAddr,
                h.read_u64(e + 8) as PAddr,
                h.read_u64(e + 16) as PAddr,
                h.read_u64(e + 24) as PAddr,
            )
        })
        .collect();
    let mut vm = Vm::attach(pool, instrumented, vm_config);
    build_recovery_threads(&mut vm, &mut h, &entries, scheme == Scheme::Ido);
    drop(h);
    vm.run_steps(budget) == RunOutcome::Completed
}

/// Constructs the recovery threads for a resumption scheme (shared by
/// [`recover`] and [`recover_interrupted`]). Returns how many were resumed.
fn build_recovery_threads(
    vm: &mut Vm,
    h: &mut PmemHandle,
    entries: &[(PAddr, PAddr, PAddr, PAddr)],
    ido: bool,
) -> usize {
    let max_regs = vm.program().functions().iter().map(|f| f.num_regs()).max().unwrap_or(1);
    let mut resumed = 0;
    for (idx, &(ido_base, jd_base, app_base, stack_area)) in entries.iter().enumerate() {
        let (pc, stack_base, regs, lock_list, bitmap_addr) = if ido {
            let l = IdoLogLayout { base: ido_base, max_regs };
            let pc = l.read_recovery_pc(h);
            let sb = h.read_u64(l.stack_base()) as PAddr;
            let regs: Vec<u64> = (0..max_regs).map(|r| h.read_u64(l.rf_slot(r))).collect();
            let bm = h.read_u64(l.lock_bitmap());
            let locks: Vec<(usize, u64)> = (0..LOCK_ARRAY_SLOTS)
                .filter(|i| bm & (1 << i) != 0)
                .map(|i| (i, h.read_u64(l.lock_slot(i))))
                .collect();
            (pc, sb, regs, locks, l.lock_bitmap())
        } else {
            let l = JustDoLogLayout { base: jd_base, max_regs };
            let pc = crate::layout::decode_pc(h.read_u64(l.active_pc()));
            let sb = h.read_u64(l.stack_base()) as PAddr;
            let regs: Vec<u64> = (0..max_regs).map(|r| h.read_u64(l.shadow_slot(r))).collect();
            let bm = h.read_u64(l.lock_bitmap());
            let locks: Vec<(usize, u64)> = (0..LOCK_ARRAY_SLOTS)
                .filter(|i| bm & (1 << i) != 0)
                .map(|i| (i, h.read_u64(l.lock_slot(i))))
                .collect();
            (pc, sb, regs, locks, l.lock_bitmap())
        };
        match pc {
            Some(pc) => {
                let func = vm.program().function(pc.func);
                let nregs = func.num_regs() as usize;
                let mut frame_regs = vec![0u64; nregs];
                frame_regs.copy_from_slice(&regs[..nregs]);
                let mut lock_slots = Box::new([None; LOCK_ARRAY_SLOTS]);
                for &(slot, lock) in &lock_list {
                    lock_slots[slot] = Some(lock);
                }
                let ctx = vm.make_recovery_ctx(
                    idx, ido_base, jd_base, app_base, stack_area, pc.func, pc, frame_regs,
                    stack_base, lock_slots,
                );
                let tid = ThreadId(vm.threads.len());
                vm.push_recovery_thread(ctx);
                for &(_, lock) in &lock_list {
                    vm.locks.grant(lock, tid);
                }
                resumed += 1;
            }
            None => {
                // Robbed-lock case: stale records without a FASE in
                // progress are cleared.
                if !lock_list.is_empty() {
                    h.write_u64(bitmap_addr, 0);
                    h.persist(bitmap_addr, 8);
                }
            }
        }
    }
    resumed
}

/// Runs crash recovery on `pool` for the given instrumented program.
///
/// # Panics
/// Panics if the pool was never formatted or recovery itself deadlocks
/// (both indicate bugs in the scheme under test, which is what the crash
/// tests are for).
pub fn recover(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    rc: RecoveryConfig,
) -> RecoveryReport {
    recover_budgeted(pool, instrumented, vm_config, rc, u64::MAX)
        .expect("unbudgeted recovery runs to completion")
}

/// [`recover`] under a persist-operation budget (log-processing schemes
/// only; resumption schemes and `Origin` ignore the budget — use
/// [`recover_interrupted`] to bound resumption by interpreter steps).
/// Returns `None`, with the pool left mid-protocol and in-flight
/// write-backs unfenced, when the budget runs out — the caller decides how
/// to crash (e.g. `PmemPool::crash_with` over chosen lost-line subsets).
pub fn recover_budgeted(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    budget: u64,
) -> Option<RecoveryReport> {
    let scheme = instrumented.scheme;
    let mut h = pool.handle();
    let roots = RootTable::attach(&mut h).expect("pool must be formatted");
    let registry = roots.root(&mut h, THREADS_ROOT).expect("thread registry");
    let count = h.read_u64(registry) as usize;
    let entries: Vec<(PAddr, PAddr, PAddr, PAddr)> = (0..count)
        .map(|i| {
            let e = registry + 8 + i * 32;
            (
                h.read_u64(e) as PAddr,
                h.read_u64(e + 8) as PAddr,
                h.read_u64(e + 16) as PAddr,
                h.read_u64(e + 24) as PAddr,
            )
        })
        .collect();

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

    let mut left = budget;
    let complete = match scheme {
        Scheme::Origin => true,
        Scheme::Ido => {
            recover_resumption(pool, instrumented, vm_config, rc, &entries, &mut report, true, &mut h);
            true
        }
        Scheme::JustDo => {
            recover_resumption(pool, instrumented, vm_config, rc, &entries, &mut report, false, &mut h);
            true
        }
        Scheme::Nvtraverse | Scheme::LfEager => {
            recover_lockfree(&mut h, &roots, &vm_config, rc, count, &mut report, &mut left)
        }
        Scheme::Atlas => recover_atlas(&mut h, vm_config, rc, &entries, &mut report, &mut left),
        Scheme::Nvml => recover_nvml(&mut h, vm_config, rc, &entries, &mut report, &mut left),
        Scheme::Mnemosyne | Scheme::Nvthreads => {
            recover_redo(&mut h, vm_config, rc, &entries, &mut report, &mut left)
        }
    };
    complete.then_some(report)
}

/// Lock-free (NVTraverse / LF-Eager) recovery: resolve every registered
/// thread's persistent CAS descriptor to taken xor not-taken and durably
/// close it ([`ido_lockfree::LfState::resolve_and_close`]). No FASEs, no
/// logs, no resumption threads — recovery work is one descriptor line per
/// thread, independent of how much the crashed run executed. Each closed
/// in-flight descriptor counts against the persist-operation budget;
/// returns `false` (mid-protocol, remaining descriptors still in flight)
/// on exhaustion. The pass is idempotent, so a crash during recovery just
/// reruns it.
fn recover_lockfree(
    h: &mut PmemHandle,
    roots: &RootTable,
    vm_config: &VmConfig,
    rc: RecoveryConfig,
    thread_count: usize,
    report: &mut RecoveryReport,
    budget: &mut u64,
) -> bool {
    use ido_lockfree::{LfState, Resolution};
    let base = roots.root(h, crate::exec::LF_STATE_ROOT).expect("lock-free descriptor table root");
    let st = LfState { base, threads: vm_config.max_threads as u32 };
    let scan_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, h.clock_ns() - scan_t0);
    h.metrics_recovery(RecoveryPhase::Scan, scan_t0, h.clock_ns());
    let resume_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0);
    for t in 0..thread_count.min(st.threads as usize) {
        // Peek first so closed descriptors cost no budget (and no write).
        if st.resolve(h, t as u32) == Resolution::Closed {
            continue;
        }
        if *budget == 0 {
            return false; // crash mid-resolution: rerun resolves the rest
        }
        *budget -= 1;
        st.resolve_and_close(h, t as u32);
        // Reported as "resumed": the descriptor's operation was driven to
        // its durable conclusion, the family's analogue of resuming an
        // interrupted FASE.
        report.resumed += 1;
    }
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, h.clock_ns() - resume_t0);
    h.metrics_recovery(RecoveryPhase::Resume, resume_t0, h.clock_ns());
    let release_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Release as u64, 0);
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Release as u64, 0);
    h.metrics_recovery(RecoveryPhase::Release, release_t0, h.clock_ns());
    report.sim_ns += rc.per_thread_ns * thread_count as u64 + h.clock_ns();
    true
}

/// Recovery via resumption (iDO and JUSTDO).
#[allow(clippy::too_many_arguments)]
fn recover_resumption(
    pool: PmemPool,
    instrumented: Instrumented,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    entries: &[(PAddr, PAddr, PAddr, PAddr)],
    report: &mut RecoveryReport,
    ido: bool,
    h: &mut PmemHandle,
) {
    let mut vm = Vm::attach(pool, instrumented, vm_config);
    // Scan phase: read each interrupted thread's log into a recovery
    // context (registers, stack pointer, held locks, recovery_pc).
    let scan_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
    let resumed = build_recovery_threads(&mut vm, h, entries, ido);
    let scan_ns = h.clock_ns() - scan_t0 + rc.per_thread_ns * entries.len() as u64;
    h.set_clock_ns(scan_t0 + scan_ns);
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, scan_ns);
    h.metrics_recovery(RecoveryPhase::Scan, scan_t0, scan_t0 + scan_ns);
    // Resume phase: execute every interrupted FASE forward to completion.
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0);
    let outcome = vm.run();
    assert_eq!(outcome, RunOutcome::Completed, "recovery must drive every FASE to completion");
    let resume_ns = vm.max_clock_ns();
    h.set_clock_ns(scan_t0 + scan_ns + resume_ns);
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, resume_ns);
    h.metrics_recovery(RecoveryPhase::Resume, scan_t0 + scan_ns, scan_t0 + scan_ns + resume_ns);
    // Release phase: recovery threads release their locks as part of FASE
    // completion (measured inside Resume), so this span records only the
    // handoff back to the application.
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Release as u64, 0);
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Release as u64, 0);
    report.resumed = resumed;
    report.steps = vm.steps();
    report.sim_ns += rc.per_thread_ns * entries.len() as u64 + vm.max_clock_ns();
}

#[derive(Debug)]
struct FaseRec {
    committed: bool,
    undo: Vec<(u64, u64, u64)>, // (addr, old, stamp)
    acquires: Vec<(u64, u64)>,  // (lock, observed release stamp)
    releases: Vec<(u64, u64)>,  // (lock, stamp)
}

/// Atlas recovery: consistent-cut computation plus rollback. Returns
/// `false` (mid-protocol, unfenced) on budget exhaustion.
fn recover_atlas(
    h: &mut PmemHandle,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    entries: &[(PAddr, PAddr, PAddr, PAddr)],
    report: &mut RecoveryReport,
    budget: &mut u64,
) -> bool {
    // 1. Scan every thread's log into FASE records.
    let scan_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
    let mut fases: Vec<FaseRec> = Vec::new();
    let mut total_entries = 0;
    for &(_, _, app_base, _) in entries.iter() {
        let log = AppendLogLayout { base: app_base, capacity: vm_config.log_entries };
        let n = log.scan_len(h);
        total_entries += n;
        let mut cur: Option<FaseRec> = None;
        for i in 0..n {
            let (kind, a, b, stamp) = log.read(h, i);
            h.advance(rc.entry_scan_ns);
            match kind {
                Some(LogEntryKind::FaseBegin) => {
                    if let Some(f) = cur.take() {
                        fases.push(f); // interrupted before commit
                    }
                    cur = Some(FaseRec {
                        committed: false,
                        undo: Vec::new(),
                        acquires: Vec::new(),
                        releases: Vec::new(),
                    });
                }
                Some(LogEntryKind::Undo) => {
                    if let Some(f) = cur.as_mut() {
                        f.undo.push((a, b, stamp));
                    }
                }
                Some(LogEntryKind::LockAcquire) => {
                    if let Some(f) = cur.as_mut() {
                        f.acquires.push((a, b));
                    }
                }
                Some(LogEntryKind::LockRelease) => {
                    if let Some(f) = cur.as_mut() {
                        f.releases.push((a, b));
                    }
                }
                Some(LogEntryKind::Commit) => {
                    if let Some(mut f) = cur.take() {
                        f.committed = true;
                        fases.push(f);
                    }
                }
                _ => {}
            }
        }
        if let Some(f) = cur.take() {
            fases.push(f);
        }
    }
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, h.clock_ns() - scan_t0);
    h.metrics_recovery(RecoveryPhase::Scan, scan_t0, h.clock_ns());
    let resume_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0);

    // 2. Compute the invalidated set: interrupted FASEs, plus (to a fixed
    // point) any FASE that acquired a lock whose observed release stamp was
    // produced by an invalidated FASE.
    let mut release_owner: HashMap<(u64, u64), usize> = HashMap::new();
    for (fi, f) in fases.iter().enumerate() {
        for &(lock, stamp) in &f.releases {
            release_owner.insert((lock, stamp), fi);
        }
    }
    let mut undone: Vec<bool> = fases.iter().map(|f| !f.committed).collect();
    loop {
        let mut changed = false;
        for fi in 0..fases.len() {
            if undone[fi] {
                continue;
            }
            for &(lock, observed) in &fases[fi].acquires {
                if observed == 0 {
                    continue;
                }
                if let Some(&owner) = release_owner.get(&(lock, observed)) {
                    if undone[owner] {
                        undone[fi] = true;
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Roll back all invalidated FASEs' stores in reverse stamp order.
    let mut rollback: Vec<(u64, u64, u64)> = Vec::new();
    for (fi, f) in fases.iter().enumerate() {
        if undone[fi] {
            rollback.extend(f.undo.iter().copied());
        }
    }
    rollback.sort_by_key(|&(_, _, stamp)| std::cmp::Reverse(stamp));
    for &(addr, old, _) in &rollback {
        if *budget == 0 {
            return false; // crash mid-rollback: writes so far unfenced
        }
        h.write_u64(addr as PAddr, old);
        h.clwb(addr as PAddr);
        *budget -= 1;
    }
    h.sfence();
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, h.clock_ns() - resume_t0);
    h.metrics_recovery(RecoveryPhase::Resume, resume_t0, h.clock_ns());
    let release_t0 = h.clock_ns();
    h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Release as u64, 0);

    // 4. Retire the logs.
    for &(_, _, app_base, _) in entries {
        let log = AppendLogLayout { base: app_base, capacity: vm_config.log_entries };
        if !log.reset_budgeted(h, budget) {
            return false; // crash mid-retirement
        }
    }
    h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Release as u64, h.clock_ns() - release_t0);
    h.metrics_recovery(RecoveryPhase::Release, release_t0, h.clock_ns());

    report.rolled_back = undone.iter().filter(|u| **u).count();
    report.undo_entries = rollback.len();
    report.log_entries_scanned = total_entries;
    report.sim_ns += rc.per_thread_ns * entries.len() as u64 + h.clock_ns();
    true
}

/// NVML recovery: undo each thread's uncommitted trailing transaction.
/// Returns `false` (mid-protocol, unfenced) on budget exhaustion.
fn recover_nvml(
    h: &mut PmemHandle,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    entries: &[(PAddr, PAddr, PAddr, PAddr)],
    report: &mut RecoveryReport,
    budget: &mut u64,
) -> bool {
    for &(_, _, app_base, _) in entries {
        let log = AppendLogLayout { base: app_base, capacity: vm_config.log_entries };
        // Per-log segmented phases: the durations of all segments of one
        // phase sum to that phase's total recovery time.
        let scan_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
        let n = log.scan_len(h);
        report.log_entries_scanned += n;
        // Find the start of the uncommitted suffix.
        let mut suffix_start = 0;
        for i in 0..n {
            let (kind, ..) = log.read(h, i);
            h.advance(rc.entry_scan_ns);
            if kind == Some(LogEntryKind::Commit) {
                suffix_start = i + 1;
            }
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, h.clock_ns() - scan_t0);
        h.metrics_recovery(RecoveryPhase::Scan, scan_t0, h.clock_ns());
        let resume_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0);
        let mut any = false;
        for i in (suffix_start..n).rev() {
            let (kind, a, b, _) = log.read(h, i);
            if kind == Some(LogEntryKind::Undo) {
                if *budget == 0 {
                    return false; // crash mid-rollback
                }
                h.write_u64(a as PAddr, b);
                h.clwb(a as PAddr);
                *budget -= 1;
                report.undo_entries += 1;
                any = true;
            }
        }
        if any {
            h.sfence();
            report.rolled_back += 1;
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, h.clock_ns() - resume_t0);
        h.metrics_recovery(RecoveryPhase::Resume, resume_t0, h.clock_ns());
        let release_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Release as u64, 0);
        if !log.reset_budgeted(h, budget) {
            return false; // crash mid-retirement
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Release as u64, h.clock_ns() - release_t0);
        h.metrics_recovery(RecoveryPhase::Release, release_t0, h.clock_ns());
    }
    report.sim_ns += rc.per_thread_ns * entries.len() as u64 + h.clock_ns();
    true
}

/// Mnemosyne/NVThreads recovery: replay committed REDO logs; discard
/// uncommitted ones. Returns `false` (mid-protocol, unfenced) on budget
/// exhaustion.
fn recover_redo(
    h: &mut PmemHandle,
    vm_config: VmConfig,
    rc: RecoveryConfig,
    entries: &[(PAddr, PAddr, PAddr, PAddr)],
    report: &mut RecoveryReport,
    budget: &mut u64,
) -> bool {
    for &(_, _, app_base, _) in entries {
        let log = AppendLogLayout { base: app_base, capacity: vm_config.log_entries };
        let scan_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Scan as u64, 0);
        let n = log.scan_len(h);
        report.log_entries_scanned += n;
        if n == 0 {
            h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, h.clock_ns() - scan_t0);
            h.metrics_recovery(RecoveryPhase::Scan, scan_t0, h.clock_ns());
            continue;
        }
        let mut committed = false;
        for i in 0..n {
            let (kind, ..) = log.read(h, i);
            h.advance(rc.entry_scan_ns);
            if kind == Some(LogEntryKind::Commit) {
                committed = true;
            }
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Scan as u64, h.clock_ns() - scan_t0);
        h.metrics_recovery(RecoveryPhase::Scan, scan_t0, h.clock_ns());
        let resume_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Resume as u64, 0);
        if committed {
            for i in 0..n {
                let (kind, a, b, _) = log.read(h, i);
                if kind == Some(LogEntryKind::Redo) {
                    if *budget == 0 {
                        return false; // crash mid-replay
                    }
                    h.write_u64(a as PAddr, b);
                    h.clwb(a as PAddr);
                    *budget -= 1;
                }
            }
            h.sfence();
            report.replayed += 1;
        } else {
            report.rolled_back += 1;
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Resume as u64, h.clock_ns() - resume_t0);
        h.metrics_recovery(RecoveryPhase::Resume, resume_t0, h.clock_ns());
        let release_t0 = h.clock_ns();
        h.trace_event(EventKind::RecoveryBegin, RecoveryPhase::Release as u64, 0);
        if !log.reset_budgeted(h, budget) {
            return false; // crash mid-retirement
        }
        h.trace_event(EventKind::RecoveryEnd, RecoveryPhase::Release as u64, h.clock_ns() - release_t0);
        h.metrics_recovery(RecoveryPhase::Release, release_t0, h.clock_ns());
    }
    report.sim_ns += rc.per_thread_ns * entries.len() as u64 + h.clock_ns();
    true
}
